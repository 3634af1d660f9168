"""Group-commit round phases (engine option ``commit="group"``).

Extracted from :mod:`repro.runtime.executor` so the batch admission and
apply paths live in one small module.  The
:class:`~repro.runtime.executor.Executor` keeps its public surface and
delegates here; these functions receive the executor and drive its
task/process plumbing.

One round runs four phases over the items ready at its start:

* **Phase A — classify**: transactions surface as *candidates* (in
  arbitration order — deferred losers lead, this round's shuffle follows);
  selections, replication pumps, and other control flow go to the *tail*;
* **Phase B — admit**: every candidate is evaluated against the common
  round-start snapshot, its footprint recorded, and the largest
  prefix-compatible subsequence admitted (:mod:`repro.runtime.commit`):
  each candidate is checked pairwise against the admitted batch by
  ``first_conflict``;
* **Phase C — apply**: the admitted batch commits in arbitration order
  (optionally re-validated by serial replay);
* **Phase D — tail**: the non-transaction items step against the live
  post-batch state.

Losers are returned to lead the next round — the weak-fairness argument of
`docs/SEMANTICS.md`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.transactions import Control, Mode, Transaction, TransactionOutcome, execute
from repro.runtime.commit import (
    first_conflict,
    footprint_for,
    validate_serial_equivalence,
)
from repro.runtime.events import ConflictDetected, RoundCommitted, TxnFailed
from repro.runtime.interpreter import TxnRequest
from repro.runtime.scheduler import ParkedTxn, Pump, Task, TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.executor import Executor

__all__ = ["run_group_round"]


class _Crashed(Exception):
    """Unwinds the current step after a crash-stop fault killed its process.

    The crash itself (:meth:`Executor.crash_process`) already released every
    slot the process held; this exception only prevents the remainder of the
    in-flight step from acting on behalf of the dead process.  It is caught
    at the step boundaries (:meth:`Executor.step`, the group-round tail) and
    never escapes to user code.
    """


def run_group_round(executor: "Executor", items: list) -> list:
    """Run one footprint-guarded group-commit round over *items*.

    Returns the round's conflict losers, to be prepended to the next
    round's arbitration sequence.  The round is serial-equivalent to:
    admitted order, then tail order, with losers first next round.
    """
    engine = executor.engine
    candidates: list[tuple[Task, Transaction, str]] = []
    tail: list[tuple] = []

    # Phase A — classify, surfacing each task's next transaction.
    for item in items:
        if isinstance(item, Pump):
            if item.state is TaskState.READY:
                engine.step_count += 1
                tail.append(("pump", item))
            continue
        task = item
        if task.state is not TaskState.READY:
            continue  # lazily discarded (aborted process, stale entry)
        engine.step_count += 1
        if task.pending is not None:
            candidates.append((task, task.pending, "request"))
            continue
        if task.park is not None:
            park = task.park
            if isinstance(park, ParkedTxn):
                if park.transaction.mode is Mode.CONSENSUS:
                    continue  # consensus engine owns it; stale entry
                candidates.append((task, park.transaction, "park"))
            else:  # parked selection: live arbitration, tail
                tail.append(("task", task))
            continue
        value, task.send_value = task.send_value, None
        try:
            request = task.gen.send(value)
        except StopIteration as stop:
            control = stop.value if isinstance(stop.value, Control) else Control.NONE
            executor._task_finished(task, control)
            continue
        if (
            isinstance(request, TxnRequest)
            and request.transaction.mode is not Mode.CONSENSUS
        ):
            candidates.append((task, request.transaction, "request"))
        else:
            tail.append(("request", task, request))

    # Phase B — evaluate against the round-start snapshot and admit.
    obs = engine.obs
    admit_start = obs.spans.now() if obs is not None else 0
    faults = engine.faults
    watermark = engine.dataspace.serial
    admitted: list[tuple[Task, Transaction, Any, str]] = []
    admitted_fps: list = []
    losers: list[Task] = []
    conflict_count = 0
    for position, (task, txn, origin) in enumerate(candidates):
        if task.state is not TaskState.READY:
            continue  # its process died during classification
        process = task.process
        if faults is not None:
            action = faults.fire("batch-admit", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "batch-admit")
                continue  # candidate evicted before evaluation
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin)
                continue
            if action == "kill-round":
                # The whole remaining candidate set (this one included)
                # defers to the next round, reusing the loser path.
                for later_task, later_txn, later_origin in candidates[position:]:
                    if later_task.state is not TaskState.READY:
                        continue
                    if later_origin == "request":
                        later_task.pending = later_txn
                    later_task.queued = True
                    losers.append(later_task)
                break
        window = engine.window(process)
        lens = _SnapshotLens(window, watermark)
        scope = process.scope()
        result = txn.query.evaluate(lens.refresh(), scope, engine.rng)
        if faults is not None:
            action = faults.fire("post-match", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "post-match")
                continue
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin)
                continue
        fp = footprint_for(txn, result if result.success else None, process, scope)
        winner = first_conflict(admitted_fps, fp)
        if winner is not None:
            # Loser: both its success and its failure verdicts are
            # unreliable after the winner's writes — re-queue, never
            # abort or park.
            conflict_count += 1
            if origin == "request":
                task.pending = txn
            task.queued = True  # deferred outside the scheduler queues
            losers.append(task)
            engine.trace.emit(
                ConflictDetected(
                    engine.step_count, engine.round_count,
                    task.process.pid, winner.pid,
                )
            )
            continue
        if not result.success:
            # Conflict-free failure is decided *now*, before the batch
            # commits, so a parked task's subscription is registered in
            # time to see the batch's own writes.
            _group_failure(executor, task, txn, origin)
            continue
        if faults is not None:
            # About to commit: admission is decided, effects are not yet
            # applied.  Firing here (and only here) keeps the site's
            # per-process occurrence count equal to the commit index, as
            # in the serial modes.
            action = faults.fire("pre-commit", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "pre-commit")
                continue  # evicted from the batch; peers are unaffected
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin)
                continue
        admitted.append((task, txn, result, origin))
        admitted_fps.append(fp)
    if obs is not None:
        obs.observe_ns(
            "group-admit",
            admit_start,
            obs.spans.now() - admit_start,
            {
                "candidates": len(candidates),
                "admitted": len(admitted),
                "conflicts": conflict_count,
            },
        )

    validating = engine.validate == "serial" and admitted
    if validating:
        pre_rows = [
            values
            for values, count in engine.dataspace.multiset().items()
            for __ in range(count)
        ]

    # Phase C — apply the admitted batch in arbitration order.
    apply_start = obs.spans.now() if obs is not None else 0
    applied: list[tuple[Task, Transaction, Any]] = []
    for task, txn, result, origin in admitted:
        if task.state is not TaskState.READY:
            continue  # its process crashed after admission (fault injection)
        outcome = execute(
            txn,
            engine.window(task.process),
            task.process.scope(),
            owner=task.process.pid,
            rng=engine.rng,
            result=result,
            export_policy=engine.export_policy,
        )
        _deliver_commit(executor, task, txn, outcome, origin)
        applied.append((task, txn, result))
    if obs is not None:
        obs.observe_ns(
            "group-apply",
            apply_start,
            obs.spans.now() - apply_start,
            {"applied": len(applied)},
        )
    engine.trace.emit(
        RoundCommitted(
            engine.step_count, engine.round_count,
            len(candidates), len(applied), conflict_count, len(tail),
        )
    )
    if validating:
        validate_serial_equivalence(
            pre_rows,
            [(task.process, txn, result) for task, txn, result in applied],
            engine.dataspace.multiset(),
            engine.round_count,
            engine.export_policy,
            obs=obs,
        )

    # Phase D — the tail steps serially against the live batch state.
    for entry in tail:
        try:
            if entry[0] == "pump":
                if entry[1].state is TaskState.READY:
                    executor._step_pump(entry[1])
            elif entry[0] == "task":
                if entry[1].state is TaskState.READY:
                    executor._step_task(entry[1])
            else:
                __, task, request = entry
                if task.state is TaskState.READY:
                    executor._handle_request(task, request)
        except _Crashed:
            continue  # the tail item's process died mid-step
    return losers


def _group_failure(executor: "Executor", task: Task, txn: Transaction, origin: str) -> None:
    """Dispose of a conflict-free candidate whose snapshot query failed."""
    engine = executor.engine
    engine.trace.emit(
        TxnFailed(
            engine.step_count, engine.round_count, task.process.pid,
            txn.mode.name, txn.label,
        )
    )
    task.pending = None
    if txn.mode is Mode.IMMEDIATE:
        task.send_value = TransactionOutcome.failure()
        engine.scheduler.make_ready(task)
        return
    executor._classify_wake(task, spurious=True)
    if origin == "request":
        task.park = ParkedTxn(txn)
    executor._block(
        task,
        executor._subscription_for([txn], task),
        "delayed",
        requeue=(origin == "park"),
    )


def _deliver_commit(
    executor: "Executor",
    task: Task,
    txn: Transaction,
    outcome: TransactionOutcome,
    origin: str,
) -> None:
    """Hand a batch-committed outcome back to its suspended task."""
    executor._after_commit(task.process, txn, outcome)
    task.pending = None
    if origin == "park":
        executor._unpark(task)
    executor._classify_wake(task, spurious=False)
    task.send_value = outcome
    executor.engine.scheduler.make_ready(task)


class _SnapshotLens:
    """A window lens hiding tuples asserted after a serial watermark.

    Used by the group-admission phase above and by the replication pump
    (:meth:`Executor._pump_fire_batch`) to give every evaluation in one
    batch a view of the dataspace *as of the start of the round*, which is
    what a synchronous parallel step of unboundedly many replicas would
    see.
    """

    __slots__ = ("window", "max_serial")

    def __init__(self, window, max_serial: int) -> None:
        self.window = window
        self.max_serial = max_serial

    def refresh(self) -> "_SnapshotLens":
        self.window.refresh()
        return self

    @property
    def planner(self):
        """The underlying window's planner, so planned evaluation sees the
        same snapshot discipline as the naive path."""
        return getattr(self.window, "planner", None)

    def candidates(self, pat, bound=None) -> list:
        return [
            inst
            for inst in self.window.candidates(pat, bound)
            if inst.tid.serial <= self.max_serial
        ]

    def candidates_probed(self, arity, probes) -> list:
        return [
            inst
            for inst in self.window.candidates_probed(arity, probes)
            if inst.tid.serial <= self.max_serial
        ]

    def find_matching(self, pat, bound=None) -> list:
        # Each candidate matches against its own copy of the bindings
        # (mirroring core/matching.py): the environment handed to one
        # candidate's ``pat.match`` must never be visible to the next, so
        # a partially-matching decoy cannot poison later candidates even
        # for pattern implementations that treat the mapping as scratch
        # space.
        bound = dict(bound or {})
        return [
            inst
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        ]

    def count_matching(self, pat, bound=None) -> int:
        return len(self.find_matching(pat, bound))
