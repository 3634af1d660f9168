"""Footprint recording and conflict admission for group-commit rounds.

The paper's performance claim (Section 3) is that views bound transaction
scope so that "transactions whose windows do not overlap may proceed
concurrently".  PR 1 gave every window a precise instance-level footprint;
this module uses footprints *per transaction* to decide which candidates of
one scheduler round may commit together while staying serial-equivalent to
the seeded arbitration order.

A candidate's footprint has a **read side** and a **write side**:

* reads — one :class:`~repro.runtime.wakeup.AtomWatcher` per query atom
  (and per ``Membership`` pattern in test expressions and ``let`` bodies),
  i.e. the ``(arity, position, value)`` index keys whose population the
  query's verdict depends on.  Unanalysable queries and config-dependent
  views degrade to ``reads_all`` (conflicts with every write);
* writes — the tuple ids it retracts plus a conservative description of
  the tuples it would assert (per position: a known value, or unknown).

Candidate *L* (later in arbitration order) conflicts with admitted
candidate *E* iff

* **r-w** — some write of *E* may touch a read watcher of *L*: *L*'s
  snapshot evaluation could differ from its serial evaluation after *E*;
* **w-w** — they retract a common tuple id: only one retraction can
  succeed.

Assert/assert overlap is *not* a conflict: the dataspace is a multiset, so
insertions commute.  The asymmetric direction (*E* reads what *L* writes)
is also not a conflict: *E* precedes *L* serially and never observes *L*'s
writes in either execution.  The admitted set is therefore the largest
prefix-closed subsequence of the arbitration order with pairwise-compatible
footprints, and replaying it serially in that order from the round-start
state reproduces the batch state exactly (checked by
:func:`validate_serial_equivalence` under ``validate="serial"``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.actions import AssertTuple, Let
from repro.core.dataspace import Dataspace
from repro.core.query import FORALL, QueryResult
from repro.core.transactions import Transaction, execute
from repro.core.tuples import TupleId
from repro.errors import EngineError
from repro.runtime.wakeup import AtomWatcher, _expr_watchers, derive_subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.process import ProcessInstance

__all__ = [
    "UNKNOWN",
    "WriteRecord",
    "Footprint",
    "footprint_for",
    "conflicts",
    "first_conflict",
    "validate_serial_equivalence",
]


class _Unknown:
    """Sentinel for an assert position whose value is not statically known."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


class WriteRecord:
    """One written tuple: exact (a retraction) or predicted (an assertion)."""

    __slots__ = ("arity", "known")

    def __init__(self, arity: int, known: Mapping[int, Any]) -> None:
        self.arity = arity
        self.known = dict(known)  # position -> value; absent positions unknown

    def touches(self, watcher: AtomWatcher) -> bool:
        """Could this write affect the population *watcher* observes?

        Unknown positions are treated as matching anything — degrading a
        predicted assert to its arity key is conservative, never unsound.
        """
        if self.arity != watcher.arity:
            return False
        known = self.known
        for position, value in watcher.probes:
            if position in known and known[position] != value:
                return False
        return True

    def __repr__(self) -> str:
        body = ",".join(
            f"{p}={self.known[p]!r}" if p in self.known else f"{p}=?"
            for p in range(self.arity)
        )
        return f"write({body})"


class Footprint:
    """The read/write footprint of one evaluated round candidate."""

    __slots__ = ("pid", "reads_all", "watchers", "retract_tids", "writes")

    def __init__(
        self,
        pid: int,
        reads_all: bool,
        watchers: Sequence[AtomWatcher],
        retract_tids: frozenset[TupleId],
        writes: Sequence[WriteRecord],
    ) -> None:
        self.pid = pid
        self.reads_all = reads_all
        self.watchers = tuple(watchers)
        self.retract_tids = retract_tids
        self.writes = tuple(writes)

    def __repr__(self) -> str:
        reads = "ANY" if self.reads_all else f"{len(self.watchers)} watchers"
        return (
            f"footprint(pid={self.pid}, reads={reads}, "
            f"retracts={len(self.retract_tids)}, writes={len(self.writes)})"
        )


def footprint_for(
    txn: Transaction,
    result: QueryResult | None,
    process: "ProcessInstance",
    scope: dict[str, Any],
) -> Footprint:
    """Record the footprint of *txn* evaluated (as *result*) for *process*.

    *result* is ``None`` when the snapshot evaluation failed — the
    footprint then carries reads only, so the *failure verdict* still
    participates in conflict detection (a query that failed against the
    snapshot may succeed after an earlier admitted write).
    """
    reads_all, watchers = _read_side(txn, process, scope)
    if result is None or not result.success:
        return Footprint(process.pid, reads_all, watchers, frozenset(), ())
    retracted = result.all_retracted()
    retract_tids = frozenset(inst.tid for inst in retracted)
    writes: list[WriteRecord] = [
        WriteRecord(inst.arity, dict(enumerate(inst.values))) for inst in retracted
    ]
    writes.extend(_assert_intents(txn, result, scope))
    return Footprint(process.pid, reads_all, watchers, retract_tids, writes)


def _read_side(
    txn: Transaction, process: "ProcessInstance", scope: dict[str, Any]
) -> tuple[bool, tuple[AtomWatcher, ...]]:
    sub = derive_subscription([txn], process.view, scope, "keys")
    if sub.wake_any:
        return True, ()
    watchers = list(sub.watchers)
    # `let` bodies may read the window through Membership/count expressions
    # — those reads are invisible to the query-derived subscription.
    for action in txn.actions:
        if isinstance(action, Let):
            got = _expr_watchers(action.expr, scope, with_keys=True)
            if got is None:
                return True, ()
            watchers.extend(got)
    return False, tuple(watchers)


def _assert_intents(
    txn: Transaction, result: QueryResult, scope: dict[str, Any]
) -> list[WriteRecord]:
    """Predict the index keys of the tuples *txn* would assert.

    Positions are resolved through :meth:`Pattern.index_constants` under
    the match bindings — never by evaluating action expressions, which may
    have effects.  Unresolvable positions stay :data:`UNKNOWN`.
    """
    intents: list[WriteRecord] = []
    asserts = [a for a in txn.actions if isinstance(a, AssertTuple)]
    if not asserts:
        return intents
    envs = (
        [{**scope, **m.bindings} for m in result.matches]
        if result.matches
        else [dict(scope)]
    )
    for action in asserts:
        arity = action.pattern.arity
        for env in envs:
            intents.append(
                WriteRecord(arity, dict(action.pattern.index_constants(env)))
            )
    return intents


def conflicts(later: Footprint, earlier: Footprint) -> bool:
    """Does *later* conflict with the already-admitted *earlier*?"""
    # w-w: both retract the same instance — only one retraction can succeed.
    if later.retract_tids and not later.retract_tids.isdisjoint(earlier.retract_tids):
        return True
    # r-w: an earlier write may change what `later`'s query observed.
    if not earlier.writes:
        return False
    if later.reads_all:
        return True
    return any(
        write.touches(watcher)
        for write in earlier.writes
        for watcher in later.watchers
    )


def first_conflict(admitted: Sequence[Footprint], candidate: Footprint) -> Footprint | None:
    """The first admitted footprint *candidate* conflicts with, or ``None``."""
    for earlier in admitted:
        if conflicts(candidate, earlier):
            return earlier
    return None


# ----------------------------------------------------------------------
# serial-equivalence validation (``validate="serial"``)
# ----------------------------------------------------------------------

def validate_serial_equivalence(
    pre_rows: Sequence[tuple],
    admitted: Sequence[tuple["ProcessInstance", Transaction, QueryResult]],
    post_multiset: Mapping[tuple, int],
    round_count: int,
    export_policy: str = "error",
    obs=None,
) -> None:
    """Replay one admitted batch serially and compare final states.

    Rebuilds the round-start dataspace from *pre_rows*, replays every
    admitted transaction in arbitration order — forcing each ∃ query's
    recorded bindings so the serial run must pick value-equal instances —
    and asserts the resulting multiset equals the batch-committed one.
    Effectful callbacks are suppressed, and a private RNG keeps the check
    invisible to the engine's seeded arbitration stream.

    Raises :class:`EngineError` on any divergence — a conflict the admission
    rules failed to detect.  *obs* (an ``Observability`` or ``None``) times
    the whole replay under the ``group-validate`` site.
    """
    start = obs.spans.now() if obs is not None else 0
    scratch = Dataspace()
    scratch.insert_many(pre_rows)
    rng = random.Random(0)
    for process, txn, recorded in admitted:
        window = process.view.window(scratch, process.params)
        scope = process.scope()
        if txn.query.quantifier != FORALL:
            scope = {**scope, **recorded.bindings}
        replayed = txn.query.evaluate(window.refresh(), scope, rng)
        if not replayed.success:
            raise EngineError(
                f"group commit violated serial equivalence in round "
                f"{round_count}: {txn!r} (pid {process.pid}) committed in "
                f"the batch but fails when replayed serially"
            )
        execute(
            txn,
            window,
            scope,
            owner=process.pid,
            rng=rng,
            result=replayed,
            export_policy=export_policy,
            suppress_callbacks=True,
        )
    if scratch.multiset() != dict(post_multiset):
        raise EngineError(
            f"group commit violated serial equivalence in round "
            f"{round_count}: batch state differs from serial replay "
            f"(batch={dict(post_multiset)!r}, serial={scratch.multiset()!r})"
        )
    if obs is not None:
        obs.observe_ns(
            "group-validate",
            start,
            obs.spans.now() - start,
            {"round": round_count, "admitted": len(admitted)},
        )
