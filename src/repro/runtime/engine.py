"""The SDL virtual-time execution engine (public facade).

The engine wires together the three runtime components and owns the
program-visible objects:

* :class:`~repro.runtime.scheduler.Scheduler` — rounds, ready queues, task
  records, and the seeded arbitration that makes every run exactly
  reproducible for a given ``(program, dataspace, seed)``;
* :class:`~repro.runtime.wakeup.WakeupIndex` — the content-addressed
  subscription index deciding which parked item a dataspace change
  reawakens (``wake_filter``: precise ``"keys"``, the seed's coarse
  ``"arity"``, or the ``"all"`` ablation);
* :class:`~repro.runtime.executor.Executor` — transaction attempts per
  mode, selection arbitration, replication pumps, and consensus detection.

:meth:`Engine.run` drives rounds until completion, deadlock, or a limit; a
round ends when every item ready at its start has been stepped once, so
round counts approximate the parallel makespan while step counts give total
work.  A run stopped at a limit keeps its unstepped work, so calling
:meth:`Engine.run` again resumes it.

:class:`RunResult` is the one record of what a run counted: it inherits
every trace counter and adds the engine's own (steps, rounds, window and
wake checks, WAL, plan cache).  With observability enabled, the engine
exports it into the metrics registry under the names in :data:`EXPORTS`.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Sequence as Seq

from repro.core.dataspace import Dataspace
from repro.core.plan import QueryPlanner, resolve_plan_mode
from repro.core.process import ProcessDefinition, ProcessInstance
from repro.core.society import ProcessSociety
from repro.core.views import Window, WindowStats
from repro.errors import DeadlockError, EngineError, StepLimitExceeded
from repro.obs import Observability, resolve_obs
from repro.runtime.events import (
    CheckpointTaken,
    ProcessCreated,
    ProcessRestarted,
    Trace,
    TraceCounters,
)
from repro.runtime.executor import Executor
from repro.runtime.faults import FaultInjector, FaultPlan, resolve_plan
from repro.runtime.interpreter import interpret
from repro.runtime.recovery import Checkpoint, DurableLog, RecoveryLog
from repro.runtime.scheduler import Scheduler, Task, TaskKind, TaskState
from repro.runtime.supervision import RestartPolicy, Supervisor
from repro.runtime.wakeup import WakeupIndex

__all__ = ["Engine", "RunResult", "EXPORTS"]


@dataclass(slots=True, kw_only=True)
class RunResult(TraceCounters):
    """Everything one engine run counted: the run's single record.

    The :class:`~repro.runtime.events.TraceCounters` fields (commits,
    failures, wakeups, group rounds, crashes, ...) are inherited, not
    declared again; the fields below are counted outside the trace.  An
    engine with observability enabled exports the record into its metrics
    registry (:data:`EXPORTS`), so the registry is a view of it.

    ``reason`` values: ``"completed"`` (every process terminated, all crash
    lineages recovered), ``"deadlock"``, ``"step-limit"``, ``"round-limit"``,
    ``"crashed"`` (the program drained but at least one crash-stop failure
    was never restarted), and ``"escalated"`` (a supervised lineage
    exhausted its restart budget, failing the run).
    """

    reason: str
    steps: int
    rounds: int
    live_processes: int
    dataspace_size: int
    deadlocked: list[str] = field(default_factory=list)
    # Reactivity counters: wake candidates verified, window import
    # decisions served from memos, delta vs full refreshes.
    wake_checks: int = 0
    window_hits: int = 0
    window_misses: int = 0
    window_delta_refreshes: int = 0
    window_full_invalidations: int = 0
    footprint_recomputes: int = 0
    # Restarted lineages that later finished cleanly.
    recoveries: int = 0
    # Per-definition restart pressure from the supervisor:
    # ``{name: {crashes, restarts, backoff_rounds, escalations}}`` — a
    # crash-looping definition shows up here without reading the trace.
    restart_pressure: dict[str, dict[str, int]] = field(default_factory=dict)
    # Durable-log counters (populated under ``wal_dir=``): WAL frames and
    # bytes appended, and checkpoint segments committed to disk.
    wal_frames: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    # Query-planner counters (zero under ``plan="off"``): plan-cache
    # lookups that reused a compiled plan vs. built one, and cached plans.
    plan_hits: int = 0
    plan_misses: int = 0
    plan_cache_size: int = 0
    # Observability snapshot: the metrics registry dump of the run
    # (``repro.obs``) when the engine ran with observability enabled,
    # ``{}`` otherwise.  Keys are metric names; per-site latency
    # histograms live under ``sdl_<site>_seconds``.
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.reason == "completed"

    @property
    def avg_batch(self) -> float:
        """Average admitted batch size per group-commit round."""
        return self.batch_commits / self.group_rounds if self.group_rounds else 0.0

    @property
    def conflict_rate(self) -> float:
        """Fraction of evaluated candidates that lost their round."""
        attempts = self.batch_commits + self.conflicts
        return self.conflicts / attempts if attempts else 0.0

    @property
    def parallelism(self) -> float:
        """Average available parallelism: committed work per virtual round."""
        return self.commits / self.rounds if self.rounds else 0.0

    @property
    def spurious_wake_rate(self) -> float:
        """Fraction of resolved wakes that re-parked without progress."""
        resolved = self.precise_wakeups + self.spurious_wakeups
        return self.spurious_wakeups / resolved if resolved else 0.0

    @property
    def window_hit_rate(self) -> float:
        """Fraction of import decisions served from window memos."""
        probes = self.window_hits + self.window_misses
        return self.window_hits / probes if probes else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of plan-cache lookups served without rebuilding."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    @property
    def restart_storm(self) -> int:
        """The heaviest per-definition restart count."""
        return max(
            (entry["restarts"] for entry in self.restart_pressure.values()), default=0
        )


#: The registry view of :class:`RunResult`: ``(metric, kind, labels,
#: attribute)``.  An obs-enabled engine *sets* these at the end of every
#: :meth:`Engine.run`, so a resumed run re-exports running totals rather
#: than adding to them.
EXPORTS: tuple[tuple[str, str, dict[str, str], str], ...] = (
    ("sdl_steps_total", "gauge", {}, "steps"),
    ("sdl_rounds_total", "gauge", {}, "rounds"),
    ("sdl_commits_total", "gauge", {}, "commits"),
    ("sdl_dataspace_size", "gauge", {}, "dataspace_size"),
    ("sdl_plan_cache_total", "counter", {"result": "hit"}, "plan_hits"),
    ("sdl_plan_cache_total", "counter", {"result": "miss"}, "plan_misses"),
    ("sdl_plan_cache_size", "gauge", {}, "plan_cache_size"),
    ("sdl_plan_hit_rate", "gauge", {}, "plan_hit_rate"),
    ("sdl_wal_frames_total", "counter", {}, "wal_frames"),
    ("sdl_wal_bytes_total", "counter", {}, "wal_bytes"),
    ("sdl_restart_storm", "gauge", {}, "restart_storm"),
)


class Engine:
    """Executes an SDL program over a dataspace and a process society."""

    def __init__(
        self,
        dataspace: Dataspace | None = None,
        definitions: Iterable[ProcessDefinition] = (),
        seed: int = 0,
        policy: str = "random",
        trace: Trace | None = None,
        export_policy: str = "error",
        consensus_check: str = "eager",
        on_deadlock: str = "raise",
        wake_filter: str = "keys",
        commit: str | None = None,
        validate: str | None = None,
        faults: "FaultPlan | str | None" = None,
        supervision: "dict[str, RestartPolicy] | RestartPolicy | None" = None,
        checkpoint_interval: int | None = None,
        obs: "Observability | bool | None" = None,
        plan: "str | bool | None" = None,
        wal_dir: "str | None" = None,
    ) -> None:
        if policy not in ("random", "fifo"):
            raise EngineError(f"unknown scheduling policy {policy!r}")
        if consensus_check not in ("eager", "idle"):
            raise EngineError(f"unknown consensus_check {consensus_check!r}")
        if wake_filter not in ("keys", "arity", "all"):
            raise EngineError(f"unknown wake_filter {wake_filter!r}")
        if on_deadlock not in ("raise", "return"):
            raise EngineError(f"unknown on_deadlock {on_deadlock!r}")
        if export_policy not in ("error", "drop"):
            raise EngineError(f"unknown export_policy {export_policy!r}")
        # Round commit discipline: "live" (the seed's semantics — each step
        # sees mid-round mutations), "serial" (one item per round, the
        # serial reference for rounds-as-makespan comparisons), or "group"
        # (footprint-guarded batch commit, serial-equivalent to the seeded
        # arbitration order).  ``validate="serial"`` re-runs every group
        # round serially and asserts identical dataspace state.  The
        # SDL_COMMIT / SDL_VALIDATE environment variables supply defaults
        # so whole test suites can be swept across commit modes.
        if commit is None:
            commit = os.environ.get("SDL_COMMIT") or "live"
        if validate is None:
            validate = os.environ.get("SDL_VALIDATE") or None
        if commit not in ("live", "serial", "group"):
            raise EngineError(f"unknown commit mode {commit!r}")
        if validate not in (None, "serial"):
            raise EngineError(f"unknown validate mode {validate!r}")
        self.dataspace = dataspace if dataspace is not None else Dataspace()
        self.society = ProcessSociety(definitions)
        self.rng = random.Random(seed)
        self.trace = trace if trace is not None else Trace()
        self.export_policy = export_policy
        self.consensus_check = consensus_check
        self.on_deadlock = on_deadlock
        self.wake_filter = wake_filter
        self.commit = commit
        self.validate = validate

        # Observability (metrics + span tracing, ``repro.obs``): same
        # disabled-path discipline as fault injection — ``self.obs`` is
        # ``None`` unless the argument enables it, every instrumented site
        # guards with a single ``is None`` check, and the hook never
        # consumes :attr:`rng`, so an instrumented run is bit-identical to
        # a bare one.
        self.obs: Observability | None = resolve_obs(obs)

        # Cost-based query planning (``repro.core.plan``): on by default;
        # ``plan="off"`` (or env ``SDL_PLAN=off``) keeps the naive
        # textual-order matcher alive for differential testing.  The
        # planner rides on windows (``window.planner``), so the serial
        # replay of ``validate="serial"`` — which builds bare windows —
        # always re-checks group rounds against the naive walk.
        try:
            self.plan = resolve_plan_mode(plan, os.environ.get("SDL_PLAN"))
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        self.planner: QueryPlanner | None = (
            QueryPlanner(self.dataspace, obs=self.obs) if self.plan == "on" else None
        )

        # Crash-stop failure model: a fault plan (env SDL_FAULTS supplies a
        # default so whole suites can be swept), a supervisor (always
        # constructed — the default "never" policy makes crashes final),
        # and optional periodic checkpointing of the dataspace.
        if faults is None:
            faults = os.environ.get("SDL_FAULTS") or None
        plan = resolve_plan(faults)
        self.faults = FaultInjector(plan) if plan is not None and plan.specs else None
        self.supervisor = Supervisor(supervision)

        self.step_count = 0
        self.scheduler = Scheduler(self.rng, policy)
        if commit == "serial":
            self.scheduler.round_size = 1
        self.wakeups = WakeupIndex(obs=self.obs)
        self.executor = Executor(self)
        self.tasks: dict[int, Task] = {}
        self._windows: dict[int, Window] = {}
        self.window_stats = WindowStats()  # shared by every engine window
        # Group-commit conflict losers awaiting the next round; kept here so
        # a run stopped at a limit resumes them.
        self._deferred: list = []
        # Recovery: in-memory checkpoints (``checkpoint_interval=``), or —
        # when a WAL directory is configured (``wal_dir=`` / SDL_WAL_DIR /
        # ``--wal-dir``) — the durable layer on top of them: checksummed
        # segment files that DurableLog.load can rebuild state from after
        # a real crash (see ``repro.runtime.recovery``).
        if wal_dir is None:
            wal_dir = os.environ.get("SDL_WAL_DIR") or None
        self.wal_dir = wal_dir
        self.recovery: RecoveryLog | None = None
        if wal_dir is not None:
            self.recovery = DurableLog(
                self.dataspace,
                wal_dir,
                interval=checkpoint_interval if checkpoint_interval is not None else 64,
                on_checkpoint=self._emit_checkpoint,
                obs=self.obs,
                faults=self.faults,
            )
        elif checkpoint_interval is not None:
            self.recovery = RecoveryLog(
                self.dataspace,
                interval=checkpoint_interval,
                on_checkpoint=self._emit_checkpoint,
                obs=self.obs,
            )
        if self.obs is not None:
            self.dataspace.attach_obs(self.obs)
            if self.faults is not None:
                self.faults.obs = self.obs

    @property
    def policy(self) -> str:
        return self.scheduler.policy

    @property
    def round_count(self) -> int:
        return self.scheduler.round_count

    # ------------------------------------------------------------------
    # program setup
    # ------------------------------------------------------------------
    def define(self, definition: ProcessDefinition) -> ProcessDefinition:
        """Register a process definition."""
        return self.society.define(definition)

    def assert_tuples(self, rows: Iterable[Iterable[Any]]) -> None:
        """Populate the initial dataspace (owner 0 = the environment)."""
        self.dataspace.insert_many(rows)

    def start(self, name: str, args: Seq[Any] = ()) -> ProcessInstance:
        """Create an initial process instance."""
        return self.spawn(name, tuple(args), spawner=None)

    def start_many(self, launches: Iterable[tuple[str, Seq[Any]]]) -> None:
        for name, args in launches:
            self.start(name, args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000, max_rounds: int | None = None) -> RunResult:
        """Drive the program until completion, deadlock, or a limit."""
        if self.commit == "group":
            return self._run_group(max_steps, max_rounds)
        scheduler = self.scheduler
        executor = self.executor
        while True:
            if self.supervisor.escalated is not None:
                return self._summary("escalated")
            if executor.consensus_dirty and self.consensus_check == "eager":
                executor.try_consensus()
            if not scheduler.round_active:
                # Round boundary: injector-delayed wakes deliver now, and
                # restarts whose backoff elapsed rejoin the society.
                executor.flush_delayed()
                self._spawn_restarts()
                if not scheduler.start_round():
                    # global idle: last-chance consensus, then backoff
                    # fast-forward, then termination
                    if executor.try_consensus():
                        continue
                    if self._spawn_restarts(idle=True):
                        continue
                    return self._finish()
                if max_rounds is not None and scheduler.round_count > max_rounds:
                    return self._summary("round-limit")
            # The budget is checked before popping, so a resumed run starts
            # with the item this one did not step.
            if self.step_count >= max_steps:
                return self._step_limit(max_steps)
            item = scheduler.pop()
            if item.state is not TaskState.READY:
                continue  # lazily discarded (aborted process, stale entry)
            self.step_count += 1
            executor.step(item)

    def _run_group(self, max_steps: int, max_rounds: int | None) -> RunResult:
        """Group-commit driver: whole rounds at a time, losers lead the next.

        Deferred conflict losers live outside the scheduler queues (they
        are neither blocked nor re-enqueued) and are prepended, in order,
        to the next round's arbitration sequence — the first loser is then
        unconditionally admitted, which is the weak-fairness argument of
        `docs/SEMANTICS.md`.  Both limits are checked before a round is
        taken, so the step budget is honoured at round boundaries.
        """
        scheduler = self.scheduler
        executor = self.executor
        while True:
            if self.supervisor.escalated is not None:
                return self._summary("escalated")
            if executor.consensus_dirty and self.consensus_check == "eager":
                executor.try_consensus()
            executor.flush_delayed()
            self._spawn_restarts()
            if self._deferred or scheduler.has_ready:
                if max_rounds is not None and scheduler.round_count >= max_rounds:
                    return self._summary("round-limit")
                if self.step_count >= max_steps:
                    return self._step_limit(max_steps)
            items = scheduler.take_round(prepend=self._deferred)
            if items is None:
                if executor.try_consensus():
                    continue
                if self._spawn_restarts(idle=True):
                    continue
                return self._finish()
            self._deferred = executor.run_group_round(items)

    def _step_limit(self, max_steps: int) -> RunResult:
        if self.on_deadlock == "raise":
            raise StepLimitExceeded(max_steps)
        return self._summary("step-limit")

    def _finish(self) -> RunResult:
        if len(self.wakeups) or self.executor.consensus_waiters:
            blocked_desc = sorted(
                {repr(item.process) for item in self.wakeups.items()}
                | {repr(t.process) for t in self.executor.consensus_waiters.values()}
            )
            if self.on_deadlock == "raise":
                raise DeadlockError(blocked_desc)
            return self._summary("deadlock", blocked_desc)
        counters = self.trace.counters
        if counters.crashes > counters.restarts:
            # The program drained, but some crash-stop failure was never
            # replaced — the run did not fully complete.
            return self._summary("crashed")
        return self._summary("completed")

    def _summary(self, reason: str, deadlocked: list[str] | None = None) -> RunResult:
        if self.recovery is not None:
            # Teardown: detach the recovery log's dataspace listener so a
            # finished engine leaves no subscription behind (checkpoints and
            # journal stay queryable — ``recover``/``verify`` still work).
            self.recovery.close()
        windows = self.window_stats
        planner = self.planner
        durable = self.recovery if isinstance(self.recovery, DurableLog) else None
        result = RunResult(
            **asdict(self.trace.counters),
            reason=reason,
            steps=self.step_count,
            rounds=self.scheduler.round_count,
            live_processes=len(self.society),
            dataspace_size=len(self.dataspace),
            deadlocked=deadlocked or [],
            wake_checks=self.wakeups.wake_checks,
            window_hits=windows.hits,
            window_misses=windows.misses,
            window_delta_refreshes=windows.delta_refreshes,
            window_full_invalidations=windows.full_invalidations,
            footprint_recomputes=windows.footprint_recomputes,
            recoveries=self.supervisor.recoveries,
            restart_pressure={
                name: dict(entry)
                for name, entry in self.supervisor.pressure.items()
            },
            wal_frames=durable.wal_frames if durable is not None else 0,
            wal_bytes=durable.wal_bytes if durable is not None else 0,
            wal_segments=durable.segments_written if durable is not None else 0,
            plan_hits=planner.hits if planner is not None else 0,
            plan_misses=planner.misses if planner is not None else 0,
            plan_cache_size=planner.cache_size if planner is not None else 0,
        )
        if self.obs is not None:
            registry = self.obs.registry
            for name, kind, labels, attr in EXPORTS:
                metric = registry.gauge(name) if kind == "gauge" else registry.counter(name)
                metric.set(getattr(result, attr), **labels)
            result.metrics = self.obs.snapshot()
        return result

    # ------------------------------------------------------------------
    # crash-stop support (restarts, delayed wakes, checkpoints)
    # ------------------------------------------------------------------
    def _spawn_restarts(self, idle: bool = False) -> bool:
        """Spawn supervised replacements whose backoff has elapsed.

        At global idle (*idle*), virtual time fast-forwards to the earliest
        pending due-round — nothing else can happen in between, so skipping
        the empty rounds preserves the semantics while keeping backoff
        measured in rounds meaningful.
        """
        supervisor = self.supervisor
        if not supervisor.pending:
            return False
        if idle:
            due = supervisor.earliest_due()
            if due is not None and due > self.scheduler.round_count:
                self.scheduler.round_count = due
        spawned = False
        for entry in supervisor.take_due(self.scheduler.round_count):
            instance = self.spawn(entry.name, entry.args, spawner=None)
            supervisor.adopt(entry, instance.pid)
            self.trace.emit(
                ProcessRestarted(
                    self.step_count, self.round_count, instance.pid,
                    entry.name, entry.generation,
                )
            )
            spawned = True
        return spawned

    def _emit_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.trace.emit(
            CheckpointTaken(
                self.step_count, self.round_count, checkpoint.version, checkpoint.size
            )
        )

    # ------------------------------------------------------------------
    # process/task plumbing (used by the executor)
    # ------------------------------------------------------------------
    def spawn(self, name: str, args: Seq[Any], spawner: int | None) -> ProcessInstance:
        instance = self.society.spawn(name, args, spawner, created_at=self.step_count)
        self.trace.emit(
            ProcessCreated(
                self.step_count, self.round_count, instance.pid, name, tuple(args), spawner
            )
        )
        self.make_task(instance, interpret(instance.definition.body.body), TaskKind.MAIN)
        return instance

    def make_task(self, process: ProcessInstance, gen, kind: TaskKind) -> Task:
        task = Task(self.scheduler.issue_tid(), process, gen, kind)
        self.tasks[task.tid] = task
        self.scheduler.enqueue(task)
        return task

    def window(self, process: ProcessInstance) -> Window:
        window = self._windows.get(process.pid)
        if window is None:
            window = process.view.window(self.dataspace, process.params)
            window.planner = self.planner
            window.stats = self.window_stats
            self._windows[process.pid] = window
        return window

    def drop_window(self, pid: int) -> None:
        """Forget a finished process's window (its counts stay in
        :attr:`window_stats`)."""
        self._windows.pop(pid, None)
