"""Aggregate statistics over engine traces.

These functions turn a :class:`~repro.runtime.events.Trace` (run with
``detail=True``) into the series the benchmark harness reports:
concurrency profiles per virtual round, per-process activity and
consensus phase structure.  Scalar run counts live on
:class:`~repro.runtime.engine.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.events import (
    ConsensusFired,
    ProcessCreated,
    ProcessFinished,
    Trace,
    TxnCommitted,
    TxnFailed,
)

__all__ = [
    "concurrency_profile",
    "process_activity",
    "phase_summary",
]


def concurrency_profile(trace: Trace) -> dict[int, int]:
    """Committed transactions per virtual round — the E9 series.

    Requires a detailed trace; with counters-only traces the profile is
    empty (callers should then rely on ``RunResult.parallelism``).
    """
    return trace.commits_by_round()


def process_activity(trace: Trace) -> dict[int, dict[str, int]]:
    """Per-pid activity: commits, failures, lifetime in rounds."""
    out: dict[int, dict[str, int]] = {}

    def slot(pid: int) -> dict[str, int]:
        return out.setdefault(
            pid, {"commits": 0, "failures": 0, "born": -1, "died": -1}
        )

    for event in trace.events:
        if isinstance(event, TxnCommitted):
            slot(event.pid)["commits"] += 1
        elif isinstance(event, TxnFailed):
            slot(event.pid)["failures"] += 1
        elif isinstance(event, ProcessCreated):
            slot(event.pid)["born"] = event.round
        elif isinstance(event, ProcessFinished):
            slot(event.pid)["died"] = event.round
    return out


@dataclass(slots=True)
class Phase:
    """One consensus-delimited phase of a computation."""

    index: int
    start_round: int
    end_round: int
    commits: int
    participants: int


def phase_summary(trace: Trace) -> list[Phase]:
    """Split the run at consensus firings — the paper's synchronous phases.

    Returns one :class:`Phase` per consensus round (plus a trailing phase if
    work followed the last consensus), with the number of transactions
    committed inside each phase.
    """
    phases: list[Phase] = []
    commits_in_phase = 0
    phase_start = 0
    index = 0
    last_round = 0
    for event in trace.events:
        if isinstance(event, TxnCommitted):
            commits_in_phase += 1
            last_round = event.round
        elif isinstance(event, ConsensusFired):
            phases.append(
                Phase(index, phase_start, event.round, commits_in_phase, len(event.pids))
            )
            index += 1
            phase_start = event.round
            commits_in_phase = 0
            last_round = event.round
    if commits_in_phase:
        phases.append(Phase(index, phase_start, last_round, commits_in_phase, 0))
    return phases
