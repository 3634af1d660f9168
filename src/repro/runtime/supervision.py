"""Supervision: restart policies with capped exponential backoff.

Under the crash-stop model a crashed process never acts again — but the
*society* may choose to replace it.  A :class:`Supervisor` holds one
:class:`RestartPolicy` per process definition; when the executor reports
a crash, the supervisor either lets the death stand (``"never"``), queues
a replacement after a backoff measured in **rounds** of virtual time
(``"restart"``), or — once a lineage has burned through ``max_restarts``
— escalates, failing the whole run with reason ``"escalated"``.

Restart counting is per *lineage* (the root crashed pid), not per
instance: a replacement that itself crashes draws from the same budget,
so a deterministic crasher cannot restart forever.  Backoff doubles per
generation (``backoff_base * 2**n`` rounds, capped at ``backoff_cap``);
because backoff is virtual time, tests are exact, not timing-dependent.

A replacement is a *fresh* instance of the same definition with the same
arguments — no state carries over (state lives in the dataspace, which a
crash never corrupts; that is the whole point of the atomicity guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.process import ProcessInstance
from repro.errors import SupervisionError

__all__ = ["RestartPolicy", "PendingRestart", "Supervisor"]

_POLICIES = ("never", "restart")


@dataclass(frozen=True, slots=True)
class RestartPolicy:
    """How the supervisor reacts when processes of one definition crash."""

    policy: str = "never"
    max_restarts: int = 3   # lineage budget before escalation
    backoff_base: int = 1   # rounds before the first restart
    backoff_cap: int = 32   # ceiling on the doubled backoff

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise SupervisionError(
                f"unknown restart policy {self.policy!r} "
                f"(choose from: {', '.join(_POLICIES)})"
            )
        if self.max_restarts < 0:
            raise SupervisionError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.backoff_base < 0:
            raise SupervisionError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise SupervisionError(
                f"backoff_cap ({self.backoff_cap}) must be >= "
                f"backoff_base ({self.backoff_base})"
            )

    def backoff(self, generation: int) -> int:
        """Rounds to wait before restart number *generation* (0-based)."""
        return min(self.backoff_base * (2 ** generation), self.backoff_cap)


@dataclass(slots=True)
class PendingRestart:
    """A queued replacement, due once virtual time reaches ``due_round``."""

    name: str
    args: tuple
    due_round: int
    root: int        # lineage root pid (restart budget key)
    generation: int  # 1 for the first replacement, 2 for the next, ...


class Supervisor:
    """Per-definition crash handling: restart-with-backoff or escalate.

    Construct with a mapping ``{definition_name: RestartPolicy}``, a single
    :class:`RestartPolicy` applied to every definition, or ``None`` for the
    default (``"never"``: crashes are final, the run continues without the
    dead process).
    """

    def __init__(
        self,
        policies: Mapping[str, RestartPolicy] | RestartPolicy | None = None,
    ) -> None:
        if policies is None:
            self._default: RestartPolicy | None = None
            self._policies: dict[str, RestartPolicy] = {}
        elif isinstance(policies, RestartPolicy):
            self._default = policies
            self._policies = {}
        elif isinstance(policies, Mapping):
            self._default = None
            self._policies = {}
            for name, policy in policies.items():
                if not isinstance(policy, RestartPolicy):
                    raise SupervisionError(
                        f"policy for {name!r} must be a RestartPolicy, "
                        f"got {type(policy).__name__}"
                    )
                self._policies[name] = policy
        else:
            raise SupervisionError(
                "supervision= takes a RestartPolicy, a mapping of definition "
                f"name to RestartPolicy, or None; got {type(policies).__name__}"
            )
        self.pending: list[PendingRestart] = []
        self.recoveries = 0       # restarted lineages that later finished cleanly
        self.escalated: str | None = None  # definition name that exhausted its budget
        self._restarts: dict[int, int] = {}    # lineage root pid -> restarts used
        self._lineage_of: dict[int, int] = {}  # replacement pid -> lineage root pid
        #: Per-definition restart pressure, surfaced on RunResult so a
        #: crash-looping definition is visible without reading the trace:
        #: ``{name: {crashes, restarts, backoff_rounds, escalations}}``.
        self.pressure: dict[str, dict[str, int]] = {}

    def _bump(self, name: str, key: str, amount: int = 1) -> None:
        entry = self.pressure.get(name)
        if entry is None:
            entry = self.pressure[name] = {
                "crashes": 0, "restarts": 0, "backoff_rounds": 0, "escalations": 0,
            }
        entry[key] += amount

    def policy_for(self, name: str) -> RestartPolicy | None:
        return self._policies.get(name, self._default)

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------
    def notify_crash(self, process: ProcessInstance, round: int) -> str | None:
        """React to a crash: ``None`` (let it die), ``"queued"``, or ``"escalate"``.

        On ``"queued"`` a :class:`PendingRestart` is scheduled ``backoff``
        rounds into the future; the engine spawns it via :meth:`take_due`.
        """
        self._bump(process.name, "crashes")
        policy = self.policy_for(process.name)
        if policy is None or policy.policy == "never":
            return None
        root = self._lineage_of.get(process.pid, process.pid)
        used = self._restarts.get(root, 0)
        if used >= policy.max_restarts:
            self.escalated = process.name
            self._bump(process.name, "escalations")
            return "escalate"
        self._restarts[root] = used + 1
        backoff = policy.backoff(used)
        self._bump(process.name, "restarts")
        self._bump(process.name, "backoff_rounds", backoff)
        self.pending.append(
            PendingRestart(
                name=process.name,
                args=tuple(process.params.values()),
                due_round=round + backoff,
                root=root,
                generation=used + 1,
            )
        )
        return "queued"

    # ------------------------------------------------------------------
    # restart scheduling (driven by the engine's round clock)
    # ------------------------------------------------------------------
    def take_due(self, round: int) -> list[PendingRestart]:
        """Pop every pending restart whose backoff has elapsed."""
        if not self.pending:
            return []
        due = [entry for entry in self.pending if entry.due_round <= round]
        if due:
            self.pending = [e for e in self.pending if e.due_round > round]
            due.sort(key=lambda e: (e.due_round, e.root))
        return due

    def earliest_due(self) -> int | None:
        """The soonest pending due-round (for idle fast-forward), or None."""
        if not self.pending:
            return None
        return min(entry.due_round for entry in self.pending)

    def adopt(self, entry: PendingRestart, new_pid: int) -> None:
        """Bind a freshly spawned replacement pid to its lineage."""
        self._lineage_of[new_pid] = entry.root

    def notify_finished(self, pid: int, aborted: bool) -> None:
        """Count a clean finish of a restarted process as a recovery."""
        if not aborted and pid in self._lineage_of:
            self.recoveries += 1

    def restarts_for(self, pid: int) -> int:
        """Restarts already consumed by the lineage *pid* belongs to."""
        root = self._lineage_of.get(pid, pid)
        return self._restarts.get(root, 0)

    def __repr__(self) -> str:
        return (
            f"Supervisor(pending={len(self.pending)}, "
            f"recoveries={self.recoveries}, escalated={self.escalated!r})"
        )
