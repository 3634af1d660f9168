"""The shared dataspace: a content-addressable multiset of tuple instances.

The dataspace maintains two auxiliary index structures so that queries are
content-addressable rather than linear scans:

* an **arity index** — all instances of a given tuple length;
* a **field index** — instances keyed by ``(arity, position, value)``.

Pattern matching asks the dataspace for a *candidate set* via
:meth:`Dataspace.candidates`; the narrowest applicable index is chosen using
the constants currently determinable in the pattern.

Every table is a dict of ``TupleInstance`` references keyed by tuple id.
Admissions only append and dict deletion preserves order, so iteration
order in every table equals ascending-serial order — which is what makes
candidate lists, and the seeded arbitration over them, deterministic.

The dataspace also keeps a monotonically increasing **version** (bumped on
every change event) and supports change listeners; the runtime engine uses
both to implement delayed-transaction wakeup and the trace journal.  Every
change event is additionally recorded in a bounded **journal** so consumers
holding a version watermark (notably :class:`~repro.core.views.Window`) can
pull the *delta* since their last refresh instead of recomputing from
scratch — the mechanical basis of the delta-driven reactivity pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.patterns import Pattern
from repro.core.tuples import TupleId, TupleInstance, make_tuple
from repro.core.values import value_repr
from repro.errors import SDLError

__all__ = ["Dataspace", "DataspaceChange", "JOURNAL_DEPTH"]

#: How many change events the delta journal retains.  A consumer more than
#: this many events behind gets ``None`` from :meth:`Dataspace.changes_since`
#: and must recompute.
JOURNAL_DEPTH = 512


class DataspaceChange:
    """One atomic change event: a batch of asserted/retracted instances.

    Single :meth:`Dataspace.insert` / :meth:`Dataspace.retract` calls emit a
    change carrying exactly one instance; :meth:`Dataspace.insert_many`
    batches an entire bulk load into a single event (kind ``batch``) so
    listeners see O(1) notifications rather than O(n).
    """

    __slots__ = ("kind", "asserted", "retracted", "version")

    ASSERT = "assert"
    RETRACT = "retract"
    BATCH = "batch"

    def __init__(
        self,
        kind: str,
        asserted: tuple[TupleInstance, ...],
        retracted: tuple[TupleInstance, ...],
        version: int,
    ) -> None:
        self.kind = kind
        self.asserted = asserted
        self.retracted = retracted
        self.version = version

    @property
    def instance(self) -> TupleInstance:
        """The single instance of a non-batch change (first of a batch)."""
        return (self.asserted + self.retracted)[0]

    def instances(self) -> tuple[TupleInstance, ...]:
        """All instances touched by this change, asserted then retracted."""
        return self.asserted + self.retracted

    def arities(self) -> set[int]:
        """Tuple lengths touched by this change (wakeup-filter key space)."""
        return {inst.arity for inst in self.asserted} | {
            inst.arity for inst in self.retracted
        }

    def keys(self) -> set[tuple[int, int, Any]]:
        """All ``(arity, position, value)`` index keys touched by the change."""
        out: set[tuple[int, int, Any]] = set()
        for inst in self.instances():
            arity = inst.arity
            for position, value in enumerate(inst.values):
                out.add((arity, position, value))
        return out

    def __repr__(self) -> str:
        if len(self.asserted) + len(self.retracted) == 1:
            return f"{self.kind} {self.instance!r} @v{self.version}"
        return (
            f"{self.kind} +{len(self.asserted)}/-{len(self.retracted)} @v{self.version}"
        )


class Dataspace:
    """A finite (but large) multiset of tuples, per the paper's Section 2.1.

    Instances are identified by :class:`~repro.core.tuples.TupleId`; identical
    value sequences may coexist as distinct instances.  All mutation goes
    through :meth:`insert` / :meth:`retract` so the indexes stay consistent.
    """

    def __init__(self, indexed: bool = True) -> None:
        """*indexed=False* disables the field index (arity buckets remain),
        degrading candidate selection to arity scans — exists only for the
        A1 ablation benchmark quantifying what content addressing buys."""
        #: Observability hook (``repro.obs.Observability`` or ``None``).
        #: ``None`` keeps :meth:`candidates` on the original path at
        #: original cost; the engine attaches a live instance when
        #: observability is enabled (see ``attach_obs``).
        self._obs = None
        self.indexed = indexed
        self._instances: dict[TupleId, TupleInstance] = {}
        self._by_arity: dict[int, dict[TupleId, TupleInstance]] = {}
        self._by_field: dict[tuple[int, int, Any], dict[TupleId, TupleInstance]] = {}
        self._journal: deque[DataspaceChange] = deque(maxlen=JOURNAL_DEPTH)
        self._serial = 0
        self._version = 0
        #: Listeners keyed by registration token: the same callable may be
        #: subscribed several times, and each unsubscribe must detach its
        #: own registration (``list.remove`` would detach the *first equal*
        #: one, and cost O(n)).  Dicts preserve registration order.
        self._listeners: dict[int, Callable[[DataspaceChange], None]] = {}
        self._listener_token = 0
        #: Cached tuple of the listeners, rebuilt lazily after any
        #: subscribe/unsubscribe: steady-state mutation then notifies with
        #: O(1) allocations instead of copying the registry every change.
        self._listener_snapshot: tuple[Callable[[DataspaceChange], None], ...] | None = ()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, tid: TupleId) -> bool:
        return tid in self._instances

    def __iter__(self) -> Iterator[TupleInstance]:
        return self.instances()

    @property
    def version(self) -> int:
        """Monotone counter bumped by every assert/retract."""
        return self._version

    @property
    def serial(self) -> int:
        """The most recently issued tuple serial (snapshot watermark).

        Instances admitted later carry strictly greater serials, so
        ``inst.tid.serial <= dataspace.serial`` captured now identifies
        exactly the instances that existed at the capture point.
        """
        return self._serial

    def get(self, tid: TupleId) -> TupleInstance:
        try:
            return self._instances[tid]
        except KeyError:
            raise SDLError(f"tuple {tid!r} is not in the dataspace") from None

    def instances(self) -> Iterator[TupleInstance]:
        """Iterate over all live instances (admission order)."""
        return iter(self._instances.values())

    def tids(self) -> frozenset[TupleId]:
        return frozenset(self._instances)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, values: Iterable[Any], owner: int = 0) -> TupleInstance:
        """Assert a tuple built from *values*, owned by process *owner*."""
        self._serial += 1
        instance = make_tuple(tuple(values), serial=self._serial, owner=owner)
        self._index(instance)
        self._bump(DataspaceChange.ASSERT, (instance,), ())
        return instance

    def insert_many(self, rows: Iterable[Iterable[Any]], owner: int = 0) -> list[TupleInstance]:
        """Assert several tuples as **one** change event.

        Each row still gets its own serial (instance identity is per-row),
        but listeners receive a single batched :class:`DataspaceChange` and
        the version is bumped once, so bulk-loading an initial dataspace
        costs O(1) notifications instead of an O(n) listener storm.
        """
        instances = []
        for row in rows:
            self._serial += 1
            instances.append(make_tuple(tuple(row), serial=self._serial, owner=owner))
        if not instances:
            return instances
        for instance in instances:
            self._index(instance)
        kind = DataspaceChange.BATCH if len(instances) > 1 else DataspaceChange.ASSERT
        self._bump(kind, tuple(instances), ())
        return instances

    def _index(self, instance: TupleInstance) -> None:
        """Enter a new instance into every table (no change event)."""
        tid = instance.tid
        self._instances[tid] = instance
        self._by_arity.setdefault(instance.arity, {})[tid] = instance
        if self.indexed:
            by_field = self._by_field
            arity = instance.arity
            for position, value in enumerate(instance.values):
                by_field.setdefault((arity, position, value), {})[tid] = instance

    def _unindex(self, tid: TupleId) -> TupleInstance:
        """Remove and return one instance; raises ``KeyError`` when absent."""
        instance = self._instances.pop(tid)
        arity_bucket = self._by_arity[instance.arity]
        del arity_bucket[tid]
        if not arity_bucket:
            del self._by_arity[instance.arity]
        if self.indexed:
            by_field = self._by_field
            for position, value in enumerate(instance.values):
                key = (instance.arity, position, value)
                field_bucket = by_field[key]
                del field_bucket[tid]
                if not field_bucket:
                    del by_field[key]
        return instance

    def retract(self, tid: TupleId) -> TupleInstance:
        """Retract one instance; other instances with equal values survive."""
        try:
            instance = self._unindex(tid)
        except KeyError:
            raise SDLError(f"cannot retract {tid!r}: not in the dataspace") from None
        self._bump(DataspaceChange.RETRACT, (), (instance,))
        return instance

    def retract_many(self, tids: Iterable[TupleId]) -> list[TupleInstance]:
        """Retract several instances as **one** change event.

        The batched dual of :meth:`insert_many`: one version bump, one
        listener notification, one journal entry.  The batch is validated
        up front — every tid present, no duplicates — so a bad batch
        mutates nothing.
        """
        tids = list(tids)
        if not tids:
            return []
        if len(set(tids)) != len(tids):
            raise SDLError("cannot retract batch: duplicate tuple ids")
        for tid in tids:
            if tid not in self._instances:
                raise SDLError(f"cannot retract {tid!r}: not in the dataspace")
        instances = [self._unindex(tid) for tid in tids]
        kind = DataspaceChange.BATCH if len(instances) > 1 else DataspaceChange.RETRACT
        self._bump(kind, (), tuple(instances))
        return instances

    def _bump(
        self,
        kind: str,
        asserted: tuple[TupleInstance, ...],
        retracted: tuple[TupleInstance, ...],
    ) -> None:
        self._version += 1
        change = DataspaceChange(kind, asserted, retracted, self._version)
        self._journal.append(change)
        listeners = self._listener_snapshot
        if listeners is None:
            listeners = self._listener_snapshot = tuple(self._listeners.values())
        for listener in listeners:
            listener(change)

    def changes_since(self, version: int) -> list[DataspaceChange] | None:
        """The change events after *version*, oldest first.

        Returns ``None`` when the journal no longer reaches back to
        *version* (the consumer fell more than :data:`JOURNAL_DEPTH` events
        behind) — the caller must then recompute from scratch.
        """
        if version >= self._version:
            return []
        journal = self._journal
        if not journal or journal[0].version > version + 1:
            return None
        # Versions advance by exactly 1 per journal entry, so the slice
        # starts at a computable offset rather than a scan.
        start = len(journal) - (self._version - version)
        return [journal[i] for i in range(start, len(journal))]

    @property
    def listener_count(self) -> int:
        """Live change-listener registrations (leak checks in tests)."""
        return len(self._listeners)

    def subscribe(self, listener: Callable[[DataspaceChange], None]) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe callable.

        Each registration is independent (subscribing the same callable
        twice yields two registrations) and unsubscribe is idempotent: it
        detaches exactly its own registration, in O(1).
        """
        self._listener_token += 1
        token = self._listener_token
        self._listeners[token] = listener
        self._listener_snapshot = None

        def unsubscribe() -> None:
            if self._listeners.pop(token, None) is not None:
                self._listener_snapshot = None

        return unsubscribe

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def by_arity(self, arity: int) -> Mapping[TupleId, TupleInstance]:
        """All instances with the given arity (live view; do not mutate)."""
        return self._by_arity.get(arity, {})

    def by_field(self, arity: int, position: int, value: Any) -> Mapping[TupleId, TupleInstance]:
        """All instances of *arity* with *value* at *position* (live view)."""
        return self._by_field.get((arity, position, value), {})

    def arity_size(self, arity: int) -> int:
        """Size of one arity bucket."""
        return len(self._by_arity.get(arity, ()))

    def field_size(self, arity: int, position: int, value: Any) -> int:
        """Size of one field bucket."""
        return len(self._by_field.get((arity, position, value), ()))

    def candidates(
        self,
        pat: Pattern,
        bound: Mapping[str, Any] | None = None,
    ) -> list[TupleInstance]:
        """Instances that could match *pat* under the bindings *bound*.

        The narrowest single-field index determinable from the pattern's
        constants is consulted (the first of equally narrow buckets wins);
        the result is a snapshot list in ascending-serial order, so the
        caller may mutate the dataspace while iterating.  Candidates are
        *not* guaranteed to match — callers must still run
        :meth:`Pattern.match`.
        """
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        out = self._candidates(pat, bound or {})
        if obs is not None:
            obs.observe_ns(
                "match",
                start,
                obs.spans.now() - start,
                {"arity": pat.arity, "n": len(out)},
            )
        return out

    def _candidates(self, pat: Pattern, bound: Mapping[str, Any]) -> list[TupleInstance]:
        best: dict[TupleId, TupleInstance] | None = None
        if self.indexed:
            by_field = self._by_field
            for position, value in pat.index_constants(bound):
                bucket = by_field.get((pat.arity, position, value))
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
            if best is not None:
                return list(best.values())
        return list(self._by_arity.get(pat.arity, {}).values())

    def candidates_probed(
        self,
        arity: int,
        probes: Iterable[tuple[int, Any]],
    ) -> list[TupleInstance]:
        """Candidates of *arity* consistent with every ``(position, value)`` probe.

        The planner's candidate fetch: the narrowest applicable field bucket
        is enumerated and every remaining probe is applied as a direct value
        filter, so the result is the **intersection** of all probe buckets,
        in ascending-serial order — unlike :meth:`candidates`, which
        consults only the single narrowest bucket and leaves the rest to
        per-candidate pattern matching.  An empty probe bucket
        short-circuits to ``[]``.  Probes must name distinct positions
        (true of any single pattern's fields).
        """
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        probes = list(probes)
        out = self._probed(arity, probes)
        if obs is not None:
            obs.observe_ns(
                "match",
                start,
                obs.spans.now() - start,
                {"arity": arity, "n": len(out), "probes": len(probes)},
            )
        return out

    def _probed(self, arity: int, probes: list[tuple[int, Any]]) -> list[TupleInstance]:
        best: dict[TupleId, TupleInstance] | None = None
        best_position = -1
        if self.indexed and probes:
            by_field = self._by_field
            for position, value in probes:
                bucket = by_field.get((arity, position, value))
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
                    best_position = position
        if best is None:
            best = self._by_arity.get(arity, {})
            rest = probes if not self.indexed else []
        else:
            rest = [probe for probe in probes if probe[0] != best_position]
        if rest:
            return [
                inst
                for inst in best.values()
                if all(inst.values[position] == value for position, value in rest)
            ]
        return list(best.values())

    def attach_obs(self, obs) -> None:
        """Attach an observability hook timing every :meth:`candidates` call."""
        self._obs = obs

    def count_matching(self, pat: Pattern, bound: Mapping[str, Any] | None = None) -> int:
        """Number of instances matching *pat* under *bound*.

        Every candidate is matched against its **own copy** of *bound*
        (mirroring ``core/matching.py`` and the executor's snapshot lens):
        a pattern implementation that treats the mapping as scratch space
        must never leak bindings from one candidate into the next.  When
        the pattern has no unbound binding variables the mapping cannot be
        written at all, so one shared copy serves every candidate.
        """
        bound = dict(bound or {})
        if _cannot_bind(pat, bound):
            return sum(
                1
                for inst in self.candidates(pat, bound)
                if pat.match(inst.values, bound) is not None
            )
        return sum(
            1
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        )

    def find_matching(
        self,
        pat: Pattern,
        bound: Mapping[str, Any] | None = None,
    ) -> list[TupleInstance]:
        """All instances matching *pat* under *bound* (snapshot list).

        Per-candidate binding isolation as in :meth:`count_matching`, with
        the same shared-copy fast path for patterns that cannot bind.
        """
        bound = dict(bound or {})
        if _cannot_bind(pat, bound):
            return [
                inst
                for inst in self.candidates(pat, bound)
                if pat.match(inst.values, bound) is not None
            ]
        return [
            inst
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        ]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def snapshot(self) -> list[tuple]:
        """The current multiset of value tuples, sorted for stable comparison."""
        return sorted(
            (inst.values for inst in self._instances.values()),
            key=_sort_key,
        )

    def multiset(self) -> dict[tuple, int]:
        """Value tuples with multiplicities — handy in tests."""
        counts: dict[tuple, int] = {}
        for inst in self._instances.values():
            counts[inst.values] = counts.get(inst.values, 0) + 1
        return counts

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(
                "<" + ",".join(value_repr(v) for v in inst.values) + ">"
                for inst in self.instances()
            )
            return f"Dataspace({body})"
        return f"Dataspace(|D|={len(self)}, v={self._version})"


def _cannot_bind(pat: Pattern, bound: Mapping[str, Any]) -> bool:
    """Can matching *pat* under *bound* never produce a new binding?

    True for pure literal/wildcard patterns and for patterns whose variable
    fields are all already bound (they act as equality tests) — in either
    case :meth:`Pattern.match` returns only empty binding dicts, so callers
    may share one *bound* mapping across candidates.
    """
    names = pat.binding_variables()
    return not names or names <= bound.keys()


def _sort_key(values: tuple) -> tuple:
    """Total order over heterogeneous value tuples for stable snapshots."""
    return tuple((type(v).__name__, repr(v)) for v in values)
