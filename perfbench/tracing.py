"""Per-layer tracing for the benchmark's traced run.

:class:`Tracer` wraps the public calls into each layer of ``repro`` with span
recorders, installs the wrappers for the length of one ``Engine.run`` and
removes them again.  Module-level functions are patched at the name their
caller looks up (``repro.runtime.executor.partition``, not
``repro.core.consensus.partition``); methods are patched on their class.  The
wrappers read only the wall clock and their arguments and results, and never
draw from ``engine.rng``, so a traced execution is step-for-step the untraced
one.

Spans stay in memory as flat arrays (site, start, end, parent span) until
:meth:`Tracer.fold` turns them into per-site call counts and self times.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.runtime.executor as executor_mod
import repro.runtime.rounds as rounds_mod
from repro.core.dataspace import Dataspace
from repro.core.plan import QueryPlanner
from repro.core.query import Query
from repro.core.views import Window
from repro.runtime.executor import Executor
from repro.runtime.scheduler import Scheduler
from repro.runtime.wakeup import WakeupIndex

__all__ = ["SITES", "Tracer"]

#: ``site -> (layer, owner, attribute)``.  A site is one timed public call,
#: its layer is named after the module that defines the call, and
#: ``owner.attribute`` is where the wrapper is installed.  The two
#: ``try_consensus`` sites share one wrapper: a call made while processes wait
#: on consensus is a consensus attempt, any other call is the executor's O(1)
#: bail-out.
SITES: dict[str, tuple[str, Any, str]] = {
    "Scheduler.start_round": ("scheduler", Scheduler, "start_round"),
    "Scheduler.take_round": ("scheduler", Scheduler, "take_round"),
    "Scheduler.pop": ("scheduler", Scheduler, "pop"),
    "Executor.step": ("executor", Executor, "step"),
    "Executor.try_consensus": ("executor", Executor, "try_consensus"),
    "execute@executor": ("transactions", executor_mod, "execute"),
    "execute@rounds": ("transactions", rounds_mod, "execute"),
    "Query.evaluate": ("query", Query, "evaluate"),
    "QueryPlanner.plan_for": ("plan", QueryPlanner, "plan_for"),
    "QueryPlanner.iter_matches": ("plan", QueryPlanner, "iter_matches"),
    "QueryPlanner.iter_matches.next": ("plan", None, ""),
    "Window.refresh": ("views", Window, "refresh"),
    "Window.footprint": ("views", Window, "footprint"),
    "Window.candidates_probed": ("views", Window, "candidates_probed"),
    "partition@executor": ("consensus", executor_mod, "partition"),
    "Executor.try_consensus+waiters": ("consensus", None, ""),
    "Dataspace.insert": ("dataspace", Dataspace, "insert"),
    "Dataspace.retract": ("dataspace", Dataspace, "retract"),
    "Dataspace.insert_many": ("dataspace", Dataspace, "insert_many"),
    "Dataspace.retract_many": ("dataspace", Dataspace, "retract_many"),
    "Dataspace.candidates": ("dataspace", Dataspace, "candidates"),
    "Dataspace.candidates_probed": ("dataspace", Dataspace, "candidates_probed"),
    "WakeupIndex.affected": ("wakeup", WakeupIndex, "affected"),
    "WakeupIndex.add": ("wakeup", WakeupIndex, "add"),
    "WakeupIndex.discard": ("wakeup", WakeupIndex, "discard"),
    "run_group_round@rounds": ("rounds", rounds_mod, "run_group_round"),
    "footprint_for@rounds": ("commit", rounds_mod, "footprint_for"),
    "first_conflict@rounds": ("commit", rounds_mod, "first_conflict"),
}

_SITE_IDS = {name: index for index, name in enumerate(SITES)}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.site = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open = [-1]  # stack of open span indexes; -1 is "no parent"
        #: Outcome tallies the wrappers see: successful query evaluations,
        #: rows returned by fetches, conflicts found, consensus firings.
        self.tally = {"query_ok": 0, "fetch_rows": 0, "conflicts": 0, "fired": 0}
        self._patches = self._build_patches()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _hooks(self) -> tuple[Callable[[int], int], Callable[[int], None]]:
        """``open_span(site_id) -> index`` and ``close_span(index)``."""
        sites, starts, ends, parents, stack = (
            self.site, self.start, self.end, self.parent, self._open,
        )
        clock = time.perf_counter

        def open_span(site_id: int) -> int:
            index = len(sites)
            sites.append(site_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        return open_span, close_span

    def _span(self, site: str, fn: Callable, observe: Callable | None = None) -> Callable:
        open_span, close_span = self._hooks()
        site_id = _SITE_IDS[site]

        if observe is None:
            def traced(*args, **kwargs):
                index = open_span(site_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(index)
        else:
            def traced(*args, **kwargs):
                index = open_span(site_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(index)
                observe(result)
                return result

        return traced

    def _build_patches(self) -> list[tuple[Any, str, Callable]]:
        tally = self.tally
        open_span, close_span = self._hooks()

        def count(key: str, measure: Callable[[Any], int]) -> Callable[[Any], None]:
            def observe(result: Any) -> None:
                tally[key] += measure(result)
            return observe

        observers = {
            "Query.evaluate": count("query_ok", lambda result: 1 if result.success else 0),
            "Dataspace.candidates": count("fetch_rows", len),
            "Dataspace.candidates_probed": count("fetch_rows", len),
            "first_conflict@rounds": count("conflicts", lambda hit: hit is not None),
        }
        patches = []
        for site, (__, owner, attr) in SITES.items():
            if owner is None or site in ("Executor.try_consensus", "QueryPlanner.iter_matches"):
                continue
            original = vars(owner)[attr]
            patches.append((owner, attr, self._span(site, original, observers.get(site))))

        plain_id = _SITE_IDS["Executor.try_consensus"]
        waiting_id = _SITE_IDS["Executor.try_consensus+waiters"]
        try_consensus = vars(Executor)["try_consensus"]

        def traced_try_consensus(executor: Executor) -> bool:
            index = open_span(waiting_id if executor.consensus_waiters else plain_id)
            try:
                fired = try_consensus(executor)
            finally:
                close_span(index)
            tally["fired"] += 1 if fired else 0
            return fired

        patches.append((Executor, "try_consensus", traced_try_consensus))

        iter_matches = self._span("QueryPlanner.iter_matches", vars(QueryPlanner)["iter_matches"])
        next_id = _SITE_IDS["QueryPlanner.iter_matches.next"]

        def traced_iter_matches(*args, **kwargs):
            # The join is a generator: its work happens in each ``next``.
            return _TimedIterator(iter_matches(*args, **kwargs), next_id, open_span, close_span)

        patches.append((QueryPlanner, "iter_matches", traced_iter_matches))
        return patches

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper, and restore the originals on exit."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, __ in self._patches]
        try:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self) -> tuple[dict[str, tuple[int, float]], float, dict[str, int]]:
        """Per-site ``(calls, self seconds)``, the total top-level span time
        and the outcome tallies.

        Spans and tallies are then reset, so each fold covers the calls made
        since the last.
        """
        if len(self._open) != 1:
            raise RuntimeError("cannot fold while spans are open")
        sites, starts, ends, parents = self.site, self.start, self.end, self.parent
        count = len(sites)
        child = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        names = list(SITES)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        top = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            site = sites[index]
            calls[site] += 1
            self_s[site] += duration - child[index]
            if parents[index] < 0:
                top += duration
        for buffer in (self.site, self.start, self.end, self.parent):
            del buffer[:]
        tally = dict(self.tally)
        self.tally.update(dict.fromkeys(tally, 0))
        return {name: (calls[i], self_s[i]) for i, name in enumerate(names)}, top, tally


class _TimedIterator:
    """Iterator proxy that records a span around each ``next``."""

    __slots__ = ("_inner", "_site", "_open", "_close")

    def __init__(self, inner, site_id: int, open_span, close_span) -> None:
        self._inner = inner
        self._site = site_id
        self._open = open_span
        self._close = close_span

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        index = self._open(self._site)
        try:
            return next(self._inner)
        finally:
            self._close(index)
