"""Dataspace storage invariants: index upkeep, batch retraction, and the
``indexed=False`` ablation.

The dataspace keeps one instance table plus arity and field indexes.
Every retraction must drain the index buckets it empties, a failed
retraction must raise :class:`SDLError` without touching state, and the
unindexed store (the A1 ablation) must produce the same match sets and
probe intersections as the indexed one.
"""

import pytest

from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import pattern
from repro.core.tuples import make_tuple
from repro.errors import SDLError


class TestStoreInvariants:
    def test_remove_raises_and_cleans_buckets(self):
        ds = Dataspace()
        inst = ds.insert(("x", 1))
        ds.retract(inst.tid)
        assert not ds._by_arity and not ds._by_field and not len(ds)

    def test_facade_retract_raises_sdl_error_in_every_layout(self):
        for indexed in (True, False):
            ds = Dataspace(indexed=indexed)
            inst = ds.insert(("x", 1))
            ds.retract(inst.tid)
            with pytest.raises(SDLError):
                ds.retract(inst.tid)
            with pytest.raises(SDLError):
                ds.get(inst.tid)


class TestRetractMany:
    def test_single_event_and_journal(self):
        ds = Dataspace()
        insts = ds.insert_many([("k", i) for i in range(10)])
        mark = ds.version
        events = []
        ds.subscribe(events.append)
        gone = ds.retract_many([i.tid for i in insts[:4]])
        assert [i.tid for i in gone] == [i.tid for i in insts[:4]]
        assert ds.version == mark + 1
        assert len(events) == 1 and events[0].kind == "batch"
        assert [c.retracted for c in ds.changes_since(mark)] == [tuple(gone)]
        assert len(ds) == 6

    def test_validates_before_mutating(self):
        ds = Dataspace()
        insts = ds.insert_many([("k", i) for i in range(4)])
        stranger = make_tuple(("k", 0), serial=999, owner=0)
        with pytest.raises(SDLError, match="not in the dataspace"):
            ds.retract_many([insts[0].tid, stranger.tid])
        with pytest.raises(SDLError, match="duplicate"):
            ds.retract_many([insts[0].tid, insts[0].tid])
        assert len(ds) == 4  # neither bad batch touched anything
        assert ds.retract_many([]) == []


def test_unindexed_store_matches_indexed():
    indexed, unindexed = Dataspace(indexed=True), Dataspace(indexed=False)
    rows = [(f"c{i % 3}", i % 4) for i in range(24)] + [
        (f"c{i % 3}", i % 4, i) for i in range(12)
    ]
    for ds in (indexed, unindexed):
        ds.insert_many(rows)
    for pat in (
        pattern("c1", Var("a")),
        pattern(Var("k"), 2),
        pattern("c0", 1, Var("a")),
    ):
        assert [i.values for i in unindexed.find_matching(pat)] == [
            i.values for i in indexed.find_matching(pat)
        ]
        assert unindexed.count_matching(pat) == indexed.count_matching(pat)
    for probes in ([(0, "c1")], [(1, 2)], [(0, "c0"), (1, 1)]):
        # candidates_probed promises the full probe intersection in both
        # storage modes (the unindexed store applies probes as filters).
        assert [i.tid for i in unindexed.candidates_probed(2, probes)] == [
            i.tid for i in indexed.candidates_probed(2, probes)
        ]
