"""E19 — durable crash recovery: WAL cost and recovery time.

The durability tier's two quantitative claims:

* **recovery time is bounded by the checkpoint interval**, not the total
  history — loading a WAL directory replays at most ``interval`` frames
  past the newest intact checkpoint (counter-verified via
  ``frames_replayed``), so recovery time stays flat as the log grows;
* **an inert fault shim is free** — a WAL-enabled engine carrying a
  never-firing storage-fault plan stays within **1.1×** of the same
  engine without a plan (the injector's site check is one dict probe).

Timing uses best-of-N interleaved so load drift lands on both sides.
"""

import time

from _helpers import attach, once
from repro.core.actions import assert_tuple
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.runtime import DurableLog
from repro.runtime.engine import Engine

COMMUNITIES = 6
DEPTH = 4
INTERVAL = 64


def _mover():
    a = Var("a")
    return ProcessDefinition(
        "Mover",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(DEPTH)
        ],
    )


def _drive(wal_dir=None, faults=None, seed=7):
    engine = Engine(
        definitions=[_mover()], seed=seed, commit="group",
        wal_dir=wal_dir, checkpoint_interval=INTERVAL if wal_dir else None,
        faults=faults,
    )
    engine.assert_tuples(
        [(k, d) for k in range(COMMUNITIES) for d in range(DEPTH)]
    )
    for k in range(COMMUNITIES):
        engine.start("Mover", (k,))
    result = engine.run()
    assert result.completed
    return engine, result


def _signature(space):
    return sorted((inst.values, inst.tid.owner) for inst in space.instances())


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_interleaved(n, fn_a, fn_b):
    best_a = best_b = float("inf")
    for __ in range(n):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


def test_e19_durable_run_and_load(benchmark, tmp_path):
    def run():
        engine, result = _drive(wal_dir=str(tmp_path))
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert _signature(scratch) == _signature(engine.dataspace)
        return result, report

    result, report = once(benchmark, run)
    assert result.wal_frames > 0
    attach(
        benchmark,
        wal_frames=result.wal_frames,
        wal_bytes=result.wal_bytes,
        wal_segments=result.wal_segments,
        frames_replayed=report.frames_replayed,
    )


def test_e19_shape_recovery_bounded_by_interval(benchmark, tmp_path):
    """Recovery replays < interval frames however long the history is."""

    def check():
        rows = []
        for ops in (500, 2_000, 8_000):
            wal_dir = str(tmp_path / f"w{ops}")
            space = Dataspace()
            log = DurableLog(space, wal_dir, interval=INTERVAL, keep=4)
            tids = []
            # Sliding window: the live set stays ~200 instances however
            # long the history runs, so recovery cost depends only on
            # (live state + interval), never on total operations.
            for i in range(ops):
                tids.append(space.insert(("item", i % 97, i)).tid)
                if len(tids) > 200:
                    space.retract(tids.pop(0))
            log.close()

            best = float("inf")
            for __ in range(3):
                start = time.perf_counter()
                scratch, report = DurableLog.load(wal_dir)
                best = min(best, time.perf_counter() - start)
            assert report.intact
            assert _signature(scratch) == _signature(space)
            # The bound under test: replay work ≤ one checkpoint interval.
            assert report.frames_replayed < INTERVAL
            rows.append((ops, log.wal_frames, report.frames_replayed, best))
        return rows

    rows = once(benchmark, check)
    # Recovery time must not grow with history length the way the WAL
    # does: 16x the operations may cost at most ~4x the load time
    # (generous: both sides are millisecond-scale and keep= retention
    # actually bounds the scanned bytes too).
    assert rows[-1][3] <= max(rows[0][3], 1e-3) * 4, (
        f"recovery time grew with history: {rows[0][3]:.4f}s -> {rows[-1][3]:.4f}s"
    )
    attach(
        benchmark,
        series=[
            {
                "ops": ops,
                "wal_frames": frames,
                "frames_replayed": replayed,
                "load_ms": round(load_s * 1e3, 2),
            }
            for ops, frames, replayed, load_s in rows
        ],
        interval=INTERVAL,
    )


def test_e19_shape_inert_fault_shim_within_1_1x(benchmark, tmp_path):
    """A never-firing storage-fault plan must not tax the WAL hot path."""
    inert = "seed=9; wal-append:torn-write:at=1000000"

    def check():
        base_dir = str(tmp_path / "base")
        shim_dir = str(tmp_path / "shim")
        _drive(wal_dir=base_dir)  # warm: plan caches, page cache
        _drive(wal_dir=shim_dir, faults=inert)
        plain_s, shim_s = _best_of_interleaved(
            5,
            lambda: _drive(wal_dir=base_dir),
            lambda: _drive(wal_dir=shim_dir, faults=inert),
        )
        ratio = shim_s / plain_s
        assert ratio <= 1.1, f"inert fault shim costs {ratio:.2f}x (> 1.1x)"
        # And inert really means inert: the state on disk is identical.
        a, ra = DurableLog.load(base_dir)
        b, rb = DurableLog.load(shim_dir)
        assert ra.intact and rb.intact
        assert _signature(a) == _signature(b)
        return plain_s, shim_s, ratio

    plain_s, shim_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        wal_ms=round(plain_s * 1e3, 2),
        wal_with_shim_ms=round(shim_s * 1e3, 2),
        ratio=round(ratio, 3),
    )
