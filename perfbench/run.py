"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload txn-loop --seed 1 --seconds 20 --trace 0

The run repeats *passes* of the workload (see ``workloads.py``) until
``--seconds`` have gone by; pass ``p`` draws its inputs from ``(seed, p)``.
Every execution's output is checked, and a failed execution is counted, never
raised.  With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics, medians over passes.  With ``--trace 1`` every
pass runs twice on the same inputs, untraced and then traced, and the JSON
holds the per-layer metrics.  Everything runs in this one process, on one
thread, with the default engine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostspeed import probe, rescale

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "commits_per_s": "1/s",
    "region_ready_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "scheduler.self_s": "s",
    "scheduler.rounds": "count",
    "executor.steps": "count",
    "executor.self_s": "s",
    "executor.commits_per_step": "ratio",
    "transactions.calls": "count",
    "transactions.self_s": "s",
    "query.calls": "count",
    "query.self_s": "s",
    "query.success_ratio": "ratio",
    "plan.calls": "count",
    "plan.self_s": "s",
    "plan.hit_ratio": "ratio",
    "views.refresh_calls": "count",
    "views.footprint_calls": "count",
    "views.self_s": "s",
    "views.window_hit_ratio": "ratio",
    "consensus.attempts": "count",
    "consensus.fired": "count",
    "consensus.self_s": "s",
    "dataspace.mutations": "count",
    "dataspace.mutate_s": "s",
    "dataspace.fetches": "count",
    "dataspace.fetch_s": "s",
    "dataspace.rows_per_fetch": "rows",
    "wakeup.calls": "count",
    "wakeup.self_s": "s",
    "wakeup.spurious_ratio": "ratio",
    "rounds.calls": "count",
    "rounds.self_s": "s",
    "rounds.avg_batch": "commits",
    "commit.conflict_checks": "count",
    "commit.self_s": "s",
    "commit.conflict_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Set-up samples a run takes at least, building engines without running
#: them once the passes are done, so that ``setup_s`` is a steady median.
SETUP_SAMPLES = 15


@dataclass
class PassStats:
    """What one pass measured, summed over its executions.

    Times are rescaled to the reference host speed (see ``hostspeed.py``);
    ``raw_wall_s`` keeps the plain wall-clock sum.
    """

    setup_s: float = 0.0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    executions: int = 0
    #: Regions the executions reported while they ran.
    regions: int = 0
    failures: list[str] = field(default_factory=list)
    #: Rescaled seconds from ``Engine.run`` start to each region's completion.
    ready: list[float] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)

    def total(self, name: str) -> int:
        return sum(getattr(result, name) for result in self.results)

    def counts(self) -> tuple[int, int, int, int]:
        return tuple(
            self.total(name) for name in ("steps", "commits", "rounds", "consensus_rounds")
        )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_pass(workload, inputs: list[Any], tracer=None) -> PassStats:
    """Set up, run and check every execution of one pass.

    The host-speed probe runs before set-up and after set-up and every
    execution, so each timed interval is rescaled by the probes around it.
    """
    stats = PassStats(executions=len(inputs))
    clock = time.perf_counter
    gc.collect()
    prepared = []
    before = probe()
    start = clock()
    for inp in inputs:
        try:
            prepared.append(workload.build(inp))
        except Exception as exc:  # a failed execution is counted, not raised
            stats.failures.append(f"set-up raised {exc!r}")
    setup_s = clock() - start
    after = probe()
    stats.setup_s = rescale(setup_s, before, after)
    for item in prepared:
        engine = item.engine
        result = None
        try:
            if tracer is None:
                start = clock()
                result = engine.run(max_steps=item.max_steps)
                end = clock()
            else:
                with tracer.installed():
                    start = clock()
                    result = engine.run(max_steps=item.max_steps)
                    end = clock()
            failure = item.check(engine, result)
        except Exception as exc:  # a failed execution is counted, not raised
            end = clock()
            failure = f"{type(exc).__name__}: {exc}"
        before, after = after, probe()
        scale = rescale(1.0, before, after)
        stats.raw_wall_s += end - start
        stats.wall_s += (end - start) * scale
        if result is not None:
            stats.results.append(result)
        if failure is not None:
            stats.failures.append(failure)
        stats.ready.extend((instant - start) * scale for instant in item.ready)
    stats.regions = len(stats.ready)
    if not stats.ready:
        # A program that publishes nothing while it runs makes one result
        # per pass, ready when the pass ends.
        stats.ready.append(stats.wall_s)
    return stats


def end_to_end(passes: list[PassStats], setups: list[float]) -> dict[str, float]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "commits_per_s": statistics.median(
            _ratio(p.total("commits"), p.wall_s) for p in passes
        ),
        "region_ready_p50_s": statistics.median(t for p in passes for t in p.ready),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(traced: PassStats, untraced: PassStats, tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; *untraced* ran the same inputs."""
    from tracing import SITES

    folded, top_s, tally = tracer.fold()
    # Span times are raw; rescale them like the pass's wall time.
    scale = _ratio(traced.wall_s, traced.raw_wall_s)
    folded = {site: (calls, seconds * scale) for site, (calls, seconds) in folded.items()}
    calls = {site: folded[site][0] for site in SITES}
    self_s: dict[str, float] = {}
    for site, (layer, __, __) in SITES.items():
        self_s[layer] = self_s.get(layer, 0.0) + folded[site][1]
    steps = traced.total("steps")
    plan_lookups = traced.total("plan_hits") + traced.total("plan_misses")
    window_probes = traced.total("window_hits") + traced.total("window_misses")
    wakes = traced.total("precise_wakeups") + traced.total("spurious_wakeups")
    fetches = calls["Dataspace.candidates"] + calls["Dataspace.candidates_probed"]
    query_calls = calls["Query.evaluate"]
    checks = calls["first_conflict@rounds"]
    return {
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.rounds": traced.total("rounds"),
        "executor.steps": steps,
        "executor.self_s": self_s["executor"],
        "executor.commits_per_step": _ratio(traced.total("commits"), steps),
        "transactions.calls": calls["execute@executor"] + calls["execute@rounds"],
        "transactions.self_s": self_s["transactions"],
        "query.calls": query_calls,
        "query.self_s": self_s["query"],
        "query.success_ratio": _ratio(tally["query_ok"], query_calls),
        "plan.calls": calls["QueryPlanner.plan_for"] + calls["QueryPlanner.iter_matches"],
        "plan.self_s": self_s["plan"],
        "plan.hit_ratio": _ratio(traced.total("plan_hits"), plan_lookups),
        "views.refresh_calls": calls["Window.refresh"],
        "views.footprint_calls": calls["Window.footprint"],
        "views.self_s": self_s["views"],
        "views.window_hit_ratio": _ratio(traced.total("window_hits"), window_probes),
        "consensus.attempts": calls["Executor.try_consensus+waiters"],
        "consensus.fired": tally["fired"],
        "consensus.self_s": self_s["consensus"],
        "dataspace.mutations": sum(
            calls[f"Dataspace.{name}"]
            for name in ("insert", "retract", "insert_many", "retract_many")
        ),
        "dataspace.mutate_s": sum(
            folded[f"Dataspace.{name}"][1]
            for name in ("insert", "retract", "insert_many", "retract_many")
        ),
        "dataspace.fetches": fetches,
        "dataspace.fetch_s": (
            folded["Dataspace.candidates"][1] + folded["Dataspace.candidates_probed"][1]
        ),
        "dataspace.rows_per_fetch": _ratio(tally["fetch_rows"], fetches),
        "wakeup.calls": sum(
            calls[f"WakeupIndex.{name}"] for name in ("affected", "add", "discard")
        ),
        "wakeup.self_s": self_s["wakeup"],
        "wakeup.spurious_ratio": _ratio(traced.total("spurious_wakeups"), wakes),
        "rounds.calls": calls["run_group_round@rounds"],
        "rounds.self_s": self_s["rounds"],
        "rounds.avg_batch": _ratio(traced.total("batch_commits"), traced.total("group_rounds")),
        "commit.conflict_checks": checks,
        "commit.self_s": self_s["commit"],
        "commit.conflict_ratio": _ratio(tally["conflicts"], checks),
        "trace.unattributed_share": _ratio(traced.raw_wall_s - top_s, traced.raw_wall_s),
        "trace.overhead_ratio": _ratio(traced.wall_s, untraced.wall_s),
    }


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path and make sure it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The default engine: drop the suite-wide SDL_* overrides the engine
    # would otherwise read (commit mode, shards, store, workers, obs, ...).
    for name in [name for name in os.environ if name.startswith("SDL_")]:
        del os.environ[name]
    _import_repro()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes, layer_rows, failures = measure(workload, args.seed, args.seconds, tracer)
    for failure in failures:
        print(f"FAILED: {failure}")
    attempted = sum(p.executions for p in passes) * (2 if tracer else 1)
    failed = min(len(failures), attempted)
    first = passes[0]
    steps, commits, rounds, consensus_rounds = first.counts()
    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} executions={attempted} failed={failed} "
        f"failed_share={_ratio(failed, attempted):.4f}"
    )
    print(
        f"pass 0: executions={first.executions} steps={steps} commits={commits} "
        f"rounds={rounds} consensus_rounds={consensus_rounds} regions={first.regions}"
    )
    print("pass wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print(
        f"raw wall_s = {statistics.median(p.raw_wall_s for p in passes):.6g} s "
        f"(not rescaled); host speed = "
        f"{statistics.median(_ratio(p.wall_s, p.raw_wall_s) for p in passes):.4f} "
        f"of the reference"
    )

    if tracer is None:
        setups = [p.setup_s for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_setup_only(workload, workload.inputs(args.seed, 0)))
        metrics = end_to_end(passes, setups)
        units = END_TO_END
    else:
        metrics = {
            name: statistics.median(row[name] for row in layer_rows) for name in PER_LAYER
        }
        units = PER_LAYER
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def measure(workload, seed: int, seconds: float, tracer=None):
    """Run passes until *seconds* are spent; return the untraced passes, the
    per-layer rows of the traced ones and every failure."""
    passes: list[PassStats] = []
    layer_rows: list[dict[str, float]] = []
    failures: list[str] = []
    began = time.perf_counter()
    last = 0.0  # seconds the latest pass (with its traced twin) took
    while not passes or time.perf_counter() - began + last <= seconds:
        pass_began = time.perf_counter()
        inputs = workload.inputs(seed, len(passes))
        stats = run_pass(workload, inputs)
        failures += stats.failures
        if tracer is not None:
            traced = run_pass(workload, inputs, tracer)
            failures += traced.failures
            if traced.counts() != stats.counts() or len(traced.results) != len(stats.results):
                failures.append(
                    f"traced pass counted {traced.counts()}, untraced {stats.counts()}"
                )
            layer_rows.append(per_layer(traced, stats, tracer))
        passes.append(stats)
        last = time.perf_counter() - pass_began
    return passes, layer_rows, failures


def run_setup_only(workload, inputs: list[Any]) -> float:
    """Rescaled seconds to build every engine of a pass, then discarded."""
    gc.collect()
    before = probe()
    start = time.perf_counter()
    for inp in inputs:
        workload.build(inp)
    seconds = time.perf_counter() - start
    return rescale(seconds, before, probe())


if __name__ == "__main__":
    sys.exit(main())
