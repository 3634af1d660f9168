"""Unit tests for the visualization layer (repro.viz)."""

from dataclasses import fields

import pytest

from repro.core.patterns import ANY, P
from repro.programs import run_sum1, run_sum3
from repro.viz import (
    DataspaceObserver,
    concurrency_profile,
    phase_summary,
    process_activity,
    render_dataspace,
    render_grid,
    render_histogram,
    render_profile,
    render_timeline,
)
from repro.runtime.events import TraceCounters
from repro.workloads import random_array


@pytest.fixture(scope="module")
def sum3_run():
    return run_sum3(random_array(32, seed=2), seed=4, detail=True)


@pytest.fixture(scope="module")
def sum1_run():
    return run_sum1(random_array(16, seed=2), seed=4, detail=True)


class TestStats:
    def test_run_metrics_merges_sources(self, sum3_run):
        # RunResult is the one record: every trace counter rides on it.
        result = sum3_run.result
        counters = sum3_run.trace.counters
        for counter in fields(TraceCounters):
            assert getattr(result, counter.name) == getattr(counters, counter.name)
        assert result.commits == 31
        assert result.processes_created == 1
        assert result.reason == "completed"
        assert result.parallelism > 1
        peak = max(concurrency_profile(sum3_run.trace).values())
        assert peak >= result.parallelism / 2

    def test_concurrency_profile_sums_to_commits(self, sum3_run):
        profile = concurrency_profile(sum3_run.trace)
        assert sum(profile.values()) == sum3_run.result.commits

    def test_profile_decreases_over_waves(self, sum3_run):
        profile = concurrency_profile(sum3_run.trace)
        rounds = sorted(profile)
        # first merge wave is the widest
        assert profile[rounds[0]] == max(profile.values())

    def test_process_activity(self, sum1_run):
        activity = process_activity(sum1_run.trace)
        assert activity  # every process shows up
        total = sum(slot["commits"] for slot in activity.values())
        assert total == sum1_run.result.commits

    def test_phase_summary_matches_consensus_rounds(self, sum1_run):
        phases = phase_summary(sum1_run.trace)
        consensus_phases = [p for p in phases if p.participants > 0]
        assert len(consensus_phases) == sum1_run.result.consensus_rounds
        # Sum1's first phase does N/2 merges
        assert consensus_phases[0].commits >= 8


class TestRenderers:
    def test_render_dataspace(self, space):
        space.insert_many([("x", 1), ("x", 1), ("y", 2)])
        text = render_dataspace(space)
        assert "|D|=3" in text
        assert "x2" in text  # multiplicity marker

    def test_render_dataspace_truncates(self, space):
        space.insert_many([("t", i) for i in range(100)])
        text = render_dataspace(space, limit=5)
        assert "more distinct tuples" in text

    def test_render_histogram(self):
        text = render_histogram({1: 10, 2: 5}, width=10, label="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_render_histogram_empty(self):
        assert "empty" in render_histogram({})

    def test_render_profile(self, sum3_run):
        assert "commits per virtual round" in render_profile(sum3_run.trace)

    def test_render_timeline_limits(self, sum3_run):
        text = render_timeline(sum3_run.trace, limit=5)
        assert text.count("\n") <= 6
        assert "commit" in text

    def test_render_grid(self):
        cells = {(0, 0): "a", (1, 1): "b"}
        text = render_grid(cells, 2, 2)
        rows = text.splitlines()
        assert rows[0].split() == ["a", "."]
        assert rows[1].split() == [".", "b"]


class TestObserver:
    def test_observer_samples_on_changes(self, space):
        observer = DataspaceObserver(space, every=1)
        series = observer.watch("xs", P["x", ANY])
        space.insert(("x", 1))
        space.insert(("x", 2))
        space.insert(("y", 1))  # still sampled, count unchanged
        observer.detach()
        assert series.counts()[0] == 0
        assert series.final() == 2
        assert series.peak() == 2

    def test_observer_every_n(self, space):
        observer = DataspaceObserver(space, every=2)
        series = observer.watch("xs", P["x", ANY])
        for i in range(4):
            space.insert(("x", i))
        # initial sample + one per two changes
        assert len(series.samples) == 3

    def test_detach_stops_sampling(self, space):
        observer = DataspaceObserver(space)
        series = observer.watch("xs", P["x", ANY])
        observer.detach()
        observer.detach()  # idempotent
        space.insert(("x", 1))
        assert len(series.samples) == 1

    def test_observer_does_not_perturb(self, space):
        version_before = space.version
        observer = DataspaceObserver(space)
        observer.watch("all", P[ANY])
        assert space.version == version_before

    def test_bad_every_rejected(self, space):
        with pytest.raises(ValueError):
            DataspaceObserver(space, every=0)
