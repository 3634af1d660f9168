"""Tracing must not change what a workload does.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracing import SITES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _installed_objects() -> list:
    targets = dict.fromkeys((owner, attr) for __, owner, attr in SITES.values() if owner)
    return [vars(owner)[attr] for owner, attr in targets]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_execution_matches_untraced(name):
    workload = WORKLOADS[name]
    originals = _installed_objects()
    tracer = Tracer()
    for inp in workload.inputs(7, 0):
        plain = workload.build(inp)
        plain_result = plain.engine.run(max_steps=plain.max_steps)
        traced = workload.build(inp)
        with tracer.installed():
            traced_result = traced.engine.run(max_steps=traced.max_steps)
        assert dataclasses.asdict(traced_result) == dataclasses.asdict(plain_result)
        assert traced.engine.dataspace.snapshot() == plain.engine.dataspace.snapshot()
        assert plain.check(plain.engine, plain_result) is None
        assert traced.check(traced.engine, traced_result) is None
    assert _installed_objects() == originals  # every wrapper was removed
    folded, top_s, __ = tracer.fold()
    assert sum(calls for calls, __ in folded.values()) > 0
    assert top_s > 0
