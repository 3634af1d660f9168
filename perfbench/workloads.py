"""The benchmark's four workloads, built from the paper's section 3 programs.

Each workload turns ``(seed, pass_index)`` into the inputs of one *pass*, a
fixed list of program executions (:meth:`Workload.inputs`).  An execution is set up (engine, process
definitions, initial dataspace, initial society), run with ``Engine.run`` and
checked.  Input generation happens before set-up and is never timed.

The programs come from ``repro.programs``: the benchmark uses their public
process definitions and repeats what their ``run_*`` drivers do, so that set-up
and ``Engine.run`` can be timed apart and region completions can be stamped
with the wall clock.  The one-process transaction loop has no driver; its
definition below is the loop of ``tests/test_engine_basic.py``.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.actions import assert_tuple
from repro.core.constructs import guarded, repeat
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import immediate
from repro.core.values import NIL, Atom
from repro.programs.labeling import (
    default_threshold,
    label_definition,
    threshold_definition,
)
from repro.programs.plist import sort_definition
from repro.programs.summation import sum2_definition, sum3_definition
from repro.runtime.engine import Engine, RunResult
from repro.workloads.arrays import array_tuples, phase_tagged_tuples, random_array
from repro.workloads.images import (
    Image,
    connected_regions,
    image_tuples,
    random_blob_image,
)
from repro.workloads.plists import chain_order

__all__ = ["WORKLOADS", "Workload", "Prepared"]

#: Steps of one transaction-loop execution.
TXN_STEPS = 10_000
#: Community labeling: executions per pass and image shape.
IMAGES_PER_PASS = 4
IMAGE_SIDE = 5
IMAGE_BLOBS = 3
#: Sort: lists per pass and nodes per list.
LISTS_PER_PASS = 1
LIST_NODES = 64
#: Summation: array length (Sum2 needs a power of two).
SUM_N = 1024


@dataclass(slots=True)
class Prepared:
    """One execution after set-up: an engine ready for ``Engine.run``.

    ``check`` returns ``None`` when the finished engine holds the right
    output, else a one-line reason.  ``ready`` collects the wall-clock
    instants at which regions completed, for programs that publish results
    while they run.
    """

    engine: Engine
    check: Callable[[Engine, RunResult], str | None]
    max_steps: int = 1_000_000
    ready: list[float] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    #: ``rng -> list of inputs``, one input per execution of a pass.
    make_inputs: Callable[[random.Random], list[Any]]
    #: ``input -> Prepared``; this is the timed set-up.
    build: Callable[[Any], Prepared]

    def inputs(self, seed: int, pass_index: int) -> list[Any]:
        """The inputs of pass *pass_index*; independent of string hashing."""
        return self.make_inputs(random.Random(seed * 1_000_003 + pass_index))


def _expect(ok: bool, message: str) -> str | None:
    return None if ok else message


# ----------------------------------------------------------------------
# txn-loop: the per-step path every program pays
# ----------------------------------------------------------------------

_X = Atom("x")
_LABEL = Atom("label")


def _looper_definition() -> ProcessDefinition:
    a = Var("a")
    return ProcessDefinition(
        "Looper",
        body=[
            repeat(
                guarded(
                    immediate(exists(a).match(P[_X, a].retract()))
                    .then(assert_tuple(_X, a + 1))
                    .labeled("bump")
                )
            )
        ],
    )


def _txn_inputs(rng: random.Random) -> list[Any]:
    return [(rng.randrange(1_000_000), rng.randrange(2**31))]


def _txn_build(inp: tuple[int, int]) -> Prepared:
    start, engine_seed = inp
    engine = Engine(
        definitions=[_looper_definition()],
        seed=engine_seed,
        commit="live",
        on_deadlock="return",
    )
    engine.assert_tuples([(_X, start)])
    engine.start("Looper")

    def check(engine: Engine, result: RunResult) -> str | None:
        final = engine.dataspace.snapshot()
        return _expect(
            result.reason == "step-limit"
            and result.commits == TXN_STEPS
            and final == [(_X, start + TXN_STEPS)],
            f"txn-loop ended {result.reason} with {final!r} after {result.commits} commits",
        )

    return Prepared(engine, check, max_steps=TXN_STEPS)


# ----------------------------------------------------------------------
# community-labeling: the section 3.3 community model
# ----------------------------------------------------------------------

def _community_inputs(rng: random.Random) -> list[Any]:
    inputs = []
    for __ in range(IMAGES_PER_PASS):
        image = random_blob_image(
            IMAGE_SIDE, IMAGE_SIDE, blobs=IMAGE_BLOBS, seed=rng.randrange(2**31)
        )
        expected = connected_regions(image.threshold(default_threshold()))
        inputs.append((image, rng.randrange(2**31), expected))
    return inputs


def _community_build(inp: tuple[Image, int, dict]) -> Prepared:
    image, engine_seed, expected = inp
    threshold = default_threshold()
    ready: list[float] = []
    seen: set[Any] = set()
    clock = time.perf_counter

    def on_region_done(bindings: dict[str, Any]) -> None:
        # Every member of a region's community runs the callback; the first
        # one marks the region ready.
        label = bindings["lr"]
        if label not in seen:
            seen.add(label)
            ready.append(clock())

    engine = Engine(
        definitions=[threshold_definition(threshold), label_definition(on_region_done)],
        seed=engine_seed,
        commit="live",
    )
    engine.assert_tuples(image_tuples(image))
    engine.start("Threshold")
    regions = len(set(expected.values()))

    def check(engine: Engine, result: RunResult) -> str | None:
        labels = {
            inst.values[1]: inst.values[2]
            for inst in engine.dataspace.find_matching(P[_LABEL, ANY, ANY])
        }
        return _expect(
            result.reason == "completed" and labels == expected and len(ready) == regions,
            f"community labeling ended {result.reason}; labels correct: "
            f"{labels == expected}; {len(ready)} of {regions} regions reported",
        )

    return Prepared(engine, check, ready=ready)


# ----------------------------------------------------------------------
# plist-sort: the section 3.2 Sort
# ----------------------------------------------------------------------

def property_list(rng: random.Random, length: int) -> list[tuple]:
    """A property list whose names are exactly ``length*(length-1)/4``
    inversions away from sorted order.

    Every Sort swap commit removes one adjacent inversion, so fixing the
    inversion count (the mean of a uniform random permutation) fixes the
    number of swaps; the seed chooses which permutation.  Names are kept in
    a list, never iterated from a set, so the output does not depend on
    ``PYTHONHASHSEED`` (unlike ``repro.workloads.random_property_list``).
    """
    names: list[str] = []
    taken: set[str] = set()
    while len(names) < length:
        name = "".join(rng.choices(string.ascii_lowercase, k=6))
        if name not in taken:
            taken.add(name)
            names.append(name)
    names.sort()
    # Lehmer code: the i-th smallest name lands with code[i] smaller names
    # after it.  Start uniform, then walk the total to the target.
    code = [rng.randint(0, i) for i in range(length)]
    target = length * (length - 1) // 4
    total = sum(code)
    while total != target:
        i = rng.randrange(1, length)
        if total < target and code[i] < i:
            code[i] += 1
            total += 1
        elif total > target and code[i] > 0:
            code[i] -= 1
            total -= 1
    order: list[str] = []
    for i, name in enumerate(names):
        order.insert(i - code[i], name)
    rows = []
    for index, name in enumerate(order):
        nxt: Any = index + 1 if index + 1 < length else NIL
        rows.append((index, Atom(name), f"value-of-{name}", nxt))
    return rows


def _sort_inputs(rng: random.Random) -> list[Any]:
    inputs = []
    for __ in range(LISTS_PER_PASS):
        rows = property_list(rng, LIST_NODES)
        inputs.append((rows, rng.randrange(2**31), sorted(str(row[1]) for row in rows)))
    return inputs


def _sort_build(inp: tuple[list[tuple], int, list[str]]) -> Prepared:
    rows, engine_seed, expected = inp
    engine = Engine(definitions=[sort_definition()], seed=engine_seed, commit="live")
    engine.assert_tuples(rows)
    for row in rows:
        engine.start("Sort", (row[0], row[3]))

    def check(engine: Engine, result: RunResult) -> str | None:
        try:
            answer = chain_order([inst.values for inst in engine.dataspace.instances()])
        except ValueError as exc:
            return f"sort left a broken list: {exc}"
        return _expect(
            result.reason == "completed" and answer == expected,
            f"sort ended {result.reason}; order correct: {answer == expected}",
        )

    return Prepared(engine, check)


# ----------------------------------------------------------------------
# sum-group: section 3.1 Sum2 and Sum3 under group commit
# ----------------------------------------------------------------------

def _sum_inputs(rng: random.Random) -> list[Any]:
    values = random_array(SUM_N, seed=rng.randrange(2**31))
    engine_seed = rng.randrange(2**31)
    total = sum(values)
    return [("Sum2", values, engine_seed, total), ("Sum3", values, engine_seed, total)]


def _sum_build(inp: tuple[str, list[int], int, int]) -> Prepared:
    program, values, engine_seed, total = inp
    if program == "Sum2":
        engine = Engine(definitions=[sum2_definition()], seed=engine_seed, commit="group")
        engine.assert_tuples(phase_tagged_tuples(values))
        n = len(values)
        j = 1
        while 2**j <= n:
            for k in range(2**j, n + 1, 2**j):
                engine.start("Sum2", (k, j))
            j += 1
    else:
        engine = Engine(definitions=[sum3_definition()], seed=engine_seed, commit="group")
        engine.assert_tuples(array_tuples(values))
        engine.start("Sum3")

    def check(engine: Engine, result: RunResult) -> str | None:
        final = engine.dataspace.snapshot()
        return _expect(
            result.reason == "completed" and len(final) == 1 and final[0][1] == total,
            f"{program} ended {result.reason} with {final!r}, expected total {total}",
        )

    return Prepared(engine, check)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("txn-loop", _txn_inputs, _txn_build),
        Workload("community-labeling", _community_inputs, _community_build),
        Workload("plist-sort", _sort_inputs, _sort_build),
        Workload("sum-group", _sum_inputs, _sum_build),
    )
}
