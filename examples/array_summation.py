#!/usr/bin/env python
"""Section 3.1 — the three array-summation codings, side by side.

Runs Sum1 (synchronous/consensus phases), Sum2 (asynchronous/delayed,
phase-tagged data), and Sum3 (the preferred replication one-liner) on the
same random array, prints the control-structure cost of each coding, and
shows Sum3's concurrency profile (commits per virtual round).

Run:  python examples/array_summation.py [N]
"""

import sys

from repro.programs import run_sum1, run_sum2, run_sum3
from repro.viz import render_profile
from repro.workloads import random_array


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    values = random_array(n, seed=7)
    expected = sum(values)
    print(f"summing a random array of N={n} values; true total = {expected}\n")

    header = f"{'coding':<6} {'processes':>9} {'commits':>8} {'consensus':>9} {'rounds':>7} {'parallelism':>11}"
    print(header)
    print("-" * len(header))
    for name, runner in (("Sum1", run_sum1), ("Sum2", run_sum2), ("Sum3", run_sum3)):
        out = runner(values, seed=1, detail=True)
        assert out.total == expected, (name, out.total)
        result = out.result
        print(
            f"{name:<6} {result.processes_created:>9} {result.commits:>8} "
            f"{result.consensus_rounds:>9} {result.rounds:>7} {result.parallelism:>11.2f}"
        )

    print(
        "\nNote the paper's point: all three compute the same sum, but Sum3\n"
        "needs no processes beyond one, no phase tags, and no consensus —\n"
        "the replication exposes the parallelism instead of the programmer.\n"
    )

    out3 = run_sum3(values, seed=1, detail=True)
    print(render_profile(out3.trace))
    print("\narray_summation OK")


if __name__ == "__main__":
    main()
