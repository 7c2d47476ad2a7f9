"""Scaling study: awake complexity growth of Awake-MIS vs the baselines.

Reproduces the E1/E2 experiment interactively: sweep the graph size, measure
the worst-case awake complexity of Awake-MIS, Luby and rank-greedy, fit each
series against candidate growth laws (log log n, log n, n), and print an
ASCII plot of the curves.

Usage::

    python examples/scaling_study.py [max_n] [repetitions]

``max_n`` defaults to 512 (a couple of minutes); increase it to see the
log log n flatness more clearly.
"""

from __future__ import annotations

import sys

from repro.analysis.stats import geometric_sizes
from repro.experiments.sweeps import run_sweep
from repro.experiments.tables import ascii_plot, format_table


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    repetitions = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    sizes = geometric_sizes(64, max_n)

    print(f"sweeping n in {sizes}, {repetitions} repetition(s) per point ...\n")
    sweep = run_sweep(
        algorithms=["awake_mis", "luby", "rank_greedy"],
        sizes=sizes,
        families=("gnp",),
        repetitions=repetitions,
        seed=1,
    )
    if not sweep.all_verified:
        print("ERROR: some run produced an invalid MIS")
        return 1

    print(format_table(sweep.rows(), title="scaling sweep (G(n, 8/n))"))
    print()
    print(format_table(sweep.fits("awake_max"),
                       title="growth-law fits of the awake complexity"))
    print()
    for algorithm in ("awake_mis", "luby"):
        series = sweep.series(algorithm, "gnp", metric="awake_max")
        print(ascii_plot(series, label=f"awake complexity of {algorithm}"))
        print()
    print(
        "Awake-MIS's curve is essentially flat across the sweep (the\n"
        "log log n regime), while the baselines track log n.  Absolute\n"
        "constants are dominated by the LDT construction; the claim is\n"
        "the growth shape."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
