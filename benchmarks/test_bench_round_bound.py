"""Experiment E3 (Corollary 14): Awake-MIS ends within its schedule.

Regenerates the E3 table: per cell, the largest round complexity beside
the schedule length ``batch_count x phase_length`` that bounds it.
"""

from __future__ import annotations

from repro.experiments.registry import experiment_e3


def test_bench_e3_report(benchmark, repro_scale):
    report = benchmark.pedantic(
        experiment_e3, args=(repro_scale,), kwargs={"seed": 3},
        rounds=1, iterations=1,
    )
    print()
    print(report.render())
    assert report.passed
    assert all(row["rounds_max"] <= row["round_bound"]
               for row in report.rows)
