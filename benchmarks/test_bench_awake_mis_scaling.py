"""Experiment E1 (Corollary 14): awake complexity of Awake-MIS vs n.

Regenerates the scaling series of Awake-MIS over G(n, p) and random
geometric graphs, prints the table and the growth-law fit, and times one
representative run.

``test_bench_awake_mis_schedule`` times the schedule engine as the paper
experiments run it — CONGEST-metered, on one fixed gnp graph at
n=4096 — and records ``congest_awake_mis_tasks_per_second`` under the
``awake_mis_schedule`` key, which ``compare_bench.py`` gates against
``BENCH_seed.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms.awake_mis import (
    AwakeMISParameters,
    awake_mis_protocol,
    run_awake_mis,
)
from repro.algorithms.common import mis_from_result
from repro.core.mis import is_maximal_independent_set
from repro.experiments.harness import default_message_bit_limit
from repro.experiments.registry import experiment_e1
from repro.experiments.tables import format_table
from repro.graphs import generators
from repro.sim.runner import run_protocol

#: The schedule-engine timing: graph size and seed, and timed runs per
#: scale (each ~0.15 s on a 2-core VM, so every scale clears the 0.5 s
#: floor below which ``compare_bench.py`` calls a key noisy).
SCHEDULE_N = 4096
SCHEDULE_GRAPH_SEED = 5
SCHEDULE_RUNS_BY_SCALE = {"smoke": 6, "default": 8, "full": 12}


def test_bench_e1_scaling_report(benchmark, repro_scale):
    """Produce the full E1 report (table, growth-law fits, verdict)."""
    report = benchmark.pedantic(
        experiment_e1, args=(repro_scale,), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    print()
    print(report.render())
    assert report.passed


@pytest.mark.parametrize("n", [64, 128, 256])
def test_bench_e1_single_run(benchmark, n):
    """Time one Awake-MIS run per size (the series' raw data points)."""
    graph = generators.gnp_graph(n, expected_degree=8, seed=n)

    def run():
        return run_awake_mis(graph, seed=17)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    mis = mis_from_result(result)
    assert is_maximal_independent_set(graph, mis)
    print()
    print(format_table([{
        "n": n,
        "awake_complexity": result.metrics.awake_complexity,
        "node_averaged_awake": round(result.metrics.node_averaged_awake, 2),
        "round_complexity": result.metrics.round_complexity,
        "mis_size": len(mis),
    }], title=f"E1 data point (n={n})"))


def test_bench_awake_mis_schedule(repro_scale, bench_record):
    """Time CONGEST-metered Awake-MIS on the schedule engine."""
    graph = generators.build_csr("gnp", SCHEDULE_N, seed=SCHEDULE_GRAPH_SEED)
    inputs = {"awake_params": AwakeMISParameters.scaled(SCHEDULE_N)}
    bit_limit = default_message_bit_limit(SCHEDULE_N)
    runs = SCHEDULE_RUNS_BY_SCALE[repro_scale]
    run_protocol(graph, awake_mis_protocol, inputs=inputs, seed=0,
                 message_bit_limit=bit_limit)
    times = []
    for run in range(runs):
        started = time.perf_counter()
        result = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                              seed=run + 1, message_bit_limit=bit_limit)
        times.append(time.perf_counter() - started)
        assert result.engine == "schedule"
        assert result.metrics.max_message_bits <= bit_limit
        assert is_maximal_independent_set(graph, mis_from_result(result))
    seconds = sum(times)
    rate = runs / max(seconds, 1e-9)
    print()
    print(format_table([{
        "engine": f"awake_mis schedule, CONGEST on (x{runs})",
        "best_s": round(min(times), 3),
        "tasks_per_s": round(rate, 2),
    }], title=f"Awake-MIS schedule engine (gnp n={SCHEDULE_N}, m={graph.m})"))
    bench_record(
        "awake_mis_schedule",
        scale=repro_scale,
        n=SCHEDULE_N,
        edges=graph.m,
        congest_awake_mis_runs=runs,
        congest_awake_mis_seconds=round(seconds, 4),
        congest_awake_mis_tasks_per_second=round(rate, 3),
    )
