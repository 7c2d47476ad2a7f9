"""Benchmark: the numpy whole-round engine vs the generator fast loop.

Unmetered Luby on a gnp graph at n ≥ 20k — the workload the vectorized
engine targets: every undecided node is awake in every iteration, so the
generator fast loop resumes tens of thousands of generators per round
while the vectorized engine computes the same rounds as a handful of
array operations over the CSR arrays.

Byte-identity is asserted first (outputs, per-node awake/message/bit/
round counters, ``awake_by_label`` — the engine contract), then the
speedup: the ≥5× floor is part of the engine's acceptance criteria,
measured best-of-N on both sides so a transient scheduler stall on a
shared CI runner cannot fail it spuriously.  Both engines' throughput
lands in the perf-trajectory file (``vectorized_luby_tasks_per_second`` /
``generator_luby_tasks_per_second``) and is gated by
``compare_bench.py`` against ``BENCH_seed.json``.

The CONGEST-on rows time the engine as the paper experiments run it —
with the harness's default bit limit, metered by the engine itself — for
luby and rank_greedy (``congest_vectorized_luby_tasks_per_second`` /
``congest_vectorized_rank_greedy_tasks_per_second``).

The Awake-MIS rows time the paper's own algorithm the same way, CONGEST
on, at gnp n=2048: the generator loop against the schedule engine
(``congest_generator_awake_mis_seconds`` /
``congest_schedule_awake_mis_seconds``).  They record numbers only — no
speedup floor.

The graph itself is built inside a timed key too: ``graph_build_seconds``
is one ``build_csr`` of the gnp graph (numpy edge arrays straight into
CSR) and ``generate_us_per_edge`` the same time per generated edge.
"""

from __future__ import annotations

import time

from repro.algorithms.awake_mis import AwakeMISParameters, awake_mis_protocol
from repro.algorithms.luby import luby_protocol
from repro.algorithms.rank_greedy import rank_greedy_protocol
from repro.experiments.harness import default_message_bit_limit
from repro.experiments.tables import format_table
from repro.graphs.generators import build_csr
from repro.sim.runner import run_protocol

#: Graph size per scale; the tentpole's target is n ≈ 20k (never smaller).
N_BY_SCALE = {"smoke": 20_000, "default": 20_000, "full": 30_000}

#: Timed (generator, vectorized) repetitions per scale.  The generator
#: side costs ~2s per run, so it gets fewer repetitions; best-of is used
#: for the speedup either way.
RUNS_BY_SCALE = {"smoke": (2, 4), "default": (3, 5), "full": (3, 6)}

#: Timed CONGEST-on vectorized repetitions per protocol, per scale.
CONGEST_RUNS_BY_SCALE = {"smoke": 3, "default": 3, "full": 4}

#: Awake-MIS graph size, and timed runs per engine per scale.
AWAKE_N = 2048
AWAKE_RUNS_BY_SCALE = {"smoke": 2, "default": 3, "full": 3}

#: The asserted speedup floor (acceptance criterion of the engine).
SPEEDUP_FLOOR = 5.0

GRAPH_SEED = 5


def _summarize(result):
    """Every byte an engine is allowed to influence — i.e. none."""
    per_node = [
        (node.awake_rounds, node.messages_sent, node.messages_received,
         node.bits_sent, node.max_message_bits, node.terminated_round)
        for node in result.metrics.per_node
    ]
    return (result.outputs, per_node, result.awake_by_label,
            result.metrics.active_rounds, result.metrics.last_active_round,
            result.metrics.bits_metered, result.metrics.max_message_bits)


def _time_congest_runs(csr, protocol, runs, bit_limit):
    """Per-run seconds of *runs* CONGEST-on vectorized runs."""
    times = []
    for run in range(runs):
        started = time.perf_counter()
        result = run_protocol(csr, protocol, seed=run + 1,
                              message_bit_limit=bit_limit)
        times.append(time.perf_counter() - started)
        assert result.engine == "vectorized"
        assert result.metrics.max_message_bits <= bit_limit
    return times


def _time_awake_mis(runs):
    """Per-engine per-run seconds of CONGEST-on Awake-MIS at AWAKE_N."""
    csr = build_csr("gnp", AWAKE_N, seed=GRAPH_SEED)
    bit_limit = default_message_bit_limit(AWAKE_N)
    inputs = {"awake_params": AwakeMISParameters.scaled(AWAKE_N)}
    times = {}
    results = {}
    for engine, pinned in (("generator", False), ("schedule", True)):
        times[engine] = []
        for run in range(runs):
            started = time.perf_counter()
            result = run_protocol(csr, awake_mis_protocol, inputs=inputs,
                                  seed=run + 1, message_bit_limit=bit_limit,
                                  vectorized=pinned)
            times[engine].append(time.perf_counter() - started)
            assert result.engine == engine
        results[engine] = result
    assert _summarize(results["schedule"]) == _summarize(
        results["generator"])
    return times


def test_bench_vectorized_rounds(repro_scale, bench_record):
    n = N_BY_SCALE[repro_scale]
    generator_runs, vectorized_runs = RUNS_BY_SCALE[repro_scale]
    started = time.perf_counter()
    csr = build_csr("gnp", n, seed=GRAPH_SEED)
    graph_build_seconds = time.perf_counter() - started

    # Warm both engines (numpy import, allocator, code caches) and pin the
    # byte-identity contract on this exact workload before timing anything.
    warm_generator = run_protocol(csr, luby_protocol, seed=0,
                                  vectorized=False)
    warm_vectorized = run_protocol(csr, luby_protocol, seed=0)
    assert warm_vectorized.engine == "vectorized"
    assert _summarize(warm_vectorized) == _summarize(warm_generator)
    assert list(warm_vectorized.outputs) == list(warm_generator.outputs)

    generator_times = []
    for run in range(generator_runs):
        started = time.perf_counter()
        run_protocol(csr, luby_protocol, seed=run + 1, vectorized=False)
        generator_times.append(time.perf_counter() - started)
    vectorized_times = []
    for run in range(vectorized_runs):
        started = time.perf_counter()
        result = run_protocol(csr, luby_protocol, seed=run + 1)
        vectorized_times.append(time.perf_counter() - started)
        assert result.engine == "vectorized"

    congest_runs = CONGEST_RUNS_BY_SCALE[repro_scale]
    bit_limit = default_message_bit_limit(n)
    congest_times = {
        name: _time_congest_runs(csr, protocol, congest_runs, bit_limit)
        for name, protocol in (("luby", luby_protocol),
                               ("rank_greedy", rank_greedy_protocol))}

    awake_runs = AWAKE_RUNS_BY_SCALE[repro_scale]
    awake_times = _time_awake_mis(awake_runs)

    generator_seconds = sum(generator_times)
    vectorized_seconds = sum(vectorized_times)
    generator_rate = generator_runs / max(generator_seconds, 1e-9)
    vectorized_rate = vectorized_runs / max(vectorized_seconds, 1e-9)
    speedup = min(generator_times) / max(min(vectorized_times), 1e-9)

    rows = [
        {"engine": "graph build (build_csr, x1)",
         "best_s": round(graph_build_seconds, 3), "tasks_per_s": ""},
        {"engine": f"generator fast loop (x{generator_runs})",
         "best_s": round(min(generator_times), 3),
         "tasks_per_s": round(generator_rate, 2)},
        {"engine": f"vectorized (x{vectorized_runs})",
         "best_s": round(min(vectorized_times), 3),
         "tasks_per_s": round(vectorized_rate, 2)},
        {"engine": "speedup (best-of)", "best_s": round(speedup, 2),
         "tasks_per_s": ""},
    ]
    congest_numbers = {}
    for name, times in congest_times.items():
        rate = congest_runs / max(sum(times), 1e-9)
        rows.append({
            "engine": f"vectorized {name}, CONGEST on (x{congest_runs})",
            "best_s": round(min(times), 3),
            "tasks_per_s": round(rate, 2)})
        congest_numbers[f"congest_vectorized_{name}_seconds"] = round(
            sum(times), 4)
        congest_numbers[f"congest_vectorized_{name}_tasks_per_second"] = (
            round(rate, 3))
    for engine, times in awake_times.items():
        rows.append({
            "engine": f"awake_mis n={AWAKE_N} {engine}, CONGEST on "
                      f"(x{awake_runs})",
            "best_s": round(min(times), 3),
            "tasks_per_s": round(awake_runs / max(sum(times), 1e-9), 2)})
        congest_numbers[f"congest_{engine}_awake_mis_seconds"] = round(
            sum(times), 4)
    print()
    print(format_table(rows,
                       title=f"vectorized rounds (gnp n={n}, m={csr.m})"))

    bench_record(
        "vectorized_rounds",
        scale=repro_scale,
        n=n,
        edges=csr.m,
        graph_build_seconds=round(graph_build_seconds, 4),
        generate_us_per_edge=round(1e6 * graph_build_seconds / max(csr.m, 1),
                                   4),
        generator_runs=generator_runs,
        vectorized_runs=vectorized_runs,
        generator_luby_seconds=round(generator_seconds, 4),
        vectorized_luby_seconds=round(vectorized_seconds, 4),
        generator_luby_tasks_per_second=round(generator_rate, 3),
        vectorized_luby_tasks_per_second=round(vectorized_rate, 3),
        speedup=round(speedup, 3),
        congest_runs=congest_runs,
        awake_mis_n=AWAKE_N,
        awake_mis_runs=awake_runs,
        **congest_numbers,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.2f}x the generator fast loop "
        f"on unmetered luby over gnp n={n} (floor {SPEEDUP_FLOOR}x); "
        "whole-round vectorization is not engaging or has regressed")
