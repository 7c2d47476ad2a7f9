"""End-to-end benchmark of the repro-mis sweep pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_congest --seed 1 --seconds 20 --trace 0

Workloads are described in ``perfbench/workloads.py``.  A run:

1. times set-up (:data:`SETUP_TRIALS` fresh processes, see ``probe.py``)
   and reports the median;
2. makes ``max(1, round(seconds / nominal pass time))`` passes over the
   workload's grid, so a run of a given length always does the same work;
3. checks the outputs: every task verified independent and maximal by the
   program, the first pass's stored MIS re-checked here against freshly
   generated graphs, every pass's rows digest identical (also across runs
   of the same source tree and seed), and for the socket workload no
   leaked shared-memory segment and rows byte-identical to a serial run;
4. prints every metric as ``name value unit`` and, as the last line, one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate untraced and traced (at least one of each), and the
metrics are per-layer self times and counts from the traced passes (see
``perfbench/spans.py``), with ``trace.overhead_frac`` comparing the two
kinds of pass.  The full result, with an environment stamp, is written to
``.bench_out/results/``.  Exit status: 0 when every check passes, 1 when
one fails, 2 on a usage error or when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_TRIALS = 5
#: Highest percentile with at least ten samples beyond it is chosen from
#: these; with fewer than 20 samples the median stands in for the tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("paper_congest", "large_graph", "socket_small_tasks")

#: Layers that run inside the socket worker's slot processes; seen from
#: the coordinator they read 0 and are reported as unavailable.
SLOT_LAYERS = ("executor.run_task_s", "executor.graph_fetch_s",
               "executor.graph_cache.hits", "executor.graph_cache.misses",
               "graphs.generate_s", "graphs.edges",
               "graphs.generate_us_per_edge", "graphs.share",
               "sim.network.build_s", "sim.network.share", "sim.runner.run_s",
               "sim.runner.share", "sim.runner.engine_runs.metered",
               "sim.runner.engine_runs.fast",
               "sim.runner.engine_runs.vectorized", "sim.runner.node_rounds",
               "sim.runner.messages", "sim.runner.node_rounds_per_s",
               "core.mis.verify_s", "core.mis.share", "harness.run_mis_s")


#: Per-layer units by name suffix, most specific first; the rest are counts.
UNITS = (("_us_per_edge", "us/edge"), ("_per_s", "1/s"), ("_ms", "ms"),
         ("_s", "s"), (".s", "s"), ("share", "fraction"),
         ("_frac", "fraction"), ("_ratio", "fraction"),
         ("coverage", "fraction"), ("bytes_per_record", "bytes"),
         ("bytes_sent", "bytes"), ("bytes_received", "bytes"),
         ("tasks_per_frame", "tasks/frame"))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it.  No interpolation, so a bimodal set of
    task times never reports a time between its two modes."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float:
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def completion_gaps(stamps: List[float], window: int) -> List[float]:
    """Seconds per task between every *window*-th completion of a sweep."""
    return [(stamps[i + window] - stamps[i]) / window
            for i in range(0, len(stamps) - window, window)]


def time_setup(workload: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                             stdout=subprocess.PIPE, text=True, env=env)
    line = probe.stdout.readline()
    elapsed = time.perf_counter() - started
    probe.stdout.read()
    probe.stdout.close()
    if probe.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {probe.returncode}, said {line!r})")
    return elapsed


def cpu_seconds() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #
def check_stored_outputs(paths: List[Path]) -> Tuple[int, int]:
    """Re-check every stored MIS against a freshly generated graph.

    Returns ``(checked, wrong)``.  Independent: no edge inside the set.
    Maximal: every node outside the set has a neighbour inside it.
    """
    from repro.experiments.store import ResultStore
    from repro.graphs.generators import by_name

    checked = wrong = 0
    for path in paths:
        if not path.exists():
            continue
        store = ResultStore(path)
        graphs: Dict[int, Any] = {}
        cell = None
        try:
            for _index, task, result in store.iter_grid_ordered_results():
                if (task.family, task.n) != cell:
                    cell, graphs = (task.family, task.n), {}
                if task.graph_seed not in graphs:
                    graphs[task.graph_seed] = by_name(task.family, task.n,
                                                      seed=task.graph_seed)
                graph = graphs[task.graph_seed]
                chosen = set(result.mis)
                independent = not any(u in chosen and v in chosen
                                      for u, v in graph.edges())
                maximal = all(node in chosen
                              or any(nb in chosen for nb in graph[node])
                              for node in graph.nodes())
                checked += 1
                wrong += not (independent and maximal
                              and len(chosen) == len(result.mis))
        finally:
            store.close()
    return checked, wrong


def fingerprint(tree: Path) -> str:
    """SHA-256 over the names and contents of every Python file in *tree*."""
    digest = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str, seed: int) -> Dict[str, Any]:
    import networkx
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__,
            "git_commit": git_commit(), "source_sha256": fingerprint(SRC),
            "benchmark_sha256": fingerprint(HERE),
            "workload": workload, "seed": seed}


def check_digests_across_runs(key: str, digests: Dict[str, str]) -> List[str]:
    """Compare with earlier runs of the same source tree, workload and seed."""
    path = OUT / "digests.json"
    known: Dict[str, Dict[str, str]] = {}
    if path.exists():
        known = json.loads(path.read_text())
    previous = known.get(key)
    if previous is None:
        known[key] = digests
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(temporary, path)
        return []
    return [f"{sweep}: digest {digests.get(sweep)} differs from an earlier "
            f"run's {value}" for sweep, value in sorted(previous.items())
            if digests.get(sweep) != value]


def declared_metrics(trace: int) -> Optional[set]:
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {metric["name"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def end_to_end(setup: List[float], walls: List[float], recorders,
               workload, cpu_s: float, passes: int,
               details: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    wall = statistics.median(walls)
    tasks = statistics.median(recorder.completed for recorder in recorders)
    gaps = [gap for recorder in recorders for stamps in recorder.sweeps
            for gap in completion_gaps(stamps, workload.gap_window)]
    tail_q = tail_percentile(len(gaps))
    details["task_gaps"] = {"samples": len(gaps), "tail_percentile": tail_q,
                            "window": workload.gap_window}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "tasks_per_s": (tasks / wall, "1/s"),
        "task_p50_ms": (1000.0 * percentile(gaps, 50.0), "ms"),
        "task_tail_ms": (1000.0 * percentile(gaps, tail_q), "ms"),
        "cpu_s": (cpu_s / passes, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, traced: List[int], walls: List[float], recorders,
              outcomes, stopped: Dict[str, Any],
              details: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    traced_wall = sum(walls[i] for i in traced)
    plain = [walls[i] for i in range(len(walls)) if i not in traced]
    passes = len(traced)
    values = tracer.layer_metrics(traced_wall, passes)
    details["layer_shares"] = {layer: self_s / traced_wall for layer, self_s
                               in sorted(tracer.self_times().items())}
    for algorithm in ("awake_mis", "luby", "rank_greedy", "vt_mis"):
        values[f"algorithms.{algorithm}.s"] = sum(
            recorders[i].algorithm_s.get(algorithm, 0.0)
            for i in traced) / passes
    records = sum(recorder.completed for recorder in recorders)
    stored = sum(path.stat().st_size for outcome in outcomes
                 for path in outcome.stores if path.exists())
    values["store.bytes_per_record"] = stored / max(1, records)
    values.update(transport_metrics(outcomes, records))
    shm = stopped.get("shm_cache", {})
    values["shm_cache.hits"] = shm.get("hits", 0) / len(outcomes)
    values["shm_cache.misses"] = shm.get("misses", 0) / len(outcomes)
    values["trace.overhead_frac"] = (
        statistics.median(walls[i] for i in traced)
        / statistics.median(plain) - 1.0)
    result = {}
    for name, value in sorted(values.items()):
        unit = next((u for suffix, u in UNITS if name.endswith(suffix)),
                    "count")
        result[name] = (value, unit)
    if outcomes[0].telemetry is not None:
        details["unavailable"] = list(SLOT_LAYERS)
    return result


def transport_metrics(outcomes, records: int) -> Dict[str, float]:
    """Transport and scheduler counters the program itself publishes."""
    totals = dict.fromkeys(("frames_sent", "tasks_sent", "slow_acks",
                            "reconnects", "bytes_sent", "bytes_received"), 0)
    requeues = peak = 0
    srtts = []
    for outcome in outcomes:
        telemetry = outcome.telemetry or {}
        for worker in telemetry.get("workers", []):
            for key in totals:
                totals[key] += worker[key]
            if worker.get("srtt_ms") is not None:
                srtts.append(worker["srtt_ms"])
        peak = max(peak, telemetry.get("peak_window", 0))
        requeues += telemetry.get("scheduler", {}).get("requeues", 0)
    passes = len(outcomes)
    return {
        "transports.frames_sent": totals["frames_sent"] / passes,
        "transports.tasks_per_frame": (totals["tasks_sent"]
                                       / max(1, totals["frames_sent"])),
        "transports.peak_window": float(peak),
        "transports.slow_acks": totals["slow_acks"] / passes,
        "transports.reconnects": totals["reconnects"] / passes,
        "transports.srtt_ms": statistics.median(srtts) if srtts else 0.0,
        "transports.bytes_sent": totals["bytes_sent"] / passes,
        "transports.bytes_received": totals["bytes_received"] / passes,
        "schedulers.requeues": requeues / passes,
        "schedulers.requeue_ratio": requeues / max(1, records),
    }


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a "
              "repro-mis checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    setup = [time_setup(args.workload) for _ in range(SETUP_TRIALS)]

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = cls(args.seed, run_dir, SRC)
    passes = max(1, round(args.seconds / cls.nominal_pass_s))
    traced = list(range(1, max(2, passes), 2)) if args.trace else []
    passes = max(passes, 2) if args.trace else passes
    tracer = Tracer()

    workload.start()
    walls: List[float] = []
    recorders = []
    outcomes = []
    stopped: Dict[str, Any] = {}
    cpu_before = cpu_seconds()
    try:
        for number in range(passes):
            recorder = workloads.Recorder()
            if number in traced:
                tracer.install()
            started = time.perf_counter()
            try:
                outcome = workload.run_pass(number, recorder)
            finally:
                walls.append(time.perf_counter() - started)
                tracer.uninstall()
            recorders.append(recorder)
            outcomes.append(outcome)
    finally:
        stopped = workload.stop()
    cpu_after = cpu_seconds()
    cpu_s = sum(after - before for after, before in zip(cpu_after, cpu_before))

    # ---- output checks -------------------------------------------------- #
    problems: List[str] = []
    details: Dict[str, Any] = {"environment": environment(args.workload,
                                                          args.seed)}
    attempted = sum(outcome.planned for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    unverified = sum(recorder.unverified for recorder in recorders)
    failed += unverified
    if unverified:
        problems.append(f"{unverified} task(s) returned an unverified MIS")
    checked, wrong = check_stored_outputs(outcomes[0].stores)
    failed += wrong
    if wrong:
        problems.append(f"{wrong} of {checked} stored MIS fail the "
                        "benchmark's own independence/maximality check")
    first = outcomes[0].digests
    for number, outcome in enumerate(outcomes[1:], 1):
        for sweep, digest in outcome.digests.items():
            if first.get(sweep, digest) != digest:
                problems.append(f"pass {number} {sweep}: rows digest differs "
                                "from pass 0")
    stamp = details["environment"]
    problems += check_digests_across_runs(
        f"{stamp['source_sha256']}:{stamp['benchmark_sha256']}:"
        f"{args.workload}:{args.seed}", first)
    leaks = stopped.get("leaked_segments", [])
    if leaks:
        failed += len(leaks)
        problems.append(f"worker left shared-memory segments: {leaks}")
    if isinstance(workload, workloads.SocketSmallTasks):
        if workload.serial_rows() != outcomes[0].rows_json.get("sweep"):
            problems.append("socket sweep rows differ from the serial run")
    details.update({
        "passes": passes, "traced_passes": traced, "pass_wall_s": walls,
        "setup_trials_s": setup, "stored_outputs_checked": checked,
        "experiment_status": outcomes[0].statuses,
        "digests": first, "task_errors": [e for o in outcomes for e in o.errors],
        "problems": problems, "failed_frac": failed / max(1, attempted),
        "worker": stopped,
    })

    # ---- metrics ------------------------------------------------------- #
    if args.trace:
        metrics = per_layer(tracer, traced, walls, recorders, outcomes,
                            stopped, details)
        coverage = metrics["trace.coverage"][0]
        serial = not isinstance(workload, workloads.SocketSmallTasks)
        if serial and coverage < 0.95:
            problems.append(f"trace coverage {coverage:.3f} is below 0.95")
    else:
        metrics = end_to_end(setup, walls, recorders, workload, cpu_s, passes,
                             details)
    shutil.rmtree(run_dir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        problems.append(f"metrics {sorted(set(metrics) ^ declared)} are not "
                        "both reported and declared in BENCHMARK.json")
    correct = not problems
    details["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(details, indent=1, sort_keys=True))

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    for key, status in sorted(outcomes[0].statuses.items()):
        print(f"experiment {key}: {status}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"details: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": details["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
