"""The benchmark's workloads.

Each workload is a closed-loop batch job: one *pass* runs a fixed grid of
sweep tasks through the program's public API, and the next task is
dispatched only when a slot frees, which is how sweeps run.  A pass is
deterministic in the workload seed, so every pass of one run must
produce the same rows; the runner checks that.

``paper_congest``
    Registry experiments E1, E2 and E9 at ``full`` scale through
    ``run_experiment``, serial, CONGEST enforced as the CLI runs them,
    one JSONL store per experiment.  The system's purpose; Awake-MIS in
    the metered engine dominates.
``large_graph``
    ``run_sweep`` of luby and rank_greedy on gnp and rgg at n = 8192, one
    graph seed per pass, serial, CONGEST on, store on.  Graph generation and the
    per-edge layers (network build, verify) dominate, and memory is set
    by the networkx graphs.
``socket_small_tasks``
    A wide grid of tiny tasks through one local two-slot process worker,
    dialled twice, with the cost-model scheduler, an adaptive window and
    batches of up to 8.  Per-task overhead in the execution layer
    dominates; graph generation and the engine barely register.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MessageTooLargeError, SimulationError
from repro.experiments import registry
from repro.experiments.backends import ComposedBackend
from repro.experiments.registry import run_experiment
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import run_sweep
from repro.experiments.transports import SocketTransport

#: Failures a task may raise that count against ``failed`` without
#: aborting the run: the rest of the pass still executes.
TASK_ERRORS = (MessageTooLargeError, SimulationError)

#: Algorithm modules the adapters import lazily on a task's first run;
#: importing them up front keeps that cost in set-up, where users pay it.
ALGORITHM_MODULES = ("repro.algorithms.awake_mis", "repro.algorithms.luby",
                     "repro.algorithms.rank_greedy", "repro.algorithms.vt_mis")

WORKER_SLOTS = 2


def rows_digest(rows: List[Dict[str, Any]],
                fits: List[Dict[str, Any]]) -> str:
    """SHA-256 over a sweep's hashed fields (rows and fits, no wall time)."""
    blob = json.dumps({"rows": rows, "fits": fits}, sort_keys=True,
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def grid_size(algorithms, sizes, families, repetitions) -> int:
    """Tasks in a ``run_sweep`` grid."""
    return len(algorithms) * len(sizes) * len(families) * repetitions


@dataclass
class PassOutcome:
    """What one pass produced, for the runner's checks and metrics."""

    planned: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    rows_json: Dict[str, str] = field(default_factory=dict)
    statuses: Dict[str, str] = field(default_factory=dict)
    stores: List[Path] = field(default_factory=list)
    telemetry: Optional[Dict[str, Any]] = None


class Recorder:
    """Progress callback: completion timestamps per sweep, output checks."""

    def __init__(self) -> None:
        self.sweeps: List[List[float]] = []
        self.unverified = 0
        self.completed = 0
        self.algorithm_s: Dict[str, float] = {}
        self.totals: List[int] = []

    def begin_sweep(self) -> None:
        self.sweeps.append([time.perf_counter()])
        self.totals.append(0)

    def __call__(self, task: Any, result: Any, done: int, total: int) -> None:
        self.sweeps[-1].append(time.perf_counter())
        self.totals[-1] = total
        self.completed += 1
        if not (result.verified and result.independent and result.maximal):
            self.unverified += 1
        self.algorithm_s[result.algorithm] = (
            self.algorithm_s.get(result.algorithm, 0.0)
            + result.wall_time_seconds)

    @property
    def sweep_completed(self) -> int:
        return len(self.sweeps[-1]) - 1


class Workload:
    """Base: subclasses define one pass and its expected size."""

    name = ""
    #: Wall time of one pass on the reference machine; with ``--seconds``
    #: it fixes how many passes a run makes, so runs of one length always
    #: do the same work and sample the same number of tasks.
    nominal_pass_s = 1.0
    #: Completions per timing sample: 1 where results arrive one by one,
    #: more where a pipelined transport returns them in batches.
    gap_window = 1

    def __init__(self, seed: int, out_dir: Path, src: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.src = src

    def start(self) -> None:
        """Bring up anything the passes need (before timing starts)."""

    def run_pass(self, number: int, recorder: Recorder) -> PassOutcome:
        raise NotImplementedError

    def stop(self) -> Dict[str, Any]:
        """Tear down; return hygiene findings and worker counters."""
        return {}

    def _sweep(self, outcome: PassOutcome, key: str, planned: int,
               recorder: Recorder,
               call: Callable[[ResultStore], Tuple[Any, Any]],
               number: int) -> None:
        """Run one sweep with its own store; count failures, digest rows."""
        path = self.out_dir / f"pass{number}-{key}.jsonl"
        store = ResultStore(path)
        outcome.planned += planned
        outcome.stores.append(path)
        recorder.begin_sweep()
        try:
            rows, fits = call(store)
        except TASK_ERRORS as error:
            outcome.failed += planned - recorder.sweep_completed
            outcome.errors.append(f"{key}: {error!r}")
            return
        finally:
            store.close()
        if recorder.totals[-1] != planned:
            raise RuntimeError(f"{key}: program planned {recorder.totals[-1]} "
                               f"tasks, benchmark expected {planned}")
        outcome.digests[key] = rows_digest(rows, fits)
        outcome.rows_json[key] = json.dumps(rows, sort_keys=True)


class PaperCongest(Workload):
    name = "paper_congest"
    nominal_pass_s = 8.0
    modules = ("repro.experiments.registry",) + ALGORITHM_MODULES

    #: (experiment, registry default seed, algorithms, families, sizes)
    EXPERIMENTS = (
        ("E1", 1, 1, 2, registry.SCALE_SIZES["full"]),
        ("E2", 2, 3, 1, registry.SCALE_SIZES["full"]),
        ("E9", 9, 2, 1, registry.E9_SIZES["full"]),
    )

    def run_pass(self, number, recorder):
        outcome = PassOutcome()
        reps = registry.SCALE_REPETITIONS["full"]
        for key, default_seed, algorithms, families, sizes in self.EXPERIMENTS:
            seed = 1000 * self.seed + default_seed

            def call(store, key=key, seed=seed):
                report = run_experiment(key, scale="full", seed=seed,
                                        store=store, progress=recorder)
                report.render()
                outcome.statuses[key] = "PASS" if report.passed else "CHECK"
                return report.rows, report.fits

            self._sweep(outcome, key, algorithms * families * len(sizes) * reps,
                        recorder, call, number)
        return outcome


class LargeGraph(Workload):
    name = "large_graph"
    nominal_pass_s = 6.5
    modules = ("repro.experiments.sweeps", "repro.experiments.store",
               "repro.algorithms.luby", "repro.algorithms.rank_greedy")
    GRID = dict(algorithms=["luby", "rank_greedy"], sizes=[8192],
                families=("gnp", "rgg"), repetitions=1)

    def run_pass(self, number, recorder):
        outcome = PassOutcome()

        def call(store):
            sweep = run_sweep(seed=self.seed, keep_runs=False, store=store,
                              progress=recorder, **self.GRID)
            return sweep.rows(), sweep.fits()

        self._sweep(outcome, "sweep", grid_size(**self.GRID), recorder, call,
                    number)
        return outcome


class SocketSmallTasks(Workload):
    name = "socket_small_tasks"
    nominal_pass_s = 2.3
    gap_window = 32
    modules = ("repro.experiments.sweeps", "repro.experiments.store",
               "repro.experiments.backends")
    REPETITIONS = 20
    GRID = dict(algorithms=["luby", "rank_greedy", "vt_mis"],
                sizes=[32, 64, 128], families=("gnp", "rgg", "tree"))

    def start(self):
        self.worker, self.address, self.worker_log, self._drain = (
            spawn_worker(self.src))

    def backend(self) -> ComposedBackend:
        transport = SocketTransport(f"{self.address}*{WORKER_SLOTS}",
                                    window="adaptive", max_batch=8)
        return ComposedBackend(scheduler="cost-model", transport=transport,
                               jobs=WORKER_SLOTS)

    def run_pass(self, number, recorder):
        outcome = PassOutcome()
        backend = self.backend()

        def call(store):
            sweep = run_sweep(seed=self.seed, keep_runs=False, store=store,
                              progress=recorder, backend=backend,
                              repetitions=self.REPETITIONS, **self.GRID)
            return sweep.rows(), sweep.fits()

        self._sweep(outcome, "sweep",
                    grid_size(repetitions=self.REPETITIONS, **self.GRID),
                    recorder, call, number)
        outcome.telemetry = backend.telemetry()
        return outcome

    def serial_rows(self) -> str:
        """The same grid run in-process, for the byte-identity check."""
        sweep = run_sweep(seed=self.seed, keep_runs=False,
                          repetitions=self.REPETITIONS, **self.GRID)
        return json.dumps(sweep.rows(), sort_keys=True)

    def stop(self):
        pid = self.worker.pid
        stop_worker(self.worker, self._drain)
        found = {}
        for line in self.worker_log:
            match = re.search(r"shared graph cache hits=(\d+) misses=(\d+)",
                              line)
            if match:
                found = {"hits": int(match.group(1)),
                         "misses": int(match.group(2))}
        return {"shm_cache": found, "leaked_segments": leaked_segments(pid)}


WORKLOADS = {cls.name: cls for cls in (PaperCongest, LargeGraph,
                                       SocketSmallTasks)}


# --------------------------------------------------------------------------- #
# Local socket worker
# --------------------------------------------------------------------------- #
def spawn_worker(src: Path) -> Tuple[subprocess.Popen, str, List[str],
                                      threading.Thread]:
    """Start ``repro.experiments.worker`` on an ephemeral localhost port.

    The same command ``repro.experiments.worker.spawn_local_worker``
    runs, but the worker's stderr is kept, because the shared graph
    cache's counters only appear in its shutdown line there.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.worker",
         "--listen", "127.0.0.1:0", "--slots", str(WORKER_SLOTS)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, env=env)
    log: List[str] = []
    address = None
    for line in process.stderr:
        log.append(line)
        match = re.search(r"listening on (\S+:\d+)", line)
        if match:
            address = match.group(1)
            break
    if address is None:
        process.kill()
        process.wait()
        raise RuntimeError(f"worker did not announce its port: {log!r}")
    drain = threading.Thread(target=lambda: log.extend(process.stderr),
                             daemon=True)
    drain.start()
    return process, address, log, drain


def stop_worker(process: subprocess.Popen, drain: threading.Thread) -> None:
    """SIGTERM the worker (its orderly shutdown path) and wait for it."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    drain.join(timeout=10)


def leaked_segments(pid: int) -> List[str]:
    """Shared-memory CSR segments the worker *pid* left behind."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    prefix = f"repro-csr-{pid}-"
    return sorted(name for name in names if name.startswith(prefix))
