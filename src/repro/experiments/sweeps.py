"""Parameter sweeps over graph size / family / algorithm.

A sweep runs :func:`repro.experiments.harness.run_mis` over a grid of
``(algorithm, graph family, n, seed)`` combinations and aggregates the
paper-relevant metrics (awake complexity, node-averaged awake complexity,
round complexity, MIS size, verification) per grid cell.  The scaling
experiments E1–E5 and E9 are thin wrappers around these sweeps.

Execution is delegated to :mod:`repro.experiments.executor`: the grid is
expanded into seed-carrying task specs up front, then streamed through one
execution backend object — a scheduler × transport composition that also
carries the worker count (in-process by default; build others with
``ComposedBackend(jobs=...)`` or
:func:`~repro.experiments.backends.make_backend`, e.g. large-first
dispatch over TCP workers) with bit-identical results on every
combination.  Aggregation is **incremental**: each
:class:`SweepCell` folds results into running :class:`MetricAccumulator`
counters as they arrive, so a sweep's memory footprint no longer grows with
the grid size (pass ``keep_runs=True`` — the default for direct callers —
to also retain the raw :class:`MISRunResult` list).

With ``store=`` a :class:`~repro.experiments.store.ResultStore`, every
result is persisted the moment it completes, and ``resume=True`` replays
already-recorded tasks from disk instead of re-running them — an
interrupted ``full``-scale grid continues where it died, with rows and fits
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.fitting import fit_report
from repro.errors import ConfigurationError
from repro.experiments.executor import ProgressCallback, plan_sweep_tasks
from repro.experiments.harness import MISRunResult
from repro.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses sweeps)
    from repro.experiments.backends import Backend
    from repro.experiments.store import ResultStore


@dataclass
class MetricAccumulator:
    """Running count/sum/min/max of one scalar metric.

    Replaces "hold every value, summarise at the end": a cell folds each
    run's value in as it arrives and can produce the same mean/max/min the
    old list-based :func:`repro.analysis.stats.summarize` computed, in O(1)
    memory.  Values are accumulated as floats in fold order, so folding in
    task order reproduces the historical sums bit-for-bit.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the folded values (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


@dataclass
class SweepCell:
    """Aggregated results of all repetitions for one (algorithm, family, n).

    Aggregation is incremental: :meth:`add` folds a run into per-metric
    :class:`MetricAccumulator` counters, so :meth:`row` never needs the raw
    run list.  When *keep_runs* is true (the compatibility default) the
    :class:`MISRunResult` objects are additionally retained in ``runs`` for
    callers that inspect them; streaming consumers (the registry
    experiments, the CLI) pass ``keep_runs=False`` and hold only the
    counters.
    """

    algorithm: str
    family: str
    n: int
    runs: List[MISRunResult] = field(default_factory=list, init=False)
    keep_runs: bool = True
    run_count: int = field(default=0, repr=False)
    verified_all: bool = field(default=True, repr=False)
    awake: MetricAccumulator = field(default_factory=MetricAccumulator,
                                     repr=False)
    rounds: MetricAccumulator = field(default_factory=MetricAccumulator,
                                      repr=False)
    averaged_awake: MetricAccumulator = field(
        default_factory=MetricAccumulator, repr=False)
    mis_size: MetricAccumulator = field(default_factory=MetricAccumulator,
                                        repr=False)

    def add(self, run: MISRunResult) -> None:
        """Fold one run into the cell's accumulators."""
        self.run_count += 1
        self.verified_all = self.verified_all and run.verified
        self.awake.add(run.metrics.awake_complexity)
        self.rounds.add(run.metrics.round_complexity)
        self.averaged_awake.add(run.metrics.node_averaged_awake)
        self.mis_size.add(len(run.mis))
        if self.keep_runs:
            self.runs.append(run)

    def _require_runs(self) -> None:
        if not self.keep_runs and self.run_count:
            raise ConfigurationError(
                "raw runs were dropped (keep_runs=False); per-run values are "
                "unavailable — use the cell's aggregate accumulators "
                "(awake/rounds/averaged_awake/mis_size) or re-run the sweep "
                "with keep_runs=True"
            )

    @property
    def awake_complexities(self) -> List[int]:
        self._require_runs()
        return [r.metrics.awake_complexity for r in self.runs]

    @property
    def round_complexities(self) -> List[int]:
        self._require_runs()
        return [r.metrics.round_complexity for r in self.runs]

    @property
    def all_verified(self) -> bool:
        return self.verified_all

    def row(self) -> Dict[str, Any]:
        """One table row summarising this cell."""
        empty = self.run_count == 0
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "runs": self.run_count,
            "verified": self.all_verified,
            "awake_mean": round(self.awake.mean, 2),
            "awake_max": 0.0 if empty else self.awake.maximum,
            "avg_awake_mean": round(self.averaged_awake.mean, 2),
            "rounds_mean": round(self.rounds.mean, 1),
            "mis_size_mean": round(self.mis_size.mean, 1),
        }


@dataclass
class SweepResult:
    """All cells of one sweep, with helpers for tables and fits."""

    cells: List[SweepCell] = field(default_factory=list)
    #: Pipeline telemetry captured from the execution backend after the
    #: sweep (``ComposedBackend.telemetry()``: per-worker RTT/window/
    #: frame counters plus scheduler requeues), or ``None`` for a
    #: result rebuilt from a store.  Observational only — never part of
    #: rows/fits, and excluded from equality so telemetry can never make
    #: two byte-identical sweeps compare unequal.
    telemetry: Optional[Dict[str, Any]] = field(default=None, repr=False,
                                                compare=False)

    def cell_for(self, algorithm: str, family: str, n: int,
                 keep_runs: bool = True) -> SweepCell:
        """Return (creating on first touch) the cell for one grid point."""
        for cell in self.cells:
            if (cell.algorithm, cell.family, cell.n) == (algorithm, family, n):
                return cell
        cell = SweepCell(algorithm=algorithm, family=family, n=n,
                         keep_runs=keep_runs)
        self.cells.append(cell)
        return cell

    def rows(self) -> List[Dict[str, Any]]:
        """Table rows ordered by (algorithm, family, n)."""
        ordered = sorted(self.cells, key=lambda c: (c.algorithm, c.family, c.n))
        return [cell.row() for cell in ordered]

    def series(self, algorithm: str, family: str,
               metric: str = "awake_max") -> List[tuple]:
        """Return the (n, value) series for one algorithm/family pair."""
        points = []
        for cell in sorted(self.cells, key=lambda c: c.n):
            if cell.algorithm != algorithm or cell.family != family:
                continue
            points.append((cell.n, cell.row()[metric]))
        return points

    def fits(self, metric: str = "awake_max") -> List[Dict[str, Any]]:
        """Best growth-law fit per (algorithm, family) for *metric*."""
        reports = []
        pairs = sorted({(c.algorithm, c.family) for c in self.cells})
        for algorithm, family in pairs:
            series = self.series(algorithm, family, metric)
            if len(series) < 2:
                continue
            ns = [n for n, _ in series]
            values = [v for _, v in series]
            report = {"algorithm": algorithm, "family": family, "metric": metric}
            report.update(fit_report(ns, values))
            reports.append(report)
        return reports

    @property
    def all_verified(self) -> bool:
        return all(cell.all_verified for cell in self.cells)


def _sweep_config(algorithms, sizes, families, repetitions, seed,
                  algorithm_params) -> Dict[str, Any]:
    """Canonical JSON-safe description of a sweep grid (store header)."""
    return {
        "algorithms": list(algorithms),
        "sizes": [int(n) for n in sizes],
        "families": list(families),
        "repetitions": int(repetitions),
        "seed": seed if isinstance(seed, (int, str, type(None))) else repr(seed),
        "algorithm_params": {
            name: dict(sorted(params.items()))
            for name, params in sorted((algorithm_params or {}).items())
        },
    }


def run_sweep(
    algorithms: Sequence[str],
    sizes: Sequence[int],
    families: Sequence[str] = ("gnp",),
    repetitions: int = 3,
    seed: SeedLike = None,
    algorithm_params: Optional[Dict[str, Dict[str, Any]]] = None,
    keep_runs: bool = True,
    store: Optional["ResultStore"] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    backend: Optional["Backend"] = None,
) -> SweepResult:
    """Run the full grid and return a :class:`SweepResult`.

    *algorithm_params* optionally maps algorithm name to extra keyword
    arguments for :func:`~repro.experiments.harness.run_mis` (e.g.
    ``{"awake_mis": {"preset": "scaled"}}``).

    *backend* is where the grid runs: a
    :class:`~repro.experiments.backends.Backend` object such as
    :class:`~repro.experiments.backends.ComposedBackend`, which pairs a
    scheduling policy with a transport and carries the worker count.
    ``None`` runs in-process, as ``ComposedBackend(jobs=1)``.

    *keep_runs* controls whether cells retain the raw
    :class:`MISRunResult` objects besides their running aggregates; pass
    ``False`` for large grids so memory stays flat.

    *store* (a :class:`~repro.experiments.store.ResultStore`) persists
    every result as it completes; with *resume* also true, tasks whose spec hash
    is already recorded are **not** re-executed — their stored compact
    metrics are replayed into the aggregation instead.  *progress* is
    called as ``progress(task, result, done, total)`` before each fresh
    result is stored, so it sees only tasks that actually run.

    Determinism: every task's seeds are derived up front by
    :func:`~repro.experiments.executor.plan_sweep_tasks`, and arrivals are
    folded back into planned-grid order before aggregation, so the returned
    cells, rows and fits are byte-identical for every backend and worker
    count — and for any interleaving of stored and freshly executed
    tasks.
    """
    tasks = plan_sweep_tasks(
        algorithms=algorithms,
        sizes=sizes,
        families=families,
        repetitions=repetitions,
        seed=seed,
        algorithm_params=algorithm_params,
    )

    # index -> byte offset of the stored record, for tasks satisfied from
    # the store.  Offsets, not restored results: each replayed record is
    # re-read only when the fold reaches its grid position, so a resumed
    # sweep's memory stays as flat as a live one.
    replay_offsets: Dict[int, int] = {}
    pending_indices = list(range(len(tasks)))
    if store is not None:
        from repro.experiments.store import task_key

        store.ensure_header(
            _sweep_config(algorithms, sizes, families, repetitions, seed,
                          algorithm_params),
            resume=resume,
        )
        if resume:
            offsets = store.result_offsets()
            pending_indices = []
            for index, task in enumerate(tasks):
                offset = offsets.get(task_key(task))
                if offset is None:
                    pending_indices.append(index)
                else:
                    replay_offsets[index] = offset

    result = SweepResult()
    # Fold strictly in planned-grid order: arrivals (completion-ordered on
    # several workers) wait in a small reorder buffer of compact results
    # until every earlier task has been folded.  This is what keeps float
    # accumulation — and therefore rows and fits — byte-identical across
    # backends, arrival orders and resume.
    buffer: Dict[int, MISRunResult] = {}
    next_index = 0

    def drain() -> None:
        nonlocal next_index
        while True:
            if next_index in replay_offsets:
                run = store.result_at(replay_offsets.pop(next_index))
            elif next_index in buffer:
                run = buffer.pop(next_index)
            else:
                break
            task = tasks[next_index]
            cell = result.cell_for(task.algorithm, task.family, task.n,
                                   keep_runs=keep_runs)
            cell.add(run)
            next_index += 1

    drain()
    if backend is None:
        # Imported at call time, so importing this module does not load
        # the transport layer.
        from repro.experiments.backends import ComposedBackend
        backend = ComposedBackend(jobs=1)
    pending = [tasks[index] for index in pending_indices]
    stream = backend.submit_tasks(pending)
    try:
        for done, (local_index, run) in enumerate(stream, 1):
            task = pending[local_index]
            if progress is not None:
                progress(task, run, done, len(pending))
            global_index = pending_indices[local_index]
            if store is not None:
                store.append(global_index, task, run)
            buffer[global_index] = run
            drain()
    finally:
        # Closing the stream cancels queued work and shuts every worker
        # down — on completion, on a raising callback or store, and when
        # a worker error ends the sweep early.
        stream.close()
    drain()
    # Callers holding only the SweepResult (the CLI's --progress table,
    # library consumers) can see what the transport actually did.
    result.telemetry = backend.telemetry()
    return result
