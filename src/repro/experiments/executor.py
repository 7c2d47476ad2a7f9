"""Parallel sweep executor.

The experiment grid (algorithm × graph family × n × repetition) is the
product surface of the reproduction: every scaling claim in the paper is
measured by sweeping it.  This module decomposes a sweep into independent,
picklable :class:`SweepTask` specs that any execution backend can run.

Design guarantees
-----------------

* **Seeds are derived up front.**  :func:`plan_sweep_tasks` consumes the
  sweep's master RNG in exactly the order the historical serial loop did
  (per ``(family, n)``: first the repetition graph seeds, then one run seed
  per ``(algorithm, graph)``), so the task list — and therefore every result
  — is a pure function of the sweep arguments.  Execution order can then be
  arbitrary: parallel results are cell-for-cell identical to serial ones.
* **Workers regenerate graphs locally.**  A task carries ``(family, n,
  graph_seed)`` instead of a graph object; the worker rebuilds the graph
  from the deterministic generator registry as flat CSR arrays
  (:func:`repro.graphs.generators.build_csr`), so nothing graph-sized ever
  crosses a process boundary in either direction, and serial, pool and
  slot processes all simulate on the same zero-copy CSR arrays.
* **Results ship compact.**  Workers run :func:`repro.experiments.harness
  .run_mis` with ``collect_raw=False`` so each result carries scalar
  :class:`~repro.sim.metrics.CompactRunMetrics` rather than per-node
  counter lists.

*Where* and *in what order* tasks execute is delegated to one execution
backend object (:mod:`repro.experiments.backends`): a **scheduler**
(:mod:`repro.experiments.schedulers` — ``fifo``, ``large-first`` or
``cost-model`` ordering, retry/requeue, crash-loop accounting) composed
with a **transport** (:mod:`repro.experiments.transports` — ``inline``,
a ``process`` pool, or ``socket`` workers on any host).  The backend also
carries the worker count (``ComposedBackend(jobs=...)``); with no
transport given, one job runs inline in-process, which keeps single-run
debugging, tracebacks and profiling simple.  Every composition consumes
the same up-front-seeded task specs, so they are interchangeable without
affecting a single result byte.  :func:`repro.experiments.sweeps
.run_sweep` streams a backend's ``(index, result)`` pairs as workers
finish, so grids too large to hold every result in memory aggregate and
persist incrementally (see :mod:`repro.experiments.store`).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, UnknownFamilyError
from repro.experiments.harness import MISRunResult, run_mis
# by_name stays importable from here: perfbench/spans.py wraps
# ``executor.by_name`` when it traces a run.
from repro.graphs.generators import build_csr, by_name  # noqa: F401
from repro.rng import SeedLike, make_rng

#: Upper bound for derived seeds (matches the serial sweep's historical
#: ``rng.randrange(2**63)`` draws).
_SEED_SPACE = 2**63


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work: one algorithm run on one graph.

    The task is self-contained: the worker regenerates the graph from
    ``(family, n, graph_seed)`` and runs ``algorithm`` under ``run_seed``.
    ``params`` holds algorithm-specific keyword arguments as a sorted tuple
    of ``(key, value)`` pairs so the spec stays hashable and picklable.
    """

    algorithm: str
    family: str
    n: int
    graph_seed: int
    run_seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def cell_key(self) -> Tuple[str, str, int]:
        """Grid cell this task belongs to: ``(algorithm, family, n)``."""
        return (self.algorithm, self.family, self.n)

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe dict round-trippable via :meth:`from_json`.

        Shared by the on-disk results store and the socket worker
        protocol, so a task spec means exactly the same thing on disk, on
        the wire and in memory.
        """
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "graph_seed": self.graph_seed,
            "run_seed": self.run_seed,
            "params": [[key, value] for key, value in self.params],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SweepTask":
        """Inverse of :meth:`to_json`."""
        return cls(
            algorithm=data["algorithm"],
            family=data["family"],
            n=int(data["n"]),
            graph_seed=int(data["graph_seed"]),
            run_seed=int(data["run_seed"]),
            params=tuple((key, value) for key, value in data["params"]),
        )


def plan_sweep_tasks(
    algorithms: Sequence[str],
    sizes: Sequence[int],
    families: Sequence[str] = ("gnp",),
    repetitions: int = 3,
    seed: SeedLike = None,
    algorithm_params: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[SweepTask]:
    """Expand a sweep grid into an ordered list of :class:`SweepTask`.

    Every seed any task will ever use is drawn from the master RNG here, in
    the fixed grid order (family → n → graph seeds → algorithm → run seeds).
    Nothing downstream touches the master RNG, which is what makes parallel
    execution bit-identical to serial execution.

    Families, algorithms and their params are validated eagerly: a typo
    must fail here, before a sweep touches its results store — a header
    stamped for an unrunnable grid would poison the store file.
    """
    from repro.experiments.harness import available_algorithms, check_params
    from repro.graphs.generators import FAMILIES

    for family in families:
        if family not in FAMILIES:
            raise UnknownFamilyError(
                f"unknown graph family '{family}'; known: {sorted(FAMILIES)}"
            )
    algorithm_params = algorithm_params or {}
    for algorithm in algorithms:
        if algorithm not in available_algorithms():
            raise ConfigurationError(
                f"unknown algorithm '{algorithm}'; available: "
                f"{available_algorithms()}"
            )
        check_params(algorithm, algorithm_params.get(algorithm, ()),
                     also=TASK_RUN_OPTIONS)
    rng = make_rng(seed)
    tasks: List[SweepTask] = []
    for family in families:
        for n in sizes:
            graph_seeds = [rng.randrange(_SEED_SPACE) for _ in range(repetitions)]
            for algorithm in algorithms:
                params = tuple(sorted(algorithm_params.get(algorithm, {}).items()))
                for graph_seed in graph_seeds:
                    tasks.append(
                        SweepTask(
                            algorithm=algorithm,
                            family=family,
                            n=n,
                            graph_seed=graph_seed,
                            run_seed=rng.randrange(_SEED_SPACE),
                            params=params,
                        )
                    )
    return tasks


#: Environment knob for the worker-local graph cache size.  A grid with
#: more than this many distinct ``(family, n, graph_seed)`` combos thrashes
#: (every graph rebuilt once per algorithm) — raise it for wide grids, or
#: set ``0`` to disable caching entirely.  Invalid values fall back to the
#: default with a warning on stderr.
GRAPH_CACHE_ENV = "REPRO_GRAPH_CACHE"
_GRAPH_CACHE_DEFAULT = 32

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _resolve_graph_cache_size() -> int:
    raw = os.environ.get(GRAPH_CACHE_ENV)
    if raw is None or not raw.strip():
        return _GRAPH_CACHE_DEFAULT
    try:
        size = int(raw)
    except ValueError:
        size = -1
    if size < 0:
        print(f"warning: ignoring invalid {GRAPH_CACHE_ENV}={raw!r} "
              f"(want a non-negative integer); using "
              f"{_GRAPH_CACHE_DEFAULT}", file=sys.stderr)
        return _GRAPH_CACHE_DEFAULT
    return size


class _GraphCache:
    """Worker-local graph cache (an ``lru_cache`` with observable knobs).

    A sweep runs every algorithm on the same repetition graphs, so
    consecutive tasks in a worker's chunk usually share ``(family, n,
    graph_seed)``; caching avoids regenerating the graph once per
    algorithm.  Generators are deterministic, so cached and regenerated
    graphs are identical.  Every entry is a read-only
    :class:`repro.graphs.csr.CSRGraphView`: a miss builds the CSR arrays
    with :func:`repro.graphs.generators.build_csr` (or attaches a shared
    segment holding the same arrays), never a networkx graph.

    Cache contract — **cached graphs are read-only**.  Every consumer of
    :func:`run_task` may receive the same graph object as every other
    consumer in the process, and a multi-slot socket worker
    (``repro-mis worker serve --slots N``) shares each ``(family, n,
    graph_seed)`` graph across its slot subprocesses through the serving
    process's shared-memory CSR segments (see
    :mod:`repro.experiments.shm_cache`), which land here via
    :func:`set_shared_graph_source`.  Algorithm adapters must
    therefore never mutate the graph they are handed (pinned by
    ``tests/test_executor.py::TestGraphCacheLifecycle``); anything
    needing scratch state copies it out first.  Lookups are
    lock-protected; concurrent misses may build the same graph twice, but
    both builds are identical and one simply wins the cache slot.

    Differences from the old hard-coded ``lru_cache(maxsize=32)``:

    - the capacity reads ``REPRO_GRAPH_CACHE`` (default 32, re-read on
      every :meth:`cache_clear`), so wide grids no longer thrash silently;
    - eviction count is tracked and surfaced through backend telemetry
      (``SweepResult.telemetry["graph_cache"]``) alongside hits/misses;
    - a *shared source* hook lets worker slot processes fetch CSR arrays
      from the serving process's shared-memory cache instead of
      regenerating (counted under ``shared_hits``; still a local "miss").

    The ``cache_info()`` / ``cache_clear()`` surface matches
    ``functools.lru_cache`` (pinned by ``TestGraphCacheLifecycle``), and
    like functools, ``cache_clear`` resets the counters.

    Lifecycle: the coordinator clears its copy after every sweep, and each
    pool worker starts from an empty cache (``initializer=
    _reset_worker_graph_cache``).  Without the initializer, fork-started
    workers inherit whatever graphs a previous in-process sweep left pinned
    in the coordinator, keeping stale graphs alive per worker.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int, int], Any]" = OrderedDict()
        self._maxsize = _resolve_graph_cache_size()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._shared_hits = 0

    def __call__(self, family: str, n: int, graph_seed: int):
        key = (family, n, graph_seed)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
        source = _shared_graph_source
        graph = source(family, n, graph_seed) if source is not None else None
        shared = graph is not None
        if graph is None:
            graph = build_csr(family, n, seed=graph_seed).view()
        with self._lock:
            self._misses += 1
            if shared:
                self._shared_hits += 1
            if self._maxsize > 0:
                self._entries[key] = graph
                self._entries.move_to_end(key)
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return graph

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._maxsize,
                              len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0
            self._evictions = self._shared_hits = 0
            self._maxsize = _resolve_graph_cache_size()

    def stats(self) -> Dict[str, int]:
        """Counters for the telemetry path (superset of ``cache_info``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "shared_hits": self._shared_hits,
                "maxsize": self._maxsize,
                "currsize": len(self._entries),
            }


#: Optional hook consulted on every local cache miss before regenerating:
#: ``source(family, n, graph_seed)`` returns a graph-like object or ``None``.
#: Worker slot processes install a fetcher that attaches the serving
#: process's shared-memory CSR segment for the key.
_shared_graph_source: Optional[Callable[[str, int, int], Any]] = None


def set_shared_graph_source(
        source: Optional[Callable[[str, int, int], Any]]) -> None:
    """Install (or clear, with ``None``) the shared graph source hook."""
    global _shared_graph_source
    _shared_graph_source = source


_build_graph = _GraphCache()


def graph_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters of this process's graph cache."""
    return _build_graph.stats()


def _reset_worker_graph_cache() -> None:
    """Pool-worker initializer: drop any fork-inherited graph cache entries."""
    _build_graph.cache_clear()


#: The :func:`~repro.experiments.harness.run_mis` options a task's params
#: may set besides its algorithm's keys (:func:`run_task` fixes the rest).
TASK_RUN_OPTIONS = frozenset({"verify", "enforce_congest"})


def run_task(task: SweepTask) -> MISRunResult:
    """Execute one :class:`SweepTask` (this is the worker entry point).

    Regenerates the graph locally from the task's seeds and returns a
    compact :class:`MISRunResult` cheap enough to pickle back.
    """
    graph = _build_graph(task.family, task.n, task.graph_seed)
    return run_mis(
        graph,
        algorithm=task.algorithm,
        seed=task.run_seed,
        collect_raw=False,
        **dict(task.params),
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean "one worker per CPU"; positive integers are
    taken literally; anything else is rejected.
    """
    if jobs is not None and (not isinstance(jobs, int)
                             or isinstance(jobs, bool) or jobs < 0):
        raise ConfigurationError(
            f"invalid jobs value {jobs!r}: accepted forms are a positive int "
            "(that many worker processes, 1 = in-process), 0 or None "
            "(one worker per CPU)"
        )
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return jobs


#: Progress callback signature: ``(task, result, done, total)`` where *done*
#: counts completed executions (1-based) and *total* is the task count.
ProgressCallback = Callable[[SweepTask, MISRunResult, int, int], None]
