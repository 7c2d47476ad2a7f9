"""Single-run experiment harness.

:func:`run_mis` is the main entry point used by the examples, the CLI, the
benchmarks and most integration tests: it runs one MIS algorithm on one graph
under one seed, verifies the output, and packages the paper-relevant metrics
into an :class:`MISRunResult`.

Algorithms are registered by name in :data:`ALGORITHMS`; registration values
are small adapter callables so that importing the harness stays cheap and the
set of available algorithms is discoverable programmatically
(:func:`available_algorithms`).
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple, Union)

import networkx as nx

from repro.core.mis import is_independent_set, is_maximal_independent_set
from repro.errors import ConfigurationError
from repro.graphs.csr import csr_view
from repro.rng import SeedLike, make_rng
from repro.sim.metrics import CompactRunMetrics, RunMetrics
from repro.sim.runner import RunResult, run_protocol


@dataclass
class MISRunResult:
    """Outcome of one algorithm run on one graph.

    ``metrics`` is a full :class:`~repro.sim.metrics.RunMetrics` by default;
    runs executed with ``collect_raw=False`` (the parallel sweep workers)
    carry the scalar :class:`~repro.sim.metrics.CompactRunMetrics` instead —
    both expose the same aggregate attributes, so every consumer of
    :meth:`summary` and the sweep layer works with either form.
    """

    algorithm: str
    graph_nodes: int
    graph_edges: int
    mis: Set
    verified: bool
    independent: bool
    maximal: bool
    metrics: Union[RunMetrics, CompactRunMetrics]
    wall_time_seconds: float
    seed: Optional[int] = None
    parameters: Dict[str, Any] = field(default_factory=dict)
    raw: Optional[RunResult] = None

    def compact(self) -> "MISRunResult":
        """Return a copy with scalar metrics and no raw simulation payload.

        Used to keep results small (and cheap to pickle) before shipping
        them from a worker process back to the sweep coordinator.
        """
        metrics = self.metrics
        if isinstance(metrics, RunMetrics):
            metrics = metrics.compact()
        return replace(self, metrics=metrics, parameters=dict(self.parameters),
                       raw=None)

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe dict for the on-disk results store.

        The record always carries compact metrics (per-node counters and the
        raw payload never hit disk); :meth:`from_record` restores an
        equivalent compacted :class:`MISRunResult`.  ``node_averaged_awake``
        and friends survive at full float precision, which is what lets a
        resumed sweep re-aggregate to byte-identical rows.
        """
        compacted = self.compact()
        return {
            "algorithm": compacted.algorithm,
            "graph_nodes": compacted.graph_nodes,
            "graph_edges": compacted.graph_edges,
            "mis": sorted(compacted.mis),
            "verified": compacted.verified,
            "independent": compacted.independent,
            "maximal": compacted.maximal,
            "metrics": compacted.metrics.to_json_dict(),
            "wall_time_seconds": compacted.wall_time_seconds,
            "seed": compacted.seed,
            "parameters": dict(compacted.parameters),
        }

    @classmethod
    def from_record(cls, data: Dict[str, Any]) -> "MISRunResult":
        """Inverse of :meth:`to_record` (metrics come back compact)."""
        return cls(
            algorithm=data["algorithm"],
            graph_nodes=int(data["graph_nodes"]),
            graph_edges=int(data["graph_edges"]),
            mis=set(data["mis"]),
            verified=bool(data["verified"]),
            independent=bool(data["independent"]),
            maximal=bool(data["maximal"]),
            metrics=CompactRunMetrics.from_json_dict(data["metrics"]),
            wall_time_seconds=float(data["wall_time_seconds"]),
            seed=data["seed"],
            parameters=dict(data["parameters"]),
            raw=None,
        )

    def summary(self) -> Dict[str, Any]:
        """Flat dictionary used by tables, sweeps and the CLI."""
        data = {
            "algorithm": self.algorithm,
            "n": self.graph_nodes,
            "m": self.graph_edges,
            "mis_size": len(self.mis),
            "verified": self.verified,
            "awake_complexity": self.metrics.awake_complexity,
            "node_averaged_awake": round(self.metrics.node_averaged_awake, 3),
            "round_complexity": self.metrics.round_complexity,
            "total_messages": self.metrics.total_messages,
            "max_message_bits": self.metrics.max_message_bits,
            "wall_time_s": round(self.wall_time_seconds, 4),
        }
        return data


# --------------------------------------------------------------------------- #
# Algorithm adapters
# --------------------------------------------------------------------------- #
AlgorithmAdapter = Callable[..., RunResult]


def _id_inputs(graph: nx.Graph, seed: SeedLike, id_bound: Optional[int],
               local_inputs: Optional[Dict]) -> Tuple[int, Dict]:
    """The ``(id_bound, local_inputs)`` an ID-based algorithm runs with.

    Unless the caller passes ``local_inputs``, each node gets a unique
    random ID (a random permutation of [1, n]), which needs ``id_bound``
    to be at least n.
    """
    n = graph.number_of_nodes()
    if id_bound is None:
        id_bound = max(1, n)
    if local_inputs is None:
        if id_bound < n:
            raise ConfigurationError(
                f"id_bound={id_bound} is below the node count {n}: the "
                "harness numbers nodes 1..n, so id_bound must be >= n")
        rng = make_rng(seed)
        labels = list(graph.nodes)
        rng.shuffle(labels)
        local_inputs = {label: {"id": position}
                        for position, label in enumerate(labels, 1)}
    return id_bound, local_inputs


def _protocol(path: str):
    """The protocol factory at *path* (``module:name``), imported on first
    use so that importing the harness stays cheap."""
    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


def _id_adapter(path: str) -> AlgorithmAdapter:
    """The adapter of an ID-based protocol (``vt_mis``, ``naive_greedy``)."""
    def adapter(graph: nx.Graph, seed: SeedLike, *,
                id_bound: Optional[int] = None,
                local_inputs: Optional[Dict] = None,
                **run: Any) -> RunResult:
        id_bound, local_inputs = _id_inputs(graph, seed, id_bound,
                                            local_inputs)
        return run_protocol(graph, _protocol(path),
                            inputs={"id_bound": id_bound},
                            local_inputs=local_inputs, seed=seed, **run)
    return adapter


def _iterations_adapter(path: str) -> AlgorithmAdapter:
    """The adapter of a local-minimum protocol (``luby``, ``rank_greedy``)."""
    def adapter(graph: nx.Graph, seed: SeedLike, *,
                max_iterations: int = 4096, **run: Any) -> RunResult:
        return run_protocol(graph, _protocol(path),
                            inputs={"max_iterations": max_iterations},
                            seed=seed, **run)
    return adapter


def _run_ldt_mis(graph: nx.Graph, seed: SeedLike, *,
                 n_bound: Optional[int] = None,
                 id_space: Optional[int] = None,
                 max_active_rounds: int = 10_000_000,
                 **run: Any) -> RunResult:
    from repro.algorithms.ldt_mis import run_ldt_mis

    return run_ldt_mis(graph, seed=seed, n_bound=n_bound, id_space=id_space,
                       max_active_rounds=max_active_rounds, **run)


def _run_awake_mis(graph: nx.Graph, seed: SeedLike, *,
                   preset: str = "scaled",
                   params: Any = None,
                   max_active_rounds: int = 20_000_000,
                   **run: Any) -> RunResult:
    from repro.algorithms.awake_mis import run_awake_mis

    return run_awake_mis(graph, seed=seed, preset=preset, params=params,
                         max_active_rounds=max_active_rounds, **run)


#: Registry of available algorithms: name -> adapter.
ALGORITHMS: Dict[str, AlgorithmAdapter] = {
    "vt_mis": _id_adapter("repro.algorithms.vt_mis:vt_mis_protocol"),
    "naive_greedy": _id_adapter(
        "repro.algorithms.naive_greedy:naive_greedy_protocol"),
    "luby": _iterations_adapter("repro.algorithms.luby:luby_protocol"),
    "rank_greedy": _iterations_adapter(
        "repro.algorithms.rank_greedy:rank_greedy_protocol"),
    "ldt_mis": _run_ldt_mis,
    "awake_mis": _run_awake_mis,
}

#: The run-level keys every adapter takes in ``**run`` and forwards to the
#: simulator.
RUN_KEYS = frozenset({"message_bit_limit", "trace", "vectorized"})

#: The keyword parameters each algorithm accepts: its adapter's own, read
#: once from its signature, and :data:`RUN_KEYS`.
ALGORITHM_PARAMS: Dict[str, FrozenSet[str]] = {
    name: RUN_KEYS | {
        parameter.name
        for parameter in inspect.signature(adapter).parameters.values()
        if parameter.kind is parameter.KEYWORD_ONLY}
    for name, adapter in ALGORITHMS.items()
}


def check_params(algorithm: str, keys: Iterable[str],
                 also: FrozenSet[str] = frozenset()) -> None:
    """Refuse any of *keys* that *algorithm*'s adapter (or *also*) does
    not accept, naming it and the accepted keys."""
    accepted = ALGORITHM_PARAMS[algorithm] | also
    unknown = sorted(set(keys) - accepted)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} for algorithm {algorithm!r}; "
            f"accepted: {', '.join(sorted(accepted))}")


def available_algorithms() -> List[str]:
    """Return the names accepted by :func:`run_mis`."""
    return sorted(ALGORITHMS)


def default_message_bit_limit(n: int) -> int:
    """CONGEST budget used by default: ``64 * ceil(log2(n + 2))`` bits.

    The model allows O(log n)-bit messages; the constant 64 accommodates the
    small tuples of IDs/counters the protocols exchange while still scaling
    logarithmically, so a protocol that needed polynomially many bits (the
    LOCAL-only algorithms the paper cites) would be rejected.
    """
    return 64 * max(1, math.ceil(math.log2(n + 2)))


def run_mis(
    graph: nx.Graph,
    algorithm: str = "awake_mis",
    seed: SeedLike = None,
    verify: bool = True,
    enforce_congest: bool = True,
    keep_raw: bool = False,
    collect_raw: bool = True,
    **params: Any,
) -> MISRunResult:
    """Run *algorithm* on *graph* and return a verified :class:`MISRunResult`.

    Parameters
    ----------
    graph:
        Any simple undirected graph: a networkx graph, converted to CSR
        arrays once here, or a CSR graph or view.
    algorithm:
        One of :func:`available_algorithms`.
    seed:
        Master seed controlling every random choice of the run.
    verify:
        When True (default) the output set is checked for independence and
        maximality; the result records the outcome in ``verified``.
    enforce_congest:
        When True (default) the simulator enforces the CONGEST message-size
        budget of :func:`default_message_bit_limit`, estimating every
        message's size.  Passing False lifts the bit limit: sizes are then
        never estimated (``max_message_bits`` reads ``None``).  Either way,
        algorithms that opt in take a numpy engine, which meters CONGEST
        itself: ``luby`` and ``rank_greedy`` the whole-round engine,
        ``vt_mis`` and ``awake_mis`` their schedule engines.  The
        ``vectorized`` switch (on by default) is forwarded to
        :func:`repro.sim.runner.run_protocol`; ``vectorized=False`` or
        ``trace=True`` runs the generator loop.  Engines fill counters,
        the simulator judges them against its safety valves once, and
        only the generator loop raises.  Engine choice never
        changes outputs, awake/round/message counts or bit counts, only
        wall-clock.
    keep_raw:
        When True the full :class:`repro.sim.runner.RunResult` (including the
        per-node outputs) is attached as ``raw``.
    collect_raw:
        When False the result is compacted: per-node metric counters are
        collapsed into a :class:`~repro.sim.metrics.CompactRunMetrics` and no
        raw payload is kept, so the result stays small enough to ship across
        process boundaries.  The parallel sweep executor runs in this mode.
    params:
        Keyword parameters forwarded to the adapter: the algorithm's own
        (``ALGORITHM_PARAMS[algorithm]``) and the run-level
        ``message_bit_limit``, ``trace`` and ``vectorized``.  Any other
        key is a :class:`ConfigurationError`.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm '{algorithm}'; available: {available_algorithms()}"
        )
    check_params(algorithm, params)
    # One conversion: the adapter and both verifiers share these arrays.
    graph = csr_view(graph)
    if graph.number_of_nodes() == 0:
        raise ConfigurationError("cannot run an MIS algorithm on an empty graph")
    if keep_raw and not collect_raw:
        raise ConfigurationError(
            "keep_raw=True requires collect_raw=True; a compacted result "
            "cannot carry the raw simulation payload"
        )

    if enforce_congest and "message_bit_limit" not in params:
        params["message_bit_limit"] = default_message_bit_limit(
            graph.number_of_nodes()
        )

    from repro.algorithms.common import mis_from_result

    started = time.perf_counter()
    raw = ALGORITHMS[algorithm](graph, seed, **params)
    elapsed = time.perf_counter() - started

    mis = mis_from_result(raw)
    independent = maximal = True
    if verify:
        independent = is_independent_set(graph, mis)
        maximal = is_maximal_independent_set(graph, mis)

    result = MISRunResult(
        algorithm=algorithm,
        graph_nodes=graph.number_of_nodes(),
        graph_edges=graph.number_of_edges(),
        mis=mis,
        verified=independent and maximal,
        independent=independent,
        maximal=maximal,
        metrics=raw.metrics,
        wall_time_seconds=elapsed,
        seed=seed if isinstance(seed, int) else None,
        parameters={k: v for k, v in params.items() if k != "local_inputs"},
        raw=raw if keep_raw else None,
    )
    return result if collect_raw else result.compact()
