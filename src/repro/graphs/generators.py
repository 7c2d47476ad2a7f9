"""Workload graph generators.

Every family is fully determined by its ``seed`` argument and comes in two
forms with the same nodes ``0 .. n-1`` and the same edges:

- a simple undirected :class:`networkx.Graph` (the ``*_graph`` functions,
  :data:`FAMILIES` and :func:`by_name`), and
- flat CSR arrays (:func:`build_csr`), which is what the sweep executor's
  graph caches hold and the simulator runs on.

The two hot families — Erdős–Rényi ``gnp`` and random geometric ``rgg`` —
are generated as numpy edge arrays (:func:`gnp_edge_arrays`,
:func:`random_geometric_arrays`) that replay networkx's own generators
draw for draw, so ``build_csr`` lands them in CSR without ever building a
networkx graph, and their networkx form is built from the same arrays.  The
other families still come from networkx builders and are converted once.

The families cover the settings the paper's introduction and related-work
sections discuss: general graphs (Erdős–Rényi), battery-powered wireless /
sensor networks (random geometric graphs), bounded-degree and regular
topologies, trees, and a few adversarial shapes used in tests.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import UnknownFamilyError
from repro.graphs.csr import CSRGraph
from repro.rng import SeedLike, make_rng, replay_stream

#: Most doubles the gnp builder draws in one block (8 MiB of float64), so
#: generation memory stays flat however large ``n`` grows.
GNP_DRAW_BLOCK = 1 << 20


def _normalize(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0..n-1`` and drop self-loops / parallel edges."""
    graph = nx.Graph(graph)
    graph.remove_edges_from(nx.selfloop_edges(graph))
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def empty_graph(n: int) -> nx.Graph:
    """Return ``n`` isolated nodes (every node is in any MIS)."""
    graph = nx.empty_graph(n)
    return _normalize(graph)


def path_graph(n: int) -> nx.Graph:
    """Return the path on ``n`` nodes (diameter ``n - 1``)."""
    return _normalize(nx.path_graph(n))


def cycle_graph(n: int) -> nx.Graph:
    """Return the cycle on ``n`` nodes."""
    return _normalize(nx.cycle_graph(n))


def complete_graph(n: int) -> nx.Graph:
    """Return the clique on ``n`` nodes (any MIS is a single node)."""
    return _normalize(nx.complete_graph(n))


def star_graph(n: int) -> nx.Graph:
    """Return a star with one hub and ``n - 1`` leaves."""
    if n < 1:
        raise ValueError("star graph needs at least 1 node")
    return _normalize(nx.star_graph(n - 1))


def complete_bipartite_graph(a: int, b: int) -> nx.Graph:
    """Return ``K_{a,b}`` (the two sides are the only two MISs)."""
    return _normalize(nx.complete_bipartite_graph(a, b))


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """Return the ``rows x cols`` grid."""
    return _normalize(nx.grid_2d_graph(rows, cols))


def random_tree(n: int, seed: SeedLike = None) -> nx.Graph:
    """Return a uniformly random labelled tree on ``n`` nodes."""
    rng = make_rng(seed)
    if n <= 0:
        raise ValueError("tree needs at least 1 node")
    if n <= 2:
        return path_graph(n)
    # Random Prüfer sequence.
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    graph = nx.from_prufer_sequence(sequence)
    return _normalize(graph)


def binary_tree(depth: int) -> nx.Graph:
    """Return the complete binary tree of the given *depth*."""
    return _normalize(nx.balanced_tree(2, depth))


def _graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> nx.Graph:
    """Nodes ``0..n-1`` plus the edges ``(u[i], v[i])`` in array order."""
    graph = nx.empty_graph(n)
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    return graph


def _no_edges() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def gnp_edge_arrays(n: int, p: Optional[float] = None, seed: SeedLike = None,
                    expected_degree: Optional[float] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Edge arrays ``(u, v)`` of the :func:`gnp_graph` with these arguments.

    Replays ``nx.gnp_random_graph(n, p, seed=s)`` exactly, with ``s`` drawn
    from *seed* as :func:`gnp_graph` always has: networkx tests the pairs
    of ``combinations(range(n), 2)`` in order, keeping a pair when its
    ``random()`` draw is below ``p``.  Here the same draws come from
    :func:`repro.rng.replay_stream` in blocks of at most
    :data:`GNP_DRAW_BLOCK`, and each kept pair's linear index maps back to
    ``(u, v)``, so the edges come out in networkx's insertion order
    (``u < v``, lexicographic).
    """
    if (p is None) == (expected_degree is None):
        raise ValueError("provide exactly one of p / expected_degree")
    if p is None:
        p = min(1.0, expected_degree / max(1, n - 1))
    stream_seed = make_rng(seed).randrange(2**31)
    if p >= 1:
        u, v = np.triu_indices(n, k=1)
        return u.astype(np.int64), v.astype(np.int64)
    pairs = n * (n - 1) // 2
    if p <= 0 or pairs == 0:
        return _no_edges()
    stream = replay_stream(stream_seed)
    block = np.empty(min(pairs, GNP_DRAW_BLOCK))
    kept = []
    for start in range(0, pairs, GNP_DRAW_BLOCK):
        draws = block[:min(GNP_DRAW_BLOCK, pairs - start)]
        stream.random(out=draws)
        kept.append(np.flatnonzero(draws < p) + start)
    index = np.concatenate(kept)
    # Row u of combinations(range(n), 2) holds (u, u+1) .. (u, n-1) and
    # starts at linear index u * (2n - u - 1) / 2.
    rows = np.arange(n - 1, dtype=np.int64)
    row_starts = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(row_starts, index, side="right") - 1
    return u, index - row_starts[u] + u + 1


def gnp_graph(n: int, p: Optional[float] = None, seed: SeedLike = None,
              expected_degree: Optional[float] = None) -> nx.Graph:
    """Return an Erdős–Rényi ``G(n, p)`` graph.

    Exactly one of *p* and *expected_degree* must be provided; the latter sets
    ``p = expected_degree / (n - 1)``.
    """
    return _graph_from_edges(
        n, *gnp_edge_arrays(n, p, seed=seed, expected_degree=expected_degree))


def random_geometric_arrays(n: int, radius: Optional[float] = None,
                            seed: SeedLike = None,
                            expected_degree: float = 8.0
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and edge arrays ``(positions, u, v)`` of the
    :func:`random_geometric` graph with these arguments.

    Replays ``nx.random_geometric_graph(n, radius, seed=s)``: node ``i``
    sits at ``positions[i]``, its two ``random()`` draws in node order, and
    ``u < v`` are joined when ``dx*dx + dy*dy <= radius*radius`` — the
    KD-tree predicate networkx's edges came from.  Only pairs in the same
    or adjacent cells of a grid whose cells are wider than the radius are
    tested, and the edges come out sorted, as networkx adds them.
    """
    if radius is None:
        radius = math.sqrt(expected_degree / (math.pi * max(1, n - 1)))
    stream_seed = make_rng(seed).randrange(2**31)
    positions = replay_stream(stream_seed).random(2 * n).reshape(n, 2)
    if n < 2:
        return (positions, *_no_edges())
    # Cells stay a little wider than the radius (0.999), so rounding in
    # ``x * cells`` can never put a whole cell between two close nodes;
    # beyond ~sqrt(n) cells a side, finer grids only add empty cells.
    reach = abs(radius)
    limit = math.isqrt(n) + 1
    cells = limit if reach == 0 else max(1, int(min(0.999 / reach, limit)))
    column = np.minimum((positions[:, 0] * cells).astype(np.int64), cells - 1)
    row = np.minimum((positions[:, 1] * cells).astype(np.int64), cells - 1)
    cell = row * cells + column
    members = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=cells * cells)
    cell_starts = np.cumsum(counts) - counts
    nodes = np.arange(n, dtype=np.int64)
    sources, targets = [], []
    for d_row in (-1, 0, 1):
        for d_column in (-1, 0, 1):
            near_row, near_column = row + d_row, column + d_column
            inside = ((near_row >= 0) & (near_row < cells)
                      & (near_column >= 0) & (near_column < cells))
            near = (near_row * cells + near_column)[inside]
            sizes = counts[near]
            total = int(sizes.sum())
            # Each source pairs with every member of its neighbour cell:
            # member k of a cell sits at members[cell_starts[cell] + k].
            ramp = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes,
                                                sizes)
            sources.append(np.repeat(nodes[inside], sizes))
            targets.append(members[np.repeat(cell_starts[near], sizes) + ramp])
    u = np.concatenate(sources)
    v = np.concatenate(targets)
    forward = u < v
    u, v = u[forward], v[forward]
    dx = positions[u, 0] - positions[v, 0]
    dy = positions[u, 1] - positions[v, 1]
    close = dx * dx + dy * dy <= radius * radius
    u, v = u[close], v[close]
    order = np.argsort(u * n + v)
    return positions, u[order], v[order]


def random_geometric(n: int, radius: Optional[float] = None,
                     seed: SeedLike = None,
                     expected_degree: float = 8.0) -> nx.Graph:
    """Return a random geometric graph on the unit square.

    This is the classic model of a wireless sensor network — the motivating
    setting for the sleeping model.  When *radius* is omitted it is chosen so
    that the expected degree is roughly *expected_degree*.  Every node
    carries its coordinates as the ``"pos"`` attribute.
    """
    positions, u, v = random_geometric_arrays(
        n, radius, seed=seed, expected_degree=expected_degree)
    graph = _graph_from_edges(n, u, v)
    nx.set_node_attributes(graph, dict(enumerate(positions.tolist())), "pos")
    return graph


def random_regular(n: int, degree: int, seed: SeedLike = None) -> nx.Graph:
    """Return a random *degree*-regular graph (``n * degree`` must be even)."""
    rng = make_rng(seed)
    graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
    return _normalize(graph)


def barabasi_albert(n: int, attachments: int = 3, seed: SeedLike = None) -> nx.Graph:
    """Return a Barabási–Albert preferential-attachment (power-law) graph."""
    rng = make_rng(seed)
    graph = nx.barabasi_albert_graph(n, attachments, seed=rng.randrange(2**31))
    return _normalize(graph)


def caveman(cliques: int, clique_size: int, rewire: float = 0.1,
            seed: SeedLike = None) -> nx.Graph:
    """Return a relaxed-caveman graph: dense clusters with sparse rewiring."""
    rng = make_rng(seed)
    graph = nx.relaxed_caveman_graph(cliques, clique_size, rewire,
                                     seed=rng.randrange(2**31))
    return _normalize(graph)


def bounded_degree_graph(n: int, max_degree: int, seed: SeedLike = None) -> nx.Graph:
    """Return a random graph whose maximum degree is at most *max_degree*.

    Built by sampling random candidate edges and keeping those that do not
    violate the degree cap; used by the Lemma 3 shattering experiments, which
    are parameterised by the maximum degree Δ.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rng = make_rng(seed)
    graph = nx.empty_graph(n)
    degrees = {v: 0 for v in range(n)}
    attempts = 4 * n * max(1, max_degree)
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.has_edge(u, v):
            continue
        if degrees[u] >= max_degree or degrees[v] >= max_degree:
            continue
        graph.add_edge(u, v)
        degrees[u] += 1
        degrees[v] += 1
    return _normalize(graph)


#: Families generated straight into edge arrays: ``build_csr`` turns them
#: into CSR without building a networkx graph.
EDGE_FAMILIES = {
    "gnp": lambda n, seed=None: gnp_edge_arrays(
        n, expected_degree=8.0, seed=seed),
    "gnp_dense": lambda n, seed=None: gnp_edge_arrays(
        n, expected_degree=32.0, seed=seed),
    "rgg": lambda n, seed=None: random_geometric_arrays(n, seed=seed)[1:],
}

#: Registry of named graph families used by the CLI and the sweep harness.
FAMILIES = {
    "gnp": lambda n, seed=None: _graph_from_edges(
        n, *EDGE_FAMILIES["gnp"](n, seed=seed)),
    "gnp_dense": lambda n, seed=None: _graph_from_edges(
        n, *EDGE_FAMILIES["gnp_dense"](n, seed=seed)),
    "rgg": lambda n, seed=None: random_geometric(n, seed=seed),
    "tree": lambda n, seed=None: random_tree(n, seed=seed),
    "path": lambda n, seed=None: path_graph(n),
    "cycle": lambda n, seed=None: cycle_graph(n),
    "regular": lambda n, seed=None: random_regular(n, degree=6, seed=seed),
    "powerlaw": lambda n, seed=None: barabasi_albert(n, seed=seed),
    "caveman": lambda n, seed=None: caveman(max(2, n // 8), 8, seed=seed),
    "clique": lambda n, seed=None: complete_graph(n),
    "star": lambda n, seed=None: star_graph(n),
}


def to_csr(graph: nx.Graph) -> CSRGraph:
    """Convert *graph* to flat CSR arrays (:class:`repro.graphs.csr.CSRGraph`).

    Port numbering matches ``Network(graph)`` exactly, so simulating over
    the CSR representation is byte-identical to the adjacency-list one.
    """
    return CSRGraph.from_graph(graph)


def build_csr(name: str, n: int, seed: SeedLike = None) -> CSRGraph:
    """Generate family *name* and return it as CSR arrays.

    Every graph cache holds these arrays: the sweep executor's in-process
    LRU serves ``build_csr(...).view()`` and the worker's shared-memory
    cache serialises them.  Families in :data:`EDGE_FAMILIES` go straight
    from numpy edge arrays to CSR; the rest are built by :func:`by_name`
    and converted once.  Either way the arrays equal
    ``to_csr(by_name(name, n, seed))``.
    """
    builder = EDGE_FAMILIES.get(name)
    if builder is None:
        return to_csr(by_name(name, n, seed=seed))
    return CSRGraph.from_edges(n, *builder(n, seed=seed))


def by_name(name: str, n: int, seed: SeedLike = None) -> nx.Graph:
    """Return the graph family *name* instantiated with *n* nodes.

    Raises :class:`repro.errors.UnknownFamilyError` (a
    :class:`ConfigurationError` that is also a :class:`KeyError`) for an
    unregistered name, so the CLI renders the message cleanly instead of
    printing a repr-quoted ``KeyError``.
    """
    if name not in FAMILIES:
        raise UnknownFamilyError(
            f"unknown graph family '{name}'; known: {sorted(FAMILIES)}"
        )
    return FAMILIES[name](n, seed=seed)
