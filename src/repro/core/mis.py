"""Maximal independent set definitions and verification.

Every algorithm in the library (the paper's and the baselines) is checked
against these verifiers, both in tests and — optionally — after every
simulated run (:class:`repro.experiments.harness` turns verification on by
default).

The verifiers run on CSR arrays: a networkx graph is converted once by
:func:`repro.graphs.csr.csr_view`, and CSR views (what the sweep
executor's graph caches serve) are used as they are.  The set becomes a
boolean row mask, and one ``logical_or.reduceat`` over that mask gathered
along the neighbour array marks every row with a neighbour in the set.
Independence is then "no member has such a neighbour", maximality "every
row is a member or has one".  Like the simulator, the verifiers reject
directed graphs, multigraphs and self-loops with a ``ConfigurationError``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Set, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graphs.csr import CSRGraphView, csr_view


def _cover(graph: Any, nodes: Set) -> Tuple[CSRGraphView, Any, Any, bool]:
    """``(view, member, covered, complete)`` for *nodes* on *graph*.

    *view* is *graph* as CSR, *member* the row mask of *nodes*, *covered*
    the mask of rows with at least one neighbour in *nodes*, and
    *complete* says whether every element of *nodes* is a node of *graph*.
    """
    view = csr_view(graph)
    member, complete = view.member_mask(nodes)
    offsets, neighbors, _, _ = view.csr.as_arrays()
    covered = np.zeros(len(member), dtype=bool)
    nonempty = offsets[1:] > offsets[:-1]
    if neighbors.size:
        # Zero-degree rows are skipped: reduceat would read the element at
        # an empty segment's offset instead of the identity.
        covered[nonempty] = np.logical_or.reduceat(
            member[neighbors], offsets[:-1][nonempty])
    return view, member, covered, complete


def is_independent_set(graph: Any, candidate: Iterable) -> bool:
    """Return True iff no two nodes of *candidate* are adjacent in *graph*."""
    _, member, covered, complete = _cover(graph, set(candidate))
    return complete and not np.any(member & covered)


def is_maximal_independent_set(graph: Any, candidate: Iterable) -> bool:
    """Return True iff *candidate* is an independent set that is maximal.

    Maximality: every node of the graph is either in the set or adjacent to a
    node in the set (the domination condition (i) of the paper's definition).
    """
    _, member, covered, complete = _cover(graph, set(candidate))
    return (complete and not np.any(member & covered)
            and bool(np.all(member | covered)))


def uncovered_nodes(graph: Any, candidate: Iterable) -> List:
    """Return nodes that are neither in *candidate* nor adjacent to it,
    in node order."""
    view, member, covered, _ = _cover(graph, set(candidate))
    labels = view.csr.as_arrays()[3]
    return labels[~(member | covered)].tolist()


def conflicting_edges(graph: Any, candidate: Iterable) -> List:
    """Return edges of *graph* whose both endpoints are in *candidate*.

    Each edge appears once as ``(u, v)`` with ``u`` before ``v`` in node
    order, and the edges are sorted by the node-order positions of
    ``(u, v)``, whatever order the graph stores its adjacency in.
    """
    view = csr_view(graph)
    member, _ = view.member_mask(set(candidate))
    offsets, neighbors, _, labels = view.csr.as_arrays()
    sources = np.repeat(np.arange(len(member)), np.diff(offsets))
    both = member[sources] & member[neighbors] & (sources < neighbors)
    return list(zip(labels[sources[both]].tolist(),
                    labels[neighbors[both]].tolist()))


def verify_mis(graph: Any, candidate: Iterable, label: str = "output") -> Set:
    """Verify *candidate* is an MIS of *graph*, raising a detailed error if not.

    Returns the candidate as a set on success so callers can chain the call.
    """
    graph = csr_view(graph)
    nodes = set(candidate)
    conflicts = conflicting_edges(graph, nodes)
    if conflicts:
        raise VerificationError(
            f"{label} is not independent: {len(conflicts)} conflicting edge(s), "
            f"e.g. {conflicts[:3]}"
        )
    uncovered = uncovered_nodes(graph, nodes)
    if uncovered:
        raise VerificationError(
            f"{label} is not maximal: {len(uncovered)} uncovered node(s), "
            f"e.g. {uncovered[:5]}"
        )
    return nodes


def greedy_mis_from_order(graph: Any, order: Iterable) -> Set:
    """Return the lexicographically-first MIS (LFMIS) for a node *order*.

    This is the sequential greedy scan the paper's Section 4.3 describes:
    process nodes in the given order and add each to the output unless a
    neighbour is already in it.  The result is the LFMIS with respect to that
    ordering, and is the ground truth the distributed LFMIS algorithms
    (VT-MIS, LDT-MIS, Awake-MIS) are compared against in tests.
    """
    order = list(order)
    order_set = set(order)
    graph_nodes = set(graph.nodes)
    if order_set != graph_nodes:
        unknown = order_set - graph_nodes
        missing = graph_nodes - order_set
        raise ValueError(
            "order must be a permutation of the graph's nodes "
            f"(unknown: {sorted(unknown)[:5]}, missing: {sorted(missing)[:5]})"
        )
    mis: Set = set()
    blocked: Set = set()
    for v in order:
        if v in blocked:
            continue
        mis.add(v)
        blocked.add(v)
        blocked.update(graph.neighbors(v))
    return mis
