"""Maximal independent set definitions and verification.

Every algorithm in the library (the paper's and the baselines) is checked
against these verifiers, both in tests and — optionally — after every
simulated run (:class:`repro.experiments.harness` turns verification on by
default).

The verifiers accept networkx graphs and CSR-backed graphs
(:class:`repro.graphs.csr.CSRGraphView`, what the sweep executor's graph
caches serve) alike.  CSR inputs take an array-at-a-time path: the set
becomes a boolean row mask, and one ``logical_or.reduceat`` over that mask
gathered along the neighbour array marks every row with a neighbour in the
set.  Independence is then "no member has such a neighbour", maximality
"every row is a member or has one".  Both paths give the same answers and
the same error messages (pinned by ``tests/test_mis_verification.py``).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Set, Tuple

import networkx as nx
import numpy as np

from repro.errors import VerificationError
from repro.graphs.csr import CSRGraphView


def _csr_cover(graph: CSRGraphView, nodes: Set) -> Tuple[Any, Any, bool]:
    """``(member, covered, complete)`` row masks of *nodes* on *graph*.

    *member* selects the rows of *nodes*, *covered* the rows with at least
    one neighbour in *nodes*, and *complete* says whether every element
    of *nodes* is a node of *graph*.
    """
    member, complete = graph.member_mask(nodes)
    offsets, neighbors, _, _ = graph.csr.as_arrays()
    covered = np.zeros(len(member), dtype=bool)
    nonempty = offsets[1:] > offsets[:-1]
    if neighbors.size:
        # Zero-degree rows are skipped: reduceat would read the element at
        # an empty segment's offset instead of the identity.
        covered[nonempty] = np.logical_or.reduceat(
            member[neighbors], offsets[:-1][nonempty])
    return member, covered, complete


def is_independent_set(graph: nx.Graph, candidate: Iterable) -> bool:
    """Return True iff no two nodes of *candidate* are adjacent in *graph*."""
    nodes = set(candidate)
    if isinstance(graph, CSRGraphView):
        member, covered, complete = _csr_cover(graph, nodes)
        return complete and not np.any(member & covered)
    missing = nodes - set(graph.nodes)
    if missing:
        return False
    for u in nodes:
        for v in graph.neighbors(u):
            if v in nodes and v != u:
                return False
    return True


def is_maximal_independent_set(graph: nx.Graph, candidate: Iterable) -> bool:
    """Return True iff *candidate* is an independent set that is maximal.

    Maximality: every node of the graph is either in the set or adjacent to a
    node in the set (the domination condition (i) of the paper's definition).
    """
    nodes = set(candidate)
    if isinstance(graph, CSRGraphView):
        member, covered, complete = _csr_cover(graph, nodes)
        return (complete and not np.any(member & covered)
                and bool(np.all(member | covered)))
    if not is_independent_set(graph, nodes):
        return False
    for v in graph.nodes:
        if v in nodes:
            continue
        if not any(u in nodes for u in graph.neighbors(v)):
            return False
    return True


def uncovered_nodes(graph: nx.Graph, candidate: Iterable) -> List:
    """Return nodes that are neither in *candidate* nor adjacent to it,
    in node order."""
    nodes = set(candidate)
    if isinstance(graph, CSRGraphView):
        member, covered, _ = _csr_cover(graph, nodes)
        labels = graph.csr.as_arrays()[3]
        return labels[~(member | covered)].tolist()
    return [
        v
        for v in graph.nodes
        if v not in nodes and not any(u in nodes for u in graph.neighbors(v))
    ]


def conflicting_edges(graph: nx.Graph, candidate: Iterable) -> List:
    """Return edges of *graph* whose both endpoints are in *candidate*.

    Each edge appears once as ``(u, v)`` with ``u`` before ``v`` in node
    order, and the edges are sorted by the node-order positions of
    ``(u, v)``, whatever order the graph stores its adjacency in.
    """
    nodes = set(candidate)
    if isinstance(graph, CSRGraphView):
        member, _ = graph.member_mask(nodes)
        offsets, neighbors, _, labels = graph.csr.as_arrays()
        sources = np.repeat(np.arange(len(member)), np.diff(offsets))
        both = member[sources] & member[neighbors] & (sources < neighbors)
        return list(zip(labels[sources[both]].tolist(),
                        labels[neighbors[both]].tolist()))
    conflicts = [(u, v) for u, v in graph.edges if u in nodes and v in nodes]
    if conflicts:
        position = {node: index for index, node in enumerate(graph.nodes)}
        conflicts.sort(key=lambda edge: (position[edge[0]],
                                         position[edge[1]]))
    return conflicts


def verify_mis(graph: nx.Graph, candidate: Iterable, label: str = "output") -> Set:
    """Verify *candidate* is an MIS of *graph*, raising a detailed error if not.

    Returns the candidate as a set on success so callers can chain the call.
    """
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


def greedy_mis_from_order(graph: nx.Graph, order: Iterable) -> Set:
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
