"""Basic structural statistics of workload graphs.

Used by the experiment harness to annotate result tables (the paper's bounds
are parameterised by ``n`` and the maximum degree Δ) and by tests that need
to reason about component structure.

Every statistic runs on CSR arrays (a networkx graph is converted once by
:func:`repro.graphs.csr.csr_view`): degrees are one subtraction over the
offsets array, the histogram is one ``bincount``, and connected components
come from min-label propagation with pointer compression — so annotating a
large sweep graph costs no per-node Python at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.graphs.csr import csr_view


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for a workload graph."""

    nodes: int
    edges: int
    max_degree: int
    average_degree: float
    components: int
    largest_component: int

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "max_degree": self.max_degree,
            "average_degree": round(self.average_degree, 3),
            "components": self.components,
            "largest_component": self.largest_component,
        }


def component_labels(offsets: Any, neighbors: Any) -> Any:
    """Per-row component labels (lowest member row) of a CSR adjacency.

    *offsets* and *neighbors* are the CSR arrays of a symmetric adjacency
    (every edge listed from both ends).  Min-label propagation: every row
    repeatedly adopts the smallest label in its closed neighbourhood, with
    full pointer compression (``comp = comp[comp]`` to a fixed point)
    between sweeps, so even a path graph converges in O(log n) compression
    steps per sweep rather than one sweep per hop.
    """
    comp = np.arange(len(offsets) - 1, dtype=np.int64)
    if neighbors.size == 0:
        return comp
    nonempty = (offsets[1:] - offsets[:-1]) > 0
    starts = offsets[:-1][nonempty]
    while True:
        candidate = comp.copy()
        candidate[nonempty] = np.minimum(
            candidate[nonempty],
            np.minimum.reduceat(comp[neighbors], starts))
        while True:
            compressed = candidate[candidate]
            if np.array_equal(compressed, candidate):
                break
            candidate = compressed
        if np.array_equal(candidate, comp):
            return comp
        comp = candidate


def _component_counts(graph: Any) -> List[int]:
    """Connected-component sizes of *graph* (unordered)."""
    offsets, neighbors, _, _ = csr_view(graph).csr.as_arrays()
    _, counts = np.unique(component_labels(offsets, neighbors),
                          return_counts=True)
    return [int(count) for count in counts]


def graph_stats(graph: Any) -> GraphStats:
    """Compute :class:`GraphStats` for *graph*."""
    csr = csr_view(graph).csr
    degrees = np.diff(csr.as_arrays()[0])
    counts = _component_counts(csr)
    return GraphStats(
        nodes=csr.n,
        edges=csr.m,
        max_degree=int(degrees.max()) if csr.n else 0,
        average_degree=(2.0 * csr.m / csr.n) if csr.n else 0.0,
        components=len(counts),
        largest_component=max(counts, default=0),
    )


def component_sizes(graph: Any) -> List[int]:
    """Return connected-component sizes in decreasing order."""
    return sorted(_component_counts(graph), reverse=True)


def degree_histogram(graph: Any) -> Dict[int, int]:
    """Return ``{degree: count}`` for *graph*, in ascending degree order."""
    degrees = np.diff(csr_view(graph).csr.as_arrays()[0])
    return {int(degree): int(count)
            for degree, count in enumerate(np.bincount(degrees)) if count}
