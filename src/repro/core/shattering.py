"""Graph shattering by random partition (paper Subsection 4.4, Lemma 3).

Lemma 3 of the paper: if the nodes of an ``n``-node graph ``H`` of maximum
degree ``Delta`` are partitioned into ``2 * Delta`` classes uniformly at
random, then each class induces a subgraph whose connected components all
have size at most ``6 ln(n / eps)`` with probability at least ``1 - eps``.

This is the property that lets ``Awake-MIS`` run ``LDT-MIS`` on each batch in
``O(log log n)`` awake rounds: the undecided nodes of a batch form
``O(log n)``-sized components.  The module implements the partitioning
process and measurement helpers used by experiment E7 and by property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.csr import csr_view
from repro.graphs.properties import component_labels, degree_histogram
from repro.rng import SeedLike, make_rng


def random_partition(graph: Any, classes: int, seed: SeedLike = None) -> Dict:
    """Assign each node of *graph* a uniform class in ``[1, classes]``.

    Returns a ``{node: class_index}`` mapping.  This is the "each node is in
    set U_j with probability 1/(2*Delta)" process of Lemma 3 with
    ``classes = 2 * Delta``.
    """
    if classes < 1:
        raise ValueError(f"number of classes must be >= 1, got {classes}")
    rng = make_rng(seed)
    return {v: rng.randint(1, classes) for v in graph.nodes}


def largest_component_per_class(graph: Any,
                                assignment: Dict) -> Dict[int, int]:
    """Return, for each class, the size of its largest induced component.

    *assignment* maps every node of *graph* to an integer class, as
    :func:`random_partition` does.  One pass over *graph*'s CSR arrays:
    keep the edges whose ends share a class, label the components of what
    is left once, and take the largest component of each class.  Classes
    come out in the order *assignment* first names them.
    """
    view = csr_view(graph)
    offsets, neighbors, _, _ = view.csr.as_arrays()
    n = view.csr.n
    row_class = np.fromiter((assignment[label] for label in view),
                            dtype=np.int64, count=n)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    # The kept edges stay in CSR order: rows ascending, neighbours sorted.
    keep = row_class[sources] == row_class[neighbors]
    induced_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources[keep], minlength=n),
              out=induced_offsets[1:])
    comp = component_labels(induced_offsets, neighbors[keep])
    classes, class_of_row = np.unique(row_class, return_inverse=True)
    largest = np.zeros(len(classes), dtype=np.int64)
    np.maximum.at(largest, class_of_row, np.bincount(comp, minlength=n)[comp])
    result = dict.fromkeys(assignment.values(), 0)
    result.update(zip(classes.tolist(), largest.tolist()))
    return result


def lemma3_bound(n: int, epsilon: float = 1.0 / 16.0) -> float:
    """Return Lemma 3's component-size bound ``6 ln(n / eps)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return 6.0 * math.log(n / epsilon)


@dataclass(frozen=True)
class ShatteringMeasurement:
    """One measurement of Lemma 3 on a given graph.

    Records the graph size and maximum degree, the number of classes used,
    the largest induced component observed over all classes, and the lemma's
    bound for comparison.
    """

    n: int
    max_degree: int
    classes: int
    largest_component: int
    lemma_bound: float

    @property
    def within_bound(self) -> bool:
        """True when the observed largest component respects the bound."""
        return self.largest_component <= self.lemma_bound


def measure_shattering(
    graph: Any,
    seed: SeedLike = None,
    epsilon: float = 1.0 / 16.0,
    classes: Optional[int] = None,
) -> ShatteringMeasurement:
    """Partition *graph* into ``2 * Delta`` classes and measure shattering.

    *classes* overrides the default ``2 * max_degree`` (used by tests that
    deliberately under-partition to watch the bound fail).
    """
    view = csr_view(graph)
    n = view.number_of_nodes()
    if n == 0:
        raise ValueError("cannot measure shattering of an empty graph")
    max_degree = max(degree_histogram(view))
    effective_classes = classes if classes is not None else max(1, 2 * max_degree)
    assignment = random_partition(view, effective_classes, seed)
    per_class = largest_component_per_class(view, assignment)
    largest = max(per_class.values(), default=0)
    return ShatteringMeasurement(
        n=n,
        max_degree=max_degree,
        classes=effective_classes,
        largest_component=largest,
        lemma_bound=lemma3_bound(n, epsilon),
    )


def shattering_profile(
    graph: Any,
    trials: int,
    seed: SeedLike = None,
    epsilon: float = 1.0 / 16.0,
) -> List[ShatteringMeasurement]:
    """Repeat :func:`measure_shattering` over *trials* independent partitions."""
    rng = make_rng(seed)
    view = csr_view(graph)
    return [
        measure_shattering(view, seed=rng.randrange(2**63), epsilon=epsilon)
        for _ in range(trials)
    ]


def empirical_failure_rate(measurements: Sequence[ShatteringMeasurement]) -> float:
    """Return the fraction of measurements that exceeded the Lemma 3 bound."""
    if not measurements:
        return 0.0
    failures = sum(1 for m in measurements if not m.within_bound)
    return failures / len(measurements)
