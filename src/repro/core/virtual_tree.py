"""Virtual binary tree technique (paper Subsection 5.1).

The paper coordinates *when* nodes are awake via a virtual full binary tree
that every node computes locally from a single integer parameter ``i`` (an
upper bound on IDs, or on the number of batches):

* ``B([1, i])`` is the full binary tree of depth ``d = ceil(log2 i)`` whose
  ``2^(d+1) - 1`` nodes are labeled ``1 .. 2^(d+1)-1`` by an in-order
  traversal (so leaves carry the odd labels).
* ``B*([1, i])`` has the same shape but every label ``x`` is replaced by
  ``g(x) = floor(x / 2) + 1``.
* The *communication set* ``S_k([1, i])`` of an integer ``k`` in ``[1, i]`` is
  the set of ``B*`` labels on the path from the leaf whose ``B*`` label is
  ``k`` up to the root (leaf included), intersected with ``[1, i]``.

The key properties (Observations 4 and 5 in the paper) are:

* ``|S_k([1, i])| <= ceil(log2 i) + 1`` — every node is awake only
  ``O(log i)`` times, and
* for any ``k < k'`` there is a common element ``r`` of ``S_k`` and ``S_k'``
  with ``k < r <= k'`` — so the decision made by the node acting at step
  ``k`` always reaches the node acting at step ``k'`` in time.

Everything in this module is a pure function of ``i`` (and ``k``); it is used
both by :mod:`repro.algorithms.vt_mis` and by the phase scheduling of
:mod:`repro.algorithms.awake_mis`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

#: Entries kept by the :func:`communication_set` memo (a few MB at most).
COMMUNICATION_SET_CACHE = 4096


def tree_depth(i: int) -> int:
    """Return the depth ``d = ceil(log2 i)`` of ``B([1, i])``.

    For ``i = 1`` the tree is a single node of depth 0.
    """
    if i < 1:
        raise ValueError(f"virtual tree parameter must be >= 1, got {i}")
    if i == 1:
        return 0
    return math.ceil(math.log2(i))


def tree_size(i: int) -> int:
    """Return the number of nodes ``2^(d+1) - 1`` of ``B([1, i])``."""
    return 2 ** (tree_depth(i) + 1) - 1


def relabel(label: int) -> int:
    """The paper's relabeling function ``g(x) = floor(x/2) + 1``.

    Maps in-order labels of ``B([1, i])`` to the labels of ``B*([1, i])``.
    """
    if label < 1:
        raise ValueError(f"labels are positive integers, got {label}")
    return label // 2 + 1


def leaf_label_in_b(k: int) -> int:
    """Return the in-order (``B``) label of the ``k``-th leaf.

    Leaves of an in-order-labeled full binary tree carry the odd labels, so
    the ``k``-th leaf (1-indexed, left to right) is labeled ``2k - 1``.  Under
    ``g`` this leaf maps to ``k`` in ``B*``, which is exactly why the paper
    identifies "the leaf labeled ``k`` in ``B*``" with step ``k``.
    """
    if k < 1:
        raise ValueError(f"leaf index must be >= 1, got {k}")
    return 2 * k - 1


def ancestors_in_b(label: int, i: int) -> List[int]:
    """Return the ``B([1, i])`` labels on the path from *label* to the root.

    The path includes *label* itself and ends at the root of the tree.  The
    in-order labeling of a full binary tree of depth ``d`` puts the root at
    ``2^d`` and gives an internal node at "height" ``h`` a label that is an
    odd multiple of ``2^h``.  The parent of a node is found by moving to the
    nearest larger power-of-two multiple, which the loop below does by
    clearing the lowest set bit pattern one level at a time.
    """
    size = tree_size(i)
    if not 1 <= label <= size:
        raise ValueError(f"label {label} outside tree of size {size}")
    path = [label]
    current = label
    root = 2 ** tree_depth(i)
    while current != root:
        height = _height_of_label(current)
        step = 2**height
        # The parent of an in-order labeled node at height h is at height h+1
        # and differs from the child by exactly 2^h, in the direction that
        # makes the parent label an odd multiple of 2^(h+1).
        if ((current + step) // (2 * step)) % 2 == 1:
            current = current + step
        else:
            current = current - step
        path.append(current)
    return path


def _height_of_label(label: int) -> int:
    """Return the height (0 for leaves) of an in-order label in ``B``."""
    height = 0
    while label % 2 == 0:
        label //= 2
        height += 1
    return height


@functools.lru_cache(maxsize=COMMUNICATION_SET_CACHE)
def communication_set(k: int, i: int) -> FrozenSet[int]:
    """Return ``S_k([1, i])``: the awake-round set for step ``k``.

    This is the set of ``B*`` labels of the ancestors (leaf included) of the
    leaf labeled ``k``, truncated to ``[1, i]`` — exactly the set used in the
    paper's Figure 2 example (``S_3([1,6]) = {3, 4, 5}``,
    ``S_5([1,6]) = {5, 6}``).

    Memoised in a bounded LRU cache (the sets are immutable): every
    Awake-MIS batch and every LDT-MIS participant asks for one, while
    callers drawing random IDs from a huge space (``vt_mis`` with
    ``id_source="random"``) must not grow it without bound.
    """
    if not 1 <= k <= i:
        raise ValueError(f"k={k} must lie in [1, {i}]")
    leaf = leaf_label_in_b(k)
    labels = {relabel(x) for x in ancestors_in_b(leaf, i)}
    return frozenset(label for label in labels if 1 <= label <= i)


def in_communication_set(r, k):
    """Whether step ``r`` lies in ``S_k([1, i])``, for any ``i >= max(r, k)``.

    The closed form of ``r in communication_set(k, i)``, elementwise on
    numpy integer arrays as well as on ints.  ``B*`` label ``r`` is the
    image of the ``B`` labels ``2r - 1`` — a leaf, on the path of leaf
    ``2k - 1`` only when ``r == k`` — and ``2r - 2``, whose subtree spans
    every leaf closer to it than its lowest set bit.
    """
    inner = 2 * r - 2
    return (r == k) | ((r >= 2) & (abs(2 * k - 1 - inner) < (inner & -inner)))


def communication_table(keys, i):
    """``S_k([1, i])`` for every ``k`` of the integer array *keys*, at once.

    Row ``j`` holds the ``B*`` labels of the ``depth + 1`` ancestors of
    leaf ``keys[j]`` (leaf first, root last), with 0 where a label falls
    outside ``[1, i]`` or repeats the leaf's; its nonzero entries are
    exactly ``communication_set(keys[j], i)``.  Closed form: the
    height-``h`` ancestor of the ``B`` leaf ``x = 2k - 1`` is ``x`` with
    its low ``h + 1`` bits cleared, plus ``2^h``; it maps to ``B*`` label
    ``a // 2 + 1``.  Only the leaf and an ancestor ``2k - 2`` share a
    label (``k``).  The result has *keys*' dtype; an ``object`` array of
    Python ints serves keys whose ancestors outgrow int64.
    """
    heights = np.arange(tree_depth(i) + 1).astype(keys.dtype)
    leaves = 2 * keys[:, None] - 1
    labels = (((leaves >> (heights + 1)) << (heights + 1)) + (1 << heights)
              ) // 2 + 1
    keep = labels <= i
    keep[:, 1:] &= labels[:, 1:] != keys[:, None]
    return np.where(keep, labels, 0)


def communication_sets(i: int) -> Dict[int, FrozenSet[int]]:
    """Return ``{k: S_k([1, i])}`` for every ``k`` in ``[1, i]``."""
    return {k: communication_set(k, i) for k in range(1, i + 1)}


def common_round(k: int, k_prime: int, i: int) -> int:
    """Return the round guaranteed by Observation 5 for ``k < k'``.

    That is, the smallest ``r`` in ``S_k intersect S_k'`` with
    ``k < r <= k'``.  Raises :class:`ValueError` if the precondition
    ``1 <= k < k' <= i`` is violated, and :class:`AssertionError` if the
    property itself fails (it never should; this is the paper's
    Observation 5 and is property-tested).
    """
    if not 1 <= k < k_prime <= i:
        raise ValueError(f"need 1 <= k < k' <= i, got k={k}, k'={k_prime}, i={i}")
    candidates = sorted(
        r
        for r in communication_set(k, i) & communication_set(k_prime, i)
        if k < r <= k_prime
    )
    if not candidates:
        raise AssertionError(
            f"Observation 5 violated for k={k}, k'={k_prime}, i={i}"
        )
    return candidates[0]


@dataclass(frozen=True)
class VirtualTree:
    """A materialised virtual binary tree ``B*([1, i])`` with its schedule.

    Convenience wrapper bundling the parameter ``i`` with the precomputed
    communication sets.  Instances are immutable and cheap to share between
    simulated nodes (in the real distributed algorithm every node recomputes
    the structure locally; sharing it here is only a simulation-level
    optimisation and does not change any measured quantity).
    """

    parameter: int
    depth: int
    size: int
    sets: Tuple[FrozenSet[int], ...]

    @classmethod
    def build(cls, i: int) -> "VirtualTree":
        """Construct the tree and all communication sets for parameter *i*."""
        sets = tuple(communication_set(k, i) for k in range(1, i + 1))
        return cls(parameter=i, depth=tree_depth(i), size=tree_size(i), sets=sets)

    def awake_rounds(self, k: int) -> FrozenSet[int]:
        """Return ``S_k([1, i])`` for ``k`` in ``[1, i]``."""
        if not 1 <= k <= self.parameter:
            raise ValueError(f"k={k} outside [1, {self.parameter}]")
        return self.sets[k - 1]

    def max_awake_rounds(self) -> int:
        """Return ``max_k |S_k|`` (the awake-complexity contribution)."""
        return max(len(s) for s in self.sets)

    def rounds_with_listener(self, r: int) -> List[int]:
        """Return every ``k`` whose communication set contains round *r*."""
        return [k for k in range(1, self.parameter + 1) if r in self.sets[k - 1]]


def figure_example() -> Dict[str, object]:
    """Regenerate the worked example of the paper's Figures 1 and 2.

    Returns a dictionary with the in-order labels of ``B([1, 6])``, the
    relabeled ``B*([1, 6])`` values, and the two communication sets shown in
    the figures.  Used by the E8 benchmark and the documentation example.
    """
    i = 6
    size = tree_size(i)
    b_labels = list(range(1, size + 1))
    b_star_labels = [relabel(x) for x in b_labels]
    return {
        "i": i,
        "depth": tree_depth(i),
        "b_labels": b_labels,
        "b_star_labels": b_star_labels,
        "S_3": sorted(communication_set(3, i)),
        "S_5": sorted(communication_set(5, i)),
        "common_round_3_5": common_round(3, 5, i),
    }
