"""Distributed MIS algorithms: the paper's and the baselines.

The paper's algorithms:

* :func:`repro.algorithms.vt_mis.vt_mis_protocol` — ``VT-MIS`` (Lemma 10)
* :mod:`repro.algorithms.ldt_mis` — ``LDT-MIS`` (Lemma 11 /
  Corollary 12)
* :mod:`repro.algorithms.awake_mis` — ``Awake-MIS`` (Section 6; runs
  as Corollary 14)

Baselines used by the comparison experiments:

* :func:`repro.algorithms.luby.luby_protocol` — Luby's O(log n) algorithm
* :func:`repro.algorithms.rank_greedy.rank_greedy_protocol` — parallel
  randomized greedy (Fischer–Noever)
* :func:`repro.algorithms.naive_greedy.naive_greedy_protocol` — the naive
  O(I)-awake distributed greedy that VT-MIS improves exponentially

Every protocol returns a :class:`repro.algorithms.common.MISDecision` per
node; use :func:`repro.algorithms.common.mis_from_result` (or the harness) to
obtain the MIS as a set of graph labels.
"""

from repro.algorithms.common import (
    IN_MIS,
    MISDecision,
    NOT_IN_MIS,
    UNDECIDED,
    mis_from_result,
)

__all__ = [
    "IN_MIS",
    "MISDecision",
    "NOT_IN_MIS",
    "UNDECIDED",
    "mis_from_result",
]
