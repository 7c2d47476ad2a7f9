"""Shared helpers for the distributed MIS protocols.

All MIS protocols in this package follow the same output convention: the
per-node generator returns a :class:`MISDecision` whose ``in_mis`` flag says
whether the node joined the MIS.  The experiment harness converts a
:class:`repro.sim.runner.RunResult` of such a protocol into the MIS set with
:func:`mis_from_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.sim.runner import RunResult

#: Node states used by every protocol, mirroring the paper's terminology.
UNDECIDED = "undecided"
IN_MIS = "inMIS"
NOT_IN_MIS = "notinMIS"


@dataclass
class MISDecision:
    """Return value of one node's MIS protocol instance.

    Attributes
    ----------
    in_mis:
        True when the node joined the MIS.
    decided_round:
        The absolute round in which the node's state became decided (used by
        tests and by the trace-based examples).
    detail:
        Optional protocol-specific diagnostic payload (e.g. the batch chosen
        by Awake-MIS, or the component rank assigned by LDT-MIS).
    """

    in_mis: bool
    decided_round: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:  # allows RunResult.output_set() to work
        return self.in_mis


def mis_from_result(result: RunResult) -> Set:
    """Extract the MIS (as a set of graph labels) from a protocol run."""
    mis = set()
    for label, output in result.outputs.items():
        if isinstance(output, MISDecision):
            if output.in_mis:
                mis.add(label)
        elif output:
            mis.add(label)
    return mis

