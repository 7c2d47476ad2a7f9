"""Run metrics: awake complexity, round complexity, message statistics.

These are the quantities the paper's theorems are stated in terms of:

* **awake complexity** — the maximum, over nodes, of the number of rounds the
  node was awake before terminating (:attr:`RunMetrics.awake_complexity`);
* **node-averaged awake complexity** — the average number of awake rounds
  (:attr:`RunMetrics.node_averaged_awake`), the measure of Chatterjee, Gmyr
  and Pandurangan which the paper contrasts with;
* **round complexity** — the total number of rounds (sleeping + awake) until
  the last node terminates (:attr:`RunMetrics.round_complexity`).

Message counts and the largest message observed are recorded so CONGEST
compliance can be reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class NodeMetrics:
    """Per-node counters accumulated by the runner."""

    awake_rounds: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bits_sent: int = 0
    max_message_bits: int = 0
    terminated_round: Optional[int] = None


@dataclass(frozen=True)
class CompactRunMetrics:
    """Frozen scalar summary of a :class:`RunMetrics`.

    Holds exactly the aggregate quantities the sweep layer consumes (the
    paper's complexity measures plus message statistics) without the
    per-node counter list, so results stay small when shipped between the
    worker processes of the parallel sweep executor.  The attribute names
    mirror the :class:`RunMetrics` properties, making the two forms
    interchangeable for every aggregate consumer.
    """

    node_count: int
    awake_complexity: int
    node_averaged_awake: float
    total_awake_rounds: int
    round_complexity: int
    active_rounds: int
    total_messages: int
    #: ``None`` when the run was unmetered (no bit limit, no trace): message
    #: sizes were never estimated, which is distinct from "largest was 0".
    max_message_bits: Optional[int]

    def summary(self) -> Dict[str, Any]:
        """Return the same plain-dict summary :meth:`RunMetrics.summary` does."""
        return {
            "nodes": self.node_count,
            "awake_complexity": self.awake_complexity,
            "node_averaged_awake": round(self.node_averaged_awake, 3),
            "round_complexity": self.round_complexity,
            "active_rounds": self.active_rounds,
            "total_messages": self.total_messages,
            "max_message_bits": self.max_message_bits,
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe dict losslessly round-trippable via :meth:`from_json_dict`.

        Unlike :meth:`summary` (which rounds for display), this preserves
        ``node_averaged_awake`` at full precision — the on-disk results store
        relies on the round trip being exact so that a resumed sweep
        aggregates to byte-identical rows.
        """
        return {
            "node_count": self.node_count,
            "awake_complexity": self.awake_complexity,
            "node_averaged_awake": self.node_averaged_awake,
            "total_awake_rounds": self.total_awake_rounds,
            "round_complexity": self.round_complexity,
            "active_rounds": self.active_rounds,
            "total_messages": self.total_messages,
            "max_message_bits": self.max_message_bits,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "CompactRunMetrics":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            node_count=int(data["node_count"]),
            awake_complexity=int(data["awake_complexity"]),
            node_averaged_awake=float(data["node_averaged_awake"]),
            total_awake_rounds=int(data["total_awake_rounds"]),
            round_complexity=int(data["round_complexity"]),
            active_rounds=int(data["active_rounds"]),
            total_messages=int(data["total_messages"]),
            max_message_bits=(None if data["max_message_bits"] is None
                              else int(data["max_message_bits"])),
        )


@dataclass
class RunMetrics:
    """Aggregated metrics for one simulation run."""

    per_node: List[NodeMetrics] = field(default_factory=list)
    #: Highest round index in which any node was awake (None if none ever was).
    last_active_round: Optional[int] = None
    #: Number of distinct rounds in which at least one node was awake.
    active_rounds: int = 0
    #: False when the run skipped message-size estimation (no bit limit and
    #: no trace); bit statistics are then "not measured".
    bits_metered: bool = True

    @property
    def node_count(self) -> int:
        """Number of simulated nodes."""
        return len(self.per_node)

    @property
    def awake_complexity(self) -> int:
        """Worst-case awake complexity: ``max_v A_v``."""
        if not self.per_node:
            return 0
        return max(m.awake_rounds for m in self.per_node)

    @property
    def node_averaged_awake(self) -> float:
        """Node-averaged awake complexity: ``(1/n) * sum_v A_v``."""
        if not self.per_node:
            return 0.0
        return sum(m.awake_rounds for m in self.per_node) / len(self.per_node)

    @property
    def total_awake_rounds(self) -> int:
        """Total awake node-rounds across all nodes (energy proxy)."""
        return sum(m.awake_rounds for m in self.per_node)

    @property
    def round_complexity(self) -> int:
        """Total number of rounds until the last node terminates.

        Rounds are 0-indexed internally, so this is ``last_active_round + 1``
        (0 when no node was ever awake).
        """
        if self.last_active_round is None:
            return 0
        return self.last_active_round + 1

    @property
    def total_messages(self) -> int:
        """Total messages delivered or attempted across the run."""
        return sum(m.messages_sent for m in self.per_node)

    @property
    def max_message_bits(self) -> Optional[int]:
        """Largest single message (in estimated bits) sent during the run.

        ``None`` when the run was unmetered (sizes were never estimated),
        so a fabricated 0 can never be mistaken for a measurement.
        """
        if not self.bits_metered:
            return None
        if not self.per_node:
            return 0
        return max(m.max_message_bits for m in self.per_node)

    def summary(self) -> Dict[str, Any]:
        """Return a plain-dict summary convenient for tables and JSON."""
        return self.compact().summary()

    def compact(self) -> CompactRunMetrics:
        """Collapse the per-node counters into a :class:`CompactRunMetrics`."""
        return CompactRunMetrics(
            node_count=self.node_count,
            awake_complexity=self.awake_complexity,
            node_averaged_awake=self.node_averaged_awake,
            total_awake_rounds=self.total_awake_rounds,
            round_complexity=self.round_complexity,
            active_rounds=self.active_rounds,
            total_messages=self.total_messages,
            max_message_bits=self.max_message_bits,
        )
