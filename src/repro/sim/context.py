"""Per-node context handed to protocol factories.

A protocol is a *factory*: a callable ``factory(ctx) -> generator`` invoked
once per node when the simulation starts.  The :class:`NodeContext` gives the
protocol exactly the local knowledge the SLEEPING-CONGEST model allows:

* the node's degree and port numbers (ports are an arbitrary local numbering
  of incident edges; the network is anonymous),
* a private source of randomness,
* the globally known inputs (``n`` or the polynomial upper bound ``N``,
  algorithm parameters) via :attr:`inputs`,
* optionally a per-node input (e.g. a pre-assigned ID for algorithms such as
  VT-MIS that are defined for identified networks) via :attr:`local_input`.

The context deliberately does **not** expose neighbour identities or any
global view of the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class NodeContext:
    """Local knowledge available to one simulated node."""

    #: Number of incident edges (= number of ports).
    degree: int
    #: Port numbers, always ``0 .. degree-1``.
    ports: List[int]
    #: Private random generator (seeded from the run's master seed).
    rng: random.Random
    #: Globally known inputs shared by every node (e.g. ``{"n": 128}``).
    inputs: Dict[str, Any] = field(default_factory=dict)
    #: Optional node-specific input (e.g. an assigned unique ID).
    local_input: Any = None
    #: Label of the underlying graph node.  For tracing and debugging only;
    #: protocols must not use it for algorithmic decisions (the model is
    #: anonymous).
    debug_label: Any = None

    def require_input(self, key: str) -> Any:
        """Return ``inputs[key]``, raising a helpful error when missing."""
        return require_input(self.inputs, key)

    def input(self, key: str, default: Optional[Any] = None) -> Any:
        """Return ``inputs[key]`` or *default* when absent."""
        return self.inputs.get(key, default)


def require_input(inputs: Dict[str, Any], key: str) -> Any:
    """Return ``inputs[key]``, raising a helpful error when missing.

    Shared by :meth:`NodeContext.require_input` and the vectorized
    engines, which read the same global inputs without a context.
    """
    if key not in inputs:
        raise KeyError(
            f"protocol requires global input '{key}' but only "
            f"{sorted(inputs)} were provided"
        )
    return inputs[key]
