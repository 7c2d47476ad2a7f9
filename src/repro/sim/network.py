"""Port-numbered anonymous network over flat routing arrays.

The network fixes, for every node, an arbitrary but deterministic numbering
of its incident edges (its *ports*).  Protocols address neighbours only by
port number; the mapping from ports to graph nodes lives here and is used by
the runner to route messages and by the harness to translate protocol
outputs back to graph node labels.

:class:`Network` adopts the flat ``(offsets, neighbors, arrivals)`` word
arrays of a :class:`~repro.graphs.csr.CSRGraph` plus its node labels:
node ``i``'s port ``p`` leads to ``neighbors[offsets[i] + p]``, which
receives ``i``'s messages on port ``arrivals[offsets[i] + p]``.  Ports are
numbered by ascending neighbour index.  A networkx graph is converted to
CSR once, by :func:`repro.graphs.csr.csr_view`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.csr import csr_view


class Network:
    """An anonymous, port-numbered view of an undirected graph.

    Parameters
    ----------
    graph:
        Any simple undirected graph with hashable node labels: a networkx
        graph (converted once), or a CSR graph or view, whose arrays are
        adopted without copying — O(1) even when they live in a
        shared-memory segment mapped by a worker slot process.
        Directed graphs, multigraphs and self-loops are rejected (the
        model has none).
    """

    def __init__(self, graph: Any) -> None:
        self._view = csr_view(graph)
        csr = self._view.csr
        self._labels: Sequence[Any] = csr.labels
        self._offsets: Sequence[int] = csr.offsets
        self._neighbors: Sequence[int] = csr.neighbors
        self._arrivals: Sequence[int] = csr.arrivals

    # ------------------------------------------------------------------ #
    # Size / lookup helpers
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._neighbors) // 2

    def labels(self) -> List[Any]:
        """Graph node labels in simulator index order."""
        return list(self._labels)

    def label_of(self, index: int) -> Any:
        """Return the graph label of simulator index *index*."""
        return self._labels[index]

    def index_of(self, label: Any) -> int:
        """Return the simulator index of graph node *label*."""
        return self._view.index_of(label)

    def degree(self, index: int) -> int:
        """Return the degree of the node with simulator index *index*."""
        return self._offsets[index + 1] - self._offsets[index]

    def neighbor_via_port(self, index: int, port: int) -> int:
        """Return the simulator index reached from *index* through *port*."""
        degree = self.degree(index)
        if not 0 <= port < degree:
            raise ConfigurationError(
                f"node {self.label_of(index)} has ports 0..{degree - 1}, "
                f"got {port}"
            )
        return self._neighbors[self._offsets[index] + port]

    def port_towards(self, index: int, neighbor_index: int) -> int:
        """Return the port of *index* leading to *neighbor_index*."""
        start, stop = self._offsets[index], self._offsets[index + 1]
        cursor = bisect_left(self._neighbors, neighbor_index, start, stop)
        if cursor == stop or self._neighbors[cursor] != neighbor_index:
            raise ConfigurationError(
                f"nodes {self.label_of(index)} and "
                f"{self.label_of(neighbor_index)} are not adjacent"
            )
        return cursor - start

    def max_degree(self) -> int:
        """Return the maximum degree of the network (0 for edgeless graphs)."""
        return max((self.degree(index) for index in range(self.size)),
                   default=0)

    def csr_tables(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """The flat ``(offsets, neighbors, arrivals)`` routing arrays."""
        return (self._offsets, self._neighbors, self._arrivals)


def build_network(graph: Any) -> Network:
    """Build the port-numbered network of *graph* (see :class:`Network`).

    The runner's single entry point for network construction.
    """
    return Network(graph)
