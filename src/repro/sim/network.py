"""Port-numbered anonymous network over flat routing arrays.

The network fixes, for every node, an arbitrary but deterministic numbering
of its incident edges (its *ports*).  Protocols address neighbours only by
port number; the mapping from ports to graph nodes lives here and is used by
the runner to route messages and by the harness to translate protocol
outputs back to graph node labels.

Both network classes hold the same flat ``(offsets, neighbors, arrivals)``
word arrays plus the node labels: node ``i``'s port ``p`` leads to
``neighbors[offsets[i] + p]``, which receives ``i``'s messages on port
``arrivals[offsets[i] + p]``.  Ports are numbered by ascending neighbour
index.  :class:`Network` derives the arrays from a networkx graph;
:class:`CSRNetwork` adopts the ones a :class:`~repro.graphs.csr.CSRGraph`
already holds.  They differ only in construction.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph, CSRGraphView


class Network:
    """An anonymous, port-numbered view of an undirected graph.

    Parameters
    ----------
    graph:
        Any simple undirected :class:`networkx.Graph`, with any hashable
        node labels.  Self-loops are rejected (the model has none);
        multigraphs are rejected.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.is_directed() or graph.is_multigraph():
            raise ConfigurationError(
                "the SLEEPING-CONGEST simulator requires a simple undirected graph"
            )
        labels: List[Any] = list(graph.nodes)
        index_of = {label: index for index, label in enumerate(labels)}
        offsets = array("q", [0])
        neighbors = array("q")
        for index, label in enumerate(labels):
            row = sorted(index_of[v] for v in graph.neighbors(label))
            if index in row:
                raise ConfigurationError("self-loops are not allowed")
            neighbors.extend(row)
            offsets.append(len(neighbors))
        # Rows are sorted and laid out in ascending node order, so when the
        # scan reaches an entry u -> v, the entries w -> v already seen are
        # exactly v's neighbours below u: their count is u's port at v.
        seen = [0] * len(labels)
        arrivals = array("q")
        for v in neighbors:
            arrivals.append(seen[v])
            seen[v] += 1
        self._graph: Any = graph
        self._labels: Sequence[Any] = labels
        self._index_of: Optional[Dict[Any, int]] = index_of
        self._offsets: Sequence[int] = offsets
        self._neighbors: Sequence[int] = neighbors
        self._arrivals: Sequence[int] = arrivals

    # ------------------------------------------------------------------ #
    # Size / lookup helpers
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Any:
        """The underlying graph object (not copied)."""
        return self._graph

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
        if self._index_of is None:
            self._index_of = {node: index
                              for index, node in enumerate(self._labels)}
        return self._index_of[label]

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


class CSRNetwork(Network):
    """A port-numbered network over CSR arrays — zero extra copies.

    Built directly from a :class:`repro.graphs.csr.CSRGraph`: its rows are
    sorted by neighbour index and its arrival ports were precomputed when
    the arrays were built, so construction is O(1) even when the arrays
    live in a shared-memory segment mapped by a worker slot process.  Both
    classes simulate byte-identically (pinned by ``tests/test_csr.py``).
    """

    def __init__(self, csr: "CSRGraph | CSRGraphView") -> None:
        if isinstance(csr, CSRGraphView):
            self._graph = csr
            csr = csr.csr
        else:
            self._graph = csr.view()
        self._labels = csr.labels
        self._index_of = None
        self._offsets = csr.offsets
        self._neighbors = csr.neighbors
        self._arrivals = csr.arrivals


def build_network(graph: Any) -> Network:
    """Build the right network view for *graph*.

    CSR-backed graphs (:class:`CSRGraphView` / :class:`CSRGraph`) get the
    zero-copy :class:`CSRNetwork`; anything networkx-like gets the
    classic :class:`Network`.
    """
    if isinstance(graph, (CSRGraphView, CSRGraph)):
        return CSRNetwork(graph)
    return Network(graph)
