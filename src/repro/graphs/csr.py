"""Flat CSR adjacency arrays — the shareable graph representation.

A :class:`CSRGraph` stores a simple undirected graph as four flat int64
arrays:

- ``offsets`` (``n + 1`` words): row ``i``'s neighbours live at
  ``neighbors[offsets[i]:offsets[i + 1]]``, sorted ascending.
- ``neighbors`` (``2m`` words): neighbour *indices* (0-based row numbers,
  not labels).
- ``arrivals`` (``2m`` words): ``arrivals[offsets[i] + p]`` is the port on
  which node ``i``'s port-``p`` neighbour receives messages *from* ``i`` —
  precomputed so a network view needs no per-node dictionaries at all.
- ``labels`` (``n`` words): the original node labels, in ``graph.nodes``
  order.  Rows are built in this same order and per-row neighbours are
  sorted by index, exactly mirroring :class:`repro.sim.network.Network`'s
  port numbering, so simulations over either representation are
  byte-identical.

Every CSR graph is built by :meth:`CSRGraph.from_edges` from a flat edge
list: the ``gnp`` and ``rgg`` families generate their edge arrays in numpy
and land here directly (:func:`repro.graphs.generators.build_csr`), while
:meth:`CSRGraph.from_graph` reads a networkx graph's edges once and hands
them over.

The arrays serialise into one contiguous buffer (``pack_into`` /
``from_buffer``) with a small header, which is what the worker's
``multiprocessing.shared_memory`` graph cache maps read-only into every
slot process: :meth:`CSRGraph.from_buffer` is zero-copy (memoryview
slices over the segment), so attaching a cached graph costs O(1)
regardless of size.

:class:`CSRGraphView` wraps the arrays in the small read-only subset of
the :mod:`networkx` API the harness and verifiers use (``nodes``,
``edges``, ``neighbors``, ``number_of_nodes`` …), so a CSR-backed graph
can flow through ``run_mis`` unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Any, Collection, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: First header word of every serialised CSR buffer ("CSRG"); attaching a
#: shared-memory segment that does not start with it fails loudly instead
#: of mis-slicing garbage.
MAGIC = 0x43535247

_WORD_FORMAT = "q"
WORD_BYTES = 8
HEADER_WORDS = 3  # MAGIC, n, m


def _as_words(buffer: Any) -> memoryview:
    """Return *buffer* as a flat int64 memoryview (zero-copy)."""
    view = memoryview(buffer)
    if view.format != _WORD_FORMAT or view.itemsize != WORD_BYTES:
        view = view.cast("B").cast(_WORD_FORMAT)
    return view


def _np_int64_view(words: memoryview, writable: bool = False) -> Any:
    """Zero-copy int64 numpy view over a word memoryview.

    ``np.frombuffer`` needs a byte-format view, so we cast through ``"B"``;
    the cast preserves the underlying address, never copies.  Read-only
    views are marked unwriteable so a caller cannot mutate a shared CSR
    buffer through them by accident.
    """
    if len(words) == 0:
        return np.empty(0, dtype=np.int64)
    view = memoryview(words)
    array_view = np.frombuffer(view.cast("B"), dtype=np.int64)
    if not writable:
        array_view = array_view.view()
        array_view.flags.writeable = False
    return array_view


def _np_as_word_view(np_array: Any) -> memoryview:
    """Expose an int64 numpy array as a ``"q"``-format memoryview.

    numpy int64 buffers report platform format ``"l"`` on LP64, which
    breaks format-checked memoryview slice assignment against
    ``array("q")`` storage — casting through ``"B"`` normalises it.
    """
    return memoryview(np_array).cast("B").cast(_WORD_FORMAT)


class CSRGraph:
    """Flat int64 CSR arrays for a simple undirected graph."""

    __slots__ = ("n", "m", "offsets", "neighbors", "arrivals", "labels",
                 "_owner")

    def __init__(self, n: int, m: int, offsets: memoryview,
                 neighbors: memoryview, arrivals: memoryview,
                 labels: memoryview, owner: Any = None) -> None:
        self.n = int(n)
        self.m = int(m)
        self.offsets = offsets
        self.neighbors = neighbors
        self.arrivals = arrivals
        self.labels = labels
        # Keeps the backing storage (e.g. a SharedMemory mapping) alive for
        # as long as any view of these arrays is.
        self._owner = owner

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, u: Any, v: Any,
                   labels: Any = None) -> "CSRGraph":
        """Build CSR arrays for *n* rows from an undirected edge list.

        *u* and *v* are equal-length integer sequences of row indices
        listing every undirected edge exactly once, in either orientation;
        *labels* names the rows (default ``0 .. n-1``).  Both orientations
        are sorted by ``(source, destination)`` so every row's neighbours
        come out ascending; offsets are one ``bincount`` + ``cumsum``.  The
        arrival-port table — the port on which each directed edge
        ``u -> v`` is received, i.e. the rank of ``u`` within ``v``'s row —
        comes from one lexsort: sorting edge ids by ``(destination,
        source)`` lists the reversed edges in CSR order, so an edge's
        arrival port is its sorted position minus its destination's row
        start.  The result matches ``Network``'s own counting pass exactly
        (pinned by ``tests/test_csr.py``).
        """
        half_src = np.asarray(u, dtype=np.int64)
        half_dst = np.asarray(v, dtype=np.int64)
        label_array = (np.arange(n, dtype=np.int64) if labels is None
                       else np.ascontiguousarray(labels, dtype=np.int64))
        if half_src.shape != half_dst.shape or len(label_array) != n:
            raise ConfigurationError(
                "CSR edge endpoints and labels disagree in length")
        if half_src.size and (min(half_src.min(), half_dst.min()) < 0
                              or max(half_src.max(), half_dst.max()) >= n):
            raise ConfigurationError(
                f"CSR edge endpoints must be row indices below {n}")
        loops = np.flatnonzero(half_src == half_dst)
        if loops.size:
            label = int(label_array[half_src[loops[0]]])
            raise ConfigurationError(
                f"CSR graphs reject self-loops (node {label!r})")
        src = np.concatenate((half_src, half_dst))
        dst = np.concatenate((half_dst, half_src))
        order = np.lexsort((dst, src))
        src = src[order]
        neighbors = dst[order]
        if np.any((src[1:] == src[:-1]) & (neighbors[1:] == neighbors[:-1])):
            raise ConfigurationError("CSR graphs reject parallel edges")
        directed_m = len(neighbors)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        position = np.empty(directed_m, dtype=np.int64)
        position[np.lexsort((src, neighbors))] = np.arange(
            directed_m, dtype=np.int64)
        arrivals = position - offsets[neighbors]
        return cls(n, directed_m // 2, _np_as_word_view(offsets),
                   _np_as_word_view(neighbors), _np_as_word_view(arrivals),
                   _np_as_word_view(label_array),
                   owner=(offsets, neighbors, arrivals, label_array))

    @classmethod
    def from_graph(cls, graph: Any) -> "CSRGraph":
        """Build CSR arrays from a networkx-style graph.

        Rows follow ``graph.nodes`` order and each row's neighbours are
        sorted by row index, which is exactly ``Network(graph)``'s port
        numbering, so every simulated byte is identical between the two
        representations.  The edges are read once, mapped from labels to
        rows, and handed to :meth:`from_edges`.
        """
        if graph.is_directed() or graph.is_multigraph():
            raise ConfigurationError(
                "CSR graphs require a simple undirected graph")
        label_list = list(graph.nodes)
        for label in label_list:
            if not isinstance(label, int) or isinstance(label, bool):
                raise ConfigurationError(
                    "CSR graphs require integer node labels; got "
                    f"{label!r}")
        n = len(label_list)
        labels = np.fromiter(label_list, dtype=np.int64, count=n)
        ends = np.fromiter(chain.from_iterable(graph.edges()),
                           dtype=np.int64,
                           count=2 * graph.number_of_edges())
        if not np.array_equal(labels, np.arange(n, dtype=np.int64)):
            sorter = np.argsort(labels)
            ends = sorter[np.searchsorted(labels, ends, sorter=sorter)]
        return cls.from_edges(n, ends[0::2], ends[1::2], labels=labels)

    @classmethod
    def from_buffer(cls, buffer: Any, owner: Any = None) -> "CSRGraph":
        """Attach to a serialised CSR buffer without copying.

        *owner* (typically a ``SharedMemory`` object) is retained so the
        mapping outlives every view handed out.
        """
        words = _as_words(buffer)
        if len(words) < HEADER_WORDS or words[0] != MAGIC:
            raise ConfigurationError(
                "buffer does not hold a CSR graph (bad magic)")
        n, m = words[1], words[2]
        expected = HEADER_WORDS + (n + 1) + 4 * m + n
        if n < 0 or m < 0 or len(words) < expected:
            raise ConfigurationError(
                f"CSR buffer truncated: header says n={n} m={m} "
                f"({expected} words) but only {len(words)} are present")
        cursor = HEADER_WORDS
        offsets = words[cursor:cursor + n + 1]
        cursor += n + 1
        neighbors = words[cursor:cursor + 2 * m]
        cursor += 2 * m
        arrivals = words[cursor:cursor + 2 * m]
        cursor += 2 * m
        labels = words[cursor:cursor + n]
        return cls(n, m, offsets, neighbors, arrivals, labels, owner=owner)

    # -- serialisation --------------------------------------------------

    @property
    def word_count(self) -> int:
        return HEADER_WORDS + (self.n + 1) + 4 * self.m + self.n

    @property
    def nbytes(self) -> int:
        return WORD_BYTES * self.word_count

    def pack_into(self, buffer: Any) -> None:
        """Serialise into a writable *buffer* of at least ``nbytes``."""
        words = _as_words(buffer)
        if len(words) < self.word_count:
            raise ConfigurationError(
                f"buffer holds {len(words)} words; this CSR graph needs "
                f"{self.word_count}")
        words[0] = MAGIC
        words[1] = self.n
        words[2] = self.m
        cursor = HEADER_WORDS
        # One flat int64 destination view; each segment lands as a single
        # vectorised copy instead of a word-format slice assign.
        destination = _np_int64_view(words, writable=True)
        for segment in (self.offsets, self.neighbors, self.arrivals,
                        self.labels):
            length = len(segment)
            destination[cursor:cursor + length] = _np_int64_view(segment)
            cursor += length

    def to_bytes(self) -> bytes:
        buffer = bytearray(self.nbytes)
        self.pack_into(buffer)
        return bytes(buffer)

    # -- accessors ------------------------------------------------------

    def as_arrays(self) -> Tuple[Any, Any, Any, Any]:
        """Zero-copy read-only numpy views ``(offsets, neighbors, arrivals,
        labels)`` over the CSR buffers.

        Works for any backing storage — ``array`` module storage, numpy
        owners, and ``SharedMemory`` mappings alike — because the views are
        built with ``np.frombuffer`` over the existing memoryviews; nothing
        is copied.
        """
        return (_np_int64_view(self.offsets), _np_int64_view(self.neighbors),
                _np_int64_view(self.arrivals), _np_int64_view(self.labels))

    def degree(self, index: int) -> int:
        return self.offsets[index + 1] - self.offsets[index]

    def neighbor_row(self, index: int) -> memoryview:
        """Sorted neighbour indices of row *index* (zero-copy slice)."""
        return self.neighbors[self.offsets[index]:self.offsets[index + 1]]

    def arrival_row(self, index: int) -> memoryview:
        """Arrival ports aligned with :meth:`neighbor_row` (zero-copy)."""
        return self.arrivals[self.offsets[index]:self.offsets[index + 1]]

    def view(self) -> "CSRGraphView":
        return CSRGraphView(self)


class _NodeView:
    """Read-only stand-in for ``networkx.Graph.nodes``."""

    __slots__ = ("_labels", "_members")

    def __init__(self, labels: memoryview) -> None:
        self._labels = labels
        self._members: Optional[frozenset] = None  # built lazily on first `in`

    def __call__(self) -> "_NodeView":
        return self

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self._labels)

    def __contains__(self, label: Any) -> bool:
        if self._members is None:
            self._members = frozenset(self._labels)
        return label in self._members


class _EdgeView:
    """Read-only stand-in for ``networkx.Graph.edges`` (each edge once)."""

    __slots__ = ("_csr",)

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr

    def __call__(self) -> "_EdgeView":
        return self

    def __len__(self) -> int:
        return self._csr.m

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        csr = self._csr
        offsets, neighbors, labels = csr.offsets, csr.neighbors, csr.labels
        for u in range(csr.n):
            for cursor in range(offsets[u], offsets[u + 1]):
                v = neighbors[cursor]
                if u < v:
                    yield (labels[u], labels[v])


class CSRGraphView:
    """The read-only networkx API subset, backed by flat CSR arrays.

    Exposes exactly what ``run_mis`` and the MIS verifiers touch:
    ``nodes`` / ``edges`` views, ``neighbors``, node/edge counts, and the
    directed/multigraph predicates.  ``run_protocol`` recognises this
    type and builds a zero-copy :class:`repro.sim.network.CSRNetwork`
    instead of re-deriving adjacency dictionaries.
    """

    __slots__ = ("_csr", "_index_of")

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr
        self._index_of: Optional[Dict[int, int]] = None

    @property
    def csr(self) -> CSRGraph:
        return self._csr

    def _index(self, label: Any) -> int:
        return self._index_map()[label]

    def _index_map(self) -> Dict[int, int]:
        if self._index_of is None:
            self._index_of = {node: index for index, node
                              in enumerate(self._csr.labels)}
        return self._index_of

    def member_mask(self, nodes: Collection[Any]) -> Tuple[Any, bool]:
        """``(mask, complete)`` for a collection of distinct labels.

        *mask* is a boolean array over the rows selecting those of *nodes*
        that are nodes of this graph; *complete* says whether all of them
        are.  Labels match by Python equality, as networkx lookups do.
        """
        index_of = self._index_map()
        rows = [row for row in map(index_of.get, nodes) if row is not None]
        mask = np.zeros(self._csr.n, dtype=bool)
        mask[rows] = True
        return mask, len(rows) == len(nodes)

    # -- networkx surface ----------------------------------------------

    @property
    def nodes(self) -> _NodeView:
        return _NodeView(self._csr.labels)

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self._csr)

    def is_directed(self) -> bool:
        return False

    def is_multigraph(self) -> bool:
        return False

    def number_of_nodes(self) -> int:
        return self._csr.n

    def number_of_edges(self) -> int:
        return self._csr.m

    def order(self) -> int:
        return self._csr.n

    def neighbors(self, label: Any) -> Iterator[int]:
        csr = self._csr
        index = self._index(label)
        labels = csr.labels
        for cursor in range(csr.offsets[index], csr.offsets[index + 1]):
            yield labels[csr.neighbors[cursor]]

    def has_edge(self, u: Any, v: Any) -> bool:
        try:
            row = self._csr.neighbor_row(self._index(u))
            target = self._index(v)
        except KeyError:
            return False
        cursor = bisect_left(row, target)
        return cursor < len(row) and row[cursor] == target

    def __len__(self) -> int:
        return self._csr.n

    def __iter__(self) -> Iterator[int]:
        return iter(self._csr.labels)

    def __contains__(self, label: Any) -> bool:
        return label in self.nodes
