"""CSR graph representation tests (repro.graphs.csr, repro.sim.network).

Every simulation, verification and graph statistic runs on CSR arrays,
and the shared-memory graph cache ships graphs between worker processes
in the same form.  These tests pin the arrays against a plain-Python
reference construction for every registered graph family, the one
conversion point (``csr_view``), the serialisation round-trip, and the
shared-memory segment lifecycle (owned by the serving process, unlinked
exactly once, orphans reaped).
"""

from __future__ import annotations

import os
import struct
from multiprocessing import shared_memory

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import run_mis
from repro.experiments.shm_cache import (SEGMENT_PREFIX, SharedGraphCache,
                                         active_segments, attach_segment,
                                         reap_stale_segments)
from repro.graphs import generators
from repro.graphs.csr import MAGIC, CSRGraph, CSRGraphView, csr_view
from repro.sim.network import Network


@pytest.fixture(params=sorted(generators.FAMILIES))
def family_graph(request):
    """One modest instance of every registered graph family."""
    return generators.by_name(request.param, 48, seed=17)


def _records_sans_wall_time(result):
    record = result.to_record()
    record.pop("wall_time_seconds", None)
    return record


def _reference_tables(graph):
    """``(labels, offsets, neighbors, arrivals)`` of a networkx *graph*,
    derived in plain Python without numpy.

    Rows follow ``graph.nodes`` and each row lists its neighbours' rows
    ascending.  Rows are laid out in ascending order, so when the scan
    reaches an entry ``u -> v``, the entries ``w -> v`` already seen are
    exactly ``v``'s neighbours below ``u``: their count is ``u``'s port at
    ``v``.  This counting pass is the oracle for ``from_edges``' lexsort.
    """
    labels = list(graph.nodes)
    row_of = {label: row for row, label in enumerate(labels)}
    offsets, neighbors = [0], []
    for label in labels:
        neighbors.extend(sorted(row_of[v] for v in graph.neighbors(label)))
        offsets.append(len(neighbors))
    seen = [0] * len(labels)
    arrivals = []
    for v in neighbors:
        arrivals.append(seen[v])
        seen[v] += 1
    return labels, offsets, neighbors, arrivals


# --------------------------------------------------------------------------- #
# Network tables against the plain-Python reference
# --------------------------------------------------------------------------- #
class TestNetworkEquivalence:
    def test_network_matches_reference_on_every_family(self, family_graph):
        """Same labels, same ports, same tables — on every family."""
        labels, offsets, neighbors, arrivals = _reference_tables(family_graph)
        network = Network(generators.to_csr(family_graph))

        assert network.size == len(labels)
        assert network.edge_count == len(neighbors) // 2
        assert network.labels() == labels
        assert network.max_degree() == max(
            (b - a for a, b in zip(offsets, offsets[1:])), default=0)
        for index, label in enumerate(labels):
            assert network.degree(index) == offsets[index + 1] - offsets[index]
            assert network.label_of(index) == label
            assert network.index_of(label) == index
        assert [list(table) for table in network.csr_tables()] == \
               [offsets, neighbors, arrivals]

    def test_port_routing_agrees_everywhere(self, family_graph):
        _, offsets, neighbors, _ = _reference_tables(family_graph)
        network = Network(family_graph)
        for index in range(network.size):
            for port in range(offsets[index + 1] - offsets[index]):
                neighbor = neighbors[offsets[index] + port]
                assert network.neighbor_via_port(index, port) == neighbor
                assert network.port_towards(index, neighbor) == port

    def test_out_of_range_port_rejected(self):
        network = Network(generators.to_csr(generators.path_graph(4)))
        with pytest.raises(ConfigurationError, match="ports"):
            network.neighbor_via_port(0, 5)

    def test_non_adjacent_port_towards_rejected(self):
        network = Network(generators.to_csr(generators.path_graph(4)))
        with pytest.raises(ConfigurationError, match="not adjacent"):
            network.port_towards(0, 3)

    def test_csr_tables_on_every_input_form(self):
        graph = generators.gnp_graph(24, p=0.2, seed=5)
        csr = generators.to_csr(graph)
        for network in (Network(graph), Network(csr), Network(csr.view())):
            offsets, neighbors, arrivals = network.csr_tables()
            assert len(offsets) == graph.number_of_nodes() + 1
            assert len(neighbors) == len(arrivals) == \
                   2 * graph.number_of_edges()
            for index in range(network.size):
                for port in range(network.degree(index)):
                    neighbor = neighbors[offsets[index] + port]
                    assert arrivals[offsets[index] + port] == \
                           network.port_towards(neighbor, index)

    def test_csr_view_is_the_one_conversion_point(self):
        graph = generators.cycle_graph(8)
        csr = generators.to_csr(graph)
        view = csr.view()
        assert csr_view(view) is view
        assert csr_view(csr).csr is csr
        converted = csr_view(graph)
        assert isinstance(converted, CSRGraphView)
        assert converted.csr.to_bytes() == csr.to_bytes()

    def test_network_adopts_csr_arrays_without_copying(self):
        csr = generators.to_csr(generators.cycle_graph(8))
        offsets, neighbors, arrivals = Network(csr.view()).csr_tables()
        assert offsets is csr.offsets
        assert neighbors is csr.neighbors
        assert arrivals is csr.arrivals


# --------------------------------------------------------------------------- #
# The graph-API view (what run_mis and the verifiers touch)
# --------------------------------------------------------------------------- #
class TestCSRGraphView:
    def test_view_mirrors_networkx_surface(self, family_graph):
        view = generators.to_csr(family_graph).view()
        assert view.number_of_nodes() == family_graph.number_of_nodes()
        assert view.number_of_edges() == family_graph.number_of_edges()
        assert not view.is_directed()
        assert not view.is_multigraph()
        assert sorted(view.nodes) == sorted(family_graph.nodes)
        assert sorted(map(tuple, map(sorted, view.edges))) == \
               sorted(map(tuple, map(sorted, family_graph.edges)))
        for node in family_graph.nodes:
            assert sorted(view.neighbors(node)) == \
                   sorted(family_graph.neighbors(node))

    def test_neighbors_both_orientations(self):
        graph = generators.path_graph(5)
        view = generators.to_csr(graph).view()
        assert 2 in view.neighbors(1) and 1 in view.neighbors(2)
        assert 4 not in view.neighbors(0)

    def test_arbitrary_labels_survive_unchanged(self):
        import networkx as nx

        class Tag(int):
            pass

        graph = nx.Graph()
        graph.add_nodes_from(["s", (1, 2), Tag(7), True, 2**70, -3])
        graph.add_edges_from([("s", (1, 2)), ((1, 2), Tag(7)),
                              (True, 2**70), (-3, "s")])
        csr = CSRGraph.from_graph(graph)
        assert isinstance(csr.labels, tuple)
        view = csr.view()
        assert [(type(label), label) for label in view] == \
               [(type(label), label) for label in graph.nodes]
        assert csr.as_arrays()[3].tolist() == list(graph.nodes)
        for node in graph.nodes:
            assert node in view and node in view.nodes
            assert list(view.neighbors(node)) == [
                label for label in graph.nodes
                if graph.has_edge(node, label)]
        assert "t" not in view and 2 not in view.nodes
        assert _reference_tables(graph)[1:] == tuple(
            list(table) for table in Network(view).csr_tables())

    def test_integer_labels_stay_words(self):
        import networkx as nx

        graph = nx.relabel_nodes(generators.path_graph(4),
                                 {0: -5, 1: 2**62, 2: 0, 3: 9})
        csr = CSRGraph.from_graph(graph)
        assert not isinstance(csr.labels, tuple)
        assert list(csr.labels) == [-5, 2**62, 0, 9]
        restored = CSRGraph.from_buffer(csr.to_bytes()).view()
        assert list(restored.neighbors(2**62)) == [-5, 0]

    def test_membership_builds_the_label_index_once(self):
        """``label in view`` and ``label in view.nodes`` share the view's
        cached label-to-row index instead of rescanning the labels."""

        class CountingLabels:
            def __init__(self, labels):
                self.labels = list(labels)
                self.scans = 0

            def __len__(self):
                return len(self.labels)

            def __getitem__(self, index):
                return self.labels[index]

            def __iter__(self):
                self.scans += 1
                return iter(self.labels)

        csr = generators.to_csr(generators.path_graph(50))
        labels = CountingLabels(csr.labels)
        view = CSRGraph(csr.n, csr.m, csr.offsets, csr.neighbors,
                        csr.arrivals, labels).view()
        for label in (0, 17, 49, 50, -1):
            assert (label in view) == (0 <= label < 50)
            assert (label in view.nodes) == (0 <= label < 50)
        assert labels.scans == 1

    def test_run_mis_byte_identical_between_representations(self):
        """The headline property: the exact same result record (modulo
        wall time) whether the algorithm runs over networkx adjacency or
        over flat CSR arrays."""
        for family in sorted(generators.FAMILIES):
            graph = generators.by_name(family, 32, seed=23)
            over_nx = run_mis(graph, algorithm="luby", seed=7,
                              collect_raw=False)
            over_csr = run_mis(generators.to_csr(graph).view(),
                               algorithm="luby", seed=7, collect_raw=False)
            assert _records_sans_wall_time(over_csr) == \
                   _records_sans_wall_time(over_nx), family


# --------------------------------------------------------------------------- #
# Serialisation
# --------------------------------------------------------------------------- #
class TestSerialisation:
    def test_buffer_round_trip(self, family_graph):
        original = generators.to_csr(family_graph)
        restored = CSRGraph.from_buffer(original.to_bytes())
        assert restored.n == original.n and restored.m == original.m
        for name in ("offsets", "neighbors", "arrivals", "labels"):
            assert list(getattr(restored, name)) == \
                   list(getattr(original, name)), name

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigurationError, match="bad magic"):
            CSRGraph.from_buffer(bytes(64))

    def test_truncated_buffer_rejected(self):
        buffer = generators.to_csr(generators.cycle_graph(6)).to_bytes()
        with pytest.raises(ConfigurationError, match="truncated"):
            CSRGraph.from_buffer(buffer[:-8])

    def test_pack_into_undersized_buffer_rejected(self):
        csr = generators.to_csr(generators.cycle_graph(6))
        with pytest.raises(ConfigurationError, match="words"):
            csr.pack_into(bytearray(csr.nbytes - 8))

    def test_pack_into_rejects_non_integer_labels(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, "b")])
        csr = CSRGraph.from_graph(graph)
        with pytest.raises(ConfigurationError, match="integer node labels"
                                                     ".*'b'"):
            csr.pack_into(bytearray(csr.nbytes))
        with pytest.raises(ConfigurationError, match="'b'"):
            csr.to_bytes()

    def test_from_graph_rejects_directed_graphs(self):
        import networkx as nx

        with pytest.raises(ConfigurationError, match="undirected"):
            CSRGraph.from_graph(nx.DiGraph([(0, 1)]))

    def test_from_graph_rejects_self_loops(self):
        import networkx as nx

        graph = nx.Graph([(0, 1)])
        graph.add_edge(1, 1)
        with pytest.raises(ConfigurationError, match="self-loops"):
            CSRGraph.from_graph(graph)

    def test_magic_word_spells_csrg(self):
        assert MAGIC.to_bytes(4, "big") == b"CSRG"


# --------------------------------------------------------------------------- #
# Numpy fast paths (construction, packing, zero-copy array views)
# --------------------------------------------------------------------------- #
class TestNumpyPaths:
    """Construction and packing must produce exactly the documented word
    layout, and ``as_arrays()`` must be zero-copy and read-only — the
    contract the vectorized engine and the graph statistics fast paths
    rely on."""

    @staticmethod
    def _reference_words(graph):
        """The serialised layout, derived from the reference tables."""
        labels, offsets, neighbors, arrivals = _reference_tables(graph)
        words = [MAGIC, len(labels), len(neighbors) // 2, *offsets,
                 *neighbors, *arrivals, *labels]
        return struct.pack(f"<{len(words)}q", *words)

    def test_construction_matches_the_reference_layout(self, family_graph):
        assert CSRGraph.from_graph(family_graph).to_bytes() == \
               self._reference_words(family_graph)

    def test_from_edges_matches_from_graph(self, family_graph):
        """Edges in any order and orientation give the same arrays."""
        import random

        edges = [(v, u) if index % 2 else (u, v)
                 for index, (u, v) in enumerate(family_graph.edges)]
        random.Random(3).shuffle(edges)
        built = CSRGraph.from_edges(family_graph.number_of_nodes(),
                                    [u for u, _ in edges],
                                    [v for _, v in edges])
        assert built.to_bytes() == \
               CSRGraph.from_graph(family_graph).to_bytes()

    def test_non_identity_labels_map_to_rows(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from([40, 7, 19, 3])
        graph.add_edges_from([(7, 3), (40, 19), (19, 3)])
        csr = CSRGraph.from_graph(graph)
        assert list(csr.labels) == [40, 7, 19, 3]
        assert csr.to_bytes() == self._reference_words(graph)

    @pytest.mark.parametrize("u, v, match", [
        ([0, 1], [1, 0], "parallel edges"),
        ([0, 0], [1, 1], "parallel edges"),
        ([0], [4], "row indices below 4"),
        ([-1], [2], "row indices below 4"),
        ([0, 1], [2], "disagree in length"),
    ])
    def test_from_edges_rejects_malformed_edge_lists(self, u, v, match):
        with pytest.raises(ConfigurationError, match=match):
            CSRGraph.from_edges(4, u, v)

    def test_as_arrays_values_and_read_only(self, family_graph):
        np = pytest.importorskip("numpy")
        csr = generators.to_csr(family_graph)
        offsets, neighbors, arrivals, labels = csr.as_arrays()
        assert offsets.tolist() == list(csr.offsets)
        assert neighbors.tolist() == list(csr.neighbors)
        assert arrivals.tolist() == list(csr.arrivals)
        assert labels.tolist() == list(csr.labels)
        for arr in (offsets, neighbors, arrivals, labels):
            assert arr.dtype == np.int64
            assert arr.flags.writeable is False
            if arr.size:
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_as_arrays_is_zero_copy(self):
        np = pytest.importorskip("numpy")
        csr = generators.to_csr(generators.cycle_graph(6))
        first = csr.as_arrays()
        second = csr.as_arrays()
        for a, b in zip(first, second):
            assert np.shares_memory(a, b)

    def test_as_arrays_survives_buffer_round_trip(self):
        pytest.importorskip("numpy")
        csr = generators.to_csr(generators.cycle_graph(6))
        restored = CSRGraph.from_buffer(csr.to_bytes())
        for mine, theirs in zip(csr.as_arrays(), restored.as_arrays()):
            assert mine.tolist() == theirs.tolist()


# --------------------------------------------------------------------------- #
# Shared-memory segment lifecycle
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
class TestSharedGraphCache:
    def test_hit_miss_and_attach_round_trip(self):
        cache = SharedGraphCache(max_entries=4)
        try:
            name = cache.get_or_create("gnp", 32, 5)
            assert name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")
            assert cache.get_or_create("gnp", 32, 5) == name
            assert cache.stats()["hits"] == 1
            assert cache.stats()["misses"] == 1

            view = attach_segment(name)
            assert isinstance(view, CSRGraphView)
            reference = generators.build_csr("gnp", 32, seed=5)
            assert list(view.csr.labels) == list(reference.labels)
            assert list(view.csr.neighbors) == list(reference.neighbors)
        finally:
            cache.close()

    def test_eviction_unlinks_exactly_the_evicted_segment(self):
        cache = SharedGraphCache(max_entries=2)
        try:
            first = cache.get_or_create("path", 8, 1)
            second = cache.get_or_create("path", 16, 1)
            third = cache.get_or_create("path", 24, 1)  # evicts `first`
            live = active_segments()
            assert first not in live
            assert second in live and third in live
            assert cache.stats()["evictions"] == 1
        finally:
            cache.close()

    def test_close_unlinks_everything_and_is_idempotent(self):
        cache = SharedGraphCache(max_entries=4)
        names = [cache.get_or_create("cycle", n, 3) for n in (8, 12)]
        assert all(name in active_segments() for name in names)
        cache.close()
        cache.close()  # idempotent: a second close must be a no-op
        assert not any(name in active_segments() for name in names)
        with pytest.raises(RuntimeError, match="closed"):
            cache.get_or_create("cycle", 8, 3)

    def test_fork_child_attaches_while_the_tracker_lock_is_held(self):
        """A worker's relay threads take the resource tracker's lock on
        every segment create and unlink.  A slot forked during one of
        those calls must still attach (which registers the segment on
        Python < 3.13) instead of blocking forever on the inherited,
        held lock."""
        import signal
        import threading
        from multiprocessing import resource_tracker

        cache = SharedGraphCache(max_entries=2)
        held, release = threading.Event(), threading.Event()

        def hold_tracker_lock():
            with resource_tracker._resource_tracker._lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold_tracker_lock)
        try:
            name = cache.get_or_create("path", 8, 4)
            holder.start()
            assert held.wait(10)
            pid = os.fork()
            if pid == 0:  # the child: exit 0 only if the attach returns
                status = 1
                try:
                    signal.alarm(10)
                    view = attach_segment(name)
                    status = 0 if view.number_of_nodes() == 8 else 1
                finally:
                    os._exit(status)
            _, wait_status = os.waitpid(pid, 0)
        finally:
            release.set()
            if holder.is_alive():
                holder.join()
            cache.close()
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 0

    def test_attach_missing_segment_raises_file_not_found(self):
        with pytest.raises(FileNotFoundError):
            attach_segment(f"{SEGMENT_PREFIX}-999999-gone")

    def test_reaper_unlinks_only_dead_owners(self):
        """A segment named for a dead pid is reaped; one named for this
        (live) process is left strictly alone."""
        # Find a pid that certainly does not exist.
        dead_pid = 2 ** 22 - 7
        while True:
            try:
                os.kill(dead_pid, 0)
            except ProcessLookupError:
                break
            except OSError:
                pass
            dead_pid -= 1
        orphan_name = f"{SEGMENT_PREFIX}-{dead_pid}-0"
        orphan = shared_memory.SharedMemory(name=orphan_name, create=True,
                                            size=64)
        cache = SharedGraphCache(max_entries=2)
        try:
            owned = cache.get_or_create("path", 8, 2)
            reaped = reap_stale_segments()
            assert orphan_name in reaped
            assert owned not in reaped
            assert owned in active_segments()
            assert orphan_name not in active_segments()
        finally:
            cache.close()
            orphan.close()
            # Already unlinked by the reaper; tracker bookkeeping only.
            try:
                orphan.unlink()
            except FileNotFoundError:
                pass
