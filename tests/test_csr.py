"""CSR graph representation tests (repro.graphs.csr, repro.sim.network).

The shared-memory graph cache ships graphs between worker processes as
flat CSR arrays, so everything downstream must be *byte-identical*
between the adjacency-list representation (``Network`` over a networkx
graph) and the CSR one (``CSRNetwork`` over ``CSRGraph`` arrays).  These
tests pin that equivalence property for every registered graph family,
the serialisation round-trip, and the shared-memory segment lifecycle
(owned by the serving process, unlinked exactly once, orphans reaped).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import run_mis
from repro.experiments.shm_cache import (SEGMENT_PREFIX, SharedGraphCache,
                                         active_segments, attach_segment,
                                         reap_stale_segments)
from repro.graphs import generators
from repro.graphs.csr import MAGIC, CSRGraph, CSRGraphView
from repro.sim.network import CSRNetwork, Network, build_network


@pytest.fixture(params=sorted(generators.FAMILIES))
def family_graph(request):
    """One modest instance of every registered graph family."""
    return generators.by_name(request.param, 48, seed=17)


def _records_sans_wall_time(result):
    record = result.to_record()
    record.pop("wall_time_seconds", None)
    return record


# --------------------------------------------------------------------------- #
# Network-view equivalence (the property the whole fast path rests on)
# --------------------------------------------------------------------------- #
class TestNetworkEquivalence:
    def test_csr_network_matches_network_on_every_family(self, family_graph):
        """Same labels, same ports, same tables — on every family.

        ``Network`` derives its arrival ports with its own counting pass,
        so it is the oracle for ``CSRGraph.from_graph``'s lexsort."""
        reference = Network(family_graph)
        csr_net = CSRNetwork(generators.to_csr(family_graph))

        assert csr_net.size == reference.size
        assert csr_net.edge_count == reference.edge_count
        assert csr_net.labels() == reference.labels()
        assert csr_net.max_degree() == reference.max_degree()
        for index in range(reference.size):
            assert csr_net.degree(index) == reference.degree(index)
            assert csr_net.label_of(index) == reference.label_of(index)
            assert csr_net.index_of(reference.label_of(index)) == index
        assert [list(table) for table in csr_net.csr_tables()] == \
               [list(table) for table in reference.csr_tables()]

    def test_port_routing_agrees_everywhere(self, family_graph):
        reference = Network(family_graph)
        csr_net = CSRNetwork(generators.to_csr(family_graph))
        for index in range(reference.size):
            for port in range(reference.degree(index)):
                neighbor = reference.neighbor_via_port(index, port)
                assert csr_net.neighbor_via_port(index, port) == neighbor
                assert csr_net.port_towards(index, neighbor) == \
                       reference.port_towards(index, neighbor)

    def test_out_of_range_port_rejected(self):
        csr_net = CSRNetwork(generators.to_csr(generators.path_graph(4)))
        with pytest.raises(ConfigurationError, match="ports"):
            csr_net.neighbor_via_port(0, 5)

    def test_non_adjacent_port_towards_rejected(self):
        csr_net = CSRNetwork(generators.to_csr(generators.path_graph(4)))
        with pytest.raises(ConfigurationError, match="not adjacent"):
            csr_net.port_towards(0, 3)

    def test_csr_tables_on_both_networks(self):
        graph = generators.gnp_graph(24, p=0.2, seed=5)
        for network in (Network(graph), CSRNetwork(generators.to_csr(graph))):
            offsets, neighbors, arrivals = network.csr_tables()
            assert len(offsets) == graph.number_of_nodes() + 1
            assert len(neighbors) == len(arrivals) == \
                   2 * graph.number_of_edges()
            for index in range(network.size):
                for port in range(network.degree(index)):
                    neighbor = neighbors[offsets[index] + port]
                    assert arrivals[offsets[index] + port] == \
                           network.port_towards(neighbor, index)

    def test_build_network_dispatches_on_type(self):
        graph = generators.cycle_graph(8)
        assert isinstance(build_network(graph), Network)
        csr = generators.to_csr(graph)
        assert isinstance(build_network(csr), CSRNetwork)
        assert isinstance(build_network(csr.view()), CSRNetwork)


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

    def test_has_edge_both_orientations(self):
        graph = generators.path_graph(5)
        view = generators.to_csr(graph).view()
        assert view.has_edge(1, 2) and view.has_edge(2, 1)
        assert not view.has_edge(0, 4)

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

    def test_from_graph_rejects_non_integer_labels(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(ConfigurationError, match="integer node labels"):
            CSRGraph.from_graph(graph)

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
    """The numpy construction/packing paths must be byte-identical to the
    portable Python paths, and ``as_arrays()`` must be zero-copy and
    read-only — the contract the vectorized engine and the graph
    statistics fast paths rely on."""

    def test_numpy_and_python_construction_agree(self, family_graph,
                                                 monkeypatch):
        import repro.graphs.csr as csr_module

        if csr_module._numpy is None:
            pytest.skip("numpy not installed")
        with_numpy = CSRGraph.from_graph(family_graph).to_bytes()
        monkeypatch.setattr(csr_module, "_numpy", None)
        pure_python = CSRGraph.from_graph(family_graph).to_bytes()
        assert with_numpy == pure_python

    def test_pack_into_paths_agree(self, family_graph, monkeypatch):
        import repro.graphs.csr as csr_module

        if csr_module._numpy is None:
            pytest.skip("numpy not installed")
        csr = generators.to_csr(family_graph)
        with_numpy = csr.to_bytes()
        monkeypatch.setattr(csr_module, "_numpy", None)
        assert csr.to_bytes() == with_numpy

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

    def test_as_arrays_requires_numpy(self, monkeypatch):
        import repro.graphs.csr as csr_module

        csr = generators.to_csr(generators.cycle_graph(6))
        monkeypatch.setattr(csr_module, "_numpy", None)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            csr.as_arrays()


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
