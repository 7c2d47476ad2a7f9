"""Tests for workload graph generators and statistics."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import generators, properties


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(generators.FAMILIES))
    def test_family_produces_simple_graph(self, name):
        graph = generators.by_name(name, 32, seed=1)
        assert isinstance(graph, nx.Graph)
        assert not graph.is_directed()
        assert list(graph.nodes) == list(range(graph.number_of_nodes()))
        assert not list(nx.selfloop_edges(graph))

    def test_unknown_family_rejected(self):
        # UnknownFamilyError is still a KeyError, so historical callers
        # catching the mapping miss keep working.
        with pytest.raises(KeyError):
            generators.by_name("nope", 10)

    def test_unknown_family_error_type_and_rendering(self):
        from repro.errors import ConfigurationError, UnknownFamilyError

        with pytest.raises(UnknownFamilyError) as excinfo:
            generators.by_name("nope", 10)
        error = excinfo.value
        assert isinstance(error, ConfigurationError)  # CLI renders these
        # str() must be the plain message, not KeyError's repr-quoted form.
        message = str(error)
        assert message.startswith("unknown graph family 'nope'")
        assert "known:" in message and "gnp" in message
        assert not message.startswith('"')

    def test_gnp_requires_exactly_one_density_parameter(self):
        with pytest.raises(ValueError):
            generators.gnp_graph(10)
        with pytest.raises(ValueError):
            generators.gnp_graph(10, p=0.5, expected_degree=3)

    def test_gnp_expected_degree(self):
        graph = generators.gnp_graph(600, expected_degree=10.0, seed=2)
        average = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 7.0 < average < 13.0

    def test_gnp_seed_reproducible(self):
        a = generators.gnp_graph(80, p=0.1, seed=5)
        b = generators.gnp_graph(80, p=0.1, seed=5)
        assert sorted(a.edges) == sorted(b.edges)

    def test_path_cycle_shapes(self):
        assert generators.path_graph(10).number_of_edges() == 9
        assert generators.cycle_graph(10).number_of_edges() == 10

    def test_complete_graph_edges(self):
        graph = generators.complete_graph(8)
        assert graph.number_of_edges() == 8 * 7 // 2

    def test_star_graph_shape(self):
        graph = generators.star_graph(9)
        degrees = sorted(d for _, d in graph.degree())
        assert degrees == [*([1] * 8), 8]

    def test_complete_bipartite(self):
        graph = generators.complete_bipartite_graph(3, 4)
        assert graph.number_of_nodes() == 7
        assert graph.number_of_edges() == 12

    def test_grid_graph(self):
        graph = generators.grid_graph(4, 5)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 4 * 4 + 3 * 5

    def test_random_tree_is_tree(self):
        graph = generators.random_tree(40, seed=3)
        assert nx.is_tree(graph)

    def test_random_tree_tiny(self):
        assert generators.random_tree(1).number_of_nodes() == 1
        assert generators.random_tree(2).number_of_edges() == 1

    def test_binary_tree(self):
        graph = generators.binary_tree(3)
        assert nx.is_tree(graph)
        assert graph.number_of_nodes() == 15

    def test_random_geometric_connectedish(self):
        graph = generators.random_geometric(200, seed=4, expected_degree=12)
        average = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert average > 4

    def test_random_regular_degree(self):
        graph = generators.random_regular(20, degree=4, seed=5)
        assert all(d == 4 for _, d in graph.degree())

    def test_bounded_degree_respects_cap(self):
        graph = generators.bounded_degree_graph(300, max_degree=5, seed=6)
        assert max(d for _, d in graph.degree()) <= 5

    def test_bounded_degree_zero(self):
        graph = generators.bounded_degree_graph(10, max_degree=0, seed=1)
        assert graph.number_of_edges() == 0

    def test_bounded_degree_negative_rejected(self):
        with pytest.raises(ValueError):
            generators.bounded_degree_graph(10, max_degree=-1)

    def test_barabasi_albert(self):
        graph = generators.barabasi_albert(100, attachments=2, seed=7)
        assert graph.number_of_nodes() == 100
        assert nx.is_connected(graph)

    def test_caveman(self):
        graph = generators.caveman(4, 5, seed=8)
        assert graph.number_of_nodes() == 20


class TestProperties:
    def test_graph_stats(self, small_gnp):
        stats = properties.graph_stats(small_gnp)
        assert stats.nodes == small_gnp.number_of_nodes()
        assert stats.edges == small_gnp.number_of_edges()
        assert stats.max_degree == max(d for _, d in small_gnp.degree())
        assert stats.as_dict()["nodes"] == stats.nodes

    def test_graph_stats_empty(self):
        stats = properties.graph_stats(nx.Graph())
        assert stats.nodes == 0
        assert stats.average_degree == 0.0

    def test_component_sizes(self, disconnected_graph):
        sizes = properties.component_sizes(disconnected_graph)
        assert sum(sizes) == disconnected_graph.number_of_nodes()
        assert sizes == sorted(sizes, reverse=True)

    def test_degree_histogram(self):
        graph = generators.star_graph(5)
        histogram = properties.degree_histogram(graph)
        assert histogram == {1: 4, 4: 1}

    @pytest.mark.parametrize("family", sorted(generators.FAMILIES))
    def test_statistics_match_networkx(self, family):
        """networkx's own routines are the reference for the CSR pass."""
        graph = generators.by_name(family, 60, seed=2)
        n = graph.number_of_nodes()
        graph.add_nodes_from(range(n, n + 3))  # isolated rows
        sizes = sorted(map(len, nx.connected_components(graph)), reverse=True)
        degrees = [degree for _, degree in graph.degree()]
        assert properties.component_sizes(graph) == sizes
        assert properties.degree_histogram(graph) == {
            degree: degrees.count(degree) for degree in sorted(set(degrees))}
        stats = properties.graph_stats(graph)
        assert (stats.max_degree, stats.components,
                stats.largest_component) == (max(degrees), len(sizes),
                                             sizes[0])
