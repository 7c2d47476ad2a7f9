"""Tests for graph shattering by random partition (Lemma 3)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import shattering
from repro.graphs import generators


class TestPartition:
    def test_every_node_assigned(self, small_gnp):
        assignment = shattering.random_partition(small_gnp, classes=6, seed=1)
        assert set(assignment) == set(small_gnp.nodes)
        assert all(1 <= c <= 6 for c in assignment.values())

    def test_single_class(self, small_gnp):
        assignment = shattering.random_partition(small_gnp, classes=1, seed=1)
        assert set(assignment.values()) == {1}

    def test_invalid_class_count(self, small_gnp):
        with pytest.raises(ValueError):
            shattering.random_partition(small_gnp, classes=0)


def _reference_largest_per_class(graph, assignment):
    """One induced networkx subgraph per class, measured on its own."""
    by_class = {}
    for node, cls in assignment.items():
        by_class.setdefault(cls, []).append(node)
    return {cls: max(map(len, nx.connected_components(graph.subgraph(nodes))),
                     default=0)
            for cls, nodes in by_class.items()}


class TestLargestComponentPerClass:
    @pytest.mark.parametrize("family", ["gnp", "tree", "caveman", "rgg",
                                        "star", "clique", "path"])
    @pytest.mark.parametrize("classes", [1, 2, 5, 16])
    def test_matches_per_class_subgraphs(self, family, classes):
        graph = generators.by_name(family, 80, seed=classes)
        assignment = shattering.random_partition(graph, classes, seed=3)
        measured = shattering.largest_component_per_class(graph, assignment)
        expected = _reference_largest_per_class(graph, assignment)
        assert list(measured.items()) == list(expected.items())

    def test_string_labels_and_csr_views_agree(self, small_gnp):
        graph = nx.relabel_nodes(small_gnp, {v: f"v{v}" for v in small_gnp})
        assignment = shattering.random_partition(graph, 4, seed=2)
        assert shattering.largest_component_per_class(graph, assignment) == \
               _reference_largest_per_class(graph, assignment)
        view = generators.to_csr(small_gnp).view()
        assignment = shattering.random_partition(view, 4, seed=2)
        assert shattering.largest_component_per_class(view, assignment) == \
               _reference_largest_per_class(small_gnp, assignment)

    def test_single_class_is_the_largest_component(self, disconnected_graph):
        assignment = dict.fromkeys(disconnected_graph.nodes, 1)
        assert shattering.largest_component_per_class(
            disconnected_graph, assignment) == \
            {1: max(map(len, nx.connected_components(disconnected_graph)))}


class TestLemma3:
    def test_bound_formula(self):
        # 6 * ln(100 / 0.5) = 31.79...
        assert shattering.lemma3_bound(100, epsilon=0.5) == pytest.approx(31.79, abs=1e-2)
        # Smaller epsilon means a larger (safer) bound.
        assert shattering.lemma3_bound(100, epsilon=0.01) > \
            shattering.lemma3_bound(100, epsilon=0.5)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            shattering.lemma3_bound(0)
        with pytest.raises(ValueError):
            shattering.lemma3_bound(10, epsilon=0.0)
        with pytest.raises(ValueError):
            shattering.lemma3_bound(10, epsilon=1.5)

    def test_measurement_on_bounded_degree_graph(self):
        graph = generators.bounded_degree_graph(600, max_degree=8, seed=4)
        measurement = shattering.measure_shattering(graph, seed=5)
        assert measurement.classes == 2 * measurement.max_degree
        assert measurement.within_bound

    def test_profile_respects_bound_with_high_probability(self):
        graph = generators.bounded_degree_graph(500, max_degree=10, seed=6)
        measurements = shattering.shattering_profile(graph, trials=5, seed=7)
        assert shattering.empirical_failure_rate(measurements) == 0.0

    def test_under_partition_is_not_shattered(self):
        # Negative control: with 2 classes instead of 2*Delta a near-giant
        # component survives, far above the Lemma 3 bound.
        graph = generators.bounded_degree_graph(800, max_degree=12, seed=8)
        measurement = shattering.measure_shattering(graph, seed=9, classes=2)
        assert measurement.largest_component > measurement.lemma_bound

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            shattering.measure_shattering(generators.empty_graph(0))

    def test_edgeless_graph_components_are_singletons(self):
        graph = generators.empty_graph(30)
        measurement = shattering.measure_shattering(graph, seed=1)
        assert measurement.largest_component == 1

    def test_failure_rate_empty_input(self):
        assert shattering.empirical_failure_rate([]) == 0.0
