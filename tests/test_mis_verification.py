"""Tests for MIS definitions and verification (repro.core.mis)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mis
from repro.errors import VerificationError
from repro.graphs import generators


class TestIndependence:
    def test_empty_set_is_independent(self, small_gnp):
        assert mis.is_independent_set(small_gnp, set())

    def test_single_node_is_independent(self, small_gnp):
        node = next(iter(small_gnp.nodes))
        assert mis.is_independent_set(small_gnp, {node})

    def test_adjacent_pair_is_not_independent(self, path_graph):
        assert not mis.is_independent_set(path_graph, {0, 1})

    def test_alternating_path_nodes_are_independent(self, path_graph):
        chosen = set(range(0, path_graph.number_of_nodes(), 2))
        assert mis.is_independent_set(path_graph, chosen)

    def test_unknown_node_is_rejected(self, path_graph):
        assert not mis.is_independent_set(path_graph, {999})


class TestMaximality:
    def test_empty_set_not_maximal_on_nonempty_graph(self, small_gnp):
        assert not mis.is_maximal_independent_set(small_gnp, set())

    def test_every_other_path_node_is_maximal(self):
        graph = generators.path_graph(7)
        assert mis.is_maximal_independent_set(graph, {0, 2, 4, 6})

    def test_missing_coverage_detected(self):
        graph = generators.path_graph(7)
        assert not mis.is_maximal_independent_set(graph, {0, 2})

    def test_clique_mis_is_any_single_node(self, clique):
        assert mis.is_maximal_independent_set(clique, {3})
        assert not mis.is_maximal_independent_set(clique, {1, 2})

    def test_star_center_or_leaves(self, star):
        degrees = dict(star.degree())
        center = max(degrees, key=degrees.get)
        leaves = set(star.nodes) - {center}
        assert mis.is_maximal_independent_set(star, {center})
        assert mis.is_maximal_independent_set(star, leaves)

    def test_isolated_nodes_must_be_included(self):
        graph = generators.empty_graph(4)
        assert not mis.is_maximal_independent_set(graph, {0, 1})
        assert mis.is_maximal_independent_set(graph, {0, 1, 2, 3})


class TestHelpers:
    def test_uncovered_nodes(self):
        graph = generators.path_graph(5)
        assert set(mis.uncovered_nodes(graph, {0})) == {2, 3, 4}

    def test_conflicting_edges(self):
        graph = generators.path_graph(4)
        conflicts = mis.conflicting_edges(graph, {1, 2})
        assert conflicts == [(1, 2)]

    def test_verify_mis_passes_for_valid(self, small_gnp):
        valid = nx.maximal_independent_set(small_gnp, seed=1)
        assert mis.verify_mis(small_gnp, valid) == set(valid)

    def test_verify_mis_raises_on_conflict(self, path_graph):
        with pytest.raises(VerificationError, match="not independent"):
            mis.verify_mis(path_graph, {0, 1})

    def test_verify_mis_raises_on_uncovered(self, path_graph):
        with pytest.raises(VerificationError, match="not maximal"):
            mis.verify_mis(path_graph, {0})


class TestGreedyFromOrder:
    def test_path_natural_order(self):
        graph = generators.path_graph(6)
        assert mis.greedy_mis_from_order(graph, range(6)) == {0, 2, 4}

    def test_path_reverse_order(self):
        graph = generators.path_graph(6)
        assert mis.greedy_mis_from_order(graph, reversed(range(6))) == {5, 3, 1}

    def test_order_must_be_permutation(self, path_graph):
        with pytest.raises(ValueError):
            mis.greedy_mis_from_order(path_graph, [0, 1, 2])

    def test_result_is_always_mis(self, any_small_graph):
        order = list(any_small_graph.nodes)
        result = mis.greedy_mis_from_order(any_small_graph, order)
        assert mis.is_maximal_independent_set(any_small_graph, result)

    def test_first_node_always_joins(self, any_small_graph):
        order = list(any_small_graph.nodes)
        result = mis.greedy_mis_from_order(any_small_graph, order)
        assert order[0] in result

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
    def test_greedy_property_on_random_graphs(self, n, rng):
        graph = nx.gnp_random_graph(n, 0.25, seed=rng.randrange(2**31))
        order = list(graph.nodes)
        rng.shuffle(order)
        result = mis.greedy_mis_from_order(graph, order)
        assert mis.is_independent_set(graph, result)
        assert mis.is_maximal_independent_set(graph, result)


# --------------------------------------------------------------------------- #
# The CSR path must agree with the networkx path, messages included
# --------------------------------------------------------------------------- #
def _outcome(check, *args):
    """``("ok", value)`` or ``("error", type name, message)``."""
    try:
        return ("ok", check(*args))
    except VerificationError as error:
        return ("error", type(error).__name__, str(error))


@st.composite
def labelled_graphs_with_candidates(draw):
    """A graph with shuffled integer labels and unsorted adjacency, plus a
    candidate set that may include a non-node."""
    n = draw(st.integers(min_value=0, max_value=24))
    labels = draw(st.permutations(range(0, 3 * n + 1, 3)))[:n]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                  if pairs else st.just([]))
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        graph.add_edge(labels[u], labels[v])
    candidate = set(draw(st.lists(st.sampled_from(labels)))
                    if labels else [])
    if draw(st.booleans()):
        candidate.add(draw(st.sampled_from([-1, 1, "stranger"])))
    return graph, candidate


class TestCSRPathAgreesWithNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs_with_candidates())
    def test_every_verifier_agrees(self, case):
        graph, candidate = case
        view = generators.to_csr(graph).view()
        for check in (mis.is_independent_set, mis.is_maximal_independent_set,
                      mis.uncovered_nodes, mis.conflicting_edges,
                      mis.verify_mis):
            assert _outcome(check, view, candidate) == \
                   _outcome(check, graph, candidate), check.__name__

    @pytest.mark.parametrize("family", sorted(generators.FAMILIES))
    def test_greedy_mis_verifies_on_both(self, family):
        graph = generators.by_name(family, 60, seed=4)
        view = generators.build_csr(family, 60, seed=4).view()
        chosen = mis.greedy_mis_from_order(graph, list(graph.nodes))
        assert mis.is_maximal_independent_set(view, chosen)
        assert mis.verify_mis(view, chosen) == chosen
        broken = set(chosen)
        broken.discard(min(broken))
        assert _outcome(mis.verify_mis, view, broken) == \
               _outcome(mis.verify_mis, graph, broken)

    def test_conflicts_come_out_in_node_order(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2, 3])
        graph.add_edges_from([(0, 3), (0, 1), (2, 1)])
        assert mis.conflicting_edges(graph, {0, 1, 2, 3}) == \
               [(0, 1), (0, 3), (1, 2)]
        with pytest.raises(VerificationError,
                           match=r"3 conflicting edge\(s\), e\.g\. "
                                 r"\[\(0, 1\), \(0, 3\), \(1, 2\)\]"):
            mis.verify_mis(generators.to_csr(graph).view(), {0, 1, 2, 3})
