"""Byte-identity of the numpy gnp and rgg builders with networkx.

``build_csr`` generates the ``gnp``, ``gnp_dense`` and ``rgg`` families
straight into CSR from numpy edge arrays, and ``gnp_graph`` /
``random_geometric`` build their networkx graphs from the same arrays.
Both must reproduce, byte for byte, what the networkx generators these
families were defined by produce for the same seeds.  This file is the
only place those raw networkx generators are still called.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.experiments.harness import available_algorithms, run_mis
from repro.graphs import generators
from repro.rng import make_rng

SIZES = [0, 1, 2, 3, 17, 128, 1000, 2048]
SEEDS = range(10)
EXPECTED_DEGREE = {"gnp": 8.0, "gnp_dense": 32.0, "rgg": 8.0}


def _stream_seed(seed):
    """The seed every family hands its networkx generator."""
    return make_rng(seed).randrange(2**31)


def _raw_networkx(family, n, seed):
    """The family exactly as networkx generates it (unnormalised)."""
    degree = EXPECTED_DEGREE[family]
    if family == "rgg":
        radius = math.sqrt(degree / (math.pi * max(1, n - 1)))
        return nx.random_geometric_graph(n, radius, seed=_stream_seed(seed))
    p = min(1.0, degree / max(1, n - 1))
    return nx.gnp_random_graph(n, p, seed=_stream_seed(seed))


def _normalized(graph):
    """What the generators used to return: a relabelled copy."""
    return nx.convert_node_labels_to_integers(nx.Graph(graph),
                                              ordering="sorted")


def _snapshot(graph):
    """Everything observable about a networkx graph, in iteration order."""
    return (graph.graph, list(graph.nodes(data=True)),
            list(graph.edges(data=True)),
            [list(graph.adj[node]) for node in graph])


class TestBuildCsrMatchesNetworkx:
    @pytest.mark.parametrize("family, n", [
        (family, n) for family in sorted(EXPECTED_DEGREE) for n in SIZES
        # networkx cannot build an empty rgg; see test_empty_rgg.
        if (family, n) != ("rgg", 0)])
    def test_arrays_identical(self, family, n):
        for seed in SEEDS:
            built = generators.build_csr(family, n, seed=seed)
            reference = generators.to_csr(_raw_networkx(family, n, seed))
            assert built.to_bytes() == reference.to_bytes(), (family, n, seed)

    def test_empty_rgg(self):
        """networkx's KD-tree path fails on zero points; the builder
        returns the empty graph instead."""
        with pytest.raises(ValueError):
            _raw_networkx("rgg", 0, 1)
        assert generators.build_csr("rgg", 0, seed=1).n == 0
        assert generators.random_geometric(0, seed=1).number_of_nodes() == 0


class TestEdgeCases:
    @pytest.mark.parametrize("p", [1.0, 1.5, 0.0, -0.5, 0.3])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 40])
    def test_gnp_probability_bounds(self, p, n):
        built = generators.gnp_graph(n, p=p, seed=5)
        reference = nx.gnp_random_graph(n, p, seed=_stream_seed(5))
        assert _snapshot(built) == _snapshot(_normalized(reference))
        u, v = generators.gnp_edge_arrays(n, p=p, seed=5)
        assert list(zip(u.tolist(), v.tolist())) == list(reference.edges())

    @pytest.mark.parametrize("radius", [1.2, 2.0, math.sqrt(2), 0.0, -0.3,
                                        0.05, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    def test_rgg_radius_bounds(self, radius, n):
        built = generators.random_geometric(n, radius=radius, seed=5)
        reference = nx.random_geometric_graph(n, radius,
                                              seed=_stream_seed(5))
        assert _snapshot(built) == _snapshot(_normalized(reference))

    def test_gnp_draw_blocks_do_not_change_edges(self, monkeypatch):
        reference = generators.gnp_edge_arrays(300, p=0.05, seed=2)
        monkeypatch.setattr(generators, "GNP_DRAW_BLOCK", 97)
        blocked = generators.gnp_edge_arrays(300, p=0.05, seed=2)
        assert [a.tolist() for a in blocked] == [a.tolist() for a in reference]

    def test_seed_instances_are_consumed_like_ints(self):
        """A Random seed yields one stream seed draw, as networkx's
        generators were always seeded."""
        shared = make_rng(8)
        first = generators.gnp_graph(50, p=0.1, seed=shared)
        second = generators.random_geometric(50, seed=shared)
        replay = make_rng(8)
        assert _snapshot(first) == _snapshot(_normalized(
            nx.gnp_random_graph(50, 0.1, seed=replay.randrange(2**31))))
        radius = math.sqrt(8.0 / (math.pi * 49))
        assert _snapshot(second) == _snapshot(_normalized(
            nx.random_geometric_graph(50, radius,
                                      seed=replay.randrange(2**31))))


class TestNetworkxFormUnchanged:
    @pytest.mark.parametrize("family", sorted(EXPECTED_DEGREE))
    @pytest.mark.parametrize("n", [1, 3, 17, 128, 600])
    def test_by_name_graphs_match_the_normalised_networkx_graph(
            self, family, n):
        for seed in range(3):
            built = generators.by_name(family, n, seed=seed)
            reference = _normalized(_raw_networkx(family, n, seed))
            assert _snapshot(built) == _snapshot(reference), (n, seed)


class TestEveryAlgorithmOnEveryForm:
    @pytest.mark.parametrize("family", sorted(generators.FAMILIES))
    def test_compact_results_identical(self, family):
        """Every registered algorithm gives the same compact result on the
        networkx graph and on the CSR view the graph caches serve."""
        graph = generators.by_name(family, 24, seed=3)
        view = generators.build_csr(family, 24, seed=3).view()
        for run_seed, algorithm in enumerate(available_algorithms()):
            over_nx = run_mis(graph, algorithm=algorithm, seed=run_seed,
                              collect_raw=False)
            over_csr = run_mis(view, algorithm=algorithm, seed=run_seed,
                               collect_raw=False)
            assert over_csr.verified
            assert over_csr.to_record() | {"wall_time_seconds": 0} == \
                   over_nx.to_record() | {"wall_time_seconds": 0}, algorithm
