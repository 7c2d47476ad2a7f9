"""Tests for the baseline algorithms: Luby, rank-greedy, naive greedy."""

from __future__ import annotations

import math

import pytest

from repro.algorithms.common import MISDecision, mis_from_result
from repro.algorithms.naive_greedy import naive_greedy_protocol
from repro.algorithms.vt_mis import assign_sequential_ids, vt_mis_protocol
from repro.core.mis import greedy_mis_from_order
from repro.experiments.harness import run_mis
from repro.graphs import generators
from repro.sim import run_protocol


class TestLuby:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_output_is_mis(self, small_gnp, seed):
        result = run_mis(small_gnp, algorithm="luby", seed=seed)
        assert result.verified

    def test_works_on_structured_graphs(self, any_small_graph):
        result = run_mis(any_small_graph, algorithm="luby", seed=5)
        assert result.verified

    def test_awake_complexity_logarithmicish(self):
        graph = generators.gnp_graph(256, expected_degree=10, seed=2)
        result = run_mis(graph, algorithm="luby", seed=3)
        # 2 rounds per iteration, O(log n) iterations w.h.p.; allow slack.
        assert result.metrics.awake_complexity <= 6 * math.log2(256)

    def test_isolated_nodes_join_immediately(self):
        graph = generators.empty_graph(5)
        result = run_mis(graph, algorithm="luby", seed=1)
        assert result.mis == set(graph.nodes)
        assert result.metrics.awake_complexity <= 2

    def test_decisions_record_iterations(self, small_gnp):
        result = run_mis(small_gnp, algorithm="luby", seed=9, keep_raw=True)
        for decision in result.raw.outputs.values():
            assert isinstance(decision, MISDecision)
            assert decision.detail["iterations"] >= 1


class TestRankGreedy:
    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_output_is_mis(self, small_gnp, seed):
        result = run_mis(small_gnp, algorithm="rank_greedy", seed=seed)
        assert result.verified

    def test_structured_graphs(self, any_small_graph):
        result = run_mis(any_small_graph, algorithm="rank_greedy", seed=2)
        assert result.verified

    def test_round_complexity_reasonable(self):
        graph = generators.gnp_graph(200, expected_degree=8, seed=7)
        result = run_mis(graph, algorithm="rank_greedy", seed=1)
        assert result.metrics.round_complexity <= 8 * math.log2(200)


class TestNaiveGreedy:
    def test_matches_vt_mis_lfmis(self, small_gnp):
        order = list(small_gnp.nodes)
        local_inputs = assign_sequential_ids(order)
        result = run_protocol(
            small_gnp, naive_greedy_protocol,
            inputs={"id_bound": len(order)},
            local_inputs=local_inputs, seed=1,
        )
        assert mis_from_result(result) == greedy_mis_from_order(small_gnp, order)

    def test_output_is_mis(self, any_small_graph):
        result = run_mis(any_small_graph, algorithm="naive_greedy", seed=3)
        assert result.verified

    def test_awake_complexity_is_linear_in_ids(self):
        graph = generators.path_graph(64)
        result = run_mis(graph, algorithm="naive_greedy", seed=1)
        vt = run_mis(graph, algorithm="vt_mis", seed=1)
        # The whole point of VT-MIS (Lemma 10): exponential awake gap.
        assert result.metrics.awake_complexity > 4 * vt.metrics.awake_complexity

    def test_last_id_node_clique(self):
        # The node with the largest ID in a clique never announces, which is
        # fine because all its neighbours decided earlier.
        graph = generators.complete_graph(5)
        result = run_mis(graph, algorithm="naive_greedy", seed=2)
        assert result.verified
        assert len(result.mis) == 1

    @pytest.mark.parametrize("ids, error", [
        ({0: 2, 2: 1}, ValueError),          # node 1 has no ID
        ({0: 2, 1: 4, 2: 1}, ValueError),    # 4 is outside [1, 3]
        ({0: 2, 1: 3, 2: 1.5}, TypeError),   # 1.5 is no integer
    ])
    def test_id_errors_match_vt_mis(self, ids, error):
        """Naive greedy reads and checks its ID as VT-MIS does: a missing,
        out-of-range or non-integer ID raises the same error, never a
        silently non-maximal output."""
        local_inputs = {label: {"id": value} for label, value in ids.items()}
        messages = []
        for protocol in (vt_mis_protocol, naive_greedy_protocol):
            with pytest.raises(error) as excinfo:
                run_protocol(generators.path_graph(3), protocol,
                             inputs={"id_bound": 3},
                             local_inputs=local_inputs, seed=1)
            messages.append(str(excinfo.value))
        assert messages[1] == messages[0]

    def test_requires_ids(self, path_graph):
        with pytest.raises(ValueError):
            run_protocol(path_graph, naive_greedy_protocol,
                         inputs={"id_bound": 5}, seed=1)
