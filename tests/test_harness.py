"""Tests for the single-run experiment harness (repro.experiments.harness)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MessageTooLargeError
from repro.experiments.harness import (
    ALGORITHM_PARAMS,
    available_algorithms,
    default_message_bit_limit,
    run_mis,
)
from repro.graphs import generators


class TestAvailability:
    def test_all_expected_algorithms_registered(self):
        names = available_algorithms()
        for expected in ("awake_mis", "ldt_mis", "vt_mis", "luby",
                         "naive_greedy", "rank_greedy"):
            assert expected in names

    def test_unknown_algorithm_rejected(self, small_gnp):
        with pytest.raises(ConfigurationError):
            run_mis(small_gnp, algorithm="does_not_exist")

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            run_mis(generators.empty_graph(0), algorithm="luby")

    @pytest.mark.parametrize("algorithm", ["vt_mis", "naive_greedy"])
    def test_id_bound_below_node_count_rejected(self, algorithm):
        """The harness numbers nodes 1..n, so a smaller ID bound is a
        configuration error up front, not a simulator ValueError."""
        graph = generators.path_graph(10)
        with pytest.raises(ConfigurationError,
                           match="id_bound=3 is below the node count 10"):
            run_mis(graph, algorithm=algorithm, id_bound=3)
        assert run_mis(graph, algorithm=algorithm, id_bound=10,
                       seed=1).verified

    @pytest.mark.parametrize("preset", ["papr", "Scaled", ""])
    def test_unknown_awake_mis_preset_rejected(self, preset):
        with pytest.raises(ConfigurationError,
                           match=f"unknown Awake-MIS preset {preset!r}"):
            run_mis(generators.path_graph(10), algorithm="awake_mis",
                    preset=preset)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    @pytest.mark.parametrize("key", ["variant", "prest"])
    def test_unknown_parameter_rejected(self, algorithm, key):
        """Refused up front with the algorithm's accepted keys, never
        silently ignored."""
        with pytest.raises(ConfigurationError) as excinfo:
            run_mis(generators.path_graph(10), algorithm=algorithm, seed=1,
                    **{key: "round"})
        accepted = ", ".join(sorted(ALGORITHM_PARAMS[algorithm]))
        assert str(excinfo.value) == (
            f"unknown parameter {key!r} for algorithm {algorithm!r}; "
            f"accepted: {accepted}")

    def test_every_unknown_parameter_is_named(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_mis(generators.path_graph(10), algorithm="luby", seed=1,
                    variant="rond", prest="paper")
        assert str(excinfo.value) == (
            "unknown parameters 'prest', 'variant' for algorithm 'luby'; "
            "accepted: max_iterations, message_bit_limit, trace, vectorized")



class TestRunLevelKeys:
    """Every adapter forwards ``trace``, ``message_bit_limit`` and
    ``vectorized`` to the simulator."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.gnp_graph(36, expected_degree=5, seed=4)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_trace_is_forwarded(self, graph, algorithm):
        result = run_mis(graph, algorithm=algorithm, seed=2, keep_raw=True,
                         trace=True)
        trace = result.raw.trace
        assert result.raw.engine == "generator"
        assert sum(map(len, trace.awake_by_round.values())) == (
            result.metrics.total_awake_rounds)
        assert len(trace.messages) == result.metrics.total_messages

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_message_bit_limit_is_forwarded(self, graph, algorithm):
        with pytest.raises(MessageTooLargeError, match=r"\(limit 1\)"):
            run_mis(graph, algorithm=algorithm, seed=2, message_bit_limit=1)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_generator_loop_agrees_with_the_default(self, graph, algorithm):
        default = run_mis(graph, algorithm=algorithm, seed=2)
        loop = run_mis(graph, algorithm=algorithm, seed=2, keep_raw=True,
                       vectorized=False)
        assert loop.raw.engine == "generator"
        assert loop.mis == default.mis
        assert loop.metrics.summary() == default.metrics.summary()


class TestRunMIS:
    @pytest.mark.parametrize("algorithm", ["vt_mis", "luby", "rank_greedy",
                                           "naive_greedy", "ldt_mis",
                                           "awake_mis"])
    def test_every_algorithm_verifies(self, algorithm):
        graph = generators.gnp_graph(36, expected_degree=5, seed=4)
        result = run_mis(graph, algorithm=algorithm, seed=2)
        assert result.verified
        assert result.independent and result.maximal
        assert result.algorithm == algorithm
        assert result.graph_nodes == 36

    def test_summary_keys(self, small_gnp):
        result = run_mis(small_gnp, algorithm="luby", seed=1)
        summary = result.summary()
        for key in ("algorithm", "n", "m", "mis_size", "verified",
                    "awake_complexity", "round_complexity",
                    "node_averaged_awake", "wall_time_s"):
            assert key in summary

    def test_congest_limit_default(self):
        assert default_message_bit_limit(1024) == 64 * 11
        assert default_message_bit_limit(2) >= 64

    def test_keep_raw_exposes_outputs(self, small_gnp):
        result = run_mis(small_gnp, algorithm="luby", seed=3, keep_raw=True)
        assert result.raw is not None
        assert set(result.raw.outputs) == set(small_gnp.nodes)

    def test_raw_dropped_by_default(self, small_gnp):
        result = run_mis(small_gnp, algorithm="luby", seed=3)
        assert result.raw is None

    def test_verification_can_be_disabled(self, small_gnp):
        result = run_mis(small_gnp, algorithm="luby", seed=3, verify=False)
        assert result.verified  # trivially true when not checked

    def test_seed_reproducibility(self, small_gnp):
        first = run_mis(small_gnp, algorithm="awake_mis", seed=12)
        second = run_mis(small_gnp, algorithm="awake_mis", seed=12)
        assert first.mis == second.mis
        assert first.metrics.awake_complexity == second.metrics.awake_complexity

    def test_congest_enforcement_passes_for_shipped_protocols(self, small_gnp):
        # enforce_congest=True is the default; it must not reject any of the
        # CONGEST algorithms of the paper.
        for algorithm in ("vt_mis", "ldt_mis", "awake_mis"):
            result = run_mis(small_gnp, algorithm=algorithm, seed=5,
                             enforce_congest=True)
            assert result.verified

    @pytest.mark.parametrize("algorithm", ["luby", "rank_greedy"])
    @pytest.mark.parametrize("switch, engine", [
        ({}, "vectorized"), ({"vectorized": True}, "vectorized"),
        ({"vectorized": False}, "generator")], ids=["default", "on", "off"])
    def test_vectorized_is_forwarded(self, small_gnp, algorithm, switch,
                                     engine):
        result = run_mis(small_gnp, algorithm=algorithm, seed=3,
                         keep_raw=True, **switch)
        assert result.raw.engine == engine
        assert result.metrics.max_message_bits is not None  # CONGEST on

    @pytest.mark.parametrize("algorithm, text", [
        ("luby", "Luby did not terminate within 1 iterations"),
        ("rank_greedy", "rank-greedy did not terminate within 1 iterations"),
    ])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_max_iterations_is_forwarded(self, algorithm, text, vectorized):
        graph = generators.gnp_graph(36, expected_degree=5, seed=4)
        with pytest.raises(RuntimeError, match=text):
            run_mis(graph, algorithm=algorithm, seed=2, max_iterations=1,
                    vectorized=vectorized)
