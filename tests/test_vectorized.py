"""Tests for the numpy whole-round engine (:mod:`repro.sim.vectorized`).

The engine's contract is "bytes never change, only wall-clock": these
tests pin three-way agreement (metered generator loop / unmetered
generator loop / vectorized engine) across graph families and seeds, the
dispatch gating
(``vectorized`` tri-state), equal RNG consumption per node stream, the
whole-round array primitives, and identical safety-valve messages.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.luby import luby_protocol
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.generators import by_name, to_csr
from repro.rng import derive_seed
from repro.sim.network import build_network
from repro.sim.runner import Simulator, run_protocol
from repro.sim.vectorized import VectorizedRun

np = pytest.importorskip("numpy")

INPUTS = {"max_iterations": 4096}

#: Families safe at small n (``regular`` needs n*degree even, ``powerlaw``
#: needs n > attachments — excluded to keep the strategy total).
PROPERTY_FAMILIES = ("gnp", "gnp_dense", "tree", "path", "cycle", "star",
                     "clique", "caveman")


def _summarize(result):
    """Every byte an engine is allowed to influence — i.e. none."""
    per_node = [
        (node.awake_rounds, node.messages_sent, node.messages_received,
         node.terminated_round)
        for node in result.metrics.per_node
    ]
    return (result.outputs, list(result.outputs), per_node,
            result.awake_by_label, result.metrics.active_rounds,
            result.metrics.last_active_round, result.metrics.bits_metered)


def _run_three_ways(graph, seed):
    fast = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=seed,
                        vectorized=False)
    vectorized = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=seed,
                              vectorized=True)
    metered = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=seed,
                           message_bit_limit=100_000)
    return fast, vectorized, metered


# --------------------------------------------------------------------------- #
# Engine dispatch
# --------------------------------------------------------------------------- #
class TestEngineDispatch:
    def _spy(self, monkeypatch):
        calls = []
        original = luby_protocol.vectorized_engine

        def engine(run):
            calls.append(run.n)
            return original(run)

        monkeypatch.setattr(luby_protocol, "vectorized_engine", engine)
        return calls

    def test_auto_engages_for_opted_in_protocol(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1)
        assert calls == [24]

    def test_vectorized_false_pins_the_generator_loop(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                     vectorized=False)
        assert calls == []

    def test_tracing_falls_back_silently(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        result = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                              trace=True)
        assert calls == []
        assert result.trace is not None

    def test_bit_limit_falls_back_silently(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        result = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                              message_bit_limit=100_000)
        assert calls == []
        assert result.metrics.bits_metered is True

    def test_vectorized_true_requires_a_hook(self):
        def plain_protocol(ctx):
            if False:  # pragma: no cover - makes this a generator function
                yield
            return True

        graph = by_name("path", 4)
        with pytest.raises(ConfigurationError,
                           match="no vectorized_engine hook"):
            run_protocol(graph, plain_protocol, seed=1, vectorized=True)

    def test_vectorized_true_rejects_tracing(self):
        graph = by_name("path", 4)
        with pytest.raises(ConfigurationError, match="tracing is enabled"):
            run_protocol(graph, luby_protocol, seed=1, trace=True,
                         vectorized=True)

    def test_vectorized_true_rejects_congest_metering(self):
        graph = by_name("path", 4)
        with pytest.raises(ConfigurationError, match="CONGEST metering"):
            run_protocol(graph, luby_protocol, seed=1,
                         message_bit_limit=1024, vectorized=True)


# --------------------------------------------------------------------------- #
# Three-way byte identity
# --------------------------------------------------------------------------- #
class TestThreeWayByteIdentity:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_engines_agree_on_gnp(self, seed):
        graph = by_name("gnp", 48, seed=2)
        fast, vectorized, metered = _run_three_ways(graph, seed)
        assert _summarize(vectorized) == _summarize(fast)
        # The metered run measures bits; everything else must match.
        assert _summarize(vectorized)[:-1] == _summarize(metered)[:-1]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_engines_agree_on_csr_representation(self, seed):
        graph = by_name("gnp", 48, seed=2)
        csr = to_csr(graph).view()
        fast, vectorized, metered = _run_three_ways(csr, seed)
        assert _summarize(vectorized) == _summarize(fast)
        assert _summarize(vectorized)[:-1] == _summarize(metered)[:-1]
        # and the CSR run matches the adjacency-list run byte for byte
        assert _summarize(vectorized) == _summarize(
            run_protocol(graph, luby_protocol, inputs=INPUTS, seed=seed,
                         vectorized=True))

    def test_edgeless_graph(self):
        graph = by_name("path", 1)
        fast, vectorized, _ = _run_three_ways(graph, seed=7)
        assert _summarize(vectorized) == _summarize(fast)

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(PROPERTY_FAMILIES),
        n=st.integers(min_value=2, max_value=40),
        graph_seed=st.integers(min_value=0, max_value=10),
        run_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_engines_agree(self, family, n, graph_seed, run_seed):
        graph = by_name(family, n, seed=graph_seed)
        fast = run_protocol(graph, luby_protocol, inputs=INPUTS,
                            seed=run_seed, vectorized=False)
        vectorized = run_protocol(graph, luby_protocol, inputs=INPUTS,
                                  seed=run_seed, vectorized=True)
        assert _summarize(vectorized) == _summarize(fast)


# --------------------------------------------------------------------------- #
# RNG stream discipline
# --------------------------------------------------------------------------- #
class CountingRandom(random.Random):
    """A Random that tallies ``randrange`` draws into a shared counter."""

    def __init__(self, seed, counts, index):
        super().__init__(seed)
        self._counts = counts
        self._index = index

    def randrange(self, *args, **kwargs):
        self._counts[self._index] += 1
        return super().randrange(*args, **kwargs)


class TestRngConsumption:
    def test_engines_consume_identical_draws_per_node(self, monkeypatch):
        """Both engines must draw the same number of priorities from the
        same per-node streams — the property that makes them bit-identical
        and keeps future protocol changes honest about RNG discipline."""
        import repro.sim.runner as runner_module
        import repro.sim.vectorized as vectorized_module

        graph = by_name("gnp", 32, seed=9)
        master = 17

        generator_counts = [0] * 32
        monkeypatch.setattr(
            runner_module, "spawn_rng",
            lambda seed, index: CountingRandom(
                derive_seed(seed, index), generator_counts, index))
        run_protocol(graph, luby_protocol, inputs=INPUTS, seed=master,
                     vectorized=False)

        vectorized_counts = [0] * 32
        monkeypatch.setattr(
            vectorized_module, "spawn_rngs",
            lambda seed, count: [
                CountingRandom(derive_seed(seed, i), vectorized_counts, i)
                for i in range(count)])
        run_protocol(graph, luby_protocol, inputs=INPUTS, seed=master,
                     vectorized=True)

        assert sum(generator_counts) > 0
        assert vectorized_counts == generator_counts


# --------------------------------------------------------------------------- #
# Whole-round array primitives
# --------------------------------------------------------------------------- #
class TestRowPrimitives:
    def _state(self):
        # path 0-1-2 plus isolated node 3: exercises the zero-length
        # reduceat segment that must read the identity, not a neighbour.
        graph = by_name("path", 3)
        graph.add_node(3)
        network = build_network(graph)
        return VectorizedRun(network, seed=0, inputs={}, local_inputs={},
                             max_active_rounds=100, max_awake_per_node=100)

    def test_row_min_over_neighbour_rows(self):
        state = self._state()
        values = np.array([40, 10, 30, 99], dtype=np.int64)
        out = state.row_min(values, empty=np.int64(77))
        # node 0 sees {1}, node 1 sees {0, 2}, node 2 sees {1},
        # node 3 has no neighbours and reads the identity.
        assert out.tolist() == [10, 30, 10, 77]

    def test_row_count_over_neighbour_rows(self):
        state = self._state()
        mask = np.array([True, False, True, True])
        assert state.row_count(mask).tolist() == [0, 2, 0, 0]

    def test_degrees_and_adjacency_views(self):
        state = self._state()
        assert state.degrees.tolist() == [1, 2, 1, 0]
        assert state.offsets.tolist() == [0, 1, 3, 4, 4]
        assert state.neighbors.tolist() == [1, 0, 2, 1]


# --------------------------------------------------------------------------- #
# Safety valves: identical messages across engines
# --------------------------------------------------------------------------- #
class TestSafetyValves:
    def _messages(self, graph, **simulator_kwargs):
        errors = {}
        for name, pinned in (("generator", False), ("vectorized", True)):
            simulator = Simulator(build_network(graph), seed=1,
                                  vectorized=pinned, **simulator_kwargs)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(luby_protocol, inputs=INPUTS)
            errors[name] = str(excinfo.value)
        return errors

    def test_livelock_valve_messages_match(self):
        errors = self._messages(by_name("gnp", 24, seed=3),
                                max_active_rounds=1)
        assert errors["vectorized"] == errors["generator"]
        assert "livelocked" in errors["vectorized"]

    def test_awake_budget_valve_messages_match(self):
        errors = self._messages(by_name("gnp", 24, seed=3),
                                max_awake_per_node=1)
        assert errors["vectorized"] == errors["generator"]
        assert "exceeded 1 awake rounds" in errors["vectorized"]

    def test_missing_outputs_message_matches_the_loops(self):
        state = VectorizedRun(build_network(by_name("path", 3)), seed=0,
                              inputs={}, local_inputs={},
                              max_active_rounds=10, max_awake_per_node=10)
        with pytest.raises(SimulationError,
                           match=r"3 node\(s\) never terminated"):
            state.to_result()
