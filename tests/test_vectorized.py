"""Tests for the numpy whole-round engine (:mod:`repro.sim.vectorized`).

The engine's contract is "bytes never change, only wall-clock": these
tests pin agreement between the generator loop and the vectorized engine,
unmetered and CONGEST-metered, for both local-minimum protocols (``luby``
and ``rank_greedy``) across graph families and seeds, the dispatch gating
(``vectorized`` tri-state), equal RNG consumption per node stream, the
whole-round array primitives, and identical safety-valve and
``MessageTooLargeError`` messages raised in the same precedence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.luby import luby_protocol
from repro.algorithms.rank_greedy import rank_greedy_protocol
from repro.errors import (
    ConfigurationError,
    MessageTooLargeError,
    SimulationError,
)
from repro.graphs.generators import by_name, to_csr
from repro.rng import derive_seed
from repro.sim.actions import WakeCall
from repro.sim.message import estimate_bits
from repro.sim.network import build_network
from repro.sim.runner import Simulator, run_protocol
from repro.sim.vectorized import VectorizedRun

np = pytest.importorskip("numpy")

INPUTS = {"max_iterations": 4096}

#: Every protocol that ships a vectorized twin.
PROTOCOLS = {"luby": luby_protocol, "rank_greedy": rank_greedy_protocol}

#: A bit limit that turns metering on without ever tripping it.
LOOSE_LIMIT = 100_000

#: Families safe at small n (``regular`` needs n*degree even, ``powerlaw``
#: needs n > attachments — excluded to keep the strategy total).
PROPERTY_FAMILIES = ("gnp", "gnp_dense", "tree", "path", "cycle", "star",
                     "clique", "caveman")


def _summarize(result, bits=True):
    """Every byte an engine is allowed to influence — i.e. none.

    ``bits=False`` drops the bit statistics, for comparing a metered run
    with an unmetered one (metering may add bit counts and nothing else).
    """
    metrics = result.metrics
    per_node = [
        (node.awake_rounds, node.messages_sent, node.messages_received,
         node.terminated_round,
         *((node.bits_sent, node.max_message_bits) if bits else ()))
        for node in metrics.per_node
    ]
    return (result.outputs, list(result.outputs), per_node,
            result.awake_by_label, metrics.active_rounds,
            metrics.last_active_round,
            *((metrics.bits_metered, metrics.max_message_bits) if bits
              else ()))


def _run_both_engines(graph, protocol, seed, **kwargs):
    """(generator loop, vectorized engine) results of one configuration."""
    generator = run_protocol(graph, protocol, inputs=INPUTS, seed=seed,
                             vectorized=False, **kwargs)
    vectorized = run_protocol(graph, protocol, inputs=INPUTS, seed=seed,
                              vectorized=True, **kwargs)
    assert (generator.engine, vectorized.engine) == ("generator",
                                                      "vectorized")
    return generator, vectorized


def _assert_engines_agree(graph, protocol, seed):
    """Both engines agree byte for byte, unmetered and metered."""
    generator, vectorized = _run_both_engines(graph, protocol, seed)
    assert _summarize(vectorized) == _summarize(generator)
    assert vectorized.metrics.max_message_bits is None
    metered_generator, metered = _run_both_engines(
        graph, protocol, seed, message_bit_limit=LOOSE_LIMIT)
    assert _summarize(metered) == _summarize(metered_generator)
    assert metered.metrics.bits_metered is True
    assert _summarize(metered, bits=False) == _summarize(vectorized,
                                                         bits=False)
    return metered


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
        result = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                              vectorized=False)
        assert calls == []
        assert result.engine == "generator"

    def test_tracing_falls_back_silently(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        result = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                              trace=True)
        assert calls == []
        assert result.trace is not None
        assert result.engine == "generator"

    def test_bit_limit_engages_the_engine(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = by_name("gnp", 24, seed=3)
        result = run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                              message_bit_limit=LOOSE_LIMIT)
        assert calls == [24]
        assert result.engine == "vectorized"
        assert result.metrics.bits_metered is True
        assert result.metrics.max_message_bits > 0

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_vectorized_true_runs_under_a_bit_limit(self, name):
        graph = by_name("path", 4)
        result = run_protocol(graph, PROTOCOLS[name], seed=1,
                              message_bit_limit=1024, vectorized=True)
        assert result.engine == "vectorized"
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


# --------------------------------------------------------------------------- #
# Byte identity: generator loop vs vectorized engine, unmetered and metered
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestThreeWayByteIdentity:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_engines_agree_on_gnp(self, name, seed):
        metered = _assert_engines_agree(by_name("gnp", 48, seed=2),
                                        PROTOCOLS[name], seed)
        assert metered.metrics.max_message_bits > estimate_bits("inMIS")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_engines_agree_on_csr_representation(self, name, seed):
        graph = by_name("gnp", 48, seed=2)
        metered = _assert_engines_agree(to_csr(graph).view(),
                                        PROTOCOLS[name], seed)
        # and the CSR run matches the adjacency-list run byte for byte
        assert _summarize(metered) == _summarize(
            run_protocol(graph, PROTOCOLS[name], inputs=INPUTS, seed=seed,
                         message_bit_limit=LOOSE_LIMIT, vectorized=True))

    def test_edgeless_graph(self, name):
        metered = _assert_engines_agree(by_name("path", 1), PROTOCOLS[name],
                                        seed=7)
        # A degree-0 node sends nothing, so it measures no message.
        assert metered.metrics.max_message_bits == 0

    @pytest.mark.parametrize("limit", [None, LOOSE_LIMIT])
    @pytest.mark.parametrize("max_iterations", [0, 1, 2, 3])
    def test_iteration_cap_matches_the_generators(self, name,
                                                  max_iterations, limit):
        """A cap that runs out raises the same RuntimeError; a cap that is
        just enough (every node decides in the last iteration: 3 for luby,
        2 for rank_greedy here) does not."""
        graph = by_name("gnp", 24, seed=3)
        outcomes = []
        for pinned in (False, True):
            try:
                result = run_protocol(
                    graph, PROTOCOLS[name], seed=2, vectorized=pinned,
                    inputs={"max_iterations": max_iterations},
                    message_bit_limit=limit)
            except RuntimeError as error:
                outcomes.append(str(error))
            else:
                outcomes.append(_summarize(result))
        assert outcomes[1] == outcomes[0]

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(PROPERTY_FAMILIES),
        n=st.integers(min_value=2, max_value=40),
        graph_seed=st.integers(min_value=0, max_value=10),
        run_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_engines_agree(self, name, family, n, graph_seed,
                                    run_seed):
        _assert_engines_agree(by_name(family, n, seed=graph_seed),
                              PROTOCOLS[name], run_seed)


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
    @pytest.mark.parametrize("limit", [None, LOOSE_LIMIT])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_engines_consume_identical_draws_per_node(self, monkeypatch,
                                                      name, limit):
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
        run_protocol(graph, PROTOCOLS[name], inputs=INPUTS, seed=master,
                     message_bit_limit=limit, vectorized=False)

        vectorized_counts = [0] * 32
        monkeypatch.setattr(
            vectorized_module, "spawn_rngs",
            lambda seed, count: [
                CountingRandom(derive_seed(seed, i), vectorized_counts, i)
                for i in range(count)])
        run_protocol(graph, PROTOCOLS[name], inputs=INPUTS, seed=master,
                     message_bit_limit=limit, vectorized=True)

        assert sum(generator_counts) > 0
        assert vectorized_counts == generator_counts


# --------------------------------------------------------------------------- #
# Whole-round array primitives
# --------------------------------------------------------------------------- #
class TestRowPrimitives:
    def _state(self, message_bit_limit=None):
        # path 0-1-2 plus isolated node 3: exercises the zero-length
        # reduceat segment that must read the identity, not a neighbour.
        graph = by_name("path", 3)
        graph.add_node(3)
        network = build_network(graph)
        return VectorizedRun(network, seed=0, inputs={}, local_inputs={},
                             max_active_rounds=100, max_awake_per_node=100,
                             message_bit_limit=message_bit_limit)

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

    def test_record_sends_meters_per_port_and_skips_degree_zero(self):
        state = self._state(message_bit_limit=50)
        senders = np.array([1, 2, 3])
        state.record_sends(senders, [7, 9, 11], 0, None)
        state.record_sends(senders, 5, 1, None)
        assert state.messages_sent.tolist() == [0, 4, 2, 0]
        assert state.bits_sent.tolist() == [0, 2 * 7 + 2 * 5, 9 + 5, 0]
        assert state.max_message_bits.tolist() == [0, 7, 9, 0]

    def test_record_sends_unmetered_counts_messages_only(self):
        state = self._state()
        state.record_sends(np.array([0, 1]), None, 0, None)
        assert state.messages_sent.tolist() == [1, 2, 0, 0]
        assert state.bits_sent.tolist() == [0, 0, 0, 0]
        assert state.metered is False

    def test_record_sends_names_the_first_oversize_sender(self):
        state = self._state(message_bit_limit=8)
        # node 3 (degree 0) sends nothing, so its size is never checked.
        with pytest.raises(MessageTooLargeError) as excinfo:
            state.record_sends(np.array([0, 1, 2, 3]), [8, 9, 10, 99], 4,
                               lambda index: ("payload", index))
        assert str(excinfo.value) == (
            "node 1 sent a 9-bit message (limit 8) in round 4: "
            "('payload', 1)")

    def test_degrees_and_adjacency_views(self):
        state = self._state()
        assert state.degrees.tolist() == [1, 2, 1, 0]
        assert state.offsets.tolist() == [0, 1, 3, 4, 4]
        assert state.neighbors.tolist() == [1, 0, 2, 1]


# --------------------------------------------------------------------------- #
# Safety valves: identical messages across engines
# --------------------------------------------------------------------------- #
def _staggered_protocol(ctx):
    """Wake in round 0 if ``early``, then send ``payload`` on every port in
    round 1 — a minimal protocol whose nodes differ in awake count and
    message size, so both valves can trip in one round."""
    early, payload = ctx.local_input
    if early:
        yield WakeCall(round=0, sends=[])
    yield WakeCall(round=1, sends=[(port, payload) for port in ctx.ports])
    return True


def _staggered_engine(run):
    """Vectorized twin of :func:`_staggered_protocol` (valves only)."""
    np = run.np
    early = np.flatnonzero([run.local_inputs[label][0]
                            for label in run.labels])
    payloads = [run.local_inputs[label][1] for label in run.labels]
    if early.size:
        run.begin_round(0)
        run.record_awake(early)
        run.record_sends(early[:0], 0, 0, payloads.__getitem__)
    everyone = np.arange(run.n)
    run.begin_round(1)
    run.record_awake(everyone)
    run.record_sends(everyone, [estimate_bits(p) for p in payloads], 1,
                     payloads.__getitem__)


_staggered_protocol.vectorized_engine = _staggered_engine


class TestSafetyValves:
    def _messages(self, graph, protocol=luby_protocol, local_inputs=None,
                  **simulator_kwargs):
        errors = {}
        for name, pinned in (("generator", False), ("vectorized", True)):
            simulator = Simulator(build_network(graph), seed=1,
                                  vectorized=pinned, **simulator_kwargs)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(protocol, inputs=INPUTS,
                              local_inputs=local_inputs)
            errors[name] = f"{type(excinfo.value).__name__}: {excinfo.value}"
        assert errors["vectorized"] == errors["generator"]
        return errors["vectorized"]

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_livelock_valve_messages_match(self, name):
        error = self._messages(by_name("gnp", 24, seed=3), PROTOCOLS[name],
                               max_active_rounds=1)
        assert "livelocked" in error

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_awake_budget_valve_messages_match(self, name):
        error = self._messages(by_name("gnp", 24, seed=3), PROTOCOLS[name],
                               max_awake_per_node=1)
        assert "exceeded 1 awake rounds" in error

    @pytest.mark.parametrize("limit", [1, 39, 40, 60])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_message_too_large_messages_match(self, name, limit):
        """Round-1 ``(tag, value)`` messages trip small limits; a limit of
        exactly 40 bits admits the IN_MIS announcement but not them."""
        error = self._messages(by_name("gnp", 24, seed=3), PROTOCOLS[name],
                               message_bit_limit=limit)
        assert error.startswith("MessageTooLargeError: node ")
        assert f"(limit {limit}) in round 0" in error

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_awake_valve_precedes_the_bit_limit(self, name):
        """Both valves trip in round 0 for every node; node 0's awake
        budget is checked before its sends."""
        error = self._messages(by_name("gnp", 24, seed=3), PROTOCOLS[name],
                               max_awake_per_node=0, message_bit_limit=1)
        assert error.startswith("SimulationError: node ")
        assert "exceeded 0 awake rounds" in error

    @pytest.mark.parametrize("early, payloads, expected", [
        # node i's awake valve fires before its own oversize sends
        ((True, False, False), ("big", "big", "big"),
         "SimulationError: node 0 exceeded 1 awake rounds"),
        ((False, True, False), ("", "big", ""),
         "SimulationError: node 1 exceeded 1 awake rounds"),
        # node i's oversize sends fire before node i + 1's awake valve
        ((False, True, False), ("big", "", ""),
         "MessageTooLargeError: node 0 sent a 24-bit message"),
        ((False, False, True), ("", "big", "big"),
         "MessageTooLargeError: node 1 sent a 24-bit message"),
    ])
    def test_error_precedence_within_a_round(self, early, payloads,
                                             expected):
        local_inputs = {index: pair
                        for index, pair in enumerate(zip(early, payloads))}
        error = self._messages(by_name("path", 3), _staggered_protocol,
                               local_inputs=local_inputs,
                               max_awake_per_node=1, message_bit_limit=16)
        assert error.startswith(expected)

    def test_missing_outputs_message_matches_the_loops(self):
        state = VectorizedRun(build_network(by_name("path", 3)), seed=0,
                              inputs={}, local_inputs={},
                              max_active_rounds=10, max_awake_per_node=10)
        with pytest.raises(SimulationError,
                           match=r"3 node\(s\) never terminated"):
            state.to_result()
