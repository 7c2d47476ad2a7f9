"""Tests for the SLEEPING-CONGEST simulator (network, runner, metrics, trace)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    MessageTooLargeError,
    ProtocolViolationError,
    SimulationError,
)
from repro.graphs import generators
from repro.sim import Network, WakeCall, broadcast_sends, estimate_bits, run_protocol
from repro.sim.runner import Simulator


# --------------------------------------------------------------------------- #
# Network / ports
# --------------------------------------------------------------------------- #
class TestNetwork:
    def test_ports_cover_neighbors(self, small_gnp):
        network = Network(small_gnp)
        for index in range(network.size):
            degree = network.degree(index)
            neighbors = {network.neighbor_via_port(index, p) for p in range(degree)}
            expected = {
                network.index_of(v)
                for v in small_gnp.neighbors(network.label_of(index))
            }
            assert neighbors == expected

    def test_port_round_trip(self, small_gnp):
        network = Network(small_gnp)
        for u, v in small_gnp.edges:
            ui, vi = network.index_of(u), network.index_of(v)
            port = network.port_towards(ui, vi)
            assert network.neighbor_via_port(ui, port) == vi

    def test_invalid_port_rejected(self, path_graph):
        network = Network(path_graph)
        with pytest.raises(ConfigurationError):
            network.neighbor_via_port(0, 5)

    def test_non_adjacent_port_lookup_rejected(self, path_graph):
        network = Network(path_graph)
        with pytest.raises(ConfigurationError):
            network.port_towards(0, 5)

    def test_directed_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(nx.DiGraph([(0, 1)]))

    def test_self_loop_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        with pytest.raises(ConfigurationError):
            Network(graph)

    def test_max_degree(self, star):
        assert Network(star).max_degree() == star.number_of_nodes() - 1


# --------------------------------------------------------------------------- #
# Message size accounting
# --------------------------------------------------------------------------- #
class IntSubclass(int):
    """An ``int`` subclass: counts like an int, but not on the fast path."""


def _reference_bits(payload):
    """The documented size formula, written once more without fast paths."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, abs(payload).bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, (str, bytes)):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(_reference_bits(item) + 2 for item in payload)
    if isinstance(payload, dict):
        return sum(_reference_bits(key) + _reference_bits(value) + 2
                   for key, value in payload.items())
    raise TypeError(type(payload).__name__)


#: Message payloads: scalars (bools, negative and huge ints, int
#: subclasses, floats, strings, bytes) nested in tuples, lists, sets and
#: dicts.
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(
        min_value=-(2**200), max_value=2**200)
    | st.integers().map(IntSubclass) | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.binary(max_size=12),
    lambda children: (
        st.tuples(children, children) | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4)
        | st.frozensets(st.integers() | st.text(max_size=4), max_size=4)
        | st.dictionaries(st.integers() | st.text(max_size=4), children,
                          max_size=3)),
    max_leaves=12,
)


class TestEstimateBits:
    def test_small_values(self):
        assert estimate_bits(None) == 1
        assert estimate_bits(True) == 1
        assert estimate_bits(0) == 2
        assert estimate_bits(7) == 4

    def test_strings_and_tuples(self):
        assert estimate_bits("ab") == 16
        assert estimate_bits(("ab", 7)) == 16 + 4 + 4

    def test_floats_and_bytes(self):
        assert estimate_bits(1.5) == 64
        assert estimate_bits(b"xy") == 16

    def test_dict(self):
        assert estimate_bits({1: 2}) > 0

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            estimate_bits(object())
        with pytest.raises(TypeError):
            estimate_bits((1, object()))

    def test_int_subclasses_take_the_general_path(self):
        assert estimate_bits((True, False, 1)) == 3 + 3 + 4
        assert estimate_bits(IntSubclass(5)) == 4

    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_property_matches_the_reference_formula(self, payload):
        assert estimate_bits(payload) == _reference_bits(payload)




# --------------------------------------------------------------------------- #
# Round semantics
# --------------------------------------------------------------------------- #
def _ping_protocol(ctx):
    """Both endpoints awake in round 0: messages are delivered."""
    inbox = yield WakeCall(round=0, sends=broadcast_sends(ctx.ports, "ping"))
    return [payload for _, payload in inbox]


def _mismatched_protocol(ctx):
    """Node 0 sends in round 0 while node 1 is awake only in round 1."""
    if ctx.local_input == "early":
        yield WakeCall(round=0, sends=broadcast_sends(ctx.ports, "hello"))
        return "sent"
    inbox = yield WakeCall(round=1, sends=[])
    return [payload for _, payload in inbox]


class TestRoundSemantics:
    def test_messages_delivered_when_both_awake(self):
        graph = generators.path_graph(2)
        result = run_protocol(graph, _ping_protocol, seed=1)
        assert result.outputs[0] == ["ping"]
        assert result.outputs[1] == ["ping"]

    def test_messages_lost_when_receiver_asleep(self):
        graph = generators.path_graph(2)
        result = run_protocol(
            graph, _mismatched_protocol, seed=1,
            local_inputs={0: "early", 1: "late"},
        )
        assert result.outputs[0] == "sent"
        assert result.outputs[1] == []  # the round-0 message was lost

    def test_awake_complexity_counts_wake_calls(self):
        graph = generators.path_graph(3)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            yield WakeCall(round=10, sends=[])
            yield WakeCall(round=10**9, sends=[])
            return True

        result = run_protocol(graph, protocol, seed=1)
        assert result.metrics.awake_complexity == 3
        assert result.metrics.node_averaged_awake == 3.0
        # Round complexity counts sleeping rounds too.
        assert result.metrics.round_complexity == 10**9 + 1
        # ... but the simulator only iterated over the active rounds.
        assert result.metrics.active_rounds == 3

    def test_idle_rounds_are_skipped_cheaply(self):
        graph = generators.empty_graph(5)

        def protocol(ctx):
            yield WakeCall(round=10**12, sends=[])
            return "done"

        result = run_protocol(graph, protocol, seed=1)
        assert result.metrics.active_rounds == 1
        assert result.metrics.round_complexity == 10**12 + 1

    def test_protocol_without_any_wake(self):
        graph = generators.empty_graph(3)

        def protocol(ctx):
            return "instant"
            yield  # pragma: no cover

        result = run_protocol(graph, protocol, seed=1)
        assert all(v == "instant" for v in result.outputs.values())
        assert result.metrics.awake_complexity == 0
        assert result.metrics.round_complexity == 0

    def test_outputs_keyed_by_graph_labels(self):
        graph = nx.relabel_nodes(generators.path_graph(3), {0: "a", 1: "b", 2: "c"})

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            return ctx.degree

        result = run_protocol(graph, protocol, seed=1)
        assert set(result.outputs) == {"a", "b", "c"}
        assert result.outputs["b"] == 2


# --------------------------------------------------------------------------- #
# Enforcement and diagnostics
# --------------------------------------------------------------------------- #
class TestEnforcement:
    def test_message_bit_limit(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=broadcast_sends(ctx.ports, "x" * 100))
            return True

        with pytest.raises(MessageTooLargeError):
            run_protocol(graph, protocol, seed=1, message_bit_limit=64)

    def test_repeated_payload_estimate_keys_on_identity(self):
        """A send repeating the previous payload object reuses its size; an
        equal but different object is estimated afresh (``True == 1``, but
        they cost 1 and 2 bits)."""
        graph = generators.star_graph(5)  # a hub with four ports
        shared = ("tag", 2**40)

        def protocol(ctx):
            if ctx.degree == 4:
                yield WakeCall(round=0, sends=[(0, True), (1, 1),
                                               (2, shared), (3, shared)])
            return True

        result = run_protocol(graph, protocol, seed=1,
                              message_bit_limit=1000)
        hub = max(result.metrics.per_node, key=lambda node: node.bits_sent)
        assert hub.bits_sent == 1 + 2 + 2 * estimate_bits(shared)
        assert hub.max_message_bits == estimate_bits(shared)

    def test_non_increasing_round_rejected(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=5, sends=[])
            yield WakeCall(round=5, sends=[])
            return True

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1)

    def test_invalid_port_rejected(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(7, "boom")])
            return True

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            WakeCall(round=-1, sends=[])

    def test_livelock_guard(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            r = 0
            while True:
                yield WakeCall(round=r, sends=[])
                r += 1

        network = Network(graph)
        simulator = Simulator(network, seed=1, max_active_rounds=50)
        with pytest.raises(SimulationError):
            simulator.run(protocol)

    def test_wrong_yield_type_rejected(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield "not a wake call"
            return True

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1)


# --------------------------------------------------------------------------- #
# Determinism, randomness and tracing
# --------------------------------------------------------------------------- #
class TestDeterminismAndTrace:
    def test_same_seed_same_outputs(self, small_gnp):
        def protocol(ctx):
            value = ctx.rng.randrange(10**9)
            yield WakeCall(round=0, sends=[])
            return value

        first = run_protocol(small_gnp, protocol, seed=42)
        second = run_protocol(small_gnp, protocol, seed=42)
        assert first.outputs == second.outputs

    def test_nodes_have_independent_rngs(self, small_gnp):
        def protocol(ctx):
            value = ctx.rng.randrange(10**9)
            yield WakeCall(round=0, sends=[])
            return value

        result = run_protocol(small_gnp, protocol, seed=42)
        assert len(set(result.outputs.values())) > 1

    def test_trace_records_awake_and_messages(self):
        graph = generators.path_graph(2)
        result = run_protocol(graph, _ping_protocol, seed=1, trace=True)
        assert result.trace is not None
        assert result.trace.awake_rounds_of(0) == [0]
        assert len(result.trace.delivered_messages()) == 2
        assert result.trace.lost_messages() == []
        assert result.trace.active_rounds() == [0]

    def test_trace_records_lost_messages(self):
        graph = generators.path_graph(2)
        result = run_protocol(
            graph, _mismatched_protocol, seed=1, trace=True,
            local_inputs={0: "early", 1: "late"},
        )
        assert len(result.trace.lost_messages()) == 1

    def test_output_set_helper(self):
        graph = generators.path_graph(4)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            return ctx.degree == 1

        result = run_protocol(graph, protocol, seed=1)
        assert result.output_set() == {0, 3}

    def test_metrics_summary_keys(self, small_gnp):
        result = run_protocol(small_gnp, _ping_protocol, seed=2)
        summary = result.metrics.summary()
        for key in ("nodes", "awake_complexity", "round_complexity",
                    "total_messages", "max_message_bits"):
            assert key in summary


class TestNodeContext:
    def test_require_input_error_message(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            ctx.require_input("missing")
            yield WakeCall(round=0, sends=[])
            return True

        with pytest.raises(KeyError, match="missing"):
            run_protocol(graph, protocol, seed=1)

    def test_input_default(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            return ctx.input("absent", "fallback")

        result = run_protocol(graph, protocol, seed=1)
        assert result.outputs[0] == "fallback"
