"""Round-semantics regression tests for the SLEEPING-CONGEST driver.

The simulator has two kinds of round engine — the generator loop, which
meters message sizes when a bit limit or a trace is set, and the numpy
engines of protocols that opt in (the whole-round engine of ``luby`` and
``rank_greedy``, the schedule engines of ``vt_mis`` and ``awake_mis``;
they meter bit limits themselves).  These tests pin
the model semantics of paper Section 1.3 on every configuration: messages
to sleeping nodes are lost, the bit budget fires exactly at the limit,
protocol violations (non-increasing rounds, out-of-range ports) are
rejected, and every engine agrees on every count-based metric (the
invariant: engine choice changes wall-clock, never bytes).
"""

from __future__ import annotations

import pytest

from repro.errors import MessageTooLargeError, ProtocolViolationError
from repro.experiments.harness import available_algorithms, run_mis
from repro.graphs import generators
from repro.sim import WakeCall, estimate_bits, run_protocol
from repro.sim.metrics import CompactRunMetrics


#: Generator-loop configurations: unmetered, metered and traced.  A huge
#: bit limit turns metering on without ever tripping the budget.
PATHS = {
    "fast": {"trace": False, "message_bit_limit": None},
    "metered": {"trace": False, "message_bit_limit": 10_000},
    "traced": {"trace": True, "message_bit_limit": None},
}


@pytest.fixture(params=sorted(PATHS))
def sim_config(request):
    return PATHS[request.param]


# --------------------------------------------------------------------------- #
# Delivery semantics
# --------------------------------------------------------------------------- #
class TestSleepingReceivers:
    def test_message_to_sleeping_node_is_lost(self, sim_config):
        """The round-2 message arrives; the round-0 one hits a sleeper."""
        graph = generators.path_graph(2)

        def protocol(ctx):
            if ctx.local_input == "sender":
                yield WakeCall(round=0, sends=[(0, "early")])
                yield WakeCall(round=2, sends=[(0, "late")])
                return "done"
            inbox = yield WakeCall(round=2, sends=[])
            return [payload for _, payload in inbox]

        result = run_protocol(
            graph, protocol,
            local_inputs={0: "sender", 1: "receiver"},
            seed=1, **sim_config,
        )
        assert result.outputs[1] == ["late"]
        sender, receiver = result.metrics.per_node
        assert sender.messages_sent == 2
        assert receiver.messages_received == 1

    def test_trace_records_the_lost_message(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            if ctx.local_input == "sender":
                yield WakeCall(round=0, sends=[(0, "early")])
                return None
            yield WakeCall(round=1, sends=[])
            return None

        result = run_protocol(
            graph, protocol,
            local_inputs={0: "sender", 1: "receiver"},
            seed=1, trace=True,
        )
        lost = result.trace.lost_messages()
        assert len(lost) == 1 and lost[0].payload == "early"
        assert result.trace.delivered_messages() == []

    def test_same_round_delivery_between_awake_neighbors(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            inbox = yield WakeCall(round=0, sends=[(0, ctx.local_input)])
            return [payload for _, payload in inbox]

        result = run_protocol(
            graph, protocol, local_inputs={0: "zero", 1: "one"},
            seed=1, **sim_config,
        )
        assert result.outputs == {0: ["one"], 1: ["zero"]}


# --------------------------------------------------------------------------- #
# CONGEST bit budget
# --------------------------------------------------------------------------- #
class TestBitLimit:
    PAYLOAD = "0123456789"  # estimate_bits = 80

    def _run(self, limit):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(0, self.PAYLOAD)])
            return True

        return run_protocol(graph, protocol, seed=1, message_bit_limit=limit)

    def test_message_at_exactly_the_limit_passes(self):
        bits = estimate_bits(self.PAYLOAD)
        result = self._run(bits)
        assert result.metrics.max_message_bits == bits

    def test_message_one_bit_over_the_limit_raises(self):
        bits = estimate_bits(self.PAYLOAD)
        with pytest.raises(MessageTooLargeError):
            self._run(bits - 1)

    def test_error_message_names_the_offender(self):
        with pytest.raises(MessageTooLargeError, match="80-bit"):
            self._run(10)


# --------------------------------------------------------------------------- #
# Protocol violations
# --------------------------------------------------------------------------- #
class TestProtocolViolations:
    def test_non_increasing_round_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=3, sends=[])
            yield WakeCall(round=3, sends=[])
            return None

        with pytest.raises(ProtocolViolationError, match="not after"):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_decreasing_round_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=5, sends=[])
            yield WakeCall(round=2, sends=[])
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_out_of_range_port_rejected(self, sim_config):
        graph = generators.path_graph(2)  # every node has exactly one port

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(1, "x")])
            return None

        with pytest.raises(ProtocolViolationError, match="port 1"):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_negative_port_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(-1, "x")])
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_non_wakecall_yield_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield "not a wake call"
            return None

        with pytest.raises(ProtocolViolationError, match="expected WakeCall"):
            run_protocol(graph, protocol, seed=1, **sim_config)


# --------------------------------------------------------------------------- #
# Outputs coverage + path equivalence
# --------------------------------------------------------------------------- #
class TestOutputsCoverage:
    def test_every_node_has_an_output_on_an_edgeless_graph(self, sim_config):
        """Regression for the executor refactor: isolated nodes (which never
        send or receive anything) must still appear in ``outputs``."""
        graph = generators.empty_graph(7)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            return True

        result = run_protocol(graph, protocol, seed=1, **sim_config)
        assert set(result.outputs) == set(range(7))
        assert all(result.outputs[v] for v in range(7))
        assert set(result.awake_by_label) == set(range(7))

    def test_node_terminating_before_first_wake_is_covered(self, sim_config):
        graph = generators.empty_graph(3)

        def protocol(ctx):
            if False:  # pragma: no cover - makes this a generator function
                yield
            return "immediate"

        result = run_protocol(graph, protocol, seed=1, **sim_config)
        assert set(result.outputs) == {0, 1, 2}
        assert all(v == "immediate" for v in result.outputs.values())
        assert result.metrics.awake_complexity == 0


class TestPathEquivalence:
    #: Three runs of one generator loop (the vectorized engine pinned off
    #: where it could engage): CONGEST-metered, unmetered and traced.
    RUNS = {
        "metered": {"enforce_congest": True, "vectorized": False},
        "unmetered": {"enforce_congest": False, "vectorized": False},
        "traced": {"enforce_congest": False, "trace": True},
    }

    @pytest.mark.parametrize("family", ["gnp", "rgg", "tree", "star"])
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_metered_unmetered_and_traced_runs_agree(self, algorithm, family):
        """Same algorithm, graph and seed: metering and tracing may only
        add bit statistics and a trace — outputs (in insertion order) and
        every per-node counter must be identical."""
        graph = generators.by_name(family, 32, seed=5)

        def essence(result):
            per_node = [
                (node.awake_rounds, node.messages_sent,
                 node.messages_received, node.terminated_round)
                for node in result.metrics.per_node
            ]
            return (list(result.outputs.items()), per_node,
                    result.metrics.active_rounds,
                    result.metrics.last_active_round)

        results = {name: run_mis(graph, algorithm, seed=3, keep_raw=True,
                                 **config)
                   for name, config in self.RUNS.items()}
        assert all(result.verified for result in results.values())
        runs = {name: result.raw for name, result in results.items()}
        assert {run.engine for run in runs.values()} == {"generator"}
        assert essence(runs["unmetered"]) == essence(runs["metered"])
        assert essence(runs["traced"]) == essence(runs["metered"])
        assert runs["unmetered"].metrics.max_message_bits is None
        assert runs["traced"].metrics.max_message_bits == \
               runs["metered"].metrics.max_message_bits
        assert len(runs["traced"].trace.messages) == \
               runs["metered"].metrics.total_messages

    def test_unmetered_bit_statistics_read_not_measured(self):
        """Unmetered runs report max_message_bits as None (never a
        fabricated 0), metered runs report the real estimate."""
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(20, expected_degree=4, seed=6)
        inputs = {"max_iterations": 4096}
        unmetered = run_protocol(graph, luby_protocol, inputs=inputs, seed=7)
        assert unmetered.metrics.bits_metered is False
        assert unmetered.metrics.max_message_bits is None
        assert unmetered.metrics.summary()["max_message_bits"] is None

        metered = run_protocol(graph, luby_protocol, inputs=inputs, seed=7,
                               message_bit_limit=10_000)
        assert metered.metrics.bits_metered is True
        assert metered.metrics.max_message_bits > 0

    def test_compact_metrics_match_full_metrics(self):
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(30, expected_degree=5, seed=8)
        result = run_protocol(graph, luby_protocol,
                              inputs={"max_iterations": 4096}, seed=9)
        compact = result.metrics.compact()
        assert isinstance(compact, CompactRunMetrics)
        assert compact.summary() == result.metrics.summary()


class TestCSRPathEquivalence:
    """The CSR representation must change *speed*, never bytes.

    ``run_protocol`` over a CSR-backed graph routes sends straight out
    of the CSR graph's own ``(offsets, neighbors, arrivals)`` arrays; the
    metered runs and a networkx input, converted on entry, must agree
    with it count for count.  ``tests/test_csr.py`` pins the arrays
    themselves against a plain-Python reference construction.
    """

    @pytest.mark.parametrize("algorithm_seed", [3, 4])
    def test_csr_fast_and_metered_loops_agree_on_counts(
            self, algorithm_seed):
        from repro.algorithms.luby import luby_protocol

        csr = generators.to_csr(
            generators.gnp_graph(48, expected_degree=6, seed=2)).view()
        inputs = {"max_iterations": 4096}
        fast = run_protocol(csr, luby_protocol, inputs=inputs,
                            seed=algorithm_seed, vectorized=False)
        metered = run_protocol(csr, luby_protocol, inputs=inputs,
                               seed=algorithm_seed, trace=True,
                               message_bit_limit=10_000)

        assert {k: bool(v) for k, v in fast.outputs.items()} == \
               {k: bool(v) for k, v in metered.outputs.items()}
        assert fast.awake_by_label == metered.awake_by_label
        fast_summary = fast.metrics.summary()
        metered_summary = metered.metrics.summary()
        fast_summary.pop("max_message_bits")
        metered_summary.pop("max_message_bits")
        assert fast_summary == metered_summary

    def test_csr_representation_matches_adjacency_lists(self, sim_config):
        """Same seed, both loops: CSR arrays and networkx adjacency must
        produce identical outputs, wake schedules and metric counters."""
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(40, expected_degree=5, seed=12)
        inputs = {"max_iterations": 4096}
        over_nx = run_protocol(graph, luby_protocol, inputs=inputs,
                               seed=11, **sim_config)
        over_csr = run_protocol(generators.to_csr(graph).view(),
                                luby_protocol, inputs=inputs,
                                seed=11, **sim_config)
        assert over_csr.outputs == over_nx.outputs
        assert over_csr.awake_by_label == over_nx.awake_by_label
        assert over_csr.metrics.summary() == over_nx.metrics.summary()


class TestVectorizedEngineEquivalence:
    """The numpy engines are interchangeable with the generator loop.

    For a protocol that opts in (``luby`` here, ``awake_mis`` through its
    schedule engine below), the engine must produce the same
    outputs as the unmetered, metered and traced generator-loop runs *in
    the same insertion order*, the same per-node
    awake/message/termination counters and the same aggregate metrics —
    byte identity, not statistical agreement.  (The engine's own unit and
    property tests live in ``tests/test_vectorized.py``.)
    """

    @pytest.mark.parametrize("representation", ["nx", "csr"])
    @pytest.mark.parametrize("algorithm_seed", [3, 4])
    def test_all_three_engines_agree_byte_for_byte(
            self, representation, algorithm_seed):
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(48, expected_degree=6, seed=2)
        if representation == "csr":
            graph = generators.to_csr(graph).view()
        inputs = {"max_iterations": 4096}
        fast = run_protocol(graph, luby_protocol, inputs=inputs,
                            seed=algorithm_seed, vectorized=False)
        vectorized = run_protocol(graph, luby_protocol, inputs=inputs,
                                  seed=algorithm_seed)
        metered = run_protocol(graph, luby_protocol, inputs=inputs,
                               seed=algorithm_seed, trace=True,
                               message_bit_limit=10_000)

        def essence(result):
            per_node = [
                (node.awake_rounds, node.messages_sent,
                 node.messages_received, node.terminated_round)
                for node in result.metrics.per_node
            ]
            return (result.outputs, list(result.outputs), per_node,
                    result.awake_by_label, result.metrics.active_rounds,
                    result.metrics.last_active_round)

        assert (fast.engine, vectorized.engine, metered.engine) == (
            "generator", "vectorized", "generator")
        assert essence(vectorized) == essence(fast)
        assert essence(vectorized) == essence(metered)
        assert vectorized.metrics.bits_metered is False
        assert vectorized.metrics.max_message_bits is None

    @pytest.mark.parametrize("representation", ["nx", "csr"])
    @pytest.mark.parametrize("algorithm_seed", [3, 4])
    def test_schedule_engine_agrees_with_the_generator_loop(
            self, representation, algorithm_seed):
        """Awake-MIS's schedule engine against the unmetered and the
        traced, metered generator loop: same outputs in the same order,
        same per-node counters, same active rounds."""
        from repro.algorithms.awake_mis import (
            AwakeMISParameters,
            awake_mis_protocol,
        )

        graph = generators.gnp_graph(48, expected_degree=6, seed=2)
        inputs = {"awake_params": AwakeMISParameters.scaled(48)}
        if representation == "csr":
            graph = generators.to_csr(graph).view()
        fast = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                            seed=algorithm_seed, vectorized=False)
        schedule = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                                seed=algorithm_seed)
        metered = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                               seed=algorithm_seed, trace=True,
                               message_bit_limit=10_000)

        def essence(result):
            per_node = [
                (node.awake_rounds, node.messages_sent,
                 node.messages_received, node.terminated_round)
                for node in result.metrics.per_node
            ]
            return (result.outputs, list(result.outputs), per_node,
                    result.awake_by_label, result.metrics.active_rounds,
                    result.metrics.last_active_round)

        assert (fast.engine, schedule.engine, metered.engine) == (
            "generator", "schedule", "generator")
        assert essence(schedule) == essence(fast)
        assert essence(schedule) == essence(metered)
        assert schedule.metrics.max_message_bits is None
