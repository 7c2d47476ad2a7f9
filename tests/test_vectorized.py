"""Tests for the numpy engines behind :mod:`repro.sim.vectorized`.

The engines' contract is "bytes never change, only wall-clock": these
tests pin agreement between the generator loop and the vectorized
engines, unmetered and CONGEST-metered — the whole-round engine of both
local-minimum protocols (``luby`` and ``rank_greedy``) and the schedule
engines of ``vt_mis`` (given and random IDs, duplicates included) and
``awake_mis`` (both presets) — across graph families and seeds, the
dispatch gating (``vectorized`` tri-state), equal RNG consumption per
node stream (and no stream spawned where none is drawn from), the
whole-round array primitives, the LFMIS oracle at scale,
identical safety-valve and ``MessageTooLargeError`` messages (a run that
could trip a valve is replayed on the generator loop from the same
per-node seeds, and a run inside every valve never is), the closed form
the schedule engine applies to LDT-MIS participants with no
participating neighbour, and that it records no round one at a time.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.awake_mis import (
    AwakeMISParameters,
    awake_mis_protocol,
    run_awake_mis,
)
from repro.algorithms.common import IN_MIS
from repro.algorithms.ldt_mis import (
    isolated_announcement,
    isolated_wake_offsets,
    ldt_mis_core,
    ldt_mis_round_budget,
)
from repro.algorithms.luby import luby_protocol
from repro.algorithms.rank_greedy import rank_greedy_protocol
from repro.algorithms.vt_mis import assign_sequential_ids, vt_mis_protocol
from repro.core.mis import greedy_mis_from_order
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.harness import run_mis
from repro.graphs.generators import FAMILIES, build_csr, by_name, to_csr
from repro.rng import derive_seed
from repro.sim.actions import WakeCall
from repro.sim.message import estimate_bits
from repro.sim.network import build_network
from repro.sim.runner import Simulator, run_protocol
from repro.sim import vectorized as vectorized_module
from repro.sim.vectorized import ValveTrip, VectorizedRun

np = pytest.importorskip("numpy")

INPUTS = {"max_iterations": 4096}

#: Every protocol that ships a vectorized twin.
PROTOCOLS = {"luby": luby_protocol, "rank_greedy": rank_greedy_protocol,
             "vt_mis": vt_mis_protocol, "awake_mis": awake_mis_protocol}

#: The two protocols on the shared local-minimum whole-round engine.
LOCAL_MINIMUM = ("luby", "rank_greedy")

#: ``RunResult.engine`` of each protocol's vectorized twin.
ENGINE_NAMES = {"luby": "vectorized", "rank_greedy": "vectorized",
                "vt_mis": "schedule", "awake_mis": "schedule"}

#: A bit limit that turns metering on without ever tripping it.
LOOSE_LIMIT = 100_000

#: Families safe at small n (``regular`` needs n*degree even, ``powerlaw``
#: needs n > attachments — excluded to keep the strategy total).
PROPERTY_FAMILIES = ("gnp", "gnp_dense", "tree", "path", "cycle", "star",
                     "clique", "caveman")


def _inputs(name, graph, preset="scaled"):
    """The global inputs *name*'s protocol runs with on *graph* (VT-MIS
    draws its IDs from ``[1, N^3]``, so it needs no local inputs)."""
    if name == "vt_mis":
        return {"id_bound": max(1, graph.number_of_nodes()) ** 3,
                "id_source": "random"}
    if name != "awake_mis":
        return INPUTS
    build = (AwakeMISParameters.paper if preset == "paper"
             else AwakeMISParameters.scaled)
    return {"awake_params": build(graph.number_of_nodes())}


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


def _run_both_engines(graph, name, seed, inputs=None, **kwargs):
    """(generator loop, vectorized engine) results of one configuration."""
    if inputs is None:
        inputs = _inputs(name, graph)
    generator = run_protocol(graph, PROTOCOLS[name], inputs=inputs,
                             seed=seed, vectorized=False, **kwargs)
    vectorized = run_protocol(graph, PROTOCOLS[name], inputs=inputs,
                              seed=seed, vectorized=True, **kwargs)
    assert (generator.engine, vectorized.engine) == ("generator",
                                                      ENGINE_NAMES[name])
    # Plain ints, as the loop gives: records are JSON-encoded.
    assert {type(vectorized.metrics.active_rounds),
            type(vectorized.metrics.last_active_round)} <= {int, type(None)}
    return generator, vectorized


def _assert_engines_agree(graph, name, seed, inputs=None, **kwargs):
    """Both engines agree byte for byte, unmetered and metered."""
    generator, vectorized = _run_both_engines(graph, name, seed, inputs,
                                              **kwargs)
    assert _summarize(vectorized) == _summarize(generator)
    assert vectorized.metrics.max_message_bits is None
    metered_generator, metered = _run_both_engines(
        graph, name, seed, inputs, message_bit_limit=LOOSE_LIMIT, **kwargs)
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
                              inputs=_inputs(name, graph),
                              message_bit_limit=1024, vectorized=True)
        assert result.engine == ENGINE_NAMES[name]
        assert result.metrics.bits_metered is True

    @pytest.mark.parametrize("config, engine", [
        ({}, "schedule"),
        ({"enforce_congest": False}, "schedule"),
        ({"vectorized": False}, "generator"),
        ({"enforce_congest": False, "vectorized": False}, "generator"),
        ({"trace": True}, "generator"),
    ])
    def test_awake_mis_engine_through_the_harness(self, config, engine):
        """``run_mis`` forwards ``vectorized`` to Awake-MIS: the schedule
        engine runs by default, metered or not, and the generator loop
        runs when pinned or traced."""
        graph = by_name("gnp", 24, seed=3)
        result = run_mis(graph, "awake_mis", seed=1, keep_raw=True, **config)
        assert result.verified
        assert result.raw.engine == engine

    def test_run_awake_mis_forwards_vectorized(self):
        graph = by_name("gnp", 24, seed=3)
        assert run_awake_mis(graph, seed=1).engine == "schedule"
        assert run_awake_mis(graph, seed=1,
                             vectorized=False).engine == "generator"
        with pytest.raises(ConfigurationError, match="tracing is enabled"):
            run_awake_mis(graph, seed=1, trace=True, vectorized=True)

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
        metered = _assert_engines_agree(by_name("gnp", 48, seed=2), name,
                                        seed)
        assert metered.metrics.max_message_bits > estimate_bits("inMIS")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_engines_agree_on_csr_representation(self, name, seed):
        graph = by_name("gnp", 48, seed=2)
        metered = _assert_engines_agree(to_csr(graph).view(), name, seed)
        # and the CSR run matches the adjacency-list run byte for byte
        assert _summarize(metered) == _summarize(
            run_protocol(graph, PROTOCOLS[name], inputs=_inputs(name, graph),
                         seed=seed, message_bit_limit=LOOSE_LIMIT,
                         vectorized=True))

    def test_edgeless_graph(self, name):
        metered = _assert_engines_agree(by_name("path", 1), name, seed=7)
        # A degree-0 node sends nothing, so it measures no message.
        assert metered.metrics.max_message_bits == 0

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(PROPERTY_FAMILIES),
        n=st.integers(min_value=2, max_value=40),
        graph_seed=st.integers(min_value=0, max_value=10),
        run_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_engines_agree(self, name, family, n, graph_seed,
                                    run_seed):
        _assert_engines_agree(by_name(family, n, seed=graph_seed), name,
                              run_seed)


@pytest.mark.parametrize("name", LOCAL_MINIMUM)
class TestIterationCap:
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


def _family_sizes(family):
    """Sizes *family* builds at (``regular`` needs an even n above its
    degree 6, ``powerlaw`` more nodes than its 3 attachments)."""
    if family == "regular":
        return st.integers(min_value=4, max_value=20).map(lambda k: 2 * k)
    return st.integers(min_value=4 if family == "powerlaw" else 1,
                       max_value=48)


class TestScheduleEngine:
    """Awake-MIS's schedule engine against the generator loop, in every
    configuration the paper's presets give it."""

    @pytest.mark.parametrize("representation", ["nx", "csr"])
    @pytest.mark.parametrize("preset", ["scaled", "paper"])
    @pytest.mark.parametrize("family", ["gnp", "rgg"])
    def test_presets_agree(self, family, preset, representation):
        graph = by_name(family, 64, seed=4)
        inputs = _inputs("awake_mis", graph, preset)
        if representation == "csr":
            graph = to_csr(graph).view()
        for seed in (1, 2):
            _assert_engines_agree(graph, "awake_mis", seed, inputs)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(sorted(FAMILIES)),
        preset=st.sampled_from(["scaled", "paper"]),
        graph_seed=st.integers(min_value=0, max_value=10),
        run_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_every_family(self, data, family, preset, graph_seed,
                                   run_seed):
        graph = by_name(family, data.draw(_family_sizes(family)),
                        seed=graph_seed)
        _assert_engines_agree(graph, "awake_mis", run_seed,
                              _inputs("awake_mis", graph, preset))

    def test_empty_graph(self):
        generator, schedule = _run_both_engines(nx.Graph(), "awake_mis", 1)
        assert _summarize(schedule) == _summarize(generator)
        assert schedule.outputs == {}

    def test_missing_parameters_raise_like_the_loop(self):
        graph = by_name("path", 3)
        errors = []
        for pinned in (False, True):
            with pytest.raises(KeyError) as excinfo:
                run_protocol(graph, awake_mis_protocol, seed=1,
                             vectorized=pinned)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "awake_params" in errors[0]


def _harness_ids(graph, seed):
    """VT-MIS inputs as the harness gives them: a random permutation of
    ``[1, n]`` as local IDs."""
    order = list(graph.nodes)
    random.Random(seed).shuffle(order)
    return ({"id_bound": max(1, len(order))},
            assign_sequential_ids(graph.nodes, seed_order=order))


def _id_order(result):
    """The labels of a VT-MIS run in ascending ID order."""
    return sorted(result.outputs,
                  key=lambda label: result.outputs[label].detail["id"])


class TestVtMisSchedule:
    """VT-MIS's schedule engine against the generator loop: given IDs,
    random IDs (duplicates included), metered and unmetered, and the same
    input errors."""

    @pytest.mark.parametrize("family", PROPERTY_FAMILIES)
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40),
           graph_seed=st.integers(min_value=0, max_value=10),
           run_seed=st.integers(min_value=0, max_value=1000))
    def test_given_ids_agree_on_every_family(self, family, n, graph_seed,
                                             run_seed):
        graph = by_name(family, n, seed=graph_seed)
        inputs, local_inputs = _harness_ids(graph, run_seed)
        metered = _assert_engines_agree(graph, "vt_mis", run_seed, inputs,
                                        local_inputs=local_inputs)
        assert metered.output_set() == greedy_mis_from_order(
            graph, _id_order(metered))

    @pytest.mark.parametrize("family", PROPERTY_FAMILIES)
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40),
           id_bound=st.integers(min_value=1, max_value=12),
           graph_seed=st.integers(min_value=0, max_value=10),
           run_seed=st.integers(min_value=0, max_value=1000))
    def test_random_small_ids_agree_on_every_family(self, family, n,
                                                    id_bound, graph_seed,
                                                    run_seed):
        """IDs from a small bound collide; equal IDs decide together."""
        _assert_engines_agree(by_name(family, n, seed=graph_seed), "vt_mis",
                              run_seed, {"id_bound": id_bound,
                                         "id_source": "random"})

    def test_adjacent_duplicates_both_join(self):
        """On a clique with IDs from ``[1, 3]``, every node holding the
        smallest drawn ID joins, on both engines."""
        graph = by_name("clique", 12)
        inputs = {"id_bound": 3, "id_source": "random"}
        metered = _assert_engines_agree(graph, "vt_mis", 5, inputs)
        ids = [decision.detail["id"] for decision in
               metered.outputs.values()]
        joined = metered.output_set()
        assert len(joined) == ids.count(min(ids)) > 1
        assert {metered.outputs[label].detail["id"]
                for label in joined} == {min(ids)}

    def test_ids_beyond_int64(self):
        """IDs drawn from ``[1, 2^70]`` are tabulated as Python ints."""
        graph = by_name("gnp", 40, seed=2)
        metered = _assert_engines_agree(
            graph, "vt_mis", 3, {"id_bound": 2**70, "id_source": "random"})
        assert metered.metrics.last_active_round > 2**63

    def test_empty_graph(self):
        generator, schedule = _run_both_engines(nx.Graph(), "vt_mis", 1,
                                                inputs={})
        assert _summarize(schedule) == _summarize(generator)
        assert schedule.outputs == {}

    @pytest.mark.parametrize("inputs, ids, error", [
        ({}, {0: 1, 1: 2, 2: 3}, KeyError),
        ({"id_bound": 3}, {0: 1, 2: 3}, ValueError),
        ({"id_bound": 3}, {0: 1, 1: 4, 2: None}, ValueError),
        ({"id_bound": 3}, {0: 1, 1: 0, 2: 2}, ValueError),
        ({"id_bound": 3}, {0: 2, 1: 1.5, 2: 7}, TypeError),
        ({"id_bound": 0, "id_source": "random"}, {}, ValueError),
    ])
    def test_input_errors_match_the_loops(self, inputs, ids, error):
        """A missing bound, a missing, out-of-range or non-integer ID:
        the loop's exception, for the first offending node in index
        order."""
        graph = by_name("path", 3)
        local_inputs = {label: {"id": value} for label, value in ids.items()
                        if value is not None}
        messages = []
        for pinned in (False, True):
            with pytest.raises(error) as excinfo:
                run_protocol(graph, vt_mis_protocol, inputs=inputs,
                             local_inputs=local_inputs, seed=1,
                             vectorized=pinned)
            messages.append(str(excinfo.value))
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("family", ["gnp", "rgg"])
    def test_lfmis_oracle_at_scale(self, family):
        """At n = 2^14, where the generator loop is too slow to be the
        reference, the engine's MIS is the LFMIS by ID."""
        graph = build_csr(family, 2**14, seed=5).view()
        result = run_mis(graph, "vt_mis", seed=3, keep_raw=True)
        assert result.raw.engine == "schedule"
        assert result.mis == greedy_mis_from_order(graph,
                                                   _id_order(result.raw))


# --------------------------------------------------------------------------- #
# Isolated LDT-MIS participants in closed form
# --------------------------------------------------------------------------- #
def _crowded(graph, preset="scaled"):
    """Awake-MIS inputs with two slots per group, so each batch holds many
    nodes and most phases mix isolated and non-trivial participants."""
    params = _inputs("awake_mis", graph, preset)["awake_params"]
    return {"awake_params": dataclasses.replace(params, delta_prime=2)}


def _run_alone(generator):
    """Drive *generator* with empty inboxes: ``([(round, sends)], value)``."""
    calls = []
    try:
        call = next(generator)
        while True:
            calls.append((call.round, list(call.sends)))
            call = generator.send([])
    except StopIteration as stop:
        return calls, stop.value


def _ldt_participants(graph, result):
    """Phase -> the indices that ran LDT-MIS in it, read off a result: a
    node awake beyond its communication rounds ran LDT-MIS in its batch's
    phase."""
    index_of = {label: index for index, label in enumerate(graph.nodes)}
    per_node = result.metrics.per_node
    phases = {}
    for label, decision in result.outputs.items():
        index = index_of[label]
        if per_node[index].awake_rounds > decision.detail[
                "communication_rounds"]:
            phases.setdefault(decision.detail["batch_index"],
                              set()).add(index)
    return phases


def _record_drives(monkeypatch):
    """Patch :meth:`VectorizedRun.drive` to record ``(phase start round,
    driven indices)`` of every call."""
    calls = []
    original = VectorizedRun.drive

    def drive(self, generators, previous_round):
        calls.append((previous_round, set(generators)))
        return original(self, generators, previous_round)

    monkeypatch.setattr(VectorizedRun, "drive", drive)
    return calls


def _outcome(graph, inputs, seed, pinned, protocol=awake_mis_protocol,
             local_inputs=None, **simulator_kwargs):
    """A run's summary, or its error as ``"Type: message"``."""
    simulator = Simulator(build_network(graph), seed=seed, vectorized=pinned,
                          **simulator_kwargs)
    try:
        result = simulator.run(protocol, inputs=inputs,
                               local_inputs=local_inputs)
    except SimulationError as error:
        return f"{type(error).__name__}: {error}"
    return _summarize(result)


#: Graphs whose crowded batches give mixed phases (checked by
#: ``test_crowded_batches_mix_isolated_and_non_trivial_participants``).
MIXED_GRAPHS = {"gnp": ("gnp", 48, 3), "path": ("path", 48, 0),
                "tree": ("tree", 48, 3)}


class TestIsolatedParticipants:
    """A participant with no undecided same-batch neighbour is applied in
    closed form (:func:`isolated_wake_offsets`); only non-trivial LDT
    components run on the generator loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        preset=st.sampled_from(["scaled", "paper"]),
        n=st.integers(min_value=1, max_value=1 << 16),
        degree=st.one_of(st.just(0), st.integers(min_value=1, max_value=12)),
        start_round=st.integers(min_value=0, max_value=1 << 30),
        rng_seed=st.integers(min_value=0, max_value=1 << 32),
    )
    def test_generator_matches_the_closed_form(self, data, preset, n, degree,
                                               start_round, rng_seed):
        build = (AwakeMISParameters.paper if preset == "paper"
                 else AwakeMISParameters.scaled)
        params = build(n)
        my_id = data.draw(st.integers(min_value=1,
                                      max_value=params.id_space))
        rng = random.Random(rng_seed)
        before = rng.getstate()
        calls, state = _run_alone(ldt_mis_core(
            my_id=my_id, id_space=params.id_space, ports=range(degree),
            n_bound=params.n_bound, start_round=start_round, rng=rng))
        side, vt = isolated_wake_offsets(params.n_bound, params.id_space)
        announcement = isolated_announcement(my_id)
        assert calls == [
            (start_round + side, [(port, announcement)
                                  for port in range(degree)]),
            (start_round + vt, []),
        ]
        assert state == IN_MIS
        assert rng.getstate() == before

    @pytest.mark.parametrize("crowded", [False, True])
    @pytest.mark.parametrize("family", ["gnp", "rgg", "tree"])
    def test_drive_never_sees_an_isolated_participant(self, monkeypatch,
                                                      family, crowded):
        graph = by_name(family, 128 if not crowded else 48, seed=3)
        inputs = (_crowded(graph) if crowded
                  else _inputs("awake_mis", graph))
        phase_length = inputs["awake_params"].phase_length
        labels = list(graph.nodes)
        adjacency = [set(graph[label]) for label in labels]
        calls = _record_drives(monkeypatch)
        for seed in (1, 2, 3):
            calls.clear()
            result = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                                  seed=seed, message_bit_limit=LOOSE_LIMIT)
            assert result.engine == "schedule"
            participants = _ldt_participants(graph, result)
            for previous_round, driven in calls:
                phase = previous_round // phase_length + 1
                members = {labels[index]
                           for index in participants.get(phase, ())}
                assert driven <= participants.get(phase, set())
                for index in driven:
                    assert adjacency[index] & members, (
                        f"drive got isolated participant {index} "
                        f"in phase {phase}")

    @pytest.mark.parametrize("graph_name", sorted(MIXED_GRAPHS))
    def test_crowded_batches_mix_isolated_and_non_trivial_participants(
            self, monkeypatch, graph_name):
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        inputs = _crowded(graph)
        phase_length = inputs["awake_params"].phase_length
        calls = _record_drives(monkeypatch)
        result = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                              seed=1)
        participants = _ldt_participants(graph, result)
        mixed = [len(participants[previous_round // phase_length + 1])
                 > len(driven) for previous_round, driven in calls]
        assert any(mixed)

    @pytest.mark.parametrize("preset", ["scaled", "paper"])
    @pytest.mark.parametrize("graph_name", sorted(MIXED_GRAPHS))
    def test_mixed_phases_agree(self, graph_name, preset):
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        for seed in (1, 2, 3):
            _assert_engines_agree(graph, "awake_mis", seed,
                                  _crowded(graph, preset))

    def test_components_beyond_n_bound_keep_the_round_count(self):
        """A star of 21 nodes in one batch, with ``n_bound`` 3: its
        permutation is cut short, so in some runs no node takes new ID 1
        and wakes in VT-MIS's first round.  The isolated participants of
        that phase must still count the round, as the loop does."""
        graph = nx.star_graph(20)
        graph.add_nodes_from(range(21, 31))
        params = AwakeMISParameters.scaled(graph.number_of_nodes())
        params = dataclasses.replace(
            params, delta_prime=1, n_bound=3,
            phase_length=1 + ldt_mis_round_budget(3, params.id_space) + 40)
        for seed in range(1, 30):
            _assert_engines_agree(graph, "awake_mis", seed,
                                  {"awake_params": params})

    def _agree(self, graph, inputs, seed, **simulator_kwargs):
        outcomes = [_outcome(graph, inputs, seed, pinned, **simulator_kwargs)
                    for pinned in (False, True)]
        assert outcomes[1] == outcomes[0]
        return outcomes[0]

    @pytest.mark.parametrize("graph_name", sorted(MIXED_GRAPHS))
    def test_tight_awake_budgets_in_mixed_phases(self, graph_name):
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        inputs = _crowded(graph)
        for seed in (1, 2):
            reference = run_protocol(graph, awake_mis_protocol,
                                     inputs=inputs, seed=seed,
                                     vectorized=False)
            most = max(node.awake_rounds
                       for node in reference.metrics.per_node)
            outcomes = [self._agree(graph, inputs, seed,
                                    max_awake_per_node=budget)
                        for budget in range(1, most + 1)]
            assert all("awake rounds" in outcome for outcome in outcomes[:-1])
            assert outcomes[-1] == _summarize(reference)

    @pytest.mark.parametrize("graph_name", sorted(MIXED_GRAPHS))
    def test_bit_limits_around_the_announcement(self, graph_name):
        """Limits one bit below, at and above each isolated participant's
        ``frag`` announcement: some trip on it, some inside a non-trivial
        component, some never."""
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        inputs = _crowded(graph)
        reference = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                                 seed=1, vectorized=False)
        sizes = sorted({estimate_bits(isolated_announcement(
            decision.detail["id"])) for decision in reference.outputs.values()})
        outcomes = [self._agree(graph, inputs, 1, message_bit_limit=limit)
                    for size in sizes for limit in (size - 1, size, size + 1)]
        assert any("frag" in outcome for outcome in outcomes
                   if isinstance(outcome, str))

    @pytest.mark.parametrize("share", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    @pytest.mark.parametrize("graph_name", sorted(MIXED_GRAPHS))
    def test_livelock_valve_in_mixed_phases(self, graph_name, share):
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        inputs = _crowded(graph)
        total = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                             seed=1).metrics.active_rounds
        outcome = self._agree(graph, inputs, 1,
                              max_active_rounds=int(share * total))
        assert ("livelocked" in outcome) == (share < 1.0)


# --------------------------------------------------------------------------- #
# Deferred accounting: decisions first, communication rounds after
# --------------------------------------------------------------------------- #
def _record_replays(monkeypatch):
    """Patch :meth:`Simulator._run_vectorized` to record, per numpy-engine
    run, whether it handed the run back to the generator loop."""
    replays = []
    original = Simulator._run_vectorized

    def run_vectorized(self, *args):
        result = original(self, *args)
        replays.append(result is None)
        return result

    monkeypatch.setattr(Simulator, "_run_vectorized", run_vectorized)
    return replays


def _trip_round(graph, inputs, seed, valve, value):
    """The round in which the loop trips *valve* set to *value*, read off
    an unvalved traced run of the generator loop (None: it never trips)."""
    trace = run_protocol(graph, awake_mis_protocol, inputs=inputs,
                         seed=seed, trace=True).trace
    rounds = trace.active_rounds()
    if valve == "max_active_rounds":
        return rounds[value] if value < len(rounds) else None
    if valve == "max_awake_per_node":
        counts = Counter()
        for round_index in rounds:
            for label in trace.awake_by_round[round_index]:
                counts[label] += 1
                if counts[label] > value:
                    return round_index
        return None
    return next((event.round for event in trace.messages
                 if estimate_bits(event.payload) > value), None)


#: ``(valve, value, graph, crowded batches, id_space, run seed, case)``:
#: every valve kind trips once in a communication round before a later
#: driven LDT-MIS phase and once inside ``drive``.  On the communication
#: cases the later drive runs clean (awake), or trips the same valve
#: (livelock) or its own (bit limit: VT-MIS's ``undecided`` state is 72
#: bits); a small ID space keeps the LDT-MIS announcements of the bit
#: case below the 64-bit ``notinMIS`` broadcast.
VALVE_CASES = [
    ("max_active_rounds", 51, "gnp", True, None, 2, "communication"),
    ("max_active_rounds", 120, "path", True, None, 1, "drive"),
    ("max_awake_per_node", 33, "tree", True, None, 2, "communication"),
    ("max_awake_per_node", 12, "gnp", True, None, 1, "drive"),
    ("message_bit_limit", 60, "gnp", False, 512, 4, "communication"),
    ("message_bit_limit", 100, "gnp", True, None, 2, "drive"),
]


class TestDeferredAccounting:
    """The schedule engine decides every batch before it accounts any
    communication round, so a valve that trips in a communication round
    is found after later phases were already driven; the replay on the
    loop must still raise it, with the loop's message."""

    @pytest.mark.parametrize("valve, value, graph_name, crowded, id_space, "
                             "seed, case", VALVE_CASES)
    def test_valve_precedence(self, monkeypatch, valve, value, graph_name,
                              crowded, id_space, seed, case):
        family, n, graph_seed = MIXED_GRAPHS[graph_name]
        graph = by_name(family, n, seed=graph_seed)
        params = (_crowded(graph) if crowded
                  else _inputs("awake_mis", graph))["awake_params"]
        if id_space is not None:
            params = dataclasses.replace(params, id_space=id_space)
        inputs = {"awake_params": params}
        drives = _record_drives(monkeypatch)
        replays = _record_replays(monkeypatch)
        loop, engine = (_outcome(graph, inputs, seed, pinned, **{valve: value})
                        for pinned in (False, True))
        assert isinstance(loop, str) and engine == loop
        assert replays == [True]
        tripped = _trip_round(graph, inputs, seed, valve, value)
        phase_length = params.phase_length
        phase = tripped // phase_length + 1
        driven = {start // phase_length + 1 for start, _ in drives}
        if case == "communication":
            assert tripped % phase_length == 0
            assert max(driven) >= phase
        else:
            assert tripped % phase_length != 0
            assert phase in driven

    def test_no_per_round_bookkeeping(self, monkeypatch):
        """The schedule engines (Awake-MIS, VT-MIS) never record a round
        one at a time; the spy is live (Luby's whole-round engine still
        calls it)."""
        calls = []
        for name in ("begin_round", "record_awake", "record_sends"):
            original = getattr(VectorizedRun, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(VectorizedRun, name, spy)
        graph = by_name("gnp", 48, seed=3)
        outcomes = [_outcome(graph, inputs, 1, True, **kwargs)
                    for inputs, kwargs in (
                        (_inputs("awake_mis", graph), {}),
                        (_crowded(graph), {"message_bit_limit": LOOSE_LIMIT}),
                        (_crowded(graph), {"max_awake_per_node": 12}),
                        (_crowded(graph, "paper"), {}))]
        assert [isinstance(outcome, str) for outcome in outcomes] == [
            False, False, True, False]
        assert run_protocol(graph, vt_mis_protocol, seed=1, vectorized=True,
                            inputs=_inputs("vt_mis", graph),
                            message_bit_limit=LOOSE_LIMIT).engine == "schedule"
        assert calls == []
        run_protocol(graph, luby_protocol, inputs=INPUTS, seed=1,
                     vectorized=True)
        assert set(calls) == {"begin_round", "record_awake", "record_sends"}

    @pytest.mark.parametrize("name, noun", [("awake_mis", "batch"),
                                            ("vt_mis", "step")])
    def test_a_broken_shortcut_is_a_named_failure(self, monkeypatch, name,
                                                  noun):
        """A schedule without Observation 5's shared rounds (each node
        attends its own key's round only) leaves dominated nodes
        unreached; both schedule engines name that instead of
        diverging."""
        monkeypatch.setattr(vectorized_module, "communication_table",
                            lambda keys, i: keys[:, None])
        monkeypatch.setattr(vectorized_module, "in_communication_set",
                            lambda r, k: r == k)
        graph = by_name("path", 48)
        with pytest.raises(AssertionError,
                           match=rf"Observation 5 violated: node \d+ of "
                                 rf"{noun} \d+ has an IN_MIS neighbour"):
            run_protocol(graph, PROTOCOLS[name], seed=1, vectorized=True,
                         inputs=_inputs(name, graph))


# --------------------------------------------------------------------------- #
# Replay: a run in which a valve could trip goes back to the generator loop
# --------------------------------------------------------------------------- #
#: ``(protocol name, Awake-MIS preset)`` of every numpy-engine configuration.
ENGINE_CONFIGS = [("luby", "scaled"), ("rank_greedy", "scaled"),
                  ("vt_mis", "scaled"), ("awake_mis", "scaled"),
                  ("awake_mis", "paper")]

#: Tight and loose settings of each valve, for the replay tests.
VALVE_VALUES = {"max_awake_per_node": (0, 1, 2, 3, 5, 8, 13, 40, 10_000),
                "max_active_rounds": (0, 1, 5, 20, 60, 200, 10_000_000),
                "message_bit_limit": (1, 40, 63, 64, 100, 200, 100_000)}


class TestReplay:
    """A numpy engine that finds a valve could trip hands the run back to
    ``Simulator.run``, which replays it on the generator loop from the
    same per-node seeds; a run inside every valve is never replayed."""

    @pytest.mark.parametrize("family", ["gnp", "rgg", "tree"])
    @pytest.mark.parametrize("name, preset", ENGINE_CONFIGS)
    def test_a_run_inside_every_valve_never_replays(self, monkeypatch, name,
                                                    preset, family):
        replays = _record_replays(monkeypatch)
        graph = by_name(family, 64, seed=3)
        params = {"preset": preset} if name == "awake_mis" else {}
        for seed in (1, 2, 3):
            assert run_mis(graph, name, seed=seed, **params).verified
        if name == "awake_mis":
            result = run_protocol(graph, awake_mis_protocol, seed=1,
                                  inputs=_crowded(graph, preset),
                                  message_bit_limit=LOOSE_LIMIT)
            assert result.engine == "schedule"
        assert replays and not any(replays)

    @pytest.mark.parametrize("valve", sorted(VALVE_VALUES))
    @pytest.mark.parametrize("name, preset", ENGINE_CONFIGS)
    def test_a_random_master_replays_the_same_streams(self, monkeypatch, name,
                                                      preset, valve):
        """A ``random.Random`` master is read once per node, so the
        replay must spawn from the seeds the engine's run drew."""
        replays = _record_replays(monkeypatch)
        graph = by_name("gnp", 40, seed=3)
        inputs = (_crowded(graph, preset) if name == "awake_mis"
                  else _inputs(name, graph))
        outcomes = []
        for value in VALVE_VALUES[valve]:
            loop, engine = (
                _outcome(graph, inputs, random.Random(7), pinned,
                         PROTOCOLS[name], **{valve: value})
                for pinned in (False, None))
            assert engine == loop
            outcomes.append(loop)
        assert isinstance(outcomes[0], str)
        assert not isinstance(outcomes[-1], str)
        assert any(replays) and not all(replays)

    @pytest.mark.parametrize("valve", sorted(VALVE_VALUES))
    def test_valves_outside_every_drive(self, monkeypatch, valve):
        """No LDT component is driven on this tree, so the final headroom
        test alone must find every trip: state broadcasts, closed-form
        ``frag`` announcements (60–74 bits here), awake counts and
        active rounds."""
        graph = by_name("tree", 48, seed=3)
        inputs = _inputs("awake_mis", graph)
        drives = _record_drives(monkeypatch)
        values = VALVE_VALUES[valve]
        if valve == "message_bit_limit":
            values = tuple(range(38, 76, 2))
        outcomes = []
        for value in values:
            loop, engine = (_outcome(graph, inputs, 3, pinned, **{valve: value})
                            for pinned in (False, True))
            assert engine == loop
            outcomes.append(loop)
        assert drives == []
        assert isinstance(outcomes[0], str)
        assert not isinstance(outcomes[-1], str)

    @pytest.mark.parametrize("valve", sorted(VALVE_VALUES))
    def test_vt_mis_given_ids_replays_exactly_when_a_valve_trips(
            self, monkeypatch, valve):
        """VT-MIS on harness IDs wakes at most 7 times per node over 40
        rounds and sends 72-bit ``undecided`` states: each valve's tight
        settings give the loop's error through a replay, and its loose
        ones never replay."""
        replays = _record_replays(monkeypatch)
        graph = by_name("gnp", 40, seed=3)
        inputs, local_inputs = _harness_ids(graph, 4)
        outcomes = []
        for value in VALVE_VALUES[valve]:
            loop, engine = (
                _outcome(graph, inputs, 1, pinned, vt_mis_protocol,
                         local_inputs, **{valve: value})
                for pinned in (False, None))
            assert engine == loop
            outcomes.append(loop)
        tripped = [isinstance(outcome, str) for outcome in outcomes]
        assert tripped[0] and not tripped[-1]
        assert replays == tripped

    @pytest.mark.parametrize("name, preset", ENGINE_CONFIGS)
    def test_vectorized_true_raises_the_loops_error(self, name, preset):
        graph = by_name("gnp", 24, seed=3)
        inputs = _inputs(name, graph, preset)
        errors = []
        for pinned in (False, True):
            simulator = Simulator(build_network(graph), seed=1,
                                  vectorized=pinned, max_awake_per_node=2)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(PROTOCOLS[name], inputs=inputs)
            errors.append(str(excinfo.value))
        assert errors[1] == errors[0]
        assert "exceeded 2 awake rounds" in errors[0]


# --------------------------------------------------------------------------- #
# RNG stream discipline
# --------------------------------------------------------------------------- #
class CountingRandom(random.Random):
    """A Random that tallies its draws into a shared counter.

    ``randrange`` (``randint`` included) and ``random`` each count one
    draw; ``shuffle`` draws through ``getrandbits`` and shows up in the
    final state the tests compare as well.
    """

    def __init__(self, seed, counts, index):
        super().__init__(seed)
        self._counts = counts
        self._index = index

    def randrange(self, *args, **kwargs):
        self._counts[self._index] += 1
        return super().randrange(*args, **kwargs)

    def random(self):
        self._counts[self._index] += 1
        return super().random()


class TestRngConsumption:
    @pytest.mark.parametrize("limit", [None, LOOSE_LIMIT])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_engines_consume_identical_draws_per_node(self, monkeypatch,
                                                      name, limit):
        """Both engines must draw the same values from the same per-node
        streams — the property that makes them bit-identical and keeps
        future protocol changes honest about RNG discipline: equal draw
        counts, and every stream left in the same state."""
        import repro.sim.runner as runner_module

        graph = by_name("gnp", 32, seed=9)
        inputs = _inputs(name, graph)
        master = 17

        generator_counts = [0] * 32
        generator_streams = {}

        def spawn_counting(seed, index):
            stream = CountingRandom(derive_seed(seed, index),
                                    generator_counts, index)
            generator_streams[index] = stream
            return stream

        monkeypatch.setattr(runner_module, "spawn_rng", spawn_counting)
        run_protocol(graph, PROTOCOLS[name], inputs=inputs, seed=master,
                     message_bit_limit=limit, vectorized=False)

        vectorized_counts = [0] * 32
        vectorized_streams = []
        def spawn_all_counting(seed, count):
            vectorized_streams.extend(
                CountingRandom(derive_seed(seed, i), vectorized_counts, i)
                for i in range(count))
            return vectorized_streams

        monkeypatch.setattr(vectorized_module, "spawn_rngs",
                            spawn_all_counting)
        result = run_protocol(graph, PROTOCOLS[name], inputs=inputs,
                              seed=master, message_bit_limit=limit,
                              vectorized=True)

        assert result.engine == ENGINE_NAMES[name]
        assert sum(generator_counts) > 0
        assert vectorized_counts == generator_counts
        assert [stream.getstate() for stream in vectorized_streams] == [
            generator_streams[index].getstate() for index in range(32)]


    def test_streams_spawn_only_when_an_engine_draws(self, monkeypatch):
        """``VectorizedRun.rngs`` spawns on first use: luby, rank_greedy,
        Awake-MIS and random-ID VT-MIS spawn n streams once; VT-MIS on
        given IDs seeds none."""
        spawned = []
        original = vectorized_module.spawn_rngs

        def spy(seed, count):
            spawned.append(count)
            return original(seed, count)

        monkeypatch.setattr(vectorized_module, "spawn_rngs", spy)
        graph = by_name("gnp", 32, seed=9)
        for name in ("luby", "rank_greedy", "awake_mis", "vt_mis"):
            spawned.clear()
            result = run_mis(graph, name, seed=1, keep_raw=True)
            assert result.raw.engine == ENGINE_NAMES[name]
            assert spawned == ([] if name == "vt_mis" else [32])
        result = run_protocol(graph, vt_mis_protocol, seed=1,
                              inputs=_inputs("vt_mis", graph))
        assert result.engine == "schedule"
        assert spawned == [32]


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
        state.record_sends(senders, [7, 9, 11])
        state.record_sends(senders, 5)
        assert state.messages_sent.tolist() == [0, 4, 2, 0]
        assert state.bits_sent.tolist() == [0, 2 * 7 + 2 * 5, 9 + 5, 0]
        assert state.max_message_bits.tolist() == [0, 7, 9, 0]

    def test_record_sends_unmetered_counts_messages_only(self):
        state = self._state()
        state.record_sends(np.array([0, 1]), None)
        assert state.messages_sent.tolist() == [1, 2, 0, 0]
        assert state.bits_sent.tolist() == [0, 0, 0, 0]
        assert state.metered is False

    def test_record_sends_signals_an_oversize_sender(self):
        state = self._state(message_bit_limit=8)
        # node 3 (degree 0) sends nothing, so its size is never checked.
        state.record_sends(np.array([0, 3]), [8, 99])
        with pytest.raises(ValveTrip):
            state.record_sends(np.array([0, 1, 2, 3]), [8, 9, 8, 0])

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
        run.record_sends(early[:0], 0)
    everyone = np.arange(run.n)
    run.begin_round(1)
    run.record_awake(everyone)
    run.record_sends(everyone, [estimate_bits(p) for p in payloads])


_staggered_protocol.vectorized_engine = _staggered_engine


class TestSafetyValves:
    def _messages(self, graph, protocol=luby_protocol, local_inputs=None,
                  inputs=INPUTS, seed=1, **simulator_kwargs):
        errors = {}
        for name, pinned in (("generator", False), ("vectorized", True)):
            simulator = Simulator(build_network(graph), seed=seed,
                                  vectorized=pinned, **simulator_kwargs)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run(protocol, inputs=inputs,
                              local_inputs=local_inputs)
            errors[name] = f"{type(excinfo.value).__name__}: {excinfo.value}"
        assert errors["vectorized"] == errors["generator"]
        return errors["vectorized"]

    def _valve(self, name, graph, **simulator_kwargs):
        return self._messages(graph, PROTOCOLS[name],
                              inputs=_inputs(name, graph), **simulator_kwargs)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_livelock_valve_messages_match(self, name):
        error = self._valve(name, by_name("gnp", 24, seed=3),
                            max_active_rounds=1)
        assert "livelocked" in error

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_awake_budget_valve_messages_match(self, name):
        error = self._valve(name, by_name("gnp", 24, seed=3),
                            max_awake_per_node=1)
        assert "exceeded 1 awake rounds" in error

    @pytest.mark.parametrize("limit", [1, 39, 40, 60])
    @pytest.mark.parametrize("name", LOCAL_MINIMUM)
    def test_message_too_large_messages_match(self, name, limit):
        """Round-1 ``(tag, value)`` messages trip small limits; a limit of
        exactly 40 bits admits the IN_MIS announcement but not them."""
        error = self._valve(name, by_name("gnp", 24, seed=3),
                            message_bit_limit=limit)
        assert error.startswith("MessageTooLargeError: node ")
        assert f"(limit {limit}) in round 0" in error

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_awake_valve_precedes_the_bit_limit(self, name):
        """Both valves trip in round 0 for every node; node 0's awake
        budget is checked before its sends."""
        error = self._valve(name, by_name("gnp", 24, seed=3),
                            max_awake_per_node=0, message_bit_limit=1)
        assert error.startswith("SimulationError: node ")
        assert "exceeded 0 awake rounds" in error

    @pytest.mark.parametrize("share", [0.0, 0.2, 0.5, 0.8, 0.99])
    def test_awake_mis_livelock_valve_anywhere_in_the_run(self, share):
        """The active-round count runs on across communication rounds and
        the LDT-MIS rounds in between, so the valve trips at the same
        round wherever that falls."""
        graph = by_name("gnp", 48, seed=3)
        total = run_protocol(graph, awake_mis_protocol, seed=1,
                             inputs=_inputs("awake_mis", graph),
                             ).metrics.active_rounds
        error = self._valve("awake_mis", graph,
                            max_active_rounds=int(share * total))
        assert "livelocked" in error

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13])
    def test_awake_mis_small_awake_budgets(self, budget):
        """Small budgets trip in communication rounds, larger ones inside
        LDT-MIS rounds; both engines name the same node either way."""
        error = self._valve("awake_mis", by_name("gnp", 48, seed=3),
                            max_awake_per_node=budget)
        assert f"exceeded {budget} awake rounds" in error

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_awake_mis_valve_fires_in_a_round_without_senders(self, seed):
        """Nobody is decided in the first communication rounds, so nobody
        sends there; the awake valve must still fire in the first of them,
        naming its lowest attendee, not wait for a round with senders."""
        error = self._valve("awake_mis", by_name("gnp", 24, seed=3),
                            seed=seed, max_awake_per_node=0)
        assert "exceeded 0 awake rounds" in error

    @pytest.mark.parametrize("limit", [1, 39, 40, 63, 64, 70])
    def test_awake_mis_bit_limits(self, limit):
        """No one sends in round 0 (everyone is undecided); limits below
        the 40- and 64-bit state broadcasts can trip in communication
        rounds, and a limit that admits both trips inside LDT-MIS, whose
        tuples are larger."""
        graph = by_name("gnp", 48, seed=3)
        error = self._valve("awake_mis", graph, message_bit_limit=limit)
        assert error.startswith("MessageTooLargeError: node ")
        sent_in = int(error.split(" in round ")[1].split(":")[0])
        if limit >= estimate_bits("notinMIS"):
            phase_length = _inputs("awake_mis", graph)[
                "awake_params"].phase_length
            assert sent_in % phase_length != 0

    @pytest.mark.parametrize("budget, limit", [(3, 64), (5, 64), (8, 64),
                                               (13, 64), (2, 40)])
    def test_awake_mis_valve_precedence_inside_ldt(self, budget, limit):
        """Awake budget and bit limit race in the same run; whichever the
        generator loop trips first, the schedule engine trips too."""
        error = self._valve("awake_mis", by_name("gnp", 48, seed=3),
                            max_awake_per_node=budget,
                            message_bit_limit=limit)
        assert error.startswith(("SimulationError: node ",
                                 "MessageTooLargeError: node "))

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
