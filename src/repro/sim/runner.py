"""The SLEEPING-CONGEST round driver.

:class:`Simulator` executes one protocol instance per node of a
:class:`repro.sim.network.Network`.  Protocols are generator functions (see
:mod:`repro.sim.actions`); the driver advances global time from one *active*
round to the next, so algorithms whose round complexity is huge but whose
awake complexity is small (the whole point of the paper) simulate in time
proportional to the total number of awake node-rounds, not to the number of
rounds.

Round semantics (paper Section 1.3):

1. every node awake in round ``r`` performs local computation and queues its
   outgoing messages (this happened when its generator yielded the
   :class:`~repro.sim.actions.WakeCall`),
2. queued messages are transmitted,
3. a message is received only if its destination is awake in the same round
   ``r``; otherwise it is lost,
4. awake nodes then receive their inbox (the generator is resumed with it)
   and either terminate or schedule their next awake round.

Engines
-------

The driver has interchangeable round engines; all produce identical
outputs and awake/round/message counts, so an engine can only ever change
wall-clock time, never bytes:

1. The **generator loop** (:meth:`Simulator._drive`) runs every protocol.
   It routes messages through the network's flat
   ``(offsets, neighbors, arrivals)`` arrays (straight out of the
   shared-memory segment for CSR-backed graphs), reuses one inbox buffer
   per node across rounds, and meters only when asked: with a
   ``message_bit_limit`` or ``trace=True`` every message's size is
   estimated with :func:`~repro.sim.message.estimate_bits` (once per run
   of consecutive sends carrying the same object, as broadcasts do),
   checked against the limit and counted, and the trace hook records
   awake sets and message events.  Otherwise sizes are never estimated:
   the aggregate ``max_message_bits`` then reads ``None`` ("not
   measured") and per-node bit counters stay 0.  Note that
   :func:`repro.experiments.harness.run_mis` enforces CONGEST by default,
   so sweeps meter unless ``enforce_congest=False``.
2. The **numpy engines** (:mod:`repro.sim.vectorized`) compute rounds as
   array operations over the same flat arrays.  A protocol opts in by
   exposing a ``vectorized_engine`` attribute on its factory: ``luby``
   and ``rank_greedy`` share the *whole-round* engine (every undecided
   node awake every iteration); ``vt_mis`` and ``awake_mis`` have
   *schedule* engines, which compute every communication round from each
   node's ID- or batch-determined wake schedule through one shared
   account (:class:`~repro.sim.vectorized.ScheduleTable`); Awake-MIS
   drives LDT-MIS, in between, on the generator loop above
   (:meth:`VectorizedRun.drive
   <repro.sim.vectorized.VectorizedRun.drive>`).  They engage whenever
   tracing is off, CONGEST-metered runs included (they meter message
   sizes themselves, with the same per-node bit counters), and fall back
   to the generator loop under tracing.  Random draws come from the same
   per-node ``spawn_rng`` streams in the same per-node order, so the run
   is bit-for-bit identical to the generator loop (pinned by
   ``tests/test_runner_semantics.py`` and ``tests/test_vectorized.py``).
   :attr:`RunResult.engine` names the engine that ran (``"generator"``,
   ``"vectorized"`` or ``"schedule"``).  Pass ``vectorized=False`` to pin
   the generator loop, ``vectorized=True`` to require the protocol's
   engine (a configuration that cannot use it then raises).

Safety valves (the livelock count, the per-node awake budget and the
CONGEST bit limit) have one rule: a numpy engine that finds a valve could
trip hands the run back, and :meth:`Simulator.run` replays it on the
generator loop from the same per-node seeds, so only the loop builds
valve errors, in its own precedence.

Buffer-reuse contract: the inbox list a generator is resumed with is only
valid until the node's next ``yield``; protocols must consume (or copy) it
before yielding their next :class:`~repro.sim.actions.WakeCall`.  Every
shipped protocol reads its inbox immediately upon resumption.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    MessageTooLargeError,
    ProtocolViolationError,
    SimulationError,
)
from repro.rng import NodeSeeds, SeedLike, fix_node_seeds, spawn_rng
from repro.sim.actions import Receive, WakeCall
from repro.sim.context import NodeContext
from repro.sim.message import estimate_bits
from repro.sim.metrics import NodeMetrics, RunMetrics
from repro.sim.network import Network, build_network
from repro.sim.trace import MessageEvent, Trace

#: A protocol factory: called once per node with its context, returns the
#: node's generator.
ProtocolFactory = Callable[[NodeContext], Generator[WakeCall, List[Receive], Any]]

#: Sentinel "previous payload" no real send can be identical to.
_NO_PAYLOAD = object()


def missing_outputs_error(missing: List[Any]) -> SimulationError:
    """Some nodes never terminated; shared by every engine."""
    return SimulationError(
        f"{len(missing)} node(s) never terminated: {missing[:5]}"
    )


@dataclass
class RunResult:
    """Everything produced by one simulation run."""

    #: Mapping from graph node label to the protocol's return value.
    outputs: Dict[Any, Any]
    #: Aggregated metrics (awake/round complexity, messages).
    metrics: RunMetrics
    #: Per-node awake counts keyed by graph label (convenience view).
    awake_by_label: Dict[Any, int] = field(default_factory=dict)
    #: Optional trace (present only when tracing was enabled).
    trace: Optional[Trace] = None
    #: The round engine that ran: ``"generator"`` (also for a run a numpy
    #: engine handed back to the loop), ``"vectorized"`` or ``"schedule"``.
    #: Diagnostic only; never compared, and never written to records.
    engine: str = field(default="generator", compare=False)

    def output_set(self, predicate: Callable[[Any], bool] = bool) -> set:
        """Return the labels whose output satisfies *predicate*.

        The MIS protocols return ``True`` for nodes that joined the MIS, so
        ``result.output_set()`` is the computed MIS.
        """
        return {label for label, value in self.outputs.items() if predicate(value)}


class Simulator:
    """Drives a set of per-node protocol generators over a network.

    Parameters
    ----------
    network:
        The port-numbered network to simulate on.
    seed:
        Master seed; every node receives an independent generator derived
        from it.
    message_bit_limit:
        If not ``None``, sending a message whose estimated size exceeds this
        many bits raises :class:`MessageTooLargeError`.  The experiment
        harness sets it to a multiple of ``log2(N)`` to enforce CONGEST.
        When ``None`` and tracing is off, the driver does not estimate
        message sizes at all (bit statistics then read "not measured").
    max_active_rounds:
        Safety valve: abort (with :class:`SimulationError`) if more than this
        many *active* rounds elapse, which indicates a livelocked protocol.
    max_awake_per_node:
        Safety valve on any single node's awake rounds.
    trace:
        When True, record a :class:`~repro.sim.trace.Trace` of awake sets and
        message events.
    vectorized:
        Engine selection for protocols that expose a ``vectorized_engine``
        hook: ``None`` (default) engages the protocol's numpy engine
        whenever tracing is off (bit limits included); ``False``
        pins the generator loop; ``True``
        requires the numpy engine and raises
        :class:`~repro.errors.ConfigurationError` when it cannot run.
        Engine choice never changes outputs or counts.
    """

    def __init__(
        self,
        network: Network,
        seed: SeedLike = None,
        message_bit_limit: Optional[int] = None,
        max_active_rounds: int = 5_000_000,
        max_awake_per_node: int = 1_000_000,
        trace: bool = False,
        vectorized: Optional[bool] = None,
    ) -> None:
        self._network = network
        self._seed = seed
        self._message_bit_limit = message_bit_limit
        self._max_active_rounds = max_active_rounds
        self._max_awake_per_node = max_awake_per_node
        self._trace_enabled = trace
        self._vectorized = vectorized

    # ------------------------------------------------------------------ #
    def run(
        self,
        protocol: ProtocolFactory,
        inputs: Optional[Dict[str, Any]] = None,
        local_inputs: Optional[Dict[Any, Any]] = None,
    ) -> RunResult:
        """Run *protocol* on every node and return the :class:`RunResult`.

        *inputs* is the globally-known input dictionary shared by all nodes;
        *local_inputs* optionally maps graph labels to per-node inputs (e.g.
        externally assigned IDs).
        """
        network = self._network
        n = network.size
        inputs = dict(inputs or {})
        local_inputs = dict(local_inputs or {})

        seeds: NodeSeeds = self._seed
        engine = self._select_vectorized_engine(protocol)
        if engine is not None:
            # A numpy engine hands back a run in which a valve could trip;
            # the loop below then replays it from the same seeds.
            seeds = fix_node_seeds(seeds, n)
            result = self._run_vectorized(engine, seeds, inputs, local_inputs)
            if result is not None:
                return result

        generators: List[Optional[Generator[WakeCall, List[Receive], Any]]] = []
        outputs: Dict[Any, Any] = {}
        trace = Trace() if self._trace_enabled else None
        metrics = RunMetrics(
            per_node=[NodeMetrics() for _ in range(n)],
            bits_metered=(trace is not None
                          or self._message_bit_limit is not None),
        )

        # (round, node_index, WakeCall) heap of pending wake-ups.
        pending: List[tuple] = []

        for index in range(n):
            label = network.label_of(index)
            ctx = NodeContext(
                degree=network.degree(index),
                ports=list(range(network.degree(index))),
                rng=spawn_rng(seeds, index),
                inputs=inputs,
                local_input=local_inputs.get(label),
                debug_label=label,
            )
            gen = protocol(ctx)
            generators.append(gen)
            try:
                first_call = next(gen)
            except StopIteration as stop:
                outputs[label] = stop.value
                metrics.per_node[index].terminated_round = -1
                generators[index] = None
                continue
            self._validate_call(first_call, index, previous_round=-1)
            heapq.heappush(pending, (first_call.round, index, first_call))

        by_index: Dict[int, Any] = {}
        metrics.active_rounds, metrics.last_active_round = self._drive(
            pending, generators, by_index, metrics.per_node,
            [[] for _ in range(n)], metered=metrics.bits_metered,
            trace=trace)
        for index, value in by_index.items():
            outputs[network.label_of(index)] = value

        # Nodes that never terminated explicitly (generator exhausted without
        # return) have output None already; nodes still pending cannot exist
        # here because the loop drains the heap.
        awake_by_label = {
            network.label_of(index): metrics.per_node[index].awake_rounds
            for index in range(n)
        }
        missing = [
            network.label_of(index)
            for index in range(n)
            if network.label_of(index) not in outputs
        ]
        if missing:
            raise missing_outputs_error(missing)
        return RunResult(
            outputs=outputs,
            metrics=metrics,
            awake_by_label=awake_by_label,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    def _select_vectorized_engine(self, protocol: ProtocolFactory):
        """Return the protocol's vectorized engine when it should engage.

        The engine engages only when the protocol opts in (a
        ``vectorized_engine`` hook on the factory), tracing is off, and
        the caller did not pin ``vectorized=False``.  ``vectorized=True``
        turns every reason *not* to engage into a
        :class:`ConfigurationError` instead of a silent fallback.
        """
        if self._vectorized is False:
            return None
        hook = getattr(protocol, "vectorized_engine", None)
        blocker = None
        if hook is None:
            blocker = "the protocol exposes no vectorized_engine hook"
        elif self._trace_enabled:
            blocker = "tracing is enabled"
        if blocker is None:
            return hook
        if self._vectorized is True:
            raise ConfigurationError(
                f"vectorized=True but the vectorized engine cannot run: "
                f"{blocker}"
            )
        return None

    def _run_vectorized(self, engine, seeds: NodeSeeds, inputs,
                        local_inputs) -> Optional[RunResult]:
        """Drive *engine* over a :class:`~repro.sim.vectorized.VectorizedRun`;
        ``None`` when it finds that a safety valve could trip."""
        from repro.sim.vectorized import ValveTrip, VectorizedRun

        state = VectorizedRun(
            self._network,
            seed=seeds,
            inputs=inputs,
            local_inputs=local_inputs,
            max_active_rounds=self._max_active_rounds,
            max_awake_per_node=self._max_awake_per_node,
            message_bit_limit=self._message_bit_limit,
        )
        try:
            engine(state)
        except ValveTrip:
            return None
        return state.to_result()

    # ------------------------------------------------------------------ #
    def _drive(
        self,
        pending: List[tuple],
        generators,
        outputs: Dict[int, Any],
        per_node,
        inboxes: List[List[Receive]],
        *,
        metered: bool,
        trace: Optional[Trace] = None,
        active_rounds: int = 0,
    ) -> Tuple[int, Optional[int]]:
        """The round loop: wake, send, deliver to awake receivers, resume.

        *pending* is the ``(round, index, WakeCall)`` heap of the nodes to
        drive; *generators* and *per_node* are indexable by node index
        (lists over every node, or dicts over just the driven ones), and
        only driven nodes are ever awake, so only their entries are
        touched.  Return values land in *outputs* keyed by node index, in
        termination order.  *inboxes* holds one buffer per node, reused
        across rounds (cleared when the node next wakes).  Sizes are
        estimated, checked against the bit limit and counted only when
        *metered*; a send repeating the previous send's payload *object*
        reuses its estimate (identity, never equality: ``True == 1`` but
        they cost 1 and 2 bits).  *trace*, when given, records every awake
        set and message event.  The livelock valve counts on from
        *active_rounds*, so a run that drives its nodes in several calls
        keeps one global count.  Returns ``(active_rounds,
        last_active_round)``, the latter ``None`` when no round ran.
        """
        network = self._network
        offsets, flat_neighbors, flat_arrivals = network.csr_tables()
        label_of = network.label_of
        max_awake = self._max_awake_per_node
        bit_limit = self._message_bit_limit

        last_round: Optional[int] = None
        awake: Dict[int, WakeCall] = {}
        while pending:
            current_round = pending[0][0]
            active_rounds += 1
            if active_rounds > self._max_active_rounds:
                raise SimulationError(
                    f"exceeded {self._max_active_rounds} active rounds; "
                    "protocol appears to be livelocked")

            # Pop every node awake in this round; recycle its inbox buffer.
            awake.clear()
            while pending and pending[0][0] == current_round:
                _, index, call = heapq.heappop(pending)
                awake[index] = call
                inboxes[index].clear()

            for index, call in awake.items():
                node_metrics = per_node[index]
                node_metrics.awake_rounds += 1
                if node_metrics.awake_rounds > max_awake:
                    raise SimulationError(f"node {label_of(index)} exceeded "
                                          f"{max_awake} awake rounds")
                base = offsets[index]
                last_payload = _NO_PAYLOAD
                for port, payload in call.sends:
                    node_metrics.messages_sent += 1
                    if metered:
                        if payload is not last_payload:
                            bits = estimate_bits(payload)
                            last_payload = payload
                        if bit_limit is not None and bits > bit_limit:
                            raise MessageTooLargeError(
                                f"node {label_of(index)} sent a {bits}-bit "
                                f"message (limit {bit_limit}) in round "
                                f"{current_round}: {payload!r}")
                        node_metrics.bits_sent += bits
                        if bits > node_metrics.max_message_bits:
                            node_metrics.max_message_bits = bits
                    receiver = flat_neighbors[base + port]
                    delivered = receiver in awake
                    if delivered:
                        inboxes[receiver].append(
                            (flat_arrivals[base + port], payload))
                        per_node[receiver].messages_received += 1
                    if trace is not None:
                        trace.record_message(MessageEvent(
                            round=current_round,
                            sender=label_of(index),
                            receiver=label_of(receiver),
                            payload=payload,
                            delivered=delivered,
                        ))

            if trace is not None:
                trace.record_awake(current_round,
                                   [label_of(index) for index in awake])
            last_round = current_round

            # Resume every awake node with its inbox.  Heap pops produced
            # increasing indices, so the dict iterates in node order.
            for index in awake:
                gen = generators[index]
                assert gen is not None
                try:
                    next_call = gen.send(inboxes[index])
                except StopIteration as stop:
                    outputs[index] = stop.value
                    per_node[index].terminated_round = current_round
                    generators[index] = None
                    continue
                self._validate_call(next_call, index, previous_round=current_round)
                heapq.heappush(pending, (next_call.round, index, next_call))
        return active_rounds, last_round

    # ------------------------------------------------------------------ #
    def _validate_call(
        self, call: WakeCall, index: int, previous_round: int
    ) -> None:
        """Check that a wake call respects the round structure and ports."""
        if not isinstance(call, WakeCall):
            raise ProtocolViolationError(
                f"protocol yielded {type(call).__name__}; expected WakeCall"
            )
        if call.round <= previous_round:
            raise ProtocolViolationError(
                f"node {self._network.label_of(index)} scheduled round "
                f"{call.round} which is not after its previous awake round "
                f"{previous_round}"
            )
        degree = self._network.degree(index)
        for port, _ in call.sends:
            if not 0 <= port < degree:
                raise ProtocolViolationError(
                    f"node {self._network.label_of(index)} sent on port {port} "
                    f"but has only {degree} port(s)"
                )


def run_protocol(
    graph,
    protocol: ProtocolFactory,
    inputs: Optional[Dict[str, Any]] = None,
    local_inputs: Optional[Dict[Any, Any]] = None,
    seed: SeedLike = None,
    message_bit_limit: Optional[int] = None,
    trace: bool = False,
    max_active_rounds: int = 5_000_000,
    vectorized: Optional[bool] = None,
) -> RunResult:
    """Convenience wrapper: build the network and run *protocol* on *graph*.

    *graph* is a networkx graph (converted to CSR arrays once) or a CSR
    graph or view (adopted without copying); see
    :class:`repro.sim.network.Network`.
    *vectorized* selects the protocol's numpy engine for protocols that
    opt in (see :class:`Simulator`); it can only change speed, never bytes.
    """
    network = build_network(graph)
    simulator = Simulator(
        network,
        seed=seed,
        message_bit_limit=message_bit_limit,
        trace=trace,
        max_active_rounds=max_active_rounds,
        vectorized=vectorized,
    )
    return simulator.run(protocol, inputs=inputs, local_inputs=local_inputs)
