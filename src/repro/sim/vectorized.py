"""Numpy round engines: whole rounds, or schedules, as array operations.

The simulator's second kind of engine (beside the generator loop of
:mod:`repro.sim.runner`).  A protocol opts in by exposing a
``vectorized_engine`` attribute on its factory: a callable receiving one
:class:`VectorizedRun` — the network's flat arrays as numpy views, the
per-node RNG streams (spawned on first use) and per-node metric arrays.
Three engines use it:

* the **whole-round** engine of ``luby`` and ``rank_greedy``
  (``repro.algorithms.luby``), for dense phases in which every undecided
  node is awake every iteration;
* the **schedule** engines of ``vt_mis`` and ``awake_mis``
  (``repro.algorithms.vt_mis``, ``repro.algorithms.awake_mis``), for
  sparse runs in which node ``i`` attends exactly the phases of a
  virtual-tree communication set ``S_key([1, bound])`` — its ID in
  VT-MIS, its batch in Awake-MIS.  Each decides every node's state on
  its own (VT-MIS greedily in ID order; Awake-MIS batch by batch,
  applying the LDT-MIS of isolated participants in closed form and
  handing only the non-trivial LDT-MIS components back to the generator
  loop through :meth:`VectorizedRun.drive`), then both account every
  communication round through one :class:`ScheduleTable`: one array pass
  over the whole schedule sets the metric arrays, the active-round count
  and the last active round directly.

The engines engage whenever tracing is off, CONGEST-metered runs
included: they meter message sizes themselves (the whole-round engine
through :meth:`VectorizedRun.record_sends`, the schedule engines through
:meth:`ScheduleTable.account`), with the generator loop's
``estimate_bits`` on each sender's real payload.  Under tracing, or with
``vectorized=False``, the generator loop runs instead.

Safety valves have one rule: engines fill counters,
:meth:`Simulator._run_vectorized
<repro.sim.runner.Simulator._run_vectorized>` judges them once, and only
the generator loop raises.  A run whose final counters lie outside a
valve (or that an engine cannot finish, :class:`ValveTrip`) is replayed
on the loop from the same per-node seeds.

Byte-identity contract (pinned by ``tests/test_runner_semantics.py`` and
``tests/test_vectorized.py``): outputs, awake/round/message counts,
per-node bit counters, ``awake_by_label`` and termination rounds are
identical to the generator loop.  In particular engines must draw from
the *same* per-node ``spawn_rng`` streams the generator path would — the
streams are spawned here in index order, exactly like ``Simulator.run``
does, the first time an engine reads :attr:`VectorizedRun.rngs` — and
consume the same number of draws per node, so a run is bit-for-bit
reproducible across both engines.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.virtual_tree import communication_table, in_communication_set
from repro.errors import SimulationError
from repro.rng import NodeSeeds, spawn_rngs
from repro.sim.message import estimate_bits
from repro.sim.metrics import NodeMetrics, RunMetrics
from repro.sim.runner import RunResult, Simulator, missing_outputs_error

#: Sentinel for "never terminated" in the int64 terminated-round array.
_NEVER = -(2**62)

#: The per-node counter arrays :meth:`VectorizedRun.drive` bridges into
#: :class:`NodeMetrics` — named like its fields, in its field order.
_COUNTERS = ("awake_rounds", "messages_sent", "messages_received",
             "bits_sent", "max_message_bits")

#: Attendances per chunk when :class:`ScheduleTable` tabulates the edges a
#: communication round can deliver on (bounds its scratch memory).
_EDGE_CHUNK = 1 << 14


class ValveTrip(Exception):
    """An engine cannot finish its run: a loop error inside
    :meth:`VectorizedRun.drive`, or iterations exhausted.

    Never leaves :meth:`Simulator.run <repro.sim.runner.Simulator.run>`,
    which replays the run on the generator loop: only the loop raises.
    """


class VectorizedRun:
    """Mutable state handed to a protocol's vectorized engine.

    Exposes the graph as flat int64 numpy arrays (zero-copy views over the
    network's routing arrays — shared-memory segments included), one
    private RNG per node (:attr:`rngs`, spawned on first use, in index
    order, exactly like the generator path), and the per-node metric
    arrays the engine fills in.  Engines add to the arrays,
    :attr:`active_rounds` and :attr:`last_active_round` directly — the
    whole-round engine one iteration at a time, its sends through
    :meth:`record_sends`; the schedule engines through one
    :class:`ScheduleTable` — Awake-MIS runs generator rounds through
    :meth:`drive`, and :meth:`finish` inserts the outputs.  An engine
    never sees a valve: *simulator* judges the final counters once.
    """

    def __init__(
        self,
        simulator: Simulator,
        seed: NodeSeeds,
        inputs: Dict[str, Any],
        local_inputs: Dict[Any, Any],
    ) -> None:
        self.np = np
        self.network = network = simulator._network
        self.inputs = inputs
        self.local_inputs = local_inputs
        self.n = network.size
        offsets, neighbors, _ = network.csr_tables()
        self.offsets = _int64_view(offsets)
        self.neighbors = _int64_view(neighbors)
        self.degrees = self.offsets[1:] - self.offsets[:-1]
        #: Graph labels in simulator index order (bulk lookup once; engines
        #: fill outputs for thousands of nodes per round).
        self.labels = network.labels()
        # reduceat segment starts, restricted to nonzero-degree rows (a
        # zero-length segment would make reduceat return the element *at*
        # the offset instead of the identity) — cached, the engines call
        # row_min/row_count several times per iteration.
        self._nonempty = self.degrees > 0
        self._starts = self.offsets[:-1][self._nonempty]
        #: Whether any node has degree 0 (its sends go nowhere and are
        #: never counted, so :meth:`record_sends` must filter them out).
        self._isolated = not self._nonempty.all()
        self._seed = seed
        self._simulator = simulator
        self.awake_rounds = np.zeros(self.n, dtype=np.int64)
        self.messages_sent = np.zeros(self.n, dtype=np.int64)
        self.messages_received = np.zeros(self.n, dtype=np.int64)
        self.terminated_round = np.full(self.n, _NEVER, dtype=np.int64)
        #: Message sizes are estimated only on metered runs (a bit limit is
        #: set), exactly like the generator loop; otherwise the bit arrays
        #: stay 0 and ``max_message_bits`` reads "not measured".
        self.metered = simulator._message_bit_limit is not None
        self.bits_sent = np.zeros(self.n, dtype=np.int64)
        self.max_message_bits = np.zeros(self.n, dtype=np.int64)
        #: Graph label -> protocol return value, inserted in termination
        #: order (round order, then index order within a round) — the same
        #: insertion order the generator engines produce.
        self.outputs: Dict[Any, Any] = {}
        self.active_rounds = 0
        self.last_active_round: Optional[int] = None
        #: The name :attr:`RunResult.engine` reports; engines may rename it.
        self.engine = "vectorized"
        #: :meth:`drive`'s inbox buffers, one per node, built on first use.
        self._inboxes: Optional[List[list]] = None

    @cached_property
    def rngs(self) -> List[Any]:
        """One private generator per node, spawned in index order on first
        access — the same derivation order ``Simulator.run`` uses, so
        streams are identical (``spawn_rngs`` is the batched twin of
        per-index ``spawn_rng``).  An engine that draws nothing (VT-MIS on
        given IDs) never seeds one."""
        return spawn_rngs(self._seed, self.n)

    # -- whole-round sends --------------------------------------------------

    def record_sends(self, senders, bits) -> None:
        """Count one message on every port of each node in *senders*.

        *bits* is each sender's estimated message size (a scalar when all
        send the same payload), read only on metered runs.  Degree-0
        senders send nothing and are skipped.
        """
        if not len(senders):
            return
        degrees = self.degrees[senders]
        sizes = None
        if self.metered:
            sizes = np.asarray(bits, dtype=np.int64)
            if not sizes.ndim:
                sizes = np.full(len(senders), sizes)
        if self._isolated:
            sending = degrees > 0
            senders, degrees = senders[sending], degrees[sending]
            if sizes is not None:
                sizes = sizes[sending]
        self.messages_sent[senders] += degrees
        if sizes is not None:
            self.bits_sent[senders] += degrees * sizes
            self.max_message_bits[senders] = np.maximum(
                self.max_message_bits[senders], sizes)

    # -- generator-loop rounds --------------------------------------------

    def drive(self, generators: Dict[int, Any], previous_round: int):
        """Run per-node protocol *generators* on the simulator's round loop.

        *generators* maps ascending node indices to fresh generators, as
        if each node's protocol entered them when resumed in
        *previous_round*.  They are started in index order, then driven
        through :meth:`Simulator._drive <repro.sim.runner.Simulator._drive>`
        — the one generator round loop — of this run's simulator, on this
        run's round clock: the livelock valve counts on from
        :attr:`active_rounds`, and the driven nodes' counters are bridged
        in and out of the metric arrays (the caller must keep every other
        node asleep meanwhile).  Any :class:`~repro.errors.SimulationError`
        the loop raises becomes a :class:`ValveTrip`, so the whole run is
        replayed on the loop.
        Returns ``[(index, return value, round)]`` in termination order;
        the caller decides what a return means, so termination rounds are
        not written back.
        """
        if self._inboxes is None:
            self._inboxes = [[] for _ in range(self.n)]
        simulator = self._simulator
        indices = np.fromiter(generators, dtype=np.int64,
                              count=len(generators))
        nodes = [NodeMetrics(*counters) for counters in zip(
            *(getattr(self, name)[indices].tolist() for name in _COUNTERS))]
        per_node = dict(zip(generators, nodes))
        finished = []
        pending: List[tuple] = []
        outputs: Dict[int, Any] = {}
        try:
            for index, gen in generators.items():
                try:
                    call = next(gen)
                except StopIteration as stop:
                    finished.append((index, stop.value, previous_round))
                    continue
                simulator._validate_call(call, index, previous_round)
                pending.append((call.round, index, call))
            heapq.heapify(pending)
            self.active_rounds, last_round = simulator._drive(
                pending, dict(generators), outputs, per_node, self._inboxes,
                metered=self.metered, active_rounds=self.active_rounds)
        except SimulationError:
            raise ValveTrip from None
        if last_round is not None:
            self.last_active_round = last_round
        for name in _COUNTERS:
            getattr(self, name)[indices] = [getattr(node, name)
                                            for node in nodes]
        finished.extend((index, value, per_node[index].terminated_round)
                        for index, value in outputs.items())
        return finished

    # -- whole-round array primitives -----------------------------------

    def row_min(self, values, empty):
        """Per-node minimum of *values* over each CSR neighbour row.

        ``values`` is indexed by node; rows with no neighbours read
        *empty*.  Implemented with ``np.minimum.reduceat`` over the
        offsets array; zero-length rows are masked out first because
        ``reduceat`` would otherwise return the element *at* the offset
        instead of the identity.
        """
        out = np.full(self.n, empty, dtype=np.asarray(values).dtype)
        if self.neighbors.size == 0:
            return out
        out[self._nonempty] = np.minimum.reduceat(
            values[self.neighbors], self._starts)
        return out

    def row_count(self, mask):
        """Per-node count of neighbours for which *mask* is True."""
        out = np.zeros(self.n, dtype=np.int64)
        if self.neighbors.size == 0:
            return out
        gathered = mask[self.neighbors].astype(np.int64)
        out[self._nonempty] = np.add.reduceat(gathered, self._starts)
        return out

    # -- result assembly -------------------------------------------------

    def finish(self, terminated, values: Sequence[Any]) -> None:
        """Set every node's termination round and insert its output.

        *values* holds one output per node index; they are inserted in
        termination order (round, then index within a round), the
        generator loop's order.  Rounds beyond int64 (VT-MIS with a huge
        ID bound) are kept as an ``object`` array of Python ints.
        """
        self.terminated_round = np.asarray(terminated)
        labels, outputs = self.labels, self.outputs
        for index in np.argsort(self.terminated_round, kind="stable").tolist():
            outputs[labels[index]] = values[index]

    def to_result(self):
        """Package the filled-in state as a :class:`RunResult`."""
        labels = self.labels
        awake = self.awake_rounds.tolist()
        terminated = self.terminated_round.tolist()
        if (self.terminated_round == _NEVER).any():
            terminated = [None if t == _NEVER else t for t in terminated]
        # Positional, in NodeMetrics field order (the order of _COUNTERS,
        # then terminated_round).
        per_node: List[NodeMetrics] = list(map(
            NodeMetrics, awake, self.messages_sent.tolist(),
            self.messages_received.tolist(), self.bits_sent.tolist(),
            self.max_message_bits.tolist(), terminated))
        metrics = RunMetrics(
            per_node=per_node,
            last_active_round=self.last_active_round,
            active_rounds=self.active_rounds,
            bits_metered=self.metered,
        )
        awake_by_label = dict(zip(labels, awake))
        missing = [label for label in labels if label not in self.outputs]
        if missing:
            raise missing_outputs_error(missing)
        return RunResult(
            outputs=self.outputs,
            metrics=metrics,
            awake_by_label=awake_by_label,
            trace=None,
            engine=self.engine,
        )


class ScheduleTable:
    """A run whose node ``i`` attends exactly the phases ``S_keys[i]([1,
    bound])``, tabulated once; its :meth:`account` adds every
    communication round's counters to the run in one array pass.

    Shared by the schedule engines: VT-MIS keys each node by its ID (one
    round per phase), Awake-MIS by its batch (``phase_length`` rounds per
    phase, the communication round first).  Phase ``p`` is round ``(p -
    1) * phase_length``.  *keys* is an integer array (``object`` dtype for
    keys beyond int64's reach); the sets are tabulated arithmetically
    (:func:`~repro.core.virtual_tree.communication_table`), never through
    the :func:`~repro.core.virtual_tree.communication_set` memo.

    Attributes: ``lengths`` (phases each node attends), ``last_phase``
    (each node's last), the ``(phase_of, attendees)`` attendance pairs
    sorted by phase then node, and the ``(edge_senders, edge_receivers,
    edge_phases)`` directed edges joining two attendees of one phase,
    sorted by phase.
    """

    def __init__(self, run: VectorizedRun, keys, bound,
                 phase_length: int = 1) -> None:
        self.run, self.keys, self.bound = run, keys, bound
        self.phase_length = phase_length
        sets = communication_table(keys, bound)
        attending = sets > 0
        self.lengths = np.count_nonzero(attending, axis=1)
        self.last_phase = sets.max(axis=1)
        # Row-major selection lists a node's phases together, nodes in
        # index order; the stable sort keeps that order within a phase.
        phases = sets[attending]
        order = np.argsort(phases, kind="stable")
        self.phase_of = phases[order]
        self.attendees = np.nonzero(attending)[0][order]
        self.edge_senders, self.edge_receivers, self.edge_phases = (
            self._phase_edges())

    def _phase_edges(self):
        """The directed edges joining two attendees of one phase.

        Each attendance's CSR row is expanded, a chunk of attendances at a
        time to bound the scratch memory, and kept where the neighbour's
        set holds the phase too (the closed form
        :func:`~repro.core.virtual_tree.in_communication_set`).
        """
        run, keys = self.run, self.keys
        senders, receivers, phases = [], [], []
        for start in range(0, len(self.attendees), _EDGE_CHUNK):
            nodes = self.attendees[start:start + _EDGE_CHUNK]
            degrees = run.degrees[nodes]
            ends = np.cumsum(degrees)
            slots = (np.repeat(run.offsets[nodes] - ends + degrees, degrees)
                     + np.arange(ends[-1]))
            neighbors = run.neighbors[slots]
            phase = np.repeat(self.phase_of[start:start + _EDGE_CHUNK],
                              degrees)
            shared = in_communication_set(phase, keys[neighbors])
            senders.append(np.repeat(nodes, degrees)[shared])
            receivers.append(neighbors[shared])
            phases.append(phase[shared])
        return (np.concatenate(senders), np.concatenate(receivers),
                np.concatenate(phases))

    def reached(self, in_mis, excused, noun: str):
        """The first phase in which an ``IN_MIS`` neighbour reaches each
        node (``bound + 1`` if none).

        An ``IN_MIS`` node decides in its own key's phase and broadcasts
        its state in every later phase it attends.  By Observation 5 a
        node with such a neighbour of smaller key shares a phase with it
        by its own key; a node that is neither *excused* nor reached by
        then raises an ``AssertionError`` naming the observation (*noun*
        names a key in the message).
        """
        keys, senders, phases = self.keys, self.edge_senders, self.edge_phases
        reaching = in_mis[senders] & (keys[senders] < phases)
        reached = np.full(self.run.n, self.bound + 1, dtype=keys.dtype)
        np.minimum.at(reached, self.edge_receivers[reaching],
                      phases[reaching])
        strays = (reached > keys) & ~excused
        if strays.any():
            node = int(np.argmax(strays))
            raise AssertionError(
                f"Observation 5 violated: node {self.run.labels[node]} of "
                f"{noun} {keys[node]} has an IN_MIS neighbour in an earlier "
                f"{noun} but no shared communication round by its own")
        return reached

    def account(self, decided, final, payloads: Sequence[Any],
                undecided: Any = None) -> None:
        """Add every communication round's counters to the run.

        Node ``i`` sends ``payloads[final[i]]`` on every port in each phase
        it attends after its decision phase ``decided[i]``, and
        *undecided* in those up to it (nothing, when ``None``).  Adds the
        awake, sent and received counts, the bit counters (metered runs
        only) and the active rounds, and sets the last active round; the
        simulator judges the final counters against its valves.
        """
        run = self.run
        degrees = run.degrees
        run.awake_rounds += self.lengths
        run.active_rounds += 1 + int(np.count_nonzero(np.diff(self.phase_of)))
        after = self.phase_of > decided[self.attendees]
        told = np.bincount(self.attendees[after], minlength=run.n)
        messages = told * degrees
        run.messages_sent += messages
        waiting = None
        if undecided is not None:
            waiting = (self.lengths - told) * degrees
            run.messages_sent += waiting
        if run.metered:
            sizes = np.array([estimate_bits(payload) for payload in payloads],
                             dtype=np.int64)[final]
            run.bits_sent += messages * sizes
            np.maximum(run.max_message_bits, np.where(messages > 0, sizes, 0),
                       out=run.max_message_bits)
            if waiting is not None:
                bits = estimate_bits(undecided)
                run.bits_sent += waiting * bits
                np.maximum(run.max_message_bits,
                           np.where(waiting > 0, bits, 0),
                           out=run.max_message_bits)
        receivers = self.edge_receivers
        if undecided is None:
            receivers = receivers[self.edge_phases
                                  > decided[self.edge_senders]]
        run.messages_received += np.bincount(receivers, minlength=run.n)
        run.last_active_round = max(
            (int(self.phase_of[-1]) - 1) * self.phase_length,
            -1 if run.last_active_round is None else run.last_active_round)


def _int64_view(words):
    """Zero-copy read-only int64 numpy view over a word buffer."""
    view = memoryview(words)
    if view.nbytes == 0:
        return np.empty(0, dtype=np.int64)
    array = np.frombuffer(view.cast("B"), dtype=np.int64)
    array.flags.writeable = False
    return array
