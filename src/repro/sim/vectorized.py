"""Numpy round engines: whole rounds, or schedules, as array operations.

The simulator's second kind of engine (beside the generator loop of
:mod:`repro.sim.runner`).  A protocol opts in by exposing a
``vectorized_engine`` attribute on its factory: a callable receiving one
:class:`VectorizedRun` — the network's flat arrays as numpy views, the
per-node RNG streams, per-node metric arrays, and the same safety valves
the generator loop enforces.  Two engines use it:

* the **whole-round** engine of ``luby`` and ``rank_greedy``
  (``repro.algorithms.luby``), for dense phases in which every undecided
  node is awake every iteration;
* the **schedule** engine of ``awake_mis``
  (``repro.algorithms.awake_mis``), for sparse phases whose wake
  schedule is known up front: it decides every node's state batch by
  batch, applying the LDT-MIS of isolated participants (one-node
  components, almost all of them) in closed form and handing only the
  non-trivial LDT-MIS components back to the generator loop through
  :meth:`VectorizedRun.drive`; then it accounts every communication
  round in one array pass over the whole schedule and sets the metric
  arrays, the active-round count and the last active round directly.

The engines engage whenever tracing is off, CONGEST-metered runs
included: they meter message sizes themselves (the whole-round engine
through :meth:`VectorizedRun.record_sends`), with the generator loop's
``estimate_bits`` on each sender's real payload.  Under tracing, or with
``vectorized=False``, the generator loop runs instead.

Safety valves have one rule: an engine that finds the livelock valve,
the awake budget or the bit limit could trip raises :class:`ValveTrip`,
and :meth:`Simulator.run <repro.sim.runner.Simulator.run>` replays the
run on the generator loop from the same per-node seeds, so only the loop
builds valve errors.

Byte-identity contract (pinned by ``tests/test_runner_semantics.py`` and
``tests/test_vectorized.py``): outputs, awake/round/message counts,
per-node bit counters, ``awake_by_label`` and termination rounds are
identical to the generator loop.  In particular engines must draw from
the *same* per-node ``spawn_rng`` streams the generator path would — the
streams are spawned here in index order, exactly like ``Simulator.run``
does — and consume the same number of draws per node, so a run is
bit-for-bit reproducible across both engines.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.rng import NodeSeeds, spawn_rngs
from repro.sim.metrics import NodeMetrics, RunMetrics
from repro.sim.runner import RunResult, Simulator, missing_outputs_error

#: Sentinel for "never terminated" in the int64 terminated-round array.
_NEVER = -(2**62)

#: The per-node counter arrays :meth:`VectorizedRun.drive` bridges into
#: :class:`NodeMetrics` — named like its fields, in its field order.
_COUNTERS = ("awake_rounds", "messages_sent", "messages_received",
             "bits_sent", "max_message_bits")


class ValveTrip(Exception):
    """An engine found that a safety valve could trip in its run.

    Never leaves :meth:`Simulator.run <repro.sim.runner.Simulator.run>`,
    which replays the run on the generator loop: only the loop builds
    valve errors, in its own precedence.
    """


class VectorizedRun:
    """Mutable state handed to a protocol's vectorized engine.

    Exposes the graph as flat int64 numpy arrays (zero-copy views over the
    network's routing arrays — shared-memory segments included), one
    private RNG per node (spawned in index order, exactly like the
    generator path), and the per-node metric arrays the engine fills in.
    The whole-round engine records each array-computed round through
    :meth:`begin_round`, :meth:`record_awake` and :meth:`record_sends`.
    The schedule engine records no round one at a time: it sets the
    arrays, :attr:`active_rounds` and :attr:`last_active_round` itself,
    and runs generator rounds through :meth:`drive`.  Either raises
    :class:`ValveTrip` where a safety valve could trip, and the run is
    replayed on the generator loop.
    """

    def __init__(
        self,
        network,
        seed: NodeSeeds,
        inputs: Dict[str, Any],
        local_inputs: Dict[Any, Any],
        max_active_rounds: int,
        max_awake_per_node: int,
        message_bit_limit: Optional[int] = None,
    ) -> None:
        self.np = np
        self.network = network
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
        #: One private generator per node, spawned in index order — the same
        #: derivation order ``Simulator.run`` uses, so streams are identical
        #: (``spawn_rngs`` is the batched twin of per-index ``spawn_rng``).
        self.rngs = spawn_rngs(seed, self.n)
        self.awake_rounds = np.zeros(self.n, dtype=np.int64)
        self.messages_sent = np.zeros(self.n, dtype=np.int64)
        self.messages_received = np.zeros(self.n, dtype=np.int64)
        self.terminated_round = np.full(self.n, _NEVER, dtype=np.int64)
        #: Message sizes are estimated only on metered runs (a bit limit is
        #: set), exactly like the generator loop; otherwise the bit arrays
        #: stay 0 and ``max_message_bits`` reads "not measured".
        self.message_bit_limit = message_bit_limit
        self.metered = message_bit_limit is not None
        self.bits_sent = np.zeros(self.n, dtype=np.int64)
        self.max_message_bits = np.zeros(self.n, dtype=np.int64)
        #: Graph label -> protocol return value, inserted in termination
        #: order (round order, then index order within a round) — the same
        #: insertion order the generator engines produce.
        self.outputs: Dict[Any, Any] = {}
        self.active_rounds = 0
        self.last_active_round: Optional[int] = None
        #: The livelock valve: more active rounds than this trip it.
        self.max_active_rounds = max_active_rounds
        #: The awake-budget valve: a node awake more rounds than this
        #: trips it.
        self.max_awake_per_node = max_awake_per_node
        #: The name :attr:`RunResult.engine` reports; engines may rename it.
        self.engine = "vectorized"
        #: Generator-loop state for :meth:`drive`, built on first use: one
        #: :class:`~repro.sim.runner.Simulator` with this run's valves and
        #: one inbox buffer per node, shared by every call.
        self._simulator = None
        self._inboxes: Optional[List[list]] = None

    # -- round bookkeeping + safety valves ------------------------------

    def begin_round(self, round_index: int) -> None:
        """Count one active round; :class:`ValveTrip` past the livelock
        valve."""
        self.active_rounds += 1
        if self.active_rounds > self.max_active_rounds:
            raise ValveTrip
        self.last_active_round = round_index

    def record_awake(self, indices) -> None:
        """Count one awake round for *indices*; :class:`ValveTrip` if one
        of them exceeds the awake budget."""
        updated = self.awake_rounds[indices] + 1
        self.awake_rounds[indices] = updated
        if (updated > self.max_awake_per_node).any():
            raise ValveTrip

    def record_sends(self, senders, bits) -> None:
        """Count one message on every port of each node in *senders*.

        *bits* is each sender's estimated message size (a scalar when all
        send the same payload), read only on metered runs.  Degree-0
        senders send nothing and are skipped; :class:`ValveTrip` if any
        other sender's size exceeds the bit limit.
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
            if (sizes > self.message_bit_limit).any():
                raise ValveTrip
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
        — the one generator round loop — on this run's round clock: the
        livelock valve counts on from :attr:`active_rounds`, and the
        driven nodes' counters are bridged in and out of the metric
        arrays (the caller must keep every other node asleep meanwhile).
        Any :class:`~repro.errors.SimulationError` the loop raises becomes
        a :class:`ValveTrip`, so the whole run is replayed on the loop.
        Returns ``[(index, return value, round)]`` in termination order;
        the caller decides what a return means, so termination rounds are
        not written back.
        """
        if self._simulator is None:
            self._simulator = Simulator(
                self.network,
                message_bit_limit=self.message_bit_limit,
                max_active_rounds=self.max_active_rounds,
                max_awake_per_node=self.max_awake_per_node,
            )
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


def _int64_view(words):
    """Zero-copy read-only int64 numpy view over a word buffer."""
    view = memoryview(words)
    if view.nbytes == 0:
        return np.empty(0, dtype=np.int64)
    array = np.frombuffer(view.cast("B"), dtype=np.int64)
    array.flags.writeable = False
    return array
