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
``estimate_bits`` on each sender's real payload and the same
per-message limit check.  Under tracing, or with ``vectorized=False``,
the generator loop runs instead.

Byte-identity contract (pinned by ``tests/test_runner_semantics.py`` and
``tests/test_vectorized.py``): outputs, awake/round/message counts,
per-node bit counters, ``awake_by_label``, termination rounds and error
messages (safety valves and ``MessageTooLargeError`` alike, in the same
precedence) are identical to the generator loop.  In particular engines
must draw from the *same* per-node ``spawn_rng`` streams the generator
path would — the streams are
spawned here in index order, exactly like ``Simulator.run`` does — and
consume the same number of draws per node, so a run is bit-for-bit
reproducible across both engines.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

import numpy as np

from repro.rng import SeedLike, spawn_rngs
from repro.sim.metrics import NodeMetrics, RunMetrics
from repro.sim.runner import (
    RunResult,
    Simulator,
    awake_budget_error,
    livelocked_error,
    message_too_large_error,
    missing_outputs_error,
)

#: Sentinel for "never terminated" in the int64 terminated-round array.
_NEVER = -(2**62)

#: The per-node counter arrays :meth:`VectorizedRun.drive` bridges into
#: :class:`NodeMetrics` — named like its fields, in its field order.
_COUNTERS = ("awake_rounds", "messages_sent", "messages_received",
             "bits_sent", "max_message_bits")


class VectorizedRun:
    """Mutable state handed to a protocol's vectorized engine.

    Exposes the graph as flat int64 numpy arrays (zero-copy views over the
    network's routing arrays — shared-memory segments included), one
    private RNG per node (spawned in index order, exactly like the
    generator path), and the per-node metric arrays the engine fills in.
    The whole-round engine records each array-computed round through
    :meth:`begin_round`, :meth:`record_awake` and :meth:`record_sends`
    (in that order), which trip the livelock, awake-budget and CONGEST
    checks with the generator loop's messages, in its precedence.  The
    schedule engine records no round one at a time: it sets the arrays,
    :attr:`active_rounds` and :attr:`last_active_round` itself, raises
    the same valve errors from its own accounting, and runs generator
    rounds through :meth:`drive`.
    """

    def __init__(
        self,
        network,
        seed: SeedLike,
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
        #: Lowest index that tripped the awake valve this round, raised by
        #: :meth:`record_sends` once it knows whether a lower-index sender
        #: tripped the bit limit first.
        self._awake_offender: Optional[int] = None
        #: The name :attr:`RunResult.engine` reports; engines may rename it.
        self.engine = "vectorized"
        #: Generator-loop state for :meth:`drive`, built on first use: one
        #: :class:`~repro.sim.runner.Simulator` with this run's valves and
        #: one inbox buffer per node, shared by every call.
        self._simulator = None
        self._inboxes: Optional[List[list]] = None

    # -- round bookkeeping + safety valves ------------------------------

    def begin_round(self, round_index: int) -> None:
        """Count one active round; trip the livelock valve like the loops."""
        self.active_rounds += 1
        if self.active_rounds > self.max_active_rounds:
            raise livelocked_error(self.max_active_rounds)
        self.last_active_round = round_index

    def record_awake(self, indices) -> None:
        """Count one awake round for *indices* (ascending simulator order).

        The awake-budget valve names the lowest offending index — the node
        the per-node loop (which iterates ascending) names.  It fires in
        the round's :meth:`record_sends`, because the loop checks node
        *i*'s awake budget, then its sends, before node *i + 1*: a
        lower-index oversize sender wins.
        """
        updated = self.awake_rounds[indices] + 1
        self.awake_rounds[indices] = updated
        over = updated > self.max_awake_per_node
        if over.any():
            self._awake_offender = int(indices[int(np.argmax(over))])

    def record_sends(self, senders, bits, round_index: int,
                     payload_of) -> None:
        """Count one message on every port of each node in *senders*.

        *senders* is ascending; *bits* is each sender's estimated message
        size (a scalar when all send the same payload), read only on
        metered runs; ``payload_of(index)`` rebuilds a sender's payload for
        the error message.  Degree-0 senders send nothing and are skipped;
        a round with no sender and no awake-valve offender records nothing.
        Raises the generator loop's :class:`MessageTooLargeError` for the
        first oversize sender in index order, after any awake-valve
        offender at or below it.  Engines call this once per round, after
        :meth:`record_awake`.
        """
        offender = self._awake_offender
        if offender is None and not len(senders):
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
        oversize = None
        if sizes is not None:
            self.bits_sent[senders] += degrees * sizes
            self.max_message_bits[senders] = np.maximum(
                self.max_message_bits[senders], sizes)
            over = sizes > self.message_bit_limit
            if over.any():
                first = int(np.argmax(over))
                oversize = int(senders[first])
        if offender is not None and (oversize is None or offender <= oversize):
            raise awake_budget_error(self.labels[offender],
                                     self.max_awake_per_node)
        if oversize is not None:
            raise message_too_large_error(
                self.labels[oversize], int(sizes[first]),
                self.message_bit_limit, round_index, payload_of(oversize))

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
        arrays (the caller must keep every other node asleep meanwhile,
        and set both to what the generator loop would read when the
        generators start, so the valves trip where the loop trips them).
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
        for index, gen in generators.items():
            try:
                call = next(gen)
            except StopIteration as stop:
                finished.append((index, stop.value, previous_round))
                continue
            simulator._validate_call(call, index, previous_round)
            pending.append((call.round, index, call))
        heapq.heapify(pending)
        outputs: Dict[int, Any] = {}
        self.active_rounds, last_round = simulator._drive(
            pending, dict(generators), outputs, per_node, self._inboxes,
            metered=self.metered, active_rounds=self.active_rounds)
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
