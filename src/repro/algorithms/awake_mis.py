"""Algorithm ``Awake-MIS`` (paper Section 6, Algorithm 1, Theorem 13).

``Awake-MIS`` computes the lexicographically-first MIS with respect to a
uniformly random node ordering in ``O(log log n)`` awake rounds:

1.  every node independently picks a batch ``(i, j)``: the *group* ``i`` with
    probability proportional to ``2^i`` (so group sizes grow geometrically
    and the residual-sparsity Lemma 2 keeps the undecided subgraph sparse)
    and the *slot* ``j`` uniformly among ``2 * Delta'`` slots (so Lemma 3
    shatters each slot into ``O(log n)``-sized components);
2.  batches are processed in lexicographic order, one *phase* per batch; the
    first round of each phase is a communication round in which decided
    nodes report their state and undecided nodes listen — nodes attend only
    the communication rounds of their virtual-tree communication set
    ``S_g(batch)``, i.e. ``O(log log n)`` of them;
3.  the remaining rounds of a node's own phase run ``LDT-MIS`` over the
    still-undecided nodes of its batch, whose connected components are
    ``O(log n)``-sized w.h.p., so this also costs ``O(log log n)``-ish awake
    rounds.

LDT-MIS builds its trees with the Appendix-A ``LDT-Construct-Round``, whose
awake cost carries the ``log* I`` factor of Corollary 12 (see
:mod:`repro.algorithms.ldt_mis`).  So what runs is Corollary 14's
trade-off: ``O(log log n · log* n)`` awake rounds, and at most
:attr:`AwakeMISParameters.total_rounds` rounds in all.  Theorem 13's
awake-optimal construction is not implemented.

The constants of the paper's analysis (``Delta' = 9 ln(n^4)``, phase length
``O(log^5 n log log n)``) are exposed as :class:`AwakeMISParameters`; the
default ``scaled`` preset uses smaller constants that preserve the w.h.p.
guarantees at simulable scales, and the ``paper`` preset reproduces the
analysis constants verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.algorithms.ldt_mis import (
    isolated_announcement,
    isolated_wake_offsets,
    ldt_mis_core,
    ldt_mis_round_budget,
)
from repro.core.virtual_tree import communication_set
from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext, require_input
from repro.sim.message import estimate_bits
from repro.sim.runner import RunResult, run_protocol
from repro.sim.vectorized import ScheduleTable


@dataclass(frozen=True)
class AwakeMISParameters:
    """The constants of ``Awake-MIS`` (paper Section 6) for one preset.

    Attributes
    ----------
    n:
        Number of nodes (or the polynomial upper bound ``N`` every node
        knows; the algorithm only uses it through the derived fields).
    ell:
        Number of geometric groups (the paper's ``l``).
    delta_prime:
        Half the number of slots per group (the paper's ``Delta'``); each
        group is split into ``2 * delta_prime`` batches.
    group_probabilities:
        ``group_probabilities[i - 1]`` is the probability a node joins group
        ``i``; sums to 1.
    n_bound:
        Upper bound (known to all nodes) on the size of any connected
        component handed to ``LDT-MIS`` — Lemma 3's ``6 ln(n / eps)``.
    id_space:
        Node IDs are drawn uniformly from ``[1, id_space]``.
    phase_length:
        Rounds per phase: one communication round plus the LDT-MIS budget.
    preset:
        The constructor that built these constants: ``"scaled"`` or
        ``"paper"``.
    """

    n: int
    ell: int
    delta_prime: int
    group_probabilities: Tuple[float, ...]
    n_bound: int
    id_space: int
    phase_length: int
    preset: str = "scaled"

    @property
    def batch_count(self) -> int:
        """Total number of batches/phases ``ell * 2 * delta_prime``."""
        return self.ell * 2 * self.delta_prime

    @property
    def total_rounds(self) -> int:
        """Worst-case round complexity of the schedule."""
        return self.batch_count * self.phase_length

    @classmethod
    def scaled(cls, n: int) -> "AwakeMISParameters":
        """Constants sized for simulation while keeping the w.h.p. structure.

        * group probabilities proportional to ``4 * 2^i * log2(n) / n``;
        * ``Delta' = ceil(6 * log2 n)`` so the expected number of same-batch
          undecided neighbours stays below ~2/3;
        * ``n_bound = ceil(6 * ln(16 n))`` (Lemma 3 with eps = 1/16).
        """
        n = max(2, n)
        log2n = max(1.0, math.log2(n))
        ell = max(1, int(math.floor(math.log2(max(2.0, n / (4.0 * log2n))))))
        delta_prime = max(3, math.ceil(6 * log2n))
        weights = [4.0 * (2 ** i) * log2n / n for i in range(1, ell)]
        head = sum(weights)
        if head >= 1.0 and weights:
            weights = [w / (head + 1e-9) * 0.5 for w in weights]
            head = sum(weights)
        probabilities = (*weights, max(0.0, 1.0 - head))
        n_bound = max(8, math.ceil(6.0 * math.log(16.0 * n)))
        return cls._build("scaled", n, ell, delta_prime, probabilities,
                          n_bound)

    @classmethod
    def paper(cls, n: int) -> "AwakeMISParameters":
        """The analysis constants of Section 6 (huge; reference only).

        ``Delta' = ceil(9 ln(n^4))``, ``ell = ceil(log2 n - log2 log2 n)``,
        group probabilities ``10 * 2^i * log2(n) / n`` (truncated to a valid
        distribution), ``n_bound = ceil(6 ln(n^4))``.
        """
        n = max(4, n)
        log2n = max(1.0, math.log2(n))
        ell = max(1, math.ceil(log2n - math.log2(log2n)))
        delta_prime = max(3, math.ceil(9.0 * math.log(float(n) ** 4)))
        weights = []
        cumulative = 0.0
        for i in range(1, ell):
            w = min(max(0.0, 1.0 - cumulative), 10.0 * (2 ** i) * log2n / n)
            weights.append(w)
            cumulative += w
        probabilities = (*weights, max(0.0, 1.0 - cumulative))
        n_bound = max(8, math.ceil(6.0 * math.log(float(n) ** 4)))
        return cls._build("paper", n, ell, delta_prime, probabilities,
                          n_bound)

    @classmethod
    def _build(cls, preset: str, n: int, ell: int, delta_prime: int,
               probabilities: Tuple[float, ...],
               n_bound: int) -> "AwakeMISParameters":
        """The tail both presets share: IDs from ``[1, (n + 2)^3]`` and a
        phase of one communication round plus the LDT-MIS budget."""
        id_space = max(64, (n + 2) ** 3)
        return cls(
            n=n,
            ell=ell,
            delta_prime=delta_prime,
            group_probabilities=probabilities,
            n_bound=n_bound,
            id_space=id_space,
            phase_length=1 + ldt_mis_round_budget(n_bound, id_space) + 4,
            preset=preset,
        )


def choose_batch(rng, params: AwakeMISParameters) -> Tuple[int, int]:
    """Pick the batch pair ``(i, j)`` with the paper's distribution."""
    draw = rng.random()
    cumulative = 0.0
    group = params.ell
    for index, probability in enumerate(params.group_probabilities, start=1):
        cumulative += probability
        if draw < cumulative:
            group = index
            break
    slot = rng.randint(1, 2 * params.delta_prime)
    return group, slot


def batch_index(group: int, slot: int, params: AwakeMISParameters) -> int:
    """The lexicographic bijection ``g(i, j)`` onto ``[1, batch_count]``."""
    return (group - 1) * 2 * params.delta_prime + slot


def awake_mis_protocol(ctx: NodeContext):
    """Protocol factory for ``Awake-MIS``.

    Global inputs: ``awake_params`` (an :class:`AwakeMISParameters`).
    Untraced runs take its schedule engine, :func:`awake_mis_schedule`,
    unless pinned to the generator loop with ``vectorized=False``.
    """
    params: AwakeMISParameters = ctx.require_input("awake_params")
    rng = ctx.rng
    my_id = rng.randint(1, params.id_space)
    group, slot = choose_batch(rng, params)
    my_batch = batch_index(group, slot, params)
    batch_count = params.batch_count
    phase_length = params.phase_length
    ports = list(ctx.ports)

    state = UNDECIDED
    comm_rounds = sorted(communication_set(my_batch, batch_count))

    for phase in comm_rounds:
        communication_round = (phase - 1) * phase_length
        if state == UNDECIDED:
            inbox = yield WakeCall(round=communication_round, sends=[])
            if any(payload == IN_MIS for _, payload in inbox):
                state = NOT_IN_MIS
        else:
            yield WakeCall(
                round=communication_round,
                sends=[(port, state) for port in ports],
            )
        if phase == my_batch and state == UNDECIDED:
            state = yield from ldt_mis_core(
                my_id=my_id,
                id_space=params.id_space,
                ports=ports,
                n_bound=params.n_bound,
                start_round=communication_round + 1,
                rng=rng,
            )

    return MISDecision(
        in_mis=(state == IN_MIS),
        detail={
            "batch": (group, slot),
            "batch_index": my_batch,
            "id": my_id,
            "communication_rounds": len(comm_rounds),
        },
    )


def awake_mis_schedule(run) -> None:
    """Schedule engine: Awake-MIS decided batch by batch, then accounted.

    A node's wake schedule is a pure function of its batch — it attends
    exactly the communication rounds of ``communication_set(batch,
    batch_count)`` (Observation 4) — so the engine draws every node's ID
    and batch up front (from its own stream, in the protocol's order) and
    tabulates once, in a :class:`~repro.sim.vectorized.ScheduleTable` keyed
    by batch, which nodes attend each phase and which edges join two
    attendees of one phase.  Then it works in two steps.

    1.  **Decide, batch by batch.**  Only an ``IN_MIS`` sender decides a
        listener, and by Observation 5 an ``IN_MIS`` neighbour from an
        earlier batch always shares a communication round with a node no
        later than the node's own batch.  So a batch's LDT-MIS
        participants are exactly its members with no ``IN_MIS`` neighbour
        in an earlier batch, and no communication round needs simulating
        to find them.  Participants with a participating same-batch
        neighbour form the non-trivial LDT components and run
        :func:`ldt_mis_core` on the generator loop
        (:meth:`~repro.sim.vectorized.VectorizedRun.drive`); every other
        one is a one-node component whose LDT-MIS is applied in closed
        form (:func:`~repro.algorithms.ldt_mis.isolated_wake_offsets`):
        two awake rounds, one announcement on every port, ``IN_MIS``, no
        RNG draws.  A phase with more driven participants than ``n_bound``
        is driven whole (a component that large may leave no node with
        new ID 1 to wake in VT-MIS's first round, which the closed form
        assumes).
    2.  **Account, in one pass.**  A node decides in its own LDT-MIS, or
        in the first communication round in which an ``IN_MIS`` sender
        decided before it reaches it; it broadcasts its state in every
        later round it attends, and nothing before.  The closed form's
        wakes and announcements are added first; then the table's
        :meth:`~repro.sim.vectorized.ScheduleTable.account`, shared with
        VT-MIS, turns the decision phases into every awake, message and
        bit counter, the active rounds and the last active round.  A node
        terminates in its last communication round, or in its last
        LDT-MIS round when that comes later; outputs are inserted in
        (round, index) order, the loop's order.

    Safety valves: a valve ``drive`` trips, or final counters outside a
    valve (the largest awake count, the active rounds, the largest message
    sent, closed-form ``frag`` announcements included), raise
    :class:`~repro.sim.vectorized.ValveTrip`, and the run is replayed on
    the generator loop, which raises the valve's error.  The participant
    shortcut is checked: a non-participant that no ``IN_MIS`` sender
    reaches by its own batch raises an ``AssertionError`` naming
    Observation 5.

    Byte-identical to driving :func:`awake_mis_protocol` on the generator
    loop (pinned by ``tests/test_vectorized.py``): outputs and their
    insertion order, every per-node and bit counter, active rounds, and
    draw-for-draw RNG use.
    """
    run.engine = "schedule"
    if run.n == 0:
        return
    schedule = _Schedule(run, require_input(run.inputs, "awake_params"))
    schedule.decide()
    schedule.account()


class _Schedule:
    """One Awake-MIS run on the schedule engine: its tables and decisions.

    Phases and batches share the numbering ``1 .. batch_count``.  The
    decision loop keeps its per-node state in lists (a batch holds a
    handful of nodes); :meth:`account` turns it into arrays.
    """

    def __init__(self, run, params: AwakeMISParameters) -> None:
        np = run.np
        self.run, self.params = run, params
        n, batch_count = run.n, params.batch_count
        self.ids, self.pairs = [], []
        for rng in run.rngs:
            self.ids.append(rng.randint(1, params.id_space))
            self.pairs.append(choose_batch(rng, params))
        self.batches = [batch_index(group, slot, params)
                        for group, slot in self.pairs]
        self.batch_of = np.array(self.batches, dtype=np.int64)
        self.table = ScheduleTable(run, self.batch_of, batch_count,
                                   params.phase_length)
        self.last_phase = self.table.last_phase.tolist()

        # Decision-loop tables: each nonempty batch's members, ascending,
        # and the edges joining two members of one batch (the only edges
        # on which two LDT-MIS participants of one phase can meet).
        members = np.argsort(self.batch_of, kind="stable")
        bounds = np.searchsorted(self.batch_of[members],
                                 np.arange(1, batch_count + 2)).tolist()
        members = members.tolist()
        self.batch_members = [(batch, members[low:high]) for batch, low, high
                              in zip(range(1, batch_count + 1), bounds,
                                     bounds[1:]) if low < high]
        senders = np.repeat(np.arange(n), run.degrees)
        same = self.batch_of[senders] == self.batch_of[run.neighbors]
        self.batch_links: Dict[int, list] = {}
        for sender, receiver in zip(senders[same].tolist(),
                                    run.neighbors[same].tolist()):
            self.batch_links.setdefault(self.batches[sender], []).append(
                (sender, receiver))

        # Decisions.  ``by_ldt``: decided by its own LDT-MIS.
        self.participant = [False] * n
        self.by_ldt = [False] * n
        self.in_mis = [False] * n
        self.closed = [False] * n
        self.announcement_bits = [0] * n
        self.terminated = [(phase - 1) * params.phase_length
                           for phase in self.last_phase]

    # -- step one: decisions ----------------------------------------------

    def decide(self) -> None:
        """Every node's state, batch by batch; counts no communication
        round (see :func:`awake_mis_schedule`).  The driven and closed-form
        LDT-MIS rounds are counted on the run as they are decided."""
        run, params = self.run, self.params
        neighbors, offsets = run.neighbors.tolist(), run.offsets.tolist()
        participant, in_mis = self.participant, self.in_mis
        #: Has an IN_MIS neighbour in a batch decided so far.
        dominated = [False] * run.n
        _, vt_offset = isolated_wake_offsets(params.n_bound, params.id_space)
        for batch, members in self.batch_members:
            starting = [index for index in members if not dominated[index]]
            if not starting:
                continue
            for index in starting:
                participant[index] = True
            # A participant with a participating same-batch neighbour is
            # in a non-trivial LDT component; every other one is isolated.
            linked = sorted({
                sender for sender, receiver in self.batch_links.get(batch, ())
                if not (dominated[sender] or dominated[receiver])})
            isolated = starting
            if linked:
                driven = set(linked)
                isolated = [index for index in starting
                            if index not in driven]
            if isolated and len(linked) > params.n_bound:
                linked, isolated = starting, []
            if linked:
                self._drive(batch, linked)
            vt_round = (batch - 1) * params.phase_length + 1 + vt_offset
            for index in isolated:
                self.closed[index] = in_mis[index] = self.by_ldt[index] = True
                if run.metered:
                    self.announcement_bits[index] = estimate_bits(
                        isolated_announcement(self.ids[index]))
                if self.last_phase[index] == batch:
                    self.terminated[index] = vt_round
            if isolated and not linked:
                # A driven component wakes in both closed-form rounds too
                # (all its nodes in the side round, its new ID 1 in
                # VT-MIS's first), so only a phase without one counts them.
                run.active_rounds += 2
                run.last_active_round = vt_round
            for index in starting:
                if in_mis[index]:
                    for neighbor in neighbors[offsets[index]:
                                              offsets[index + 1]]:
                        dominated[neighbor] = True

    def _drive(self, batch: int, linked) -> None:
        """Run *batch*'s non-trivial LDT components on the generator loop;
        ``drive`` adds their counters and rounds to the run's."""
        run, params = self.run, self.params
        communication_round = (batch - 1) * params.phase_length
        generators = {
            index: ldt_mis_core(
                my_id=self.ids[index],
                id_space=params.id_space,
                ports=range(int(run.degrees[index])),
                n_bound=params.n_bound,
                start_round=communication_round + 1,
                rng=run.rngs[index],
            )
            for index in linked
        }
        for index, state, stopped in run.drive(generators,
                                               communication_round):
            self.by_ldt[index] = state != UNDECIDED
            self.in_mis[index] = state == IN_MIS
            if self.last_phase[index] == batch:
                self.terminated[index] = stopped

    # -- step two: accounting -----------------------------------------------

    def account(self) -> None:
        """Every counter and output, from the decisions, in one pass."""
        run, table = self.run, self.table
        np = run.np
        in_mis = np.array(self.in_mis, dtype=bool)
        closed = np.array(self.closed, dtype=bool)
        # A node broadcasts its state after its own batch when its LDT-MIS
        # decided it, else after the first IN_MIS sender reached it.
        reached = table.reached(in_mis, np.array(self.participant, dtype=bool),
                                "batch")
        decided = np.where(np.array(self.by_ldt, dtype=bool), self.batch_of,
                           reached)
        # The run holds the driven LDT-MIS counters and rounds; add the
        # closed form's two wakes and one announcement on every port.
        run.awake_rounds += np.where(closed, 2, 0)
        announcements = np.where(closed, run.degrees, 0)
        run.messages_sent += announcements
        if run.metered:
            announced = np.where(announcements > 0,
                                 np.array(self.announcement_bits), 0)
            run.bits_sent += announcements * announced
            np.maximum(run.max_message_bits, announced,
                       out=run.max_message_bits)
        table.account(decided, in_mis.view(np.uint8), (NOT_IN_MIS, IN_MIS))
        lengths = table.lengths.tolist()
        run.finish(self.terminated, [
            MISDecision(
                in_mis=self.in_mis[index],
                detail={
                    "batch": self.pairs[index],
                    "batch_index": self.batches[index],
                    "id": self.ids[index],
                    "communication_rounds": lengths[index],
                },
            )
            for index in range(run.n)])


awake_mis_protocol.vectorized_engine = awake_mis_schedule

#: The presets :func:`run_awake_mis` accepts, by name.
PRESETS = {"scaled": AwakeMISParameters.scaled,
           "paper": AwakeMISParameters.paper}


def run_awake_mis(graph: nx.Graph, seed: SeedLike = None,
                  preset: str = "scaled",
                  params: Optional[AwakeMISParameters] = None,
                  message_bit_limit: Optional[int] = None,
                  trace: bool = False,
                  max_active_rounds: int = 20_000_000,
                  vectorized: Optional[bool] = None) -> RunResult:
    """Run ``Awake-MIS`` on *graph* (harness / tests / benchmarks entry point).

    *vectorized* selects the schedule engine as in
    :func:`~repro.sim.runner.run_protocol`; it never changes bytes.
    """
    if params is None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown Awake-MIS preset {preset!r}; choose "
                + " or ".join(repr(name) for name in PRESETS))
        params = PRESETS[preset](graph.number_of_nodes())
    return run_protocol(
        graph,
        awake_mis_protocol,
        inputs={"awake_params": params},
        seed=seed,
        message_bit_limit=message_bit_limit,
        trace=trace,
        max_active_rounds=max_active_rounds,
        vectorized=vectorized,
    )
