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
from itertools import chain
from typing import Any, Dict, NamedTuple, Optional, Tuple

import networkx as nx

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.algorithms.ldt_mis import (
    isolated_announcement,
    isolated_wake_offsets,
    ldt_mis_core,
    ldt_mis_round_budget,
)
from repro.core.virtual_tree import communication_set, in_communication_set
from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext, require_input
from repro.sim.message import estimate_bits
from repro.sim.runner import (
    RunResult,
    awake_budget_error,
    livelocked_error,
    message_too_large_error,
    run_protocol,
)


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


#: Attendances per chunk when the schedule engine tabulates the edges a
#: communication round can deliver on (bounds its scratch memory).
_EDGE_CHUNK = 1 << 14


def awake_mis_schedule(run) -> None:
    """Schedule engine: Awake-MIS decided batch by batch, then accounted.

    A node's wake schedule is a pure function of its batch — it attends
    exactly the communication rounds of ``communication_set(batch,
    batch_count)`` (Observation 4) — so the engine draws every node's ID
    and batch up front (from its own stream, in the protocol's order) and
    tabulates once which nodes attend each phase and which edges join two
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
        RNG draws.  A phase in which that closed form could differ from
        the loop (an isolated participant would trip a valve, more driven
        participants than ``n_bound``) is driven whole.  Before a
        component is driven, its nodes' counters and the active-round
        count read what the loop shows at that moment, so ``drive`` trips
        its valves exactly where the loop does.
    2.  **Account, in one pass.**  A node decides in its own LDT-MIS, or
        in the first communication round in which an ``IN_MIS`` sender
        decided before it reaches it; it broadcasts its state in every
        later round it attends.  From those decision phases, array
        operations over the attendances and the tabulated edges give
        every awake, message and bit counter, the active rounds and the
        last active round.  A node terminates in its last communication
        round, or in its last LDT-MIS round when that comes later; outputs
        are inserted in (round, index) order, the loop's order.

    The valves outside ``drive`` (awake budget, bit limit and livelock in
    the communication rounds and the closed-form rounds) are located from
    the same arrays, in the loop's precedence: the earliest round first,
    then node *i*'s awake valve, its sends, node *i + 1*.  A test on the
    final counters skips that search when no valve can trip; when
    ``drive`` raises, an earlier trip wins over its error.  The
    participant shortcut is checked: a non-participant that no ``IN_MIS``
    sender reaches by its own batch raises an ``AssertionError`` naming
    Observation 5.

    Byte-identical to driving :func:`awake_mis_protocol` on the generator
    loop (pinned by ``tests/test_vectorized.py``): outputs and their
    insertion order, every per-node and bit counter, active rounds,
    valve and ``MessageTooLargeError`` messages in the loop's precedence,
    and draw-for-draw RNG use.
    """
    run.engine = "schedule"
    if run.n == 0:
        return
    schedule = _Schedule(run, require_input(run.inputs, "awake_params"))
    schedule.decide()
    schedule.account()


class _Decisions(NamedTuple):
    """The decisions so far, as arrays over the nodes."""

    in_mis: Any
    #: Whether a node's LDT-MIS ran in closed form.
    closed: Any
    #: LDT-MIS awake rounds.
    ldt_awake: Any
    #: The first communication round in which an ``IN_MIS`` sender decided
    #: before it reaches the node (``batch_count + 1`` if none).
    reached: Any
    #: The phase after which the node broadcasts its state: its own batch
    #: when its LDT-MIS decided it, else ``reached``.
    decided: Any


class _Schedule:
    """One Awake-MIS run on the schedule engine: its tables and decisions.

    Phases and batches share the numbering ``1 .. batch_count``; arrays
    indexed by phase leave entry 0 unused.  The decision loop keeps its
    per-node state in lists (a batch holds a handful of nodes);
    :meth:`_decisions` turns it into arrays.
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
        schedules = {batch: sorted(communication_set(batch, batch_count))
                     for batch in set(self.batches)}
        node_rounds = [schedules[batch] for batch in self.batches]
        self.lengths = np.array([len(rounds) for rounds in node_rounds],
                                dtype=np.int64)
        lengths = self.lengths
        phase_ends = np.arange(1, batch_count + 2)

        # The (phase, node) attendance pairs sorted by phase (the stable
        # sort keeps node order within a phase), each with its node's
        # count of earlier attendances.
        phase_of = np.fromiter(chain.from_iterable(node_rounds),
                               dtype=np.int64, count=int(lengths.sum()))
        order = np.argsort(phase_of, kind="stable")
        self.phase_of = phase_of[order]
        self.attendees = np.repeat(np.arange(n), lengths)[order]
        self.earlier = (np.arange(len(phase_of))
                        - np.repeat(np.cumsum(lengths) - lengths,
                                    lengths))[order]
        self.attendee_bounds = np.searchsorted(self.phase_of, phase_ends)
        self.batch_of = np.array(self.batches, dtype=np.int64)
        self.edge_senders, self.edge_receivers, self.edge_phases = (
            _phase_edges(run, self.phase_of, self.attendees, self.batch_of))
        #: Phase -> 1 if it has a communication round; their running sum.
        self.attended = np.zeros(batch_count + 1, dtype=np.int64)
        self.attended[self.phase_of] = 1
        self.comm_upto = np.cumsum(self.attended)
        self.last_phase = [rounds[-1] for rounds in node_rounds]
        #: A node's awake count when its LDT-MIS starts: its communication
        #: rounds up to and including its own batch's.
        own = {batch: rounds.index(batch) + 1
               for batch, rounds in schedules.items()}
        self.own_rank = [own[batch] for batch in self.batches]
        self.bits_of = np.array([estimate_bits(NOT_IN_MIS),
                                 estimate_bits(IN_MIS)], dtype=np.int64)

        # Decision-loop tables: each nonempty batch's members, ascending,
        # and the edges joining two members of one batch (the only edges
        # on which two LDT-MIS participants of one phase can meet).
        members = np.argsort(self.batch_of, kind="stable")
        bounds = np.searchsorted(self.batch_of[members], phase_ends).tolist()
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
        #: Driven nodes' LDT-MIS awake rounds.
        self.driven_awake = np.zeros(n, dtype=np.int64)
        #: Phase -> active rounds of its LDT-MIS; their running total.
        self.ldt_rounds = np.zeros(batch_count + 1, dtype=np.int64)
        self.ldt_total = 0
        self.ldt_last_round: Optional[int] = None
        self.terminated = [(phase - 1) * params.phase_length
                           for phase in self.last_phase]

    # -- step one: decisions ----------------------------------------------

    def decide(self) -> None:
        """Every node's state, batch by batch; counts no communication
        round (see :func:`awake_mis_schedule`)."""
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
            bits = None
            if isolated and run.metered:
                bits = [estimate_bits(isolated_announcement(self.ids[index]))
                        for index in isolated]
            if not self._closed_form_holds(isolated, linked, bits):
                linked, isolated = starting, []
            if linked:
                self._drive(batch, linked)
            vt_round = (batch - 1) * params.phase_length + 1 + vt_offset
            for position, index in enumerate(isolated):
                self.closed[index] = in_mis[index] = self.by_ldt[index] = True
                if bits is not None:
                    self.announcement_bits[index] = bits[position]
                if self.last_phase[index] == batch:
                    self.terminated[index] = vt_round
            if isolated and not linked:
                # A driven component wakes in both closed-form rounds too
                # (all its nodes in the side round, its new ID 1 in
                # VT-MIS's first), so only a phase without one counts them.
                self.ldt_rounds[batch] = 2
                self.ldt_total += 2
                self.ldt_last_round = vt_round
            for index in starting:
                if in_mis[index]:
                    for neighbor in neighbors[offsets[index]:
                                              offsets[index + 1]]:
                        dominated[neighbor] = True

    def _closed_form_holds(self, isolated, linked, bits) -> bool:
        """Whether *isolated* may skip the generator loop this phase.

        Not when an isolated participant would trip the awake valve or the
        bit limit (the loop's precedence interleaves it with the driven
        nodes), or when the driven participants outnumber ``n_bound`` (a
        component that large may leave no node with new ID 1 to wake in
        VT-MIS's first round).  The phase is then driven whole, exactly
        as the loop runs it.
        """
        run, params = self.run, self.params
        if not isolated:
            return True
        if len(linked) > params.n_bound:
            return False
        budget = run.max_awake_per_node - 2
        if any(self.own_rank[index] > budget for index in isolated):
            return False
        if bits is None:
            return True
        degrees, limit = run.degrees, run.message_bit_limit
        return not any(size > limit and degrees[index] > 0
                       for index, size in zip(isolated, bits))

    def _drive(self, batch: int, linked) -> None:
        """Run *batch*'s non-trivial LDT components on the generator loop.

        The driven nodes' awake counters and the run's active-round count
        are first set to what the loop reads when the phase's LDT-MIS
        starts (sends are 0: a participant was undecided until now); when
        ``drive`` raises, a valve that trips earlier in time wins.
        """
        run, params = self.run, self.params
        communication_round = (batch - 1) * params.phase_length
        base = int(self.comm_upto[batch]) + self.ldt_total
        own = [self.own_rank[index] for index in linked]
        run.awake_rounds[linked] = own
        run.active_rounds = base
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
        try:
            finished = run.drive(generators, communication_round)
        except Exception:
            trip = self._first_trip(batch, self._decisions())
            if trip is not None:
                raise trip from None
            raise
        for index, state, stopped in finished:
            self.by_ldt[index] = state != UNDECIDED
            self.in_mis[index] = state == IN_MIS
            if self.last_phase[index] == batch:
                self.terminated[index] = stopped
        self.driven_awake[linked] = run.awake_rounds[linked] - own
        rounds = run.active_rounds - base
        if rounds:
            self.ldt_rounds[batch] = rounds
            self.ldt_total += rounds
            self.ldt_last_round = run.last_active_round

    # -- step two: accounting -----------------------------------------------

    def _decisions(self) -> _Decisions:
        """The decisions so far as arrays, with every node's decision
        phases (see :class:`_Decisions`)."""
        np = self.run.np
        in_mis = np.array(self.in_mis, dtype=bool)
        closed = np.array(self.closed, dtype=bool)
        senders, phases = self.edge_senders, self.edge_phases
        reaching = in_mis[senders] & (self.batch_of[senders] < phases)
        reached = np.full(self.run.n, self.params.batch_count + 1,
                          dtype=np.int64)
        np.minimum.at(reached, self.edge_receivers[reaching],
                      phases[reaching])
        decided = np.where(np.array(self.by_ldt, dtype=bool),
                           self.batch_of, reached)
        return _Decisions(in_mis, closed,
                          np.where(closed, 2, self.driven_awake),
                          reached, decided)

    def _first_trip(self, upto: int,
                    decisions: _Decisions) -> Optional[Exception]:
        """The valve error the loop raises first outside ``drive``, in the
        communication rounds of phases ``1 .. upto`` and the closed-form
        rounds of the LDT-MIS phases decided so far; ``None`` if none
        trips there."""
        run = self.run
        np = run.np
        # Livelock: the first active round beyond the valve, placed in its
        # phase's communication round (0) or LDT-MIS rounds (2).
        counts = np.cumsum(self.attended[1:upto + 1]
                           + self.ldt_rounds[1:upto + 1])
        past = int(np.searchsorted(counts, run.max_active_rounds,
                                   side="right"))
        livelock = None
        if past < upto:
            phase = past + 1
            in_communication = (counts[past] - self.ldt_rounds[phase]
                                > run.max_active_rounds)
            livelock = (phase, 0 if in_communication else 2)
        # Awake valve, then bit limit, node by node in each communication
        # round (1): attendances are in (phase, node) order.
        end = int(self.attendee_bounds[upto])
        phases, nodes = self.phase_of[:end], self.attendees[:end]
        awake = self.earlier[:end] + 1 + np.where(
            phases > self.batch_of[nodes], decisions.ldt_awake[nodes], 0)
        hits = awake > run.max_awake_per_node
        if run.metered:
            sizes = self.bits_of[decisions.in_mis[nodes].view(np.uint8)]
            hits |= ((phases > decisions.decided[nodes])
                     & (run.degrees[nodes] > 0)
                     & (sizes > run.message_bit_limit))
        first = int(np.argmax(hits)) if hits.any() else None
        if livelock is not None and (
                first is None or livelock < (int(phases[first]), 1)):
            return livelocked_error(run.max_active_rounds)
        if first is None:
            return None
        node = int(nodes[first])
        if awake[first] > run.max_awake_per_node:
            return awake_budget_error(run.labels[node],
                                      run.max_awake_per_node)
        payload = IN_MIS if self.in_mis[node] else NOT_IN_MIS
        return message_too_large_error(
            run.labels[node], int(sizes[first]), run.message_bit_limit,
            (int(phases[first]) - 1) * self.params.phase_length, payload)

    def account(self) -> None:
        """Every counter and output, from the decisions, in one pass."""
        run, params = self.run, self.params
        np = run.np
        decisions = self._decisions()
        decided = decisions.decided
        strays = ((decisions.reached > self.batch_of)
                  & ~np.array(self.participant, dtype=bool))
        if strays.any():
            node = int(np.argmax(strays))
            raise AssertionError(
                f"Observation 5 violated: node {run.labels[node]} of batch "
                f"{self.batches[node]} has an IN_MIS neighbour in an "
                "earlier batch but no shared communication round by its own")
        awake = self.lengths + decisions.ldt_awake
        active = int(self.comm_upto[-1]) + self.ldt_total
        # Headroom: with the final counters inside every valve (and the
        # state broadcasts within the bit limit), nothing tripped.
        if not (awake.max() <= run.max_awake_per_node
                and active <= run.max_active_rounds
                and (not run.metered
                     or self.bits_of.max() <= run.message_bit_limit)):
            trip = self._first_trip(params.batch_count, decisions)
            if trip is not None:
                raise trip
        sends = self.phase_of > decided[self.attendees]
        messages = (np.bincount(self.attendees[sends], minlength=run.n)
                    * run.degrees)
        announcements = np.where(decisions.closed, run.degrees, 0)
        run.awake_rounds[:] = awake
        run.messages_sent += messages + announcements
        if run.metered:
            sizes = self.bits_of[decisions.in_mis.view(np.uint8)]
            announced = np.where(announcements > 0,
                                 np.array(self.announcement_bits), 0)
            run.bits_sent += messages * sizes + announcements * announced
            run.max_message_bits[:] = np.maximum.reduce([
                run.max_message_bits, np.where(messages > 0, sizes, 0),
                announced])
        delivered = self.edge_phases > decided[self.edge_senders]
        run.messages_received += np.bincount(
            self.edge_receivers[delivered], minlength=run.n)
        run.active_rounds = active
        run.last_active_round = max(
            (int(self.phase_of[-1]) - 1) * params.phase_length,
            -1 if self.ldt_last_round is None else self.ldt_last_round)
        run.terminated_round[:] = self.terminated
        labels, outputs = run.labels, run.outputs
        lengths = self.lengths.tolist()
        for index in np.argsort(run.terminated_round, kind="stable").tolist():
            outputs[labels[index]] = MISDecision(
                in_mis=self.in_mis[index],
                detail={
                    "batch": self.pairs[index],
                    "batch_index": self.batches[index],
                    "id": self.ids[index],
                    "communication_rounds": lengths[index],
                },
            )


def _phase_edges(run, phase_of, attendees, batch_of):
    """The directed edges joining two attendees of one phase.

    *phase_of* and *attendees* are the (phase, node) attendance pairs,
    sorted by phase; *batch_of* is every node's batch.  Returns
    ``(senders, receivers, phases)``, sorted by phase.  Each attendance's
    CSR row is expanded, a chunk of attendances at a time to bound the
    scratch memory, and kept where the neighbour's schedule holds the
    phase too.
    """
    np = run.np
    senders, receivers, phases = [], [], []
    for start in range(0, len(attendees), _EDGE_CHUNK):
        nodes = attendees[start:start + _EDGE_CHUNK]
        degrees = run.degrees[nodes]
        ends = np.cumsum(degrees)
        slots = (np.repeat(run.offsets[nodes] - ends + degrees, degrees)
                 + np.arange(ends[-1]))
        neighbors = run.neighbors[slots]
        phase = np.repeat(phase_of[start:start + _EDGE_CHUNK], degrees)
        shared = in_communication_set(phase, batch_of[neighbors])
        senders.append(np.repeat(nodes, degrees)[shared])
        receivers.append(neighbors[shared])
        phases.append(phase[shared])
    return (np.concatenate(senders), np.concatenate(receivers),
            np.concatenate(phases))


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
