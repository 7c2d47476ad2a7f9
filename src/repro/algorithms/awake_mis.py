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
    rounds (``O(log log n · log* n)`` with the Appendix-A construction, i.e.
    Corollary 14: LDT-MIS's construction step pays the ``log* I`` factor
    of Corollary 12, see :mod:`repro.algorithms.ldt_mis`).

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
from typing import Optional, Tuple

import networkx as nx

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.algorithms.ldt_mis import (
    LDT_MIS_VARIANTS,
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
from repro.sim.runner import RunResult, run_protocol


@dataclass(frozen=True)
class AwakeMISParameters:
    """All knobs of ``Awake-MIS`` (paper Section 6).

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
    variant:
        ``"awake"`` (Theorem 13 flavour) or ``"round"`` (Corollary 14
        flavour); both currently share the Appendix-A LDT construction.
    """

    n: int
    ell: int
    delta_prime: int
    group_probabilities: Tuple[float, ...]
    n_bound: int
    id_space: int
    phase_length: int
    variant: str = "awake"
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
    def scaled(cls, n: int, variant: str = "awake") -> "AwakeMISParameters":
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
        id_space = max(64, (n + 2) ** 3)
        phase_length = 1 + ldt_mis_round_budget(n_bound, id_space) + 4
        return cls(
            n=n,
            ell=ell,
            delta_prime=delta_prime,
            group_probabilities=probabilities,
            n_bound=n_bound,
            id_space=id_space,
            phase_length=phase_length,
            variant=variant,
            preset="scaled",
        )

    @classmethod
    def paper(cls, n: int, variant: str = "awake") -> "AwakeMISParameters":
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
        id_space = max(64, (n + 2) ** 3)
        phase_length = 1 + ldt_mis_round_budget(n_bound, id_space) + 4
        return cls(
            n=n,
            ell=ell,
            delta_prime=delta_prime,
            group_probabilities=probabilities,
            n_bound=n_bound,
            id_space=id_space,
            phase_length=phase_length,
            variant=variant,
            preset="paper",
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
                variant=params.variant,
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
    """Schedule engine: Awake-MIS with array-valued communication rounds.

    A node's wake schedule is a pure function of its batch — it attends
    exactly the communication rounds of ``communication_set(batch,
    batch_count)`` (Observation 4) — so the engine draws every node's ID
    and batch up front (from its own stream, in the protocol's order),
    tabulates once which nodes attend each phase and which edges join two
    attendees of one phase, and walks the phases in order.  In each
    communication round the decided attendees broadcast their state on
    every port and the undecided ones listen: a message is delivered
    exactly on the tabulated edges whose sender is decided, and an
    ``IN_MIS`` sender decides its receivers ``NOT_IN_MIS``.  Then the
    still-undecided members of the phase's batch — the only nodes awake
    before the next communication round — run LDT-MIS.  Those with an
    undecided same-batch neighbour form the non-trivial LDT components
    and run :func:`ldt_mis_core` on the generator loop
    (:meth:`~repro.sim.vectorized.VectorizedRun.drive`), on the same
    round clock and counters.  Every other one is isolated, a one-node
    component, and its LDT-MIS is applied in arrays, in closed form
    (:func:`~repro.algorithms.ldt_mis.isolated_wake_offsets`): two awake
    rounds, one announcement on every port, ``IN_MIS``, no RNG draws.  A
    phase in which that closed form could differ from the loop (an
    isolated participant would trip a valve, an unknown variant, more
    driven participants than ``n_bound``) is driven whole.

    A node terminates in its last communication round, or in its last
    LDT-MIS round when that comes later; outputs are inserted in (round,
    index) order at the end, which is the order the generator loop
    inserts them in.

    Byte-identical to driving :func:`awake_mis_protocol` on the generator
    loop (pinned by ``tests/test_vectorized.py``): outputs and their
    insertion order, every per-node and bit counter, active rounds,
    valve and ``MessageTooLargeError`` messages in the loop's precedence,
    and draw-for-draw RNG use.
    """
    run.engine = "schedule"
    if run.n == 0:
        return
    np = run.np
    params: AwakeMISParameters = require_input(run.inputs, "awake_params")
    batch_count = params.batch_count
    phase_length = params.phase_length
    rngs = run.rngs
    ids, pairs = [], []
    for rng in rngs:
        ids.append(rng.randint(1, params.id_space))
        pairs.append(choose_batch(rng, params))
    batches = [batch_index(group, slot, params) for group, slot in pairs]
    schedules = {batch: sorted(communication_set(batch, batch_count))
                 for batch in set(batches)}
    node_rounds = [schedules[batch] for batch in batches]
    lengths = [len(rounds) for rounds in node_rounds]
    phase_ends = np.arange(1, batch_count + 2)

    # Phase -> attending nodes, ascending (the stable sort keeps the node
    # order the pairs are generated in); phase -> batch members likewise.
    phase_of = np.fromiter(chain.from_iterable(node_rounds), dtype=np.int64,
                           count=sum(lengths))
    order = np.argsort(phase_of, kind="stable")
    phase_of = phase_of[order]
    attendees = np.repeat(np.arange(run.n), lengths)[order]
    attendee_bounds = np.searchsorted(phase_of, phase_ends).tolist()
    batch_of = np.array(batches, dtype=np.int64)
    members = np.argsort(batch_of, kind="stable")
    member_bounds = np.searchsorted(batch_of[members], phase_ends).tolist()
    edge_senders, edge_receivers, edge_bounds = _phase_edges(
        run, phase_of, attendees, batch_of, phase_ends)
    link_senders, link_receivers, link_bounds = _batch_edges(
        run, batch_of, phase_ends)
    side_offset, vt_offset = isolated_wake_offsets(params.n_bound,
                                                   params.id_space)

    decided = np.zeros(run.n, dtype=bool)
    in_mis = np.zeros(run.n, dtype=bool)
    delivered = np.zeros(len(edge_senders), dtype=bool)
    bits_of = np.array([estimate_bits(NOT_IN_MIS), estimate_bits(IN_MIS)],
                       dtype=np.int64)
    last_phase = [rounds[-1] for rounds in node_rounds]
    terminated = [(phase - 1) * phase_length for phase in last_phase]

    def payload_of(index):
        return IN_MIS if in_mis[index] else NOT_IN_MIS

    for phase in range(1, batch_count + 1):
        low, high = attendee_bounds[phase - 1], attendee_bounds[phase]
        if low == high:
            continue
        awake = attendees[low:high]
        communication_round = (phase - 1) * phase_length
        run.begin_round(communication_round)
        run.record_awake(awake)
        senders = awake[decided[awake]]
        run.record_sends(
            senders,
            bits_of[in_mis[senders].view(np.uint8)] if run.metered else None,
            communication_round, payload_of)
        low, high = edge_bounds[phase - 1], edge_bounds[phase]
        if len(senders) and low < high:
            sending = edge_senders[low:high]
            delivered[low:high] = decided[sending]
            decided[edge_receivers[low:high][in_mis[sending]]] = True

        low, high = member_bounds[phase - 1], member_bounds[phase]
        starting = members[low:high]
        starting = starting[~decided[starting]]
        if not len(starting):
            continue
        # A participant with an undecided same-batch neighbour is in a
        # non-trivial LDT component; every other one is isolated.
        low, high = link_bounds[phase - 1], link_bounds[phase]
        linked = link_senders[low:high]
        linked = np.unique(linked[~(decided[linked]
                                    | decided[link_receivers[low:high]])])
        isolated = (np.setdiff1d(starting, linked, assume_unique=True)
                    if len(linked) else starting)
        start_round = communication_round + 1
        bits = None
        if len(isolated) and run.metered:
            bits = np.array([estimate_bits(isolated_announcement(ids[index]))
                             for index in isolated.tolist()], dtype=np.int64)
        if not _closed_form_holds(run, params, isolated, linked, bits):
            linked, isolated = starting, isolated[:0]
        if len(linked):
            generators = {
                index: ldt_mis_core(
                    my_id=ids[index],
                    id_space=params.id_space,
                    ports=range(int(run.degrees[index])),
                    n_bound=params.n_bound,
                    start_round=start_round,
                    rng=rngs[index],
                    variant=params.variant,
                )
                for index in linked.tolist()
            }
            for index, state, stopped in run.drive(generators,
                                                   communication_round):
                decided[index] = state != UNDECIDED
                in_mis[index] = state == IN_MIS
                if last_phase[index] == phase:
                    terminated[index] = stopped
        if len(isolated):
            side_round = start_round + side_offset
            vt_round = start_round + vt_offset
            # A driven component wakes in both rounds too (all its nodes
            # in the side round, its new ID 1 in VT-MIS's first), so only
            # a phase without one counts them here.
            if not len(linked):
                run.begin_round(side_round)
            run.record_awake(isolated)
            run.record_sends(isolated, bits, side_round,
                             lambda index: isolated_announcement(ids[index]))
            if not len(linked):
                run.begin_round(vt_round)
            run.record_awake(isolated)
            decided[isolated] = True
            in_mis[isolated] = True
            for index in isolated.tolist():
                if last_phase[index] == phase:
                    terminated[index] = vt_round

    # Communication-round receipts were only marked per edge.  They are
    # sums, so adding them last gives the loop's counts (``drive`` added
    # the LDT-MIS receipts in between).
    run.messages_received += np.bincount(edge_receivers[delivered],
                                         minlength=run.n)
    run.terminated_round[:] = terminated
    labels, outputs = run.labels, run.outputs
    joined = in_mis.tolist()
    for index in np.argsort(run.terminated_round, kind="stable").tolist():
        outputs[labels[index]] = MISDecision(
            in_mis=joined[index],
            detail={
                "batch": pairs[index],
                "batch_index": batches[index],
                "id": ids[index],
                "communication_rounds": lengths[index],
            },
        )


def _phase_edges(run, phase_of, attendees, batch_of, phase_ends):
    """The directed edges joining two attendees of one phase.

    *phase_of* and *attendees* are the (phase, node) attendance pairs,
    sorted by phase; *batch_of* is every node's batch.  Returns
    ``(senders, receivers, bounds)``: the edges grouped by phase (phase
    *p*'s are ``[bounds[p - 1], bounds[p])``).  Each attendance's CSR row
    is expanded, a chunk of attendances at a time to bound the scratch
    memory, and kept where the neighbour's schedule holds the phase too.
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
    bounds = np.searchsorted(np.concatenate(phases), phase_ends).tolist()
    return np.concatenate(senders), np.concatenate(receivers), bounds


def _batch_edges(run, batch_of, phase_ends):
    """The directed edges joining two members of one batch.

    Returns ``(senders, receivers, bounds)`` grouped by batch (batch
    *b*'s are ``[bounds[b - 1], bounds[b])``): the only edges on which two
    LDT-MIS participants of one phase can meet.
    """
    np = run.np
    senders = np.repeat(np.arange(run.n), run.degrees)
    same = batch_of[senders] == batch_of[run.neighbors]
    senders, receivers = senders[same], run.neighbors[same]
    order = np.argsort(batch_of[senders], kind="stable")
    senders, receivers = senders[order], receivers[order]
    bounds = np.searchsorted(batch_of[senders], phase_ends).tolist()
    return senders, receivers, bounds


def _closed_form_holds(run, params, isolated, linked, bits) -> bool:
    """Whether *isolated* may skip the generator loop this phase.

    Not when the variant is unknown (:func:`ldt_mis_core` raises), when
    an isolated participant would trip the awake valve or the bit limit
    (the loop's precedence interleaves it with the driven nodes), or
    when the driven participants outnumber ``n_bound`` (a component that
    large may leave no node with new ID 1 to wake in VT-MIS's first
    round).  The phase is then driven whole, exactly as the loop runs
    it.
    """
    if not len(isolated):
        return True
    if params.variant not in LDT_MIS_VARIANTS or len(linked) > params.n_bound:
        return False
    if (run.awake_rounds[isolated] + 2 > run.max_awake_per_node).any():
        return False
    if bits is None:
        return True
    sending = run.degrees[isolated] > 0
    return not (bits[sending] > run.message_bit_limit).any()


awake_mis_protocol.vectorized_engine = awake_mis_schedule


def run_awake_mis(graph: nx.Graph, seed: SeedLike = None,
                  preset: str = "scaled",
                  variant: str = "awake",
                  params: Optional[AwakeMISParameters] = None,
                  message_bit_limit: Optional[int] = None,
                  trace: bool = False,
                  max_active_rounds: int = 20_000_000,
                  vectorized: Optional[bool] = None) -> RunResult:
    """Run ``Awake-MIS`` on *graph* (harness / tests / benchmarks entry point).

    *vectorized* selects the schedule engine as in
    :func:`~repro.sim.runner.run_protocol`; it never changes bytes.
    """
    n = graph.number_of_nodes()
    if params is None:
        if preset == "paper":
            params = AwakeMISParameters.paper(n, variant=variant)
        elif preset == "scaled":
            params = AwakeMISParameters.scaled(n, variant=variant)
        else:
            raise ConfigurationError(
                f"unknown Awake-MIS preset {preset!r}; choose 'scaled' or "
                "'paper'")
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
