"""Luby's randomized MIS — the classical O(log n)-round baseline.

The paper contrasts its O(log log n) awake complexity against the
O(log n)-round algorithms of Luby / Alon–Babai–Itai, which in the sleeping
model translate into O(log n) awake complexity (a node can sleep nothing: it
must participate in every iteration until it decides).  This implementation
is the "random priority" variant:

Each iteration uses two rounds.

1. every undecided node draws a random priority and exchanges it with its
   (undecided, hence awake) neighbours; a node whose priority is a strict
   local minimum marks itself;
2. marked nodes join the MIS and announce ``inMIS``; undecided nodes that
   hear an announcement become ``notinMIS`` and terminate.

A node is awake for exactly two rounds per iteration until it decides, so
its awake complexity equals twice the number of iterations it survives —
Θ(log n) w.h.p. for worst-case graphs, which is exactly the baseline curve
experiments E1/E2 compare against.
"""

from __future__ import annotations

import functools
import itertools

from repro.algorithms.common import IN_MIS, MISDecision
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext
from repro.sim.message import estimate_bits
from repro.sim.vectorized import ValveTrip

#: Priorities are drawn from [0, PRIORITY_SPACE); collisions simply cause the
#: colliding nodes to skip one iteration, so correctness never depends on
#: uniqueness.
PRIORITY_SPACE = 2**48

#: Rounds per Luby iteration (priority exchange + MIS announcement).
ROUNDS_PER_ITERATION = 2

#: Tag of the round-1 priority message.
PRIORITY_TAG = "priority"

#: Raised (formatted with ``max_iterations``) when iterations run out.
EXHAUSTED = ("Luby did not terminate within {} iterations "
             "(this indicates a bug or an absurdly small max_iterations)")

#: Luby's parameters of :func:`local_minimum_protocol` and its engine:
#: priorities are redrawn every iteration.
LUBY = dict(tag=PRIORITY_TAG, value_space=PRIORITY_SPACE, redraw=True,
            value_key=None)


def local_minimum_protocol(ctx: NodeContext, *, tag, value_space, redraw,
                           value_key, exhausted):
    """The two-round local-minimum generator of ``luby`` and
    ``rank_greedy``.

    Each iteration, every undecided node sends ``(tag, value)`` on every
    port, then joins the MIS if its value is a strict minimum over the
    values it heard and announces ``IN_MIS``, or drops out on hearing an
    announcement.  Values are drawn from ``[0, value_space)``: afresh
    every iteration (``redraw``, Luby) or once up front (rank greedy).
    The decision's ``detail`` holds the iterations survived and, under
    ``value_key`` when given, the value.  ``max_iterations`` (a global
    input, 4096 by default) is a safety valve: the protocol terminates
    with probability 1, and a run that exhausts it raises ``RuntimeError``
    with the *exhausted* message (``{}`` is ``max_iterations``).
    """
    max_iterations = ctx.input("max_iterations", 4096)
    ports = list(ctx.ports)
    if not redraw:
        value = ctx.rng.randrange(value_space)

    for iteration in range(max_iterations):
        base = ROUNDS_PER_ITERATION * iteration
        if redraw:
            value = ctx.rng.randrange(value_space)

        # Round 1: exchange values with the still-undecided neighbours.
        inbox = yield WakeCall(
            round=base,
            sends=[(port, (tag, value)) for port in ports],
        )
        wins = all(value < payload[1] for _, payload in inbox
                   if isinstance(payload, tuple) and payload[0] == tag)

        # Round 2: winners announce; losers listen.
        inbox = yield WakeCall(
            round=base + 1,
            sends=[(port, IN_MIS) for port in ports] if wins else [],
        )
        if wins or any(payload == IN_MIS for _, payload in inbox):
            detail = {"iterations": iteration + 1}
            if value_key is not None:
                detail[value_key] = value
            return MISDecision(in_mis=wins, decided_round=base + 1,
                               detail=detail)

    raise RuntimeError(exhausted.format(max_iterations))


def luby_protocol(ctx: NodeContext):
    """Protocol factory for Luby's MIS in the sleeping model.

    Global inputs: none are required; ``max_iterations`` optionally caps the
    number of iterations — a safety valve, see
    :func:`local_minimum_protocol`.
    """
    return local_minimum_protocol(ctx, **LUBY, exhausted=EXHAUSTED)


def local_minimum_vectorized(run, *, tag, value_space, redraw, value_key):
    """Whole-round numpy twin of :func:`local_minimum_protocol`, with the
    same parameters but the message for exhausted iterations.

    Byte-identity with the generators is a hard contract (pinned by
    ``tests/test_vectorized.py``): one ``randrange`` per node per draw in
    ascending index order, the same message counts (round 1 sends
    ``(tag, value)`` on every port, round 2 only winners send ``IN_MIS``,
    a message is received only by awake — i.e. undecided — neighbours),
    the same bit counts on metered runs (``estimate_bits`` of those real
    payloads), the same termination rounds and the same
    :class:`MISDecision` payloads.  It records a whole iteration at a
    time: two active rounds, the last of them, and two awake rounds per
    undecided node.  A run that exhausts ``max_iterations`` raises
    :class:`~repro.sim.vectorized.ValveTrip`, and the generator loop's
    replay raises the protocol's ``RuntimeError``.
    """
    np = run.np
    max_iterations = run.inputs.get("max_iterations", 4096)
    undecided = np.ones(run.n, dtype=bool)
    labels = run.labels
    rngs = run.rngs
    # Decided nodes read as +inf in the value array so a strict local
    # minimum among *undecided* neighbours is just a strict minimum over
    # all neighbours (any real value is < INF, and empty rows win).
    INF = np.int64(1) << 62
    values = np.full(run.n, INF, dtype=np.int64)
    if not redraw:
        values[:] = [rng.randrange(value_space) for rng in rngs]
    in_mis_bits = estimate_bits(IN_MIS)

    for iteration in range(max_iterations):
        idx = np.flatnonzero(undecided)
        if idx.size == 0:
            return
        base = ROUNDS_PER_ITERATION * iteration
        if redraw:
            values[idx] = [rngs[i].randrange(value_space)
                           for i in idx.tolist()]
        bits = ([estimate_bits((tag, value)) for value in values[idx].tolist()]
                if run.metered else None)

        # Both rounds: every undecided node is awake.
        run.active_rounds += ROUNDS_PER_ITERATION
        run.last_active_round = base + 1
        run.awake_rounds[idx] += ROUNDS_PER_ITERATION

        # Round 1: every undecided node sends its value on every port and
        # receives one message per undecided neighbour.
        run.record_sends(idx, bits)
        run.messages_received[idx] += run.row_count(undecided)[idx]
        winners = undecided & (values < run.row_min(values, empty=INF))

        # Round 2: winners announce on every port; every undecided node
        # hears one message per winning neighbour (0 for winners
        # themselves — no two adjacent strict local minima exist).
        run.record_sends(np.flatnonzero(winners), in_mis_bits)
        winning = run.row_count(winners)
        run.messages_received[idx] += winning[idx]

        losers = undecided & ~winners & (winning > 0)
        decided_idx = np.flatnonzero(winners | losers)
        if decided_idx.size:
            run.terminated_round[decided_idx] = base + 1
            decided = decided_idx.tolist()
            iterations = iteration + 1
            if value_key is None:
                details = [{"iterations": iterations} for _ in decided]
            else:
                details = [{"iterations": iterations, value_key: value}
                           for value in values[decided_idx].tolist()]
            # Bulk insertion in ascending index order, positional
            # constructors: thousands of nodes decide per round.
            run.outputs.update(zip(
                map(labels.__getitem__, decided),
                map(MISDecision, winners[decided_idx].tolist(),
                    itertools.repeat(base + 1), details)))
            undecided[decided_idx] = False
            values[decided_idx] = INF

    if undecided.any():
        raise ValveTrip


#: Opt the generator protocol into the vectorized engine (see
#: ``repro.sim.vectorized``); the simulator discovers this attribute.
luby_protocol.vectorized_engine = functools.partial(local_minimum_vectorized,
                                                    **LUBY)
