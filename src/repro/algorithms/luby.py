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

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext
from repro.sim.message import estimate_bits

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


def luby_protocol(ctx: NodeContext):
    """Protocol factory for Luby's MIS in the sleeping model.

    Global inputs: none are required; ``max_iterations`` optionally caps the
    number of iterations (defaults to a generous bound used only as a safety
    valve — the algorithm terminates with probability 1 regardless).
    """
    max_iterations = ctx.input("max_iterations", 4096)
    state = UNDECIDED
    ports = list(ctx.ports)

    for iteration in range(max_iterations):
        base = ROUNDS_PER_ITERATION * iteration
        priority = ctx.rng.randrange(PRIORITY_SPACE)

        # Round 1: exchange priorities with the still-undecided neighbours.
        inbox = yield WakeCall(
            round=base,
            sends=[(port, (PRIORITY_TAG, priority)) for port in ports],
        )
        neighbor_priorities = [
            payload[1]
            for _, payload in inbox
            if isinstance(payload, tuple) and payload[0] == PRIORITY_TAG
        ]
        is_local_minimum = all(priority < other for other in neighbor_priorities)

        # Round 2: winners announce; losers listen.
        if is_local_minimum:
            inbox = yield WakeCall(
                round=base + 1,
                sends=[(port, IN_MIS) for port in ports],
            )
            state = IN_MIS
            return MISDecision(
                in_mis=True,
                decided_round=base + 1,
                detail={"iterations": iteration + 1},
            )
        inbox = yield WakeCall(round=base + 1, sends=[])
        if any(payload == IN_MIS for _, payload in inbox):
            state = NOT_IN_MIS
            return MISDecision(
                in_mis=False,
                decided_round=base + 1,
                detail={"iterations": iteration + 1},
            )

    raise RuntimeError(EXHAUSTED.format(max_iterations))


def local_minimum_vectorized(run, *, tag, value_space, redraw, value_key,
                             exhausted):
    """Whole-round numpy twin of the two-round local-minimum protocols.

    One engine serves :func:`luby_protocol` and
    :func:`~repro.algorithms.rank_greedy.rank_greedy_protocol`, which
    differ only in the message ``tag``, the ``value_space`` values are
    drawn from, whether values are redrawn every iteration (``redraw``,
    Luby) or drawn once up front (rank greedy), the optional ``value_key``
    under which the drawn value also lands in each decision's ``detail``,
    and the ``exhausted`` message template (``{}`` is ``max_iterations``).

    Byte-identity with the generators is a hard contract (pinned by
    ``tests/test_vectorized.py``): one ``randrange`` per node per draw in
    ascending index order, the same message counts (round 1 sends
    ``(tag, value)`` on every port, round 2 only winners send ``IN_MIS``,
    a message is received only by awake — i.e. undecided — neighbours),
    the same bit counts on metered runs (``estimate_bits`` of those real
    payloads), the same termination rounds, the same :class:`MISDecision`
    payloads, and the same ``RuntimeError`` when ``max_iterations`` runs
    out.
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

        # Round 1: every undecided node is awake, sends its value on
        # every port, and receives one message per undecided neighbour.
        run.begin_round(base)
        run.record_awake(idx)
        run.record_sends(idx, bits)
        run.messages_received[idx] += run.row_count(undecided)[idx]
        winners = undecided & (values < run.row_min(values, empty=INF))

        # Round 2: winners announce on every port; every undecided node is
        # awake and hears one message per winning neighbour (0 for winners
        # themselves — no two adjacent strict local minima exist).
        run.begin_round(base + 1)
        run.record_awake(idx)
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
        raise RuntimeError(exhausted.format(max_iterations))


#: Opt the generator protocol into the vectorized engine (see
#: ``repro.sim.vectorized``); the simulator discovers this attribute.
luby_protocol.vectorized_engine = functools.partial(
    local_minimum_vectorized, tag=PRIORITY_TAG, value_space=PRIORITY_SPACE,
    redraw=True, value_key=None, exhausted=EXHAUSTED)
