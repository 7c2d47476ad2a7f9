"""Parallel randomized greedy MIS (local-minimum rule).

This is the distributed implementation of randomized greedy MIS analysed by
Fischer and Noever (SODA 2018), which the paper cites as taking Θ(log n)
rounds: every node draws a random rank once; in each round, every undecided
node whose rank is a local minimum among its undecided neighbours joins the
MIS, and its neighbours drop out.  Unlike Luby's algorithm the ranks are
drawn once, so the output is exactly the LFMIS of the rank order — the same
combinatorial object VT-MIS / Awake-MIS compute, which makes this the natural
"traditional round-complexity" baseline for experiments E2 and E4.

Awake accounting: a node is awake two rounds per iteration until it decides
(rank exchange happens every iteration because undecided neighbour sets
shrink), giving Θ(log n) awake complexity w.h.p. — asymptotically the same as
Luby, but with the LFMIS output.
"""

from __future__ import annotations

import functools

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.algorithms.luby import local_minimum_vectorized
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext

#: Ranks are drawn from this space once per run.
RANK_SPACE = 2**48

#: Tag of the round-1 rank message.
RANK_TAG = "rank"

#: Raised (formatted with ``max_iterations``) when iterations run out.
EXHAUSTED = "rank-greedy did not terminate within {} iterations"


def rank_greedy_protocol(ctx: NodeContext):
    """Protocol factory for the parallel randomized greedy (rank) MIS."""
    max_iterations = ctx.input("max_iterations", 4096)
    rank = ctx.rng.randrange(RANK_SPACE)
    ports = list(ctx.ports)
    state = UNDECIDED

    for iteration in range(max_iterations):
        base = 2 * iteration

        # Round 1: exchange (rank, state) with undecided neighbours.
        inbox = yield WakeCall(
            round=base,
            sends=[(port, (RANK_TAG, rank)) for port in ports],
        )
        neighbor_ranks = [
            payload[1]
            for _, payload in inbox
            if isinstance(payload, tuple) and payload[0] == RANK_TAG
        ]
        wins = all(rank < other for other in neighbor_ranks)

        # Round 2: winners announce, losers listen.
        if wins:
            yield WakeCall(round=base + 1, sends=[(port, IN_MIS) for port in ports])
            return MISDecision(in_mis=True, decided_round=base + 1,
                               detail={"iterations": iteration + 1, "rank": rank})
        inbox = yield WakeCall(round=base + 1, sends=[])
        if any(payload == IN_MIS for _, payload in inbox):
            state = NOT_IN_MIS
            return MISDecision(in_mis=False, decided_round=base + 1,
                               detail={"iterations": iteration + 1, "rank": rank})

    raise RuntimeError(EXHAUSTED.format(max_iterations))


#: Opt into the vectorized engine Luby uses: ranks are drawn once, one
#: ``randrange(RANK_SPACE)`` per node in index order, like the generators.
rank_greedy_protocol.vectorized_engine = functools.partial(
    local_minimum_vectorized, tag=RANK_TAG, value_space=RANK_SPACE,
    redraw=False, value_key="rank", exhausted=EXHAUSTED)
