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

from repro.algorithms.luby import local_minimum_protocol, local_minimum_vectorized
from repro.sim.context import NodeContext

#: Ranks are drawn from this space once per run.
RANK_SPACE = 2**48

#: Tag of the round-1 rank message.
RANK_TAG = "rank"

#: Raised (formatted with ``max_iterations``) when iterations run out.
EXHAUSTED = "rank-greedy did not terminate within {} iterations"

#: Rank greedy's parameters of the local-minimum protocol and its engine:
#: ranks are drawn once and land in each decision's ``detail``.
RANK_GREEDY = dict(tag=RANK_TAG, value_space=RANK_SPACE, redraw=False,
                   value_key="rank")


def rank_greedy_protocol(ctx: NodeContext):
    """Protocol factory for the parallel randomized greedy (rank) MIS.

    Global inputs: ``max_iterations`` optionally caps the number of
    iterations — a safety valve, see
    :func:`~repro.algorithms.luby.local_minimum_protocol`.
    """
    return local_minimum_protocol(ctx, **RANK_GREEDY, exhausted=EXHAUSTED)


#: Opt into the vectorized engine Luby uses: ranks are drawn once, one
#: ``randrange(RANK_SPACE)`` per node in index order, like the generators.
rank_greedy_protocol.vectorized_engine = functools.partial(
    local_minimum_vectorized, **RANK_GREEDY)
