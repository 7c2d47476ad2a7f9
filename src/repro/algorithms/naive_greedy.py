"""The naive distributed implementation of sequential greedy MIS.

This is the strawman the paper's Section 3 starts from: with unique IDs in
``[1, I]``, run ``I`` rounds; in round ``i`` every still-undecided node is
awake and transmits its state, and the node whose ID is ``i`` joins the MIS
unless a neighbour already did.  It computes exactly the same LFMIS as
``VT-MIS`` but with awake complexity Θ(I) instead of O(log I) — experiment E4
plots the two against each other.

Nodes terminate as soon as their state is decided and they have announced it
once (an MIS node must announce so its undecided neighbours become decided);
this early termination only reduces the awake complexity of the strawman, so
the comparison in E4 is conservative.
"""

from __future__ import annotations

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.algorithms.vt_mis import _node_id
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext


def naive_greedy_protocol(ctx: NodeContext):
    """Protocol factory for the naive greedy MIS.

    Global inputs: ``id_bound`` (the common ID upper bound ``I``).  Per-node
    ``local_inputs`` must provide ``{"id": <int in [1, I]>}`` as for
    :func:`repro.algorithms.vt_mis.vt_mis_protocol`, read and checked as
    there.
    """
    id_bound = ctx.require_input("id_bound")
    my_id = _node_id(id_bound, "local", ctx.local_input, None)

    state = UNDECIDED
    ports = list(ctx.ports)
    announced_in_mis = False

    for logical_round in range(1, id_bound + 1):
        sends = [(port, state) for port in ports]
        inbox = yield WakeCall(round=logical_round - 1, sends=sends)
        if state == IN_MIS:
            # The announcement has now been transmitted; we may stop.
            announced_in_mis = True
            return MISDecision(in_mis=True, decided_round=logical_round - 1,
                               detail={"id": my_id})
        if state == UNDECIDED:
            if any(payload == IN_MIS for _, payload in inbox):
                state = NOT_IN_MIS
                return MISDecision(in_mis=False, decided_round=logical_round - 1,
                                   detail={"id": my_id})
            if logical_round == my_id:
                state = IN_MIS
                # Keep looping: the next awake round transmits the decision.

    # Only reachable for the node whose ID equals id_bound and which joined
    # in the very last round: there is no later round to announce in, but no
    # neighbour can still be undecided (they all decided at or before their
    # own IDs, which are < id_bound).
    return MISDecision(in_mis=state == IN_MIS or announced_in_mis,
                       decided_round=id_bound - 1, detail={"id": my_id})
