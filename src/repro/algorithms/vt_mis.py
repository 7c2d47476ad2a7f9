"""Algorithm ``VT-MIS`` (paper Subsection 5.3, Lemma 10).

``VT-MIS`` computes the lexicographically-first MIS with respect to the
nodes' IDs using the virtual-binary-tree coordination technique: the node
whose ID is ``k`` is awake exactly in the rounds of its communication set
``S_k([1, I])`` (which contains ``k`` itself), sends its current state in
each of those rounds, and decides in round ``k``.  Observation 5 guarantees
every lower-ID neighbour's decision reaches it in time, so the output is the
same LFMIS the sequential greedy scan would produce — with only
``O(log I)`` awake rounds per node instead of ``O(I)``.

The module provides

* :func:`vt_mis_core` — a composable sub-protocol (used inside ``LDT-MIS``
  and therefore inside ``Awake-MIS``),
* :func:`vt_mis_protocol` — a standalone protocol factory for the harness,
  which expects per-node integer IDs supplied through ``local_inputs`` (or
  draws uniform IDs from ``[1, id_bound]`` when ``id_source="random"``),
  and
* :func:`vt_mis_schedule` — the standalone protocol's schedule engine.
  Every wake schedule and the output are pure functions of the IDs, so
  it decides greedily in ID order and accounts every round in one array
  pass (the :class:`~repro.sim.vectorized.ScheduleTable` Awake-MIS's
  engine accounts through too).  Untraced runs take it unless pinned to
  the generator loop with ``vectorized=False``; it never changes bytes.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Any, Iterable, List, Optional

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.core.virtual_tree import communication_set
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext, require_input
from repro.sim.vectorized import ScheduleTable

#: IDs bounded below this are tabulated in int64 arrays (their virtual
#: tree's labels stay below 2**63); larger bounds use Python ints.
_INT64_BOUND = 2**61


def _check_id(my_id, id_bound) -> None:
    """Raise unless *my_id* is an integer in ``[1, id_bound]``."""
    if not 1 <= operator.index(my_id) <= id_bound:
        raise ValueError(f"ID {my_id} outside [1, {id_bound}]")


def vt_mis_core(
    my_id: int,
    id_bound: int,
    ports: Iterable[int],
    start_round: int = 0,
    state: str = UNDECIDED,
):
    """Run the VT-MIS sub-protocol; returns the final state string.

    Parameters
    ----------
    my_id:
        This node's unique ID in ``[1, id_bound]``.
    id_bound:
        The common upper bound ``I`` on IDs; determines the virtual tree.
    ports:
        Ports of the participating neighbours.  Messages are exchanged only
        with them; other neighbours (if any) are ignored.
    start_round:
        Absolute round corresponding to the algorithm's logical round 1.
        Logical round ``r`` happens at absolute round ``start_round + r - 1``.
    state:
        Initial state; nodes already decided (e.g. dominated by a previous
        batch in Awake-MIS) never call this.

    The generator yields :class:`~repro.sim.actions.WakeCall` objects and must
    be driven with ``yield from`` inside a protocol generator.
    """
    _check_id(my_id, id_bound)
    ports = list(ports)
    awake_rounds = sorted(communication_set(my_id, id_bound))
    for logical_round in awake_rounds:
        absolute = start_round + logical_round - 1
        sends = [(port, state) for port in ports]
        inbox = yield WakeCall(round=absolute, sends=sends)
        if state == UNDECIDED:
            if any(payload == IN_MIS for _, payload in inbox):
                state = NOT_IN_MIS
            elif logical_round == my_id:
                state = IN_MIS
    return state


def vt_mis_protocol(ctx: NodeContext):
    """Standalone VT-MIS protocol factory.

    Global inputs
    -------------
    ``id_bound``:
        The ID upper bound ``I`` (required).
    ``id_source``:
        ``"local"`` (default): the node's ID comes from
        ``ctx.local_input["id"]``.  ``"random"``: the node draws a uniform ID
        from ``[1, id_bound]`` (callers must make the bound large enough that
        collisions are negligible; adjacent nodes with one ID both join).

    Returns a :class:`~repro.algorithms.common.MISDecision`.  Untraced runs
    take the schedule engine, :func:`vt_mis_schedule`.
    """
    id_bound = ctx.require_input("id_bound")
    my_id = _node_id(id_bound, ctx.input("id_source", "local"),
                     ctx.local_input, ctx.rng)
    final_state = yield from vt_mis_core(my_id, id_bound, ctx.ports)
    return MISDecision(
        in_mis=(final_state == IN_MIS),
        decided_round=my_id - 1,
        detail={"id": my_id, "id_bound": id_bound},
    )


def _node_id(id_bound, id_source, local_input, rng):
    """One node's checked ID: drawn from *rng* (one ``randint``) when
    *id_source* is ``"random"``, else read from *local_input*."""
    if id_source == "random":
        my_id = rng.randint(1, id_bound)
    else:
        if not isinstance(local_input, dict) or "id" not in local_input:
            raise ValueError(
                "local IDs require local_inputs of the form "
                "{node: {'id': <int>}}"
            )
        my_id = local_input["id"]
    _check_id(my_id, id_bound)
    return my_id


def vt_mis_schedule(run) -> None:
    """Schedule engine of :func:`vt_mis_protocol`.

    Reads (or draws, one ``randint`` per node in index order, only when
    ``id_source="random"``) and checks every node's ID as the protocol
    does, so an input error is the loop's, for the first offending node
    in index order.  Then it works in two steps.

    1.  **Decide, greedily in ID order.**  A node joins unless an
        ``IN_MIS`` neighbour has a smaller ID: by Observation 5 that
        neighbour's decision reaches it by its own round.  Equal IDs
        (``id_source="random"`` can draw them) decide together, so
        adjacent duplicates both join, as on the loop.
    2.  **Account, in one pass.**  Node ``i`` with ID ``k`` is awake in
        round ``r - 1`` for each ``r`` of ``S_k([1, I])`` and sends its
        state on every port each time: ``undecided`` up to its decision
        (round ``k - 1``, or the first round in which an ``IN_MIS``
        neighbour reaches it), its final state after.  A
        :class:`~repro.sim.vectorized.ScheduleTable` keyed by ID turns
        that into every counter; a node terminates in its last round, and
        outputs are inserted in (round, index) order, the loop's order.

    The simulator judges the final counters against its valves, and a run
    outside one is replayed on the generator loop, which raises the
    valve's error.  Byte-identical to the loop (pinned by
    ``tests/test_vectorized.py``).
    """
    run.engine = "schedule"
    if run.n == 0:
        return
    np = run.np
    id_bound = require_input(run.inputs, "id_bound")
    id_source = run.inputs.get("id_source", "local")
    streams = run.rngs if id_source == "random" else repeat(None)
    ids = [_node_id(id_bound, id_source, run.local_inputs.get(label), rng)
           for label, rng in zip(run.labels, streams)]
    keys = np.array(ids, dtype=np.int64 if id_bound < _INT64_BOUND
                    else object)

    # The LFMIS by ID: ``blocker`` holds the smallest ID of an IN_MIS
    # neighbour decided so far (IDs ascend, so the first one written).
    neighbors, offsets = run.neighbors.tolist(), run.offsets.tolist()
    key_of = keys.tolist()
    blocker: List[Any] = [None] * run.n
    joined = [False] * run.n
    for index in np.argsort(keys, kind="stable").tolist():
        key = key_of[index]
        if blocker[index] is not None and blocker[index] < key:
            continue
        joined[index] = True
        for neighbor in neighbors[offsets[index]:offsets[index + 1]]:
            if blocker[neighbor] is None:
                blocker[neighbor] = key

    in_mis = np.array(joined, dtype=bool)
    table = ScheduleTable(run, keys, id_bound)
    decided = np.minimum(table.reached(in_mis, in_mis, "step"), keys)
    table.account(decided, in_mis.view(np.uint8), (NOT_IN_MIS, IN_MIS),
                  undecided=UNDECIDED)
    run.finish(table.last_phase - 1, [
        MISDecision(in_mis=flag, decided_round=my_id - 1,
                    detail={"id": my_id, "id_bound": id_bound})
        for flag, my_id in zip(joined, ids)])


vt_mis_protocol.vectorized_engine = vt_mis_schedule


def assign_sequential_ids(labels: List, seed_order: Optional[List] = None):
    """Build ``local_inputs`` assigning IDs ``1..n`` following *seed_order*.

    When *seed_order* is None the labels' natural order is used.  The helper
    is what the harness and tests use to hand VT-MIS a specific ordering so
    its output can be compared with the sequential LFMIS of the same order.
    """
    order = list(seed_order) if seed_order is not None else list(labels)
    return {label: {"id": position} for position, label in enumerate(order, start=1)}
