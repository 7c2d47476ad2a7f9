"""Distributed construction of a labeled distance tree (paper Appendix A.2).

``LDT-Construct-Round`` builds an LDT spanning each connected component of
the participating nodes by GHS-style fragment merging:

1.  every node starts as a singleton fragment (its own LDT);
2.  in each *merge phase* every fragment finds its minimum outgoing edge
    (stage 1), the fragments of each supergraph component organise into a
    rooted tree, 6-colour themselves with Cole–Vishkin, compute a maximal
    matching of fragments, and unmatched fragments attach to a matched
    neighbour (stage 2);
3.  each resulting merge group (one matched pair plus attached fragments —
    diameter at most 4) merges into a single LDT whose ID is the smaller ID
    of the matched pair, re-orienting parent pointers and recomputing depths
    with two transmission-schedule waves (stage 3).

Each phase at least halves the number of fragments, so
``ceil(log2(n_bound)) + 1`` phases suffice.  A fragment that finds no
outgoing edge spans its whole component; its nodes stop participating (the
remaining construction rounds are sleeping rounds for them), which keeps the
awake cost of small shattered components proportional to *their* size rather
than to the bound.

Every phase consists of a fixed number of schedule *blocks* computed only
from globally known quantities (``n_bound`` and the ID space), so all
participants stay in lockstep without extra coordination.  Per phase a node
is awake O(1) rounds per block for O(log* I) + O(1) blocks, matching the
bounds of Lemma 7 / Lemma 15: O(log n' · log* I) awake complexity and
O(poly(n') · log* I) round complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ldt.cole_vishkin import cv_root_step, cv_step, iterations_to_six_colors
from repro.ldt.procedures import (
    fragment_broadcast,
    reroot_fragment,
    transmit_adjacent,
    upcast_min,
)
from repro.ldt.schedule import block_length
from repro.ldt.structure import LDTState

#: Number of matching sub-phases (one per Cole–Vishkin colour).
MATCHING_COLORS = 6
#: Blocks used per matching sub-phase.
BLOCKS_PER_MATCHING_SUBPHASE = 6
#: Blocks used by stage 1 + supergraph-root detection.
BLOCKS_STAGE1 = 6
#: Blocks used by the attach step (status refresh, candidate upcast,
#: candidate broadcast, attach notifications).
BLOCKS_ATTACH = 4
#: Blocks used by each of the two merge waves (transmit + two re-root blocks).
BLOCKS_PER_WAVE = 3


def frag_message(fragment_id: int, node_id: int) -> Tuple[str, int, int]:
    """The stage-1 announcement ``("frag", fragment ID, node ID)``.

    Sent on every participant port in block 0 of each merge phase; the
    side round of the first one is where participants discover each
    other.
    """
    return ("frag", fragment_id, node_id)


def cv_iterations(id_space: int) -> int:
    """Number of Cole–Vishkin iterations used by the construction."""
    return iterations_to_six_colors(id_space)


def blocks_per_phase(id_space: int) -> int:
    """Total schedule blocks per merge phase (identical for all nodes)."""
    return (
        BLOCKS_STAGE1
        + 3 * cv_iterations(id_space)
        + MATCHING_COLORS * BLOCKS_PER_MATCHING_SUBPHASE
        + BLOCKS_ATTACH
        + 2 * BLOCKS_PER_WAVE
    )


def merge_phases(n_bound: int) -> int:
    """Number of merge phases that always suffice for components <= n_bound."""
    return max(1, math.ceil(math.log2(max(2, n_bound)))) + 1


def construction_rounds(n_bound: int, id_space: int) -> int:
    """Total rounds reserved by ``ldt_construct`` (a globally known constant)."""
    return merge_phases(n_bound) * blocks_per_phase(id_space) * block_length(n_bound)


@dataclass
class ConstructionResult:
    """What ``ldt_construct`` returns to its caller."""

    ldt: LDTState
    #: Ports of the neighbours that participated in the construction (i.e.
    #: the node's neighbourhood inside its component of the induced subgraph).
    participant_ports: List[int] = field(default_factory=list)
    #: Merge phases actually executed before the fragment spanned the
    #: component (diagnostics; bounded by :func:`merge_phases`).
    phases_used: int = 0


def ldt_construct(
    my_id: int,
    id_space: int,
    ports: List[int],
    n_bound: int,
    start_round: int,
):
    """Sub-protocol building an LDT over this node's component.

    Parameters
    ----------
    my_id:
        This node's unique ID in ``[1, id_space]``.
    id_space:
        Common upper bound ``I`` on IDs (drives the Cole–Vishkin budget).
    ports:
        Ports over which participating neighbours may be reached (messages
        sent to non-participants are simply lost; actual participants are
        discovered in the first block).
    n_bound:
        Upper bound on the component size, known to every participant.
    start_round:
        Absolute round at which the (globally agreed) construction schedule
        begins.  The construction occupies exactly
        :func:`construction_rounds` rounds.

    Returns a :class:`ConstructionResult`.  Drive with ``yield from``.
    """
    blk = block_length(n_bound)
    per_phase = blocks_per_phase(id_space)
    phases = merge_phases(n_bound)
    iterations = cv_iterations(id_space)

    ldt = LDTState.singleton(my_id)
    participant_ports: List[int] = list(ports)
    discovered = False
    phases_used = 0

    def block_start(phase: int, block_index: int) -> int:
        return start_round + (phase * per_phase + block_index) * blk

    for phase in range(phases):
        phases_used = phase + 1

        # ---------------- Stage 1: minimum outgoing edge ------------------ #
        # Block 0: exchange (fragment id, node id) with neighbours.
        announcement = frag_message(ldt.ldt_id, my_id)
        inbox = yield from transmit_adjacent(
            ldt.depth, n_bound, block_start(phase, 0),
            [(port, announcement) for port in participant_ports],
        )
        neighbor_frag: Dict[int, int] = {}
        neighbor_node: Dict[int, int] = {}
        for port, payload in inbox:
            if isinstance(payload, tuple) and payload[0] == "frag":
                neighbor_frag[port] = payload[1]
                neighbor_node[port] = payload[2]
        if not discovered:
            participant_ports = sorted(neighbor_frag)
            discovered = True

        outgoing_ports = [
            port for port in participant_ports
            if neighbor_frag.get(port) is not None
            and neighbor_frag[port] != ldt.ldt_id
        ]

        # Block 1: upcast the fragment's minimum outgoing edge.
        candidate = None
        for port in outgoing_ports:
            other = neighbor_node[port]
            edge_key = (min(my_id, other), max(my_id, other))
            entry = (edge_key[0], edge_key[1], my_id, port, neighbor_frag[port])
            if candidate is None or entry < candidate:
                candidate = entry
        subtree_best = yield from upcast_min(
            ldt, n_bound, block_start(phase, 1), candidate
        )

        # Block 2: broadcast the chosen edge (or "done").
        chosen = yield from fragment_broadcast(
            ldt, n_bound, block_start(phase, 2),
            subtree_best if ldt.is_root else None,
        )
        if chosen is None:
            # No outgoing edge: the fragment spans the whole component.
            break
        _, _, owner_id, owner_port, parent_frag = chosen
        i_am_owner = owner_id == my_id

        # Block 3: the owner notifies the other endpoint; everyone learns
        # which incident edges were chosen *into* its fragment.
        sends = []
        if i_am_owner:
            sends.append((owner_port, ("chosen", ldt.ldt_id)))
        inbox = yield from transmit_adjacent(
            ldt.depth, n_bound, block_start(phase, 3), sends
        )
        in_chosen: Dict[int, int] = {}
        for port, payload in inbox:
            if isinstance(payload, tuple) and payload[0] == "chosen":
                in_chosen[port] = payload[1]
        reciprocal = i_am_owner and owner_port in in_chosen

        # Block 4 + 5: determine whether the fragment is one of the two
        # fragments joined by its component's minimum edge (the "root pair").
        pair_value = (0, parent_frag) if reciprocal else None
        pair_best = yield from upcast_min(
            ldt, n_bound, block_start(phase, 4), pair_value
        )
        pair_info = yield from fragment_broadcast(
            ldt, n_bound, block_start(phase, 5),
            pair_best if ldt.is_root else None,
        )
        is_pair = pair_info is not None
        pair_partner = pair_info[1] if is_pair else None
        is_tree_root = bool(is_pair and ldt.ldt_id < pair_partner)

        # ---------------- Stage 2a: Cole–Vishkin 6-colouring -------------- #
        color = ldt.ldt_id
        cv_base = BLOCKS_STAGE1
        for iteration in range(iterations):
            b0 = block_start(phase, cv_base + 3 * iteration)
            b1 = block_start(phase, cv_base + 3 * iteration + 1)
            b2 = block_start(phase, cv_base + 3 * iteration + 2)

            # Share the fragment colour with the fragments that chose an edge
            # into us (their owner reads it), and read our parent's colour.
            parent_color = None
            need_send = bool(in_chosen)
            need_listen = i_am_owner and not is_tree_root
            if need_send or need_listen:
                inbox = yield from transmit_adjacent(
                    ldt.depth, n_bound, b0,
                    [(port, ("col", color)) for port in in_chosen],
                )
                if need_listen:
                    for port, payload in inbox:
                        if (port == owner_port and isinstance(payload, tuple)
                                and payload[0] == "col"):
                            parent_color = payload[1]

            up_value = (parent_color,) if parent_color is not None else None
            up_best = yield from upcast_min(ldt, n_bound, b1, up_value)

            if ldt.is_root:
                if is_tree_root or up_best is None:
                    new_color = cv_root_step(color)
                else:
                    new_color = cv_step(color, up_best[0])
                color = yield from fragment_broadcast(ldt, n_bound, b2, new_color)
            else:
                color = yield from fragment_broadcast(ldt, n_bound, b2)
            if color is None:  # pragma: no cover - defensive
                color = ldt.ldt_id

        # ---------------- Stage 2b: maximal matching of fragments --------- #
        matching_base = cv_base + 3 * iterations
        matched = False
        partner_frag: Optional[int] = None
        match_endpoint_id: Optional[int] = None
        match_endpoint_port: Optional[int] = None
        #: Child fragments (by in-chosen port) known to be matched already.
        child_matched_ports: set = set()

        for sub_phase in range(MATCHING_COLORS):
            m = matching_base + BLOCKS_PER_MATCHING_SUBPHASE * sub_phase
            m0 = block_start(phase, m)
            m1 = block_start(phase, m + 1)
            m2 = block_start(phase, m + 2)
            m3 = block_start(phase, m + 3)
            m4 = block_start(phase, m + 4)
            m5 = block_start(phase, m + 5)

            # m0: owners report their fragment's matched status to their
            # parent fragment; nodes with in-chosen edges learn which child
            # fragments are still unmatched.
            child_unmatched: Dict[int, bool] = {}
            sends = []
            if i_am_owner:
                sends.append((owner_port, ("mst", matched)))
            if sends or in_chosen:
                inbox = yield from transmit_adjacent(ldt.depth, n_bound, m0, sends)
                for port, payload in inbox:
                    if port in in_chosen and isinstance(payload, tuple) \
                            and payload[0] == "mst":
                        child_unmatched[port] = not payload[1]
                        if payload[1]:
                            child_matched_ports.add(port)

            # m1 + m2: unmatched fragments of the current colour pick an
            # unmatched child fragment to match with.
            proposal = None
            if not matched and color == sub_phase:
                for port, available in sorted(child_unmatched.items()):
                    if available:
                        proposal = (my_id, port, in_chosen[port])
                        break
            proposal_best = yield from upcast_min(ldt, n_bound, m1, proposal)
            decision = yield from fragment_broadcast(
                ldt, n_bound, m2,
                proposal_best if ldt.is_root and not matched and color == sub_phase
                else None,
            )
            send_match_port = None
            if decision is not None:
                matched = True
                match_endpoint_id, match_endpoint_port = decision[0], decision[1]
                partner_frag = decision[2]
                if decision[0] == my_id:
                    send_match_port = decision[1]
                    child_matched_ports.add(decision[1])

            # m3: the selected edge's parent-side endpoint tells the child
            # fragment it has been matched.
            got_match_from: Optional[int] = None
            sends = []
            if send_match_port is not None:
                sends.append((send_match_port, ("match", ldt.ldt_id)))
            if sends or (i_am_owner and not matched):
                inbox = yield from transmit_adjacent(ldt.depth, n_bound, m3, sends)
                if i_am_owner and not matched:
                    for port, payload in inbox:
                        if (port == owner_port and isinstance(payload, tuple)
                                and payload[0] == "match"):
                            got_match_from = payload[1]

            # m4 + m5: propagate "our parent matched us" through the fragment.
            notify = (got_match_from, my_id, owner_port) \
                if got_match_from is not None else None
            notify_best = yield from upcast_min(ldt, n_bound, m4, notify)
            update = yield from fragment_broadcast(
                ldt, n_bound, m5,
                notify_best if ldt.is_root and not matched else None,
            )
            if update is not None and not matched:
                matched = True
                partner_frag = update[0]
                match_endpoint_id, match_endpoint_port = update[1], update[2]

        # ---------------- Stage 2c: attach unmatched fragments ------------ #
        attach_base = matching_base + MATCHING_COLORS * BLOCKS_PER_MATCHING_SUBPHASE
        a_refresh = block_start(phase, attach_base)
        a0 = block_start(phase, attach_base + 1)
        a1 = block_start(phase, attach_base + 2)
        a2 = block_start(phase, attach_base + 3)

        # Status refresh: owners report the final matched status of their
        # fragment, so an unmatched supergraph root can attach to a child
        # that is guaranteed to be matched (such a child always exists).
        sends = []
        if i_am_owner:
            sends.append((owner_port, ("mst", matched)))
        if sends or in_chosen:
            inbox = yield from transmit_adjacent(
                ldt.depth, n_bound, a_refresh, sends
            )
            for port, payload in inbox:
                if port in in_chosen and isinstance(payload, tuple) \
                        and payload[0] == "mst" and payload[1]:
                    child_matched_ports.add(port)

        attach_candidate = None
        if not matched and is_tree_root:
            matched_children = sorted(child_matched_ports)
            pool = matched_children if matched_children else sorted(in_chosen)
            if pool:
                attach_candidate = (my_id, pool[0])
        attach_best = yield from upcast_min(ldt, n_bound, a0, attach_candidate)
        attach_winner = yield from fragment_broadcast(
            ldt, n_bound, a1,
            attach_best if ldt.is_root and not matched and is_tree_root else None,
        )

        sends = []
        attach_endpoint_port: Optional[int] = None
        if not matched:
            if is_tree_root and attach_winner is not None \
                    and attach_winner[0] == my_id:
                sends.append((attach_winner[1], ("attach", ldt.ldt_id)))
            if not is_tree_root and i_am_owner:
                sends.append((owner_port, ("attach", ldt.ldt_id)))
        listen_for_attach = bool(in_chosen) or i_am_owner
        attach_children_ports: List[int] = []
        if sends or listen_for_attach:
            inbox = yield from transmit_adjacent(ldt.depth, n_bound, a2, sends)
            for port, payload in inbox:
                if isinstance(payload, tuple) and payload[0] == "attach":
                    attach_children_ports.append(port)
        if not matched:
            if is_tree_root and attach_winner is not None:
                attach_endpoint_port = attach_winner[1] \
                    if attach_winner[0] == my_id else None
            else:
                attach_endpoint_port = owner_port if i_am_owner else None

        # ---------------- Stage 3, wave 1: merge matched pairs ------------ #
        wave1_base = attach_base + BLOCKS_ATTACH
        w1_ta = block_start(phase, wave1_base)
        w1_reroot = block_start(phase, wave1_base + 1)
        core_id = min(ldt.ldt_id, partner_frag) if matched else ldt.ldt_id
        merge_info: Optional[Tuple[int, int, int]] = None

        if matched and match_endpoint_id == my_id:
            if ldt.ldt_id == core_id:
                # Core side: announce the core ID and our depth over the
                # matched edge, then adopt the partner's endpoint as a child.
                yield from transmit_adjacent(
                    ldt.depth, n_bound, w1_ta,
                    [(match_endpoint_port, ("mergeinfo", core_id, ldt.depth))],
                )
                if match_endpoint_port not in ldt.children_ports:
                    ldt.children_ports.append(match_endpoint_port)
            else:
                inbox = yield from transmit_adjacent(ldt.depth, n_bound, w1_ta, [])
                for port, payload in inbox:
                    if (port == match_endpoint_port and isinstance(payload, tuple)
                            and payload[0] == "mergeinfo"):
                        merge_info = (payload[1], payload[2] + 1, port)
        if matched and ldt.ldt_id != core_id:
            yield from reroot_fragment(ldt, n_bound, w1_reroot, merge_info)

        # ---------------- Stage 3, wave 2: merge attached fragments ------- #
        wave2_base = wave1_base + BLOCKS_PER_WAVE
        w2_ta = block_start(phase, wave2_base)
        w2_reroot = block_start(phase, wave2_base + 1)
        merge_info = None

        sends = []
        if matched and attach_children_ports:
            for port in attach_children_ports:
                sends.append((port, ("mergeinfo", ldt.ldt_id, ldt.depth)))
        expect_attach_info = (not matched) and attach_endpoint_port is not None
        if sends or expect_attach_info:
            inbox = yield from transmit_adjacent(ldt.depth, n_bound, w2_ta, sends)
            if expect_attach_info:
                for port, payload in inbox:
                    if (port == attach_endpoint_port and isinstance(payload, tuple)
                            and payload[0] == "mergeinfo"):
                        merge_info = (payload[1], payload[2] + 1, port)
        if matched and attach_children_ports:
            for port in attach_children_ports:
                if port not in ldt.children_ports:
                    ldt.children_ports.append(port)
        if not matched:
            yield from reroot_fragment(ldt, n_bound, w2_reroot, merge_info)

    return ConstructionResult(
        ldt=ldt,
        participant_ports=participant_ports,
        phases_used=phases_used,
    )
