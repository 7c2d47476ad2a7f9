"""Algorithms ``LDT-MIS`` and ``LDT-MIS-ROUND`` (paper Subsection 5.3).

``LDT-MIS`` computes, over each connected component of the participating
nodes, the lexicographically-first MIS with respect to a *uniformly random*
ordering (rather than the ID ordering), in awake complexity that depends on
the component size ``n'`` rather than on the (possibly enormous) ID space:

1.  build a labeled distance tree over the component
    (:func:`repro.ldt.construct.ldt_construct`);
2.  rank the nodes and count them (:func:`repro.ldt.procedures.ldt_ranking`);
3.  the root draws a uniformly random permutation of ``[1, n'']`` and ships
    it down the tree in CONGEST-sized chunks; every node takes the entry at
    its rank as its new ID;
4.  run ``VT-MIS`` with the new IDs (whose bound is ``n''``, not ``I``).

*Reproduction note* (see DESIGN.md §2.4): both variants use the fully
specified ``LDT-Construct-Round`` of Appendix A, so the awake complexity of
the construction step carries the extra ``log* I`` factor of Corollary 12;
the ``variant`` parameter is kept so the two names in the paper both resolve
to runnable code and the harness can report them separately.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.algorithms.common import IN_MIS, MISDecision
from repro.algorithms.vt_mis import vt_mis_core
from repro.graphs.properties import component_sizes
from repro.ldt.construct import construction_rounds, frag_message, ldt_construct
from repro.ldt.procedures import broadcast_chunks, ldt_ranking
from repro.ldt.schedule import block_length, schedule_for
from repro.rng import SeedLike, make_rng, random_unique_ids
from repro.sim.context import NodeContext
from repro.sim.runner import RunResult, run_protocol

#: Approximate number of payload bits a permutation chunk may use.  Kept well
#: below the harness's CONGEST budget of 64 * log2(N) bits.
PERMUTATION_CHUNK_BITS = 48


def permutation_entries_per_chunk(n_bound: int) -> int:
    """How many permutation entries fit in one CONGEST message."""
    bits_per_entry = max(1, math.ceil(math.log2(n_bound + 1))) + 2
    return max(1, PERMUTATION_CHUNK_BITS // bits_per_entry)


def permutation_chunk_count(n_bound: int) -> int:
    """Number of broadcast blocks needed to ship a permutation of [1, n_bound]."""
    return math.ceil(n_bound / permutation_entries_per_chunk(n_bound))


#: The variants :func:`ldt_mis_core` accepts.
LDT_MIS_VARIANTS = ("awake", "round")


def vt_mis_offset(n_bound: int, id_space: int) -> int:
    """Rounds from an ``LDT-MIS`` start round to VT-MIS's logical round 1.

    Construction, ranking (two blocks) and the permutation broadcast, all
    of fixed length.
    """
    return (construction_rounds(n_bound, id_space)
            + (2 + permutation_chunk_count(n_bound)) * block_length(n_bound))


def ldt_mis_round_budget(n_bound: int, id_space: int) -> int:
    """Total rounds one ``LDT-MIS`` execution may use (globally known).

    Used by ``Awake-MIS`` to size its phases: construction + ranking (two
    blocks) + permutation broadcast + ``VT-MIS`` over at most ``n_bound``
    logical rounds, plus slack.
    """
    return vt_mis_offset(n_bound, id_space) + n_bound + 4


def isolated_wake_offsets(n_bound: int, id_space: int) -> Tuple[int, int]:
    """The two rounds, after the start round, of an isolated participant.

    A participant none of whose neighbours takes part is a one-node
    component, and :func:`ldt_mis_core` reduces to a closed form for it:

    * it is awake in the side round of construction block 0, where it
      sends :func:`isolated_announcement` on every port and hears
      nothing, so its fragment has no outgoing edge and construction
      ends;
    * ranking and the permutation broadcast need no round for a root
      without children (shuffling the one-entry permutation draws
      nothing from its RNG), so its new ID is 1;
    * it is awake in VT-MIS's logical round 1, sends nothing (it has no
      participant ports) and decides ``IN_MIS``.

    Returns ``(side, vt)``; the rounds are ``start_round + side`` and
    ``start_round + vt``.  Pinned against the generator by
    ``tests/test_vectorized.py``.
    """
    side = schedule_for(0, n_bound, depth=0).side
    return side, vt_mis_offset(n_bound, id_space)


def isolated_announcement(my_id: int) -> Tuple[str, int, int]:
    """What an isolated participant sends in its side round: the
    construction's stage-1 announcement of its singleton fragment."""
    return frag_message(my_id, my_id)


def ldt_mis_core(
    my_id: int,
    id_space: int,
    ports: Sequence[int],
    n_bound: int,
    start_round: int,
    rng: random.Random,
    variant: str = "awake",
):
    """Run ``LDT-MIS`` as a composable sub-protocol.

    Returns the final state string (``inMIS`` / ``notinMIS``).  The execution
    occupies at most :func:`ldt_mis_round_budget` rounds starting at
    *start_round*; participants are discovered automatically (neighbours that
    are awake on the same schedule), so *ports* may simply be all ports.
    """
    if variant not in LDT_MIS_VARIANTS:
        raise ValueError(f"unknown LDT-MIS variant '{variant}'")
    blk = block_length(n_bound)

    # Step 1: construct the LDT over this component.
    construction = yield from ldt_construct(
        my_id=my_id,
        id_space=id_space,
        ports=list(ports),
        n_bound=n_bound,
        start_round=start_round,
    )
    ldt = construction.ldt
    participant_ports = construction.participant_ports

    # Step 2: ranking (two blocks).
    ranking_start = start_round + construction_rounds(n_bound, id_space)
    rank, total = yield from ldt_ranking(ldt, n_bound, ranking_start)

    # Step 3: the root ships a uniformly random permutation of [1, total].
    perm_start = ranking_start + 2 * blk
    entries_per_chunk = permutation_entries_per_chunk(n_bound)
    chunk_count = permutation_chunk_count(n_bound)
    chunks: Optional[List[Tuple[int, ...]]] = None
    if ldt.is_root:
        permutation = list(range(1, total + 1))
        rng.shuffle(permutation)
        chunks = [
            tuple(permutation[i:i + entries_per_chunk])
            for i in range(0, len(permutation), entries_per_chunk)
        ]
    received_chunks = yield from broadcast_chunks(
        ldt, n_bound, perm_start, chunk_count, chunks
    )
    new_id = _entry_for_rank(received_chunks, rank, entries_per_chunk)
    if new_id is None:
        # Defensive fallback (a lost chunk would mean the component exceeded
        # n_bound); keep the rank so the run still terminates.
        new_id = rank

    # Step 4: VT-MIS over the new IDs, whose bound is the component size.
    vt_start = start_round + vt_mis_offset(n_bound, id_space)
    state = yield from vt_mis_core(
        my_id=new_id,
        id_bound=max(1, total),
        ports=participant_ports,
        start_round=vt_start,
    )
    return state


def _entry_for_rank(chunks: List[Optional[Tuple[int, ...]]], rank: int,
                    entries_per_chunk: int) -> Optional[int]:
    """Pick the permutation entry for 1-based *rank* out of received chunks."""
    index = rank - 1
    chunk_index, offset = divmod(index, entries_per_chunk)
    if chunk_index >= len(chunks):
        return None
    chunk = chunks[chunk_index]
    if not isinstance(chunk, (tuple, list)) or offset >= len(chunk):
        return None
    return chunk[offset]


# --------------------------------------------------------------------------- #
# Standalone protocol + harness adapter
# --------------------------------------------------------------------------- #
def ldt_mis_harness_protocol(ctx: NodeContext):
    """Standalone LDT-MIS protocol (one execution over the whole graph).

    Global inputs: ``n_bound`` (upper bound on any component's size),
    ``id_space``; per-node ``local_inputs``: ``{"id": <unique int>}``.
    """
    n_bound = ctx.require_input("n_bound")
    id_space = ctx.require_input("id_space")
    variant = ctx.input("variant", "awake")
    if not isinstance(ctx.local_input, dict) or "id" not in ctx.local_input:
        raise ValueError(
            "ldt_mis_harness_protocol requires local_inputs {node: {'id': int}}"
        )
    my_id = ctx.local_input["id"]
    state = yield from ldt_mis_core(
        my_id=my_id,
        id_space=id_space,
        ports=ctx.ports,
        n_bound=n_bound,
        start_round=0,
        rng=ctx.rng,
        variant=variant,
    )
    return MISDecision(in_mis=(state == IN_MIS), detail={"id": my_id})


def run_ldt_mis(graph: nx.Graph, seed: SeedLike = None,
                message_bit_limit: Optional[int] = None,
                trace: bool = False,
                n_bound: Optional[int] = None,
                id_space: Optional[int] = None,
                variant: str = "awake",
                max_active_rounds: int = 10_000_000) -> RunResult:
    """Run standalone LDT-MIS on *graph* (used by the harness and tests)."""
    n = graph.number_of_nodes()
    if n_bound is None:
        n_bound = max(component_sizes(graph), default=1)
    if id_space is None:
        id_space = max(16, (n + 2) ** 3)
    rng = make_rng(seed)
    ids = random_unique_ids(n, id_space, rng)
    local_inputs: Dict = {
        label: {"id": ids[index]} for index, label in enumerate(graph.nodes)
    }
    return run_protocol(
        graph,
        ldt_mis_harness_protocol,
        inputs={"n_bound": n_bound, "id_space": id_space, "variant": variant},
        local_inputs=local_inputs,
        seed=seed,
        message_bit_limit=message_bit_limit,
        trace=trace,
        max_active_rounds=max_active_rounds,
    )
