"""Scheduling policies for the sweep execution layer.

The execution layer is split along two orthogonal axes:

* a **scheduler** (this module) owns *what runs when*: task ordering,
  retry/requeue of tasks whose execution slot died, crash-loop
  accounting, and surfacing worker errors; while
* a **transport** (:mod:`repro.experiments.transports`) owns *how bytes
  move*: carrying :class:`~repro.experiments.executor.SweepTask` frames
  to execution slots (in-process, a process pool, or TCP workers on
  any host) and reporting completions and slot deaths.

A scheduler drives a :class:`~repro.experiments.transports
.TransportSession` through a small event loop: keep every available slot
fed in policy order, collect ``result``/``error``/``lost`` events, requeue
the in-flight task of a lost slot (at the back, so a healthy slot may pick
it up first), and give up with :class:`~repro.errors.WorkerCrashError`
once a task has crashed its slot :attr:`max_attempts` times or no live
slot remains.  Because every task's seeds were fixed up front by
:func:`~repro.experiments.executor.plan_sweep_tasks`, *no* scheduling
policy can affect a single result byte — policies only move wall-clock
time around.

The loop re-reads ``session.slots`` every iteration, and ``slots`` is a
*capacity*, not a worker count: the windowed socket transport reports
the sum of its per-connection congestion windows, so as windows grow
(one increment per acked result — see :mod:`repro.experiments
.transports`) the same loop pipelines more frames into the same
connections with no scheduler-side changes.  A ``lost`` event may arrive
once per in-flight frame of a dead connection — the requeue path is the
same whether a loss costs one task or a whole window.

Policies
--------

``fifo`` (:class:`FifoScheduler`)
    Dispatch in planned-grid order.  The historical behaviour of every
    backend, and the reference the equivalence matrix pins.
``large-first`` (:class:`LargeFirstScheduler`)
    Dispatch in descending graph size ``n`` (ties in planned order).
    Sweep grids are emitted in ascending-n order, so under fifo the
    expensive large-n tail lands last and the sweep ends waiting on a
    single straggler slot; dispatching the large tasks first lets the
    small ones fill the tail — the classic LPT straggler cut on skewed
    grids.
``cost-model`` (:class:`CostModelScheduler`)
    LPT dispatch over a per-task cost *estimate* instead of raw ``n``.
    ``n`` alone misranks mixed grids: per-round simulation cost tracks
    the edge count, so a dense ``gnp_dense`` graph at n=64 costs more
    than a tree at n=256, and awake-MIS vs Luby cost diverges with
    family and degree rather than size (the node-averaged-awake
    comparisons run exactly such mixed grids).  Costs come from a small
    calibrated table — edges-proportional families carry their expected
    degree, n-proportional families (trees, paths) a constant — times a
    per-algorithm round factor.  When a family is missing from the
    table the policy degrades to ``large-first`` rather than guessing a
    scale.  Like every policy, it moves wall-clock only: results are
    byte-identical to fifo.
"""

from __future__ import annotations

import collections
import math
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Type)

from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.harness import MISRunResult


class Scheduler:
    """Base scheduler: the slot-feeding event loop minus the policy.

    Subclasses override :meth:`order` to pick the dispatch order.  The
    loop guarantees every task is executed to completion exactly once (a
    requeued task re-executes, but only after its previous execution was
    lost with its slot), or raises.

    *max_attempts* bounds how many times one task may take a slot down
    with it before the run is abandoned with
    :class:`~repro.errors.WorkerCrashError` — without it a task that
    reliably crashes its worker (a genuine bug, an OOM) would burn
    through replacement slots forever.
    """

    #: Registry name ("fifo", "large-first"), set by subclasses.
    name = "fifo"

    def __init__(self, max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"invalid max_attempts {max_attempts!r}: need a positive int"
            )
        self.max_attempts = max_attempts
        #: Cumulative tasks re-dispatched after their slot died (one per
        #: ``lost`` event requeued) — the scheduler half of the transport
        #: telemetry, read by ``ComposedBackend.telemetry()``.
        self.requeues = 0

    # ------------------------------------------------------------------ #
    # Policy hook
    # ------------------------------------------------------------------ #
    def order(self, tasks: Sequence) -> List[int]:
        """Return task indices in dispatch order (fifo: planned order)."""
        return list(range(len(tasks)))

    # ------------------------------------------------------------------ #
    # Driver loop
    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence, session) -> Iterator[Tuple[int, MISRunResult]]:
        """Drive *session* over *tasks*, yielding ``(index, result)`` pairs.

        The generator owns dispatch only — opening and closing the session
        is the caller's job (see :class:`~repro.experiments.backends
        .ComposedBackend`), so an abandoned stream still tears the
        transport down deterministically.
        """
        pending = collections.deque(self.order(tasks))
        attempts = [0] * len(tasks)
        in_flight = 0
        while pending or in_flight:
            slots = session.slots
            if slots <= 0 and in_flight == 0:
                raise WorkerCrashError(
                    f"every execution slot was lost with {len(pending)} "
                    "task(s) still pending; nothing left to run them on"
                )
            while pending and in_flight < slots:
                index = pending.popleft()
                attempts[index] += 1
                session.submit(index, tasks[index])
                in_flight += 1
            if in_flight == 0:
                # Slots exist but nothing could be dispatched — impossible
                # unless the session lies about its slot count.
                raise WorkerCrashError(
                    "scheduler stalled: live slots reported but no task "
                    "could be dispatched (transport bug)"
                )
            event = session.next_event()
            kind, index = event[0], event[1]
            in_flight -= 1
            if kind == "result":
                yield index, event[2]
            elif kind == "error":
                raise event[2]
            elif kind == "lost":
                task = tasks[index]
                if attempts[index] >= self.max_attempts:
                    raise WorkerCrashError(
                        f"task {index} ({task.algorithm} on {task.family} "
                        f"n={task.n}) crashed its worker {attempts[index]} "
                        "times; giving up"
                    )
                # Requeue at the back: a healthy sibling slot may pick the
                # task up before the lost slot finishes being replaced.
                self.requeues += 1
                pending.append(index)
            else:  # pragma: no cover - defensive
                raise WorkerCrashError(f"unknown transport event {kind!r}")


class FifoScheduler(Scheduler):
    """Dispatch in planned-grid order (the historical behaviour)."""

    name = "fifo"


class LargeFirstScheduler(Scheduler):
    """Dispatch descending-n to cut the straggler tail on skewed grids.

    Sweep cost grows super-linearly in ``n`` while grids are emitted in
    ascending-n order, so fifo parks the most expensive tasks at the end
    — the final stretch of a parallel sweep is one slot grinding the
    largest graph while the others idle.  Longest-processing-time-first
    dispatch starts those tasks immediately and backfills slots with
    cheap small-n tasks, which is where the wall-clock win on the E1–E9
    grids comes from.  The sort is stable on the planned index, so the
    dispatch order is deterministic (results never depend on it anyway).
    """

    name = "large-first"

    def order(self, tasks: Sequence) -> List[int]:
        return sorted(range(len(tasks)), key=lambda i: (-tasks[i].n, i))


def _log_n(n: int) -> float:
    """``log2(n)`` clamped away from the degenerate tiny-n cases."""
    return math.log2(max(2, n))


#: Expected average degree per graph family, the calibrated half of the
#: cost model.  Per-round simulation cost is edge-driven, so an
#: edges-proportional family (gnp, regular, powerlaw, ...) carries its
#: generator's expected degree while the n-proportional families (trees,
#: paths — one edge per node) carry the constant 2.  The clique's degree
#: grows with n, hence the callables.  Values mirror the defaults baked
#: into :data:`repro.graphs.generators.FAMILIES`; precision is not the
#: point — only the *ranking* of estimated costs affects anything, and
#: no ranking can affect a result byte.
#:
#: Each model takes ``(n, params)``, where *params* is the task's
#: parameter mapping: a task that overrides the generator's density
#: (``p``/``expected_degree``/``degree``/``attachments``/``clique_size``)
#: must be ranked at the density it will actually run at, not at the
#: family default — ignoring params misorders exactly the dense grids
#: the cost model exists for.


def _param_degree(params: Dict[str, Any], n: int, default: float) -> float:
    """Expected degree honouring a task's density overrides, if any."""
    p = params.get("p")
    if p is not None:
        return max(1.0, float(p) * max(1, n - 1))
    expected = params.get("expected_degree")
    if expected is not None:
        return max(1.0, float(expected))
    return default


FAMILY_DEGREE_MODELS: Dict[str, Callable[[int, Dict[str, Any]], float]] = {
    "gnp": lambda n, params: _param_degree(params, n, 8.0),
    "gnp_dense": lambda n, params: _param_degree(params, n, 32.0),
    "rgg": lambda n, params: _param_degree(params, n, 8.0),
    "regular": lambda n, params: float(params.get("degree", 6.0)),
    # BA attachments=k -> average degree ~2k
    "powerlaw": lambda n, params: 2.0 * float(params.get("attachments", 3)),
    # k-cliques -> in-clique degree k - 1
    "caveman": lambda n, params: float(params.get("clique_size", 8)) - 1.0,
    "clique": lambda n, params: float(max(1, n - 1)),
    "tree": lambda n, params: 2.0,
    "path": lambda n, params: 2.0,
    "cycle": lambda n, params: 2.0,
    "star": lambda n, params: 2.0,
}

#: Round-count factor per algorithm: how many simulated rounds a run
#: takes as a function of n.  Luby-style algorithms terminate in
#: O(log n) rounds; the virtual-tree / LDT / awake-MIS constructions pay
#: an extra log factor of machinery (their *awake* complexity is what is
#: low, not their simulated round count); the naive greedy processes one
#: node per round.  Unlisted algorithms fall back to the log-n default.
ALGORITHM_ROUND_MODELS: Dict[str, Callable[[int], float]] = {
    "luby": _log_n,
    "rank_greedy": _log_n,
    "naive_greedy": lambda n: float(max(1, n)),
    "vt_mis": lambda n: _log_n(n) ** 2,
    "ldt_mis": lambda n: _log_n(n) ** 2,
    "awake_mis": lambda n: _log_n(n) ** 2,
}


def estimate_task_cost(task) -> Optional[float]:
    """Estimated execution cost of one task, or ``None`` if unknown.

    ``cost = n x expected_degree(family, n, params) x rounds(algorithm,
    n)`` — i.e. edges processed per round times rounds.  The task's
    ``params`` are threaded into the degree model so density overrides
    (``p=0.5`` on a ``gnp`` grid, say) rank at their real cost instead
    of the family default.  An unknown *family* returns ``None`` (the
    scheduler then falls back to ``large-first`` for the whole grid); an
    unknown *algorithm* just uses the log-n round default, because the
    family/degree term dominates the skew the model exists to capture.
    """
    degree_model = FAMILY_DEGREE_MODELS.get(task.family)
    if degree_model is None:
        return None
    params = dict(getattr(task, "params", ()) or ())
    rounds_model = ALGORITHM_ROUND_MODELS.get(task.algorithm, _log_n)
    try:
        degree = degree_model(task.n, params)
    except (TypeError, ValueError):
        return None
    return task.n * degree * rounds_model(task.n)


class CostModelScheduler(Scheduler):
    """LPT dispatch over estimated cost: family × algorithm × n, not n alone.

    ``large-first`` assumes cost is monotone in ``n``, which mixed-family
    grids break: per-round cost tracks the *edge* count, so
    ``gnp_dense`` at n=64 (~1024 edges, log² rounds for awake-MIS)
    outweighs a tree at n=256 (255 edges) — under large-first the dense
    graph would be parked near the tail and become the straggler.  This
    policy sorts by :func:`estimate_task_cost` descending (ties in
    planned order, so dispatch is deterministic); if any task's family
    is missing from the calibration table the whole ordering degrades to
    ``large-first`` rather than interleaving guessed and calibrated
    scales.  Results can never depend on the estimate — seeds are fixed
    at planning time — so a miscalibrated entry costs wall-clock only.
    """

    name = "cost-model"

    def order(self, tasks: Sequence) -> List[int]:
        costs = [estimate_task_cost(task) for task in tasks]
        if any(cost is None for cost in costs):
            return LargeFirstScheduler.order(self, tasks)
        return sorted(range(len(tasks)), key=lambda i: (-costs[i], i))


#: Registry of selectable scheduling policies (the CLI's ``--scheduler``).
SCHEDULERS: Dict[str, Type[Scheduler]] = {
    "fifo": FifoScheduler,
    "large-first": LargeFirstScheduler,
    "cost-model": CostModelScheduler,
}


def available_schedulers() -> List[str]:
    """Scheduler names accepted by ``--scheduler`` / :func:`resolve_scheduler`."""
    return sorted(SCHEDULERS)


def resolve_scheduler(scheduler, max_attempts: int = 3) -> Scheduler:
    """Turn a scheduler selector into a scheduler object.

    ``None`` means fifo (the historical order); a string is looked up in
    :data:`SCHEDULERS`; anything else is assumed to already be a scheduler
    object and returned as-is.
    """
    if scheduler is None:
        return FifoScheduler(max_attempts=max_attempts)
    if isinstance(scheduler, str):
        if scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler '{scheduler}'; known: "
                f"{available_schedulers()}"
            )
        return SCHEDULERS[scheduler](max_attempts=max_attempts)
    return scheduler
