"""Execution backends: one scheduler driving one transport.

The execution layer is split into two orthogonal pieces —

* :mod:`repro.experiments.schedulers` owns *what runs when* (task
  ordering, retry/requeue, crash-loop accounting), and
* :mod:`repro.experiments.transports` owns *how bytes move* (in-process,
  a process pool, socket workers over TCP) —

and a backend is a :class:`ComposedBackend` pairing one of each.  Three
backend names select a transport (the scheduler defaults to ``fifo``)::

    serial  -> inline    in-process, task order, zero pickling
    process -> process   ProcessPoolExecutor fan-out
    socket  -> socket    TCP workers via --workers / REPRO_WORKERS

A backend implements two methods::

    submit_tasks(tasks) -> generator of (index, MISRunResult)
    telemetry() -> dict of pipeline counters

yielding ``(position-in-tasks, compact result)`` pairs as executions
finish.  Because all seeds are fixed before submission
(:func:`~repro.experiments.executor.plan_sweep_tasks`), the pairs carry
byte-identical results for every scheduler × transport × jobs
combination; only arrival order and the failure model differ.  Closing
the returned generator early cancels queued work and shuts workers down.

A backend object is the one way to say where a sweep runs, and it carries
the worker count: build it directly (``ComposedBackend(jobs=4)``) or with
:func:`make_backend`, the one place that turns names — the CLI's
``--backend``/``--scheduler``/``--workers``/``--window``/``--max-batch``/
``--jobs`` selectors — into a backend.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Protocol, Sequence, Tuple, Union)

from repro.errors import ConfigurationError
from repro.experiments.executor import (SweepTask, graph_cache_stats,
                                        resolve_jobs)
from repro.experiments.harness import MISRunResult
from repro.experiments.schedulers import (Scheduler, available_schedulers,
                                          resolve_scheduler)
from repro.experiments.transports import (SOCKET_WORKERS_ENV,
                                          WORKER_FAULT_DIR_ENV,
                                          InlineTransport, ProcessTransport,
                                          SocketTransport, Transport,
                                          resolve_max_batch, resolve_window)


class Backend(Protocol):
    """Protocol every execution backend implements."""

    #: Label naming the composition (``"fifo+inline"``, ...).
    name: str

    def submit_tasks(
        self, tasks: Sequence[SweepTask],
    ) -> Generator[Tuple[int, MISRunResult], None, None]:
        """Yield ``(index, result)`` pairs as executions finish."""
        ...

    def telemetry(self) -> Dict[str, Any]:
        """Pipeline counters of the last sweep (observational only)."""
        ...


class ComposedBackend:
    """One scheduler driving one transport.

    The scheduler dispatches tasks (in policy order, with retry/requeue
    and crash-loop accounting) into the transport's slots; the transport
    moves the frames and reports completions and slot deaths.  Opening
    and closing the transport session brackets the result stream, so an
    abandoned generator still tears every worker down deterministically.
    A ``None`` transport is the ``jobs``-driven default: inline for one
    worker (the default, as in :func:`make_backend`), the process pool
    otherwise; ``jobs=None`` (or ``0``) means one worker per CPU.
    """

    def __init__(self, scheduler: Union[None, str, Scheduler] = None,
                 transport: Optional[Transport] = None,
                 jobs: Optional[int] = 1, max_attempts: int = 3) -> None:
        self.jobs = resolve_jobs(jobs)
        self.scheduler = resolve_scheduler(scheduler,
                                           max_attempts=max_attempts)
        if transport is None:
            transport = (InlineTransport() if self.jobs == 1
                         else ProcessTransport())
        self.transport = transport
        self._graph_cache: Optional[Dict] = None

    @property
    def name(self) -> str:
        return f"{self.scheduler.name}+{self.transport.name}"

    @property
    def worker_restarts(self) -> int:
        """Cumulative worker replacements (crash-recovery accounting)."""
        return self.transport.restarts

    def telemetry(self) -> Dict[str, Any]:
        """Machine-readable pipeline telemetry for this backend.

        The transport's per-connection/per-worker counter snapshot (RTT
        estimates, frames, acks, batches, reconnects, bytes, windows —
        see :mod:`repro.experiments.telemetry`) plus the scheduler's
        retry accounting and — once a sweep has run — the coordinator's
        graph-cache counters (hits/misses/evictions, captured just
        before session teardown clears the cache).  Purely
        observational: reading it never touches a result byte.
        """
        data = self.transport.telemetry()
        data["scheduler"] = {"name": self.scheduler.name,
                             "requeues": self.scheduler.requeues}
        if self._graph_cache is not None:
            data["graph_cache"] = dict(self._graph_cache)
        return data

    def submit_tasks(
        self, tasks: Sequence[SweepTask],
    ) -> Generator[Tuple[int, MISRunResult], None, None]:
        task_list = list(tasks)
        if not task_list:
            return
        slots = max(1, min(self.jobs, len(task_list)))
        session = self.transport.open(slots)
        try:
            yield from self.scheduler.run(task_list, session)
        finally:
            # Capture the coordinator-side graph-cache counters before the
            # session teardown clears them (close() calls cache_clear so
            # sweeps never pin graphs beyond their lifetime).
            self._graph_cache = graph_cache_stats()
            # Deterministic teardown on completion, error and abandonment
            # alike: cancel queued work, shut every slot down.
            session.close()


#: Selectable backend names (the CLI's ``--backend`` choices) and the
#: transport each one names.
BACKENDS: Dict[str, Callable[..., Transport]] = {
    "serial": InlineTransport,
    "process": ProcessTransport,
    "socket": SocketTransport,
}


def available_backends() -> List[str]:
    """Backend names accepted by ``--backend`` / :func:`make_backend`."""
    return sorted(BACKENDS)


def make_backend(backend: Optional[str] = None,
                 scheduler: Optional[str] = None,
                 workers: Union[None, str, Sequence[str]] = None,
                 jobs: Optional[int] = 1,
                 max_attempts: int = 3,
                 window: Union[None, int, str] = None,
                 max_batch: Union[None, int, str] = None,
                 ) -> ComposedBackend:
    """Compose a backend from CLI-style selectors.

    ``--backend`` names the transport (``None`` is the ``jobs``-driven
    default of :class:`ComposedBackend`); ``--scheduler`` picks the
    dispatch order; ``--workers`` implies the socket backend.
    ``--window`` / ``--max-batch`` tune the socket transport's
    pipelining (see :mod:`repro.experiments.transports`); ``None`` keeps
    its defaults.

    Socket misconfiguration fails *here*, not at session-open time: a
    sweep that cannot possibly run (no ``--workers``, no
    :data:`SOCKET_WORKERS_ENV`, or an unparseable worker list) must be
    refused before the caller touches anything stateful — in particular
    before the CLI stamps a results-store header for a sweep that never
    starts.
    """
    if backend is not None and backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend '{backend}'; known: {available_backends()}")
    if workers is not None:
        if backend is None:
            backend = "socket"  # --workers alone implies socket
        elif backend != "socket":
            raise ConfigurationError(
                "--workers only applies to the socket backend "
                "(--backend socket)")
    pipeline_options: Dict[str, int] = {}
    if window is not None:
        pipeline_options["window"] = resolve_window(window)
    if max_batch is not None:
        pipeline_options["max_batch"] = resolve_max_batch(max_batch)
    if pipeline_options and backend != "socket":
        raise ConfigurationError(
            "--window/--max-batch only apply to the socket backend: "
            "combine them with --workers or --backend socket")
    transport: Optional[Transport] = None
    if backend == "socket":
        transport = SocketTransport(workers, **pipeline_options)
        # Validate the addresses that will actually be dialled — the
        # explicit flag, or the env-var fallback — so a typo'd or empty
        # list fails here, not mid-way through setup.
        transport.addresses()
    elif backend is not None:
        transport = BACKENDS[backend]()
    return ComposedBackend(scheduler=scheduler, transport=transport,
                           jobs=jobs, max_attempts=max_attempts)


__all__ = [
    "Backend", "ComposedBackend", "BACKENDS", "available_backends",
    "make_backend", "available_schedulers",
    "SocketTransport", "SOCKET_WORKERS_ENV", "WORKER_FAULT_DIR_ENV",
]
