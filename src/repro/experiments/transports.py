"""Transports: how task frames reach execution slots.

The execution layer is split into a **scheduler** (:mod:`repro.experiments
.schedulers` — task ordering, retry/requeue, crash-loop accounting) and a
**transport** (this module — moving :class:`~repro.experiments.executor
.SweepTask` frames to wherever execution happens and moving compact
results back).  A transport knows nothing about ordering or retry policy;
it reports what happened to each submitted task and lets the scheduler
decide what to do about it.

A transport is opened into a :class:`TransportSession` exposing:

``slots``
    How many executions may be in flight at once (may *shrink* when a
    remote worker is permanently lost).
``submit(index, task)``
    Dispatch one task into a free slot.  The scheduler guarantees it
    never has more than ``slots`` tasks in flight.
``next_event()``
    Block until something happens and return one of::

        ("result", index, MISRunResult)   # task finished
        ("error",  index, exception)      # task raised / setup failed
        ("lost",   index)                 # slot died mid-task; requeue it
``close()``
    Cancel queued work and shut every slot down.  Idempotent, safe to
    call with executions in flight.

Transports
----------

``inline`` (:class:`InlineTransport`)
    Execute in the coordinator process, synchronously.  Zero pickling;
    an unpicklable monkeypatched algorithm adapter still works, which is
    load-bearing for several tests.
``process`` (:class:`ProcessTransport`)
    A ``ProcessPoolExecutor`` fan-out, including the worker initializer
    that clears fork-inherited graph-cache entries.
``socket`` (:class:`SocketTransport`)
    The framed-JSON worker protocol over TCP: workers run ``repro-mis
    worker serve --listen HOST:PORT [--slots N]`` (any host, localhost
    included), the coordinator dials each address and gets one slot per
    connection.  A ``host:port*K`` entry in the worker list dials K
    independent connections to the same worker — the way to use a
    worker serving ``--slots K``, whose slot subprocesses share one
    graph cache.  The handshake carries :data:`~repro.experiments.store
    .CODE_SCHEMA_VERSION`, so a coordinator refuses workers running
    incompatible code; a dropped connection is requeued (with one
    reconnect attempt in case only the connection — not the worker —
    died), and a worker that is gone for good retires its slot.

Every coordinator↔worker conversation starts with the worker's hello
frame (``{"kind": "hello", "schema": CODE_SCHEMA_VERSION}``); frames are
4-byte big-endian length prefixes followed by UTF-8 JSON (see
:mod:`repro.experiments.worker`).

Windowed, self-clocking pipelining
----------------------------------

The socket transport keeps a **sliding window** of sequence-numbered
task frames in flight per connection instead of strictly alternating one
frame and one reply.  A worker serves each connection sequentially and
replies in send order, so the coordinator
tracks its in-flight frames in a deque and matches every reply against
the head — no reordering machinery, just TCP-Reno-style self-clocking:
each acked result frees window space, which the slot thread refills from
the shared inbox before blocking on the next reply.

The window is adaptive (AIMD): it starts at 1, grows by one frame per
acked result up to the configured cap (``window=N``, or
``window="adaptive"`` for a cap of :data:`ADAPTIVE_WINDOW_CAP`), and is
halved on a reconnect or a slow ack, so it self-tunes to worker
capacity.  ``max_batch=N`` additionally groups up to N tiny tasks into
one ``tasks`` frame to amortise framing and JSON overhead on small-task
grids.  The worker's hello advertises these capabilities in its
``features`` list; a peer that advertises neither is driven exactly like
before — window 1, single-task frames.

What counts as a "slow" ack is **self-calibrating**: every connection
carries a Jacobson/Karels RTT estimator (:mod:`repro.experiments
.telemetry`) fed one send→ack sample per frame, and by default an ack is
slow when the blocked read exceeded the estimator's ``srtt + 4·rttvar``
timeout analogue (only once the estimate is primed — before that nothing
is ever "slow").  Passing an explicit ``ack_timeout`` overrides the
calibration with the fixed legacy threshold — including ``0.0``, which
still pins the window at 1.  The same estimator paces the batch flush: a
partial batch held behind in-flight frames waits at most one
deviation-padded RTT for acks to free more window, then flushes.

Each connection also keeps a :class:`~repro.experiments.telemetry
.ConnectionStats` counter block (frames, acks, batches, requeues,
reconnects, bytes, window, srtt), surfaced per worker through
``Transport.telemetry()`` → the sweep result, ``--progress`` and the
benchmark matrix.

None of this can touch a result byte: seeds are fixed at planning time,
telemetry is observational, the RTT estimate only retunes *timing*, and
a connection lost mid-window requeues **every** in-flight frame on that
connection exactly like the historical single-frame loss.
"""

from __future__ import annotations

import collections
import contextlib
import os
import queue
import select
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.executor import (_build_graph,
                                        _reset_worker_graph_cache, SweepTask,
                                        run_task)
from repro.experiments.harness import MISRunResult
from repro.experiments.store import CODE_SCHEMA_VERSION
from repro.experiments.telemetry import ConnectionStats, aggregate_by_worker

#: Environment variable naming a directory of fault-injection markers for
#: socket workers (see :func:`repro.experiments.worker.maybe_crash`).
#: Test-only: lets the crash-recovery suites kill a worker (or one slot
#: subprocess of a multi-slot worker) mid-task deterministically.
WORKER_FAULT_DIR_ENV = "REPRO_WORKER_FAULT_DIR"

#: Environment variable holding default socket worker addresses
#: (``host:port,host:port``) for ``backend="socket"`` when no explicit
#: worker list was given (CLI ``--workers`` takes precedence).
SOCKET_WORKERS_ENV = "REPRO_WORKERS"

#: Sentinel telling a slot thread to exit.
_SHUTDOWN = object()

#: Window selector meaning "start at 1 and self-tune via AIMD".
ADAPTIVE_WINDOW = "adaptive"

#: Cap the adaptive window grows towards.  64 frames of compact JSON is
#: far beyond the bandwidth-delay product of any realistic link here;
#: the cap exists so a pathological worker can never make the
#: coordinator queue an entire grid behind one connection.
ADAPTIVE_WINDOW_CAP = 64


def resolve_window(window) -> int:
    """Normalise a window selector into the integer cap it means.

    Accepts a positive integer (possibly as a CLI string) or
    :data:`ADAPTIVE_WINDOW`; the adaptive selector resolves to
    :data:`ADAPTIVE_WINDOW_CAP`.  The cap only bounds *pipelining depth*
    — the window always starts at 1 and grows per acked result, so any
    cap ≥ 1 yields byte-identical sweep results.
    """
    if window == ADAPTIVE_WINDOW:
        return ADAPTIVE_WINDOW_CAP
    if isinstance(window, str) and window.isdigit():
        window = int(window)
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ConfigurationError(
            f"invalid window {window!r}: need a positive integer (the "
            "maximum task frames kept in flight per worker connection) or "
            f"'{ADAPTIVE_WINDOW}' (start at 1, grow to "
            f"{ADAPTIVE_WINDOW_CAP} as results are acked)"
        )
    return window


def resolve_max_batch(max_batch) -> int:
    """Normalise a max-batch selector (int or CLI string) to a positive int."""
    if isinstance(max_batch, str) and max_batch.isdigit():
        max_batch = int(max_batch)
    if isinstance(max_batch, bool) or not isinstance(max_batch, int) \
            or max_batch < 1:
        raise ConfigurationError(
            f"invalid max_batch {max_batch!r}: need a positive integer "
            "(tasks grouped into one 'tasks' frame; 1 disables batching)"
        )
    return max_batch


def split_host_port(text: str, allow_ephemeral: bool = False) -> Tuple[str, int]:
    """Parse ``host:port`` or bracketed ``[ipv6]:port`` into ``(host, port)``.

    The bracketed form is how every other network tool spells an IPv6
    endpoint (``[::1]:8750``); the brackets are stripped so the host can
    go straight into :func:`socket.create_connection` /
    :func:`socket.create_server`.  The port must be in 1–65535 —
    out-of-range values used to parse here and fail much later with
    confusing OS errors; *allow_ephemeral* additionally admits port 0,
    which only makes sense for a listener asking the OS to pick a port.
    Raises :class:`ValueError` on anything malformed — callers wrap it in
    their own :class:`~repro.errors.ConfigurationError` with
    flag-specific advice.
    """
    if text.startswith("["):
        host, bracket, port_text = text.partition("]:")
        host = host[1:]
        if not bracket or not host or not port_text.isdigit():
            raise ValueError(
                "expected [IPV6]:PORT with a numeric port (e.g. [::1]:8750)")
    else:
        host, separator, port_text = text.rpartition(":")
        if not separator or not host or not port_text.isdigit():
            raise ValueError("expected HOST:PORT with a numeric port")
    port = int(port_text)
    minimum = 0 if allow_ephemeral else 1
    if not minimum <= port <= 65535:
        raise ValueError(
            f"port {port} is out of range (1-65535"
            + (", or 0 for an OS-assigned ephemeral port)"
               if allow_ephemeral else ")"))
    return host, port


def format_address(host: str, port: int) -> str:
    """Render ``(host, port)`` the way the parsers accept it back.

    IPv6 hosts get the ``[host]:port`` brackets so log lines can be
    copy-pasted straight into ``--workers``/``--listen``.
    """
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def parse_worker_addresses(
    workers: Union[None, str, Sequence[str]],
) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a sequence) into address pairs.

    Each entry may carry a ``*K`` slot multiplier — ``host:port*4`` dials
    four independent connections to the same worker, which is how a
    multi-slot worker (``repro-mis worker serve --slots 4``) donates all
    of its slots.  IPv6 hosts use the bracketed form: ``[::1]:8750*2``.
    The returned list has one ``(host, port)`` pair per *connection*, so
    downstream code (one transport slot per pair) needs no multiplier
    awareness.
    """
    if workers is None:
        return []
    if isinstance(workers, str):
        parts = [part.strip() for part in workers.split(",") if part.strip()]
    else:
        parts = [str(part).strip() for part in workers if str(part).strip()]
    addresses: List[Tuple[str, int]] = []
    for part in parts:
        address_text, star, slots_text = part.partition("*")
        if star and not (slots_text.isdigit() and int(slots_text) >= 1):
            raise ConfigurationError(
                f"invalid worker address '{part}': the slot multiplier "
                "after '*' must be a positive integer (e.g. host:8750*4 "
                "for four connections to one multi-slot worker)"
            )
        try:
            host, port = split_host_port(address_text)
        except ValueError as error:
            raise ConfigurationError(
                f"invalid worker address '{part}': {error} — --workers "
                "takes HOST:PORT or [IPV6]:PORT, optionally with a "
                "'*SLOTS' multiplier (e.g. 127.0.0.1:8750, [::1]:8750, "
                "hostA:8750*4)"
            ) from None
        addresses.extend([(host, port)] * (int(slots_text) if star else 1))
    return addresses


def _check_hello(frame: Optional[Dict], origin: str) -> None:
    """Validate a worker's hello frame (schema handshake).

    The schema version is the same one that keys the results store: a
    worker built from different code could return metrics that *parse*
    but mean something else, so a mismatch is refused outright rather
    than detected later as subtly wrong numbers.
    """
    if frame is None or frame.get("kind") != "hello":
        raise ConfigurationError(
            f"{origin}: peer did not send a hello frame — not a repro-mis "
            "worker (or one predating the handshake)"
        )
    if frame.get("schema") != CODE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{origin}: worker speaks code schema {frame.get('schema')!r} "
            f"but this coordinator speaks {CODE_SCHEMA_VERSION}; refusing "
            "the worker — mixed schemas would silently mix incomparable "
            "metrics"
        )


def _frame_error(frame: Dict, index: int) -> Exception:
    """Turn a worker's error frame into the exception the caller raises."""
    if frame.get("configuration"):
        # Re-raise configuration mistakes as themselves so they render
        # identically on every transport (the CLI turns ConfigurationError
        # into a clean `error: ...` line).
        return ConfigurationError(frame.get("message",
                                            "task failed in worker"))
    return WorkerCrashError(
        f"task {frame.get('index', index)} failed in "
        f"worker:\n{frame.get('error', '<no traceback>')}"
    )


def _reply_ready(peer) -> bool:
    """Whether another reply can start being read without blocking.

    Checks the kernel buffer under the peer's reader; bytes the buffered
    reader already consumed ahead of the last frame are invisible here,
    which only costs a drain opportunity (they are picked up by the next
    blocking read), never correctness or liveness.
    """
    try:
        return bool(select.select([peer.reader], [], [], 0)[0])
    except (OSError, ValueError):
        return False


def _reply_within(peer, timeout: float) -> bool:
    """Whether a reply starts arriving within *timeout* seconds.

    Same kernel-buffer caveat as :func:`_reply_ready`; a select error
    reports "ready" so the blocking read path observes (and classifies)
    the failure instead of this probe swallowing it.
    """
    try:
        return bool(select.select([peer.reader], [], [],
                                  max(0.0, timeout))[0])
    except (OSError, ValueError):
        return True


class Transport:
    """Base transport: configuration + cumulative session statistics."""

    #: Registry name ("inline", "process", "socket"), set by subclasses.
    name = "inline"

    def __init__(self) -> None:
        # Slot threads report restarts and window growth concurrently; a
        # bare `restarts += 1` is a read-modify-write that loses
        # increments under contention, so both counters live behind one
        # lock and are only written through the methods below.
        self._stats_lock = threading.Lock()
        # No slot thread exists yet, so these two pre-thread writes are the
        # one place the lock is provably unnecessary.
        self._restarts = 0  # repro-lint: disable=RPL004
        self._peak_window = 1  # repro-lint: disable=RPL004
        #: Per-connection counter blocks, registered by framed sessions.
        #: The list itself is guarded by the lock; each entry is written
        #: by exactly one slot thread (see ConnectionStats).
        self._connections: List[ConnectionStats] = []

    @property
    def restarts(self) -> int:
        """Cumulative count of slot peers replaced after dying mid-task
        (what the crash-recovery tests assert on)."""
        with self._stats_lock:
            return self._restarts

    def count_restart(self) -> None:
        with self._stats_lock:
            self._restarts += 1

    @property
    def peak_window(self) -> int:
        """Largest per-connection window any session of this transport
        reached — observability for the AIMD self-tuning."""
        with self._stats_lock:
            return self._peak_window

    def note_window(self, window: int) -> None:
        with self._stats_lock:
            if window > self._peak_window:
                self._peak_window = window

    def register_connection(self, stats: ConnectionStats) -> None:
        """Track one connection's counters for :meth:`telemetry`."""
        with self._stats_lock:
            self._connections.append(stats)

    def telemetry(self) -> Dict:
        """Machine-readable snapshot of everything this transport did.

        Cumulative across every session the transport opened (successive
        sweeps on one backend keep appending connections).  Per-frame
        counters and RTT estimates only exist for the socket transport;
        for the others this reports the transport-level basics with an
        empty connection list.
        """
        with self._stats_lock:
            tracked = list(self._connections)
        connections = [stats.snapshot() for stats in tracked]
        return {
            "transport": self.name,
            "restarts": self.restarts,
            "peak_window": self.peak_window,
            "connections": connections,
            "workers": aggregate_by_worker(connections),
        }

    def open(self, slots: int) -> "TransportSession":
        raise NotImplementedError


class TransportSession:
    """Protocol documented at module level; concrete sessions subclass."""

    slots: int = 0

    def submit(self, index: int, task: SweepTask) -> None:
        raise NotImplementedError

    def next_event(self) -> Tuple:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Inline
# --------------------------------------------------------------------------- #
class _InlineSession(TransportSession):
    """One synchronous in-process slot: submit stores, next_event runs."""

    slots = 1

    def __init__(self) -> None:
        self._queued: Optional[Tuple[int, SweepTask]] = None

    def submit(self, index: int, task: SweepTask) -> None:
        self._queued = (index, task)

    def next_event(self) -> Tuple:
        index, task = self._queued  # type: ignore[misc]
        self._queued = None
        try:
            return ("result", index, run_task(task))
        except Exception as error:
            # The exception object keeps its traceback; the scheduler
            # re-raises it with the original frames intact.
            return ("error", index, error)

    def close(self) -> None:
        # Don't pin graphs in the coordinator process beyond the sweep.
        _build_graph.cache_clear()


class InlineTransport(Transport):
    """In-process execution in submission order (no pool, no pickling)."""

    name = "inline"

    def open(self, slots: int) -> _InlineSession:
        del slots  # inline is always exactly one slot
        return _InlineSession()


# --------------------------------------------------------------------------- #
# Process pool
# --------------------------------------------------------------------------- #
class _PoolSession(TransportSession):
    """Process-pool session: futures feed a completion-event queue.

    The scheduler keeps at most ``slots`` tasks in flight, so the pool's
    internal queue never grows beyond one task per worker — which is
    exactly what gives the scheduler, not the pool, control of dispatch
    order.  The pool initializer clears fork-inherited graph-cache
    entries so workers never pin stale graphs left by a previous
    in-process sweep.
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self._pool = ProcessPoolExecutor(
            max_workers=slots, initializer=_reset_worker_graph_cache)
        self._events: "queue.Queue[Tuple]" = queue.Queue()
        self._futures: set = set()

    def submit(self, index: int, task: SweepTask) -> None:
        future = self._pool.submit(run_task, task)
        self._futures.add(future)
        future.add_done_callback(
            lambda done, bound_index=index: self._completed(bound_index, done))

    def _completed(self, index: int, future) -> None:
        self._futures.discard(future)
        if future.cancelled():
            return
        error = future.exception()
        if error is not None:
            self._events.put(("error", index, error))
        else:
            self._events.put(("result", index, future.result()))

    def next_event(self) -> Tuple:
        return self._events.get()

    def close(self) -> None:
        for future in list(self._futures):
            future.cancel()
        self._pool.shutdown(wait=True)
        _build_graph.cache_clear()


class ProcessTransport(Transport):
    """The ``ProcessPoolExecutor`` fan-out (the default for ``jobs > 1``)."""

    name = "process"

    def open(self, slots: int) -> _PoolSession:
        return _PoolSession(slots)


# --------------------------------------------------------------------------- #
# Framed-JSON socket workers
# --------------------------------------------------------------------------- #
class _SocketPeer:
    """One TCP connection to a ``repro-mis worker serve`` process."""

    def __init__(self, address: Tuple[str, int],
                 connect_timeout: float) -> None:
        self.address = address
        #: Capabilities from the worker's hello frame (set post-handshake).
        self.features: Tuple[str, ...] = ()
        #: Pid of the task-executing process, from the hello frame (set
        #: post-handshake; a slot subprocess for process-backed workers).
        self.pid: Optional[int] = None
        # The dial *and* the hello frame are bounded by connect_timeout (a
        # peer that accepts but never says hello must not hang the
        # coordinator); _dial_worker lifts the timeout once the handshake
        # passed, because result frames legitimately block for as long as
        # a task computes.
        self.sock = socket.create_connection(address, timeout=connect_timeout)
        # Frames are small writes fired back-to-back (a windowed burst,
        # batched replies): without TCP_NODELAY, Nagle holds the second
        # write until the peer's delayed ACK (~40ms) — which serialised
        # the pipelined protocol right back to stop-and-wait pacing.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")

    @property
    def origin(self) -> str:
        return f"worker {format_address(self.address[0], self.address[1])}"

    def interrupt(self) -> None:
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)

    def dispose(self) -> None:
        for closer in (self.reader, self.writer, self.sock):
            with contextlib.suppress(OSError, ValueError):
                closer.close()


class _FramedSession(TransportSession):
    """Thread-per-slot session speaking the framed worker protocol.

    Each slot is one coordinator-side thread driving one TCP connection
    to a worker (one per configured address; the connections are dialled
    by :meth:`SocketTransport.open`).  Threads pull from a shared inbox —
    so a requeued task is picked up by whichever slot frees first — and
    push completion events to a shared queue.  A peer that dies mid-task
    is replaced *before* the ``lost`` events are reported, so the slot's
    fate (alive with a fresh connection, or permanently retired) is
    settled by the time the scheduler decides whether to requeue.

    Each slot keeps a **sliding window** of sequence-numbered frames in
    flight (see the module docstring): ``slots`` reports the *sum of the
    live windows*, so the scheduler — which re-reads ``slots`` every
    iteration — feeds the session exactly as much work as the windows can
    absorb without any scheduler-side changes.  Workers reply in send
    order per connection, so each slot matches replies against the head
    of its in-flight deque; a peer that advertises no ``window``
    capability in its hello is pinned to window 1 (and no ``batch``
    capability means single-task frames), which is byte-for-byte the
    pre-windowing protocol.
    """

    def __init__(self, transport: "SocketTransport",
                 addresses: List[Tuple[str, int]],
                 peers: List["_SocketPeer"]) -> None:
        slots = len(addresses)
        self._transport = transport
        self._addresses = addresses
        self._window_cap = transport.window
        self._max_batch = transport.max_batch
        self._ack_timeout = transport.ack_timeout
        self._frame_latency = transport.frame_latency
        #: How long close() waits for a thread that cannot be interrupted:
        #: at worst it is one dial deep, so cover connect_timeout + slack.
        self._shutdown_grace = transport.connect_timeout + 1.0
        self._inbox: "queue.Queue" = queue.Queue()
        self._events: "queue.Queue[Tuple]" = queue.Queue()
        self._closing = threading.Event()
        self._closed = False
        self._lock = threading.Lock()
        self._live = slots
        self._retired = [False] * slots
        #: Per-slot congestion window / cap / batch capability (AIMD
        #: state, guarded by ``_lock``; the in-flight deque itself is
        #: private to each slot thread).
        self._cwnd = [1] * slots
        self._caps = [self._window_cap] * slots
        self._batch_ok = [False] * slots
        #: Per-slot telemetry: counters + the RTT estimator that
        #: self-calibrates the slow-ack threshold and batch-flush hold.
        #: Each block is written only by its own slot thread.  Labelled by
        #: worker address, so the per-worker aggregation groups a
        #: host:port*K multi-slot worker's K connections into one row.
        self._stats = [ConnectionStats(format_address(*address), slot)
                       for slot, address in enumerate(addresses)]
        for stats in self._stats:
            transport.register_connection(stats)
        self._peers: List[Optional[_SocketPeer]] = list(peers)
        for slot, peer in enumerate(peers):
            self._apply_peer_capabilities(slot, peer)
        self._threads = [
            threading.Thread(target=self._slot_main, args=(slot,),
                             name=f"repro-transport-slot-{slot}", daemon=True)
            for slot in range(slots)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # TransportSession surface
    # ------------------------------------------------------------------ #
    @property
    def slots(self) -> int:
        # Capacity is the sum of the live windows, not the connection
        # count: as windows grow the scheduler pipelines more frames into
        # the same connections.
        with self._lock:
            return sum(self._cwnd[slot] for slot in range(len(self._retired))
                       if not self._retired[slot])

    def submit(self, index: int, task: SweepTask) -> None:
        self._inbox.put((index, task))
        # A task submitted while (or just before) the last live slot
        # retired would sit in the inbox forever with the scheduler
        # blocked in next_event(); report it lost so the scheduler
        # requeues it, re-reads zero capacity and raises cleanly.
        self._drain_inbox_if_dead()

    def next_event(self) -> Tuple:
        return self._events.get()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        for _ in self._threads:
            self._inbox.put(_SHUTDOWN)
        # Graceful first: idle threads wake on their sentinel and close
        # their own connection (the worker then loops back to accept).
        for thread in self._threads:
            thread.join(timeout=5.0)
        stuck = [thread for thread in self._threads if thread.is_alive()]
        if stuck:
            # A thread is still blocked on an in-flight result frame:
            # interrupt its peer so the read fails, then the closing flag
            # makes the thread exit without requeueing.  A thread with no
            # peer to interrupt is mid-reconnect: _make_peer aborts on
            # the closing flag between attempts, so the only uninterruptible
            # wait left is a single in-progress dial — bound the join by
            # that instead of hanging forever (the threads are daemons).
            with self._lock:
                peers = [peer for peer in self._peers if peer is not None]
            for peer in peers:
                peer.interrupt()
            deadline = time.monotonic() + self._shutdown_grace
            for thread in stuck:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # Threads dispose their own peers on exit; sweep up any a retired
        # slot left registered.
        with self._lock:
            leftovers = [peer for peer in self._peers if peer is not None]
            self._peers = [None] * len(self._peers)
        for peer in leftovers:
            peer.dispose()

    def _make_peer(self, slot: int) -> "_SocketPeer":
        """Re-dial *slot*'s worker after its connection died.

        Initial connections are dialled eagerly by
        :meth:`SocketTransport.open`.  If merely the connection died the
        worker answers again; if the worker process died the dial fails
        and :class:`~repro.errors.WorkerCrashError` retires the slot — its
        tasks fail over to the other workers.  A schema mismatch or
        not-a-worker peer raises :class:`~repro.errors.ConfigurationError`.
        Every step aborts on the closing flag so close() never waits on a
        slot grinding through reconnect attempts.
        """
        address = format_address(*self._addresses[slot])
        last_error: Optional[Exception] = None
        for attempt in range(self._transport.reconnect_attempts):
            if attempt and self._closing.wait(self._transport.reconnect_delay):
                break
            if self._closing.is_set():
                break
            try:
                peer = _dial_worker(self._addresses[slot],
                                    self._transport.connect_timeout)
            except ConfigurationError:
                raise
            except OSError as error:
                last_error = error
                continue
            if self._closing.is_set():
                # close() already swept the peer table; a connection
                # registered now would leak.
                peer.dispose()
                break
            return peer
        if self._closing.is_set():
            raise WorkerCrashError(
                f"session closing; abandoning reconnect to worker {address}")
        raise WorkerCrashError(
            f"worker {address} is gone ({last_error}); retiring its slot")

    # ------------------------------------------------------------------ #
    # Slot thread
    # ------------------------------------------------------------------ #
    def _set_peer(self, slot: int, peer) -> None:
        with self._lock:
            self._peers[slot] = peer

    def _take_peer(self, slot: int):
        with self._lock:
            peer, self._peers[slot] = self._peers[slot], None
        return peer

    def _retire(self, slot: int) -> None:
        with self._lock:
            if not self._retired[slot]:
                self._retired[slot] = True
                self._live -= 1
        self._drain_inbox_if_dead()

    def _drain_inbox_if_dead(self) -> None:
        """Report queued-but-unpulled tasks lost once no thread can pull.

        Only fires when every slot has retired (never during shutdown —
        close() discards queued work by design).  Shutdown sentinels are
        put back for the threads they belong to.
        """
        with self._lock:
            dead = self._live == 0
        if not dead or self._closing.is_set():
            return
        while True:
            try:
                item = self._inbox.get(block=False)
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                self._inbox.put(item)
                return
            self._events.put(("lost", item[0]))

    def _drop_peer(self, slot: int) -> None:
        peer = self._take_peer(slot)
        if peer is not None:
            peer.dispose()

    def _apply_peer_capabilities(self, slot: int, peer) -> None:
        """Clamp the slot's AIMD state to what the peer's hello offered.

        A peer that never advertised ``window`` gets the historical
        strict request/reply alternation (cap 1); one that never
        advertised ``batch`` gets single-task frames only.
        """
        features = peer.features
        with self._lock:
            self._caps[slot] = (self._window_cap if "window" in features
                                else 1)
            self._cwnd[slot] = min(self._cwnd[slot], self._caps[slot])
            self._batch_ok[slot] = (self._max_batch > 1
                                    and "batch" in features)
            self._stats[slot].note_window(self._cwnd[slot])
            # The hello's pid is whatever process executes this slot's
            # tasks (a slot subprocess for process-backed workers), so
            # telemetry rows name the actual worker process.
            self._stats[slot].note_peer(peer.pid)

    def _slow_threshold(self, slot: int) -> Optional[float]:
        """The blocked-read duration that reads as congestion for *slot*.

        An explicit ``ack_timeout`` (including ``0.0``, the legacy pin
        to window 1) always wins; otherwise the slot's RTT estimator
        supplies a self-calibrated threshold once primed — and until
        then nothing is slow, so a connection's cold start can never
        halve its own window.
        """
        if self._ack_timeout is not None:
            return self._ack_timeout
        return self._stats[slot].rtt.slow_threshold()

    def _on_ack(self, slot: int, slow: bool = False,
                rtt_sample: Optional[float] = None) -> None:
        """AIMD update for one acked frame: additive increase per ack,
        halve when the ack was slower than the slow-ack threshold (the
        worker — or the link — is saturated, so stop piling frames onto
        it).  *rtt_sample* is the frame's send→ack round trip, fed to
        the slot's estimator."""
        stats = self._stats[slot]
        if rtt_sample is not None:
            stats.note_ack(rtt_sample, slow)
        with self._lock:
            if slow:
                self._cwnd[slot] = max(1, self._cwnd[slot] // 2)
            elif self._cwnd[slot] < self._caps[slot]:
                self._cwnd[slot] += 1
                self._transport.note_window(self._cwnd[slot])
            stats.note_window(self._cwnd[slot])

    def _replace_peer_many(self, slot: int, indices: List[int]) -> bool:
        """Get a fresh peer for *slot*; retire the slot if impossible.

        Returns True when the slot is usable again.  On failure an event
        for every in-flight task in *indices* has already been pushed.
        The retire-then-report order matters: the scheduler re-reads
        ``slots`` after every event, so a task requeued by a ``lost``
        event can never be waiting for capacity that no longer exists.
        """
        try:
            peer = self._make_peer(slot)
        except ConfigurationError as error:
            self._retire(slot)
            for index in indices[1:]:
                self._events.put(("lost", index))
            self._events.put(("error", indices[0] if indices else -1, error))
            return False
        except Exception:
            self._retire(slot)
            for index in indices:
                self._events.put(("lost", index))
            return False
        self._set_peer(slot, peer)
        self._apply_peer_capabilities(slot, peer)
        return True

    def _handle_peer_death(self, slot: int, in_flight) -> bool:
        """The peer died mid-window (kill, crash, OOM, dropped
        connection) — or close() interrupted it.

        Replaces the peer (halving the window: the AIMD multiplicative
        decrease), then reports **every** in-flight frame lost so the
        scheduler requeues all of them — the multi-frame generalisation
        of the historical single-frame loss.  Returns False when the
        thread should exit (shutdown, or the slot retired); the caller
        must clear its in-flight deque either way.
        """
        self._drop_peer(slot)
        if self._closing.is_set():
            return False
        self._transport.count_restart()
        with self._lock:
            self._cwnd[slot] = max(1, self._cwnd[slot] // 2)
            self._stats[slot].note_window(self._cwnd[slot])
        indices = [entry[1] for entry in in_flight]
        self._stats[slot].note_death(len(indices))
        if not self._replace_peer_many(slot, indices):
            return False
        for index in indices:
            self._events.put(("lost", index))
        return True

    def _abandon_pending(self, pending) -> None:
        """A slot exiting with coalesced-but-unsent tasks reports each
        lost, so the scheduler can requeue them (or conclude no slot is
        left) instead of blocking forever on events that never come.
        """
        for index, _task in pending:
            self._events.put(("lost", index))
        pending.clear()

    def _write_entries(self, slot: int, entries, write_frame) -> None:
        """Send ``(seq, index, task, sent_at)`` entries, batching where
        allowed, and account frames/tasks/bytes to the slot's telemetry."""
        peer = self._peers[slot]
        stats = self._stats[slot]
        batch = self._max_batch if self._batch_ok[slot] else 1
        for start in range(0, len(entries), batch):
            group = entries[start:start + batch]
            if self._frame_latency > 0.0:
                # Benchmark-only simulated link latency, paid per frame
                # written — which is exactly what windowing amortises.
                time.sleep(self._frame_latency)
            if len(group) == 1:
                seq, index, task, _sent_at = group[0]
                nbytes = write_frame(peer.writer,
                                     {"kind": "task", "seq": seq,
                                      "index": index,
                                      "task": task.to_json()})
            else:
                nbytes = write_frame(peer.writer, {
                    "kind": "tasks",
                    "items": [{"seq": seq, "index": index,
                               "task": task.to_json()}
                              for seq, index, task, _sent_at in group],
                })
            stats.note_send(len(group), nbytes or 0)

    def _check_reply(self, frame: Dict, seq: int, index: int) -> None:
        """Validate one reply frame against the head of the window."""
        kind = frame.get("kind")
        if kind not in ("result", "error"):
            raise ValueError(
                f"unexpected {kind!r} frame from worker while awaiting a "
                "reply")
        if "seq" in frame and int(frame["seq"]) != seq:
            raise ValueError(
                f"out-of-order reply from worker: expected seq {seq}, got "
                f"{frame['seq']} — per-connection in-flight tracking "
                "desynchronised")
        if int(frame.get("index", index)) != index:
            raise ValueError(
                f"reply for task index {frame.get('index')} arrived while "
                f"task {index} was at the head of the window")

    def _slot_main(self, slot: int) -> None:
        from repro.experiments.worker import read_frame, write_frame

        # (seq, index, task, sent_at) in send order; the worker replies
        # in order, so every reply is matched against the head, and
        # send→ack of the head frame is the slot's RTT sample.
        in_flight: "collections.deque" = collections.deque()
        # Set when the batch-flush hold expired: the next send pass
        # flushes the partial batch instead of holding it further.
        force_flush = False
        # (index, task) pulled from the inbox but not yet written — held
        # back (coalesced) while the peer has plenty of backlog, so tiny
        # tasks ride one batched frame instead of paying per-frame cost
        # each.  Never sent to a dead peer: if the peer dies first, the
        # replacement gets them, and if the slot retires they are
        # reported lost below.
        pending: List = []
        next_seq = 0
        try:
            while not self._closing.is_set():
                try:
                    # -------------------------------------------- fill
                    # Top the window up from the shared inbox.  Only
                    # block indefinitely when nothing at all is
                    # outstanding.  With batching available, an empty
                    # inbox is usually just the scheduler mid-top-up —
                    # the slot thread wins that race every time
                    # otherwise — so cork for ~1ms to let replacement
                    # submissions land on this frame instead of each
                    # paying for its own.
                    while True:
                        with self._lock:
                            budget = (self._cwnd[slot] - len(in_flight)
                                      - len(pending))
                        if budget <= 0:
                            break
                        try:
                            if not in_flight and not pending:
                                item = self._inbox.get()
                            elif (self._batch_ok[slot]
                                    and len(pending) < self._max_batch):
                                item = self._inbox.get(timeout=0.001)
                            else:
                                item = self._inbox.get(block=False)
                        except queue.Empty:
                            break
                        if item is _SHUTDOWN:
                            return
                        if self._closing.is_set():
                            # Drop queued tasks during shutdown; keep
                            # draining until this thread's sentinel
                            # arrives.
                            continue
                        pending.append(item)
                    # -------------------------------------------- send
                    # Flush when the batch is full or the peer has run
                    # dry.  While frames are still in flight, holding
                    # the batch back — even with the window full — costs
                    # nothing: the peer is busy, and every ack that
                    # arrives meanwhile frees window for more tasks to
                    # ride this frame, so the batch size self-clocks to
                    # the ack rate.  (Without batching, batch_cap is 1
                    # and every pulled task is sent at once — the pure
                    # windowed pipeline.)
                    batch_cap = (self._max_batch if self._batch_ok[slot]
                                 else 1)
                    if pending and (not in_flight
                                    or len(pending) >= batch_cap
                                    or force_flush):
                        force_flush = False
                        if self._peers[slot] is None and \
                                not self._replace_peer_many(
                                    slot,
                                    [index for index, _ in pending]):
                            return
                        sent_at = time.monotonic()
                        entries = []
                        for index, task in pending:
                            entries.append((next_seq, index, task, sent_at))
                            next_seq += 1
                        pending.clear()
                        # Extend in_flight *before* writing: a write that
                        # fails mid-burst then loses every entry through
                        # the single peer-death path instead of silently
                        # stranding the not-yet-written tail.
                        in_flight.extend(entries)
                        try:
                            self._write_entries(slot, entries, write_frame)
                        except (OSError, ValueError):
                            if not self._handle_peer_death(slot, in_flight):
                                self._abandon_pending(pending)
                                return
                            in_flight.clear()
                            continue
                    if not in_flight:
                        continue
                    # -------------------------------------------- ack
                    # Block for one reply, then opportunistically drain
                    # every further reply the worker has already
                    # delivered.  This is the self-clock: on a
                    # high-latency link the worker's acks pile up while
                    # a frame is in transit, draining them frees a large
                    # chunk of window at once, and the next fill sends
                    # that chunk as one batched frame — batch size adapts
                    # to the latency x service-rate product with no
                    # tuning.
                    peer = self._peers[slot]
                    stats = self._stats[slot]
                    if pending:
                        # A partial batch is parked behind the in-flight
                        # frames.  Holding it is only productive while
                        # acks are arriving to free more window, so wait
                        # at most one deviation-padded RTT (the
                        # estimator's flush hold) for a reply to show up
                        # — then flush the partial batch rather than
                        # serialising it behind one long task.
                        if not _reply_within(peer, stats.rtt.flush_hold()):
                            force_flush = True
                            continue
                    first = True
                    while in_flight and (first or _reply_ready(peer)):
                        first = False
                        waited = time.monotonic()
                        try:
                            frame = read_frame(
                                peer.reader,
                                on_bytes=stats.note_bytes_received)
                        except (OSError, ValueError):
                            frame = None
                        if frame is None:
                            if not self._handle_peer_death(slot,
                                                           in_flight):
                                self._abandon_pending(pending)
                                return
                            in_flight.clear()
                            break
                        now = time.monotonic()
                        threshold = self._slow_threshold(slot)
                        slow = (threshold is not None
                                and now - waited > threshold)
                        seq, index, _task, sent_at = in_flight.popleft()
                        self._check_reply(frame, seq, index)
                        self._on_ack(slot, slow=slow,
                                     rtt_sample=now - sent_at)
                        if frame.get("kind") == "error":
                            self._events.put(("error", index,
                                              _frame_error(frame, index)))
                            continue
                        self._events.put(
                            ("result", index,
                             MISRunResult.from_record(frame["result"])))
                except BaseException as error:
                    # Anything unexpected — a malformed frame shape, a
                    # result record from_record rejects — must surface
                    # as an error event, never die with the thread: a
                    # dead slot with no event would leave the scheduler
                    # blocked in next_event() forever.
                    self._retire(slot)
                    anchor = in_flight[0][1] if in_flight else -1
                    self._events.put(("error", anchor, error))
                    return
        finally:
            self._drop_peer(slot)


def _dial_worker(address: Tuple[str, int],
                 connect_timeout: float) -> _SocketPeer:
    """Connect to one socket worker and validate its hello frame."""
    from repro.experiments.worker import read_frame

    peer = _SocketPeer(address, connect_timeout)
    try:
        hello = read_frame(peer.reader)
        _check_hello(hello, peer.origin)
    except (ConfigurationError, OSError):
        peer.dispose()
        raise
    peer.features = tuple(hello.get("features", ()))
    peer.pid = hello.get("pid")
    peer.sock.settimeout(None)
    return peer


class SocketTransport(Transport):
    """TCP cluster transport: one slot per dialled worker connection.

    *workers* is a ``host:port,host:port`` string or a sequence of such
    addresses — each optionally carrying a ``*K`` multiplier that dials K
    independent connections to the same (multi-slot) worker; when
    omitted, the :data:`SOCKET_WORKERS_ENV` environment variable is
    consulted at open time.  Every connection is dialled (and its schema
    handshake validated) *before* any task is dispatched, so a
    misconfigured cluster is refused up front rather than half-way into a
    grid.  Each connection keeps the independent reconnect/retire/requeue
    semantics — a multi-slot worker losing one connection fails only that
    slot over.

    *window* / *max_batch* configure the sliding-window pipelining (see
    the module docstring): the default adaptive window starts at 1 per
    connection and self-tunes, so remote workers stop paying one RTT per
    task.  *ack_timeout*, when set, treats an ack slower than that many
    seconds as a congestion signal and halves the window.
    *frame_latency* injects a coordinator-side sleep before every frame
    written — benchmark/test plumbing that simulates a slow link without
    needing one.
    """

    name = "socket"

    def __init__(self, workers: Union[None, str, Sequence[str]] = None,
                 connect_timeout: float = 10.0,
                 reconnect_attempts: int = 2,
                 reconnect_delay: float = 0.2,
                 window=ADAPTIVE_WINDOW, max_batch=1,
                 ack_timeout: Optional[float] = None,
                 frame_latency: float = 0.0) -> None:
        super().__init__()
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.window = resolve_window(window)
        self.max_batch = resolve_max_batch(max_batch)
        self.ack_timeout = ack_timeout
        self.frame_latency = frame_latency

    def addresses(self) -> List[Tuple[str, int]]:
        workers = self.workers
        if workers is None:
            workers = os.environ.get(SOCKET_WORKERS_ENV) or None
        addresses = parse_worker_addresses(workers)
        if not addresses:
            raise ConfigurationError(
                "socket transport needs worker addresses: pass --workers "
                "HOST:PORT[*SLOTS],... (serve them with 'repro-mis worker "
                "serve --listen HOST:PORT --slots N') or set the "
                f"{SOCKET_WORKERS_ENV} environment variable"
            )
        return addresses

    def open(self, slots: int) -> _FramedSession:
        del slots  # capacity == number of configured workers
        addresses = self.addresses()
        peers: List[_SocketPeer] = []
        try:
            for address in addresses:
                try:
                    peers.append(_dial_worker(address, self.connect_timeout))
                except OSError as error:
                    raise ConfigurationError(
                        f"cannot reach worker {format_address(*address)} "
                        f"({error}); is 'repro-mis worker serve' running "
                        "there?"
                    ) from error
        except ConfigurationError:
            for peer in peers:
                peer.dispose()
            raise
        return _FramedSession(self, addresses, peers)


def resolve_transport(transport: Optional[Transport],
                      jobs: int = 1) -> Transport:
    """Turn a transport selector into a transport object.

    ``None`` is the ``jobs``-driven choice — inline for one worker, the
    process pool otherwise; a transport object is returned as-is.
    """
    if transport is None:
        return InlineTransport() if jobs == 1 else ProcessTransport()
    return transport
