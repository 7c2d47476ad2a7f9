"""Framed-JSON task worker served over TCP.

Run as ``repro-mis worker serve --listen HOST:PORT`` (or ``python -m
repro.experiments.worker --listen HOST:PORT``) to serve sweep tasks for
:class:`~repro.experiments.transports.SocketTransport`, on any host —
localhost included (:func:`spawn_local_worker`).

The protocol is length-prefixed JSON: each frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON.

Worker → coordinator, once per connection (the handshake)::

    {"kind": "hello", "schema": CODE_SCHEMA_VERSION, "pid": 4242,
     "features": ["batch", "window"]}

Coordinator → worker::

    {"kind": "tasks", "items": [{"seq": 0, "index": 7,
                                 "task": {...SweepTask.to_json()...}}, ...]}

Worker → coordinator, one reply per task, in the order received::

    {"kind": "result", "seq": 0, "index": 7,
     "result": {...MISRunResult.to_record()...}}
    {"kind": "error",  "seq": 0, "index": 7, "error": "<traceback text>"}

The hello's schema version is :data:`~repro.experiments.store
.CODE_SCHEMA_VERSION` — the same version that keys the results store —
so a coordinator refuses workers whose metrics would not be comparable.
Its ``features`` list names the protocol, and a coordinator refuses a
hello that lacks either entry: ``"window"`` (the coordinator may keep
several frames in flight on this connection — safe because the worker
serves each connection sequentially and replies strictly in send order)
and ``"batch"`` (every task frame is the ``tasks`` frame above, a list
of one or more tasks).  Every reply echoes its task's ``seq``, which is
how the coordinator cross-checks its per-connection in-flight tracking.

EOF on a connection ends it and the worker loops back to ``accept``, so
a long-lived worker serves many sweeps.  A task exception is reported as
an ``error`` frame (the worker survives and keeps serving); only an
actual worker death — which the coordinator detects as EOF/reset on
*its* end — triggers reconnect-and-requeue.

``--slots N`` makes one worker serve up to N coordinator connections
concurrently (the handshake is unchanged — it happens once per
connection, and its ``pid`` is the pid of whatever actually executes the
tasks).  With one slot the connection is served in the serving process
itself.  With more than one slot, each accepted connection is served by
a **slot subprocess**, so an N-slot worker donates N cores.  What the
slots share is the graph work: the *serving* process owns a
:class:`~repro.experiments.shm_cache.SharedGraphCache` of flat CSR
adjacency arrays (:mod:`repro.graphs.csr`) in
``multiprocessing.shared_memory`` — one segment per ``(family, n,
graph_seed)``, generated once per host — and every slot maps the
segments read-only (zero-copy) instead of regenerating graphs.  That
sharing is safe because graphs are **read-only** after construction —
algorithms never mutate them (pinned by ``tests/test_executor.py``) —
and the segments are owned by the serving process and unlinked exactly
once (LRU eviction or shutdown), never by a slot.  ``--start-method
fork|spawn|forkserver`` pins how slot subprocesses are started.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import socket
import stat
import struct
import sys
import threading
import traceback
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.store import CODE_SCHEMA_VERSION
from repro.experiments.transports import (PROTOCOL_FEATURES,
                                          WORKER_FAULT_DIR_ENV,
                                          format_address, split_host_port)
from repro.experiments.executor import SweepTask, run_task


def _read_exactly(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes, or ``None`` on EOF before that.

    A single ``read(n)`` may legally return fewer than ``n`` bytes —
    guaranteed on sockets once frames span TCP segments, possible on
    pipes — so the read is looped until exactly-n or EOF.  An EOF
    mid-frame (torn frame) also returns ``None``: to a frame reader a
    peer that died mid-write looks the same as one that closed cleanly.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO,
               on_bytes: Optional[Callable[[int], None]] = None,
               ) -> Optional[Dict[str, Any]]:
    """Read one length-prefixed JSON frame; ``None`` on clean/torn EOF.

    *on_bytes*, when given, receives the frame's wire size (header +
    payload) once the frame arrived whole — the transport telemetry's
    bytes-received accounting, costing nothing when absent.
    """
    header = _read_exactly(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    payload = _read_exactly(stream, length)
    if payload is None:
        return None
    if on_bytes is not None:
        on_bytes(4 + length)
    return json.loads(payload.decode("utf-8"))


def write_frame(stream: BinaryIO, record: Dict[str, Any]) -> int:
    """Write one length-prefixed JSON frame and flush it.

    Returns the wire size written (header + payload) so senders can
    account bytes without re-serialising the record.
    """
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    stream.write(struct.pack(">I", len(payload)) + payload)
    stream.flush()
    return 4 + len(payload)


def hello_frame() -> Dict[str, Any]:
    """The handshake frame a worker sends once per connection.

    ``features`` names the windowed, batched protocol (see the module
    docstring); coordinators refuse workers whose hello lacks it.
    """
    return {"kind": "hello", "schema": CODE_SCHEMA_VERSION,
            "pid": os.getpid(), "features": list(PROTOCOL_FEATURES)}


#: Environment variable naming a file the worker appends one line to per
#: task execution attempt (the task's ``run_seed``).  Test-only: the
#: chaos suite counts lines per run_seed to bound requeue amplification —
#: a task may be requeued across connection flaps, but every execution
#: lands exactly one line here regardless of which connection carried it.
WORKER_EXEC_LOG_ENV = "REPRO_WORKER_EXEC_LOG"


def _log_execution(task: SweepTask) -> None:
    """Append one ``run_seed`` line to the execution log, when armed.

    Open-append-close per line: O_APPEND keeps concurrent writes from
    slot subprocesses (and multiple worker processes) whole for lines this
    small.
    """
    path = os.environ.get(WORKER_EXEC_LOG_ENV)
    if not path:
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{task.run_seed}\n")


def maybe_crash(task: SweepTask) -> None:
    """Test-only fault injection: die mid-task when a marker file says so.

    When :data:`~repro.experiments.transports.WORKER_FAULT_DIR_ENV` names
    a directory containing ``crash-run_seed-<seed>``, the marker is
    removed and the fault fires — *after* accepting the task but *before*
    producing its result, exactly the window a real crash/kill/OOM hits.
    Removing the marker first makes the fault one-shot: the retry of the
    requeued task succeeds, which is what the recovery tests need.

    The fault exits hard with code 17.  In a single-slot worker that is
    the whole worker; in a multi-slot worker it is just the slot
    subprocess serving the task — the serving process survives.
    """
    fault_dir = os.environ.get(WORKER_FAULT_DIR_ENV)
    if not fault_dir:
        return
    marker = os.path.join(fault_dir, f"crash-run_seed-{task.run_seed}")
    if os.path.exists(marker):
        os.unlink(marker)
        os._exit(17)


def serve_stream(reader: BinaryIO, writer: BinaryIO,
                 stats: Optional[Dict[str, int]] = None) -> int:
    """Serve one framed task stream until EOF.

    Returns the number of task frames handled.  *stats*, when given, has
    its ``"tasks"`` entry updated incrementally — so a caller watching a
    stream that dies mid-connection (garbage frames, a vanished peer)
    can still tell whether the peer ever proved itself with a valid task
    frame; :func:`serve` uses that for its ``max_connections`` budget.
    """
    handled = 0
    write_frame(writer, hello_frame())
    while True:
        frame = read_frame(reader)
        if frame is None:
            return handled
        if frame.get("kind") != "tasks":
            raise ValueError(f"unexpected {frame.get('kind')!r} frame; "
                             "task frames are 'tasks' lists")
        # Each item gets its own reply, in order, echoing its `seq`, so
        # the coordinator matches replies against the head of its window.
        for item in frame["items"]:
            task = SweepTask.from_json(item["task"])
            handled += 1
            if stats is not None:
                stats["tasks"] = handled
            maybe_crash(task)
            _log_execution(task)
            reply = {"index": item["index"], "seq": item["seq"]}
            try:
                result = run_task(task)
            except Exception as error:
                # ``configuration`` lets the coordinator re-raise a
                # ConfigurationError as itself (matching what an
                # in-process transport would do), so the CLI renders it
                # as a clean `error:` line on every transport.
                write_frame(writer, {
                    "kind": "error",
                    "message": str(error),
                    "configuration": isinstance(error, ConfigurationError),
                    "error": traceback.format_exc(),
                    **reply,
                })
                continue
            write_frame(writer, {"kind": "result",
                                 "result": result.to_record(), **reply})


def _close_inherited_sockets(keep: Tuple[int, ...]) -> None:
    """Close socket fds a forked slot inherited from the serving process.

    A fork duplicates the parent's whole fd table.  When :func:`serve`
    is embedded in the coordinator's own process, that table includes
    the coordinator side of *sibling* connections — and a slot holding
    such a duplicate keeps the sibling's socket alive past the
    coordinator's ``close()``, so the sibling slot never sees EOF and
    ``serve()`` never drains.  Closing every inherited socket except our
    own connection and control pipe restores fork/spawn parity (spawn
    children never inherit them in the first place).  Non-socket fds
    (pipes, files, multiprocessing's resource-tracker FIFO) are left
    alone.
    """
    keep_fds = set(keep) | {0, 1, 2}
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):
        return  # no procfs — only reachable where we never fork slots
    for fd in fds:
        if fd in keep_fds:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _slot_process_main(connection: socket.socket, control: Any) -> None:
    """Entry point of one slot subprocess: serve exactly one connection.

    The accepted socket travels here through ``multiprocessing``'s fd
    reduction (works under fork and spawn alike), so the framed protocol
    — hello included, now carrying *this* process's pid — is unchanged.
    *control* is the pipe back to the serving process; it carries graph
    requests (``("graph", family, n, graph_seed)`` → ``("ok",
    segment_name)``) and a one-shot ``("served",)`` once the first valid
    task frame arrives (the serving process's ``max_connections``
    budget).  Fetched segments are attached zero-copy and parked in the
    slot-local :func:`~repro.experiments.executor._build_graph` LRU, so
    the control round-trip happens once per combo per slot.

    Fault injection's ``os._exit(17)`` kills *this slot only* — the
    serving process survives, the coordinator sees a connection death,
    and the shared segments stay owned (and eventually unlinked) by the
    server.
    """
    import signal

    with contextlib.suppress(Exception):
        # The operator's Ctrl-C belongs to the serving process, which
        # terminates slots in an orderly way; a process-group SIGINT must
        # not splatter one traceback per slot.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(Exception):
        _close_inherited_sockets((connection.fileno(), control.fileno()))

    from repro.experiments import executor, shm_cache

    def _fetch(family: str, n: int, graph_seed: int):
        try:
            control.send(("graph", family, n, graph_seed))
            kind, payload = control.recv()
        except (EOFError, OSError):
            return None
        if kind != "ok":
            return None
        try:
            return shm_cache.attach_segment(payload)
        except Exception:
            # Segment evicted between reply and attach (or any mapping
            # hiccup): regenerate locally rather than failing the task.
            return None

    executor._reset_worker_graph_cache()
    executor.set_shared_graph_source(_fetch)
    notified = {"sent": False}

    class _ServedSignal(dict):
        """Stats dict that tells the server about the first valid task."""

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            if key == "tasks" and value > 0 and not notified["sent"]:
                notified["sent"] = True
                with contextlib.suppress(OSError):
                    control.send(("served",))

    stats = _ServedSignal(tasks=0)
    reader = connection.makefile("rb")
    writer = connection.makefile("wb")
    try:
        serve_stream(reader, writer, stats=stats)
    except OSError:
        pass  # the coordinator vanished mid-frame
    except Exception as error:
        print(f"repro-mis worker: slot {os.getpid()} dropping its "
              f"connection: {error!r}", file=sys.stderr, flush=True)
    finally:
        for stream in (reader, writer):
            with contextlib.suppress(OSError):
                stream.close()
        with contextlib.suppress(OSError):
            connection.close()
        with contextlib.suppress(OSError):
            control.close()


def parse_listen_address(listen: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` / ``[IPV6]:PORT`` listen address (port 0 =
    ephemeral)."""
    try:
        return split_host_port(listen, allow_ephemeral=True)
    except ValueError as error:
        raise ConfigurationError(
            f"invalid listen address '{listen}': {error} — --listen takes "
            "HOST:PORT or [IPV6]:PORT (e.g. 0.0.0.0:8750, [::1]:8750; "
            "port 0 for an OS-assigned ephemeral port)"
        ) from None


def _require_positive_int(name: str, value: Any, meaning: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(
            f"invalid {name} value {value!r}: need a positive int "
            f"({meaning})")


def serve(listen: str, max_connections: Optional[int] = None,
          slots: int = 1,
          on_listening: Optional[Callable[[str, int], None]] = None,
          start_method: Optional[str] = None) -> int:
    """Serve the framed task protocol over TCP until interrupted.

    *slots* is how many coordinator connections are served concurrently,
    and the accept loop stops handing out connections while all slots
    are busy.  One slot is served in this process.  With ``slots > 1``
    each accepted connection is served by a subprocess, so N slots
    donate N cores.  Graphs are then shared through this process's
    :class:`~repro.experiments.shm_cache.SharedGraphCache` — flat CSR
    arrays in ``multiprocessing.shared_memory``, generated once per
    ``(family, n, graph_seed)`` and mapped read-only by every slot.  The
    segments are owned *here* and unlinked exactly once (eviction or the
    shutdown path below); slots only close their mappings.

    *start_method* (``fork``/``spawn``/``forkserver``) pins how slot
    subprocesses start; ``None`` uses the platform default.

    *max_connections* bounds how many connections are served before
    returning (``None`` = forever, otherwise at least 1); tests and demos
    use it for a self-terminating worker.  Only connections that prove
    themselves — deliver at least one valid task frame after the hello —
    count toward the budget: a port-scanner, a garbage peer or a coordinator
    that refused our schema and hung up must not permanently consume a
    bounded worker's capacity.

    The actual listening address is announced on stderr (``listening on
    HOST:PORT``) so callers binding port 0 learn the ephemeral port;
    *on_listening*, when given, receives ``(host, port)`` as well (for
    in-process callers that cannot watch stderr).
    """
    host, port = parse_listen_address(listen)
    _require_positive_int("slots", slots, "the number of coordinator "
                          "connections served concurrently")
    if max_connections is not None:
        _require_positive_int("max_connections", max_connections,
                              "connections served before exiting; omit "
                              "it to serve forever")
    mp_context = None
    shared_cache = None
    if slots > 1:
        try:
            mp_context = multiprocessing.get_context(start_method)
        except ValueError:
            raise ConfigurationError(
                f"invalid start method {start_method!r}: this platform "
                f"supports {multiprocessing.get_all_start_methods()}"
            ) from None
        from repro.experiments.shm_cache import (SharedGraphCache,
                                                 reap_stale_segments)

        reaped = reap_stale_segments()
        if reaped:
            print(f"repro-mis worker: reaped {len(reaped)} orphaned shared "
                  "graph segment(s) from dead workers",
                  file=sys.stderr, flush=True)
        shared_cache = SharedGraphCache()
    elif start_method is not None:
        raise ConfigurationError(
            "--start-method only applies to --slots > 1 (slot "
            "subprocesses)")
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    server = socket.create_server((host, port), family=family)
    lock = threading.Lock()
    state = {"served": 0, "closing": False}
    capacity = threading.BoundedSemaphore(slots)
    threads: List[threading.Thread] = []
    slot_processes: List[Any] = []
    interrupted = False

    def _exhausted() -> bool:
        return (max_connections is not None
                and state["served"] >= max_connections)

    def _count_connection(proved: bool) -> None:
        with lock:
            if proved:
                state["served"] += 1
            if _exhausted():
                # The accept loop polls `closing` (closing the listener
                # from here would not wake a blocked accept).
                state["closing"] = True

    def _serve_connection(connection: socket.socket, peer: str) -> None:
        stats = {"tasks": 0}
        try:
            with connection:
                reader = connection.makefile("rb")
                writer = connection.makefile("wb")
                try:
                    serve_stream(reader, writer, stats=stats)
                except OSError:
                    pass  # the coordinator vanished mid-frame
                except Exception as error:
                    # A malformed frame (garbage bytes, JSON without a
                    # task) must cost one connection, not the worker: a
                    # donated long-lived worker never dies because one
                    # peer misbehaved.
                    print("repro-mis worker: dropping connection from "
                          f"{peer}: {error!r}", file=sys.stderr, flush=True)
                finally:
                    for stream in (reader, writer):
                        with contextlib.suppress(OSError):
                            stream.close()
            print(f"repro-mis worker: coordinator {peer} disconnected",
                  file=sys.stderr, flush=True)
        finally:
            _count_connection(stats["tasks"] > 0)
            capacity.release()

    def _relay_connection(connection: socket.socket, peer: str) -> None:
        """Serve one connection through a slot subprocess.

        This (serving-process) thread does no task work: it forwards the
        accepted socket to a fresh slot process, then services the slot's
        control pipe — shared-segment requests and the served-a-task
        signal — until the slot exits.
        """
        proved = False
        process = None
        parent_end = None
        try:
            parent_end, child_end = mp_context.Pipe()
            process = mp_context.Process(
                target=_slot_process_main, args=(connection, child_end),
                name=f"repro-worker-slot[{peer}]", daemon=True)
            process.start()
            with lock:
                slot_processes.append(process)
            # The slot owns its duplicates now; keeping ours would hold
            # the connection (and the pipe write end) open past its death.
            child_end.close()
            connection.close()
            while True:
                try:
                    message = parent_end.recv()
                except (EOFError, OSError):
                    break
                if message[0] == "graph":
                    _, graph_family, n, graph_seed = message
                    try:
                        reply = ("ok", shared_cache.get_or_create(
                            graph_family, n, graph_seed))
                    except Exception as error:
                        reply = ("error", repr(error))
                    try:
                        parent_end.send(reply)
                    except (OSError, BrokenPipeError):
                        break
                elif message[0] == "served":
                    proved = True
        finally:
            with contextlib.suppress(OSError):
                connection.close()
            if parent_end is not None:
                with contextlib.suppress(OSError):
                    parent_end.close()
            if process is not None:
                if process.pid is not None:
                    process.join()
                with lock:
                    with contextlib.suppress(ValueError):
                        slot_processes.remove(process)
                if process.exitcode == 17:
                    print("repro-mis worker: fault injection killed the "
                          f"slot serving {peer} (exit 17); worker "
                          "continues", file=sys.stderr, flush=True)
                elif process.exitcode not in (0, None):
                    print(f"repro-mis worker: slot serving {peer} exited "
                          f"with code {process.exitcode}",
                          file=sys.stderr, flush=True)
            print(f"repro-mis worker: coordinator {peer} disconnected",
                  file=sys.stderr, flush=True)
            _count_connection(proved)
            capacity.release()

    handler = _relay_connection if slots > 1 else _serve_connection

    try:
        bound_host, bound_port = server.getsockname()[:2]
        print("repro-mis worker: listening on "
              f"{format_address(bound_host, bound_port)}",
              file=sys.stderr, flush=True)
        if slots > 1:
            print(f"repro-mis worker: serving up to {slots} concurrent "
                  "connections (process slots, shared-memory CSR graph "
                  "cache)", file=sys.stderr, flush=True)
        if on_listening is not None:
            on_listening(bound_host, bound_port)
        # Accept with a short timeout rather than blocking forever: a slot
        # thread reaching the connection budget can only *flag* shutdown
        # (closing the listener from another thread does not interrupt a
        # blocked accept), so the loop has to come up for air to see it.
        server.settimeout(0.25)
        accepted = 0
        while True:
            with lock:
                if state["closing"] or _exhausted():
                    break
            capacity.acquire()
            with lock:
                if state["closing"] or _exhausted():
                    capacity.release()
                    break
            try:
                connection, peer_address = server.accept()
            except socket.timeout:
                capacity.release()
                continue
            except OSError:
                # The server socket died under us; stop serving.
                capacity.release()
                break
            # Timeout mode must not leak onto the connection: result
            # frames legitimately block for as long as a task computes.
            connection.settimeout(None)
            # Batched replies are small writes fired back-to-back;
            # without TCP_NODELAY, Nagle holds each one until the
            # coordinator's delayed ACK (~40ms), pacing the pipelined
            # protocol down to stop-and-wait speed.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            accepted += 1
            # Keep only live threads around for the shutdown join — a
            # serve-forever worker must not accumulate one dead Thread
            # object per connection it ever served.
            threads[:] = [t for t in threads if t.is_alive()]
            thread = threading.Thread(
                target=handler,
                args=(connection,
                      format_address(peer_address[0], peer_address[1])),
                name=f"repro-worker-slot-{accepted}", daemon=True)
            threads.append(thread)
            thread.start()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        with lock:
            state["closing"] = True
        with contextlib.suppress(OSError):
            server.close()
        # Let in-flight connections finish so a returned serve() means no
        # slot thread is still running (the worker-side leak detector
        # pins this).  On a graceful exit (connection budget reached) the
        # wait is unbounded — an in-flight task may legitimately compute
        # for longer than any fixed timeout, and its coordinator will
        # disconnect when done, exactly like the historical sequential
        # serve loop.  Only an operator interrupt gives up after a grace
        # period: slot subprocesses are terminated (their relay threads
        # then join them) and any remaining daemon threads abandoned.
        if interrupted:
            with lock:
                lingering = list(slot_processes)
            for process in lingering:
                with contextlib.suppress(Exception):
                    process.terminate()
        for thread in threads:
            thread.join(timeout=5.0 if interrupted else None)
        if shared_cache is not None:
            # Every slot has been joined (or abandoned as terminated), so
            # this is the single place the segments are unlinked.
            stats = shared_cache.stats()
            shared_cache.close()
            print("repro-mis worker: shared graph cache "
                  f"hits={stats['hits']} misses={stats['misses']} "
                  f"evictions={stats['evictions']} "
                  f"unlinked={stats['currsize']}",
                  file=sys.stderr, flush=True)
    return 0


def spawn_local_worker(extra_env: Optional[Dict[str, str]] = None,
                       host: str = "127.0.0.1", slots: int = 1,
                       max_connections: Optional[int] = None,
                       start_method: Optional[str] = None,
                       ) -> Tuple[Any, str]:
    """Spawn a local TCP worker on an ephemeral port (test/demo helper).

    Starts ``python -m repro.experiments.worker --listen host:0`` (plus
    ``--slots``/``--max-connections`` when given), waits for the
    ``listening on HOST:PORT`` announcement, and returns ``(Popen,
    "host:port")`` ready for ``--workers``/:class:`~repro.experiments
    .transports.SocketTransport` — append ``*K`` to the address to dial
    all K slots of a multi-slot worker.  A drain thread keeps the
    worker's stderr from ever filling its pipe.  The caller owns the
    process (kill + wait when done).
    """
    import re
    import subprocess

    env = os.environ.copy()
    if extra_env:
        env.update(extra_env)
    command = [sys.executable, "-m", "repro.experiments.worker",
               "--listen", f"{host}:0"]
    if slots != 1:
        command += ["--slots", str(slots)]
    if max_connections is not None:
        command += ["--max-connections", str(max_connections)]
    if start_method is not None:
        command += ["--start-method", start_method]
    process = subprocess.Popen(command, stderr=subprocess.PIPE, text=True,
                               env=env)
    # The announcement is not necessarily the first stderr line (a
    # starting worker may first report reaping orphaned segments), so
    # scan until it appears or the stream ends.
    match = None
    seen = []
    while match is None:
        announcement = process.stderr.readline()
        if not announcement:
            break
        seen.append(announcement)
        match = re.search(r"listening on \S+:(\d+)", announcement)
    if not match:
        process.kill()
        process.wait()
        raise RuntimeError(
            f"worker failed to announce its port: {''.join(seen)!r}")
    threading.Thread(target=process.stderr.read, daemon=True).start()
    return process, f"{host}:{match.group(1)}"


def main(argv: Optional[list] = None) -> int:
    """Entry point: serve the TCP worker on ``--listen``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-mis-worker",
        description="framed-JSON sweep-task worker over TCP",
    )
    parser.add_argument("--listen", metavar="HOST:PORT", required=True,
                        help="address to serve on (port 0 = ephemeral, "
                             "[IPV6]:PORT accepted)")
    parser.add_argument("--slots", type=int, default=1, metavar="N",
                        help="serve up to N coordinator connections "
                             "concurrently, sharing the host's graph "
                             "work (default: 1)")
    parser.add_argument("--max-connections", type=int, default=None,
                        metavar="N",
                        help="exit after N connections that served at "
                             "least one task (default: serve forever)")
    parser.add_argument("--start-method",
                        choices=["fork", "spawn", "forkserver"],
                        default=None,
                        help="multiprocessing start method for the slot "
                             "subprocesses of --slots > 1 (default: "
                             "platform default)")
    args = parser.parse_args(argv)
    # SIGTERM (plain `kill`, fixture teardown) takes the same orderly
    # shutdown path as Ctrl-C: join/terminate slots, unlink every shared
    # graph segment exactly once.  SIGKILL is unmaskable; the next worker
    # to start reaps any segments it orphaned.
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, _terminate)
    try:
        return serve(args.listen, max_connections=args.max_connections,
                     slots=args.slots, start_method=args.start_method)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
