"""Tests for the transport layer (repro.experiments.transports).

Focus: the socket transport's failure modes — a worker process killed
mid-task over TCP is requeued with byte-identical results, a handshake
schema mismatch is refused, an abandoned run closes every connection —
plus the transport-agnostic guarantees: exception-safe progress
callbacks (a raising callback must not abandon in-flight workers or leak
transports) and clean session teardown.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.backends import ComposedBackend, make_backend
from repro.experiments.executor import SweepTask, plan_sweep_tasks, run_task
from repro.experiments.store import CODE_SCHEMA_VERSION
from repro.experiments.sweeps import run_sweep
from repro.experiments.transports import (
    ADAPTIVE_WINDOW_CAP,
    WORKER_FAULT_DIR_ENV,
    SocketTransport,
    parse_worker_addresses,
    resolve_max_batch,
    resolve_window,
    split_host_port,
)
from repro.experiments.telemetry import ConnectionStats, RttEstimator
from repro.experiments.worker import hello_frame, read_frame, write_frame

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def socket_backend(workers, **options):
    """A fifo backend over socket workers at *workers*."""
    return ComposedBackend(transport=SocketTransport(workers), **options)


def _transport_threads():
    """Names of live transport slot threads (leak detector)."""
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-transport-slot")]


def _wait_for_no_transport_threads(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _transport_threads():
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked transport threads: {_transport_threads()}")


class TestWorkerAddresses:
    def test_comma_string_and_sequence_forms(self):
        expected = [("hostA", 8750), ("hostB", 8751)]
        assert parse_worker_addresses("hostA:8750,hostB:8751") == expected
        assert parse_worker_addresses(["hostA:8750", "hostB:8751"]) == expected
        assert parse_worker_addresses(" hostA:8750 , hostB:8751 ") == expected

    def test_none_and_empty_mean_no_addresses(self):
        assert parse_worker_addresses(None) == []
        assert parse_worker_addresses("") == []

    def test_slot_multiplier_expands_to_one_pair_per_connection(self):
        assert parse_worker_addresses("hostA:8750*3,hostB:8751") == [
            ("hostA", 8750), ("hostA", 8750), ("hostA", 8750),
            ("hostB", 8751)]
        assert parse_worker_addresses("hostA:8750*1") == [("hostA", 8750)]

    def test_bracketed_ipv6_addresses_are_stripped(self):
        """Regression: ``[::1]:8750`` used to keep the brackets in the
        host (rpartition on ':') and then fail to connect."""
        assert parse_worker_addresses("[::1]:8750") == [("::1", 8750)]
        assert parse_worker_addresses("[fe80::2]:8750*2,hostB:8751") == [
            ("fe80::2", 8750), ("fe80::2", 8750), ("hostB", 8751)]

    @pytest.mark.parametrize("bad", ["nohost", "host:", ":8750", "host:abc"])
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="invalid worker address"):
            parse_worker_addresses(bad)

    @pytest.mark.parametrize("bad", ["host:8750*0", "host:8750*-1",
                                     "host:8750*x", "host:8750*",
                                     "host:8750*2*2"])
    def test_malformed_slot_multipliers_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="invalid worker address"):
            parse_worker_addresses(bad)

    @pytest.mark.parametrize("bad", ["[::1]", "[::1]:", "[]:8750",
                                     "[::1:8750", "[::1]:abc"])
    def test_malformed_ipv6_addresses_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="invalid worker address"):
            parse_worker_addresses(bad)


class TestListenAddresses:
    def test_plain_and_bracketed_forms(self):
        from repro.experiments.worker import parse_listen_address

        assert parse_listen_address("0.0.0.0:8750") == ("0.0.0.0", 8750)
        assert parse_listen_address("127.0.0.1:0") == ("127.0.0.1", 0)
        # Regression: the bracketed IPv6 form used to mis-parse (the
        # brackets stayed in the host) and could never bind.
        assert parse_listen_address("[::1]:8750") == ("::1", 8750)
        assert parse_listen_address("[::]:0") == ("::", 0)

    @pytest.mark.parametrize("bad", ["nohost", "host:", ":8750", "host:abc",
                                     "[::1]", "[]:8750", "[::1:8750"])
    def test_malformed_listen_addresses_rejected(self, bad):
        from repro.experiments.worker import parse_listen_address

        with pytest.raises(ConfigurationError,
                           match="invalid listen address"):
            parse_listen_address(bad)

    def test_unreachable_worker_refused_up_front(self):
        # Dial a port nothing listens on: the sweep must fail before any
        # task is dispatched, naming the address.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # free the port again; nothing listens now
        backend = socket_backend(f"127.0.0.1:{port}")
        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=1, seed=1)
        with pytest.raises(ConfigurationError, match="cannot reach worker"):
            list(backend.submit_tasks(tasks))


class TestSocketEquivalenceAndReuse:
    def test_sweep_byte_identical_to_serial(self, socket_workers):
        serial = run_sweep(**GRID)
        over_tcp = run_sweep(**GRID, backend=socket_backend(socket_workers))
        assert repr(over_tcp.rows()) == repr(serial.rows())
        assert over_tcp.fits("awake_max") == serial.fits("awake_max")

    def test_workers_serve_many_sweeps(self, socket_workers):
        """Long-lived workers loop back to accept: two sweeps through the
        same two worker processes, both byte-identical to serial."""
        serial = run_sweep(**GRID)
        for _ in range(2):
            again = run_sweep(**GRID, backend=socket_backend(socket_workers))
            assert repr(again.rows()) == repr(serial.rows())

    def test_large_first_over_sockets_matches_serial(self, socket_workers):
        serial = run_sweep(**GRID)
        sweep = run_sweep(**GRID, backend=ComposedBackend(
            scheduler="large-first",
            transport=SocketTransport(socket_workers)))
        assert repr(sweep.rows()) == repr(serial.rows())


class TestMultiSlotWorker:
    """One worker process, many slots: equivalence, failure and budget."""

    def test_one_process_two_slots_byte_identical_to_serial(
            self, multislot_socket_worker):
        serial = run_sweep(**GRID)
        sweep = run_sweep(**GRID,
                          backend=socket_backend(multislot_socket_worker))
        assert repr(sweep.rows()) == repr(serial.rows())
        assert sweep.fits("awake_max") == serial.fits("awake_max")

    def test_multislot_worker_serves_many_sweeps(
            self, multislot_socket_worker):
        """Each slot loops back to accept after its coordinator leaves:
        the same 2-slot process serves back-to-back sweeps."""
        serial = run_sweep(**GRID)
        for _ in range(2):
            again = run_sweep(
                **GRID, backend=socket_backend(multislot_socket_worker))
            assert repr(again.rows()) == repr(serial.rows())

    def test_killing_one_slot_spares_the_serving_process(
            self, tmp_path, spawn_socket_worker):
        """Multi-slot failover: a fault that kills one slot subprocess
        mid-task must cost exactly that slot's connection — the serving
        *process* survives, the coordinator reconnects the slot (or
        fails the task over to the surviving slot), and the rows stay
        byte-identical to serial."""
        serial = run_sweep(**GRID)
        victim = plan_sweep_tasks(**GRID)[3]
        marker = tmp_path / f"crash-run_seed-{victim.run_seed}"
        marker.write_text("")
        proc, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)

        backend = socket_backend(f"{address}*2")
        recovered = run_sweep(**GRID, backend=backend)

        assert not marker.exists()  # the fault actually fired
        assert proc.poll() is None  # ...but the process survived it
        assert backend.worker_restarts >= 1
        assert repr(recovered.rows()) == repr(serial.rows())
        assert recovered.fits("awake_max") == serial.fits("awake_max")

    def test_garbage_connection_does_not_consume_a_bounded_budget(
            self, spawn_socket_worker):
        """Regression: ``served`` used to be incremented at accept time,
        so a garbage peer permanently consumed one slot-count of a
        ``--max-connections`` budget.  Now only connections that deliver
        a valid task frame count: after a junk connection, a
        max_connections=1 worker must still serve a full real sweep —
        and only then exit."""
        proc, address = spawn_socket_worker(max_connections=1)
        host, port = address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.recv(4096)  # its hello
            sock.sendall(b"\x00\x00\x00\x04junk")  # framed non-JSON
        time.sleep(0.1)
        assert proc.poll() is None  # the junk did not burn the budget

        serial = run_sweep(**GRID)
        sweep = run_sweep(**GRID, backend=socket_backend(address))
        assert repr(sweep.rows()) == repr(serial.rows())
        # The real sweep was the budgeted connection: the worker exits.
        assert proc.wait(timeout=10) == 0

    def test_worker_side_slot_threads_do_not_leak(self):
        """serve() run in-process: after a bounded 2-slot worker returns,
        no ``repro-worker-slot`` thread may remain (and the sweep that
        exercised both slots is byte-identical to serial)."""
        from repro.experiments.worker import serve

        ready = threading.Event()
        bound = {}

        def on_listening(host, port):
            bound["port"] = port
            ready.set()

        server = threading.Thread(
            target=serve, args=("127.0.0.1:0",),
            kwargs=dict(max_connections=2, slots=2,
                        on_listening=on_listening),
            daemon=True)
        server.start()
        assert ready.wait(5)

        serial = run_sweep(**GRID)
        sweep = run_sweep(**GRID, backend=socket_backend(
            f"127.0.0.1:{bound['port']}*2"))
        server.join(timeout=10)
        assert not server.is_alive()  # the budget terminated serve()
        leaked = [thread.name for thread in threading.enumerate()
                  if thread.name.startswith("repro-worker-slot")]
        assert leaked == []
        assert repr(sweep.rows()) == repr(serial.rows())

    def test_invalid_slot_counts_rejected(self):
        from repro.experiments.worker import serve

        for bad in (0, -1, True, 1.5):
            with pytest.raises(ConfigurationError, match="invalid slots"):
                serve("127.0.0.1:0", slots=bad)


class TestSocketFailureModes:
    """The satellite suite: kill/refuse/abandon over TCP."""

    def _arm_crash(self, tmp_path, task):
        marker = tmp_path / f"crash-run_seed-{task.run_seed}"
        marker.write_text("")
        return marker

    def test_worker_killed_mid_task_over_tcp_requeues_byte_identical(
            self, tmp_path, spawn_socket_worker):
        """A worker dying mid-task over TCP costs nothing: the dropped
        connection retires that slot (reconnect fails — the worker is
        gone), the task is requeued onto the surviving worker, and the
        rows match serial byte-for-byte.  The fault kills only the slot
        subprocess; a one-connection budget is what takes the whole
        worker down with it (the crashed connection had already served
        a task, so the worker exits and refuses the reconnect)."""
        serial = run_sweep(**GRID)
        victim = plan_sweep_tasks(**GRID)[3]
        marker = self._arm_crash(tmp_path, victim)
        # Both workers are fault-armed: whichever one picks the victim
        # task up dies.  The marker is one-shot, so the requeued task
        # succeeds on the survivor.
        fault_env = {WORKER_FAULT_DIR_ENV: str(tmp_path)}
        workers = [spawn_socket_worker(extra_env=fault_env,
                                       max_connections=1)
                   for _ in range(2)]

        backend = socket_backend(",".join(address for _, address in workers))
        recovered = run_sweep(**GRID, backend=backend)

        assert not marker.exists()  # the fault actually fired
        # Exactly one connection died, and its death was observed as a
        # slot replacement attempt.
        rows = backend.telemetry()["workers"]
        assert [row["reconnects"] > 0 for row in rows].count(True) == 1
        assert backend.worker_restarts >= 1
        assert repr(recovered.rows()) == repr(serial.rows())
        assert recovered.fits("awake_max") == serial.fits("awake_max")
        # Both workers spent their budget and exited cleanly.
        assert [proc.wait(timeout=10) for proc, _ in workers] == [0, 0]

    def test_single_slot_worker_survives_its_slot_crash(
            self, tmp_path, spawn_socket_worker):
        """Exit 17 kills the slot subprocess, never the worker: with no
        connection budget the coordinator reconnects to the same 1-slot
        worker, re-runs the requeued task there, and the rows match
        serial byte-for-byte."""
        serial = run_sweep(**GRID)
        marker = self._arm_crash(tmp_path, plan_sweep_tasks(**GRID)[3])
        proc, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)})

        backend = socket_backend(address)
        recovered = run_sweep(**GRID, backend=backend)

        assert not marker.exists()  # the fault actually fired
        assert backend.worker_restarts >= 1
        assert proc.poll() is None
        assert repr(recovered.rows()) == repr(serial.rows())
        assert recovered.fits("awake_max") == serial.fits("awake_max")

    def test_every_task_executes_exactly_once_despite_the_kill(
            self, tmp_path, spawn_socket_worker):
        tasks = plan_sweep_tasks(**GRID)
        self._arm_crash(tmp_path, tasks[0])
        fault_env = {WORKER_FAULT_DIR_ENV: str(tmp_path)}
        addresses = [spawn_socket_worker(extra_env=fault_env)[1]
                     for _ in range(2)]
        backend = socket_backend(",".join(addresses))
        pairs = list(backend.submit_tasks(tasks))
        assert sorted(index for index, _ in pairs) == list(range(len(tasks)))

    def test_all_workers_dead_raises_instead_of_hanging(
            self, tmp_path, spawn_socket_worker):
        tasks = plan_sweep_tasks(**GRID)
        for task in tasks[:2]:
            self._arm_crash(tmp_path, task)
        fault_env = {WORKER_FAULT_DIR_ENV: str(tmp_path)}
        # The fault kills only the slot; the one-connection budget makes
        # the worker exit with it, so no slot is left to reconnect to.
        _, only_address = spawn_socket_worker(extra_env=fault_env,
                                              max_connections=1)
        backend = socket_backend(only_address, max_attempts=5)
        with pytest.raises(WorkerCrashError,
                           match="every execution slot was lost"):
            list(backend.submit_tasks(tasks))

    def test_handshake_schema_mismatch_is_refused(self):
        """A worker speaking a different CODE_SCHEMA_VERSION must be
        refused at dial time — mixed schemas would silently mix
        incomparable metrics."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def impostor():
            connection, _ = server.accept()
            with connection:
                writer = connection.makefile("wb")
                write_frame(writer, {"kind": "hello",
                                     "schema": CODE_SCHEMA_VERSION + 1000,
                                     "pid": 0})
                writer.close()
                connection.recv(1)  # linger until the coordinator reacts

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            backend = socket_backend(f"127.0.0.1:{port}")
            tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                     repetitions=1, seed=1)
            with pytest.raises(ConfigurationError,
                               match="refusing the worker"):
                list(backend.submit_tasks(tasks))
        finally:
            server.close()
            thread.join(timeout=5)

    def test_non_worker_peer_is_refused(self):
        """Something that accepts but never says hello is not a worker."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def mute():
            connection, _ = server.accept()
            with connection:
                connection.makefile("wb").write(b"")  # say nothing
                connection.recv(1)

        thread = threading.Thread(target=mute, daemon=True)
        thread.start()
        try:
            transport = SocketTransport(f"127.0.0.1:{port}",
                                        connect_timeout=1.0)
            backend = ComposedBackend(transport=transport)
            tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                     repetitions=1, seed=1)
            with pytest.raises(ConfigurationError):
                list(backend.submit_tasks(tasks))
        finally:
            server.close()
            thread.join(timeout=5)

    def test_malformed_result_frame_raises_instead_of_hanging(self):
        """A peer that handshakes fine but then answers with a frame the
        coordinator cannot interpret must surface an error — a slot
        thread dying silently would leave the scheduler blocked in
        next_event() forever."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def liar():
            connection, _ = server.accept()
            with connection:
                writer = connection.makefile("wb")
                write_frame(writer, hello_frame())
                reader = connection.makefile("rb")
                read_frame(reader)  # accept the task...
                # ...then answer with a result frame missing its body.
                write_frame(writer, {"kind": "result", "seq": 0,
                                     "index": 0})
                connection.recv(1)  # linger until the coordinator reacts

        thread = threading.Thread(target=liar, daemon=True)
        thread.start()
        try:
            backend = socket_backend(f"127.0.0.1:{port}")
            tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                     repetitions=1, seed=1)
            with pytest.raises(KeyError):
                list(backend.submit_tasks(tasks))
            _wait_for_no_transport_threads()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_worker_survives_a_garbage_connection(self, spawn_socket_worker):
        """One misbehaving peer must cost one connection, not the
        long-lived worker: after feeding it garbage frames, the same
        worker still serves a real sweep."""
        proc, address = spawn_socket_worker()
        host, port = address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.recv(4096)  # its hello
            sock.sendall(b"\x00\x00\x00\x04junk")  # framed non-JSON
        time.sleep(0.1)
        assert proc.poll() is None  # the worker did not die
        serial = run_sweep(**GRID)
        sweep = run_sweep(**GRID, backend=socket_backend(address))
        assert repr(sweep.rows()) == repr(serial.rows())

    def test_abandoned_run_closes_all_connections(self, socket_workers):
        """Abandoning the result stream mid-sweep must tear down every
        slot thread and connection — the workers go back to accepting
        and immediately serve a fresh, byte-identical sweep."""
        serial = run_sweep(**GRID)
        tasks = plan_sweep_tasks(**GRID)
        stream = socket_backend(socket_workers).submit_tasks(tasks)
        next(stream)
        stream.close()
        _wait_for_no_transport_threads()
        again = run_sweep(**GRID,
                          backend=socket_backend(socket_workers))
        assert repr(again.rows()) == repr(serial.rows())


class TestProgressCallbackSafety:
    """A raising progress callback must not leak workers or transports."""

    @pytest.mark.parametrize("name", ["serial", "process", "socket"])
    def test_raising_callback_shuts_transport_down_and_re_raises(
            self, name, request, monkeypatch):
        if name == "socket":
            workers = request.getfixturevalue("socket_workers")
            backend = socket_backend(workers, jobs=2)
        else:
            backend = make_backend(name, jobs=2)

        class CallbackBoom(RuntimeError):
            pass

        calls = []

        def progress(task, result, done, total):
            calls.append(done)
            if done == 2:
                raise CallbackBoom("progress callback exploded")

        with pytest.raises(CallbackBoom):
            run_sweep(**GRID, progress=progress, backend=backend)
        assert calls  # the callback genuinely fired before raising
        _wait_for_no_transport_threads()

    def test_raising_callback_mid_sweep_keeps_store_resumable(
            self, tmp_path, socket_workers):
        """The sweep-level contract: results persisted before the
        callback raised stay on disk, and resuming completes the grid
        byte-identically to an uninterrupted run."""
        from repro.experiments.store import ResultStore

        serial = run_sweep(**GRID)
        path = tmp_path / "out.jsonl"

        def explode_after_three(task, result, done, total):
            if done == 3:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(**GRID, store=ResultStore(path),
                      progress=explode_after_three,
                      backend=socket_backend(socket_workers))
        _wait_for_no_transport_threads()

        # The callback raised while the third result was in hand, so
        # exactly the first two results made it to disk; resume executes
        # only the remainder, byte-identically.
        executed = []
        resumed = run_sweep(
            **GRID, store=ResultStore(path), resume=True,
            progress=lambda task, *_: executed.append(task.run_seed),
            backend=socket_backend(socket_workers))
        assert repr(resumed.rows()) == repr(serial.rows())
        assert len(executed) == len(plan_sweep_tasks(**GRID)) - 2

    def test_subsequent_sweeps_unaffected_by_an_earlier_callback_crash(
            self, socket_workers):
        def explode(task, result, done, total):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(**GRID, backend=socket_backend(socket_workers, jobs=2),
                      progress=explode)
        _wait_for_no_transport_threads()
        again = run_sweep(**GRID,
                          backend=socket_backend(socket_workers, jobs=2))
        assert repr(again.rows()) == repr(run_sweep(**GRID).rows())


class TestSocketTransportHygiene:
    def test_no_threads_leak_after_a_normal_sweep(self, socket_workers):
        run_sweep(**GRID, backend=socket_backend(socket_workers, jobs=2))
        _wait_for_no_transport_threads()

    def test_restart_counter_counts_replacements_only(
            self, tmp_path, spawn_socket_worker):
        """A clean sweep counts nothing; one injected slot death counts
        exactly one replacement, accumulated on the same transport."""
        victim = plan_sweep_tasks(**GRID)[2]
        proc, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)
        backend = socket_backend(f"{address}*2")
        run_sweep(**GRID, backend=backend)
        assert backend.worker_restarts == 0
        (tmp_path / f"crash-run_seed-{victim.run_seed}").write_text("")
        run_sweep(**GRID, backend=backend)
        assert backend.worker_restarts == 1
        assert proc.poll() is None

    def test_concurrent_restart_counts_lose_no_increment(self):
        """Regression for the unsynchronised ``restarts += 1``: many slot
        threads reporting peer deaths at once used to lose increments (a
        classic read-modify-write race).  Each thread now writes only its
        own connection's counters and the transport sums them, so 16
        threads noting 500 deaths each must land on exactly 8000."""
        import sys

        transport = SocketTransport("127.0.0.1:1")  # never dialled
        barrier = threading.Barrier(16)

        def hammer(slot):
            stats = ConnectionStats("127.0.0.1:1", slot)
            transport.register_connection(stats)
            barrier.wait()
            for _ in range(500):
                stats.note_death(1)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # provoke interleaving aggressively
        try:
            threads = [threading.Thread(target=hammer, args=(slot,))
                       for slot in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert transport.restarts == 16 * 500


class TestPortRangeValidation:
    """Satellite: out-of-range ports fail at parse time with flag advice,
    not later as confusing OS errors."""

    @pytest.mark.parametrize("bad", ["host:0", "host:99999", "host:65536",
                                     "[::1]:0", "[::1]:70000"])
    def test_workers_reject_out_of_range_ports(self, bad):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_worker_addresses(bad)
        message = str(excinfo.value)
        assert "invalid worker address" in message
        assert "out of range" in message
        assert "--workers" in message

    @pytest.mark.parametrize("bad", ["host:99999", "host:65536",
                                     "[::1]:70000"])
    def test_listen_rejects_out_of_range_ports(self, bad):
        from repro.experiments.worker import parse_listen_address

        with pytest.raises(ConfigurationError) as excinfo:
            parse_listen_address(bad)
        message = str(excinfo.value)
        assert "invalid listen address" in message
        assert "out of range" in message
        assert "--listen" in message

    def test_listen_keeps_the_ephemeral_port_0(self):
        """Port 0 stays valid for --listen only: a listener may ask the
        OS for an ephemeral port, but dialling port 0 can never work."""
        from repro.experiments.worker import parse_listen_address

        assert parse_listen_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_listen_address("[::]:0") == ("::", 0)

    def test_split_host_port_boundaries(self):
        assert split_host_port("host:1") == ("host", 1)
        assert split_host_port("host:65535") == ("host", 65535)
        assert split_host_port("host:0", allow_ephemeral=True) == ("host", 0)
        with pytest.raises(ValueError, match="out of range"):
            split_host_port("host:0")
        with pytest.raises(ValueError, match="out of range"):
            split_host_port("host:65536", allow_ephemeral=True)


class TestCloseDuringReconnect:
    def test_close_returns_promptly_while_a_slot_reconnects(
            self, tmp_path, spawn_socket_worker):
        """Regression: close() used to join slot threads without a bound,
        and a thread grinding through a long reconnect loop (sleeping
        between attempts with no peer to interrupt) would hang the whole
        teardown for reconnect_attempts × reconnect_delay.  With the
        closing-aware reconnect loop, close() returns in seconds even
        with a 100 × 8s reconnect schedule in progress."""
        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=1, seed=1)
        marker = tmp_path / f"crash-run_seed-{tasks[0].run_seed}"
        marker.write_text("")
        proc, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)})
        transport = SocketTransport(address, reconnect_attempts=100,
                                    reconnect_delay=8.0)
        session = transport.open(1)
        try:
            session.submit(0, tasks[0])
            # The worker exits mid-task (exit 17); wait until the slot
            # thread has observed the death and entered its reconnect
            # loop against the now-dead address.
            deadline = time.monotonic() + 20
            while transport.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert transport.restarts >= 1
        finally:
            started = time.monotonic()
            session.close()
            elapsed = time.monotonic() - started
        assert elapsed < 5.0
        _wait_for_no_transport_threads()


class TestWindowedProtocol:
    """The tentpole suite: pipelined windows, batching, AIMD, downgrade."""

    # Many small tasks so windows actually grow mid-sweep.
    WGRID = dict(algorithms=["luby"], sizes=[16, 32], families=("gnp",),
                 repetitions=4, seed=41)

    def test_window_selectors_resolve(self):
        assert resolve_window("adaptive") == ADAPTIVE_WINDOW_CAP
        assert resolve_window(4) == 4
        assert resolve_window("4") == 4
        assert resolve_max_batch("8") == 8
        transport = SocketTransport("host:8750", window="adaptive",
                                    max_batch=8)
        assert transport.window == ADAPTIVE_WINDOW_CAP
        assert transport.max_batch == 8
        assert SocketTransport("host:8750").window == ADAPTIVE_WINDOW_CAP

    def test_invalid_window_and_batch_selectors_rejected(self):
        for bad in (0, -3, "turbo", 1.5, True, None):
            with pytest.raises(ConfigurationError, match="invalid window"):
                resolve_window(bad)
        for bad in (0, -1, "many", 2.5, False, None):
            with pytest.raises(ConfigurationError,
                               match="invalid max_batch"):
                resolve_max_batch(bad)
        with pytest.raises(ConfigurationError, match="invalid window"):
            SocketTransport("host:8750", window=0)
        with pytest.raises(ConfigurationError, match="invalid max_batch"):
            SocketTransport("host:8750", max_batch=0)

    def test_adaptive_window_grows_and_fixed_window_1_does_not(
            self, spawn_socket_worker):
        """The self-clocking actually engages: over one connection the
        adaptive window must climb past 1 as acks arrive, while an
        explicit window=1 pins the historical strict alternation — with
        byte-identical rows either way."""
        proc, address = spawn_socket_worker()
        serial = run_sweep(**self.WGRID)
        pinned = ComposedBackend(transport=SocketTransport(address,
                                                           window=1))
        assert repr(run_sweep(**self.WGRID, backend=pinned).rows()) == \
            repr(serial.rows())
        assert pinned.transport.peak_window == 1
        adaptive = ComposedBackend(transport=SocketTransport(address))
        assert repr(run_sweep(**self.WGRID, backend=adaptive).rows()) == \
            repr(serial.rows())
        assert adaptive.transport.peak_window > 1

    def test_slow_acks_keep_the_window_at_1(self, spawn_socket_worker,
                                            monkeypatch):
        """A zero slow-ack threshold marks every ack slow, so the
        multiplicative-decrease path runs on each one: the window must
        never leave 1 — and, like every window schedule, the rows stay
        byte-identical."""
        proc, address = spawn_socket_worker()
        serial = run_sweep(**self.WGRID)
        monkeypatch.setattr(RttEstimator, "slow_threshold", lambda self: 0.0)
        backend = ComposedBackend(transport=SocketTransport(address))
        assert repr(run_sweep(**self.WGRID, backend=backend).rows()) == \
            repr(serial.rows())
        assert backend.transport.peak_window == 1

    def test_windowed_single_slot_worker_byte_identical(
            self, socket_workers):
        """Single-slot workers serve in-process; that handler honours
        windows and batched ``tasks`` frames like the slot subprocesses."""
        serial = run_sweep(**self.WGRID)
        backend = ComposedBackend(
            transport=SocketTransport(socket_workers, window=4, max_batch=4),
            jobs=2)
        sweep = run_sweep(**self.WGRID, backend=backend)
        assert repr(sweep.rows()) == repr(serial.rows())
        assert backend.transport.peak_window > 1
        _wait_for_no_transport_threads()

    def test_mid_window_connection_kill_requeues_every_in_flight_frame(
            self, tmp_path, spawn_socket_worker):
        """A connection dying with a window full of frames loses nothing:
        every in-flight frame is reported lost and requeued (each task
        still executes to completion exactly once), the worker process
        survives its slot's death, and rows stay byte-identical."""
        serial = run_sweep(**self.WGRID)
        tasks = plan_sweep_tasks(**self.WGRID)
        victim = tasks[len(tasks) // 2]  # mid-grid: windows have grown
        marker = tmp_path / f"crash-run_seed-{victim.run_seed}"
        marker.write_text("")
        proc, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)

        backend = ComposedBackend(transport=SocketTransport(
            f"{address}*2", window=4, max_batch=2))
        pairs = list(backend.submit_tasks(tasks))

        assert not marker.exists()  # the fault actually fired
        assert proc.poll() is None  # the slot died, the server lives
        assert backend.worker_restarts >= 1
        assert sorted(index for index, _ in pairs) == list(range(len(tasks)))
        sweep = run_sweep(**self.WGRID, backend=ComposedBackend(
            transport=SocketTransport(f"{address}*2", window=4,
                                      max_batch=2)))
        assert repr(sweep.rows()) == repr(serial.rows())

    @pytest.mark.parametrize("features,missing", [
        (None, "batch, window"),
        (["batch"], "window"),
        (["window"], "batch"),
    ], ids=["no-features", "batch-only", "window-only"])
    def test_peer_without_window_capability_is_refused(self, features,
                                                       missing):
        """A worker whose hello lacks the window or batch feature predates
        the windowed, batched protocol and cannot parse ``tasks`` frames:
        it is refused at dial time with an error naming what is missing,
        like a schema mismatch — never driven in a downgraded dialect."""
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        received = []

        def legacy_worker():
            connection, _ = server.accept()
            with connection:
                hello = {"kind": "hello", "schema": CODE_SCHEMA_VERSION,
                         "pid": 0}
                if features is not None:
                    hello["features"] = features
                write_frame(connection.makefile("wb"), hello)
                received.append(read_frame(connection.makefile("rb")))

        thread = threading.Thread(target=legacy_worker, daemon=True)
        thread.start()
        try:
            backend = socket_backend(f"127.0.0.1:{port}")
            tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                     repetitions=1, seed=1)
            with pytest.raises(ConfigurationError,
                               match=f"lacks protocol feature\\(s\\) "
                                     f"{missing}; refusing the worker"):
                list(backend.submit_tasks(tasks))
        finally:
            server.close()
            thread.join(timeout=5)
        assert received == [None]  # hung up without sending a task


class TestServeStream:
    def test_replies_in_order_echo_seq_and_flag_configuration_errors(self):
        """The worker side of the protocol over a socketpair: a one-item
        and a three-item ``tasks`` frame get one reply per task, in send
        order, each echoing its ``seq``; a task raising
        ConfigurationError comes back as an error frame flagged
        ``configuration`` while the stream keeps serving."""
        from repro.experiments.worker import serve_stream

        good = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=3, seed=4)
        bad = SweepTask("no-such-algorithm", "gnp", 16, 1, 1)
        items = [{"seq": seq, "index": 10 + seq, "task": task.to_json()}
                 for seq, task in enumerate([good[0], good[1], bad,
                                             good[2]])]
        coordinator, worker = socket.socketpair()
        served = {}
        thread = threading.Thread(
            target=lambda: served.setdefault("tasks", serve_stream(
                worker.makefile("rb"), worker.makefile("wb"))),
            daemon=True)
        thread.start()
        try:
            reader = coordinator.makefile("rb")
            writer = coordinator.makefile("wb")
            assert read_frame(reader) == hello_frame()
            write_frame(writer, {"kind": "tasks", "items": items[:1]})
            write_frame(writer, {"kind": "tasks", "items": items[1:]})
            replies = [read_frame(reader) for _ in items]
            coordinator.shutdown(socket.SHUT_WR)
            thread.join(timeout=30)
        finally:
            coordinator.close()
            worker.close()
        assert served == {"tasks": 4}
        assert [(r["seq"], r["index"]) for r in replies] == \
            [(0, 10), (1, 11), (2, 12), (3, 13)]
        assert [r["kind"] for r in replies] == \
            ["result", "result", "error", "result"]
        assert replies[2]["configuration"] is True
        assert "no-such-algorithm" in replies[2]["message"]
        for reply, task in zip([replies[0], replies[1], replies[3]], good):
            expected = run_task(task).to_record()
            for record in (reply["result"], expected):
                del record["wall_time_seconds"]  # the only timing field
            assert reply["result"] == expected

    def test_single_task_frame_kind_is_rejected(self):
        """``tasks`` is the only task frame; the retired single-task
        ``task`` kind drops the connection with a named error instead of
        a bare KeyError."""
        import io

        from repro.experiments.worker import serve_stream

        (task,) = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                   repetitions=1, seed=4)
        inbound = io.BytesIO()
        write_frame(inbound, {"kind": "task", "seq": 0, "index": 0,
                              "task": task.to_json()})
        inbound.seek(0)
        with pytest.raises(ValueError, match="unexpected 'task' frame"):
            serve_stream(inbound, io.BytesIO())
