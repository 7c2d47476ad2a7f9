"""Process-backed worker slots (repro.experiments.worker --slots N).

At every slot count, ``--slots 1`` included, each coordinator connection
is served by its own slot *subprocess* mapping the serving process's
shared-memory CSR graph cache read-only.  These tests pin its contracts:

* byte identity with serial under both ``fork`` and ``spawn`` start
  methods;
* telemetry names the *executing* process — the hello pid is the slot
  subprocess, not the serving process;
* no shared-memory segment outlives the worker (graceful shutdown
  unlinks everything; the leak check reads /dev/shm, not bookkeeping).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.experiments.backends import ComposedBackend, SocketTransport
from repro.experiments.shm_cache import SEGMENT_PREFIX, active_segments
from repro.experiments.sweeps import run_sweep
from repro.experiments.worker import serve

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def _backend(workers):
    return ComposedBackend(transport=SocketTransport(workers))


def _worker_segments(pid):
    """Live /dev/shm segments owned by worker process *pid*."""
    return [name for name in active_segments()
            if name.startswith(f"{SEGMENT_PREFIX}-{pid}-")]


@pytest.fixture(scope="module")
def serial_rows():
    sweep = run_sweep(**GRID)
    return repr(sweep.rows()), repr(sweep.fits("awake_max"))


class TestProcessSlotEquivalence:
    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_byte_identical_to_serial_under_both_start_methods(
            self, spawn_socket_worker, serial_rows, start_method, slots):
        process, address = spawn_socket_worker(
            slots=slots, start_method=start_method)
        sweep = run_sweep(**GRID, backend=ComposedBackend(
            transport=SocketTransport(f"{address}*{slots}"), jobs=slots))
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        assert process.poll() is None

    @pytest.mark.parametrize("slots", [1, 3])
    def test_byte_identical_to_serial_at_every_slot_count(
            self, spawn_socket_worker, serial_rows, slots):
        """Dialling every slot must match serial at any slot count."""
        process, address = spawn_socket_worker(slots=slots)
        backend = ComposedBackend(
            transport=SocketTransport(f"{address}*{slots}"), jobs=slots)
        sweep = run_sweep(**GRID, backend=backend)
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        assert process.poll() is None
        (row,) = backend.telemetry()["workers"]
        assert len(set(row["worker_pids"])) == slots


class TestSlotProcessTelemetry:
    def test_hello_pid_is_the_slot_subprocess(self, spawn_socket_worker):
        """Telemetry must name the process that *executed* the tasks:
        two slots of one worker report two distinct pids, neither of
        which is the serving process."""
        process, address = spawn_socket_worker(slots=2)
        backend = _backend(f"{address}*2")
        run_sweep(**GRID, backend=backend)
        (row,) = backend.telemetry()["workers"]
        pids = row["worker_pids"]
        assert len(pids) == 2 and len(set(pids)) == 2
        assert process.pid not in pids
        assert all(isinstance(pid, int) for pid in pids)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm on this platform")
    def test_single_slot_reports_its_slot_subprocess(
            self, spawn_socket_worker):
        """One slot is a slot subprocess too: telemetry names the slot's
        pid, not the serving pid, and the serving process owns the
        shared segments and unlinks them all on SIGTERM."""
        process, address = spawn_socket_worker(slots=1)
        backend = _backend(address)
        run_sweep(**GRID, backend=backend)
        (row,) = backend.telemetry()["workers"]
        (pid,) = row["worker_pids"]
        assert isinstance(pid, int) and pid != process.pid
        assert _worker_segments(process.pid)  # cache is warm

        process.terminate()
        process.wait(timeout=10)
        assert _worker_segments(process.pid) == []


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
class TestSegmentLifecycle:
    def test_graceful_shutdown_unlinks_every_segment(
            self, spawn_socket_worker):
        """After the sweep the segments are still cached (that's the
        point); after SIGTERM the worker's shutdown path must have
        unlinked them all."""
        process, address = spawn_socket_worker(slots=2)
        run_sweep(**GRID, backend=_backend(f"{address}*2"))
        assert _worker_segments(process.pid)  # cache is warm

        process.terminate()
        process.wait(timeout=10)
        assert _worker_segments(process.pid) == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_cli_worker_sigterm_unlinks_every_segment_without_traceback(
            self, worker_stopper, start_method):
        """``python -m repro worker serve`` takes the orderly SIGTERM path
        too: its shutdown line is logged, every segment is unlinked, and
        the resource tracker prints no ``KeyError`` traceback (one slot
        unregistering a segment would remove the owner's registration)."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "serve",
             "--listen", "127.0.0.1:0", "--slots", "2",
             "--start-method", start_method],
            stderr=subprocess.PIPE, text=True)
        try:
            log = [process.stderr.readline()]
            match = re.search(r"listening on (\S+)", log[0])
            assert match, log
            # The resource tracker inherits the worker's stderr, so the
            # pipe reaches EOF only once the tracker, too, has exited.
            drain = threading.Thread(
                target=lambda: log.append(process.stderr.read()),
                daemon=True)
            drain.start()
            run_sweep(algorithms=["luby"], sizes=[16, 24], repetitions=1,
                      seed=5, backend=_backend(f"{match.group(1)}*2"))
            assert _worker_segments(process.pid)  # cache is warm
            process.terminate()
            assert process.wait(timeout=10) == 0
            drain.join(timeout=30)
            assert not drain.is_alive()
            assert _worker_segments(process.pid) == []
        finally:
            worker_stopper([process])
        text = "".join(log)
        assert "shared graph cache hits=" in text
        assert "Traceback" not in text and "leaked" not in text, text

    def test_bounded_worker_exit_unlinks_every_segment(
            self, spawn_socket_worker):
        """A --max-connections worker that exits on its own budget takes
        the same unlink path as SIGTERM."""
        process, address = spawn_socket_worker(slots=2, max_connections=2)
        run_sweep(**GRID, backend=_backend(f"{address}*2"))
        assert process.wait(timeout=10) == 0
        assert _worker_segments(process.pid) == []


class TestSingleSlotWorker:
    def test_bounded_single_slot_worker_exits_after_its_budget(
            self, spawn_socket_worker, serial_rows):
        """A 1-slot worker honours --max-connections: one budgeted
        sweep, then a clean exit."""
        process, address = spawn_socket_worker(slots=1, max_connections=1)
        sweep = run_sweep(**GRID, backend=_backend(address))
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        assert process.wait(timeout=10) == 0


class TestServeValidation:
    @pytest.mark.parametrize("bad", [0, -3, True, 1.5])
    def test_invalid_max_connections_rejected(self, bad):
        with pytest.raises(ConfigurationError,
                           match="invalid max_connections"):
            serve("127.0.0.1:0", max_connections=bad)

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ConfigurationError, match="start method"):
            serve("127.0.0.1:0", slots=2, start_method="teleport")
