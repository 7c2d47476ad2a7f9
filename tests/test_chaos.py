"""Chaos suite: connection flaps under load must never change bytes.

A deterministic flap proxy (:class:`tests.conftest.FlapProxy`) sits
between the coordinator and a 2-slot socket worker and severs
connections after a planned number of task frames — mid-window, reply
undeliverable, no warning.  The suite pins the three contracts the
windowed transport makes under connection churn:

* **byte identity** — rows and fits equal the serial reference exactly,
  flaps or not;
* **bounded amplification** — every task executes at least once and at
  most ``max_attempts`` times (counted worker-side via the execution
  log, so duplicates cannot hide behind deduplicated results);
* **honest accounting** — telemetry reconnects/requeues reflect every
  kill, and the worker process itself survives all of it.

Set ``REPRO_CHAOS_ARTIFACTS`` to a directory to keep ``worker.log``,
``exec.log`` and ``telemetry.json`` from each test (the chaos-smoke CI
job uploads them on failure).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.experiments.backends import ComposedBackend
from repro.experiments.executor import plan_sweep_tasks
from repro.experiments.sweeps import run_sweep
from repro.experiments.transports import WORKER_FAULT_DIR_ENV, SocketTransport
from repro.experiments.worker import WORKER_EXEC_LOG_ENV

pytestmark = pytest.mark.slow

#: Environment variable naming a directory to copy per-test chaos
#: artefacts (worker log, execution log, telemetry dump) into.
ARTIFACTS_ENV = "REPRO_CHAOS_ARTIFACTS"

#: 16 tiny tasks: enough traffic that every planned kill fires before
#: the sweep drains, small enough to keep the suite quick.
GRID = dict(algorithms=["luby"], sizes=[16, 24], families=("gnp",),
            repetitions=8, seed=13)

#: 24 even tinier tasks for the adaptive-window/batched variant — batched
#: frames carry several tasks each, so the flap plan needs more supply to
#: guarantee every budget is reached.
DENSE_GRID = dict(algorithms=["luby"], sizes=[16], families=("gnp",),
                  repetitions=24, seed=29)


@pytest.fixture(scope="module")
def serial_rows():
    """Serial reference for :data:`GRID` (the byte-identity oracle)."""
    sweep = run_sweep(**GRID)
    return repr(sweep.rows()), repr(sweep.fits("awake_max"))


@pytest.fixture(scope="module")
def dense_serial_rows():
    sweep = run_sweep(**DENSE_GRID)
    return repr(sweep.rows()), repr(sweep.fits("awake_max"))


def _spawn_logged_worker(tmp_path, slots=2, extra_env=None):
    """Spawn a 2-slot worker with stderr → ``worker.log`` and an armed
    execution log.

    Unlike :func:`spawn_local_worker` (which drains stderr into the
    void), the log file persists — it is the artefact the chaos-smoke CI
    job uploads when a test fails.  Returns ``(process, address,
    exec_log_path, worker_log_path)``.
    """
    worker_log = tmp_path / "worker.log"
    exec_log = tmp_path / "exec.log"
    env = os.environ.copy()
    env[WORKER_EXEC_LOG_ENV] = str(exec_log)
    env.update(extra_env or {})
    with open(worker_log, "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.worker",
             "--listen", "127.0.0.1:0", "--slots", str(slots)],
            stderr=log, env=env)
    address = None
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        match = re.search(r"listening on (\S+:\d+)",
                          worker_log.read_text(encoding="utf-8"))
        if match:
            address = match.group(1)
            break
        if process.poll() is not None:
            break
        time.sleep(0.05)
    if address is None:
        process.kill()
        process.wait()
        raise RuntimeError("chaos worker never announced its port; see "
                           f"{worker_log}")
    return process, address, exec_log, worker_log


def _export_artifacts(tmp_path, test_name):
    """Copy this test's logs/dumps into ``$REPRO_CHAOS_ARTIFACTS``."""
    target_root = os.environ.get(ARTIFACTS_ENV)
    if not target_root:
        return
    target = os.path.join(target_root, test_name)
    os.makedirs(target, exist_ok=True)
    for name in ("worker.log", "exec.log", "telemetry.json"):
        source = tmp_path / name
        if source.exists():
            shutil.copy(source, os.path.join(target, name))
    # An `ls /dev/shm`-style listing: leaked repro-csr segments are the
    # first thing to look for when a process-slot chaos test fails.
    from repro.experiments.shm_cache import active_segments

    with open(os.path.join(target, "shm-segments.txt"), "w",
              encoding="utf-8") as listing:
        listing.write("\n".join(active_segments()) + "\n")


@pytest.fixture
def chaos_worker(tmp_path, request, worker_stopper):
    """A 2-slot worker with persistent logs, artefact-exported at teardown."""
    process, address, exec_log, worker_log = _spawn_logged_worker(tmp_path)
    yield process, address, exec_log
    try:
        worker_stopper([process])
    finally:
        _export_artifacts(tmp_path, request.node.name)


def _execution_counts(exec_log):
    """``run_seed → times executed`` from the worker's execution log."""
    if not exec_log.exists():
        return Counter()
    lines = exec_log.read_text(encoding="utf-8").split()
    return Counter(int(line) for line in lines)


class TestFlapProxy:
    def test_pass_through_proxy_is_transparent(self, flap_proxy,
                                               chaos_worker, serial_rows,
                                               tmp_path):
        """An empty plan forwards everything untouched: the proxy itself
        must not perturb bytes, counts or connection accounting."""
        _process, address, exec_log = chaos_worker
        proxy = flap_proxy(address)
        backend = ComposedBackend(
            transport=SocketTransport(f"{proxy.address}*2",
                                      window=4, max_batch=2),
            jobs=2)
        sweep = run_sweep(**GRID, backend=backend)
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows
        assert proxy.kills == 0
        assert proxy.connections == 2
        assert backend.worker_restarts == 0
        counts = _execution_counts(exec_log)
        tasks = plan_sweep_tasks(**GRID)
        assert sum(counts.values()) == len(tasks)
        assert all(count == 1 for count in counts.values())


class TestConnectionFlaps:
    def test_flaps_are_byte_identical_with_bounded_amplification(
            self, flap_proxy, chaos_worker, serial_rows, tmp_path):
        """The headline chaos test.

        Both initial connections are severed after their 2nd task frame
        — each kill strands one in-flight frame whose reply can never
        arrive (the proxy cuts the client socket immediately after
        forwarding the frame upstream, milliseconds before the worker
        finishes computing the reply).  The transport must reconnect,
        requeue, and still hand back the serial bytes; the worker-side
        execution log bounds how many times any task actually ran.
        """
        max_attempts = 5
        _process, address, exec_log = chaos_worker
        proxy = flap_proxy(address, plan=[2, 2])
        backend = ComposedBackend(
            transport=SocketTransport(f"{proxy.address}*2",
                                      window=4, max_batch=2),
            jobs=2, max_attempts=max_attempts)
        sweep = run_sweep(**GRID, backend=backend)

        telemetry = backend.telemetry()
        (tmp_path / "telemetry.json").write_text(
            json.dumps(telemetry, indent=2), encoding="utf-8")

        # Byte identity: chaos is invisible in the results.
        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == serial_rows

        # The plan fired exactly as written: two kills, two reconnects.
        assert proxy.kills == 2
        assert proxy.connections == 4
        assert backend.worker_restarts >= 2

        # Bounded amplification: every task ran, none more than
        # max_attempts times (worker-side count — duplicates cannot hide
        # behind deduplicated results).
        counts = _execution_counts(exec_log)
        planned = {task.run_seed for task in plan_sweep_tasks(**GRID)}
        assert set(counts) == planned
        assert all(1 <= count <= max_attempts for count in counts.values())
        # Each kill strands exactly one unacked frame (window ramps from
        # 1, so frame 2 is the only one in flight when it dies) of at
        # most max_batch=2 tasks: total executions are tightly bounded.
        assert sum(counts.values()) <= len(planned) + 2 * proxy.kills

        # Honest accounting: telemetry saw the churn.
        workers = telemetry["workers"]
        assert len(workers) == 1
        (row,) = workers
        assert row["reconnects"] >= 2
        assert row["requeues"] >= 2
        assert telemetry["scheduler"]["requeues"] >= 2
        assert row["tasks_sent"] >= len(planned)
        assert row["acks"] >= 1

        # The worker process itself survived both connection kills.
        assert _process.poll() is None

    def test_adaptive_window_flaps_with_reconnect_kill(
            self, flap_proxy, chaos_worker, dense_serial_rows, tmp_path):
        """Chaos on the adaptive window, including killing a *reconnected*
        connection (plan entry 3 hits the first replacement connection) —
        recovery must itself be recoverable."""
        max_attempts = 6
        _process, address, exec_log = chaos_worker
        proxy = flap_proxy(address, plan=[2, 3, 2])
        backend = ComposedBackend(
            transport=SocketTransport(f"{proxy.address}*2",
                                      window="adaptive", max_batch=2),
            jobs=2, max_attempts=max_attempts)
        sweep = run_sweep(**DENSE_GRID, backend=backend)

        telemetry = backend.telemetry()
        (tmp_path / "telemetry.json").write_text(
            json.dumps(telemetry, indent=2), encoding="utf-8")

        assert (repr(sweep.rows()),
                repr(sweep.fits("awake_max"))) == dense_serial_rows
        assert proxy.kills == 3
        assert backend.worker_restarts >= 3

        counts = _execution_counts(exec_log)
        planned = {task.run_seed for task in plan_sweep_tasks(**DENSE_GRID)}
        assert set(counts) == planned
        assert all(1 <= count <= max_attempts for count in counts.values())

        assert telemetry["workers"][0]["reconnects"] >= 3
        assert _process.poll() is None


class TestSlotProcessChaos:
    """Fault injection against a process-backed slot (the exit-17 path).

    With process slots the historical exit-17 fault kills the slot
    *subprocess* mid-task instead of a connection or the whole worker:
    the serving process must log the slot death, keep serving, keep
    every shared graph segment it owns, and still produce serial bytes.
    """

    def test_exit_17_kills_one_slot_subprocess_not_the_worker(
            self, tmp_path, request, serial_rows):
        from repro.experiments.shm_cache import (SEGMENT_PREFIX,
                                                 active_segments)

        max_attempts = 5
        victim = plan_sweep_tasks(**GRID)[5]
        marker = tmp_path / f"crash-run_seed-{victim.run_seed}"
        marker.write_text("")
        process, address, exec_log, worker_log = _spawn_logged_worker(
            tmp_path, extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)})

        def worker_segments():
            return [name for name in active_segments()
                    if name.startswith(f"{SEGMENT_PREFIX}-{process.pid}-")]

        try:
            backend = ComposedBackend(
                transport=SocketTransport(f"{address}*2"),
                jobs=2, max_attempts=max_attempts)
            sweep = run_sweep(**GRID, backend=backend)

            telemetry = backend.telemetry()
            (tmp_path / "telemetry.json").write_text(
                json.dumps(telemetry, indent=2), encoding="utf-8")

            # Byte identity survives losing a slot subprocess mid-task.
            assert (repr(sweep.rows()),
                    repr(sweep.fits("awake_max"))) == serial_rows
            assert not marker.exists()  # the fault actually fired
            assert process.poll() is None  # the serving process survived
            assert backend.worker_restarts >= 1

            # The serving process saw a *slot* death, not a mere
            # disconnect: its log names the exit code and carries on.
            log_text = worker_log.read_text(encoding="utf-8")
            assert "exit 17" in log_text
            assert "worker continues" in log_text

            # Bounded amplification, counted across both slot processes
            # (the execution log is append-shared between them).
            counts = _execution_counts(exec_log)
            planned = {task.run_seed for task in plan_sweep_tasks(**GRID)}
            assert set(counts) == planned
            assert all(1 <= count <= max_attempts
                       for count in counts.values())

            # The dead slot leaked nothing: its mapped segments are owned
            # by the (alive) serving process, which still holds them.
            assert worker_segments()
        finally:
            if process.poll() is None:
                process.terminate()
            process.wait(timeout=10)
            _export_artifacts(tmp_path, request.node.name)

        # ... and the serving process's shutdown unlinked every one.
        assert worker_segments() == []
