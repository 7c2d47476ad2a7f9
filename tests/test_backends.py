"""Tests for the execution backends (repro.experiments.backends).

A backend is a (scheduler × transport) composition; the cross-backend
byte-identity matrix lives in ``tests/test_executor.py`` and the
transport/scheduler layers have their own suites
(``test_transports.py``, ``test_schedulers.py``).  This file covers the
backend facade itself: the jobs-driven default, CLI-style composition
(``make_backend``), the framed worker protocol, and crash recovery over
socket workers — a worker dying mid-task is requeued, a crash loop is
bounded, and task errors come back as the right exception.
"""

from __future__ import annotations

import io
import json
import os
import struct

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.experiments.backends import (
    BACKENDS,
    SOCKET_WORKERS_ENV,
    WORKER_FAULT_DIR_ENV,
    ComposedBackend,
    SocketTransport,
    available_backends,
    make_backend,
)
from repro.experiments.executor import SweepTask, plan_sweep_tasks, run_task
from repro.experiments.sweeps import run_sweep
from repro.experiments.worker import read_frame, write_frame

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def enable_socket_backend(name, request, monkeypatch):
    """Point the socket backend at the session worker pool when needed."""
    if name == "socket":
        monkeypatch.setenv(SOCKET_WORKERS_ENV,
                           request.getfixturevalue("socket_workers"))


def lazy_backend(name, jobs):
    """A fifo backend over the *name* transport, opened only on submit."""
    return ComposedBackend(transport=BACKENDS[name](), jobs=jobs)


class TestBackendSelection:
    def test_default_is_serial_for_one_worker(self):
        assert ComposedBackend(jobs=1).transport.name == "inline"

    def test_default_is_process_pool_for_many_workers(self):
        backend = ComposedBackend(jobs=4)
        assert backend.transport.name == "process"
        assert backend.jobs == 4

    def test_default_jobs_is_one_worker_per_cpu(self):
        assert ComposedBackend().jobs == (os.cpu_count() or 1)
        assert ComposedBackend(jobs=0).jobs == (os.cpu_count() or 1)

    def test_sweep_default_is_one_inline_worker(self):
        sweep = run_sweep(algorithms=["luby"], sizes=[16], repetitions=1,
                          seed=1)
        assert sweep.telemetry["transport"] == "inline"

    def test_backend_objects_pass_through(self):
        # run_sweep drives exactly the backend it is given, with that
        # backend's own worker count: there is no second selector.
        backend = ComposedBackend(jobs=2)
        submitted = []
        submit_tasks = backend.submit_tasks

        def spy(tasks):
            submitted.append(len(tasks))
            return submit_tasks(tasks)

        backend.submit_tasks = spy
        sweep = run_sweep(**GRID, backend=backend)
        assert submitted == [len(plan_sweep_tasks(**GRID))]
        assert backend.jobs == 2
        assert sweep.telemetry["transport"] == "process"

    def test_names_resolve_to_their_transports(self):
        for name, transport_cls in BACKENDS.items():
            workers = "127.0.0.1:1" if name == "socket" else None
            backend = make_backend(name, workers=workers, jobs=2)
            assert isinstance(backend, ComposedBackend)
            assert isinstance(backend.transport, transport_cls)
            assert backend.scheduler.name == "fifo"
            assert backend.jobs == 2

    def test_a_given_transport_is_kept(self):
        transport = SocketTransport("127.0.0.1:1")
        assert ComposedBackend(transport=transport,
                               jobs=4).transport is transport

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend("cluster")
        message = str(excinfo.value)
        assert "unknown backend 'cluster'" in message
        for name in available_backends():
            assert name in message

    def test_available_backends_are_the_three_measured_paths(self):
        assert available_backends() == ["process", "serial", "socket"]

    def test_available_backends_is_sorted(self):
        assert available_backends() == sorted(BACKENDS)

    def test_names_map_to_the_documented_transports(self):
        pairs = {"serial": "inline", "process": "process",
                 "socket": "socket"}
        for name, transport in pairs.items():
            assert lazy_backend(name, jobs=2).name == f"fifo+{transport}"


class TestMakeBackend:
    """CLI-style composition: --backend/--scheduler/--workers/--window."""

    def test_no_selector_is_the_jobs_driven_default(self):
        assert make_backend().transport.name == "inline"
        assert make_backend(jobs=4).transport.name == "process"
        assert make_backend(jobs=4).jobs == 4

    def test_backend_name_alone(self):
        backend = make_backend(backend="process", jobs=3)
        assert backend.name == "fifo+process"
        assert backend.jobs == 3

    def test_scheduler_overrides_the_default_ordering(self):
        backend = make_backend(backend="process", scheduler="large-first",
                               jobs=2)
        assert backend.scheduler.name == "large-first"
        assert backend.transport.name == "process"

    @pytest.mark.parametrize("scheduler",
                             ["fifo", "large-first", "cost-model"])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_every_backend_composes_with_every_scheduler(self, name,
                                                         scheduler):
        workers = "127.0.0.1:1" if name == "socket" else None
        backend = make_backend(backend=name, scheduler=scheduler,
                               workers=workers, jobs=3)
        assert isinstance(backend.transport, BACKENDS[name])
        assert backend.name == f"{scheduler}+{backend.transport.name}"
        assert backend.jobs == 3

    def test_scheduler_alone_keeps_the_jobs_driven_transport(self):
        assert make_backend(scheduler="large-first",
                            jobs=1).transport.name == "inline"
        assert make_backend(scheduler="large-first",
                            jobs=4).transport.name == "process"

    def test_workers_imply_the_socket_backend(self):
        backend = make_backend(workers="127.0.0.1:1,127.0.0.1:2")
        assert backend.transport.name == "socket"
        assert backend.transport.workers == "127.0.0.1:1,127.0.0.1:2"

    def test_workers_rejected_for_other_backends(self):
        for name in ("serial", "process"):
            with pytest.raises(ConfigurationError, match="--workers"):
                make_backend(backend=name, workers="127.0.0.1:1")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend(backend="cluster")

    def test_socket_backend_without_workers_fails_at_open_not_construct(
            self, monkeypatch):
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        backend = lazy_backend("socket", jobs=2)
        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=1, seed=1)
        with pytest.raises(ConfigurationError, match="worker addresses"):
            list(backend.submit_tasks(tasks))

    def test_make_backend_socket_without_workers_fails_fast(
            self, monkeypatch):
        """The CLI-composition path must refuse an unrunnable socket
        selection immediately — naming both the flag and the env var —
        instead of deferring to session-open time (by which point the
        CLI has already stamped a results-store header)."""
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend(backend="socket")
        message = str(excinfo.value)
        assert "--workers" in message
        assert SOCKET_WORKERS_ENV in message

    def test_make_backend_socket_env_var_satisfies_the_fail_fast_check(
            self, monkeypatch):
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "127.0.0.1:1")
        backend = make_backend(backend="socket")
        assert backend.transport.name == "socket"

    def test_make_backend_rejects_malformed_workers_eagerly(self):
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(workers="127.0.0.1:notaport")
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(backend="socket", workers="host:8750*0")

    def test_make_backend_rejects_malformed_env_workers_eagerly(
            self, monkeypatch):
        """The env-var fallback is validated as eagerly as the flag: a
        garbage REPRO_WORKERS must fail at composition time, not after
        the CLI has stamped a results-store header."""
        monkeypatch.setenv(SOCKET_WORKERS_ENV, "garbage")
        with pytest.raises(ConfigurationError,
                           match="invalid worker address"):
            make_backend(backend="socket")

    def test_make_backend_rejects_empty_workers_eagerly(self, monkeypatch):
        # An explicit-but-empty --workers must not slip past the
        # fail-fast check just because it is not None.
        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        with pytest.raises(ConfigurationError, match="worker addresses"):
            make_backend(backend="socket", workers="")

    def test_make_backend_composes_cost_model(self):
        backend = make_backend(scheduler="cost-model", jobs=2)
        assert backend.scheduler.name == "cost-model"
        assert backend.transport.name == "process"

    def test_make_backend_passes_window_and_batch_to_the_socket_transport(
            self):
        from repro.experiments.transports import ADAPTIVE_WINDOW_CAP

        backend = make_backend(workers="127.0.0.1:1", window=4, max_batch=8)
        assert backend.transport.window == 4
        assert backend.transport.max_batch == 8
        backend = make_backend(workers="127.0.0.1:1", window="adaptive")
        assert backend.transport.window == ADAPTIVE_WINDOW_CAP
        # Untouched selectors keep the transport defaults.
        assert make_backend(workers="127.0.0.1:1").transport.max_batch == 1

    def test_make_backend_rejects_window_for_non_socket_selections(self):
        for selector in (dict(backend="serial"), dict(backend="process"),
                         dict()):
            with pytest.raises(ConfigurationError,
                               match="--window/--max-batch"):
                make_backend(window=4, **selector)
            with pytest.raises(ConfigurationError,
                               match="--window/--max-batch"):
                make_backend(max_batch=8, **selector)

    def test_make_backend_rejects_invalid_window_values_eagerly(self):
        with pytest.raises(ConfigurationError, match="invalid window"):
            make_backend(workers="127.0.0.1:1", window="turbo")
        with pytest.raises(ConfigurationError, match="invalid max_batch"):
            make_backend(workers="127.0.0.1:1", max_batch=0)


class TestBackendStreams:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_empty_task_list_yields_nothing(self, name):
        # No transport session is even opened for an empty grid, so the
        # socket backend needs no live workers here.
        backend = lazy_backend(name, jobs=2)
        assert list(backend.submit_tasks([])) == []

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_indices_address_the_submitted_list(self, name, request,
                                                monkeypatch):
        enable_socket_backend(name, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        backend = make_backend(name, jobs=2)
        reference = {index: run_task(task)
                     for index, task in enumerate(tasks)}
        for index, result in backend.submit_tasks(tasks):
            assert result.mis == reference[index].mis
            assert result.seed == reference[index].seed

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_one_slot_yields_every_index_exactly_once(self, name, request,
                                                      monkeypatch):
        # jobs=1 opens a single slot: one pool worker, or one connection
        # to the first socket worker.
        enable_socket_backend(name, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        backend = make_backend(name, jobs=1)
        pairs = list(backend.submit_tasks(tasks))
        assert sorted(index for index, _ in pairs) == list(range(len(tasks)))
        for index, result in pairs:
            assert result.mis == run_task(tasks[index]).mis

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_abandoning_the_stream_shuts_down_cleanly(self, name, request,
                                                      monkeypatch):
        enable_socket_backend(name, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        stream = make_backend(name, jobs=2).submit_tasks(tasks)
        next(stream)
        stream.close()  # must not hang on queued work or live workers


class TestWorkerProtocol:
    def test_frame_round_trip(self):
        buffer = io.BytesIO()
        record = {"kind": "task", "index": 3, "task": {"n": 16}}
        write_frame(buffer, record)
        buffer.seek(0)
        assert read_frame(buffer) == record

    def test_frames_are_length_prefixed(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task"})
        raw = buffer.getvalue()
        (length,) = struct.unpack(">I", raw[:4])
        assert length == len(raw) - 4
        assert json.loads(raw[4:].decode("utf-8")) == {"kind": "task"}

    def test_truncated_frame_reads_as_eof(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task", "index": 1})
        torn = io.BytesIO(buffer.getvalue()[:-3])
        assert read_frame(torn) is None
        assert read_frame(io.BytesIO(b"\x00\x00")) is None
        assert read_frame(io.BytesIO(b"")) is None

    def test_short_reads_are_looped_not_mistaken_for_eof(self):
        """Regression for the short-read bug: ``stream.read(n)`` may
        legally return fewer than *n* bytes mid-stream — guaranteed on
        sockets once frames span TCP segments, possible on pipes.  The
        old reader treated any short read as a torn frame; feeding the
        frames one byte at a time must reproduce every record."""
        buffer = io.BytesIO()
        records = [{"kind": "task", "index": i, "task": {"n": 16 + i}}
                   for i in range(3)]
        for record in records:
            write_frame(buffer, record)
        dribble = _DribbleStream(buffer.getvalue())
        assert [read_frame(dribble) for _ in range(3)] == records
        assert read_frame(dribble) is None  # then a clean EOF

    def test_short_read_ending_in_eof_is_still_torn(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "task", "index": 9})
        dribble = _DribbleStream(buffer.getvalue()[:-1])
        assert read_frame(dribble) is None


class _DribbleStream:
    """A binary stream whose ``read`` returns at most one byte at a time."""

    def __init__(self, data: bytes) -> None:
        self._buffer = io.BytesIO(data)

    def read(self, count: int) -> bytes:
        return self._buffer.read(min(1, count))


class TestSocketCrashRecovery:
    """Crash-loop bounds and error propagation over socket workers.

    Failover between separate worker processes lives in
    ``tests/test_transports.py::TestSocketFailureModes``; the kill cases
    here dial a ``--slots 2`` worker once, so recovery must come from
    reconnecting to the same serving process.
    """

    def _arm_crash(self, tmp_path, task):
        marker = tmp_path / f"crash-run_seed-{task.run_seed}"
        marker.write_text("")
        return marker

    def test_killed_worker_is_replaced_and_task_requeued(
            self, tmp_path, spawn_socket_worker):
        """A slot subprocess killed mid-task costs nothing: the fault
        marker makes it die after accepting a task but before producing
        its result — exactly a kill/OOM window.  With only one connection
        there is no other slot to fail over to, so the coordinator must
        reconnect (the serving process starts a fresh slot subprocess),
        requeue the task, and still end byte-identical to serial."""
        serial = run_sweep(**GRID)
        marker = self._arm_crash(tmp_path, plan_sweep_tasks(**GRID)[3])
        process, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)

        backend = ComposedBackend(transport=SocketTransport(address))
        recovered = run_sweep(**GRID, backend=backend)

        assert not marker.exists()  # the fault actually fired
        assert process.poll() is None
        assert backend.worker_restarts == 1
        assert repr(recovered.rows()) == repr(serial.rows())
        assert recovered.fits("awake_max") == serial.fits("awake_max")

    def test_every_task_executes_exactly_once_despite_the_crash(
            self, tmp_path, spawn_socket_worker):
        tasks = plan_sweep_tasks(**GRID)
        self._arm_crash(tmp_path, tasks[0])
        _, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)
        backend = ComposedBackend(transport=SocketTransport(address))
        pairs = list(backend.submit_tasks(tasks))
        assert sorted(index for index, _ in pairs) == list(range(len(tasks)))

    def test_crash_looping_task_raises_instead_of_spinning(
            self, tmp_path, spawn_socket_worker):
        # With a one-attempt budget the single injected crash exhausts it:
        # the backend must surface a WorkerCrashError, not retry forever.
        # In a 2-slot worker the fault exits the slot subprocess (17); the
        # serving process survives it.
        victim = plan_sweep_tasks(**GRID)[0]
        marker = tmp_path / f"crash-run_seed-{victim.run_seed}"
        marker.write_text("")
        process, address = spawn_socket_worker(
            extra_env={WORKER_FAULT_DIR_ENV: str(tmp_path)}, slots=2)
        backend = ComposedBackend(
            transport=SocketTransport(f"{address}*2"), max_attempts=1)
        with pytest.raises(WorkerCrashError, match="crashed its worker"):
            run_sweep(**GRID, backend=backend)
        assert not marker.exists()  # the fault actually fired
        assert process.poll() is None

    def test_configuration_error_in_worker_re_raises_as_itself(
            self, socket_workers):
        # A configuration mistake inside a worker must come back as a
        # ConfigurationError (clean CLI rendering on every backend), not
        # wrapped in WorkerCrashError — matching the serial backend.
        good = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=1, seed=7)
        bad = SweepTask(algorithm="luby", family="not-a-family", n=16,
                        graph_seed=1, run_seed=2)
        backend = ComposedBackend(transport=SocketTransport(socket_workers))
        with pytest.raises(ConfigurationError,
                           match="unknown graph family 'not-a-family'"):
            list(backend.submit_tasks([*good, bad]))

    def test_task_exception_propagates_without_killing_the_worker(
            self, spawn_socket_worker):
        # A non-configuration task exception (here: a CONGEST budget of 0
        # bits) is an error frame, not a crash: the worker survives and
        # the coordinator re-raises with the worker traceback.
        bad = SweepTask(algorithm="luby", family="gnp", n=16,
                        graph_seed=1, run_seed=2,
                        params=(("message_bit_limit", 0),))
        process, address = spawn_socket_worker()
        backend = ComposedBackend(transport=SocketTransport(address))
        with pytest.raises(WorkerCrashError, match="failed in worker"):
            list(backend.submit_tasks([bad]))
        assert process.poll() is None

    def test_restart_counter_starts_at_zero(self, socket_workers):
        backend = ComposedBackend(transport=SocketTransport(socket_workers))
        run_sweep(algorithms=["luby"], sizes=[16], repetitions=1, seed=1,
                  backend=backend)
        assert backend.worker_restarts == 0
