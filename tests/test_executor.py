"""Tests for the parallel sweep executor and its serial/parallel equivalence.

The load-bearing guarantee: because :func:`plan_sweep_tasks` derives every
seed up front from the master RNG (in the exact order the historical serial
loop consumed it), ``run_sweep(jobs=K)`` is cell-for-cell identical for
every ``K`` — the rows, the fits, even their ``repr`` strings.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import (
    SweepTask,
    execute_tasks,
    iter_task_results,
    plan_sweep_tasks,
    resolve_jobs,
    run_task,
)
from repro.experiments.harness import run_mis
from repro.experiments.sweeps import run_sweep
from repro.graphs.generators import by_name
from repro.sim.metrics import CompactRunMetrics, RunMetrics

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)


def _enable_socket(backend, request, monkeypatch):
    """Point the socket backend at a session worker pool when needed.

    ``socket`` dials two single-slot workers; ``socket-slots`` dials both
    slots of one ``--slots 2`` worker.  Returns the backend name to select.
    """
    fixtures = {"socket": "socket_workers",
                "socket-slots": "multislot_socket_worker"}
    if backend not in fixtures:
        return backend
    from repro.experiments.backends import SOCKET_WORKERS_ENV

    monkeypatch.setenv(SOCKET_WORKERS_ENV,
                       request.getfixturevalue(fixtures[backend]))
    return "socket"


class TestPlanning:
    def test_task_count_is_the_grid_product(self):
        tasks = plan_sweep_tasks(**GRID)
        assert len(tasks) == 2 * 2 * 1 * 2  # algorithms * sizes * families * reps

    def test_planning_is_deterministic(self):
        assert plan_sweep_tasks(**GRID) == plan_sweep_tasks(**GRID)

    def test_different_master_seeds_give_different_tasks(self):
        other = dict(GRID, seed=100)
        assert plan_sweep_tasks(**GRID) != plan_sweep_tasks(**other)

    def test_repetitions_share_graph_seeds_across_algorithms(self):
        """Both algorithms must see the same repetition graphs (as the
        serial sweep always did), with distinct run seeds per task."""
        tasks = plan_sweep_tasks(**GRID)
        by_cell = {}
        for task in tasks:
            by_cell.setdefault(task.cell_key, []).append(task)
        luby_graphs = [t.graph_seed for t in by_cell[("luby", "gnp", 16)]]
        vt_graphs = [t.graph_seed for t in by_cell[("vt_mis", "gnp", 16)]]
        assert luby_graphs == vt_graphs
        run_seeds = [t.run_seed for t in tasks]
        assert len(set(run_seeds)) == len(run_seeds)

    def test_unknown_family_rejected_at_planning_time(self):
        from repro.errors import UnknownFamilyError

        with pytest.raises(UnknownFamilyError, match="unknown graph family"):
            plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                             families=("nope",), repetitions=1, seed=1)

    def test_unknown_algorithm_rejected_at_planning_time(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            plan_sweep_tasks(algorithms=["bogus"], sizes=[16],
                             repetitions=1, seed=1)

    def test_algorithm_params_are_attached_sorted(self):
        tasks = plan_sweep_tasks(
            algorithms=["awake_mis"], sizes=[16], repetitions=1, seed=1,
            algorithm_params={"awake_mis": {"preset": "scaled",
                                            "max_active_rounds": 10**6}},
        )
        assert tasks[0].params == (("max_active_rounds", 10**6),
                                   ("preset", "scaled"))

    @pytest.mark.parametrize("key", ["prest", "variant"])
    def test_unknown_algorithm_param_rejected_at_planning_time(self, key):
        """A typo fails here, like an unknown algorithm, not silently in
        every task; run_mis's own run options are accepted."""
        with pytest.raises(ConfigurationError) as excinfo:
            plan_sweep_tasks(algorithms=["awake_mis"], sizes=[16],
                             repetitions=1, seed=1,
                             algorithm_params={"awake_mis": {key: "paper"}})
        assert str(excinfo.value) == (
            f"unknown parameter {key!r} for algorithm 'awake_mis'; accepted:"
            " enforce_congest, max_active_rounds, message_bit_limit, params,"
            " preset, trace, vectorized, verify")
        assert plan_sweep_tasks(
            algorithms=["luby"], sizes=[16], repetitions=1, seed=1,
            algorithm_params={"luby": {"enforce_congest": False,
                                       "verify": False}})


class TestRunTask:
    def test_worker_regenerates_the_graph_from_seeds(self):
        task = SweepTask(algorithm="luby", family="gnp", n=20,
                         graph_seed=7, run_seed=8)
        result = run_task(task)
        reference = run_mis(by_name("gnp", 20, seed=7), algorithm="luby",
                            seed=8, collect_raw=False)
        assert result.mis == reference.mis
        assert result.summary() == {**reference.summary(),
                                    "wall_time_s": result.summary()["wall_time_s"]}

    def test_worker_results_are_compact(self):
        task = SweepTask(algorithm="luby", family="gnp", n=20,
                         graph_seed=7, run_seed=8)
        result = run_task(task)
        assert isinstance(result.metrics, CompactRunMetrics)
        assert result.raw is None

    def test_compact_results_pickle_small(self):
        import pickle

        task = SweepTask(algorithm="luby", family="gnp", n=256,
                         graph_seed=7, run_seed=8)
        compact = len(pickle.dumps(run_task(task)))
        full = len(pickle.dumps(run_mis(by_name("gnp", 256, seed=7),
                                        algorithm="luby", seed=8)))
        assert compact < full / 4


class TestResolveJobs:
    def test_explicit_values_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5

    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)

    def test_error_message_lists_accepted_forms(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_jobs(-2)
        message = str(excinfo.value)
        assert "positive int" in message
        assert "one worker per CPU" in message

    def test_non_int_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(2.5)

    def test_float_zero_and_bools_rejected(self):
        # 0.0/False must not slip through the "0 means per-CPU" branch and
        # True must not count as the int 1.
        for bad in (0.0, False, True, 1.0):
            with pytest.raises(ConfigurationError):
                resolve_jobs(bad)


class TestStreaming:
    def test_jobs1_streams_in_task_order(self):
        tasks = plan_sweep_tasks(**GRID)
        pairs = list(iter_task_results(tasks, jobs=1))
        assert [task for task, _ in pairs] == tasks
        reference = execute_tasks(tasks, jobs=1)
        assert [result.mis for _, result in pairs] == [r.mis
                                                       for r in reference]

    def test_parallel_stream_covers_every_task_exactly_once(self):
        tasks = plan_sweep_tasks(**GRID)
        pairs = list(iter_task_results(tasks, jobs=4))
        assert sorted(task.run_seed for task, _ in pairs) == sorted(
            task.run_seed for task in tasks)
        by_seed = {task.run_seed: result for task, result in pairs}
        reference = execute_tasks(tasks, jobs=1)
        for task, expected in zip(tasks, reference):
            assert by_seed[task.run_seed].mis == expected.mis

    def test_progress_callback_sees_every_execution(self):
        tasks = plan_sweep_tasks(**GRID)
        seen = []

        def progress(task, result, done, total):
            seen.append((task.run_seed, done, total))

        list(iter_task_results(tasks, jobs=1, progress=progress))
        assert [done for _, done, _ in seen] == list(range(1, len(tasks) + 1))
        assert all(total == len(tasks) for _, _, total in seen)
        assert sorted(seed for seed, _, _ in seen) == sorted(
            t.run_seed for t in tasks)

    def test_yielded_results_are_compact(self):
        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=1, seed=7)
        for _, result in iter_task_results(tasks, jobs=1):
            assert isinstance(result.metrics, CompactRunMetrics)
            assert result.raw is None

    def test_abandoning_the_stream_shuts_the_pool_down(self):
        tasks = plan_sweep_tasks(**GRID)
        stream = iter_task_results(tasks, jobs=4)
        next(stream)
        stream.close()  # must not hang on queued futures


class TestGraphCacheLifecycle:
    def test_coordinator_cache_cleared_after_streaming(self):
        from repro.experiments.executor import _build_graph

        tasks = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                 repetitions=2, seed=11)
        list(iter_task_results(tasks, jobs=1))
        assert _build_graph.cache_info().currsize == 0

    def test_worker_initializer_resets_the_cache(self):
        from repro.experiments.executor import (_build_graph,
                                                _reset_worker_graph_cache)

        _build_graph("gnp", 16, 3)
        assert _build_graph.cache_info().currsize > 0
        _reset_worker_graph_cache()
        assert _build_graph.cache_info().currsize == 0

    def test_cached_graphs_are_shared_and_never_mutated(self):
        """The cache contract multi-slot workers rely on: every run_task
        for the same ``(family, n, graph_seed)`` gets the *same* graph
        object (one build per process, however many slots consume it),
        and no algorithm mutates it — nodes, edges and node count must
        be bit-identical after every algorithm ran on it."""
        from repro.experiments.executor import _build_graph
        from repro.experiments.harness import available_algorithms

        _build_graph.cache_clear()
        graph = _build_graph("gnp", 24, 5)
        assert _build_graph.cache_info().misses == 1
        nodes = sorted(graph.nodes())
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        for run_seed, algorithm in enumerate(available_algorithms()):
            run_task(SweepTask(algorithm=algorithm, family="gnp", n=24,
                               graph_seed=5, run_seed=run_seed))
            assert sorted(graph.nodes()) == nodes
            assert sorted(tuple(sorted(edge))
                          for edge in graph.edges()) == edges
        # Every task hit the cached object; nothing was rebuilt.
        assert _build_graph.cache_info().misses == 1
        assert _build_graph("gnp", 24, 5) is graph
        _build_graph.cache_clear()


@pytest.fixture(scope="module")
def serial_baseline():
    """The reference sweep every backend/jobs combination must reproduce."""
    return run_sweep(**GRID, jobs=1)


class TestSerialParallelEquivalence:
    def test_execute_tasks_preserves_task_order(self):
        tasks = plan_sweep_tasks(**GRID)
        serial = execute_tasks(tasks, jobs=1)
        parallel = execute_tasks(tasks, jobs=4)
        assert [r.mis for r in serial] == [r.mis for r in parallel]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize(
        "backend", [None, "serial", "process", "socket", "socket-slots"])
    def test_sweep_rows_byte_identical_across_backends_and_jobs(
            self, backend, jobs, serial_baseline, request, monkeypatch):
        """The cross-backend equivalence matrix.

        Every backend × jobs combination must reproduce the serial rows,
        fits and their repr byte-for-byte — the grid's seeds are fixed at
        planning time, so execution placement can never leak into results.
        ``socket`` runs against two live local workers, ``socket-slots``
        against both slots of one ``--slots 2`` worker.
        """
        backend = _enable_socket(backend, request, monkeypatch)
        sweep = run_sweep(**GRID, jobs=jobs, backend=backend)
        assert repr(sweep.rows()) == repr(serial_baseline.rows())
        assert sweep.fits("awake_max") == serial_baseline.fits("awake_max")
        assert sweep.all_verified and serial_baseline.all_verified

    @pytest.mark.parametrize(
        "backend", ["serial", "process", "socket"])
    @pytest.mark.parametrize("scheduler",
                             ["fifo", "large-first", "cost-model"])
    def test_sweep_rows_byte_identical_across_schedulers(
            self, scheduler, backend, serial_baseline, request, monkeypatch):
        """The scheduler × transport extension of the matrix.

        Dispatch order (fifo vs large-first vs cost-model) is pure
        wall-clock policy: composed with *any* transport — including the
        socket transport with two live workers — rows and fits must stay
        byte-identical to the serial reference, because every seed was
        derived at planning time and arrivals are folded back into grid
        order.
        """
        from repro.experiments.backends import make_backend

        _enable_socket(backend, request, monkeypatch)
        composed = make_backend(backend=backend, scheduler=scheduler,
                                jobs=2)
        sweep = run_sweep(**GRID, jobs=2, backend=composed)
        assert repr(sweep.rows()) == repr(serial_baseline.rows())
        assert sweep.fits("awake_max") == serial_baseline.fits("awake_max")

    @pytest.mark.parametrize("scheduler",
                             ["fifo", "large-first", "cost-model"])
    def test_multislot_worker_byte_identical_to_serial(
            self, scheduler, serial_baseline, multislot_socket_worker):
        """The ``socket --slots 2`` rows of the matrix: one worker
        *process* serving two concurrent connections (slot subprocesses
        sharing one shared-memory graph cache) must reproduce the serial
        rows and fits byte-for-byte under every scheduling policy."""
        from repro.experiments.backends import ComposedBackend
        from repro.experiments.transports import SocketTransport

        backend = ComposedBackend(
            scheduler=scheduler,
            transport=SocketTransport(multislot_socket_worker), jobs=2)
        sweep = run_sweep(**GRID, jobs=2, backend=backend)
        assert repr(sweep.rows()) == repr(serial_baseline.rows())
        assert sweep.fits("awake_max") == serial_baseline.fits("awake_max")

    @pytest.mark.parametrize("slow_threshold", [None, 0.0, 0.005],
                             ids=["rtt-calibrated", "pinned", "fixed-5ms"])
    @pytest.mark.parametrize("max_batch", [1, 8])
    @pytest.mark.parametrize("window", [1, 4, "adaptive"])
    def test_windowed_socket_byte_identical_to_serial(
            self, window, max_batch, slow_threshold, serial_baseline,
            multislot_socket_worker, monkeypatch):
        """The window × batch × slow-ack extension of the matrix:
        pipelining frames into a connection (pinned to 1, any fixed
        window, or AIMD-grown), batching tiny tasks into ``tasks`` frames,
        and the slow-ack threshold that drives the window (Jacobson/Karels
        self-calibrated, or forced to 0 so every ack is slow, or a fixed
        5 ms) are pure wall-clock mechanics — rows and fits must stay
        byte-identical to the serial reference at every (window,
        max_batch, threshold) point."""
        from repro.experiments.backends import ComposedBackend
        from repro.experiments.telemetry import RttEstimator
        from repro.experiments.transports import SocketTransport

        if slow_threshold is not None:
            monkeypatch.setattr(RttEstimator, "slow_threshold",
                                lambda self: slow_threshold)
        backend = ComposedBackend(
            transport=SocketTransport(multislot_socket_worker,
                                      window=window, max_batch=max_batch),
            jobs=2)
        sweep = run_sweep(**GRID, jobs=2, backend=backend)
        assert repr(sweep.rows()) == repr(serial_baseline.rows())
        assert sweep.fits("awake_max") == serial_baseline.fits("awake_max")

    @pytest.mark.parametrize(
        "backend", ["serial", "process", "socket", "socket-slots"])
    def test_stream_covers_every_task_on_every_backend(self, backend,
                                                       request, monkeypatch):
        backend = _enable_socket(backend, request, monkeypatch)
        tasks = plan_sweep_tasks(**GRID)
        pairs = list(iter_task_results(tasks, jobs=2, backend=backend))
        assert sorted(t.run_seed for t, _ in pairs) == sorted(
            t.run_seed for t in tasks)

    def test_sweep_with_algorithm_params_matches_across_jobs(self):
        grid = dict(algorithms=["luby"], sizes=[16], repetitions=2, seed=5,
                    algorithm_params={"luby": {"max_iterations": 512}})
        serial = run_sweep(**grid, jobs=1)
        parallel = run_sweep(**grid, jobs=2)
        assert repr(serial.rows()) == repr(parallel.rows())

    def test_serial_jobs_run_in_process(self):
        """jobs=1 must not spawn a pool (keeps debugging/profiling simple):
        an unpicklable monkeypatched adapter still works in-process."""
        import repro.experiments.harness as harness

        calls = []
        original = harness.ALGORITHMS["luby"]

        def spy(graph, seed, **params):
            calls.append(seed)
            return original(graph, seed, **params)

        harness.ALGORITHMS["luby"] = spy
        try:
            run_sweep(algorithms=["luby"], sizes=[16], repetitions=2,
                      seed=3, jobs=1)
        finally:
            harness.ALGORITHMS["luby"] = original
        assert len(calls) == 2


class TestSweepStructure:
    def test_cells_keep_the_serial_ordering(self):
        sweep = run_sweep(**GRID, jobs=4)
        keys = [(c.algorithm, c.family, c.n) for c in sweep.cells]
        # family -> n -> algorithm, exactly the order the serial loop built.
        assert keys == [("luby", "gnp", 16), ("vt_mis", "gnp", 16),
                        ("luby", "gnp", 32), ("vt_mis", "gnp", 32)]
        assert all(len(c.runs) == 2 for c in sweep.cells)

    def test_run_mis_keep_raw_conflicts_with_compaction(self):
        with pytest.raises(ConfigurationError):
            run_mis(by_name("gnp", 16, seed=1), algorithm="luby", seed=2,
                    keep_raw=True, collect_raw=False)

    def test_run_mis_default_metrics_stay_full(self):
        result = run_mis(by_name("gnp", 16, seed=1), algorithm="luby", seed=2)
        assert isinstance(result.metrics, RunMetrics)
        assert len(result.metrics.per_node) == 16


class TestGraphCacheConfiguration:
    """REPRO_GRAPH_CACHE sizing and the telemetry counters.

    The graph cache used to be a hard-coded ``lru_cache(maxsize=32)``;
    it is now env-sized (re-read on every ``cache_clear``) and its
    hit/miss/eviction counters flow into backend telemetry.
    """

    @pytest.fixture(autouse=True)
    def _clean_cache(self):
        from repro.experiments.executor import _build_graph

        _build_graph.cache_clear()
        yield
        _build_graph.cache_clear()

    def test_env_resizes_the_cache_on_clear(self, monkeypatch):
        from repro.experiments.executor import GRAPH_CACHE_ENV, _build_graph

        monkeypatch.setenv(GRAPH_CACHE_ENV, "2")
        _build_graph.cache_clear()
        assert _build_graph.cache_info().maxsize == 2
        for graph_seed in range(3):
            _build_graph("path", 8, graph_seed)
        info = _build_graph.cache_info()
        assert info.currsize == 2  # the third build evicted the first
        assert _build_graph.stats()["evictions"] == 1

    def test_eviction_counter_counts_only_evictions(self):
        from repro.experiments.executor import _build_graph

        _build_graph("path", 8, 0)
        _build_graph("path", 8, 0)
        stats = _build_graph.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_zero_disables_caching(self, monkeypatch):
        from repro.experiments.executor import GRAPH_CACHE_ENV, _build_graph

        monkeypatch.setenv(GRAPH_CACHE_ENV, "0")
        _build_graph.cache_clear()
        first = _build_graph("path", 8, 0)
        second = _build_graph("path", 8, 0)
        assert first is not second  # nothing was retained
        stats = _build_graph.stats()
        assert stats["misses"] == 2
        assert stats["currsize"] == 0

    def test_invalid_env_value_warns_and_uses_default(self, monkeypatch,
                                                      capsys):
        from repro.experiments.executor import (GRAPH_CACHE_ENV,
                                                _GRAPH_CACHE_DEFAULT,
                                                _build_graph)

        monkeypatch.setenv(GRAPH_CACHE_ENV, "many")
        _build_graph.cache_clear()
        assert _build_graph.cache_info().maxsize == _GRAPH_CACHE_DEFAULT
        assert GRAPH_CACHE_ENV in capsys.readouterr().err

    def test_counters_reach_backend_telemetry(self):
        from repro.experiments.backends import resolve_backend
        from repro.experiments.sweeps import run_sweep

        backend = resolve_backend("serial")
        run_sweep(["luby", "vt_mis"], [16], repetitions=1, seed=5,
                  backend=backend)
        cache = backend.telemetry()["graph_cache"]
        # Both algorithms share the repetition's graph seed: one build,
        # one hit — captured before teardown cleared the cache.
        assert cache["misses"] == 1
        assert cache["hits"] == 1
        assert cache["evictions"] == 0

    def test_shared_source_hook_counts_as_shared_hit(self):
        from repro.experiments.executor import (_build_graph,
                                                set_shared_graph_source)
        from repro.graphs import generators

        fetched = []

        def source(family, n, graph_seed):
            fetched.append((family, n, graph_seed))
            return generators.to_csr(
                generators.by_name(family, n, seed=graph_seed)).view()

        set_shared_graph_source(source)
        try:
            first = _build_graph("path", 8, 1)
            second = _build_graph("path", 8, 1)  # now cached locally
        finally:
            set_shared_graph_source(None)
        assert fetched == [("path", 8, 1)]
        assert second is first
        stats = _build_graph.stats()
        assert stats["shared_hits"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
