"""Per-layer spans recorded from outside the program.

:class:`Tracer` swaps the public functions of each layer for timing
wrappers while a traced pass runs and restores the originals afterwards,
so untraced passes execute the unmodified program.  A function imported
by name into another module (``from repro.sim.runner import
run_protocol``) is replaced in every ``repro`` module that holds it.

Every wrapped call records one span ``(layer, task_id, start, end,
self_s)``.  A span's self time is its duration minus the time of the
spans nested inside it, so summing self times over all spans gives the
wall time covered by the trace without double counting.  Spans stay in
memory until :meth:`Tracer.layer_metrics` aggregates them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers whose self time is reported as ``<layer>_s`` (seconds per grid pass).
TIMED_LAYERS = {
    "executor.plan": "executor.plan_s",
    "executor.run_task": "executor.run_task_s",
    "executor.graph_fetch": "executor.graph_fetch_s",
    "graphs.generate": "graphs.generate_s",
    "sim.network.build": "sim.network.build_s",
    "sim.runner.run": "sim.runner.run_s",
    "core.mis.verify": "core.mis.verify_s",
    "harness.run_mis": "harness.run_mis_s",
    "store.append": "store.append_s",
    "sweeps.report": "sweeps.report_s",
    "transports.wait": "transports.wait_s",
}

#: Layers whose share of traced wall time is reported, by metric name.
SHARED_LAYERS = {"graphs.generate": "graphs.share",
                 "sim.network.build": "sim.network.share",
                 "sim.runner.run": "sim.runner.share",
                 "core.mis.verify": "core.mis.share"}


class _TracedCache:
    """Stand-in for the executor's graph cache that times each lookup.

    Attribute access (``cache_info``, ``stats``...) goes to the real cache,
    so the cache's own counters and lifecycle are untouched.
    """

    def __init__(self, cache: Any, call: Callable[..., Any]) -> None:
        self._cache = cache
        self._call = call

    def __call__(self, *args: Any) -> Any:
        return self._call(*args)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cache, name)


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Any, float, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        self._task_ids: Dict[Any, Tuple[int, int]] = {}
        self._sweeps = 0
        self._current: Any = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _timed(self, layer: str, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            self.spans.append((layer, self._current, start, end,
                               duration - frame[0]))

    def _wrap(self, layer: str, fn: Callable[..., Any],
              after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self._timed(layer, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Swap every layer's public entry points for traced wrappers."""
        from repro.core import mis
        from repro.experiments import backends, executor, harness, registry
        from repro.experiments import store, sweeps
        from repro.sim import network, runner

        def planned(tasks, *args, **kwargs):
            self._sweeps += 1
            for index, task in enumerate(tasks):
                self._task_ids[task] = (self._sweeps, index)

        self._replace_everywhere(
            executor.plan_sweep_tasks,
            self._wrap("executor.plan", executor.plan_sweep_tasks, planned))

        run_task = executor.run_task

        @functools.wraps(run_task)
        def traced_run_task(task):
            self._current = self._task_ids.get(task)
            try:
                return self._timed("executor.run_task", run_task, task)
            finally:
                self._current = None

        self._replace_everywhere(run_task, traced_run_task)

        cache = executor._build_graph

        def fetch(family, n, graph_seed):
            self.counts["graph_fetches"] += 1
            return self._timed("executor.graph_fetch", cache,
                               family, n, graph_seed)

        self._replace_attr(executor, "_build_graph", _TracedCache(cache, fetch))

        def generated(graph, *args, **kwargs):
            self.counts["graphs_generated"] += 1
            self.counts["edges"] += graph.number_of_edges()

        self._replace_everywhere(
            executor.by_name,
            self._wrap("graphs.generate", executor.by_name, generated))

        self._replace_everywhere(
            harness.run_mis, self._wrap("harness.run_mis", harness.run_mis))

        signature = inspect.signature(runner.run_protocol)

        def simulated(result, *args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            if call["trace"] or call["message_bit_limit"] is not None:
                engine = "metered"
            elif (call["vectorized"] is not False
                  and hasattr(call["protocol"], "vectorized_engine")):
                engine = "vectorized"
            else:
                engine = "fast"
            self.counts[f"engine.{engine}"] += 1
            self.counts["node_rounds"] += result.metrics.total_awake_rounds
            self.counts["messages"] += result.metrics.total_messages

        self._replace_everywhere(
            runner.run_protocol,
            self._wrap("sim.runner.run", runner.run_protocol, simulated))
        self._replace_everywhere(
            network.build_network,
            self._wrap("sim.network.build", network.build_network))
        for check in (mis.is_independent_set, mis.is_maximal_independent_set):
            self._replace_everywhere(check, self._wrap("core.mis.verify", check))

        append = store.ResultStore.append

        @functools.wraps(append)
        def traced_append(result_store, index, task, result):
            self._current = (self._sweeps, index)
            try:
                return self._timed("store.append", append, result_store,
                                   index, task, result)
            finally:
                self._current = None
                self.counts["store_records"] += 1

        self._replace_attr(store.ResultStore, "append", traced_append)
        for owner, attr in ((sweeps.SweepResult, "rows"),
                            (sweeps.SweepResult, "fits"),
                            (registry.ExperimentReport, "render")):
            self._replace_attr(owner, attr,
                               self._wrap("sweeps.report", owner.__dict__[attr]))

        submit = backends.ComposedBackend.submit_tasks

        @functools.wraps(submit)
        def traced_submit(backend, tasks):
            stream = submit(backend, tasks)
            try:
                while True:
                    try:
                        item = self._timed("transports.wait", next, stream)
                    except StopIteration:
                        return
                    yield item
            finally:
                stream.close()

        self._replace_attr(backends.ComposedBackend, "submit_tasks",
                           traced_submit)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self._task_ids.clear()

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for layer, _task, _start, _end, self_s in self.spans:
            totals[layer] += self_s
        return totals

    def layer_metrics(self, wall_s: float, passes: int) -> Dict[str, float]:
        """Per-layer values per grid pass, from *passes* traced passes
        whose summed wall time is *wall_s*."""
        selfs = self.self_times()
        counts = self.counts
        metrics: Dict[str, float] = {}
        for layer, name in TIMED_LAYERS.items():
            metrics[name] = selfs.get(layer, 0.0) / passes
        for layer, name in SHARED_LAYERS.items():
            metrics[name] = selfs.get(layer, 0.0) / wall_s
        misses = counts["graphs_generated"]
        metrics["executor.graph_cache.hits"] = (
            (counts["graph_fetches"] - misses) / passes)
        metrics["executor.graph_cache.misses"] = misses / passes
        metrics["graphs.edges"] = counts["edges"] / passes
        metrics["graphs.generate_us_per_edge"] = (
            1e6 * selfs.get("graphs.generate", 0.0) / counts["edges"]
            if counts["edges"] else 0.0)
        for engine in ("metered", "fast", "vectorized"):
            metrics[f"sim.runner.engine_runs.{engine}"] = (
                counts[f"engine.{engine}"] / passes)
        metrics["sim.runner.node_rounds"] = counts["node_rounds"] / passes
        metrics["sim.runner.messages"] = counts["messages"] / passes
        run_s = selfs.get("sim.runner.run", 0.0)
        metrics["sim.runner.node_rounds_per_s"] = (
            counts["node_rounds"] / run_s if run_s else 0.0)
        metrics["store.records"] = counts["store_records"] / passes
        metrics["trace.coverage"] = sum(selfs.values()) / wall_s
        return metrics
