"""perfbench's per-layer attribution still sees every layer of a sweep.

``perfbench/spans.py`` times each layer by patching its public entry
points by name.  Trace coverage cannot notice when a layer stops being
called through its traced name (its time just moves into the parent
span), so this test runs a tiny serial sweep under the tracer and checks
that every layer a serial sweep reaches recorded spans, and that
``uninstall()`` puts every patched attribute back.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from repro.experiments import backends, executor, registry, store, sweeps
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import run_sweep

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: Layers every serial sweep with a store must reach.
SERIAL_SWEEP_LAYERS = (
    "executor.plan",
    "executor.run_task",
    "executor.graph_fetch",
    "harness.run_mis",
    "sim.network.build",
    "sim.runner.run",
    "core.mis.verify",
    "store.append",
    "sweeps.report",
)

#: Classes whose attributes the tracer patches in place.
PATCHED_CLASSES = (store.ResultStore, sweeps.SweepResult,
                   registry.ExperimentReport, backends.ComposedBackend)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Identity of every attribute the tracer could patch."""
    values = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                values[(name, attr)] = value
    for owner in PATCHED_CLASSES:
        for attr, value in vars(owner).items():
            values[(owner.__qualname__, attr)] = value
    return values


def test_serial_sweep_reaches_every_traced_layer(tmp_path):
    # Algorithm adapters import their modules lazily; importing them first
    # keeps a mid-trace import from binding a traced wrapper, as
    # perfbench's workloads do.
    for module in ("repro.algorithms.luby", "repro.algorithms.vt_mis"):
        importlib.import_module(module)
    tracer = _load_spans().Tracer()
    before = _snapshot()
    tracer.install()
    try:
        assert executor._build_graph is not before[(executor.__name__,
                                                    "_build_graph")]
        result_store = ResultStore(tmp_path / "sweep.jsonl")
        try:
            result = run_sweep(["luby", "vt_mis"], sizes=[12, 16],
                               families=("gnp", "path"), repetitions=1,
                               seed=5, store=result_store)
        finally:
            result_store.close()
        assert result.rows()
    finally:
        tracer.uninstall()
    after = _snapshot()

    reached = {span[0] for span in tracer.spans}
    missing = [layer for layer in SERIAL_SWEEP_LAYERS if layer not in reached]
    assert not missing, f"layers with no spans: {missing}"
    left_patched = [key for key, value in before.items()
                    if key in after and after[key] is not value]
    assert not left_patched, f"attributes left patched: {left_patched}"
