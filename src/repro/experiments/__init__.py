"""Experiment harness: single runs, streaming sweeps over pluggable
execution backends, the JSONL results store, tables, and the E1–E9
registry."""

from repro.experiments.backends import (
    BACKENDS,
    ComposedBackend,
    available_backends,
    resolve_backend,
)
from repro.experiments.executor import (
    SweepTask,
    execute_tasks,
    iter_task_results,
    plan_sweep_tasks,
    resolve_jobs,
    run_task,
)
from repro.experiments.harness import (
    ALGORITHMS,
    MISRunResult,
    available_algorithms,
    default_message_bit_limit,
    run_mis,
)
from repro.experiments.store import (
    CODE_SCHEMA_VERSION,
    ResultStore,
    load_sweep_result,
    task_key,
)

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "CODE_SCHEMA_VERSION",
    "ComposedBackend",
    "MISRunResult",
    "ResultStore",
    "SweepTask",
    "available_algorithms",
    "available_backends",
    "default_message_bit_limit",
    "execute_tasks",
    "iter_task_results",
    "load_sweep_result",
    "plan_sweep_tasks",
    "resolve_backend",
    "resolve_jobs",
    "run_mis",
    "run_task",
    "task_key",
]
