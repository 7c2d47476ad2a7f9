"""Set-up probe: one fresh process taken to the point where a task can run.

Run by ``perfbench/run.py`` several times per run; the parent times the
span from starting this interpreter to reading its ``ready`` line.  That
covers interpreter start and every import a workload's first task needs,
plus, for ``socket_small_tasks``, spawning the two-slot worker and
dialling and handshaking both of its connections.

Usage: python3 perfbench/probe.py WORKLOAD
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main(name: str) -> int:
    workload = workloads.WORKLOADS[name]
    for module in workload.modules:
        importlib.import_module(module)
    if workload is not workloads.SocketSmallTasks:
        print("ready", flush=True)
        return 0
    from repro.experiments.transports import SocketTransport

    process, address, _log, drain = workloads.spawn_worker(SRC)
    try:
        session = SocketTransport(
            f"{address}*{workloads.WORKER_SLOTS}").open(workloads.WORKER_SLOTS)
        print("ready", flush=True)
        session.close()
    finally:
        workloads.stop_worker(process, drain)
    return 1 if workloads.leaked_segments(process.pid) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
