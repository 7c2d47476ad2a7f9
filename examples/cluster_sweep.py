"""Running a multi-host sweep over the socket transport.

The sweep executor's cluster path is the framed worker protocol served
over TCP.  One worker *process* can serve many execution slots
(``--slots N``): each slot is one coordinator connection handled by its
own **subprocess**, so an N-slot worker donates N cores instead of
sharing one GIL (with ``--slots 1`` the serving process handles its one
connection itself).  Slots do not rebuild graphs: the serving process
builds each ``(family, n, graph_seed)`` graph once, publishes its flat
CSR arrays in a ``multiprocessing.shared_memory`` segment, and every
slot maps the segment read-only — zero copies, one build per host.
Segments are owned by the serving process and unlinked exactly once (on
LRU eviction or shutdown), so a terminated worker leaves /dev/shm
clean.  Because every task seed is derived up front, the resulting
tables are byte-identical to a serial run, whatever the workers' timing
or slot count.

On real hardware you would run, on each worker host (one process per
host, as many slots as you want to donate)::

    repro-mis worker serve --listen 0.0.0.0:8750 --slots 4

and on the coordinator (``host:port*K`` dials K connections — one per
slot — to that worker; bracket IPv6 hosts as ``[::1]:8750``)::

    repro-mis sweep --algorithms awake_mis luby --sizes 256 512 1024 \
        --repetitions 3 --seed 7 --scheduler cost-model \
        --backend socket --workers hostA:8750*4,hostB:8750*2 \
        --window adaptive --max-batch 8 \
        --output results.jsonl

(`--scheduler cost-model` dispatches tasks in descending *estimated*
cost — family x algorithm x n, so a dense small graph outranks a sparse
large one — which cuts the straggler tail on mixed grids;
``large-first`` is the simpler descending-n variant.  ``--output``/
``--resume`` make a coordinator crash resumable.  A worker whose code
schema differs is refused at dial time, and a connection lost mid-task
fails over to the remaining slots.)

``--window``/``--max-batch`` control the pipelined transport.  Each
connection keeps up to *window* sequence-numbered frames in flight
instead of strictly alternating task/result; ``adaptive`` (the default)
grows the window AIMD-style — one step per acked result, halved when a
connection drops or acks stall — so long round trips stop serialising
tiny tasks.  ``--max-batch`` additionally coalesces queued tiny tasks
into one ``tasks`` frame (batch size self-clocks to the ack rate; big
tasks still go one per frame).  A connection lost mid-window requeues
*every* in-flight frame, and ``--window 1`` pins strict request/reply
alternation — none of this can change a result byte, only wall-clock
time.  A worker whose hello does not advertise the windowed, batched
protocol predates it and is refused at dial time.

This example demonstrates the identical flow on one machine: it spawns
ONE local worker process serving two process-backed slots, runs the
same sweep once serially and once through both slots (windowed +
batched), verifies the tables match, and checks that terminating the
worker left no shared-memory segment behind.
"""

from __future__ import annotations

import sys

from repro.experiments.backends import ComposedBackend, SocketTransport
from repro.experiments.shm_cache import active_segments
from repro.experiments.sweeps import run_sweep
from repro.experiments.tables import render_sweep
from repro.experiments.worker import spawn_local_worker

SWEEP = dict(algorithms=["awake_mis", "luby"], sizes=[32, 64, 128],
             families=("gnp",), repetitions=2, seed=7)


def main() -> int:
    process, address = spawn_local_worker(slots=2)
    workers = f"{address}*2"
    print(f"serving 1 local worker with 2 slots: --workers {workers}")
    try:
        serial = run_sweep(**SWEEP, keep_runs=False)
        backend = ComposedBackend(
            scheduler="cost-model",
            transport=SocketTransport(workers, window="adaptive",
                                      max_batch=8))
        clustered = run_sweep(**SWEEP, keep_runs=False, backend=backend)
    finally:
        process.terminate()
        process.wait()
    print(render_sweep(clustered,
                       title="sweep over one 2-slot worker (cost-model)"))
    print(f"peak per-connection window: {backend.transport.peak_window} "
          f"(grown from 1, one step per acked result)")
    leaked = [name for name in active_segments()
              if name.startswith(f"repro-csr-{process.pid}-")]
    print(f"shared-memory segments leaked by the worker: {leaked or 'none'}")
    identical = repr(clustered.rows()) == repr(serial.rows())
    print(f"byte-identical to the serial run: {identical}")
    return 0 if identical and not leaked else 1


if __name__ == "__main__":
    sys.exit(main())
