"""Command-line interface: ``repro-mis`` / ``python -m repro``.

Sub-commands
------------

``run``
    Run one MIS algorithm on one generated graph and print its metrics.
``sweep``
    Run a scaling sweep over several sizes/algorithms and print the table
    plus growth-law fits.  ``--jobs K`` fans the grid out over ``K``
    workers (``--jobs 0`` uses every CPU) and ``--backend`` picks where
    they run (serial/process/socket); because the sweep executor
    derives every task seed up front, the printed rows and fits are
    identical for every ``--jobs``/``--backend`` combination.  ``--output
    FILE`` persists every result to a JSONL store as it completes;
    ``--resume`` continues an interrupted sweep from that store without
    re-running recorded tasks.
``experiment``
    Regenerate one of the paper experiments E1–E9; each report states
    the paper claim it checks next to the measured verdict.
    ``--jobs``/``--backend`` parallelise the sweep-backed experiments
    E1–E5 and E9 the same way, and ``--output``/``--resume`` give them
    the resumable store.  E6–E8 run in-process: they ignore ``--jobs``,
    ``--backend`` and ``--progress``, and refuse ``--output``/``--resume``
    (exit 2).
``report``
    Rebuild the sweep table and growth-law fits from a JSONL store written
    by ``sweep``/``experiment --output``, without re-running anything.
    ``--csv FILE`` additionally exports the rows for notebook-side
    analysis.
``figure``
    Print the paper's Figure 1/2 worked example.
``worker serve``
    Serve sweep tasks over TCP (``--listen HOST:PORT``) for the socket
    backend: run one per host with ``--slots N`` (one slot per core),
    point a sweep at them with ``--workers host:port*N,...``.
``store merge``
    Compact one or more stores of the same sweep (partial resume files,
    overlapping copies) into a single fresh store file.
``list``
    List available algorithms, graph families, backends, schedulers and
    experiments.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.backends import (available_backends,
                                        available_schedulers, make_backend)
from repro.experiments.harness import available_algorithms, run_mis
from repro.experiments.registry import available_experiments, run_experiment
from repro.experiments.store import (ResultStore, load_sweep_result,
                                     merge_stores)
from repro.graphs.generators import FAMILIES, by_name

# The sweep and table layers are imported by the commands that print or
# run sweeps, so a worker started with ``worker serve`` never loads them.

#: How ``run`` and ``sweep`` pick a round engine (both epilogs say it).
_ENGINES_EPILOG = (
    "Engines: runs enforce CONGEST metering by default (every message's "
    "size is estimated and checked).  Algorithms with a numpy engine run "
    "on it, metered or not: luby and rank_greedy on the whole-round "
    "engine, vt_mis and awake_mis on schedule engines (their "
    "communication rounds as array operations, Awake-MIS's LDT-MIS on "
    "the generator loop); the rest take "
    "the simulator's generator loop, which every algorithm falls back to "
    "when traced or when the Python API pins vectorized=False.  Engine "
    "choice never changes outputs, recorded rows or awake/round/message/"
    "bit counts, only wall-clock time.")

#: Shared --help epilog for the store-aware subcommands.
_STORE_EPILOG = (
    "Results store: --output FILE appends one JSON record per completed "
    "task (atomic line writes keyed by the task's spec hash), so a killed "
    "run loses at most the line being written.  Re-running with --resume "
    "replays recorded tasks from the store instead of executing them; the "
    "final table and fits are byte-identical to an uninterrupted run.  "
    "--resume requires --output, and a store holds exactly one sweep "
    "configuration; 'repro-mis store merge' compacts partial stores of "
    "one sweep into one file.  "
    "Execution: --backend serial|process|socket picks where tasks run "
    "(in-process, a local process pool, or TCP workers); --scheduler "
    "fifo|large-first|cost-model picks the dispatch order "
    "(large-first sends big-n tasks out first to cut the straggler "
    "tail; cost-model ranks tasks by estimated cost from family x "
    "algorithm x n, so a dense small graph outranks a sparse large one "
    "on mixed grids).  Results are byte-identical for every "
    "combination; the socket backend fails over dead workers and "
    "requeues their tasks.  "
    "Running a multi-host sweep: on each worker host run "
    "'repro-mis worker serve --listen 0.0.0.0:8750 --slots N' (one "
    "serving process per host; each slot runs in its own "
    "subprocess, so N slots donate N cores, and the slots map one "
    "shared-memory CSR graph cache read-only — each graph is built "
    "once per host instead of once per slot), then on "
    "the coordinator run 'repro-mis sweep ... --backend socket "
    "--workers hostA:8750*4,hostB:8750*2'.  A 'host:port*K' entry "
    "dials K connections to that worker — one execution slot each; "
    "bracket IPv6 hosts as '[::1]:8750'.  The handshake refuses "
    "workers running incompatible code (CODE_SCHEMA_VERSION), and a "
    "connection lost mid-task fails over to the remaining slots with "
    "byte-identical results.  The socket transport pipelines: each "
    "connection keeps a sliding window of task frames in flight that "
    "starts at 1 and self-tunes (AIMD: +1 per acked result, halved on "
    "reconnect or a slow ack), so remote workers stop paying one "
    "round-trip per task; --window N caps it, --window adaptive is the "
    "default, and --max-batch N groups tiny tasks into one frame.  "
    "What counts as a slow ack self-calibrates: every connection "
    "carries a Jacobson/Karels RTT estimator (EWMA srtt + rttvar per "
    "acked frame) and halves its window when an ack exceeds the "
    "estimator's srtt + 4*rttvar timeout; the same estimate paces how "
    "long a partial batch waits for more window; --window 1 pins the "
    "window.  --progress prints stderr progress lines plus a "
    "per-worker telemetry table afterwards (srtt, peak window, frames, "
    "acks, batches, requeues, reconnects, bytes) — stdout stays "
    "byte-identical with and without it.  A "
    "connection lost mid-window requeues every in-flight frame, and "
    "workers that predate the windowed protocol are refused at the "
    "handshake — results are byte-identical at every window and batch "
    "setting.  Add --output/--resume so a coordinator "
    "crash resumes instead of re-running.  Inspect a store later with "
    "'repro-mis report FILE'."
)

_BACKEND_HELP = ("execution backend for the grid (default: serial when "
                 "--jobs 1, process pool otherwise; socket = TCP workers "
                 "via --workers)")
_SCHEDULER_HELP = ("task dispatch order: fifo (planned order, default), "
                   "large-first (descending n, cuts the straggler tail on "
                   "skewed grids) or cost-model (descending estimated "
                   "cost from family x algorithm x n — better on "
                   "mixed-family grids); never changes results, only "
                   "wall-clock")
_WORKERS_HELP = ("socket workers to dial, as HOST:PORT[*SLOTS][,...] "
                 "(serve them with 'repro-mis worker serve'; '*K' dials "
                 "K connections to one multi-slot worker, '[::1]:8750' "
                 "for IPv6); implies --backend socket")
_WINDOW_HELP = ("task frames kept in flight per worker connection "
                "(socket backend only): an integer cap, or 'adaptive' "
                "(the default) to start at 1 and self-tune via "
                "AIMD — +1 per acked result, halved on reconnect; a lost "
                "connection requeues every in-flight frame, so results "
                "never depend on the window")
_MAX_BATCH_HELP = ("group up to N tiny tasks into one 'tasks' frame to "
                   "amortize per-frame overhead (socket backend only; "
                   "default 1 = one task per frame)")


def _add_execution_arguments(parser: argparse.ArgumentParser,
                             jobs_help: str) -> None:
    """The shared --jobs/--backend/--scheduler/--workers/... flags."""
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)
    parser.add_argument("--backend", default=None,
                        choices=available_backends(), help=_BACKEND_HELP)
    parser.add_argument("--scheduler", default=None,
                        choices=available_schedulers(),
                        help=_SCHEDULER_HELP)
    parser.add_argument("--workers", metavar="HOST:PORT,...", default=None,
                        help=_WORKERS_HELP)
    parser.add_argument("--window", metavar="N|adaptive", default=None,
                        help=_WINDOW_HELP)
    parser.add_argument("--max-batch", dest="max_batch", type=int,
                        default=None, metavar="N", help=_MAX_BATCH_HELP)
    parser.add_argument("--progress", action="store_true",
                        help="print progress lines while the grid runs "
                             "and a per-worker transport telemetry table "
                             "(srtt, windows, frames, acks, batches, "
                             "requeues, reconnects, bytes) afterwards — "
                             "all on stderr, so stdout stays "
                             "byte-identical with and without it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description="Reproduction of 'Distributed MIS in O(log log n) Awake "
                    "Complexity' (PODC 2023)",
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser(
        "run", help="run one algorithm on one graph",
        epilog=_ENGINES_EPILOG)
    run_parser.add_argument("--algorithm", default="awake_mis",
                            choices=available_algorithms())
    run_parser.add_argument("--family", default="gnp",
                            help="graph family (see 'repro-mis list')")
    run_parser.add_argument("--n", type=int, default=128)
    run_parser.add_argument("--seed", type=int, default=1)

    sweep_parser = sub.add_parser(
        "sweep", help="scaling sweep",
        epilog=_STORE_EPILOG
               + "  " + _ENGINES_EPILOG)
    sweep_parser.add_argument("--algorithms", nargs="+",
                              default=["awake_mis", "luby"],
                              choices=available_algorithms())
    sweep_parser.add_argument("--sizes", nargs="+", type=int,
                              default=[64, 128, 256])
    sweep_parser.add_argument("--families", nargs="+", default=["gnp"],
                              help="graph families (see 'repro-mis list')")
    sweep_parser.add_argument("--repetitions", type=int, default=2)
    sweep_parser.add_argument("--seed", type=int, default=1)
    _add_execution_arguments(sweep_parser,
                             jobs_help="workers for the grid "
                                       "(1 = in-process, 0 = one per CPU)")
    sweep_parser.add_argument("--output", metavar="FILE", default=None,
                              help="JSONL results store: persist every task "
                                   "result as it completes")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="skip tasks already recorded in --output "
                                   "and replay their stored metrics")

    experiment_parser = sub.add_parser("experiment",
                                       help="regenerate a paper experiment",
                                       epilog=_STORE_EPILOG)
    experiment_parser.add_argument("experiment_id",
                                   choices=available_experiments())
    experiment_parser.add_argument("--scale", default="default",
                                   choices=["smoke", "default", "full"])
    experiment_parser.add_argument("--seed", type=int, default=None)
    _add_execution_arguments(experiment_parser,
                             jobs_help="workers for the sweep-backed "
                                       "experiments E1-E5 and E9 (1 = "
                                       "in-process, 0 = one per CPU)")
    experiment_parser.add_argument("--output", metavar="FILE", default=None,
                                   help="JSONL results store for the "
                                        "sweep-backed experiments E1-E5 "
                                        "and E9 (E6-E8 refuse it)")
    experiment_parser.add_argument("--resume", action="store_true",
                                   help="skip tasks already recorded in "
                                        "--output")

    report_parser = sub.add_parser(
        "report",
        help="rebuild tables/fits from a results store without re-running",
        epilog="The store must have been written by 'repro-mis sweep "
               "--output' or 'repro-mis experiment --output'; a complete "
               "store reproduces the original run's table byte-for-byte.  "
               "--csv OUT "
               "additionally writes the table rows as CSV ('-' = stdout) "
               "for notebook-side analysis.",
    )
    report_parser.add_argument("store", metavar="FILE",
                               help="JSONL results store to read")
    report_parser.add_argument("--metric", default="awake_max",
                               help="metric for the growth-law fits "
                                    "(default: awake_max)")
    report_parser.add_argument("--csv", metavar="OUT", default=None,
                               help="also write the table rows as CSV to "
                                    "OUT ('-' = stdout)")

    worker_parser = sub.add_parser(
        "worker", help="run a sweep-task worker (socket transport)")
    worker_sub = worker_parser.add_subparsers(dest="worker_command")
    serve_parser = worker_sub.add_parser(
        "serve",
        help="serve sweep tasks over TCP for --backend socket",
        epilog="--slots N serves up to N coordinator connections "
               "concurrently from one serving process (dial them all "
               "with --workers host:port*N on the coordinator).  Each "
               "connection is handed to its own slot subprocess, so N "
               "slots donate N cores instead of time-slicing one GIL, "
               "and a task that kills its slot (exit 17 under fault "
               "injection) costs that connection, never the worker.  "
               "Slots never rebuild graphs the server already "
               "has: the serving process builds each (family, n, seed) "
               "graph once as flat CSR arrays in a shared-memory "
               "segment (named repro-csr-<pid>-<k>), and every slot "
               "maps it read-only, zero-copy.  Segments are owned by "
               "the serving process and unlinked exactly once — at LRU "
               "eviction (REPRO_GRAPH_CACHE entries, default 32) or at "
               "shutdown; a server start also reaps segments orphaned "
               "by a SIGKILL'd predecessor.  After a sweep finishes "
               "each slot loops back to accepting, so long-lived "
               "workers serve any number of sweeps.  The coordinator's "
               "handshake refuses a worker "
               "whose CODE_SCHEMA_VERSION differs from its own, and "
               "--max-connections only counts connections that actually "
               "served a task — a garbage peer cannot burn a bounded "
               "worker's budget.  The worker speaks the windowed "
               "protocol (its hello lists the 'window' and 'batch' "
               "features, and coordinators refuse a hello without "
               "them): coordinators may keep several frames in "
               "flight per connection and send tasks as lists in "
               "'tasks' frames (--window/--max-batch on the sweep side); "
               "each connection is still served sequentially, replying "
               "in order, so no worker-side tuning is needed.",
    )
    serve_parser.add_argument("--listen", metavar="HOST:PORT",
                              required=True,
                              help="address to listen on (port 0 = pick "
                                   "an ephemeral port and announce it on "
                                   "stderr; [IPV6]:PORT accepted)")
    serve_parser.add_argument("--slots", type=int, default=1, metavar="N",
                              help="serve up to N coordinator connections "
                                   "concurrently, each in its own slot "
                                   "subprocess mapping a shared read-only "
                                   "CSR graph cache (default: 1)")
    serve_parser.add_argument("--start-method",
                              choices=("fork", "spawn", "forkserver"),
                              default=None,
                              help="multiprocessing start method for "
                                   "the slot subprocesses (default: the "
                                   "platform default)")
    serve_parser.add_argument("--max-connections", type=int, default=None,
                              metavar="N",
                              help="exit after N >= 1 connections that "
                                   "served at least one task (default: "
                                   "serve forever)")

    store_parser = sub.add_parser(
        "store", help="maintenance tooling for results stores")
    store_sub = store_parser.add_subparsers(dest="store_command")
    merge_parser = store_sub.add_parser(
        "merge",
        help="compact stores of one sweep into a single fresh store file",
        epilog="Sources are stores of one sweep (partial resume files, "
               "overlapping copies); they must all belong to the same "
               "sweep configuration (mixed grids are refused).  Records "
               "are rewritten in planned-grid order "
               "with duplicates collapsed, so reporting or resuming from "
               "the merged store is byte-identical to using the sources. "
               "The sources are left untouched; delete them yourself "
               "once satisfied.",
    )
    merge_parser.add_argument("sources", metavar="SRC", nargs="+",
                              help="stores to merge")
    merge_parser.add_argument("--output", metavar="OUT", required=True,
                              help="fresh single-file store to write "
                                   "(must not already hold data)")

    sub.add_parser("figure", help="print the Figure 1/2 worked example")
    sub.add_parser("list", help="list algorithms, families and experiments")
    return parser


def _open_store(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Build the results store for --output/--resume (or None)."""
    if args.resume and not args.output:
        parser.error("--resume requires --output (the store to resume from)")
    return ResultStore(args.output) if args.output else None


def _compose_backend(args: argparse.Namespace):
    """Build the execution backend from the execution flags.

    With no flag given this is the jobs-driven default (serial for
    ``--jobs 1``, the process pool otherwise).  Raises
    :class:`~repro.errors.ConfigurationError` for an unrunnable
    composition — callers invoke this *before* opening the results store,
    so e.g. ``--backend socket`` with no workers configured fails fast
    without stamping a store header for a sweep that never starts.
    """
    return make_backend(backend=args.backend, scheduler=args.scheduler,
                        workers=args.workers, jobs=args.jobs,
                        window=args.window, max_batch=args.max_batch)


def _run_grid(parser: argparse.ArgumentParser, args: argparse.Namespace,
              run: Callable[..., Tuple[str, bool]]) -> int:
    """Run a ``sweep`` or ``experiment`` grid; returns the exit code.

    *run* takes the execution keywords (backend, store, resume,
    progress) and returns the text to print and whether it passed.  A
    :class:`~repro.errors.ConfigurationError` is an ``error:`` line and
    exit 2; ``--progress`` adds the telemetry table on stderr once the
    backend has run tasks (E6–E8 and a fully resumed store run none).
    """
    from repro.experiments.tables import format_telemetry

    store = None
    try:
        backend = _compose_backend(args)
        store = _open_store(parser, args)
        text, passed = run(backend=backend, store=store, resume=args.resume,
                           progress=(_progress_printer() if args.progress
                                     else None))
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    telemetry = backend.telemetry()
    # The graph-cache counters appear once a backend session has run.
    if args.progress and "graph_cache" in telemetry:
        print(format_telemetry(telemetry), file=sys.stderr, flush=True)
    print(text)
    return 0 if passed else 1


def _progress_printer():
    """Build the ``--progress`` callback: stderr-only progress lines.

    Prints roughly every 5% of the grid (and always the final task) so a
    long sweep shows life without flooding CI logs.  Strictly stderr:
    the stdout table must stay byte-identical with and without the flag
    (the cluster-smoke CI job diffs stdout across backends).
    """
    def progress(task, result, done, total):
        del result
        step = max(1, total // 20)
        if done == total or done % step == 0:
            percent = 100 * done // total
            print(f"progress: {done}/{total} tasks ({percent}%) — "
                  f"{task.algorithm} on {task.family} n={task.n}",
                  file=sys.stderr, flush=True)
    return progress


def _write_rows_csv(rows: List[dict], destination: str) -> None:
    """Write table rows as CSV to *destination* (``-`` = stdout)."""
    if not rows:
        return
    handle = sys.stdout if destination == "-" else open(
        destination, "w", newline="", encoding="utf-8")
    try:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if handle is not sys.stdout:
            handle.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``... | head``) ends the command
    quietly with status 1: no traceback, and no error at exit.
    """
    try:
        status = _run_command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at the
        # null device so that flush has nowhere to fail.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1
    return status


def _run_command(argv: Optional[List[str]]) -> int:
    """Parse *argv* and run its subcommand; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0 (1 = in-process, 0 = one per CPU)")

    if args.command == "run":
        from repro.experiments.tables import format_table

        try:
            graph = by_name(args.family, args.n, seed=args.seed)
            result = run_mis(graph, algorithm=args.algorithm, seed=args.seed)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(format_table([result.summary()],
                           title=f"{args.algorithm} on {args.family}(n={args.n})"))
        return 0 if result.verified else 1

    if args.command == "sweep":
        from repro.experiments.sweeps import run_sweep
        from repro.experiments.tables import render_sweep

        def sweep(**execution):
            result = run_sweep(algorithms=args.algorithms, sizes=args.sizes,
                               families=args.families,
                               repetitions=args.repetitions, seed=args.seed,
                               keep_runs=False, **execution)
            return (render_sweep(result, title="sweep results"),
                    result.all_verified)
        return _run_grid(parser, args, sweep)

    if args.command == "experiment":
        def experiment(**execution):
            report = run_experiment(args.experiment_id, scale=args.scale,
                                    seed=args.seed, **execution)
            return report.render(), report.passed
        return _run_grid(parser, args, experiment)

    if args.command == "worker":
        if args.worker_command != "serve":
            print("usage: repro-mis worker serve --listen HOST:PORT",
                  file=sys.stderr)
            return 2
        import signal

        from repro.experiments.worker import serve

        # SIGTERM (plain `kill`, fixture teardown) takes the same orderly
        # shutdown path as Ctrl-C: join/terminate slots, unlink every
        # shared graph segment exactly once.  SIGKILL is unmaskable; the
        # next worker to start reaps any segments it orphaned.  The old
        # handler comes back afterwards, for in-process callers.
        def _terminate(signum, frame):
            raise KeyboardInterrupt

        try:
            previous = signal.signal(signal.SIGTERM, _terminate)
        except (ValueError, OSError):
            previous = None  # not the main thread: SIGTERM stays default
        try:
            return serve(args.listen, max_connections=args.max_connections,
                         slots=args.slots, start_method=args.start_method)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)

    if args.command == "store":
        if args.store_command != "merge":
            print("usage: repro-mis store merge SRC [SRC ...] --output OUT",
                  file=sys.stderr)
            return 2
        try:
            written = merge_stores(args.sources, args.output)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"merged {len(args.sources)} store(s) into {args.output} "
              f"({written} result records)")
        return 0

    if args.command == "report":
        from repro.experiments.tables import render_sweep

        try:
            header, sweep = load_sweep_result(args.store)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if sweep.cells:
            known_metrics = sorted(
                key for key, value in sweep.cells[0].row().items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
                and key not in ("n", "runs")  # grid keys, not measurements
            )
            if args.metric not in known_metrics:
                print(f"error: unknown metric '{args.metric}'; known: "
                      f"{', '.join(known_metrics)}", file=sys.stderr)
                return 2
        config = header.get("sweep", {})
        # An interrupted sweep leaves a store with fewer records than its
        # header's grid implies; never present that as a finished sweep.
        recorded = sum(cell.run_count for cell in sweep.cells)
        expected = (len(config.get("algorithms", []))
                    * len(config.get("sizes", []))
                    * len(config.get("families", []))
                    * config.get("repetitions", 0))
        incomplete = expected > 0 and recorded < expected
        if incomplete:
            print(f"note: store is incomplete ({recorded} of {expected} "
                  "grid tasks recorded); resume the sweep with --resume to "
                  "finish it", file=sys.stderr)
        title = (f"stored sweep results ({args.store}; "
                 f"algorithms={config.get('algorithms')}, "
                 f"sizes={config.get('sizes')}"
                 + (f"; INCOMPLETE {recorded}/{expected} tasks" if incomplete
                    else "") + ")")
        print(render_sweep(sweep, title=title, fit_metric=args.metric))
        if args.csv is not None:
            _write_rows_csv(sweep.rows(), args.csv)
        return 0 if sweep.all_verified and not incomplete else 1

    if args.command == "figure":
        from repro.core.virtual_tree import figure_example
        from repro.experiments.tables import format_table

        example = figure_example()
        rows = [{"quantity": key, "value": value} for key, value in example.items()]
        print(format_table(rows, title="Figure 1 / Figure 2 worked example"))
        return 0

    if args.command == "list":
        print("algorithms :", ", ".join(available_algorithms()))
        print("families   :", ", ".join(sorted(FAMILIES)))
        print("backends   :", ", ".join(available_backends()))
        print("schedulers :", ", ".join(available_schedulers()))
        print("experiments:", ", ".join(available_experiments()))
        return 0

    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
