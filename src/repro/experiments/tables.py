"""Plain-text tables and series for experiment reports.

Everything the benchmarks and examples print goes through these helpers so
the output format is uniform: a fixed-width text table (readable in CI logs)
plus an optional CSV string for further processing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def format_table(rows: Sequence[Dict[str, Any]],
                 columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render *rows* (list of dicts) as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column])
                       for column in columns)
        )
    return "\n".join(lines)


def format_csv(rows: Sequence[Dict[str, Any]],
               columns: Optional[Sequence[str]] = None) -> str:
    """Render *rows* as CSV text."""
    rows = list(rows)
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(str(row.get(column, "")) for column in columns))
    return "\n".join(lines)


def format_series(series: Iterable[Tuple[Any, Any]], x_label: str = "n",
                  y_label: str = "value", title: str = "") -> str:
    """Render an (x, y) series as a small two-column table."""
    rows = [{x_label: x, y_label: y} for x, y in series]
    return format_table(rows, columns=[x_label, y_label], title=title)


def render_sweep(sweep, title: str = "sweep results",
                 fit_metric: str = "awake_max") -> str:
    """Render a sweep's rows plus its growth-law fits as one text block.

    Shared by ``repro-mis sweep`` (live results) and ``repro-mis report``
    (results rebuilt from an on-disk store), so both code paths print the
    same artefact for the same data.  *sweep* is anything exposing
    ``rows()`` and ``fits(metric)`` (a
    :class:`~repro.experiments.sweeps.SweepResult`).
    """
    parts = [format_table(sweep.rows(), title=title)]
    fits = sweep.fits(fit_metric)
    if fits:
        parts.append("")
        parts.append(format_table(fits, title=f"growth-law fits ({fit_metric})"))
    return "\n".join(parts)


def format_telemetry(telemetry: Dict[str, Any],
                     title: str = "transport telemetry") -> str:
    """Render a backend telemetry block as a per-worker text table.

    *telemetry* is the dict ``ComposedBackend.telemetry()`` /
    ``Transport.telemetry()`` returns (see :mod:`repro.experiments
    .telemetry`): per-worker RTT estimates and frame/ack/batch/requeue/
    reconnect/byte counters, plus transport-level restarts and the
    scheduler's requeue accounting.  The CLI prints this to *stderr*
    under ``--progress`` — the stdout table stays byte-identical with
    and without it.
    """
    if not telemetry:
        return f"{title}\n(no telemetry)"
    scheduler = telemetry.get("scheduler") or {}
    header = (f"{title} ({telemetry.get('transport', '?')} transport"
              + (f", {scheduler.get('name')} scheduler" if scheduler else "")
              + ")")
    graph_cache = telemetry.get("graph_cache")
    cache_line = ""
    if graph_cache:
        cache_line = ("graph cache"
                      f" hits={graph_cache.get('hits', 0)}"
                      f" misses={graph_cache.get('misses', 0)}"
                      f" evictions={graph_cache.get('evictions', 0)}"
                      f" shared_hits={graph_cache.get('shared_hits', 0)}"
                      f" maxsize={graph_cache.get('maxsize', 0)}")
    workers = telemetry.get("workers") or []
    if not workers:
        text = (f"{header}\n(no framed connections — per-connection "
                "counters exist only for the socket transport)")
        return f"{text}\n{cache_line}" if cache_line else text
    columns = ["worker", "connections", "frames_sent", "tasks_sent",
               "batches_sent", "acks", "slow_acks", "requeues",
               "reconnects", "srtt_ms", "rttvar_ms", "peak_window",
               "bytes_sent", "bytes_received"]
    if any(row.get("worker_pids") for row in workers):
        # With process-backed slots these are the slot subprocess pids —
        # one worker address may fan out to several executing processes.
        workers = [dict(row, worker_pids=",".join(
            str(pid) for pid in row.get("worker_pids") or [])) for row in workers]
        columns.insert(1, "worker_pids")
    parts = [format_table(workers, columns=columns, title=header)]
    summary = (f"transport restarts={telemetry.get('restarts', 0)} "
               f"peak_window={telemetry.get('peak_window', 1)}")
    if scheduler:
        summary += f" scheduler requeues={scheduler.get('requeues', 0)}"
    if cache_line:
        summary += f"\n{cache_line}"
    parts.append(summary)
    return "\n".join(parts)


def ascii_plot(series: Sequence[Tuple[float, float]], width: int = 48,
               label: str = "") -> str:
    """Render a crude horizontal-bar plot of an (x, y) series.

    Useful in terminal output to eyeball the growth shape (flat vs
    logarithmic vs linear) without any plotting dependency.
    """
    if not series:
        return "(empty series)"
    maximum = max(y for _, y in series) or 1.0
    lines = [label] if label else []
    for x, y in series:
        bar = "#" * max(1, int(round(width * (y / maximum)))) if y > 0 else ""
        lines.append(f"{str(x).rjust(8)} | {bar} {y}")
    return "\n".join(lines)
