"""Transport telemetry: RTT estimation and per-connection counters.

The socket transport (:mod:`repro.experiments.transports`) used to tune
its pipelining off a single hand-set constant (``ack_timeout``) and
reported almost nothing about what the pipeline actually did — at odds
with a reproduction whose whole point is *measuring* a cost dimension
other accountings ignore.  This module closes both gaps:

:class:`RttEstimator`
    The Jacobson/Karels smoothed round-trip estimator (the TCP-Reno
    idiom, RFC 6298 shape): an EWMA of the round-trip time (``srtt``,
    gain 1/8) plus an EWMA of its deviation (``rttvar``, gain 1/4),
    combined into a retransmission-timeout analogue
    ``rto = srtt + 4 * rttvar``.  One estimator per connection, fed one
    sample per acked frame; the transport derives its slow-ack threshold
    and batch-flush pacing from it instead of a fixed constant.
:class:`ConnectionStats`
    Per-connection counters (frames/tasks/batches sent, acks, requeues,
    reconnects, slow acks, bytes both ways, current/peak window) plus the
    connection's estimator.  Written by exactly one slot thread, read by
    anyone via :meth:`ConnectionStats.snapshot`.
:func:`aggregate_by_worker`
    Folds connection snapshots into one row per worker address — the
    per-worker stats table surfaced by ``--progress``, the sweep result
    and the benchmark matrix.

Telemetry is strictly observational and the RTT estimate only retunes
*timing* (when to halve a window, how long to hold a partial batch) —
neither can touch a result byte, which the equivalence matrix in
``tests/test_executor.py`` continues to pin.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

#: EWMA gain for the smoothed RTT (Jacobson/Karels' 1/8).
RTT_ALPHA = 0.125

#: EWMA gain for the RTT deviation (Jacobson/Karels' 1/4).
RTT_BETA = 0.25

#: Deviation multiplier in the timeout formula (``srtt + K * rttvar``).
RTT_K = 4.0

#: Samples required before the estimator is trusted to *retune* anything.
#: The first few round trips of a connection are polluted by one-time
#: costs (connect, handshake, first graph build), so thresholds derived
#: from them would thrash the window before the estimate settles.
RTT_PRIME_SAMPLES = 4

#: Floor for any RTT-derived threshold, in seconds.  Sub-millisecond
#: links (loopback) produce estimates so tight that scheduler
#: jitter alone would read as congestion; no real stall is shorter than
#: this.
RTT_MIN_THRESHOLD = 0.010

#: Bounds on the batch-flush hold (seconds): long enough to let in-flight
#: acks free window space for a fuller batch, never long enough to park a
#: partial batch behind one slow task.
FLUSH_HOLD_MIN = 0.001
FLUSH_HOLD_MAX = 0.25

#: Hold applied before the estimator is primed (seconds) — the same
#: order as the historical 1ms inbox cork.
FLUSH_HOLD_DEFAULT = 0.005


class RttEstimator:
    """Jacobson/Karels smoothed round-trip-time estimator.

    Classic TCP-Reno sender idiom: the first sample initialises
    ``srtt = sample`` and ``rttvar = sample / 2``; every later sample
    folds in as::

        rttvar = (1 - beta) * rttvar + beta * |srtt - sample|
        srtt   = (1 - alpha) * srtt + alpha * sample

    (deviation updated against the *old* srtt, per the original paper).
    ``rto`` is the ``srtt + 4 * rttvar`` timeout analogue the transport
    uses as its self-calibrated slow-ack threshold.
    """

    __slots__ = ("srtt", "rttvar", "samples", "min_rtt", "max_rtt")

    def __init__(self) -> None:
        self.srtt = 0.0
        self.rttvar = 0.0
        self.samples = 0
        self.min_rtt = math.inf
        self.max_rtt = 0.0

    def observe(self, sample: float) -> None:
        """Fold one measured round trip (seconds) into the estimate."""
        sample = max(0.0, float(sample))
        if self.samples == 0:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = ((1.0 - RTT_BETA) * self.rttvar
                           + RTT_BETA * abs(self.srtt - sample))
            self.srtt = (1.0 - RTT_ALPHA) * self.srtt + RTT_ALPHA * sample
        self.samples += 1
        if sample < self.min_rtt:
            self.min_rtt = sample
        if sample > self.max_rtt:
            self.max_rtt = sample

    @property
    def rto(self) -> float:
        """``srtt + K * rttvar`` — the raw timeout analogue (seconds)."""
        return self.srtt + RTT_K * self.rttvar

    @property
    def primed(self) -> bool:
        """Whether enough samples arrived to trust derived thresholds."""
        return self.samples >= RTT_PRIME_SAMPLES

    def slow_threshold(self) -> Optional[float]:
        """Self-calibrated slow-ack threshold, or ``None`` until primed.

        A blocked read longer than this reads as congestion (the worker
        or the link is saturated) and halves the window.  Floored at
        :data:`RTT_MIN_THRESHOLD` so loopback-tight estimates cannot
        read scheduler jitter as congestion, and never below twice the
        smoothed RTT — an ack cannot be "slow" at the speed acks
        normally arrive.
        """
        if not self.primed:
            return None
        return max(self.rto, 2.0 * self.srtt, RTT_MIN_THRESHOLD)

    def flush_hold(self) -> float:
        """How long a partial batch may wait for more window (seconds).

        While frames are in flight, holding a partial batch lets the acks
        that arrive meanwhile free window space so more tasks ride the
        same frame.  The productive hold is one deviation-padded round
        trip — any longer and the batch is waiting on a *task*, not on
        acks.  Before the estimator is primed a small fixed hold applies.
        """
        if not self.primed:
            return FLUSH_HOLD_DEFAULT
        return min(max(self.srtt + 2.0 * self.rttvar, FLUSH_HOLD_MIN),
                   FLUSH_HOLD_MAX)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary (milliseconds, rounded for readability).

        ``primed`` distinguishes a trustworthy smoothed RTT from a
        1-sample guess: aggregation weights only primed estimators into
        worker means, so one cold connection cannot drag a worker's
        reported latency around.
        """
        return {
            "samples": self.samples,
            "primed": self.primed,
            "srtt_ms": round(self.srtt * 1000.0, 3),
            "rttvar_ms": round(self.rttvar * 1000.0, 3),
            "rto_ms": round(self.rto * 1000.0, 3),
            "min_rtt_ms": (round(self.min_rtt * 1000.0, 3)
                           if self.samples else None),
            "max_rtt_ms": (round(self.max_rtt * 1000.0, 3)
                           if self.samples else None),
        }


class ConnectionStats:
    """Counters for one transport connection (one slot thread).

    Every field is written by exactly one slot thread; readers (the
    telemetry surfaces) only take :meth:`snapshot`, and a snapshot taken
    mid-sweep may be one frame stale — fine for observability, which is
    all this is.  No locks: single-writer plus atomic int/float reads.
    """

    __slots__ = ("label", "slot", "rtt", "frames_sent", "tasks_sent",
                 "batches_sent", "acks", "slow_acks", "requeues",
                 "reconnects", "bytes_sent", "bytes_received", "window",
                 "peak_window", "worker_pid")

    def __init__(self, label: str, slot: int) -> None:
        self.label = label
        self.slot = slot
        self.rtt = RttEstimator()
        self.frames_sent = 0
        self.tasks_sent = 0
        self.batches_sent = 0
        self.acks = 0
        self.slow_acks = 0
        self.requeues = 0
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.window = 1
        self.peak_window = 1
        self.worker_pid: Optional[int] = None

    def note_peer(self, pid: Optional[int]) -> None:
        """Record the serving peer's pid from its hello frame.

        With process-backed worker slots this is the *slot subprocess*
        pid (the hello is sent by whatever executes the tasks), so
        telemetry rows name the actual process doing the work — distinct
        from the worker's serving/accepting process.
        """
        if pid is not None:
            self.worker_pid = int(pid)

    def note_send(self, tasks_in_frame: int, nbytes: int) -> None:
        """One frame written, carrying *tasks_in_frame* tasks."""
        self.frames_sent += 1
        self.tasks_sent += tasks_in_frame
        if tasks_in_frame > 1:
            self.batches_sent += 1
        self.bytes_sent += nbytes

    def note_ack(self, rtt_sample: float, slow: bool) -> None:
        """One reply matched against the head of the window."""
        self.acks += 1
        if slow:
            self.slow_acks += 1
        self.rtt.observe(rtt_sample)

    def note_bytes_received(self, nbytes: int) -> None:
        self.bytes_received += nbytes

    def note_window(self, window: int) -> None:
        self.window = window
        if window > self.peak_window:
            self.peak_window = window

    def note_death(self, requeued_frames: int) -> None:
        """The connection died with *requeued_frames* frames in flight."""
        self.reconnects += 1
        self.requeues += requeued_frames

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dict of everything above (one telemetry row)."""
        return {
            "connection": self.label,
            "slot": self.slot,
            "frames_sent": self.frames_sent,
            "tasks_sent": self.tasks_sent,
            "batches_sent": self.batches_sent,
            "acks": self.acks,
            "slow_acks": self.slow_acks,
            "requeues": self.requeues,
            "reconnects": self.reconnects,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "window": self.window,
            "peak_window": self.peak_window,
            "worker_pid": self.worker_pid,
            **self.rtt.snapshot(),
        }


def aggregate_by_worker(
    connections: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Fold connection snapshots into one row per worker address.

    Counters sum; windows take the max; the smoothed RTT becomes a
    sample-weighted mean over the worker's *primed* connections (a plain
    mean would let an idle connection's cold estimate drag a busy one's
    down, and an unprimed 1-sample guess is noise, not signal — see
    :meth:`RttEstimator.snapshot`).  A primed srtt of 0.0 ms is a
    legitimate measurement on a loopback-fast link and is averaged in
    like any other (missing values are ``None``, never falsy-zero).
    ``worker_pids`` collects the pids that served the worker's
    connections — with process slots, one per slot subprocess.  Rows
    come back sorted by worker label so every surface prints them in a
    stable order.
    """
    workers: Dict[str, Dict[str, Any]] = {}
    weighted: Dict[str, List[float]] = {}
    for snap in connections:
        label = snap.get("connection", "?")
        row = workers.get(label)
        if row is None:
            row = workers[label] = {
                "worker": label, "connections": 0, "frames_sent": 0,
                "tasks_sent": 0, "batches_sent": 0, "acks": 0,
                "slow_acks": 0, "requeues": 0, "reconnects": 0,
                "bytes_sent": 0, "bytes_received": 0, "peak_window": 1,
                "rtt_samples": 0, "worker_pids": [],
            }
            weighted[label] = [0.0, 0.0, 0.0]  # srtt*w, rttvar*w, weight
        row["connections"] += 1
        for key in ("frames_sent", "tasks_sent", "batches_sent", "acks",
                    "slow_acks", "requeues", "reconnects", "bytes_sent",
                    "bytes_received"):
            row[key] += int(snap.get(key, 0))
        row["peak_window"] = max(row["peak_window"],
                                 int(snap.get("peak_window", 1)))
        pid = snap.get("worker_pid")
        if pid is not None and pid not in row["worker_pids"]:
            row["worker_pids"].append(pid)
        samples = int(snap.get("samples", 0))
        row["rtt_samples"] += samples
        # Weight only primed estimators (snapshots predating the field
        # fall back to the priming threshold on their sample count), and
        # never treat a measured 0.0 as missing.
        primed = snap.get("primed")
        if primed is None:
            primed = samples >= RTT_PRIME_SAMPLES
        srtt = snap.get("srtt_ms")
        if primed and srtt is not None and samples > 0:
            rttvar = snap.get("rttvar_ms")
            weighted[label][0] += float(srtt) * samples
            weighted[label][1] += (float(rttvar) * samples
                                   if rttvar is not None else 0.0)
            weighted[label][2] += samples
    for label, row in workers.items():
        row["worker_pids"].sort()
        weight = weighted[label][2]
        row["srtt_ms"] = (round(weighted[label][0] / weight, 3)
                          if weight else None)
        row["rttvar_ms"] = (round(weighted[label][1] / weight, 3)
                            if weight else None)
    return [workers[label] for label in sorted(workers)]
