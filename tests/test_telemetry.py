"""Unit tests for the RTT estimator and the telemetry counters.

The estimator's numbers *retune timing only* (slow-ack threshold, batch
flush hold) — the equivalence matrix in ``tests/test_executor.py`` pins
that they never touch a result byte.  Here we pin the numbers
themselves: Jacobson/Karels update rules, priming, the threshold floors,
and the counter/aggregation arithmetic every telemetry surface rests on.
"""

from __future__ import annotations

import pytest

from repro.experiments.telemetry import (
    FLUSH_HOLD_DEFAULT,
    FLUSH_HOLD_MAX,
    FLUSH_HOLD_MIN,
    RTT_ALPHA,
    RTT_BETA,
    RTT_MIN_THRESHOLD,
    RTT_PRIME_SAMPLES,
    ConnectionStats,
    RttEstimator,
    aggregate_by_worker,
)


class TestRttEstimator:
    def test_first_sample_initialises_srtt_and_half_variance(self):
        est = RttEstimator()
        est.observe(0.080)
        assert est.srtt == pytest.approx(0.080)
        assert est.rttvar == pytest.approx(0.040)
        assert est.samples == 1
        assert est.rto == pytest.approx(0.080 + 4 * 0.040)

    def test_update_rule_matches_jacobson_karels(self):
        """Second sample must follow the textbook EWMA pair, with rttvar
        updated against the *old* srtt."""
        est = RttEstimator()
        est.observe(0.100)
        est.observe(0.060)
        expected_rttvar = (1 - RTT_BETA) * 0.050 + RTT_BETA * abs(0.100 - 0.060)
        expected_srtt = (1 - RTT_ALPHA) * 0.100 + RTT_ALPHA * 0.060
        assert est.rttvar == pytest.approx(expected_rttvar)
        assert est.srtt == pytest.approx(expected_srtt)

    def test_converges_on_a_steady_link(self):
        """Constant 100ms samples: srtt locks to 100ms and the deviation
        decays towards zero (so rto tightens towards srtt)."""
        est = RttEstimator()
        for _ in range(50):
            est.observe(0.100)
        assert est.srtt == pytest.approx(0.100, rel=1e-6)
        assert est.rttvar < 0.0005
        assert est.rto == pytest.approx(0.100, rel=0.02)
        assert est.min_rtt == pytest.approx(0.100)
        assert est.max_rtt == pytest.approx(0.100)

    def test_latency_step_inflates_variance_then_decays(self):
        """A 10ms→100ms latency step: the deviation EWMA spikes (rto must
        exceed the new latency within a few samples, so in-flight acks at
        the new speed are not misread as congestion), then decays again
        once the link is steady at 100ms."""
        est = RttEstimator()
        for _ in range(20):
            est.observe(0.010)
        settled_var = est.rttvar
        for _ in range(5):
            est.observe(0.100)
        assert est.rttvar > settled_var * 5
        assert est.rto > 0.100
        for _ in range(200):
            est.observe(0.100)
        assert est.srtt == pytest.approx(0.100, rel=0.01)
        assert est.rttvar < 0.005
        assert est.min_rtt == pytest.approx(0.010)
        assert est.max_rtt == pytest.approx(0.100)

    def test_negative_samples_clamp_to_zero(self):
        """Clock oddities (monotonic is safe, but belt and braces) must
        not poison the EWMA with negative round trips."""
        est = RttEstimator()
        est.observe(-0.5)
        assert est.srtt == 0.0
        assert est.rttvar == 0.0
        assert est.min_rtt == 0.0

    def test_unprimed_estimator_derives_no_threshold(self):
        """Fewer than RTT_PRIME_SAMPLES acks → no slow-ack threshold (the
        transport falls back to 'nothing is slow') and the fixed default
        flush hold."""
        est = RttEstimator()
        for _ in range(RTT_PRIME_SAMPLES - 1):
            est.observe(0.020)
            assert est.slow_threshold() is None
            assert est.flush_hold() == FLUSH_HOLD_DEFAULT
        est.observe(0.020)
        assert est.primed
        assert est.slow_threshold() is not None

    def test_slow_threshold_floors(self):
        """Loopback-tight estimates floor at RTT_MIN_THRESHOLD; slower
        links floor at twice the smoothed RTT."""
        tight = RttEstimator()
        for _ in range(10):
            tight.observe(0.0001)
        assert tight.slow_threshold() == RTT_MIN_THRESHOLD

        slow = RttEstimator()
        for _ in range(50):
            slow.observe(0.200)
        # rto ≈ srtt once variance decays, so the 2*srtt floor rules.
        assert slow.slow_threshold() == pytest.approx(0.400, rel=0.02)

    def test_flush_hold_is_clamped(self):
        fast = RttEstimator()
        for _ in range(10):
            fast.observe(0.0)
        assert fast.flush_hold() == FLUSH_HOLD_MIN

        glacial = RttEstimator()
        for _ in range(10):
            glacial.observe(5.0)
        assert glacial.flush_hold() == FLUSH_HOLD_MAX

    def test_snapshot_shape(self):
        est = RttEstimator()
        snap = est.snapshot()
        assert snap["samples"] == 0
        assert snap["min_rtt_ms"] is None and snap["max_rtt_ms"] is None
        assert snap["primed"] is False
        est.observe(0.0125)
        snap = est.snapshot()
        assert snap == {"samples": 1, "srtt_ms": 12.5, "rttvar_ms": 6.25,
                        "rto_ms": 37.5, "min_rtt_ms": 12.5,
                        "max_rtt_ms": 12.5, "primed": False}
        for _ in range(RTT_PRIME_SAMPLES - 1):
            est.observe(0.0125)
        assert est.snapshot()["primed"] is True


class TestConnectionStats:
    def test_counters_accumulate(self):
        stats = ConnectionStats("w:1", 0)
        stats.note_send(1, 100)
        stats.note_send(3, 300)
        stats.note_ack(0.010, slow=False)
        stats.note_ack(0.050, slow=True)
        stats.note_bytes_received(64)
        stats.note_window(4)
        stats.note_window(2)
        stats.note_death(3)
        snap = stats.snapshot()
        assert snap["connection"] == "w:1" and snap["slot"] == 0
        assert snap["frames_sent"] == 2
        assert snap["tasks_sent"] == 4
        assert snap["batches_sent"] == 1  # only the 3-task frame batched
        assert snap["acks"] == 2 and snap["slow_acks"] == 1
        assert snap["bytes_sent"] == 400 and snap["bytes_received"] == 64
        assert snap["window"] == 2 and snap["peak_window"] == 4
        assert snap["reconnects"] == 1 and snap["requeues"] == 3
        assert snap["samples"] == 2

    def test_aggregate_by_worker_sums_and_weights(self):
        a0 = ConnectionStats("worker-a", 0)
        a1 = ConnectionStats("worker-a", 1)
        b0 = ConnectionStats("worker-b", 0)
        for _ in range(RTT_PRIME_SAMPLES):  # both connections primed
            a0.note_ack(0.010, slow=False)
            a1.note_ack(0.100, slow=False)
        a0.note_send(2, 200)
        a1.note_send(1, 50)
        a0.note_window(8)
        b0.note_send(1, 10)
        rows = aggregate_by_worker([a0.snapshot(), a1.snapshot(),
                                    b0.snapshot()])
        assert [row["worker"] for row in rows] == ["worker-a", "worker-b"]
        worker_a, worker_b = rows
        assert worker_a["connections"] == 2
        assert worker_a["frames_sent"] == 2
        assert worker_a["tasks_sent"] == 3
        assert worker_a["bytes_sent"] == 250
        assert worker_a["acks"] == 2 * RTT_PRIME_SAMPLES
        assert worker_a["peak_window"] == 8
        assert worker_a["rtt_samples"] == 2 * RTT_PRIME_SAMPLES
        # Sample-weighted mean over the two primed estimators: equal
        # sample counts at srtt 10ms and 100ms.
        assert worker_a["srtt_ms"] == pytest.approx((10 + 100) / 2,
                                                    abs=0.01)
        # An ack-less worker reports no RTT rather than a fake zero.
        assert worker_b["rtt_samples"] == 0
        assert worker_b["srtt_ms"] is None and worker_b["rttvar_ms"] is None


class TestEndToEndTelemetry:
    @pytest.mark.slow
    def test_socket_sweep_reports_real_counters(
            self, multislot_socket_worker):
        """A real windowed socket sweep must account for every task:
        acks == tasks sent == tasks planned, bytes flow both ways, and
        the estimator collects one sample per acked task."""
        from repro.experiments.backends import ComposedBackend
        from repro.experiments.executor import plan_sweep_tasks
        from repro.experiments.sweeps import run_sweep
        from repro.experiments.transports import SocketTransport

        grid = dict(algorithms=["luby"], sizes=[16], repetitions=6, seed=3)
        backend = ComposedBackend(
            transport=SocketTransport(multislot_socket_worker, window=4,
                                      max_batch=2), jobs=2)
        sweep = run_sweep(**grid, jobs=2, backend=backend)
        planned = len(plan_sweep_tasks(**grid))

        telemetry = sweep.telemetry
        assert telemetry is not None
        assert telemetry["transport"] == "socket"
        assert telemetry["scheduler"] == {"name": "fifo", "requeues": 0}
        rows = telemetry["workers"]
        assert rows, "windowed socket sweeps must report telemetry"
        total = {key: sum(row[key] for row in rows)
                 for key in ("tasks_sent", "acks", "frames_sent",
                             "bytes_sent", "bytes_received", "rtt_samples")}
        assert total["tasks_sent"] == planned
        # One reply (and one RTT sample) per task, even when several
        # tasks rode one batched frame.
        assert total["acks"] == planned
        assert total["rtt_samples"] == planned
        assert total["frames_sent"] <= planned
        assert total["bytes_sent"] > 0 and total["bytes_received"] > 0
        connections = telemetry["connections"]
        assert all(snap["samples"] == snap["acks"] for snap in connections)

    def test_single_slot_workers_account_for_every_task(self,
                                                         socket_workers):
        """Two single-slot workers (served in-process): one telemetry row
        per worker, each naming one pid, and acks == tasks planned."""
        from repro.experiments.backends import ComposedBackend
        from repro.experiments.executor import plan_sweep_tasks
        from repro.experiments.sweeps import run_sweep
        from repro.experiments.transports import SocketTransport

        grid = dict(algorithms=["luby"], sizes=[16], repetitions=4, seed=5)
        backend = ComposedBackend(transport=SocketTransport(socket_workers),
                                  jobs=2)
        sweep = run_sweep(**grid, backend=backend)
        rows = sweep.telemetry["workers"]
        assert len(rows) == 2
        assert all(len(row["worker_pids"]) == 1 for row in rows)
        planned = len(plan_sweep_tasks(**grid))
        assert sum(row["tasks_sent"] for row in rows) == planned
        assert sum(row["acks"] for row in rows) == planned

    def test_serial_sweep_reports_no_worker_rows(self):
        """The inline transport has no framed connections: telemetry is
        present but its worker table is empty (and format_telemetry says
        so instead of printing a header-only table)."""
        from repro.experiments.backends import resolve_backend
        from repro.experiments.sweeps import run_sweep
        from repro.experiments.tables import format_telemetry

        backend = resolve_backend("serial")
        sweep = run_sweep(algorithms=["luby"], sizes=[16], repetitions=2,
                          seed=3, backend=backend)
        telemetry = sweep.telemetry
        assert telemetry is not None
        assert telemetry["workers"] == []
        text = format_telemetry(telemetry)
        assert "no framed connections" in text


class TestPrimedWeighting:
    """Only primed estimators enter the worker RTT mean — and a genuine
    0.0 ms srtt is a measurement, not a missing value.

    Regression: aggregation used ``snap.get("srtt_ms") or 0.0``, which
    treated a legitimate zero srtt (loopback acks under the clock's
    resolution) as absent, and let a single-sample estimator's noisy
    srtt weigh into the mean alongside converged ones.
    """

    def _primed_zero(self, worker="w", slot=0):
        stats = ConnectionStats(worker, slot)
        for _ in range(RTT_PRIME_SAMPLES):
            stats.note_ack(0.0, slow=False)
        return stats

    def test_primed_zero_srtt_reports_zero_not_none(self):
        (row,) = aggregate_by_worker([self._primed_zero().snapshot()])
        assert row["srtt_ms"] == 0.0
        assert row["rttvar_ms"] == 0.0

    def test_unprimed_estimator_is_excluded_from_the_mean(self):
        noisy = ConnectionStats("w", 0)
        noisy.note_ack(5.0, slow=False)  # one wild 5000ms sample
        converged = ConnectionStats("w", 1)
        for _ in range(RTT_PRIME_SAMPLES):
            converged.note_ack(0.010, slow=False)
        (row,) = aggregate_by_worker([noisy.snapshot(),
                                      converged.snapshot()])
        # The unprimed outlier contributes samples to the count but not
        # to the mean: only the converged estimator weighs in.
        assert row["rtt_samples"] == RTT_PRIME_SAMPLES + 1
        assert row["srtt_ms"] == pytest.approx(10.0, abs=0.01)

    def test_all_unprimed_means_no_rtt_not_a_fabricated_one(self):
        stats = ConnectionStats("w", 0)
        stats.note_ack(0.010, slow=False)
        (row,) = aggregate_by_worker([stats.snapshot()])
        assert row["srtt_ms"] is None and row["rttvar_ms"] is None

    def test_legacy_snapshots_fall_back_to_the_sample_count(self):
        """Snapshots from an older worker lack ``primed``; priming is
        then inferred from the sample count so mixed fleets aggregate."""
        snap = self._primed_zero().snapshot()
        del snap["primed"]
        (row,) = aggregate_by_worker([snap])
        assert row["srtt_ms"] == 0.0


class TestWorkerPids:
    def test_note_peer_collects_distinct_pids_sorted(self):
        a0 = ConnectionStats("w", 0)
        a1 = ConnectionStats("w", 1)
        a0.note_peer(4002)
        a1.note_peer(4001)
        (row,) = aggregate_by_worker([a0.snapshot(), a1.snapshot()])
        assert row["worker_pids"] == [4001, 4002]

    def test_duplicate_and_missing_pids_collapse(self):
        a0 = ConnectionStats("w", 0)
        a1 = ConnectionStats("w", 1)
        a2 = ConnectionStats("w", 2)
        a0.note_peer(4001)
        a1.note_peer(4001)  # same slot process served both connections
        a2.note_peer(None)  # a hello without a pid stays absent
        (row,) = aggregate_by_worker([a0.snapshot(), a1.snapshot(),
                                      a2.snapshot()])
        assert row["worker_pids"] == [4001]
