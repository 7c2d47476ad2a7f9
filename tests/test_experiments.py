"""Tests for sweeps, tables, fitting, statistics and the experiment registry."""

from __future__ import annotations

import pytest

from repro.analysis import fitting, stats
from repro.analysis.components import (
    run_shattering_experiment,
    undersized_partition_failure,
)
from repro.analysis.residual import run_residual_experiment
from repro.experiments import registry
from repro.experiments.backends import make_backend
from repro.experiments.sweeps import run_sweep
from repro.experiments.tables import ascii_plot, format_csv, format_series, format_table
from repro.graphs import generators


class TestStats:
    def test_summarize_basic(self):
        summary = stats.summarize([1, 2, 3, 4])
        assert summary.mean == 2.5
        assert summary.minimum == 1 and summary.maximum == 4
        assert summary.median == 2.5
        assert summary.as_dict()["count"] == 4

    def test_summarize_empty(self):
        assert stats.summarize([]).count == 0

    def test_percentile(self):
        values = list(range(1, 11))
        assert stats.percentile(values, 0) == 1
        assert stats.percentile(values, 100) == 10
        assert stats.percentile(values, 50) == pytest.approx(5.5)
        with pytest.raises(ValueError):
            stats.percentile(values, 120)

    def test_geometric_sizes(self):
        assert stats.geometric_sizes(4, 32) == [4, 8, 16, 32]
        with pytest.raises(ValueError):
            stats.geometric_sizes(0, 8)


class TestFitting:
    def test_log_series_fits_log(self):
        import math

        ns = [64, 128, 256, 512, 1024]
        values = [3 * math.log2(n) + 2 for n in ns]
        best = fitting.best_fit(ns, values)
        assert best.law == "log(n)"
        assert best.r_squared > 0.999

    def test_linear_series_fits_n(self):
        ns = [32, 64, 128, 256]
        values = [2 * n + 5 for n in ns]
        assert fitting.best_fit(ns, values).law == "n"

    def test_flat_series(self):
        ns = [32, 64, 128, 256]
        values = [7, 7, 7, 7]
        best = fitting.best_fit(ns, values)
        assert best.law in ("constant", "loglog(n)")

    def test_loglog_series(self):
        import math

        ns = [2**k for k in range(4, 13)]
        values = [5 * math.log2(math.log2(n)) + 1 for n in ns]
        assert fitting.best_fit(ns, values).law == "loglog(n)"

    def test_fit_validation(self):
        with pytest.raises(KeyError):
            fitting.fit_law([1, 2], [1, 2], "cubic")
        with pytest.raises(ValueError):
            fitting.fit_law([1], [1], "log(n)")

    def test_growth_ratio(self):
        assert fitting.growth_ratio([1, 2, 3], [2, 3, 8]) == 4.0
        assert fitting.growth_ratio([], []) == 1.0

    def test_fit_report_keys(self):
        report = fitting.fit_report([10, 100, 1000], [1, 2, 3])
        assert {"best_law", "scale", "offset", "r_squared",
                "growth_ratio"} <= set(report)


class TestTables:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "22" in text and "a" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_csv(self):
        rows = [{"a": 1, "b": 2}]
        assert format_csv(rows) == "a,b\n1,2"
        assert format_csv([]) == ""

    def test_format_series(self):
        text = format_series([(1, 2), (3, 4)], x_label="n", y_label="awake")
        assert "awake" in text and "3" in text

    def test_ascii_plot(self):
        text = ascii_plot([(10, 1), (20, 4)], width=8, label="demo")
        assert "demo" in text
        assert text.count("#") >= 3
        assert ascii_plot([]) == "(empty series)"


class TestSweeps:
    def test_small_sweep(self):
        sweep = run_sweep(
            algorithms=["luby", "vt_mis"],
            sizes=[16, 32],
            families=("gnp",),
            repetitions=1,
            seed=1,
        )
        assert sweep.all_verified
        rows = sweep.rows()
        assert len(rows) == 4
        assert {row["algorithm"] for row in rows} == {"luby", "vt_mis"}
        series = sweep.series("luby", "gnp")
        assert [n for n, _ in series] == [16, 32]

    def test_sweep_fits_produced_with_enough_sizes(self):
        sweep = run_sweep(
            algorithms=["luby"],
            sizes=[16, 32, 64],
            families=("gnp",),
            repetitions=1,
            seed=2,
        )
        fits = sweep.fits("awake_max")
        assert len(fits) == 1
        assert fits[0]["algorithm"] == "luby"


    def test_cell_runs_are_not_a_constructor_argument(self):
        """Runs enter a cell only through ``add``, which also folds them
        into the counters."""
        from repro.experiments.sweeps import SweepCell

        with pytest.raises(TypeError, match="runs"):
            SweepCell("luby", "gnp", 16, runs=[])
        cell = SweepCell("luby", "gnp", 16)
        assert cell.runs == [] and cell.run_count == 0


class TestAnalysisExperiments:
    def test_residual_experiment(self):
        graph = generators.gnp_graph(256, expected_degree=10, seed=3)
        result = run_residual_experiment(graph, trials=2, seed=4)
        assert result.all_within_bound
        assert all("lemma2_bound" in row for row in result.rows())

    def test_shattering_experiment(self):
        result = run_shattering_experiment(n=400, degrees=(4, 8), trials=2, seed=5)
        assert result.all_within_bound
        assert len(result.rows()) == 2

    def test_undersized_partition_control(self):
        measurements = undersized_partition_failure(n=600, degree=12,
                                                    classes=2, trials=2, seed=6)
        assert any(not m.within_bound for m in measurements)


class TestRegistry:
    def test_available_experiments(self):
        assert registry.available_experiments() == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            registry.run_experiment("E99")

    def test_e8_passes(self):
        report = registry.run_experiment("E8")
        assert report.passed
        assert "S_3" in str(report.rows)

    def test_only_sweep_experiments_take_a_store(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.experiments.store import ResultStore

        assert registry.SWEEP_EXPERIMENTS == {"E1", "E2", "E3", "E4", "E5",
                                              "E9"}
        path = tmp_path / "e8.jsonl"
        with pytest.raises(ConfigurationError,
                           match="E8 runs no sweep.*E1, E2, E3, E4, E5, E9"):
            registry.run_experiment("E8", store=ResultStore(path))
        with pytest.raises(ConfigurationError, match="E7 runs no sweep"):
            registry.run_experiment("E7", resume=True)
        assert not path.exists()
        # backend/progress stay inert for them.
        assert registry.run_experiment("E8", backend=make_backend(jobs=2),
                                       progress=print).passed

    def test_e6_smoke(self):
        report = registry.run_experiment("E6", scale="smoke", seed=1)
        assert report.passed
        assert report.rows

    def test_e7_smoke(self):
        report = registry.run_experiment("E7", scale="smoke", seed=2)
        assert report.passed

    def test_e4_smoke(self):
        report = registry.run_experiment("E4", scale="smoke", seed=3)
        assert report.rows
        assert report.render().startswith("== E4")

    def test_e1_smoke(self):
        report = registry.run_experiment("E1", scale="smoke", seed=4)
        assert report.passed
        assert any(row["algorithm"] == "awake_mis" for row in report.rows)

    def test_e3_smoke(self):
        report = registry.run_experiment("E3", scale="smoke", seed=3)
        assert report.passed
        assert report.rows
        assert all(row["rounds_max"] <= row["round_bound"]
                   for row in report.rows)

    def test_round_bound_violation_is_a_named_check(self):
        from types import SimpleNamespace

        from repro.algorithms.awake_mis import AwakeMISParameters
        from repro.experiments.sweeps import SweepResult

        sweep = SweepResult()
        for n, over in ((32, 0), (64, 1)):
            bound = AwakeMISParameters.scaled(n).total_rounds
            metrics = SimpleNamespace(awake_complexity=9,
                                      round_complexity=bound + over,
                                      node_averaged_awake=5.0)
            sweep.cell_for("awake_mis", "gnp", n, keep_runs=False).add(
                SimpleNamespace(verified=True, mis={1}, metrics=metrics))
        report = registry.round_bound_report(sweep)
        assert not report.passed
        assert "status      : CHECK" in report.render()
        bound = AwakeMISParameters.scaled(64).total_rounds
        assert report.notes == (
            f"round bound exceeded: n=64 family=gnp rounds_max={bound + 1}"
            f" > round_bound={bound}")
        assert [row["rounds_max"] - row["round_bound"]
                for row in report.rows] == [0, 1]

    @staticmethod
    def _awake_sweep(cells):
        """A sweep of ``awake_mis`` cells, one run each, from
        ``(n, rounds_over_the_bound, verified)`` triples."""
        from types import SimpleNamespace

        from repro.algorithms.awake_mis import AwakeMISParameters
        from repro.experiments.sweeps import SweepResult

        sweep = SweepResult()
        for n, over, verified in cells:
            bound = AwakeMISParameters.scaled(n).total_rounds
            metrics = SimpleNamespace(awake_complexity=9,
                                      round_complexity=bound + over,
                                      node_averaged_awake=5.0)
            sweep.cell_for("awake_mis", "gnp", n, keep_runs=False).add(
                SimpleNamespace(verified=verified, mis={1}, metrics=metrics))
        return sweep

    def test_round_bound_met_exactly_passes(self):
        report = registry.round_bound_report(
            self._awake_sweep([(32, 0, True), (64, 0, True)]))
        assert report.passed
        assert report.notes == ""
        assert all(row["rounds_max"] == row["round_bound"]
                   for row in report.rows)

    def test_every_round_bound_violation_is_named(self):
        from repro.algorithms.awake_mis import AwakeMISParameters

        report = registry.round_bound_report(
            self._awake_sweep([(32, 2, True), (64, 1, True)]))
        assert not report.passed
        assert report.notes == "; ".join(
            f"round bound exceeded: n={n} family=gnp rounds_max={bound + over}"
            f" > round_bound={bound}"
            for n, over in ((32, 2), (64, 1))
            for bound in [AwakeMISParameters.scaled(n).total_rounds])

    def test_unverified_run_fails_within_the_round_bound(self):
        report = registry.round_bound_report(
            self._awake_sweep([(32, 0, False)]))
        assert not report.passed
        assert report.notes == ""

    @staticmethod
    def _fake_grid(monkeypatch, awake, averaged=lambda algorithm, n: 5.0):
        """Make ``run_sweep`` return a fabricated grid over the requested
        algorithms, families and sizes: one verified run per cell, with
        ``awake(algorithm, n)`` as its awake complexity and
        ``averaged(algorithm, n)`` as its node-averaged awake complexity."""
        from types import SimpleNamespace

        from repro.experiments import sweeps

        def fake_run_sweep(**kwargs):
            sweep = sweeps.SweepResult()
            for algorithm in kwargs["algorithms"]:
                for family in kwargs["families"]:
                    for n in kwargs["sizes"]:
                        metrics = SimpleNamespace(
                            awake_complexity=awake(algorithm, n),
                            round_complexity=n,
                            node_averaged_awake=averaged(algorithm, n))
                        sweep.cell_for(algorithm, family, n,
                                       keep_runs=False).add(SimpleNamespace(
                                           verified=True, mis={1},
                                           metrics=metrics))
            return sweep

        monkeypatch.setattr(sweeps, "run_sweep", fake_run_sweep)

    def test_e1_linear_awake_growth_is_a_check(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: n)
        report = registry.run_experiment("E1", scale="default")
        assert {fit["best_law"] for fit in report.fits} == {"n"}
        assert not report.passed

    def test_e1_flat_awake_growth_passes(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: 9)
        report = registry.run_experiment("E1", scale="default")
        assert {fit["best_law"] for fit in report.fits} == {"constant"}
        assert report.passed

    def test_e4_linear_naive_and_flat_vt_passes(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n:
                        n if algorithm == "naive_greedy" else 9)
        report = registry.run_experiment("E4", scale="default")
        assert {(fit["algorithm"], fit["best_law"]) for fit in report.fits} \
            == {("naive_greedy", "n"), ("vt_mis", "constant")}
        assert report.passed

    def test_e4_flat_naive_is_a_check(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: 9)
        assert not registry.run_experiment("E4", scale="default").passed

    def test_e4_linear_vt_is_a_check(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: n)
        assert not registry.run_experiment("E4", scale="default").passed

    def test_e9_is_judged_on_the_node_averaged_measure(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: n,
                        averaged=lambda algorithm, n: 5.0)
        assert registry.run_experiment("E9", scale="default").passed
        self._fake_grid(monkeypatch, lambda algorithm, n: 9,
                        averaged=lambda algorithm, n: float(n))
        report = registry.run_experiment("E9", scale="default")
        assert all(fit["metric"] == "avg_awake_mean" for fit in report.fits)
        assert not report.passed

    def test_e2_and_e5_fits_are_not_judged(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: n)
        for key in ("E2", "E5"):
            report = registry.run_experiment(key, scale="default")
            assert {fit["best_law"] for fit in report.fits} == {"n"}
            assert report.passed

    def test_two_size_grid_is_not_judged(self, monkeypatch):
        self._fake_grid(monkeypatch, lambda algorithm, n: n,
                        averaged=lambda algorithm, n: float(n))
        for key in ("E1", "E4", "E9"):
            report = registry.run_experiment(key, scale="smoke")
            assert len({row["n"] for row in report.rows}) == 2
            assert report.passed

    def test_e9_smoke(self):
        report = registry.run_experiment("E9", scale="smoke", seed=5)
        assert report.passed
        assert {row["algorithm"] for row in report.rows} == {"awake_mis",
                                                             "luby"}
        assert all(fit["metric"] == "avg_awake_mean" for fit in report.fits)

    def test_e9_resumes_from_store(self, tmp_path):
        from repro.experiments.store import ResultStore

        path = tmp_path / "e9.jsonl"
        first = registry.run_experiment("E9", scale="smoke", seed=5,
                                        store=ResultStore(path))
        resumed = registry.run_experiment("E9", scale="smoke", seed=5,
                                          store=ResultStore(path), resume=True)
        assert repr(resumed.rows) == repr(first.rows)
        assert resumed.fits == first.fits
