"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from typing import ClassVar, List

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "awake_mis" in out and "E8" in out
        assert "backends   : process, serial, socket\n" in out
        assert "schedulers" in out and "large-first" in out
        assert "transports" not in out

    def test_figure(self, capsys):
        assert main(["figure"]) == 0
        out = capsys.readouterr().out
        assert "S_3" in out and "[3, 4, 5]" in out

    def test_run_luby(self, capsys):
        assert main(["run", "--algorithm", "luby", "--family", "gnp",
                     "--n", "32", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "awake_complexity" in out

    def test_run_vt_mis(self, capsys):
        assert main(["run", "--algorithm", "vt_mis", "--family", "cycle",
                     "--n", "24", "--seed", "2"]) == 0

    def test_sweep(self, capsys):
        code = main(["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                     "--families", "gnp", "--repetitions", "1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep results" in out

    def test_sweep_parallel_matches_serial(self, capsys):
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_experiment_e8(self, capsys):
        assert main(["experiment", "E8"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_experiment_accepts_jobs(self, capsys):
        assert main(["experiment", "E8", "--jobs", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_progress_prints_telemetry_only_for_a_grid_that_ran(self,
                                                                capsys):
        # E8 runs no grid, so it has no transport table to print.
        assert main(["experiment", "E8", "--jobs", "2", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert captured.err == ""
        assert main(["experiment", "E1", "--scale", "smoke",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "transport telemetry (inline transport" in err
        assert "graph cache hits=" in err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "bogus"])

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithms", "luby", "--sizes", "16",
                  "--jobs", "-2"])
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithms", "luby", "--sizes", "16",
                  "--backend", "cluster"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["serial", "process", "socket"])
    def test_sweep_backend_output_matches_default(self, backend, capsys,
                                                  request, monkeypatch):
        if backend == "socket":
            from repro.experiments.backends import SOCKET_WORKERS_ENV

            monkeypatch.setenv(SOCKET_WORKERS_ENV,
                               request.getfixturevalue("socket_workers"))
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--backend", backend, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == default_out

    @pytest.mark.parametrize("extra", [["--scheduler", "large-first"],
                                       ["--scheduler", "large-first",
                                        "--jobs", "2"],
                                       ["--scheduler", "large-first",
                                        "--backend", "process", "--jobs",
                                        "2"],
                                       ["--scheduler", "cost-model"],
                                       ["--scheduler", "cost-model",
                                        "--backend", "process", "--jobs",
                                        "2"],
                                       ["--scheduler", "large-first",
                                        "--backend", "serial"],
                                       ["--scheduler", "cost-model",
                                        "--backend", "serial"]])
    def test_sweep_scheduler_flags_never_change_output(
            self, extra, capsys):
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == default_out

    def test_sweep_over_socket_workers_matches_default(self, socket_workers,
                                                       capsys):
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--backend", "socket",
                            "--workers", socket_workers]) == 0
        assert capsys.readouterr().out == default_out
        # --workers alone implies the socket transport.
        assert main([*argv, "--workers", socket_workers]) == 0
        assert capsys.readouterr().out == default_out

    def test_unknown_scheduler_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithms", "luby", "--sizes", "16",
                  "--scheduler", "smallest-first"])
        assert "invalid choice" in capsys.readouterr().err

    def test_workers_with_non_socket_backend_renders_error(self, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1", "--backend", "process",
                     "--workers", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--workers" in err

    def test_socket_backend_without_workers_renders_error(self, capsys,
                                                          monkeypatch):
        from repro.experiments.backends import SOCKET_WORKERS_ENV

        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1", "--backend", "socket"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "worker addresses" in err

    def test_socket_without_workers_fails_fast_naming_flag_and_env(
            self, tmp_path, capsys, monkeypatch):
        """The fail-fast satellite: --backend socket with neither
        --workers nor REPRO_WORKERS must error out *before* the results
        store is touched, and the message must name both ways to fix
        it."""
        from repro.experiments.backends import SOCKET_WORKERS_ENV

        monkeypatch.delenv(SOCKET_WORKERS_ENV, raising=False)
        out_path = tmp_path / "never-created.jsonl"
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1", "--backend", "socket",
                     "--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--workers" in err
        assert SOCKET_WORKERS_ENV in err
        # Fail-fast means no store header was stamped for a sweep that
        # never started.
        assert not out_path.exists()

    def test_sweep_over_multislot_worker_matches_default(
            self, multislot_socket_worker, capsys):
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--scheduler", "cost-model",
                            "--workers", multislot_socket_worker]) == 0
        assert capsys.readouterr().out == default_out

    def test_sweep_with_windowed_socket_matches_default(
            self, multislot_socket_worker, capsys):
        """--window/--max-batch are wall-clock-only flags: a pipelined,
        batched socket sweep prints the exact bytes of the default run."""
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "2", "--seed", "3"]
        assert main(argv) == 0
        default_out = capsys.readouterr().out
        assert main([*argv, "--workers", multislot_socket_worker,
                            "--window", "adaptive", "--max-batch", "8"]) == 0
        assert capsys.readouterr().out == default_out
        assert main([*argv, "--workers", multislot_socket_worker,
                            "--window", "4"]) == 0
        assert capsys.readouterr().out == default_out

    def test_window_with_non_socket_backend_renders_error(self, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1", "--backend", "process",
                     "--window", "4"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--window/--max-batch" in err

    def test_invalid_window_value_renders_error(self, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1", "--workers", "127.0.0.1:1",
                     "--window", "turbo"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "invalid window" in err

    def test_sweep_rejects_out_of_range_worker_port(self, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--repetitions", "1",
                     "--workers", "127.0.0.1:99999"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "out of range" in err
        assert "--workers" in err

    def test_worker_serve_rejects_out_of_range_listen_port(self, capsys):
        assert main(["worker", "serve",
                     "--listen", "127.0.0.1:99999"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "out of range" in err
        assert "--listen" in err

    def test_worker_serve_invalid_slots_renders_error(self, capsys):
        assert main(["worker", "serve", "--listen", "127.0.0.1:0",
                     "--slots", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "slots" in err

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_worker_serve_invalid_max_connections_renders_error(
            self, bad, capsys):
        """--max-connections 0 used to announce 'listening on' and exit 0
        without serving; a script waiting for that line dialled a dead
        port.  It is refused before binding, like --slots 0."""
        assert main(["worker", "serve", "--listen", "127.0.0.1:0",
                     "--max-connections", bad]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "max_connections" in err
        assert "listening on" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--algorithms", "luby", "--sizes", "16",
         "--transport", "socket"],
        ["worker", "serve", "--listen", "127.0.0.1:0",
         "--slot-mode", "thread"]], ids=["transport", "slot-mode"])
    def test_removed_execution_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and argv[-2] in err

    def test_worker_serve_requires_listen(self, capsys):
        # There is no stdio mode any more: a worker only serves over TCP.
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "serve", "--slots", "2"])
        assert excinfo.value.code == 2
        assert "--listen" in capsys.readouterr().err

    @staticmethod
    def _help_options(argv, capsys):
        import re

        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        return set(re.findall(r"--[a-z][a-z-]*", usage))

    def test_help_lists_exactly_the_kept_flags(self, capsys):
        assert self._help_options(["sweep"], capsys) == {
            "--algorithms", "--sizes", "--families",
            "--repetitions", "--seed", "--jobs", "--backend", "--scheduler",
            "--workers", "--window", "--max-batch", "--progress",
            "--output", "--resume"}
        assert self._help_options(["worker", "serve"], capsys) == {
            "--listen", "--slots", "--start-method",
            "--max-connections"}

    def test_progress_reports_telemetry_on_the_default_backend(self,
                                                               capsys):
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--progress"]) == 0
        progressed = capsys.readouterr()
        assert progressed.out == plain.out
        assert "graph cache hits=" in progressed.err
        assert "unavailable" not in progressed.err

    @pytest.mark.parametrize("backend", ["serial", "process", "socket"])
    def test_progress_never_changes_output_on_any_backend(
            self, backend, capsys, request, monkeypatch):
        if backend == "socket":
            from repro.experiments.backends import SOCKET_WORKERS_ENV

            monkeypatch.setenv(SOCKET_WORKERS_ENV,
                               request.getfixturevalue("socket_workers"))
        argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                "--families", "gnp", "--repetitions", "1", "--seed", "3",
                "--backend", backend, "--jobs", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--progress"]) == 0
        progressed = capsys.readouterr()
        assert progressed.out == plain.out
        assert "graph cache hits=" in progressed.err
        framed = "no framed connections" not in progressed.err
        assert framed == (backend == "socket")

    def test_worker_serve_invalid_listen_address_renders_error(self,
                                                               capsys):
        assert main(["worker", "serve", "--listen", "[::1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "invalid listen address" in err

    def test_worker_without_subcommand_prints_usage(self, capsys):
        assert main(["worker"]) == 2
        assert "worker serve" in capsys.readouterr().err

    def test_store_without_subcommand_prints_usage(self, capsys):
        assert main(["store"]) == 2
        assert "store merge" in capsys.readouterr().err

    def test_worker_serve_bad_listen_address_renders_error(self, capsys):
        assert main(["worker", "serve", "--listen", "nonsense"]) == 2
        assert "invalid listen address" in capsys.readouterr().err


class TestCLIFamilyErrors:
    """The `by_name` KeyError drift fix: the CLI must render a clean
    `error: unknown graph family ...` line — no repr quoting, with the
    known families listed — instead of a traceback or a mangled KeyError.
    """

    def test_run_unknown_family_renders_cleanly(self, capsys):
        assert main(["run", "--family", "bogus", "--n", "16"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown graph family 'bogus'" in err
        assert "known:" in err and "gnp" in err
        assert '"unknown graph family' not in err  # no KeyError repr-quoting

    def test_sweep_unknown_family_renders_cleanly(self, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--families", "nope", "--repetitions", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown graph family 'nope'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [["--jobs", "2"],
                                       ["--backend", "process"]])
    def test_sweep_unknown_family_renders_cleanly_on_every_backend(
            self, extra, capsys):
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                     "--families", "nope", "--repetitions", "1"]
                    + extra) == 2
        err = capsys.readouterr().err
        assert "error: unknown graph family 'nope'" in err

    def test_unknown_family_fails_before_touching_the_store(self, tmp_path,
                                                            capsys):
        # A typo'd grid must error before the store header is stamped —
        # otherwise the --output file is poisoned for the corrected rerun.
        path = tmp_path / "out.jsonl"
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--families", "nope", "--repetitions", "1",
                     "--output", str(path)]) == 2
        assert "unknown graph family" in capsys.readouterr().err
        assert not path.exists()
        assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                     "--families", "gnp", "--repetitions", "1",
                     "--output", str(path)]) == 0


class TestCLIStore:
    SWEEP: ClassVar[List[str]] = [
        "sweep", "--algorithms", "luby", "--sizes", "16", "24",
        "--families", "gnp", "--repetitions", "1", "--seed", "3"]

    def test_output_resume_report_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main(self.SWEEP) == 0
        plain_out = capsys.readouterr().out

        assert main([*self.SWEEP, "--output", path]) == 0
        stored_out = capsys.readouterr().out
        assert stored_out == plain_out

        # Resuming a complete store re-executes nothing and reprints the
        # same table.
        assert main([*self.SWEEP, "--output", path, "--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out == plain_out

        # report rebuilds rows and fits from disk alone.
        assert main(["report", path]) == 0
        report_out = capsys.readouterr().out
        assert "stored sweep results" in report_out
        for line in plain_out.splitlines():
            if "luby" in line:
                assert line in report_out

    def test_resume_requires_output(self, capsys):
        with pytest.raises(SystemExit):
            main([*self.SWEEP, "--resume"])
        assert "--resume requires --output" in capsys.readouterr().err

    def test_fresh_run_on_existing_store_errors(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main([*self.SWEEP, "--output", path]) == 0
        capsys.readouterr()
        assert main([*self.SWEEP, "--output", path]) == 2
        assert "resume" in capsys.readouterr().err

    def test_report_missing_store_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "results store" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "experiment", "report",
                                         "merge"])
    def test_directory_store_path_errors_cleanly(self, tmp_path, capsys,
                                                 command):
        directory = tmp_path / "results"
        directory.mkdir()
        argv = {
            "sweep": [*self.SWEEP, "--output", str(directory)],
            "experiment": ["experiment", "E1", "--scale", "smoke",
                           "--output", str(directory)],
            "report": ["report", str(directory)],
            "merge": ["store", "merge", str(directory),
                      "--output", str(tmp_path / "merged.jsonl")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "is a directory" in err and "Traceback" not in err
        assert list(directory.iterdir()) == []
        assert not (tmp_path / "merged.jsonl").exists()

    def test_resume_after_kill_reprints_the_same_table(self, tmp_path,
                                                       capsys):
        path = tmp_path / "out.jsonl"
        assert main([*self.SWEEP, "--output", str(path)]) == 0
        plain_out = capsys.readouterr().out
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(lines[:-1]) + lines[-1][:20],
                        encoding="utf-8")
        with pytest.warns(UserWarning, match="truncated"):
            assert main([*self.SWEEP, "--output", str(path),
                         "--resume"]) == 0
        assert capsys.readouterr().out == plain_out
        assert path.read_text(encoding="utf-8").count("\n") == len(lines)

    def test_report_unknown_metric_errors_cleanly(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main([*self.SWEEP, "--output", path]) == 0
        capsys.readouterr()
        assert main(["report", path, "--metric", "awake_maxx"]) == 2
        err = capsys.readouterr().err
        assert "unknown metric 'awake_maxx'" in err
        assert "awake_max" in err

    def test_report_flags_incomplete_store(self, tmp_path, capsys):
        import json

        path = tmp_path / "out.jsonl"
        assert main([*self.SWEEP, "--output", str(path)]) == 0
        capsys.readouterr()
        # Drop the last result record: the store is now missing one of the
        # two grid tasks the header promises.
        lines = path.read_text(encoding="utf-8").splitlines(True)
        assert sum(1 for ln in lines
                   if json.loads(ln)["kind"] == "result") == 2
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert "incomplete (1 of 2" in captured.err
        assert "INCOMPLETE 1/2 tasks" in captured.out

    def test_report_rejects_grid_key_columns_as_metrics(self, tmp_path,
                                                        capsys):
        path = str(tmp_path / "out.jsonl")
        assert main([*self.SWEEP, "--output", path]) == 0
        capsys.readouterr()
        for column in ("n", "runs"):
            assert main(["report", path, "--metric", column]) == 2
            assert f"unknown metric '{column}'" in capsys.readouterr().err

    def test_report_csv_stdout_and_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main([*self.SWEEP, "--output", path]) == 0
        capsys.readouterr()

        assert main(["report", path, "--csv", "-"]) == 0
        out = capsys.readouterr().out
        header = ("algorithm,family,n,runs,verified,awake_mean,awake_max,"
                  "avg_awake_mean,rounds_mean,mis_size_mean")
        assert header in out
        assert "luby,gnp,16," in out

        csv_path = tmp_path / "rows.csv"
        assert main(["report", path, "--csv", str(csv_path)]) == 0
        content = csv_path.read_text(encoding="utf-8")
        assert content.startswith(header)
        assert "luby,gnp,24," in content

    @pytest.mark.parametrize("key", ["E6", "E7", "E8"])
    @pytest.mark.parametrize("resume", [False, True])
    def test_experiment_without_a_sweep_refuses_a_store(self, tmp_path,
                                                        capsys, key, resume):
        path = tmp_path / "e.jsonl"
        argv = ["experiment", key, "--scale", "smoke", "--output", str(path)]
        assert main([*argv, "--resume"] if resume else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} runs no sweep")
        assert "E1, E2, E3, E4, E5, E9" in captured.err
        assert not path.exists()

    def test_experiment_output_resume(self, tmp_path, capsys):
        path = str(tmp_path / "e1.jsonl")
        argv = ["experiment", "E1", "--scale", "smoke", "--seed", "4",
                "--output", path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert main(["report", path]) == 0
        assert "awake_mis" in capsys.readouterr().out


class TestClosedStdout:
    """A reader that closes stdout before the command writes: the command
    exits with status 1 and prints nothing to stderr, whether stdout is
    buffered (the write fails at the final flush) or not (it fails in
    ``print``)."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [["list"], ["experiment", "E8"]])
    def test_no_traceback_when_the_reader_is_gone(self, argv, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            process = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert process.stderr == b""
        assert process.returncode == 1
