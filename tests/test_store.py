"""Tests for the resumable on-disk results store (repro.experiments.store).

The load-bearing guarantee mirrors the executor's: a sweep resumed from a
store — even one truncated mid-write by a kill — produces rows and fits
byte-identical to an uninterrupted run, for every ``jobs`` value, with the
recorded tasks verifiably never re-executed.
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.executor import plan_sweep_tasks
from repro.experiments.harness import MISRunResult, run_mis
from repro.experiments.store import (CODE_SCHEMA_VERSION, ResultStore,
                                     load_sweep_result, merge_stores,
                                     task_key)
from repro.experiments.sweeps import MetricAccumulator, run_sweep
from repro.graphs.generators import by_name

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)
GRID_TASKS = 2 * 2 * 1 * 2


def _store_lines(path):
    return path.read_text(encoding="utf-8").splitlines(True)


def _truncated_copy(full_path, partial_path, keep_results):
    """Simulate a kill: header + *keep_results* records + a torn final line."""
    lines = _store_lines(full_path)
    kept = lines[:1 + keep_results]
    torn = lines[1 + keep_results][: len(lines[1 + keep_results]) // 2]
    partial_path.write_text("".join(kept) + torn, encoding="utf-8")


class TestTaskKey:
    def test_key_is_stable_and_spec_sensitive(self):
        tasks = plan_sweep_tasks(**GRID)
        keys = [task_key(task) for task in tasks]
        assert keys == [task_key(task) for task in tasks]
        assert len(set(keys)) == len(keys)

    def test_key_covers_schema_version(self):
        task = plan_sweep_tasks(**GRID)[0]
        assert task_key(task) != task_key(task,
                                          schema_version=CODE_SCHEMA_VERSION + 1)

    def test_key_covers_params(self):
        base = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=1, seed=1)[0]
        tuned = plan_sweep_tasks(
            algorithms=["luby"], sizes=[16], repetitions=1, seed=1,
            algorithm_params={"luby": {"max_iterations": 512}})[0]
        assert task_key(base) != task_key(tuned)


class TestRecordRoundTrip:
    def test_result_record_round_trips_through_json(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8,
                         collect_raw=False)
        record = json.loads(json.dumps(result.to_record()))
        restored = MISRunResult.from_record(record)
        assert restored.mis == result.mis
        assert restored.metrics == result.metrics
        assert restored.summary() == result.summary()

    def test_full_metrics_compact_on_the_way_to_disk(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8)
        record = result.to_record()
        restored = MISRunResult.from_record(record)
        assert restored.metrics == result.compact().metrics
        assert restored.raw is None

    def test_node_averaged_awake_precision_survives(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8,
                         collect_raw=False)
        record = json.loads(json.dumps(result.to_record()))
        assert (record["metrics"]["node_averaged_awake"]
                == result.metrics.node_averaged_awake)


class TestMetricAccumulator:
    def test_matches_list_based_summary(self):
        from repro.analysis.stats import summarize

        values = [3, 1, 4, 1, 5, 9, 2.5]
        acc = MetricAccumulator()
        for value in values:
            acc.add(value)
        reference = summarize(values)
        assert acc.count == reference.count
        assert acc.mean == reference.mean
        assert acc.minimum == reference.minimum
        assert acc.maximum == reference.maximum

    def test_empty_mean_is_zero(self):
        assert MetricAccumulator().mean == 0.0


class TestStoreBasics:
    def test_sweep_persists_every_task(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        store = ResultStore(path)
        assert len(store) == GRID_TASKS
        assert store.completed_keys() == {task_key(t)
                                          for t in plan_sweep_tasks(**GRID)}
        header = store.header()
        assert header["schema"] == CODE_SCHEMA_VERSION
        assert header["sweep"]["algorithms"] == ["luby", "vt_mis"]

    def test_store_run_rows_match_plain_run(self, tmp_path):
        plain = run_sweep(**GRID)
        stored = run_sweep(**GRID, keep_runs=False,
                           store=ResultStore(tmp_path / "out.jsonl"))
        assert repr(stored.rows()) == repr(plain.rows())
        assert stored.fits("awake_max") == plain.fits("awake_max")

    def test_fresh_run_refuses_existing_store(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        with pytest.raises(ConfigurationError, match="resume"):
            run_sweep(**GRID, store=ResultStore(path))

    def test_resume_refuses_different_grid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        other = dict(GRID, seed=100)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(**other, store=ResultStore(path), resume=True)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"kind": "result", "key": "x"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no header"):
            run_sweep(**GRID, store=ResultStore(path))

    def test_torn_header_store_is_restarted_not_bricked(self, tmp_path):
        # A kill during the very first append leaves only a newline-free
        # prefix of the header record; the store must recover, not demand
        # manual deletion.
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"kind":"header","sch')
        with pytest.warns(UserWarning) as captured:
            sweep = run_sweep(**GRID, store=ResultStore(path), resume=True)
        assert any("torn header" in str(w.message) for w in captured)
        assert repr(sweep.rows()) == repr(run_sweep(**GRID).rows())
        assert len(ResultStore(path)) == GRID_TASKS

    def test_arbitrary_file_is_never_modified(self, tmp_path):
        # A destructive truncation repair must not touch a file that merely
        # happened to be passed as the store path.
        path = tmp_path / "notes.txt"
        content = "line one\nimportant final line without newline"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError):
            run_sweep(**GRID, store=ResultStore(path))
        assert path.read_text(encoding="utf-8") == content
        with pytest.raises(ConfigurationError):
            run_sweep(**GRID, store=ResultStore(path), resume=True)
        assert path.read_text(encoding="utf-8") == content


class TestResume:
    def test_complete_store_executes_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        baseline = run_sweep(**GRID, store=ResultStore(path))
        executed = []
        resumed = run_sweep(**GRID, store=ResultStore(path), resume=True,
                            progress=lambda task, *rest: executed.append(task))
        assert executed == []
        assert repr(resumed.rows()) == repr(baseline.rows())

    def test_resume_after_kill_matches_uninterrupted_byte_for_byte(
            self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        uninterrupted = run_sweep(**GRID, jobs=4, store=ResultStore(full_path))

        kept = 5
        partial_path = tmp_path / "killed.jsonl"
        _truncated_copy(full_path, partial_path, keep_results=kept)

        executed = []
        with pytest.warns(UserWarning, match="truncated"):
            resumed = run_sweep(
                **GRID, jobs=4, store=ResultStore(partial_path), resume=True,
                progress=lambda task, *rest: executed.append(task))

        # The execution-count hook proves the recorded tasks never re-ran:
        # only the missing grid points (including the torn record) executed.
        assert len(executed) == GRID_TASKS - kept
        kept_lines = _store_lines(partial_path)[1:1 + kept]
        recorded_keys = {json.loads(line)["key"] for line in kept_lines}
        assert all(task_key(t) not in recorded_keys for t in executed)

        assert repr(resumed.rows()) == repr(uninterrupted.rows())
        assert resumed.fits("awake_max") == uninterrupted.fits("awake_max")

        # After the resumed run the store is complete and reports cleanly.
        _, rebuilt = load_sweep_result(partial_path)
        assert repr(rebuilt.rows()) == repr(uninterrupted.rows())

    def test_jobs_1_and_jobs_4_resume_identically(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        baseline = run_sweep(**GRID, jobs=1, store=ResultStore(full_path))

        results = {}
        for jobs in (1, 4):
            partial = tmp_path / f"partial-{jobs}.jsonl"
            _truncated_copy(full_path, partial, keep_results=3)
            with pytest.warns(UserWarning):
                results[jobs] = run_sweep(**GRID, jobs=jobs,
                                          store=ResultStore(partial),
                                          resume=True)
        assert repr(results[1].rows()) == repr(baseline.rows())
        assert repr(results[4].rows()) == repr(results[1].rows())
        assert results[4].fits("awake_max") == results[1].fits("awake_max")


class TestCorruption:
    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        run_sweep(**GRID, store=ResultStore(full_path))
        partial = tmp_path / "torn.jsonl"
        _truncated_copy(full_path, partial, keep_results=4)

        store = ResultStore(partial)
        with pytest.warns(UserWarning, match="truncated"):
            assert len(store.completed_keys()) == 4

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        run_sweep(**GRID, store=ResultStore(full_path))
        lines = _store_lines(full_path)
        lines[2] = lines[2][:10] + "\n"  # damage a record that has successors
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corrupt record"):
            ResultStore(damaged).completed_keys()


class TestReport:
    def test_load_sweep_result_matches_live_rows(self, tmp_path):
        path = tmp_path / "out.jsonl"
        live = run_sweep(**GRID, jobs=4, keep_runs=False,
                         store=ResultStore(path))
        header, rebuilt = load_sweep_result(path)
        assert header["sweep"]["sizes"] == [16, 32]
        assert repr(rebuilt.rows()) == repr(live.rows())
        assert rebuilt.fits("awake_max") == live.fits("awake_max")

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="results store"):
            load_sweep_result(tmp_path / "nope.jsonl")


class TestSingleFileLayout:
    """Every sweep, whatever its ``jobs`` count or backend, writes exactly
    one JSONL file: one header line, then one record per grid task."""

    def test_parallel_sweep_writes_one_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, jobs=4, keep_runs=False, store=ResultStore(path))
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
        assert len(ResultStore(path)) == GRID_TASKS

    def test_header_is_the_only_header_and_the_first_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, jobs=4, keep_runs=False, store=ResultStore(path))
        records = [json.loads(line) for line in _store_lines(path)]
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == CODE_SCHEMA_VERSION
        assert [r["kind"] for r in records[1:]] == ["result"] * GRID_TASKS
        assert sorted(r["index"] for r in records[1:]) == list(
            range(GRID_TASKS))

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_any_jobs_count_reports_like_a_plain_run(self, tmp_path, jobs):
        """Records may land in completion order; the report folds them in
        grid order, so the rows are those of a plain serial run."""
        path = tmp_path / "out.jsonl"
        live = run_sweep(**GRID, jobs=jobs, keep_runs=False,
                         store=ResultStore(path))
        plain = run_sweep(**GRID)
        header, rebuilt = load_sweep_result(path)
        assert header["sweep"]["algorithms"] == ["luby", "vt_mis"]
        assert repr(live.rows()) == repr(plain.rows())
        assert repr(rebuilt.rows()) == repr(plain.rows())
        assert rebuilt.fits("awake_max") == plain.fits("awake_max")

    @pytest.mark.parametrize("use", ["sweep", "resume", "report"])
    def test_directory_path_is_refused(self, tmp_path, use):
        """A directory is not a store: every entry point refuses it with a
        ConfigurationError instead of an OS traceback, and writes
        nothing into it."""
        directory = tmp_path / "results"
        directory.mkdir()
        with pytest.raises(ConfigurationError, match="is a directory"):
            if use == "report":
                load_sweep_result(directory)
            else:
                run_sweep(**GRID, keep_runs=False,
                          store=ResultStore(directory),
                          resume=use == "resume")
        assert list(directory.iterdir()) == []

    def test_path_under_a_file_is_refused(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cannot open"):
            run_sweep(**GRID, keep_runs=False,
                      store=ResultStore(blocker / "out.jsonl"))
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    def test_refused_fresh_run_leaves_the_store_untouched(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, keep_runs=False, store=ResultStore(path))
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="resume"):
            run_sweep(**GRID, keep_runs=False, store=ResultStore(path))
        assert path.read_bytes() == before
        # The store is still resumable and needs nothing re-executed.
        executed = []
        run_sweep(**GRID, keep_runs=False, store=ResultStore(path),
                  resume=True,
                  progress=lambda task, *rest: executed.append(task))
        assert executed == []

    @pytest.mark.parametrize("field", [
        "algorithms", "sizes", "families", "repetitions", "seed",
        "algorithm_params"])
    def test_resume_refuses_a_changed_grid_field(self, tmp_path, field):
        """The header pins every grid field: resuming under any other
        value is refused and leaves the store byte-identical."""
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, keep_runs=False, store=ResultStore(path))
        before = path.read_bytes()
        value = {"algorithms": ["luby"], "sizes": [16, 24],
                 "families": ("gnp", "path"), "repetitions": 3, "seed": 100,
                 "algorithm_params": {"luby": {"max_iterations": 512}},
                 }[field]
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(**dict(GRID, **{field: value}), keep_runs=False,
                      store=ResultStore(path), resume=True)
        assert path.read_bytes() == before

    def test_resume_refuses_another_code_schema(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, keep_runs=False, store=ResultStore(path))
        header_line, *records = _store_lines(path)
        header = json.loads(header_line)
        header["schema"] = CODE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(header) + "\n" + "".join(records),
                        encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="code schema"):
            run_sweep(**GRID, keep_runs=False, store=ResultStore(path),
                      resume=True)
        assert path.read_bytes() == before

    def test_resume_of_a_missing_store_runs_the_whole_grid(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        executed = []
        resumed = run_sweep(**GRID, keep_runs=False, store=ResultStore(path),
                            resume=True,
                            progress=lambda task, *rest: executed.append(task))
        assert len(executed) == GRID_TASKS
        assert repr(resumed.rows()) == repr(run_sweep(**GRID).rows())
        assert len(ResultStore(path)) == GRID_TASKS

    @pytest.mark.parametrize("resume_jobs", [1, 2, 5])
    def test_resume_across_a_different_jobs_count(self, tmp_path,
                                                  resume_jobs):
        """Interrupt a sweep (a torn tail *and* a whole record lost),
        resume it under another ``jobs`` count: rows and fits come out
        byte-identical to the uninterrupted run, and the surviving
        records are never re-executed."""
        baseline = run_sweep(**GRID)
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, jobs=3, keep_runs=False, store=ResultStore(path))
        lines = _store_lines(path)
        # Drop the last record, then tear the one before it in half.
        path.write_text("".join(lines[:-2]) + lines[-2][:len(lines[-2]) // 2],
                        encoding="utf-8")
        surviving = {json.loads(line)["key"] for line in lines[1:-2]}

        executed = []
        with pytest.warns(UserWarning, match="truncated"):
            resumed = run_sweep(
                **GRID, jobs=resume_jobs, keep_runs=False,
                store=ResultStore(path), resume=True,
                progress=lambda task, *rest: executed.append(task))
        assert len(executed) == GRID_TASKS - len(surviving) == 2
        assert all(task_key(t) not in surviving for t in executed)
        assert repr(resumed.rows()) == repr(baseline.rows())
        assert resumed.fits("awake_max") == baseline.fits("awake_max")
        _, rebuilt = load_sweep_result(path)
        assert repr(rebuilt.rows()) == repr(baseline.rows())


# ------------------------------------------------------------------------- #
# Kill-point fuzzing: every byte offset a crash could truncate the store at
# must land in {clean resume, torn-line repair, hard corruption error} —
# never silent data loss.
# ------------------------------------------------------------------------- #
FUZZ_GRID = dict(algorithms=["luby"], sizes=[16], families=("gnp",),
                 repetitions=2, seed=5)
FUZZ_TASKS = 2


@pytest.fixture(scope="module")
def fuzz_reference(tmp_path_factory):
    """One completed tiny sweep: its store bytes and expected rows."""
    tmp = tmp_path_factory.mktemp("fuzz-ref")
    path = tmp / "ref.jsonl"
    sweep = run_sweep(**FUZZ_GRID, keep_runs=False, store=ResultStore(path))
    return {
        "rows": repr(sweep.rows()),
        "bytes": path.read_bytes(),
        "all_keys": {task_key(t) for t in plan_sweep_tasks(**FUZZ_GRID)},
    }


def _intact_result_keys(blob: bytes):
    """Keys of result records a reader must still honour after truncation:
    complete lines only (the torn tail, if any, is legitimately re-run)."""
    keys = set()
    for line in blob.split(b"\n")[:-1]:  # a line without \n is torn
        record = json.loads(line)
        if record.get("kind") == "result":
            keys.add(record["key"])
    return keys


def _resume_and_check(store, reference, expected_intact):
    """Resume from a damaged store; assert no re-execution of intact
    records, no silent loss, and byte-identical rows."""
    executed = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # torn-tail repairs are expected
        resumed = run_sweep(**FUZZ_GRID, keep_runs=False, store=store,
                            resume=True,
                            progress=lambda task, *rest: executed.append(task))
    executed_keys = {task_key(t) for t in executed}
    # Exactly the non-surviving tasks re-ran: nothing recorded was lost
    # (silent loss) and nothing recorded was recomputed (wasted work).
    assert executed_keys == reference["all_keys"] - expected_intact
    assert repr(resumed.rows()) == reference["rows"]


class TestKillPointFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_at_any_offset_resumes_byte_identically(
            self, data, fuzz_reference, tmp_path):
        """A kill can truncate the file at *any* byte offset.  Whatever
        survives must resume to byte-identical rows, with every complete
        record honoured and only the rest re-executed — including the
        degenerate cuts (empty file, torn header)."""
        blob = fuzz_reference["bytes"]
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        path = tmp_path / f"cut-{cut}.jsonl"
        path.write_bytes(blob[:cut])
        _resume_and_check(ResultStore(path), fuzz_reference,
                          _intact_result_keys(blob[:cut]))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mid_file_garbage_is_a_hard_error_never_silent_loss(
            self, data, fuzz_reference, tmp_path):
        """Damage that is *not* an interrupted append (garbage on a line
        with intact records after it) must be a hard error — resuming
        over it could silently drop the buried records."""
        blob = fuzz_reference["bytes"]
        lines = blob.split(b"\n")[:-1]
        victim = data.draw(st.integers(0, len(lines) - 2))
        junk = data.draw(st.sampled_from([b"garbage", b"{\"kind\":", b"\x00\xff"]))
        damaged = [*lines[:victim], junk, *lines[victim + 1:]]
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(b"\n".join(damaged) + b"\n")
        before = path.read_bytes()
        with pytest.raises(ConfigurationError):
            run_sweep(**FUZZ_GRID, keep_runs=False, store=ResultStore(path),
                      resume=True)
        # A refused store is never modified.
        assert path.read_bytes() == before


class TestMergeStores:
    """`repro-mis store merge`: compaction for long-lived stores."""

    def _sweep_to(self, path, **overrides):
        grid = dict(GRID, **overrides)
        with ResultStore(path) as store:
            return run_sweep(**grid, store=store, keep_runs=False)

    @staticmethod
    def _split_by_parity(full, directory):
        """Two partial stores of *full*'s sweep: even and odd records."""
        header_line, *records = full.read_text(encoding="utf-8").splitlines()
        parts = [directory / "even.jsonl", directory / "odd.jsonl"]
        for offset, part in enumerate(parts):
            part.write_text("\n".join([header_line, *records[offset::2]])
                            + "\n", encoding="utf-8")
        return parts

    def test_merged_store_is_resumable(self, tmp_path):
        """Resuming from the merge of two partial stores re-executes
        nothing."""
        full = tmp_path / "full.jsonl"
        self._sweep_to(full)
        merged = tmp_path / "merged.jsonl"
        merge_stores(self._split_by_parity(full, tmp_path), merged)
        executed = []
        resumed = run_sweep(**GRID, store=ResultStore(merged), resume=True,
                            keep_runs=False,
                            progress=lambda task, *_: executed.append(task))
        assert executed == []
        assert repr(resumed.rows()) == repr(run_sweep(**GRID).rows())

    def test_duplicate_records_across_sources_collapse(self, tmp_path):
        """Two complete copies of the same sweep merge to one record per
        task, not two."""
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        self._sweep_to(first)
        self._sweep_to(second)
        merged = tmp_path / "merged.jsonl"
        assert merge_stores([first, second], merged) == GRID_TASKS
        assert len(ResultStore(merged)) == GRID_TASKS

    def test_partial_sources_merge_to_their_union(self, tmp_path):
        """Partial stores of one sweep combine into the whole sweep."""
        full = tmp_path / "full.jsonl"
        live = self._sweep_to(full)
        parts = self._split_by_parity(full, tmp_path)
        assert all(0 < len(ResultStore(part)) < GRID_TASKS for part in parts)
        merged = tmp_path / "merged.jsonl"
        assert merge_stores(parts, merged) == GRID_TASKS
        _, rebuilt = load_sweep_result(merged)
        assert repr(rebuilt.rows()) == repr(live.rows())

    def test_mixed_sweep_configs_refused(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        self._sweep_to(first)
        self._sweep_to(second, seed=123)
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(ConfigurationError,
                           match="different sweeps"):
            merge_stores([first, second], merged)
        assert not merged.exists()  # no half-written output left behind

    def test_non_store_source_refused(self, tmp_path, recwarn):
        """Refused before any record is parsed: no torn-tail warning about
        a resume that will not happen."""
        bogus = tmp_path / "notes.txt"
        bogus.write_text("hello\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a results store"):
            merge_stores([bogus], tmp_path / "merged.jsonl")
        assert not recwarn.list

    @pytest.mark.parametrize("content, reason", [
        (None, "no such file"),
        ("", "empty file"),
        ("hello\n", "its first line is not a store header"),
        ('{"kind": "result", "key": "k"}\n',
         "its first line is not a store header"),
    ])
    def test_non_store_source_names_why(self, tmp_path, recwarn, content,
                                        reason):
        source = tmp_path / "source.jsonl"
        if content is not None:
            source.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError) as excinfo:
            merge_stores([source], tmp_path / "merged.jsonl")
        assert str(excinfo.value) == (
            f"{source}: not a results store ({reason})")
        assert not recwarn.list
        assert not (tmp_path / "merged.jsonl").exists()

    def test_existing_output_refused(self, tmp_path):
        source = tmp_path / "a.jsonl"
        self._sweep_to(source)
        occupied = tmp_path / "occupied.jsonl"
        occupied.write_text("precious user data\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            merge_stores([source], occupied)
        assert occupied.read_text(encoding="utf-8") == "precious user data\n"

    def test_empty_source_list_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one source"):
            merge_stores([], tmp_path / "merged.jsonl")

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_merge_of_one_store_is_its_grid_ordered_copy(self, tmp_path,
                                                         jobs):
        """Merging a single complete store rewrites its own lines in grid
        order, byte for byte, whatever order a parallel sweep appended
        its records in."""
        source = tmp_path / "source.jsonl"
        live = self._sweep_to(source, jobs=jobs)
        merged = tmp_path / "merged.jsonl"
        assert merge_stores([source], merged) == GRID_TASKS
        header_line, *records = _store_lines(source)
        records.sort(key=lambda line: json.loads(line)["index"])
        assert _store_lines(merged) == [header_line, *records]
        header, rebuilt = load_sweep_result(merged)
        assert header == ResultStore(source).header()
        assert repr(rebuilt.rows()) == repr(live.rows())
        assert rebuilt.fits("awake_max") == live.fits("awake_max")

    @pytest.mark.parametrize("parts", [1, 2, 5])
    def test_any_split_count_merges(self, tmp_path, parts):
        """A store dealt round-robin into *parts* partial stores merges
        back to the bytes of the whole store."""
        full = tmp_path / "full.jsonl"
        live = self._sweep_to(full)
        header_line, *records = _store_lines(full)
        sources = []
        for offset in range(parts):
            part = tmp_path / f"part-{offset}.jsonl"
            part.write_text("".join([header_line, *records[offset::parts]]),
                            encoding="utf-8")
            sources.append(part)
        merged = tmp_path / "merged.jsonl"
        assert merge_stores(sources, merged) == GRID_TASKS
        assert merged.read_bytes() == full.read_bytes()
        _, rebuilt = load_sweep_result(merged)
        assert repr(rebuilt.rows()) == repr(live.rows())

    def test_output_at_a_source_path_refused(self, tmp_path):
        """Merging onto one of the sources would overwrite records it is
        still reading: refused up front, and both sources stay intact."""
        full = tmp_path / "full.jsonl"
        self._sweep_to(full)
        parts = self._split_by_parity(full, tmp_path)
        before = [part.read_bytes() for part in parts]
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            merge_stores(parts, parts[0])
        assert [part.read_bytes() for part in parts] == before

    def test_other_code_schema_source_refused(self, tmp_path):
        """A source whose header differs only in its code schema is a
        different sweep: the merge is refused and leaves no output."""
        first = tmp_path / "a.jsonl"
        self._sweep_to(first)
        header_line, *records = _store_lines(first)
        header = json.loads(header_line)
        header["schema"] = CODE_SCHEMA_VERSION + 1
        rogue = tmp_path / "rogue.jsonl"
        rogue.write_text(json.dumps(header) + "\n" + "".join(records),
                         encoding="utf-8")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(ConfigurationError, match="disagrees"):
            merge_stores([first, rogue], merged)
        assert not merged.exists()

    def test_torn_source_merges_its_intact_records(self, tmp_path):
        """A source torn by a kill contributes its intact records; the
        torn task is simply missing from the merge and re-runs on
        resume."""
        full = tmp_path / "full.jsonl"
        self._sweep_to(full)
        torn = tmp_path / "torn.jsonl"
        _truncated_copy(full, torn, keep_results=5)
        merged = tmp_path / "merged.jsonl"
        with pytest.warns(UserWarning, match="truncated"):
            assert merge_stores([torn], merged) == 5
        assert torn.read_bytes() == full.read_bytes()[:len(torn.read_bytes())]
        executed = []
        resumed = run_sweep(**GRID, keep_runs=False,
                            store=ResultStore(merged), resume=True,
                            progress=lambda task, *_: executed.append(task))
        assert len(executed) == GRID_TASKS - 5
        assert repr(resumed.rows()) == repr(run_sweep(**GRID).rows())

    def test_mid_file_corrupt_source_refused(self, tmp_path):
        full = tmp_path / "full.jsonl"
        self._sweep_to(full)
        lines = _store_lines(full)
        lines[2] = "garbage\n"
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("".join(lines), encoding="utf-8")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(ConfigurationError, match="corrupt record"):
            merge_stores([damaged], merged)
        assert not merged.exists()

    def test_cli_merge_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        base = str(tmp_path / "out.jsonl")
        sweep_argv = ["sweep", "--algorithms", "luby", "--sizes", "16", "24",
                      "--families", "gnp", "--repetitions", "1",
                      "--seed", "3"]
        assert main([*sweep_argv, "--output", base]) == 0
        capsys.readouterr()
        parts = [str(part) for part in
                 self._split_by_parity(tmp_path / "out.jsonl", tmp_path)]
        merged = str(tmp_path / "merged.jsonl")
        assert main(["store", "merge", *parts, "--output", merged]) == 0
        assert "merged 2 store(s)" in capsys.readouterr().out
        assert main(["report", merged]) == 0
        report_out = capsys.readouterr().out
        assert main(["report", base]) == 0
        whole_report = capsys.readouterr().out.replace(base, merged)
        assert report_out == whole_report

    def test_cli_merge_mixed_configs_renders_error(self, tmp_path, capsys):
        from repro.cli import main

        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        for seed, path in (("3", first), ("4", second)):
            assert main(["sweep", "--algorithms", "luby", "--sizes", "16",
                         "--repetitions", "1", "--seed", seed,
                         "--output", path]) == 0
        capsys.readouterr()
        assert main(["store", "merge", first, second,
                     "--output", str(tmp_path / "m.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestKeepRuns:
    def test_streaming_cells_drop_raw_runs_but_keep_aggregates(self):
        lean = run_sweep(**GRID, keep_runs=False)
        fat = run_sweep(**GRID, keep_runs=True)
        assert all(cell.runs == [] for cell in lean.cells)
        assert all(len(cell.runs) == 2 for cell in fat.cells)
        assert repr(lean.rows()) == repr(fat.rows())
        assert all(cell.run_count == 2 for cell in lean.cells)

    def test_per_run_accessors_raise_when_runs_were_dropped(self):
        lean = run_sweep(**GRID, keep_runs=False)
        cell = lean.cells[0]
        with pytest.raises(ConfigurationError, match="keep_runs"):
            cell.awake_complexities
        with pytest.raises(ConfigurationError, match="keep_runs"):
            cell.round_complexities
        fat = run_sweep(**GRID, keep_runs=True)
        assert len(fat.cells[0].awake_complexities) == 2
