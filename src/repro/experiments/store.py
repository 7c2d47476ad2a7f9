"""Resumable on-disk results store for sweeps (JSONL).

A :class:`ResultStore` persists one JSON record per completed
:class:`~repro.experiments.executor.SweepTask` as it finishes, so a large
grid that crashes (or is killed) halfway is resumed instead of re-run:
``run_sweep(..., store=store, resume=True)`` skips every task whose spec
hash is already on disk and replays the stored compact metrics into the
aggregation.

Design
------

* **Keyed by the task spec, not by position.**  :func:`task_key` hashes
  ``(algorithm, family, n, graph_seed, run_seed, params,
  code_schema_version)``; because the executor derives every seed up front,
  the key set of a sweep is a pure function of its arguments, and a resumed
  store can be matched record-by-record against a freshly planned grid.
  :data:`CODE_SCHEMA_VERSION` is part of the key so recorded results are
  invalidated wholesale whenever the meaning of the metrics changes.
* **Append-only JSONL, one atomic line per result.**  Each record is
  written with a single ``write()`` of a complete line followed by a flush,
  so a kill can only ever truncate the final line.  Readers detect a
  truncated/corrupt trailing line, skip it with a warning, and resume from
  the last intact record; corruption anywhere *else* in the file is an
  error (that is not what an interrupted append looks like).
* **Header record.**  The first line records the sweep configuration and
  schema version; resuming under a different configuration (or writing a
  second sweep into the same file) is rejected instead of silently mixing
  grids.

Record shapes::

    {"kind": "header", "schema": 1, "sweep": {...}}
    {"kind": "result", "key": "...", "index": 7, "task": {...},
     "result": {...}}

``index`` is the task's position in the planned grid, which is what lets
:func:`load_sweep_result` rebuild tables and fits in the exact order the
live sweep aggregated them.

One sweep is one file.  :func:`merge_stores` (CLI: ``repro-mis store merge
SRC... --output OUT``) compacts several stores of **one** sweep — partial
resume files, or copies that overlap — into a fresh single-file store.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import (TYPE_CHECKING, Any, BinaryIO, Dict, Iterator, List,
                    Optional, Sequence, Set, TextIO, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.sweeps import SweepResult

#: Anything the store constructors accept as a filesystem location.
StorePath = Union[str, "os.PathLike[str]"]

from repro.errors import ConfigurationError
from repro.experiments.executor import SweepTask
from repro.experiments.harness import MISRunResult

#: Version of the result semantics baked into every task key.  Bump whenever
#: recorded metrics stop being comparable with freshly computed ones (e.g. a
#: change to how awake rounds are counted); old records then simply stop
#: matching and affected tasks re-run.
CODE_SCHEMA_VERSION = 1


def task_key(task: SweepTask,
             schema_version: int = CODE_SCHEMA_VERSION) -> str:
    """Stable spec hash identifying one task's result across processes.

    The hash covers every field of :meth:`SweepTask.to_json` — algorithm,
    graph family/size/seed, run seed, algorithm parameters — plus the code
    schema version, canonicalised through sorted-key JSON so dict ordering
    can never leak into the key.
    """
    spec = {**_task_to_json(task), "schema": schema_version}
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _task_to_json(task: SweepTask) -> Dict[str, Any]:
    data: Dict[str, Any] = task.to_json()
    return data


def _task_from_json(data: Dict[str, Any]) -> SweepTask:
    task: SweepTask = SweepTask.from_json(data)
    return task


class ResultStore:
    """Append-only JSONL store of sweep results, keyed by task spec hash.

    One store holds one sweep.  :meth:`ensure_header` stamps the sweep
    configuration on first use and refuses to mix configurations;
    :meth:`append` persists each result as it completes; and resume
    restores them through :meth:`result_offsets` / :meth:`result_at`.
    """

    def __init__(self, path: StorePath) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = None
        self._read_handle: Optional[BinaryIO] = None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _scan(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Stream ``(byte_offset, record)`` pairs; skip a corrupt tail.

        A truncated or garbled *final* line is the signature of an append
        interrupted by a crash/kill — it is skipped with a
        :class:`UserWarning` so the task is transparently re-run on resume.
        A corrupt line with intact records after it cannot come from an
        interrupted append and raises :class:`ConfigurationError`.  One
        streaming pass, O(1) memory: a full-scale store never needs to fit
        in memory just to be scanned.
        """
        self._refuse_directory()
        if not self.path.exists():
            return
        corrupt_line: Optional[int] = None
        offset = 0
        with self.path.open("rb") as handle:
            for number, line in enumerate(handle, 1):
                start, offset = offset, offset + len(line)
                stripped = line.strip()
                if not stripped:
                    continue
                if corrupt_line is not None:
                    raise ConfigurationError(
                        f"{self.path}: corrupt record on line {corrupt_line} "
                        "with intact records after it — this is not an "
                        "interrupted append; refusing to resume from a "
                        "damaged store"
                    )
                try:
                    record = json.loads(stripped.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    corrupt_line = number
                    continue
                yield start, record
        if corrupt_line is not None:
            warnings.warn(
                f"{self.path}: skipping corrupt/truncated trailing record "
                f"on line {corrupt_line} (interrupted append); the task "
                "will be re-executed on resume",
                stacklevel=2,
            )

    def _refuse_directory(self) -> None:
        if self.path.is_dir():
            raise ConfigurationError(
                f"{self.path}: is a directory; a results store is one "
                "JSONL file — point --output at a file path"
            )

    def records(self) -> Iterator[Dict[str, Any]]:
        """Yield every intact record (see :meth:`_scan` for tail handling)."""
        for _, record in self._scan():
            yield record

    def _record_at(self, offset: int) -> Dict[str, Any]:
        """Re-read one record by byte offset (keeps a cached read handle)."""
        if self._read_handle is None:
            self._read_handle = self.path.open("rb")
        self._read_handle.seek(offset)
        record: Dict[str, Any] = json.loads(
            self._read_handle.readline().decode("utf-8"))
        return record

    def header(self) -> Optional[Dict[str, Any]]:
        """Return the header record, or None for a missing/empty store."""
        for record in self.records():
            if record.get("kind") == "header":
                return record
            return None
        return None

    def completed_keys(self) -> Set[str]:
        """Spec hashes of every intact result record on disk."""
        return {record["key"] for record in self.records()
                if record.get("kind") == "result"}

    def result_offsets(self) -> Dict[str, int]:
        """Map spec hash -> byte offset of its record.

        This is what resume consumes: holding offsets instead of restored
        results keeps a resumed sweep's memory as flat as a live one — each
        record is re-read (:meth:`result_at`) only at the moment the fold
        reaches its grid position, then dropped.
        """
        return {record["key"]: start for start, record in self._scan()
                if record.get("kind") == "result"}

    def result_at(self, offset: int) -> MISRunResult:
        """Restore the result stored at *offset* (from :meth:`result_offsets`)."""
        result: MISRunResult = MISRunResult.from_record(
            self._record_at(offset)["result"])
        return result

    def iter_grid_ordered_results(
        self,
    ) -> Iterator[Tuple[int, SweepTask, MISRunResult]]:
        """Yield ``(index, task, result)`` in planned-grid (index) order.

        Only the (index, offset) directory is held in memory; each record
        is parsed lazily when its turn comes, so rebuilding a report from a
        full-scale store stays cheap.
        """
        directory = sorted((int(record["index"]), start)
                           for start, record in self._scan()
                           if record.get("kind") == "result")
        for index, offset in directory:
            record = self._record_at(offset)
            yield (index, _task_from_json(record["task"]),
                   MISRunResult.from_record(record["result"]))

    def __len__(self) -> int:
        return sum(1 for record in self.records()
                   if record.get("kind") == "result")

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _append_line(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._refuse_directory()
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            except OSError as error:
                raise ConfigurationError(
                    f"{self.path}: cannot open the results store for "
                    f"writing ({error.strerror or error})"
                ) from error
        # One write() of a complete line, flushed immediately: a kill can
        # truncate this line but never damage the records before it.
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def repair_truncation(self) -> None:
        """Physically drop a torn trailing line before appending resumes.

        Readers merely *skip* a truncated final line; a writer must remove
        it, otherwise the next append would land after the torn fragment
        and bury it mid-file, where it reads as real corruption.  Truncation
        happens at the byte offset where the torn line starts, so intact
        records are untouched.  A trailing line that parses but lacks its
        newline is treated as torn too (the append's single write was cut
        mid-flush); dropping it merely re-runs that one task.
        """
        if not self.path.exists():
            return
        size = self.path.stat().st_size
        if size == 0:
            return
        # Inspect only the file tail; the last line is all that can be torn.
        tail_len = min(size, 1 << 16)
        with self.path.open("rb") as handle:
            handle.seek(size - tail_len)
            tail = handle.read()
        lines = tail.splitlines(keepends=True)
        if len(lines) == 1 and tail_len < size:
            # The final line is longer than the tail window (huge record);
            # fall back to reading the whole file to find its start.
            tail = self.path.read_bytes()
            lines = tail.splitlines(keepends=True)
        last = lines[-1]
        intact = last.endswith(b"\n")
        if intact:
            try:
                json.loads(last.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                intact = False
        if intact:
            return
        warnings.warn(
            f"{self.path}: dropping corrupt/truncated trailing record "
            "(interrupted append); the task will be re-executed",
            stacklevel=2,
        )
        self.close()
        with self.path.open("rb+") as handle:
            handle.truncate(size - len(last))

    def _is_lone_torn_header(self) -> bool:
        """True iff the file is exactly one torn prefix of a header record.

        Appends are sequential single writes ending in a newline, so a kill
        during the *first* append leaves a newline-free prefix of
        ``{"kind":"header",...`` and nothing else.  Only that precise shape
        is treated as repairable — anything else non-parseable could be an
        unrelated user file, which must never be touched.
        """
        size = self.path.stat().st_size
        if size == 0 or size > (1 << 16):
            return False
        with self.path.open("rb") as handle:
            head = handle.read()
        if b"\n" in head:
            return False
        marker = b'{"kind":"header"'
        return head.startswith(marker) or marker.startswith(head)

    def ensure_header(self, sweep_config: Dict[str, Any],
                      resume: bool) -> None:
        """Stamp (or verify) the sweep configuration this store belongs to.

        A fresh/empty store gets a header; a non-empty store is accepted
        only when *resume* is True **and** its header matches
        *sweep_config* exactly — anything else would silently mix records
        from different grids under colliding indices.  A trailing record
        torn by a kill is dropped (:meth:`repair_truncation`) only *after*
        the header has proven the file is this sweep's store: a destructive
        repair must never touch a file that merely happened to be passed as
        ``--output``.
        """
        existing = self.header()
        if existing is None:
            if self.path.exists() and self.path.stat().st_size > 0:
                if not self._is_lone_torn_header():
                    raise ConfigurationError(
                        f"{self.path}: store has records but no header; "
                        "refusing to append to an unrecognised file"
                    )
                # A kill during the very first append left a torn header
                # prefix as the only content; the store is provably ours
                # and empty, so restart it cleanly.
                warnings.warn(
                    f"{self.path}: dropping torn header record (interrupted "
                    "first append); starting the store fresh",
                    stacklevel=2,
                )
                self.close()
                with self.path.open("rb+") as handle:
                    handle.truncate(0)
            self._append_line({"kind": "header",
                               "schema": CODE_SCHEMA_VERSION,
                               "sweep": sweep_config})
            return
        if not resume:
            raise ConfigurationError(
                f"{self.path}: store already holds a sweep; pass resume=True "
                "(CLI: --resume) to continue it, or point --output at a "
                "fresh file"
            )
        if existing.get("schema") != CODE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"{self.path}: store was written under code schema "
                f"{existing.get('schema')}, current is {CODE_SCHEMA_VERSION}; "
                "recorded results are not comparable — start a fresh store"
            )
        if existing.get("sweep") != sweep_config:
            raise ConfigurationError(
                f"{self.path}: store belongs to a different sweep "
                f"configuration ({existing.get('sweep')} != {sweep_config}); "
                "refusing to mix grids in one store"
            )
        # The file is confirmed to be this sweep's store; now it is safe to
        # physically drop a record torn by a previous kill so appends cannot
        # land after the fragment.
        self.repair_truncation()

    def append(self, index: int, task: SweepTask,
               result: MISRunResult) -> None:
        """Persist one completed task result."""
        self._append_line({
            "kind": "result",
            "key": task_key(task),
            "index": index,
            "task": _task_to_json(task),
            "result": result.to_record(),
        })

    def close(self) -> None:
        """Close the append/read handles (both reopen on demand)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._read_handle is not None:
            self._read_handle.close()
            self._read_handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def merge_stores(sources: Sequence[StorePath], output: StorePath) -> int:
    """Compact one or more stores into a single-file store at *output*.

    The compaction tooling for long-lived stores: a sweep resumed into
    several partial stores (or copied more than once) is rewritten as one
    fresh :class:`ResultStore` — fresh header, records in planned-grid
    order, duplicates (the same spec hash recorded in more than one
    source) collapsed to a single copy.  Reading the merged store is
    byte-identical to reading the merged sources, so ``repro-mis report``
    and ``--resume`` keep working with one file where there used to be
    many.

    All sources must carry the **same** header — mixing sweep configurations (or
    code schema versions) is refused, exactly as resuming across them
    would be.  *output* must not already hold data (compaction never
    destroys anything; delete the sources yourself once satisfied).

    Returns the number of result records written.
    """
    if not sources:
        raise ConfigurationError("store merge: need at least one source store")
    output_path = Path(output)
    if output_path.exists() and (output_path.is_dir()
                                 or output_path.stat().st_size > 0):
        raise ConfigurationError(
            f"{output_path}: refusing to overwrite an existing non-empty "
            "path; point --output at a fresh file"
        )
    stores = [ResultStore(source) for source in sources]
    resolved = [Path(source) for source in sources]
    try:
        header: Optional[Dict[str, Any]] = None
        header_origin: Optional[Path] = None
        for source, store in zip(resolved, stores):
            found = _leading_header(store)
            if header is None:
                header, header_origin = found, source
            elif found != header:
                raise ConfigurationError(
                    f"{source}: sweep configuration disagrees with "
                    f"{header_origin}; refusing to merge stores from "
                    "different sweeps"
                )
        # Every source proved it has a header (or raised) above, so the
        # loop cannot leave `header` unset: sources is non-empty.
        assert header is not None
        merged = ResultStore(output_path)
        try:
            merged._append_line(header)
            written = 0
            seen_keys: Set[str] = set()
            # One k-way merge in planned-grid order across every source
            # (each cursor is already index-sorted, records parse
            # lazily): grid index is a pure function of the task, so
            # records for the same task in different sources are true
            # duplicates and the first copy wins.
            cursors = [store.iter_grid_ordered_results() for store in stores]
            heads: List[Optional[Tuple[int, SweepTask, MISRunResult]]] = [
                next(cursor, None) for cursor in cursors]
            while True:
                candidates = [(head[0], position)
                              for position, head in enumerate(heads)
                              if head is not None]
                if not candidates:
                    break
                _, position = min(candidates)
                head = heads[position]
                assert head is not None  # candidates lists non-None heads only
                index, task, result = head
                heads[position] = next(cursors[position], None)
                key = task_key(task)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                merged.append(index, task, result)
                written += 1
            return written
        finally:
            merged.close()
    except BaseException:
        # A failed merge must not leave a half-written output behind: it
        # would read as an interrupted sweep and poison a later --resume.
        if output_path.exists() and not output_path.is_dir():
            output_path.unlink()
        raise
    finally:
        for store in stores:
            store.close()


def _leading_header(store: ResultStore) -> Dict[str, Any]:
    """The header record on the first line of *store*'s file.

    Reads that line alone, so a file that is not a results store is
    refused before any record is parsed, never warned about as a store
    with a torn trailing record.
    """
    store._refuse_directory()
    path = store.path
    reason = "no such file"
    if path.exists():
        with path.open("rb") as handle:
            first = handle.readline().strip()
        reason = "empty file"
        if first:
            try:
                record = json.loads(first.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                record = None
            if isinstance(record, dict) and record.get("kind") == "header":
                return record
            reason = "its first line is not a store header"
    raise ConfigurationError(f"{path}: not a results store ({reason})")


def load_sweep_result(
    path: Union[StorePath, ResultStore],
) -> Tuple[Dict[str, Any], "SweepResult"]:
    """Rebuild a :class:`~repro.experiments.sweeps.SweepResult` from a store.

    Records are folded in planned-grid order (their ``index``), which is the
    same order the live sweep aggregated in — so for a completed store the
    rebuilt rows and fits are byte-identical to the ones the sweep printed,
    without re-running anything.  *path* is a store file or an already
    constructed :class:`ResultStore`.  Returns ``(header, sweep_result)``.
    """
    from repro.experiments.sweeps import SweepResult

    store = path if isinstance(path, ResultStore) else ResultStore(path)
    header = store.header()
    if header is None:
        raise ConfigurationError(
            f"{store.path}: not a results store (missing or empty file)"
        )
    result = SweepResult()
    try:
        for _, task, run in store.iter_grid_ordered_results():
            cell = result.cell_for(task.algorithm, task.family, task.n,
                                   keep_runs=False)
            cell.add(run)
    finally:
        store.close()
    return header, result
