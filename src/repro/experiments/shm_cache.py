"""Shared-memory CSR graph cache for process-backed worker slots.

One :class:`SharedGraphCache` lives in the *serving* worker process.  Slot
subprocesses never generate graphs themselves for cached keys: they ask
the serving process (over their control pipe) for the segment name of a
``(family, n, graph_seed)`` combo, and the serving process generates the
graph once, serialises it as flat CSR arrays
(:class:`repro.graphs.csr.CSRGraph`) into one
``multiprocessing.shared_memory`` segment, and replies with the name.
Every slot then maps that segment read-only via :func:`attach_segment` —
a zero-copy O(1) attach regardless of graph size.

Ownership rule (pinned in ROADMAP and the leak tests): **segments
are owned by the serving process and unlinked exactly once** — either
when LRU eviction drops them or when :meth:`SharedGraphCache.close` runs
at worker shutdown.  Slot processes only ever ``close()`` their mapping;
they must not unlink (on Linux an unlinked-but-mapped segment stays
usable until the last mapping closes, so eviction never breaks a slot
mid-task).  A slot that dies mid-task therefore leaks nothing: the
segment it mapped is still owned — and later unlinked — by the server.

Attaching from a slot meets one CPython quirk: before 3.13,
``SharedMemory(name=...)`` registers the mapping with the
``resource_tracker`` even for non-owners, and a tracker *unlinks* what
is still registered once every process using it has exited (bpo-39959).
We pass ``track=False`` where available.  Otherwise no unregister is
needed, because slots share the serving process's tracker: fork children
inherit it (:class:`SharedGraphCache` starts it before any slot exists),
and spawn and forkserver children are handed it.  That tracker keeps one
set of names per resource type, so a slot's registration repeats the
owner's and changes nothing; the owner's ``unlink()`` is the one
unregister.  A slot that unregistered would remove the *owner's* entry,
and the owner's later unlink would make the tracker print a
``KeyError`` traceback.

Sharing the tracker has one more consequence for fork slots: the
tracker's lock is taken by the serving process's relay threads on every
segment create and unlink, and a slot forked while one of them held it
would inherit a lock that no thread of the slot can release.  Its first
attach would then block forever; every fork child therefore starts with
a fresh lock.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

from repro.graphs.csr import CSRGraph, CSRGraphView

#: Segment names look like ``repro-csr-<server pid>-<counter>``; the
#: prefix is what leak checks (and CI's ``ls /dev/shm`` artifacts) grep.
SEGMENT_PREFIX = "repro-csr"


def _unheld_tracker_lock_in_child() -> None:
    """Replace the inherited resource-tracker lock (see module docstring)."""
    resource_tracker._resource_tracker._lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unheld_tracker_lock_in_child)


class _AttachedSegment(shared_memory.SharedMemory):
    """A non-owning mapping whose ``close`` tolerates live views.

    At interpreter shutdown the ``SharedMemory`` finalizer may run while
    CSR memoryviews into the buffer are still alive (GC order is
    arbitrary), which raises ``BufferError`` from ``close``.  The mapping
    is released by process exit regardless, so swallow it.
    """

    def close(self) -> None:  # see class docstring
        with contextlib.suppress(BufferError):
            super().close()


def attach_segment(name: str) -> CSRGraphView:
    """Map segment *name* read-only and return the CSR graph view.

    The returned view keeps the mapping alive (the ``SharedMemory``
    object rides along as the array owner); nothing is copied.  Raises
    ``FileNotFoundError`` if the segment is gone (e.g. evicted between
    the reply and the attach) — callers fall back to regenerating.
    """
    try:
        shm = _AttachedSegment(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg; see module docstring
        shm = _AttachedSegment(name=name)
    try:
        return CSRGraph.from_buffer(shm.buf, owner=shm).view()
    except Exception:
        shm.close()
        raise


def active_segments() -> List[str]:
    """Names of live ``repro-csr`` segments on this host (Linux: /dev/shm).

    Diagnostic for leak tests and CI failure artifacts; returns ``[]``
    where /dev/shm doesn't exist.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(SEGMENT_PREFIX))


def reap_stale_segments() -> List[str]:
    """Unlink ``repro-csr`` segments whose owning process is dead.

    A SIGKILL'd (or OOM-killed) serving process cannot run its shutdown
    unlink; its segments would otherwise persist until reboot.  Segment
    names embed the owner's pid, so any server starting on the host can
    safely reap orphans: a pid that no longer exists cannot be serving
    slots from them.  Segments whose owner is still alive — including a
    recycled pid — are left strictly alone.  Returns the reaped names.
    """
    reaped: List[str] = []
    for name in active_segments():
        parts = name.split("-")
        try:
            owner_pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        try:
            os.kill(owner_pid, 0)
        except ProcessLookupError:
            pass  # owner is gone; the segment is an orphan
        except OSError:
            continue  # e.g. EPERM: someone else's live process
        else:
            continue  # owner still running
        with contextlib.suppress(OSError):
            os.unlink(os.path.join("/dev/shm", name))
            reaped.append(name)
    return reaped


class SharedGraphCache:
    """LRU of shared-memory CSR segments, owned by the serving process.

    Sized like the worker-local graph cache (``REPRO_GRAPH_CACHE``,
    default 32, floor 1 — a zero-sized shared cache would thrash every
    request).  Eviction and :meth:`close` are the only two places a
    segment is ever unlinked, and :meth:`close` is idempotent, so each
    segment is unlinked exactly once.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is None:
            from repro.experiments.executor import _resolve_graph_cache_size
            max_entries = _resolve_graph_cache_size()
        self._max_entries = max(1, max_entries)
        # Fork slots must inherit this process's resource tracker; one
        # started later, in a slot, would unlink the segments the slot
        # attached when it exits (see the module docstring).
        resource_tracker.ensure_running()
        self._lock = threading.Lock()
        self._segments: "OrderedDict[Tuple[str, int, int], shared_memory.SharedMemory]" = OrderedDict()
        self._counter = itertools.count()
        self._closed = False
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_create(self, family: str, n: int, graph_seed: int) -> str:
        """Return the segment name for a combo, creating it on first use."""
        key = (family, n, graph_seed)
        with self._lock:
            if self._closed:
                raise RuntimeError("shared graph cache is closed")
            segment = self._segments.get(key)
            if segment is not None:
                self._segments.move_to_end(key)
                self._hits += 1
                return segment.name
        # Generate outside the lock: graph construction dominates, and
        # concurrent requests for *different* keys shouldn't serialise.
        from repro.graphs.generators import build_csr

        csr = build_csr(family, n, seed=graph_seed)
        evicted: List[shared_memory.SharedMemory] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("shared graph cache is closed")
            segment = self._segments.get(key)
            if segment is not None:  # lost a build race; theirs wins
                self._segments.move_to_end(key)
                self._hits += 1
                return segment.name
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(self._counter)}"
            segment = shared_memory.SharedMemory(name=name, create=True,
                                                 size=csr.nbytes)
            csr.pack_into(segment.buf)
            self._misses += 1
            self._segments[key] = segment
            while len(self._segments) > self._max_entries:
                _, old = self._segments.popitem(last=False)
                self._evictions += 1
                evicted.append(old)
        for old in evicted:
            self._unlink(old)
        return segment.name

    @staticmethod
    def _unlink(segment: shared_memory.SharedMemory) -> None:
        with contextlib.suppress(OSError):
            segment.close()
        with contextlib.suppress(FileNotFoundError, OSError):
            segment.unlink()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "maxsize": self._max_entries,
                "currsize": len(self._segments),
            }

    def close(self) -> None:
        """Unlink every live segment.  Idempotent; called at shutdown."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            self._unlink(segment)
