"""RPL004 — single-writer telemetry counters.

``ConnectionStats``/``RttEstimator`` counters follow a single-writer design:
exactly one slot thread mutates each instance, and every mutation lives in
``telemetry.py`` (the note_* methods), so no lock is needed.  ``Transport``
derives its totals from those blocks; a transport-wide aggregate
(``_restarts``, ``_peak_window``) would be written from multiple slot
threads and therefore must only ever be touched under the stats lock — the
unlocked ``restarts`` increment was a real shipped race (PR 6).

The rule flags (a) writes to a designated counter attribute outside its
owning module and (b) writes to a locked attribute anywhere outside a
``with <lock>:`` block.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import ClassVar, Iterator

from ..astutils import lock_guarded_ranges, within_ranges
from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register


@register
class SingleWriterTelemetry(Rule):
    code = "RPL004"
    name = "single-writer-telemetry"
    summary = (
        "designated telemetry counters are written only by their owning "
        "module, or under a lock"
    )
    default_include: ClassVar = ["src/repro/**"]
    default_options: ClassVar = {
        # attribute name -> glob (or list of globs) of the module(s) that
        # own (may write) it.  `requeues` has two owners because the
        # scheduler keeps its own requeue counter (single-threaded driver
        # loop) alongside the per-connection one.
        "owners": {
            "frames_sent": "src/repro/experiments/telemetry.py",
            "tasks_sent": "src/repro/experiments/telemetry.py",
            "batches_sent": "src/repro/experiments/telemetry.py",
            "acks": "src/repro/experiments/telemetry.py",
            "slow_acks": "src/repro/experiments/telemetry.py",
            "requeues": [
                "src/repro/experiments/telemetry.py",
                "src/repro/experiments/schedulers.py",
            ],
            "reconnects": "src/repro/experiments/telemetry.py",
            "bytes_sent": "src/repro/experiments/telemetry.py",
            "bytes_received": "src/repro/experiments/telemetry.py",
            "peak_window": "src/repro/experiments/telemetry.py",
            "srtt": "src/repro/experiments/telemetry.py",
            "rttvar": "src/repro/experiments/telemetry.py",
            "min_rtt": "src/repro/experiments/telemetry.py",
            "max_rtt": "src/repro/experiments/telemetry.py",
            "_restarts": "src/repro/experiments/transports.py",
            "_peak_window": "src/repro/experiments/transports.py",
        },
        # attributes that must be written under a lock even in their owner
        # (multi-threaded writers by design).
        "locked": ["_restarts", "_peak_window"],
    }

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        owners = self.options["owners"]
        locked = frozenset(self.options["locked"])
        guarded = lock_guarded_ranges(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                attr = target.attr
                owner = owners.get(attr)
                if owner is None:
                    continue
                owner_globs = [owner] if isinstance(owner, str) else list(owner)
                if not any(fnmatch.fnmatch(ctx.path, glob) for glob in owner_globs):
                    yield self.diagnostic(
                        ctx,
                        target,
                        f"write to telemetry counter `.{attr}` outside its owning "
                        f"module ({', '.join(owner_globs)}); counters have exactly "
                        "one writer",
                    )
                elif attr in locked and not within_ranges(target.lineno, guarded):
                    yield self.diagnostic(
                        ctx,
                        target,
                        f"write to `.{attr}` without holding the stats lock; this "
                        "attribute is written from multiple slot threads",
                    )
