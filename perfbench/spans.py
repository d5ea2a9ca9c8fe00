"""In-memory span recording with parent links and self-time arithmetic.

A span is ``(name, parent, start_ns, end_ns)``; its parent is the span that
was open on the same thread when it started.  A span's *self* time is its
duration minus the part of its interval that its child spans cover (the
union of the children's intervals, clipped to the parent), so self times
of one thread's span tree partition the root's duration.

Spans are kept in memory and folded into per-name totals by
:meth:`SpanRecorder.drain` at quiescent points (no span open), which keeps
memory bounded by the spans between two drains.  Totals are kept per
*phase* (``"setup"`` or ``"rounds"``) so environment pretraining never
counts as defended-round time.

Forked worker processes inherit a recorder that was shared with
:func:`multiprocessing.util.register_after_fork`: the child starts with
empty totals, remembers the phase it was forked in, and writes its totals
to a JSON file in a spool directory when the worker exits, where
:func:`read_spool` collects them.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Per-name totals: calls, inclusive and exclusive nanoseconds, plus any
#: named counters the instrumentation adds (``models``, ``bytes``, ...).
Totals = dict[str, dict[str, int]]


def union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def fold_spans(spans: list[list], totals: Totals) -> None:
    """Add closed ``[name, parent, start, end]`` spans into ``totals``."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    for idx, (name, _parent, start, end) in enumerate(spans):
        row = totals.setdefault(name, {"n": 0, "busy_ns": 0, "self_ns": 0})
        duration = end - start
        row["n"] += 1
        row["busy_ns"] += duration
        row["self_ns"] += duration - union_ns(children.get(idx, []), start, end)


def merge_totals(into: Totals, other: Totals) -> None:
    """Sum ``other``'s per-name rows into ``into``."""
    for name, row in other.items():
        target = into.setdefault(name, {"n": 0, "busy_ns": 0, "self_ns": 0})
        for key, value in row.items():
            target[key] = target.get(key, 0) + value


class SpanRecorder:
    """Records spans per thread and folds them into per-phase totals.

    ``clock`` returns nanoseconds (default :func:`time.perf_counter_ns`);
    tests substitute a fake one.  Opening a span with the same name as the
    innermost open span on the thread returns ``None`` and records
    nothing, so a wrapped method that delegates to another wrapped
    implementation of itself counts once.
    """

    def __init__(self, clock=time.perf_counter_ns, spool_dir: Path | None = None):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[list] = []
        self._counters: Totals = {}
        self.totals: dict[str, Totals] = {}
        self.phase = "setup"
        self.spool_dir = spool_dir
        if spool_dir is not None:
            multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int | None:
        """Start a span; returns its token, or None for a same-name re-entry."""
        stack = self._stack()
        with self._lock:
            if stack and self._spans[stack[-1]][0] == name:
                return None
            idx = len(self._spans)
            self._spans.append(
                [name, stack[-1] if stack else -1, self._clock(), None]
            )
        stack.append(idx)
        return idx

    def close(self, token: int) -> None:
        """End the span ``token`` (the innermost open span on this thread)."""
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] != token:
            raise RuntimeError("spans must close innermost-first on their thread")
        stack.pop()
        with self._lock:
            self._spans[token][3] = end

    def count(self, name: str, key: str, value: int) -> None:
        """Add ``value`` to the counter ``key`` of span name ``name``."""
        with self._lock:
            row = self._counters.setdefault(name, {})
            row[key] = row.get(key, 0) + int(value)

    # -- folding --------------------------------------------------------
    def drain(self) -> None:
        """Fold every recorded span into the current phase's totals.

        Must be called with no span open on any thread: open spans are
        referenced by index from the per-thread stacks.
        """
        with self._lock:
            spans, self._spans = self._spans, []
            counters, self._counters = self._counters, {}
        if any(span[3] is None for span in spans):
            raise RuntimeError("drain() called while a span is still open")
        phase_totals = self.totals.setdefault(self.phase, {})
        fold_spans(spans, phase_totals)
        merge_totals(phase_totals, counters)

    def set_phase(self, phase: str) -> None:
        """Drain, then attribute later spans to ``phase``."""
        self.drain()
        self.phase = phase

    # -- forked workers -------------------------------------------------
    def _after_fork(self) -> None:
        # The child inherits the forking thread's open spans; none of them
        # will close here, so start empty.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans = []
        self._counters = {}
        self.totals = {}
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        self.drain()
        if not self.totals:
            return
        path = self.spool_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps({"pid": os.getpid(), "totals": self.totals}))


def read_spool(spool_dir: Path) -> tuple[dict[str, Totals], int]:
    """Per-phase totals summed over every worker dump, and the dump count."""
    merged: dict[str, Totals] = {}
    files = sorted(spool_dir.glob("*.json"))
    for path in files:
        payload = json.loads(path.read_text())
        for phase, totals in payload["totals"].items():
            merge_totals(merged.setdefault(phase, {}), totals)
    return merged, len(files)
