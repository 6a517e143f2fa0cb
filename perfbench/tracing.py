"""Spans recorded from the benchmark's own code around calls into splinefm.

`Tracer.patch` replaces public functions of the package's modules with
wrappers for the duration of a traced run, and `Tracer.restore` puts the
originals back; nothing in `splinefm` itself changes. Each span has a
name, a start, an end and the span it was opened under. Spans are kept
in memory and written out when the run ends.

Per-row and per-point calls (`encode_row`, `SplineBasis.eval_sparse`,
the transforms' `apply`) happen hundreds of thousands of times a run,
so they are not kept as spans: each is a counter of calls and seconds
at the same boundary, which keeps memory flat and overhead small.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, attrs)
        self._open = []  # stack of open span ids
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._patches = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its attribute dict."""
        attrs = {}
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the id; children may follow
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, attrs)

    def _wrap(self, fn, name, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(attrs, args, result)
            return result

        return traced

    def _wrap_leaf(self, fn, name):
        cell = self.leaf[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - start
            cell[0] += 1
            return result

        return traced

    def patch(self, owners, attr, name, leaf=False, on_result=None):
        """Wrap `attr` on every object in `owners` (modules or classes that
        look the name up at call time) with one shared traced wrapper, and
        return the original. `on_result(attrs, args, result)` may add work
        counts to a span's attributes; leaf wrappers only count calls."""
        original = getattr(owners[0], attr)
        if leaf:
            wrapped = self._wrap_leaf(original, name)
        else:
            wrapped = self._wrap(original, name, on_result)
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
        return original

    def reset(self) -> None:
        """Forget every span and zero every counter (between spans only)."""
        self.spans.clear()
        for cell in self.leaf.values():
            cell[0], cell[1] = 0, 0.0

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def closed(self):
        return [s for s in self.spans if s is not None]

    def durations(self, name: str, under: str | None = None) -> list:
        """Durations of spans called `name`, optionally only those with an
        ancestor called `under`."""
        spans = self.closed()
        by_id = {s[0]: s for s in spans}

        def has_ancestor(s):
            parent = s[4]
            while parent is not None:
                if by_id[parent][1] == under:
                    return True
                parent = by_id[parent][4]
            return False

        return [
            s[3] - s[2]
            for s in spans
            if s[1] == name and (under is None or has_ancestor(s))
        ]

    def self_times(self, name: str) -> list:
        """Each `name` span's duration minus the time its child spans cover.

        Children run one after another in this single-threaded program,
        so their covered time is the sum of their durations.
        """
        spans = self.closed()
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - child_time[s[0]] for s in spans if s[1] == name]

    def rate(self, name: str, key: str) -> float:
        """Summed work attribute `key` over summed duration of `name` spans."""
        work = sum(s[5][key] for s in self.closed() if s[1] == name)
        return work / sum(self.durations(name))

    def leaf_rate(self, name: str) -> float:
        calls, seconds = self.leaf[name]
        return calls / seconds

    def write(self, path) -> None:
        """Write spans as JSON lines (times relative to the first span),
        then one line per leaf counter."""
        spans = self.closed()
        t0 = min(s[2] for s in spans)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, attrs in spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, **attrs,
                }) + "\n")
            for name, (calls, seconds) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "seconds": seconds}) + "\n")
