"""In-memory spans recorded by wrappers installed around public functions.

A `Tracer` replaces a function at the name through which its callers
reach it (a module global such as `basts.splitter.build_cfg`, or a class
attribute such as `Adam.step`) with a wrapper that records one span per
call: span id, name, start, end, parent span id and root span id. The
root span id groups every span caused by one timed unit of work. Leaving
the `with` block puts the original functions back.

Counters are bumped from the wrapped call's arguments and result. A
counter that is cheap (a `len`) runs right after the call; one that walks
a structure is deferred to `finish()`, so its cost is not charged to the
enclosing span's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [span_id, name, start, end, parent_id, root_id]; end is None while open
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._deferred: list = []
        self._stack: list[list] = []
        self._patches: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        rec = [span_id, name, 0.0, None,
               parent[0] if parent else None,
               parent[5] if parent else span_id]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name: str, count=None, deferred=None):
        """Replace `owner.attr` by a span-recording wrapper.

        `count(counts, args, result)` runs right after each call;
        `deferred(counts, result)` runs once per call inside `finish()`.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                count(tracer.counts, args, result)
            if deferred is not None:
                tracer._deferred.append((deferred, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finish(self) -> Counter:
        """Run deferred counters; returns the final counts."""
        for fn, result in self._deferred:
            fn(self.counts, result)
        self._deferred.clear()
        return self.counts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, root in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent, "root": root,
                }) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover. Children of one parent never
    overlap (one thread), so their clipped durations add up.
    """
    covered: dict[int, float] = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    for span_id, _, start, end, parent, _ in spans:
        if parent is None:
            continue
        p = by_id[parent]
        covered[parent] += max(0.0, min(end, p[3]) - max(start, p[2]))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        out[name] += (end - start) - covered[span_id]
    return dict(out)


def child_count(spans, child: str, parent: str) -> int:
    """Number of spans named `child` whose direct parent is named `parent`."""
    names = {s[0]: s[1] for s in spans}
    return sum(1 for s in spans if s[1] == child and s[4] is not None
               and names[s[4]] == parent)
