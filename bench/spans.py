"""Spans and counters for the traced benchmark run.

A Tracer records one span per wrapped call: its name, start, end, parent
span and op id.  Wrapping happens by rebinding module (or class)
attributes where the library looks them up, only for the duration of a
`patched` block, so the library source is never edited and an untraced
run executes none of this code.

Spans are kept in one flat integer array in memory (six fields per span)
and written out once, when the run ends.
"""
from __future__ import annotations

import gzip
import statistics
import time
from array import array
from contextlib import contextmanager

# span record layout in Tracer.spans
_FIELDS = 6  # op, span id, parent span id (0: none), name id, start ns, end ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: dict[int, dict[str, float]] = {}
        self.op = 0
        self._stack = [0]
        self._next_id = 1

    def begin_op(self, op: int) -> None:
        """Attribute the spans and counts that follow to `op`."""
        self.op = op
        self.counts.setdefault(op, {})

    def add(self, name: str, value: float = 1) -> None:
        c = self.counts[self.op]
        c[name] = c.get(name, 0) + value

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span named `name` per call; `count(tracer,
        args, result)`, when given, records counters from each call."""
        name_id = self._name_id(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((self.op, sid, parent, name_id, t0, t1))
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, fn, name: str):
        """`fn` adding 1 to counter `name` per call, without a span (for
        calls too frequent to trace one by one)."""

        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def patched(self, targets):
        """Rebind every (owner, attribute, span name, count) target to a
        wrapped version; a span name of None only counts calls, under the
        counter named by `count`.  Every original is restored on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                if name is None:
                    setattr(owner, attr, self.wrap_count(orig, count))
                else:
                    setattr(owner, attr, self.wrap(orig, name, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, per span name: seconds of span time not covered by
        direct child spans.  The key "" holds the summed duration of the
        op's top-level spans."""
        s = self.spans
        n = len(s) // _FIELDS
        name_of = {}
        for k in range(n):
            b = k * _FIELDS
            name_of[s[b + 1]] = s[b + 3]
        out: dict[int, dict[str, float]] = {}
        for k in range(n):
            op, sid, parent, name_id, t0, t1 = s[k * _FIELDS : (k + 1) * _FIELDS]
            dur = (t1 - t0) / 1e9
            per = out.setdefault(op, {})
            name = self.names[name_id]
            per[name] = per.get(name, 0.0) + dur
            if parent == 0:
                per[""] = per.get("", 0.0) + dur
            else:
                pname = self.names[name_of[parent]]
                per[pname] = per.get(pname, 0.0) - dur
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, times in ns, to a
        gzip file."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for k in range(0, len(s), _FIELDS):
                op, sid, parent, name_id, t0, t1 = s[k : k + _FIELDS]
                fh.write(f"{op}\t{sid}\t{parent}\t{self.names[name_id]}\t{t0}\t{t1}\n")


def median_over(ops, per_op: dict, key: str) -> float:
    """Median of per_op[op][key] over `ops`, a missing entry reading 0."""
    return statistics.median(per_op.get(op, {}).get(key, 0.0) for op in ops)
