"""In-memory span recording for traced benchmark runs.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the benchmark operation it
belongs to (negative for set-up repetitions).  Spans stay in memory until
``write`` saves them as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        # (op, counter name) -> amount, for work measured at a span boundary
        self.counters: dict[tuple, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._self_ns: list[int] | None = None

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` returns
        ``{counter: amount}`` to add for the current operation."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result).items():
                    self.counters[(self.op, key)] += amount
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by its traced wrapper until ``uninstall``."""
        original = getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, count))

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Raises ValueError when a span ends before it starts, a child does
        not lie inside its parent, or a self time is negative.
        """
        if self._self_ns is None:
            own = [end - start for _, start, end, _, _ in self.spans]
            for name, start, end, parent, _ in self.spans:
                if end < start:
                    raise ValueError(f"span {name} ends before it starts")
                if parent >= 0:
                    _, p_start, p_end, _, _ = self.spans[parent]
                    if start < p_start or end > p_end:
                        raise ValueError(f"span {name} is not inside its parent")
                    own[parent] -= end - start
            for (name, *_), value in zip(self.spans, own):
                if value < 0:
                    raise ValueError(f"span {name} has negative self time")
            self._self_ns = own
        return self._self_ns

    def totals(self, setup: bool) -> tuple[dict, dict, dict, int]:
        """Per-name calls, inclusive ns and self ns over the timed operations
        (or the set-up repetitions), and how many of those there were."""
        calls, incl, own = defaultdict(int), defaultdict(int), defaultdict(int)
        ops = set()
        for (name, start, end, _, op), self_ns in zip(self.spans, self.self_times()):
            if (op < 0) == setup:
                ops.add(op)
                calls[name] += 1
                incl[name] += end - start
                own[name] += self_ns
        return calls, incl, own, len(ops)

    def durations(self, name) -> list[int]:
        return [end - start for n, start, end, _, op in self.spans if n == name and op >= 0]

    def op_counts(self, n_ops) -> list[dict]:
        """Work counts of each timed operation: span calls and counters."""
        out = [defaultdict(float) for _ in range(n_ops)]
        for name, _, _, _, op in self.spans:
            if 0 <= op < n_ops:
                out[op][f"{name}.calls"] += 1
        for (op, key), amount in self.counters.items():
            if 0 <= op < n_ops:
                out[op][key] += amount
        return out
