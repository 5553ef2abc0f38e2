"""Span tracing of boostlab from outside the package.

The tracer replaces public functions in the namespace the caller looks
them up in (harness binds draw_batch, train_step, ... with `from ...
import`, and sampler binds calibrate_batch_full the same way), records a
span per call in memory, and restores every name afterwards. Self time
is computed from the recorded spans, not measured separately.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index] plus per-name call counts
    and tallies (sums of a quantity observed on each call)."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, timed=True, tally=None):
        """`name` is a string or a function of the call's arguments; `tally`
        maps (args, result) to a number summed under the span name."""

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self.calls[label] += 1
            if not timed:
                return fn(*args, **kwargs)
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tally is not None:
                self.tallies[label] += tally(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, name, timed, tally)
        targets; the original attributes come back on exit."""
        saved = []
        try:
            for module, attr, name, timed, tally in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, timed, tally))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct
        children cover. Spans nest strictly (one thread), so the self
        times of all spans sum to the duration of the roots."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def dump(self, fh, op: int) -> None:
        """Append the spans as JSON lines, tagged with the operation index
        so the spans of one operation share an identifier."""
        for index, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps([op, index, name, start, end, parent]) + "\n")
