"""In-memory span tracer and the statistics the benchmark reports.

The tracer replaces chosen module attributes with wrappers that record
one span per call: name, start, end, parent span and op id. Calls are
also logged with their arguments and result so that counters are
derived after the timed region, not inside it. Nothing is written until
the caller dumps the spans at exit. A tracer in a child process hands
its spans and counters to the parent's tracer, which adopts them.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    span: int
    args: tuple
    result: object
    error: BaseException | None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []
        self.counts: dict = {}  # counters adopted from child processes

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; child spans share its op id."""
        self._op += 1
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._end(idx)
                self.calls.append(Call(idx, args, None, exc))
                raise
            self._end(idx)
            self.calls.append(Call(idx, args, result, None))
            return result

        return traced

    def adopt(self, spans: list[dict], counts: dict) -> None:
        """Take in a child process's spans (as dumped) and counters.

        The child's top-level spans become children of the current span
        and all of them join the current op. Both processes read the
        same monotonic clock, so start and end stay comparable.
        """
        base, parent = len(self.spans), self._stack[-1]
        for s in spans:
            s = Span(**s)
            self.spans.append(Span(s.name, s.start, s.end, s.parent + base if s.parent >= 0 else parent, self._op))
        for name, count in counts.items():
            self.counts[name] = self.counts.get(name, 0) + count

    def install(self, targets) -> None:
        """targets: (module, attribute, span name) triples."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans_as_dicts():
                fh.write(json.dumps(span) + "\n")

    def spans_as_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so their covered
    time is the sum of their durations.
    """
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
