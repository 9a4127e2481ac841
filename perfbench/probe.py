"""Host-speed gauge, timed in a helper process the program cannot reach.

    with Probe() as probe:
        seconds = probe()

On a shared host the speed of allocation-heavy Python code swings by
25-50 % within seconds. The harness divides each op's wall time by the
mean of the gauge readings taken just before and just after it (short
ops share a pair of readings), which
cancels most of that swing while a change in the program still shows
in full. The kernel runs in a long-lived child process started with
`python3 perfbench/probe.py`, so its time depends on the host alone and
not on the heap of the process under test: a cache or a growing trace
log there does not slow the gauge.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time


def kernel() -> float:
    """Seconds for a fixed object-churn kernel (~4 ms)."""
    gc.collect()
    t0 = time.perf_counter()
    table = {}
    for i in range(5000):
        table[(str(i), i % 7)] = frozenset((i, i + 1))
    del table
    return time.perf_counter() - t0


class Probe:
    """Client of the helper process: each call is one gauge reading, the
    median of three kernel timings there (back-to-back single timings
    differ by 8 % in the median and by 26-35 % one time in ten)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(statistics.median(kernel() for _ in range(3))), flush=True)
