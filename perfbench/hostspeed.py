"""Host speed reference, so that host drift is not read as a code change.

On a shared host the same interpreter work can take 30% longer from one
minute to the next.  The benchmark therefore times a fixed pure-Python
loop, :func:`reference`, next to its own work and reports every
time-based end-to-end metric in *reference-host seconds*: wall seconds
divided by the run's slowness, the mean reference time over
:data:`NOMINAL_S`.  The wall-clock values are recorded beside them.

The loop runs in a helper interpreter that never imports the program,
so nothing the program does to its own process (a tracing hook, a
garbage-collector setting) can speed up or slow down the reference.
The helper only runs while the benchmark waits for it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: reference-loop seconds on the host the constants were set on
NOMINAL_S = 0.15
ITERATIONS = 600_000


def reference(n: int = ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic and dict updates."""
    acc = 0
    table = dict.fromkeys(range(256), 0)
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 255
        table[k] += i
        acc += table[k] % 7
    return acc


def slowness(samples: list) -> float:
    """Mean reference time over nominal: above 1 on a slow host."""
    return statistics.fmean(samples) / NOMINAL_S


class HostSpeed:
    """A helper interpreter timing :func:`reference` on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.sample()  # the first pass pays the helper's warm-up

    def sample(self) -> float:
        """Time one reference pass now (seconds)."""
        if self._proc.stdin is None or self._proc.stdout is None:
            raise RuntimeError("host speed helper has no pipes")
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host speed helper exited")
        return float(line)

    def close(self) -> None:
        if self._proc.stdin is not None:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _serve() -> None:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        reference()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    _serve()
