"""Host-speed calibration: a fixed kernel timed around every measured call.

On a shared host the same call can take twice as long for seconds at a time,
with process time equal to wall time, because the processor itself runs
slower. The kernel does the same kinds of work as portlab (CSV rows turned
into dates and floats, then array arithmetic) on fixed data, single threaded,
so its time tracks the host's speed and not the program's.

The kernel runs in a process of its own (``Calibrator``), so nothing a portlab
call leaves behind in the caller's process (garbage, heap layout) reaches it.
Before each request that process is moved to the processor the caller is
running on: on a shared host the two virtual processors can run at different
speeds for seconds at a time, and the speed that matters is the caller's.

A call's host factor is ``REFERENCE_S`` over the median of the kernel passes
timed just before and just after it; multiplying its wall time by that factor
gives the time the call would have taken on a host that runs the kernel in
``REFERENCE_S``. The median of several passes on each side keeps one
preempted pass from moving the factor.
"""

from __future__ import annotations

import csv
import ctypes
import io
import os
import statistics
import subprocess
import sys
import time
from datetime import date

import numpy as np

REFERENCE_S = 0.009  # about the kernel's time on the 2-vCPU Xeon VM it was tuned on
PASSES = 5  # kernel passes per request

_TEXT = "Date,Close\n" + "".join(
    f"{date.fromordinal(737000 + i).isoformat()},{100.0 + i * 0.37!r}\n" for i in range(1500)
)
_MATRIX = np.linspace(0.5, 1.5, 250 * 250).reshape(250, 250)


def kernel_s() -> float:
    """Seconds for one pass of the fixed kernel."""
    start = time.perf_counter()
    reader = csv.reader(io.StringIO(_TEXT))
    next(reader)
    rows = [(date.fromisoformat(day), float(close)) for day, close in reader]
    a = _MATRIX
    for _ in range(10):
        a = np.sqrt(np.maximum(a * a + a.T, 0.0)) / 1.5
    if len(rows) != 1500 or not np.isfinite(a).all():
        raise RuntimeError("calibration kernel computed a wrong result")
    return time.perf_counter() - start


def host_factor(kernel_times: list[float]) -> float:
    """Multiplier that scales a wall time to the reference host speed."""
    return REFERENCE_S / statistics.median(kernel_times)


def _current_cpu() -> int | None:
    try:
        cpu = ctypes.CDLL(None).sched_getcpu()
    except (OSError, AttributeError):
        return None
    return cpu if cpu >= 0 else None


class Calibrator:
    """A sibling process that runs the kernel on request and reports its times."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def kernel_s(self) -> list[float]:
        """``PASSES`` kernel times, run on the caller's current processor."""
        cpu = _current_cpu()
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self._child.pid, {cpu})
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return [float(t) for t in self._child.stdout.readline().split()]

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()  # the child's loop ends when its stdin closes
        self._child.wait(timeout=30)


if __name__ == "__main__":
    kernel_s()  # warm-up: first-touch allocations
    for _ in sys.stdin:
        print(*(repr(kernel_s()) for _ in range(PASSES)), flush=True)
