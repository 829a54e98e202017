"""A fixed calibration kernel that tracks the speed of the machine.

On a shared machine the same work can take 1.7 times as long from one
minute to the next, in CPU time as well as in wall time, because other
tenants load the host.  The kernel is benchmark code that never changes,
so its CPU time moves only with the machine.  It mixes the three kinds
of work the program does: interpreted Python loops, many numpy calls on
small arrays, and array passes larger than the L2 cache (measured: it
slows down 1.68 times between the two states of the reference machine, a
fixed Hajlasz solve 1.69 times).  The benchmark runs it around every
operation and rescales the operation's CPU time by it, raised to the
workload's sensitivity (workloads.SENSITIVITY): work on large arrays
slows down less than interpreted code.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's CPU seconds on the reference machine (a 2-vCPU Xeon VM at
# 2.1 GHz, in its faster state); normalized times are seconds at that speed
REFERENCE_SECONDS = 0.0046

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)
# the large pass writes into a fixed buffer, so that the allocator's state,
# which depends on what ran before, does not change the kernel's time
_BUFFER = np.empty_like(_LARGE)


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(4000):
        key = f"{i % 97:03d}"
        table[key] = table.get(key, 0.0) + i * 0.5
    acc += sum(table.values())
    for _ in range(400):
        acc += float(np.sum(np.abs(_SMALL - 0.5) ** 2.0))
    for _ in range(2):
        np.multiply(_LARGE, _LARGE, out=_BUFFER)
        np.add(_BUFFER, 1.0, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
        acc += float(_BUFFER.sum())
    return acc


def calibration_seconds(repeats: int = 2) -> float:
    """Least CPU time of `repeats` runs of the kernel."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        _kernel()
        best = min(best, time.process_time() - t0)
    return best


def normalized(cpu_seconds: float, sensitivity: float, *calibrations: float) -> float:
    """CPU seconds rescaled to the reference speed, given the kernel's
    times measured around the work.  `sensitivity` is the exponent by
    which the work's time follows the kernel's: 1 for work that slows
    down exactly as the kernel does."""
    speed = REFERENCE_SECONDS * len(calibrations) / sum(calibrations)
    return cpu_seconds * speed**sensitivity
