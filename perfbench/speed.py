"""Speed probe that turns measured seconds into reference-box seconds.

The benchmark box's vCPUs change speed by up to half within seconds as other
tenants load the host, and the process's CPU time changes with them, so
neither wall time nor CPU time repeats from run to run. A short fixed probe,
run right before and after each measured interval, tracks that speed; the
interval is scaled by REFERENCE_PROBE_S over the probe's time around it.

This module imports only what a fresh interpreter has already loaded, so the
set-up probe can use it without changing what `import ucr` has to load.
"""

import math
import time

# The probe's time on the reference box, a 2-vCPU x86-64 VM running CPython
# 3.11, when the vCPU runs at full speed; its speed about halves when the
# host loads the other thread of its core.
REFERENCE_PROBE_S = 65e-6
# Probes further apart than this ratio bracket a change of speed.
STEADY_RATIO = 1.15


class _Pair:
    __slots__ = ("value", "arg")

    def __init__(self, value: float, arg: float):
        self.value = value
        self.arg = arg


def _horner(x: float, coefficients: list[float]) -> tuple[float, float]:
    value = 0.0
    for k in range(len(coefficients) - 1, -1, -1):
        value = value * x + coefficients[k]
    return value, x


def _kernel() -> float:
    # The package's mix in miniature: memoised calls that build small result
    # objects from polynomial sums, scalar math on them, and a tight
    # three-term recurrence. Each half alone tracked some workloads' speed
    # changes only half as well as the other half did.
    coefficients = [1.0 / (k + 1) for k in range(12)]
    memo = {}
    acc = 0.0
    for k in range(100):
        x = (k % 25) * 0.01
        pair = memo.get(x)
        if pair is None:
            pair = _Pair(*_horner(x, coefficients))
            memo[x] = pair
        acc += math.exp(-pair.value) * pair.arg
    for j in range(4):
        y = 0.3 + 0.1 * j
        h_prev, h = 1.0, 2.0 * y
        for k in range(1, 40):
            h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
        acc += h
    return acc


def probe() -> float:
    """Seconds the probe takes now: the best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two probes into reference-box seconds."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)


def steady(before: float, after: float) -> bool:
    """Whether two probes agree well enough that the speed held between them."""
    return max(before, after) <= STEADY_RATIO * min(before, after)
