"""Independent verification path: exact single-particle trajectories whose
time averages over one period must reproduce the ensemble moments.

The trajectories are piecewise analytic, not ODE solutions, so any
disagreement with the quadrature moments indicts the quadrature or scaling
code rather than this oracle.  The oracle samples only inside one period,
where each system's x(t) and p(t) are evaluated directly, one block of at
most `BLOCK` sample times at a time.  The blocks are the pieces of numpy's
pairwise summation, so the sums equal whole-array means bit for bit as long
as numpy splits a contiguous float64 sum as `trajectory_moments` does (held
by tests/test_trajectory.py); memory is one block whatever the sample count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical_ensemble import ScaledMoments
from .systems import PotentialModel, _require_positive

__all__ = ["Trajectory", "build_trajectory", "trajectory_moments"]

# samples per block: a piece's 64 KB float arrays stay below glibc's default
# 128 KiB mmap threshold, so they reuse heap memory instead of faulting in pages
BLOCK = 8192


@dataclass(frozen=True)
class Trajectory:
    """x and p of one orbit as functions of t in [0, period); reduce any other t first."""

    model: PotentialModel
    energy: float
    period: float
    turning_point: float
    position_in_period: Callable[[np.ndarray], np.ndarray]
    momentum_in_period: Callable[[np.ndarray], np.ndarray]


def build_trajectory(model: PotentialModel, energy: float) -> Trajectory:
    """Exact one-period trajectory at energy E, starting from the phase
    convention x(0) = 0 moving in the positive direction (bouncer: launch
    from the floor)."""
    _require_positive(energy=energy)
    period, position, momentum = model.variant.trajectory(energy)
    return Trajectory(model, energy, period, model.variant.turning_point(energy), position, momentum)


def trajectory_moments(traj: Trajectory, samples: int) -> ScaledMoments:
    """Scaled moments as time averages over one period at uniformly spaced
    sample times, offset by half a step (the midpoint rule), which keeps the
    well's square-wave momentum away from the wall discontinuities.

    The sample range is split as numpy's contiguous float64 `add.reduce`
    splits it, down to pieces of at most `BLOCK` samples; each piece's X,
    X², P and P² are summed by `np.add.reduce` and the piece sums added in
    numpy's tree order.  So every moment equals one `np.mean` over the whole
    array bit for bit, while memory stays one block."""
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"need an integer of at least 2 samples, got {samples!r}")
    samples = int(samples)  # a numpy integer too: the means come out as Python floats
    step = traj.period / samples
    p_scale = math.sqrt(2.0 * traj.model.mass * traj.energy)

    def sums(lo: int, hi: int) -> tuple[float, float, float, float]:
        if hi - lo > BLOCK:
            # numpy's split of a run > 128: half, rounded down to its 8-way unrolled loop
            half = (hi - lo) // 2
            mid = lo + half - half % 8
            return tuple(a + b for a, b in zip(sums(lo, mid), sums(mid, hi)))
        # t < period: (N - 1/2) fl(P/N) <= (1 - 1/2N)(1 + 2^-53) P rounds below P for N < ~2^51
        t = (np.arange(lo, hi) + 0.5) * step
        x = traj.position_in_period(t) / traj.turning_point
        p = traj.momentum_in_period(t) / p_scale
        return tuple(float(np.add.reduce(a)) for a in (x, np.square(x), p, np.square(p)))

    sum_x, sum_x2, sum_p, sum_p2 = sums(0, samples)
    return ScaledMoments(
        mean_x=sum_x / samples,
        mean_x2=sum_x2 / samples,
        mean_p=sum_p / samples,
        mean_p2=sum_p2 / samples,
        realm="classical",
        method="trajectory",
    )
