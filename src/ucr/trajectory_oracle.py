"""Independent verification path: exact single-particle trajectories whose
time averages over one period must reproduce the ensemble moments.

The trajectories are piecewise analytic, not ODE solutions, so any
disagreement with the quadrature moments indicts the quadrature or scaling
code rather than this oracle.  The oracle samples only inside one period,
where each system's x(t) and p(t) are evaluated directly, in blocks of
`BLOCK` sample times.  The means run over the whole X and P arrays, so the
blocking moves no bit; memory is 16 bytes per sample plus one block.
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

BLOCK = 8192  # samples per block: 64 KB per float array


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
    return Trajectory(model, energy, *model.variant.trajectory(energy))


def trajectory_moments(traj: Trajectory, samples: int) -> ScaledMoments:
    """Scaled moments as time averages over one period at uniformly spaced
    sample times, offset by half a step (the midpoint rule), which keeps the
    well's square-wave momentum away from the wall discontinuities.

    X and P are evaluated in blocks of `BLOCK` samples into two whole-length
    arrays; each mean is one `np.mean` over a whole array (X² and P² squared
    in place), so no bit depends on the blocking.  Memory is 16 bytes per
    sample plus one block."""
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"need an integer of at least 2 samples, got {samples!r}")
    x, p = np.empty(samples), np.empty(samples)
    for lo in range(0, samples, BLOCK):
        hi = min(lo + BLOCK, samples)
        # t < period: (N - 1/2) fl(P/N) <= (1 - 1/2N)(1 + 2^-53) P rounds below P for N < ~2^51
        t = (np.arange(lo, hi) + 0.5) * (traj.period / samples)
        np.divide(traj.position_in_period(t), traj.turning_point, out=x[lo:hi])
        np.divide(traj.momentum_in_period(t), math.sqrt(2.0 * traj.model.mass * traj.energy), out=p[lo:hi])
    return ScaledMoments(  # keywords evaluate in order: each mean before its array is squared
        mean_x=float(np.mean(x)),
        mean_x2=float(np.mean(np.square(x, out=x))),
        mean_p=float(np.mean(p)),
        mean_p2=float(np.mean(np.square(p, out=p))),
        realm="classical",
        method="trajectory",
    )
