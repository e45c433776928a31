"""Independent verification path: exact single-particle trajectories whose
time averages over one period must reproduce the ensemble moments.

The trajectories are piecewise analytic, not ODE solutions, so any
disagreement with the quadrature moments indicts the quadrature or scaling
code rather than this oracle.  The oracle samples only inside one period,
where each system's x(t) and p(t) are evaluated directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical_ensemble import PotentialModel, ScaledMoments
from .systems import _require_positive

__all__ = ["Trajectory", "build_trajectory", "trajectory_moments"]


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
    well's square-wave momentum away from the wall discontinuities."""
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"need an integer of at least 2 samples, got {samples!r}")
    # t < period: (N - 1/2) fl(P/N) <= (1 - 1/2N)(1 + 2^-53) P rounds below P for N < ~2^51
    t = (np.arange(samples) + 0.5) * (traj.period / samples)
    x = traj.position_in_period(t) / traj.turning_point
    p = traj.momentum_in_period(t) / math.sqrt(2.0 * traj.model.mass * traj.energy)
    return ScaledMoments(
        mean_x=float(np.mean(x)),
        mean_x2=float(np.mean(x ** 2)),
        mean_p=float(np.mean(p)),
        mean_p2=float(np.mean(p ** 2)),
        realm="classical",
        method="trajectory",
    )
