"""Independent verification path: exact single-particle trajectories whose
time averages over one period must reproduce the ensemble moments.

The trajectories are piecewise analytic, not ODE solutions, so any
disagreement with the quadrature moments indicts the quadrature or scaling
code rather than this oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical_ensemble import PotentialModel, ScaledMoments

__all__ = ["Trajectory", "build_trajectory", "trajectory_moments"]


@dataclass(frozen=True)
class Trajectory:
    model: PotentialModel
    energy: float
    period: float
    turning_point: float
    position_of_time: Callable[[np.ndarray], np.ndarray]
    momentum_of_time: Callable[[np.ndarray], np.ndarray]


def build_trajectory(model: PotentialModel, energy: float) -> Trajectory:
    """Exact one-period trajectory at energy E, starting from the phase
    convention x(0) = 0 moving in the positive direction (bouncer: launch
    from the floor)."""
    if not energy > 0:
        raise ValueError(f"energy must be positive, got {energy}")
    return Trajectory(model, energy, *model.variant.trajectory(energy))


def trajectory_moments(traj: Trajectory, samples: int) -> ScaledMoments:
    """Scaled moments as time averages over one period at uniformly spaced
    sample times, offset by half a step (the midpoint rule), which keeps the
    well's square-wave momentum away from the wall discontinuities."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    t = (np.arange(samples) + 0.5) * (traj.period / samples)
    x = traj.position_of_time(t) / traj.turning_point
    p = traj.momentum_of_time(t) / math.sqrt(2.0 * traj.model.mass * traj.energy)
    return ScaledMoments(
        mean_x=float(np.mean(x)),
        mean_x2=float(np.mean(x ** 2)),
        mean_p=float(np.mean(p)),
        mean_p2=float(np.mean(p ** 2)),
        realm="classical",
        method="trajectory",
    )
