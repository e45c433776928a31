"""Fixed-energy classical ensembles for the three bound systems: position
density, phase-space averaging reduced to the two momentum branches, and the
closed-form scaled moments each system is known to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .quadrature import DEFAULT_SPEC, IntegralResult, QuadratureSpec, integrate_singular_endpoints
from .systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel

__all__ = [
    "BouncingBall",
    "ClassicalEnsemble",
    "HarmonicOscillator",
    "InfiniteWell",
    "PotentialModel",
    "ScaledMoments",
    "build_ensemble",
    "classical_density",
    "classical_moments_closed_form",
    "classical_moments_quadrature",
]


@dataclass(frozen=True)
class ScaledMoments:
    """First and second moments of the dimensionless position and momentum,
    with the variance bookkeeping derived rather than stored."""

    mean_x: float
    mean_x2: float
    mean_p: float
    mean_p2: float
    realm: str  # "classical" | "quantum"
    method: str  # "closed-form" | "quadrature" | "trajectory"

    @property
    def var_x(self) -> float:
        return self.mean_x2 - self.mean_x ** 2

    @property
    def var_p(self) -> float:
        return self.mean_p2 - self.mean_p ** 2

    @property
    def product(self) -> float:
        return self.var_x * self.var_p

    def fields(self) -> tuple[float, float, float, float, float, float]:
        return (self.mean_x, self.mean_x2, self.mean_p, self.mean_p2, self.var_x, self.var_p)


@dataclass(frozen=True)
class ClassicalEnsemble:
    model: PotentialModel
    energy: float
    turning_point: float
    normalization: float
    normalization_result: IntegralResult = field(repr=False, compare=False)

    @property
    def region(self) -> tuple[float, float]:
        lo, hi = self.model.variant.scaled_region
        return (lo * self.turning_point, hi * self.turning_point)


def _density_integrals(
    model: PotentialModel, energy: float, turning: float, weight: Callable[..., np.ndarray], spec: QuadratureSpec
) -> IntegralResult:
    """Integral of weight(x, sqrt(E - V(x))) over the classical region, where
    weight divides by its second argument.  Endpoint-offset forms of that
    root resolve the turning-point singularities to full precision.  An
    (m, k) weight, like an integrand, gives one pass with m integrals."""
    lo, hi = model.variant.scaled_region
    a, b = lo * turning, hi * turning
    emv, from_left, from_right = model.variant.kinetic(energy, turning)
    return integrate_singular_endpoints(
        lambda x: weight(x, np.sqrt(emv(x))), a, b, spec,
        from_left=lambda s: weight(a + s, np.sqrt(from_left(s))),
        from_right=lambda s: weight(b - s, np.sqrt(from_right(s))),
    )


def build_ensemble(model: PotentialModel, energy: float = 1.0, spec: QuadratureSpec = DEFAULT_SPEC) -> ClassicalEnsemble:
    """Construct the ensemble, computing the normalization numerically (it
    is never hard-coded, so the closed-form moments remain an independent
    check)."""
    if not (energy > 0 and math.isfinite(energy)):
        raise ValueError(f"energy must be strictly positive and finite, got {energy}")
    turning = model.variant.turning_point(energy)
    raw = _density_integrals(model, energy, turning, lambda x, root: 1.0 / root, spec)
    return ClassicalEnsemble(model, energy, turning, 1.0 / raw.value, raw)


def classical_density(ens: ClassicalEnsemble, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """P_CL(x) at a float or a 1-D array: normalization / sqrt(E - V(x))
    inside the classical region, zero outside, +inf exactly at a turning
    point (integrable divergence)."""
    a, b = ens.region
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    emv = ens.model.variant.kinetic(ens.energy, ens.turning_point)[0](xs)
    with np.errstate(divide="ignore", invalid="ignore"):  # E - V <= 0 at a turning point and outside
        inside = np.where(emv <= 0.0, math.inf, ens.normalization / np.sqrt(emv))
    density = np.where((xs < a) | (xs > b), 0.0, inside)
    return float(density[0]) if np.ndim(x) == 0 else density


def classical_moments_quadrature(ens: ClassicalEnsemble, spec: QuadratureSpec = DEFAULT_SPEC) -> ScaledMoments:
    """Moments of X = x/A and P = p/sqrt(2mE) via the two-momentum-branch
    reduction of the phase-space average."""
    A = ens.turning_point
    energy = ens.energy
    emv = ens.model.variant.kinetic(energy, A)[0]

    # P at the two branches is +/- sqrt(2m(E-V))/sqrt(2mE); the branch average
    # of P vanishes identically, that of P^2 is (E-V)/E.
    def weights(x: np.ndarray, root: np.ndarray) -> np.ndarray:
        return np.array([1.0 / root, x / A / root, (x / A) ** 2 / root, emv(x) / energy / root])

    result = _density_integrals(ens.model, energy, A, weights, spec)
    if not result.converged:
        raise RuntimeError(f"classical moment quadrature failed to converge: {result}")
    norm, mean_x, mean_x2, mean_p2 = result.value
    return ScaledMoments(mean_x / norm, mean_x2 / norm, 0.0, mean_p2 / norm, "classical", "quadrature")


def classical_moments_closed_form(model: PotentialModel) -> ScaledMoments:
    """Exact scaled moments; energy-independent by the scaling."""
    mean_x, mean_x2, mean_p2 = model.variant.closed_form
    return ScaledMoments(mean_x, mean_x2, 0.0, mean_p2, "classical", "closed-form")
