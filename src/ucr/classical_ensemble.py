"""Fixed-energy classical ensembles for the three bound systems: position
density, phase-space averaging reduced to the two momentum branches, and the
closed-form scaled moments each system is known to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    ens: ClassicalEnsemble, weight: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: QuadratureSpec
) -> IntegralResult:
    """Integral of weight(x, sqrt(E - V(x))) over the classical region, where
    weight divides by its second argument.  Endpoint-offset forms of that
    root resolve the turning-point singularities to full precision.  An
    (m, k) weight, like an integrand, gives one pass with m integrals."""
    a, b = ens.region
    emv, from_left, from_right = ens.model.variant.kinetic(ens.energy, ens.turning_point)
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
    provisional = ClassicalEnsemble(model, energy, turning, math.nan, IntegralResult(math.nan, math.nan, 0, False))
    raw = _density_integrals(provisional, lambda x, root: 1.0 / root, spec)
    return ClassicalEnsemble(model, energy, turning, 1.0 / raw.value, raw)


def classical_density(ens: ClassicalEnsemble, x: float) -> float:
    """P_CL(x): normalization / sqrt(E - V(x)) inside the classical region,
    zero outside, +inf exactly at a turning point (integrable divergence)."""
    a, b = ens.region
    if x < a or x > b:
        return 0.0
    emv = ens.model.variant.kinetic(ens.energy, ens.turning_point)[0](x)
    if emv <= 0.0:
        return math.inf
    return ens.normalization / math.sqrt(emv)


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

    result = _density_integrals(ens, weights, spec)
    if not result.converged:
        raise RuntimeError(f"classical moment quadrature failed to converge: {result}")
    norm, mean_x, mean_x2, mean_p2 = result.value
    return ScaledMoments(mean_x / norm, mean_x2 / norm, 0.0, mean_p2 / norm, "classical", "quadrature")


def classical_moments_closed_form(model: PotentialModel) -> ScaledMoments:
    """Exact scaled moments; energy-independent by the scaling."""
    mean_x, mean_x2, mean_p2 = model.variant.closed_form
    return ScaledMoments(mean_x, mean_x2, 0.0, mean_p2, "classical", "closed-form")
