"""Fixed-energy classical ensembles for the three bound systems: position
density, phase-space averaging reduced to the two momentum branches, and the
closed-form scaled moments each system is known to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .quadrature import DEFAULT_SPEC, IntegralResult, QuadratureSpec, integrate_rule
from .systems import PotentialModel, _points, _require_positive

__all__ = [
    "ClassicalEnsemble",
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
    moments: ScaledMoments
    result: IntegralResult = field(repr=False, compare=False)  # the pass behind the two above

    @property
    def region(self) -> tuple[float, float]:
        lo, hi = self.model.variant.scaled_region
        return (lo * self.turning_point, hi * self.turning_point)


def build_ensemble(model: PotentialModel, energy: float = 1.0, spec: QuadratureSpec = DEFAULT_SPEC) -> ClassicalEnsemble:
    """Construct the ensemble from one pass over the classical region, the
    system's `classical_pass` on a fixed rule that integrates it exactly: the
    weights 1, X, X^2 and (E - V)/E, each over sqrt(E - V), give the
    normalization (never hard-coded, so the closed-form moments remain an
    independent check) and the moments of X = x/A and P = p/sqrt(2mE) by the
    two-momentum-branch reduction of the phase-space average.  The error
    estimate is the rule's rounding floor."""
    _require_positive(energy=energy)
    # P at the two branches is +/- sqrt(2m(E-V))/sqrt(2mE); the branch average
    # of P vanishes identically, that of P^2 is (E-V)/E.
    result = integrate_rule(*model.variant.classical_pass(energy), spec)
    norm, mean_x, mean_x2, mean_p2 = result.value
    moments = ScaledMoments(mean_x / norm, mean_x2 / norm, 0.0, mean_p2 / norm, "classical", "quadrature")
    return ClassicalEnsemble(model, energy, model.variant.turning_point(energy), 1.0 / norm, moments, result)


def classical_density(ens: ClassicalEnsemble, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """P_CL(x) at a float or a 1-D array of finite x: normalization /
    sqrt(E - V(x)) inside the classical region, zero outside, +inf exactly at
    a turning point (integrable divergence); a nan or an infinity is refused."""
    a, b = ens.region
    xs = _points(x)
    # E - V at x clipped to the region, so no x far outside overflows it
    emv = ens.model.variant.kinetic(ens.energy, ens.turning_point)[0](np.clip(xs, a, b))
    with np.errstate(divide="ignore", invalid="ignore"):  # E - V <= 0 at a turning point and outside
        inside = np.where(emv <= 0.0, math.inf, ens.normalization / np.sqrt(emv))
    density = np.where((xs < a) | (xs > b), 0.0, inside)
    return float(density[0]) if np.ndim(x) == 0 else density


def classical_moments_quadrature(ens: ClassicalEnsemble) -> ScaledMoments:
    """The moments of the ensemble's pass, once it has converged."""
    if not ens.result.converged:
        raise RuntimeError(f"classical moment quadrature failed to converge: {ens.result}")
    return ens.moments


def classical_moments_closed_form(model: PotentialModel) -> ScaledMoments:
    """Exact scaled moments; energy-independent by the scaling."""
    mean_x, mean_x2, mean_p2 = model.variant.closed_form
    return ScaledMoments(mean_x, mean_x2, 0.0, mean_p2, "classical", "closed-form")
