"""Fixed-energy classical ensembles for the three bound systems: position
density, phase-space averaging reduced to the two momentum branches, and the
closed-form scaled moments each system is known to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

from .quadrature import DEFAULT_SPEC, IntegralResult, QuadratureSpec, integrate_singular_endpoints

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


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be strictly positive and finite, got {value}")


@dataclass(frozen=True)
class HarmonicOscillator:
    m: float
    omega: float

    def __post_init__(self):
        _require_positive(m=self.m, omega=self.omega)


@dataclass(frozen=True)
class InfiniteWell:
    m: float
    L: float

    def __post_init__(self):
        _require_positive(m=self.m, L=self.L)


@dataclass(frozen=True)
class BouncingBall:
    m: float
    g: float

    def __post_init__(self):
        _require_positive(m=self.m, g=self.g)


Variant = Union[HarmonicOscillator, InfiniteWell, BouncingBall]


@dataclass(frozen=True)
class PotentialModel:
    """One of the three systems plus hbar (hbar only matters quantum-side,
    but a single model object drives both realms)."""

    variant: Variant
    hbar: float = 1.0

    def __post_init__(self):
        _require_positive(hbar=self.hbar)

    @property
    def mass(self) -> float:
        return self.variant.m


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
        variant = self.model.variant
        if isinstance(variant, HarmonicOscillator):
            return (-self.turning_point, self.turning_point)
        if isinstance(variant, InfiniteWell):
            return (-variant.L / 2.0, variant.L / 2.0)
        return (0.0, self.turning_point)


def _energy_minus_potential(model: PotentialModel, energy: float, turning: float) -> Callable[[float], float]:
    variant = model.variant
    if isinstance(variant, HarmonicOscillator):
        # E - V = (1/2) m w^2 (A - x)(A + x); the factored form stays exact
        # near the turning points where E - V would cancel.
        half_mw2 = 0.5 * variant.m * variant.omega ** 2
        return lambda x: half_mw2 * (turning - x) * (turning + x)
    if isinstance(variant, InfiniteWell):
        return lambda x: energy
    mg = variant.m * variant.g
    return lambda x: mg * (turning - x)


def _turning_point(model: PotentialModel, energy: float) -> float:
    variant = model.variant
    if isinstance(variant, HarmonicOscillator):
        return math.sqrt(2.0 * energy / (variant.m * variant.omega ** 2))
    if isinstance(variant, InfiniteWell):
        return variant.L / 2.0
    return energy / (variant.m * variant.g)


Weights = Union[float, tuple[float, ...]]


def _density_integrals(
    ens: ClassicalEnsemble, weight: Callable[[float, float], Weights], spec: QuadratureSpec
) -> IntegralResult:
    """Integral of weight(x, sqrt(E - V(x))) over the classical region, where
    weight divides by its second argument.  Endpoint-offset forms of that
    root resolve the turning-point singularities to full precision.  A tuple
    weight gives one pass with one integral per component."""
    a, b = ens.region
    emv = _energy_minus_potential(ens.model, ens.energy, ens.turning_point)
    variant = ens.model.variant

    def f(x: float) -> Weights:
        return weight(x, math.sqrt(emv(x)))

    if isinstance(variant, HarmonicOscillator):
        half_mw2 = 0.5 * variant.m * variant.omega ** 2
        A = ens.turning_point

        def from_left(s: float) -> Weights:
            return weight(a + s, math.sqrt(half_mw2 * s * (2.0 * A - s)))

        def from_right(s: float) -> Weights:
            return weight(b - s, math.sqrt(half_mw2 * s * (2.0 * A - s)))

    elif isinstance(variant, BouncingBall):
        mg = variant.m * variant.g

        def from_left(s: float) -> Weights:
            return weight(s, math.sqrt(mg * (ens.turning_point - s)))

        def from_right(s: float) -> Weights:
            return weight(b - s, math.sqrt(mg * s))

    else:
        sqrt_e = math.sqrt(ens.energy)

        def from_left(s: float) -> Weights:
            return weight(a + s, sqrt_e)

        def from_right(s: float) -> Weights:
            return weight(b - s, sqrt_e)

    return integrate_singular_endpoints(f, a, b, spec, from_left=from_left, from_right=from_right)


def build_ensemble(model: PotentialModel, energy: float = 1.0, spec: QuadratureSpec = DEFAULT_SPEC) -> ClassicalEnsemble:
    """Construct the ensemble, computing the normalization numerically (it
    is never hard-coded, so the closed-form moments remain an independent
    check)."""
    if not (energy > 0 and math.isfinite(energy)):
        raise ValueError(f"energy must be strictly positive and finite, got {energy}")
    turning = _turning_point(model, energy)
    provisional = ClassicalEnsemble(model, energy, turning, math.nan, IntegralResult(math.nan, math.nan, 0, False))
    raw = _density_integrals(provisional, lambda x, root: 1.0 / root, spec)
    return ClassicalEnsemble(model, energy, turning, 1.0 / raw.value, raw)


def classical_density(ens: ClassicalEnsemble, x: float) -> float:
    """P_CL(x): normalization / sqrt(E - V(x)) inside the classical region,
    zero outside, +inf exactly at a turning point (integrable divergence)."""
    a, b = ens.region
    if x < a or x > b:
        return 0.0
    emv = _energy_minus_potential(ens.model, ens.energy, ens.turning_point)(x)
    if emv <= 0.0:
        return math.inf
    return ens.normalization / math.sqrt(emv)


def classical_moments_quadrature(ens: ClassicalEnsemble, spec: QuadratureSpec = DEFAULT_SPEC) -> ScaledMoments:
    """Moments of X = x/A and P = p/sqrt(2mE) via the two-momentum-branch
    reduction of the phase-space average."""
    A = ens.turning_point
    energy = ens.energy
    emv = _energy_minus_potential(ens.model, ens.energy, A)

    # P at the two branches is +/- sqrt(2m(E-V))/sqrt(2mE); the branch average
    # of P vanishes identically, that of P^2 is (E-V)/E.
    def weights(x: float, root: float) -> tuple[float, float, float, float]:
        return 1.0 / root, x / A / root, (x / A) ** 2 / root, emv(x) / energy / root

    result = _density_integrals(ens, weights, spec)
    if not result.converged:
        raise RuntimeError(f"classical moment quadrature failed to converge: {result}")
    norm, mean_x, mean_x2, mean_p2 = result.value
    return ScaledMoments(mean_x / norm, mean_x2 / norm, 0.0, mean_p2 / norm, "classical", "quadrature")


def classical_moments_closed_form(model: PotentialModel) -> ScaledMoments:
    """Exact scaled moments; energy-independent by the scaling."""
    variant = model.variant
    if isinstance(variant, HarmonicOscillator):
        return ScaledMoments(0.0, 0.5, 0.0, 0.5, "classical", "closed-form")
    if isinstance(variant, InfiniteWell):
        return ScaledMoments(0.0, 1.0 / 3.0, 0.0, 1.0, "classical", "closed-form")
    return ScaledMoments(2.0 / 3.0, 8.0 / 15.0, 0.0, 1.0 / 3.0, "classical", "closed-form")
