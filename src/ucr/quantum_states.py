"""Stationary states and scaled-operator moments for the three quantum
systems, plus the commutator lower bounds on the scaled uncertainty
product.

Momentum moments are evaluated in the position representation with analytic
derivatives (Hermite recurrences, the well's sinusoid second derivative, the
Airy ODE substitution), so no numerical differentiation enters anywhere.
Each system supplies those integrands (`ucr.systems`); this module runs its
one quadrature pass and checks it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .classical_ensemble import ScaledMoments, build_ensemble, classical_density
from .quadrature import (
    DEFAULT_SPEC,
    IntegralResult,
    QuadratureSpec,
    integrate_finite,
    integrate_rule,
    integrate_semi_infinite,  # no pass is on a half-line; kept while the benchmark's tracer patches this name
)
from .systems import BouncingBall, PotentialModel, _points

__all__ = [
    "BouncerState",
    "EigenLevel",
    "bouncer_state",
    "commutator_bound",
    "density_grid",
    "eigen_level",
    "quantum_moments_closed_form",
    "quantum_moments_quadrature",
    "wavefunction",
]


@dataclass(frozen=True)
class EigenLevel:
    model: PotentialModel
    n: int
    energy: float
    turning_point: float


@dataclass(frozen=True)
class BouncerState:
    level: EigenLevel
    normalization: float  # N_n > 0, in the shifted dimensionless coordinate


def eigen_level(model: PotentialModel, n: int) -> EigenLevel:
    variant = model.variant
    if not isinstance(n, numbers.Integral) or n < variant.n_min:
        raise ValueError(f"{variant.name} quantum number must be an integer >= {variant.n_min}, got {n!r}")
    if n > variant.n_max:
        raise ValueError(f"{variant.name} quantum number must be at most {variant.n_max}, got {n!r}")
    energy = variant.level(n, model.hbar)
    return EigenLevel(model, n, energy, variant.turning_point(energy))


def bouncer_state(level: EigenLevel, spec: QuadratureSpec = DEFAULT_SPEC) -> BouncerState:
    """Normalization constant of the Airy eigenstate in the shifted variable:
    N_n^2 * integral of Ai^2 over (-E'_n, 9] = 1, the moment pass's norm."""
    if not isinstance(level.model.variant, BouncingBall):  # the one engine that takes a single system
        raise ValueError("bouncer_state requires a bouncer level")
    (f, *rule), _ = level.model.variant.moment_pass(level)
    raw = _integrate("bouncer normalization integral", lambda z: f(z)[0], rule, spec)
    return BouncerState(level, 1.0 / math.sqrt(raw.value))


def wavefunction(level: EigenLevel, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Normalized stationary wavefunction at finite x: a float or a 1-D array;
    a nan or an infinity is refused."""
    psi = level.model.variant.psi(level, _points(x))
    return float(psi[0]) if np.ndim(x) == 0 else psi


def _check_mean_p(mean_p: float, spec: QuadratureSpec) -> None:
    # <P> is the boundary term psi^2/2 over the momentum scale and must vanish
    # to the accuracy asked of the quadrature; more signals a broken integrand.
    if abs(mean_p) > max(DEFAULT_SPEC.quad_tol, spec.quad_tol):
        raise RuntimeError(f"scaled momentum <P> should vanish, got {mean_p}")


def _integrate(what: str, f, rule: tuple, spec: QuadratureSpec) -> IntegralResult:
    """One quantum pass of f on the caller's spec: by the fixed rule when `rule` is its (nodes,
    weights), else by K15 from the panels between its break points (points,), such as the well's
    n panels between u = k/n; raises naming `what` if it fails, and the first component whose
    rounding floor lies above its tolerance."""
    # each rule by its module-level name, which a tracer may patch
    result = (integrate_rule if len(rule) == 2 else integrate_finite)(f, *rule, spec)
    if not result.converged:
        floors, tols = np.atleast_1d(result.floor), spec.tolerance(np.atleast_1d(result.value))
        below = "".join(f"; component {k}'s rounding floor {floors[k]:.3g} exceeds its tolerance {tols[k]:.3g}"
                        for k in np.flatnonzero(floors > tols)[:1])
        raise RuntimeError(f"{what} failed to converge: {result}{below}")
    return result


def quantum_moments_quadrature(level: EigenLevel, spec: QuadratureSpec = DEFAULT_SPEC) -> ScaledMoments:
    """Moments of the scaled operators X = x/A_n and P = p/sqrt(2 m E_n),
    evaluated by quadrature in each system's natural dimensionless
    coordinate."""
    variant = level.model.variant
    (f, *rule), moments = variant.moment_pass(level)
    result = _integrate(f"{variant.name} moment quadrature", f, rule, spec)
    mean_x, mean_x2, mean_p2, mean_p = moments(result.value)
    _check_mean_p(mean_p, spec)
    return ScaledMoments(mean_x, mean_x2, 0.0, mean_p2, "quantum", "quadrature")


def quantum_moments_closed_form(level: EigenLevel) -> ScaledMoments:
    variant = level.model.variant
    mean_x, mean_x2, mean_p2 = variant.closed_form
    return ScaledMoments(mean_x, mean_x2 - variant.x2_offset(level.n), 0.0, mean_p2, "quantum", "closed-form")


def commutator_bound(level: EigenLevel) -> float:
    """Robertson lower bound on Var(X)*Var(P) for the scaled operators; the
    scaling absorbs hbar, so the bound depends on the level."""
    return level.model.variant.robertson_bound(level)


def density_grid(level: EigenLevel, points: int) -> list[tuple[float, float, float, bool]]:
    """Quantum vs classical position densities on a uniform grid over the
    scaled classical region.

    Returns (x_scaled, quantum_density, classical_density, clipped) rows;
    a singular classical end is clipped to its inner neighbour's value and
    flagged.
    """
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValueError(f"need an integer of at least 2 grid points, got {points!r}")
    lo, hi = level.model.variant.scaled_region
    xs = lo + (hi - lo) * np.arange(points) / (points - 1)
    ens = build_ensemble(level.model, level.energy)
    A = level.turning_point
    p_qm = A * wavefunction(level, A * xs) ** 2
    p_cl = A * classical_density(ens, A * xs)
    # E - V > 0 strictly inside the region, so only an end can be singular
    singular = ~np.isfinite(p_cl)
    ends, inner = [0, -1], p_cl[[1, -2]]
    stranded = singular[ends] & ~np.isfinite(inner)
    if stranded.any():
        raise ValueError(f"no finite interior neighbour to clip the singular endpoint x={xs[ends][stranded][0]} to; "
                         f"{points} grid points are too few")
    p_cl[ends] = np.where(singular[ends], inner, p_cl[ends])
    return list(zip(xs.tolist(), p_qm.tolist(), p_cl.tolist(), singular.tolist()))
