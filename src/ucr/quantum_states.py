"""Stationary states and scaled-operator moments for the three quantum
systems, plus the commutator lower bounds on the scaled uncertainty
product.

Momentum moments are evaluated in the position representation with analytic
derivatives (Hermite recurrences, the well's sinusoid second derivative, the
Airy ODE substitution), so no numerical differentiation enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import specfun
from .classical_ensemble import (
    BouncingBall,
    HarmonicOscillator,
    InfiniteWell,
    PotentialModel,
    ScaledMoments,
    build_ensemble,
    classical_density,
)
from .quadrature import (
    DEFAULT_SPEC,
    IntegralResult,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)

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

_MEAN_P_TOL = 1e-12


@dataclass(frozen=True)
class EigenLevel:
    model: PotentialModel
    n: int
    energy: float
    turning_point: float
    scaled_energy: Optional[float] = None  # bouncer only
    grav_length: Optional[float] = None  # bouncer only


@dataclass(frozen=True)
class BouncerState:
    level: EigenLevel
    normalization: float  # N_n > 0, in the shifted dimensionless coordinate


def eigen_level(model: PotentialModel, n: int) -> EigenLevel:
    variant = model.variant
    hbar = model.hbar
    if isinstance(variant, HarmonicOscillator):
        if n < 0:
            raise ValueError(f"oscillator quantum number must be >= 0, got {n}")
        energy = (n + 0.5) * hbar * variant.omega
        turning = math.sqrt((2 * n + 1) * hbar / (variant.m * variant.omega))
        return EigenLevel(model, n, energy, turning)
    if isinstance(variant, InfiniteWell):
        if n < 1:
            raise ValueError(f"well quantum number must be >= 1, got {n}")
        energy = n * n * math.pi ** 2 * hbar ** 2 / (2.0 * variant.m * variant.L ** 2)
        return EigenLevel(model, n, energy, variant.L / 2.0)
    if n < 1:
        raise ValueError(f"bouncer quantum number must be >= 1, got {n}")
    grav_length = (hbar ** 2 / (2.0 * variant.m ** 2 * variant.g)) ** (1.0 / 3.0)
    scaled_energy = specfun.airy_zero(n).scaled_energy
    energy = variant.m * variant.g * grav_length * scaled_energy
    return EigenLevel(model, n, energy, grav_length * scaled_energy, scaled_energy, grav_length)


def _ho_coefficients(n: int) -> list[tuple[float, float]]:
    # (sqrt(2/(k+1)), sqrt(k/(k+1))) for k < n: the normalized Hermite-function
    # recurrence phi_{k+1} = sqrt(2/(k+1)) y phi_k - sqrt(k/(k+1)) phi_{k-1}.
    return [(math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(n)]


def _ho_functions(coefficients: list[tuple[float, float]], y: float) -> tuple[float, float, float]:
    # (phi_{n-2}, phi_{n-1}, phi_n), the orthonormal oscillator states in the
    # dimensionless y = x*sqrt(m w/hbar), with phi_{-1} = phi_{-2} = 0.  The
    # recurrence never forms H_n, which overflows doubles from n ~ 200 on.
    older, old, phi = 0.0, 0.0, math.pi ** -0.25 * math.exp(-0.5 * y * y)
    for a, b in coefficients:
        older, old, phi = old, phi, a * y * phi - b * old
    return older, old, phi


def _well_state_u(n: int, u: float) -> float:
    # Unit-normalized well state in u = x/(L/2) on [-1, 1]; odd n are the
    # even-parity cosines, even n the odd-parity sines.
    if n % 2 == 1:
        return math.cos(n * math.pi * u / 2.0)
    return math.sin(n * math.pi * u / 2.0)


def _well_state_u_prime(n: int, u: float) -> float:
    k = n * math.pi / 2.0
    if n % 2 == 1:
        return -k * math.sin(k * u)
    return k * math.cos(k * u)


def bouncer_state(level: EigenLevel, spec: QuadratureSpec = DEFAULT_SPEC) -> BouncerState:
    """Normalization constant of the Airy eigenstate in the shifted variable:
    N_n^2 * integral of Ai^2 over (-E'_n, inf) = 1."""
    if level.scaled_energy is None:
        raise ValueError("bouncer_state requires a bouncer level")
    spec = _oscillation_budget(spec, level.n)
    raw = integrate_semi_infinite(lambda z: specfun.airy_ai(z).ai ** 2, -level.scaled_energy, spec)
    _require_converged("bouncer normalization integral", raw)
    return BouncerState(level, 1.0 / math.sqrt(raw.value))


def wavefunction(level: EigenLevel, x: float) -> float:
    """Real-valued normalized stationary wavefunction at physical position x."""
    variant = level.model.variant
    hbar = level.model.hbar
    if isinstance(variant, HarmonicOscillator):
        scale = math.sqrt(variant.m * variant.omega / hbar)
        return math.sqrt(scale) * _ho_functions(_ho_coefficients(level.n), scale * x)[2]
    if isinstance(variant, InfiniteWell):
        half = variant.L / 2.0
        if abs(x) > half:
            return 0.0
        return math.sqrt(2.0 / variant.L) * _well_state_u(level.n, x / half)
    if x < 0.0:
        return 0.0
    state = bouncer_state(level)
    lg = level.grav_length
    return state.normalization / math.sqrt(lg) * specfun.airy_ai(x / lg - level.scaled_energy).ai


def _require_converged(what: str, *results: IntegralResult) -> None:
    for result in results:
        if not result.converged:
            raise RuntimeError(f"{what} failed to converge: {result}")


def _check_mean_p(raw: float) -> None:
    # The raw integral of psi*psi' equals the boundary term psi^2/2 and must
    # vanish; anything bigger signals a broken integrand.
    if abs(raw) > _MEAN_P_TOL:
        raise RuntimeError(f"raw momentum integral should vanish, got {raw}")


def _ho_moments(level: EigenLevel, spec: QuadratureSpec) -> ScaledMoments:
    n = level.n
    spec = _oscillation_budget(spec, n)
    coefficients = _ho_coefficients(n)
    c1, c2 = math.sqrt(2.0 * n), 2.0 * math.sqrt(n * (n - 1.0))

    def integrands(y: float) -> tuple[float, float, float]:
        # psi' and psi'' from the Hermite derivative recurrences
        # H_n' = 2n H_{n-1} and H_n'' = 4n(n-1) H_{n-2}, not from the
        # eigen-equation, so <P^2> is not routed through <X^2>.
        older, old, psi = _ho_functions(coefficients, y)
        psi_prime = c1 * old - y * psi
        psi_second = c2 * older - 2.0 * y * c1 * old + (y * y - 1.0) * psi
        return y * y * psi * psi, -psi * psi_second, psi * psi_prime

    # Even integrands (x^2, p^2): integrate the positive half and double.
    # The raw momentum integrand is odd, so both halves are summed explicitly.
    positive = integrate_semi_infinite(integrands, 0.0, spec)
    negative = integrate_semi_infinite(lambda y: integrands(-y)[2], 0.0, spec)
    _require_converged("oscillator moment quadrature", positive, negative)
    x2, p2, p_positive = positive.value
    _check_mean_p(p_positive + negative.value)
    scale = 2.0 / (2.0 * n + 1.0)  # both halves, over the scaled A_n^2 and 2mE_n
    return ScaledMoments(0.0, x2 * scale, 0.0, p2 * scale, "quantum", "quadrature")


def _oscillation_budget(spec: QuadratureSpec, n: int) -> QuadratureSpec:
    # the integrands carry ~n oscillations, so the subdivision budget must
    # grow with the level to stay resolved
    return replace(spec, max_subdivisions=max(spec.max_subdivisions, 6 * n))


def _well_moments(level: EigenLevel, spec: QuadratureSpec) -> ScaledMoments:
    n = level.n
    spec = _oscillation_budget(spec, n)

    # One pass per parity: the odd integrands vanish and converge on the
    # first symmetric panel, which a pass shared with the even ones would
    # forfeit by holding them to abs_tol over every panel.
    def even(u: float) -> tuple[float, float]:
        density = _well_state_u(n, u) ** 2
        return density, u * u * density

    def odd(u: float) -> tuple[float, float]:
        psi = _well_state_u(n, u)
        return u * psi * psi, psi * _well_state_u_prime(n, u)

    even_result = integrate_finite(even, -1.0, 1.0, spec)
    odd_result = integrate_finite(odd, -1.0, 1.0, spec)
    _require_converged("well moment quadrature", even_result, odd_result)
    # psi'' = -k^2 psi, and the scaled momentum carries 1/k, so <P^2> is just
    # the norm integral evaluated by quadrature.
    mean_p2, mean_x2 = even_result.value
    mean_x, raw_p = odd_result.value
    _check_mean_p(raw_p)
    return ScaledMoments(mean_x, mean_x2, 0.0, mean_p2, "quantum", "quadrature")


def _bouncer_moments(level: EigenLevel, spec: QuadratureSpec) -> ScaledMoments:
    # All integrals live in the shifted dimensionless coordinate on
    # (-E'_n, inf); the gravitational length cancels throughout.
    e = level.scaled_energy
    spec = _oscillation_budget(spec, level.n)

    def integrands(z: float) -> tuple[float, float, float, float]:
        v = specfun.airy_ai(z)
        ai_sq = v.ai ** 2
        return ai_sq, (z + e) * ai_sq, (z + e) ** 2 * ai_sq, v.ai * v.ai_prime

    result = integrate_semi_infinite(integrands, -e, spec)
    _require_converged("bouncer moment quadrature", result)
    norm, first, second, raw_p = result.value
    _check_mean_p(raw_p / norm)
    # psi'' = z*psi by the Airy equation, so <P^2> = -(1/E') <z> in the
    # shifted coordinate.
    mean_z_shifted = first / norm - e
    return ScaledMoments(first / (e * norm), second / (e * e * norm), 0.0, -mean_z_shifted / e, "quantum", "quadrature")


def quantum_moments_quadrature(level: EigenLevel, spec: QuadratureSpec = DEFAULT_SPEC) -> ScaledMoments:
    """Moments of the scaled operators X = x/A_n and P = p/sqrt(2 m E_n),
    evaluated by quadrature in each system's natural dimensionless
    coordinate."""
    variant = level.model.variant
    if isinstance(variant, HarmonicOscillator):
        return _ho_moments(level, spec)
    if isinstance(variant, InfiniteWell):
        return _well_moments(level, spec)
    return _bouncer_moments(level, spec)


def quantum_moments_closed_form(level: EigenLevel) -> ScaledMoments:
    variant = level.model.variant
    if isinstance(variant, HarmonicOscillator):
        return ScaledMoments(0.0, 0.5, 0.0, 0.5, "quantum", "closed-form")
    if isinstance(variant, InfiniteWell):
        n = level.n
        return ScaledMoments(
            0.0, 1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2), 0.0, 1.0, "quantum", "closed-form"
        )
    return ScaledMoments(2.0 / 3.0, 8.0 / 15.0, 0.0, 1.0 / 3.0, "quantum", "closed-form")


def commutator_bound(level: EigenLevel) -> float:
    """Robertson lower bound on Var(X)*Var(P) for the scaled operators; the
    scaling absorbs hbar, so the bound depends on the level."""
    variant = level.model.variant
    if isinstance(variant, HarmonicOscillator):
        return 1.0 / (4.0 * (2.0 * level.n + 1.0) ** 2)
    if isinstance(variant, InfiniteWell):
        return 1.0 / (level.n ** 2 * math.pi ** 2)
    return 1.0 / (4.0 * level.scaled_energy ** 3)


def density_grid(level: EigenLevel, points: int) -> list[tuple[float, float, float, bool]]:
    """Quantum vs classical position densities on a uniform grid over the
    scaled classical region.

    Returns (x_scaled, quantum_density, classical_density, clipped) rows;
    singular classical endpoints are clipped to the last interior value and
    flagged.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    variant = level.model.variant
    bouncer = isinstance(variant, BouncingBall)
    lo, hi = (0.0, 1.0) if bouncer else (-1.0, 1.0)
    xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]

    ens = build_ensemble(level.model, level.energy)
    A = level.turning_point
    if bouncer:
        state = bouncer_state(level)

    def quantum_density(x_scaled: float) -> float:
        if bouncer:
            e = level.scaled_energy
            return e * state.normalization ** 2 * specfun.airy_ai(e * (x_scaled - 1.0)).ai ** 2
        return A * wavefunction(level, A * x_scaled) ** 2

    rows: list[tuple[float, float, float, bool]] = []
    for x_scaled in xs:
        p_cl = A * classical_density(ens, A * x_scaled)
        rows.append((x_scaled, quantum_density(x_scaled), p_cl, not math.isfinite(p_cl)))
    # clip singular endpoints to the nearest interior classical value
    clipped: list[tuple[float, float, float, bool]] = []
    for i, (x_scaled, p_qm, p_cl, is_singular) in enumerate(rows):
        if is_singular:
            finite = [row[2] for row in rows[max(i - 1, 0):i + 2] if math.isfinite(row[2])]
            if not finite:
                raise ValueError(
                    f"no finite interior neighbour to clip the singular endpoint x={x_scaled} to; "
                    f"{points} grid points are too few"
                )
            p_cl = finite[0]
        clipped.append((x_scaled, p_qm, p_cl, is_singular))
    return clipped
