"""Special-function kernel: physicists' Hermite polynomials, the Airy
function Ai with its derivative, and the negative zeros of Ai.

Everything here is scalar arithmetic.  `airy_ai` and `airy_zero` memoize
their results, and the Taylor coefficients of Ai at the integer anchors
-8..9 are computed once, on first use; nothing else is kept between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "AiryValue",
    "AiryZero",
    "ConvergenceError",
    "airy_ai",
    "airy_zero",
    "hermite",
    "hermite_prime",
]

# Residuals of the double-rounded constants 2*pi and pi/4 against the true
# values; needed to keep the oscillatory phase accurate at large |z|.
_TWO_PI_RESIDUAL = 2.4492935982947064e-16
_PI_OVER_4_RESIDUAL = 3.061616997868383e-17

# Regime switch point.  For |z| >= 9 the asymptotic expansions are used;
# between -9 and 9 a Taylor expansion of the ODE w'' = z*w about the integer
# anchor at or above z (`_anchor`).
_ASYMP_CUT = 9.0

_NEWTON_MAX_ITER = 50


class ConvergenceError(RuntimeError):
    """Iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: float):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class AiryValue:
    z: float
    ai: float
    ai_prime: float
    branch: str  # "power-series" | "negative-z-asymptotic" | "positive-z-asymptotic"


@dataclass(frozen=True)
class AiryZero:
    index: int
    value: float  # a_n < 0

    @property
    def scaled_energy(self) -> float:
        return -self.value


def hermite(n: int, y: float) -> float:
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"Hermite degree must be non-negative, got {n}")
    if not math.isfinite(y):
        raise ValueError(f"Hermite argument must be finite, got {y}")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * y
    for k in range(1, n):
        h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
    return h


def hermite_prime(n: int, y: float) -> float:
    """Derivative H'_n(y) = 2n H_{n-1}(y), with H'_0 = 0."""
    if n < 0:
        raise ValueError(f"Hermite degree must be non-negative, got {n}")
    if not math.isfinite(y):
        raise ValueError(f"Hermite argument must be finite, got {y}")
    if n == 0:
        return 0.0
    return 2.0 * n * hermite(n - 1, y)


# --- Airy machinery -------------------------------------------------------

# Coefficients u_k (for Ai) and v_k (for Ai') of the large-|z| expansions.
def _asymptotic_coefficients(count: int) -> tuple[list[float], list[float]]:
    us = [1.0]
    for k in range(1, count):
        us.append(us[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))
    vs = [1.0] + [us[k] * (6 * k + 1) / (1.0 - 6.0 * k) for k in range(1, count)]
    return us, vs


_US, _VS = _asymptotic_coefficients(60)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    c = 134217729.0 * a  # Veltkamp split at 2^27 + 1
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _zeta_double_double(x: float) -> tuple[float, float]:
    # zeta = (2/3) x^(3/2) as an unevaluated double-double sum; the phase of
    # the oscillatory expansion needs ~1 ulp of zeta, which plain doubles
    # cannot deliver once zeta >> 1.
    s = math.sqrt(x)
    ss, se = _two_prod(s, s)
    s_corr = ((x - ss) - se) / (2.0 * s)
    p, pe = _two_prod(x, s)
    pe += x * s_corr
    num_h, num_l = _two_sum(2.0 * p, 2.0 * pe)
    q = num_h / 3.0
    qq, qe = _two_prod(3.0, q)
    return q, (((num_h - qq) - qe) + num_l) / 3.0


def _phase_sin_cos(zeta_hi: float, zeta_lo: float) -> tuple[float, float]:
    # sin/cos of (zeta + pi/4) with argument reduction done against the
    # exact 2*pi rather than its double rounding.
    n = round(zeta_hi / (2.0 * math.pi))
    reduced = math.remainder(zeta_hi, 2.0 * math.pi)
    arg = reduced + zeta_lo - n * _TWO_PI_RESIDUAL + math.pi / 4.0 + _PI_OVER_4_RESIDUAL
    return math.sin(arg), math.cos(arg)


def _asymptotic_positive(z: float) -> tuple[float, float]:
    try:
        zeta = (2.0 / 3.0) * z ** 1.5
    except OverflowError:  # z > 3e205, far past where exp(-zeta) underflows
        return 0.0, 0.0
    if zeta > 740.0:  # exp underflows; Ai is a true zero in doubles
        return 0.0, 0.0
    su, sv = 1.0, 1.0
    sign = -1.0
    prev = math.inf
    for k in range(1, len(_US)):
        term = _US[k] / zeta ** k
        if term > prev:
            break
        su += sign * term
        sv += sign * _VS[k] / zeta ** k
        prev = term
        sign = -sign
    damp = math.exp(-zeta)
    pref = 2.0 * math.sqrt(math.pi)
    return damp * su / (pref * z ** 0.25), -damp * z ** 0.25 * sv / pref


def _asymptotic_negative(z: float) -> tuple[float, float]:
    x = -z
    zeta_hi, zeta_lo = _zeta_double_double(x)
    if not math.isfinite(zeta_hi + zeta_lo):
        raise ValueError(f"Airy argument {z} is too negative: its phase (2/3)|z|^(3/2) is out of range")
    sn, cs = _phase_sin_cos(zeta_hi, zeta_lo)
    p = q = r = s = 0.0
    sign = 1.0
    prev = math.inf
    for k in range(len(_US) // 2):
        try:
            even, odd = zeta_hi ** (2 * k), zeta_hi ** (2 * k + 1)
        except OverflowError:  # the terms left are below 1e-248 of the first
            break
        t_even = _US[2 * k] / even
        if t_even > prev:
            break
        p += sign * t_even
        q += sign * _US[2 * k + 1] / odd
        r += sign * _VS[2 * k] / even
        s += sign * _VS[2 * k + 1] / odd
        prev = t_even
        sign = -sign
    sqrt_pi = math.sqrt(math.pi)
    ai = (sn * p - cs * q) / (sqrt_pi * x ** 0.25)
    ai_prime = -(cs * r + sn * s) * x ** 0.25 / sqrt_pi
    return ai, ai_prime


def _taylor_coefficients(z0: float, ai: float, aip: float) -> tuple[float, ...]:
    # The 34 recentred Taylor coefficients of w'' = z*w:
    # c_{k+2} = (z0*c_k + c_{k-1}) / ((k+1)(k+2))
    c = [ai, aip]
    for k in range(32):
        c_km1 = c[k - 1] if k >= 1 else 0.0
        c.append((z0 * c[k] + c_km1) / ((k + 1) * (k + 2)))
    return tuple(c)


def _horner(c: tuple[float, ...], h: float) -> tuple[float, float]:
    # The Taylor polynomial with coefficients c and its derivative at offset h.
    value = 0.0
    for k in range(len(c) - 1, -1, -1):
        value = value * h + c[k]
    deriv = 0.0
    for k in range(len(c) - 1, 0, -1):
        deriv = deriv * h + k * c[k]
    return value, deriv


@functools.cache
def _anchor(z0: int) -> tuple[float, ...]:
    # Taylor coefficients of Ai about the integer z0 in -8..9: the asymptotic
    # value at 9, else one unit step down from the anchor above.  Toward
    # smaller z Ai is the growing solution on the positive axis and neither
    # solution grows on the negative axis, so the propagation is stable.
    if z0 == _ASYMP_CUT:
        ai, aip = _asymptotic_positive(_ASYMP_CUT)
    else:
        ai, aip = _horner(_anchor(z0 + 1), -1.0)
    return _taylor_coefficients(float(z0), ai, aip)


@functools.lru_cache(maxsize=20_000)
def airy_ai(z: float) -> AiryValue:
    """Evaluate Ai(z) and Ai'(z).  Results are memoized for reuse across
    calls: a session that revisits a level (moments, density grid) meets the
    same abscissas again.  Fifteen revisited bouncer levels use about 16,400
    abscissas; the bound keeps those while one-off wavefunction points cycle
    through the rest instead of growing memory for the life of the process."""
    if not math.isfinite(z):
        raise ValueError(f"Airy argument must be finite, got {z}")
    if z >= _ASYMP_CUT:
        ai, aip = _asymptotic_positive(z)
        return AiryValue(z, ai, aip, "positive-z-asymptotic")
    if z <= -_ASYMP_CUT:
        ai, aip = _asymptotic_negative(z)
        return AiryValue(z, ai, aip, "negative-z-asymptotic")
    z0 = math.ceil(z)  # one Taylor step from the integer anchor at or above z
    ai, aip = _horner(_anchor(z0), z - z0)
    return AiryValue(z, ai, aip, "power-series")


@functools.lru_cache(maxsize=4096)
def airy_zero(n: int) -> AiryZero:
    """The n-th negative zero a_n of Ai, found by Newton iteration seeded at
    the asymptotic estimate a_n ~ -[3 pi (4n-1)/8]^(2/3)."""
    if n < 1:
        raise ValueError(f"Airy-zero index must be >= 1, got {n}")
    a = -((3.0 * math.pi * (4.0 * n - 1.0) / 8.0) ** (2.0 / 3.0))
    for _ in range(_NEWTON_MAX_ITER):
        v = airy_ai(a)
        step = v.ai / v.ai_prime
        a -= step
        # From |a| = 512 on one ulp of a exceeds 1e-13, so even the float
        # nearest the zero can take a larger step; two ulps also end it.
        if (abs(v.ai) < 1e-13 and abs(step) < 1e-13) or abs(step) <= 2.0 * math.ulp(a):
            return AiryZero(index=n, value=a)
    raise ConvergenceError(
        f"Newton iteration for Airy zero {n} did not converge in "
        f"{_NEWTON_MAX_ITER} iterations",
        last_iterate=a,
    )
