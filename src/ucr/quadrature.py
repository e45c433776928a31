"""Integration stack for the three integrand classes the moment
computations need: smooth finite intervals, inverse-square-root endpoint
singularities, and semi-infinite integrands with fast-decaying tails.

An integrand returns either a float or a tuple of floats.  A tuple integrand
is integrated in one pass: every component shares the abscissas (and, for
the adaptive rules, the subdivision), and the pass converges only when each
component meets ``spec.tolerance`` of its own value.  The result then holds
one value and one error estimate per component.

All routines are pure; integrands must themselves be safe to call from
concurrent contexts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "QuadratureSpec",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_singular_endpoints",
]

Integrand = Callable[[float], Union[float, tuple[float, ...]]]


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 60

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0 or self.abs_tol + self.rel_tol <= 0:
            raise ValueError("need abs_tol + rel_tol > 0 with both non-negative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def tolerance(self, value: Union[float, np.ndarray]) -> np.ndarray:
        """max(abs_tol, rel_tol*|value|), component-wise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(value))


@dataclass(frozen=True)
class IntegralResult:
    value: Union[float, tuple[float, ...]]  # a tuple for a tuple integrand
    error_estimate: Union[float, tuple[float, ...]]
    evaluations: int
    converged: bool


DEFAULT_SPEC = QuadratureSpec()


def _result(value: np.ndarray, err: np.ndarray, evaluations: int, spec: QuadratureSpec) -> IntegralResult:
    plain = (lambda array: tuple(array.tolist())) if value.ndim else float
    return IntegralResult(plain(value), plain(err), evaluations, bool((err <= spec.tolerance(value)).all()))


def _values(f: Integrand, xs: Sequence[float], where: str = "x") -> np.ndarray:
    """f at each abscissa: shape (len(xs),) for a float integrand, (len(xs), m)
    for an m-component one."""
    values = np.array([f(x) for x in xs], dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(xs), -1).all(axis=1)))
        raise QuadratureError(f"integrand returned non-finite value at {where}={xs[row]!r}")
    return values


# Embedded Gauss-Kronrod pair G7-K15 (QUADPACK qk15): the 15-point Kronrod
# rule carries the value, the 7-point Gauss rule nested in it the error
# estimate, so a panel costs 15 evaluations.  Abscissas are the non-negative
# half, largest first; the Gauss nodes are every second Kronrod node.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851, 0.864864423359769072789712788640926,
    0.741531185599394439863864773280788, 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204, 0.104790010322250183839876322541518,
    0.140653259715525918745189590510238, 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# Full 15-node layout on [-1, 1]; row 0 of the weight matrix gives the K15
# value, row 1 the K15 - G7 difference (the Gauss nodes are the odd indices).
_K15_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_K15_G7_WEIGHTS = np.array([_WGK[:-1] + _WGK[::-1], _WGK[:-1] + _WGK[::-1]])
_K15_G7_WEIGHTS[1, 1::2] -= _WG[:-1] + _WG[::-1]


def _panel(f: Integrand, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    k15, diff = half * (_K15_G7_WEIGHTS @ _values(f, [mid + half * x for x in _K15_NODES]))
    return k15, np.abs(diff)


def integrate_finite(f: Integrand, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """Adaptive subdivision with an embedded-rule error estimate; a tuple
    integrand shares the subdivision across its components."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    value, err = _panel(f, a, b)
    # Worst-first heap keyed on the panel's largest error relative to the
    # current tolerance; (a, b) break ties.
    heap = [(0.0, a, b, value, err)]
    # Running totals only decide when to look; the verdict and the returned
    # value come from one sum over the final panels.
    total, total_err = value, err
    splits = 0
    while True:
        tol = spec.tolerance(total)
        exhausted = splits == spec.max_subdivisions
        if exhausted or (total_err <= tol).all():
            value, err = sum(item[3] for item in heap), sum(item[4] for item in heap)
            if exhausted or (err <= spec.tolerance(value)).all():
                break
        _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        left, right = _panel(f, pa, pm), _panel(f, pm, pb)
        total = total + (left[0] + right[0] - pv)
        total_err = total_err + (left[1] + right[1] - pe)
        scale = 1.0 / np.maximum(tol, 1e-300)  # tol is 0 where abs_tol = 0 meets a zero total
        for (lo, hi), (v, e) in (((pa, pm), left), ((pm, pb), right)):
            heapq.heappush(heap, (-float((e * scale).max()), lo, hi, v, e))
        splits += 1
    return _result(value, err, 15 + 30 * splits, spec)


# --- tanh-sinh ------------------------------------------------------------

_TS_T_MAX = 4.6  # exp(-pi*sinh(4.6)) ~ 1e-68: far past double-precision needs
_TS_H0 = 0.5
_TS_MAX_LEVELS = 10


def _ts_nodes(h: float, only_odd: bool) -> tuple[list[float], list[float]]:
    # Weights and offset fractions from the near end for t = k*h > 0, in
    # increasing t (so decreasing offset); the k = 0 node is handled by the
    # caller.  offset_fraction is (1 - tanh((pi/2) sinh t)) / 2 computed
    # without cancellation.
    weights, fractions = [], []
    k = 1
    step = 2 if only_odd else 1
    while k * h <= _TS_T_MAX:
        t = k * h
        c = 0.5 * math.pi * math.sinh(t)
        # w = (pi/2) cosh(t) / cosh(c)^2, guarded against overflow
        log_w = math.log(0.5 * math.pi * math.cosh(t)) + math.log(4.0) - 2.0 * c
        if log_w < -745.0:
            break
        weights.append(0.5 * math.pi * math.cosh(t) / math.cosh(c) ** 2 if c < 300.0 else math.exp(log_w))
        es = math.exp(-2.0 * c)
        fractions.append(es / (1.0 + es))
        k += step
    return weights, fractions


def integrate_singular_endpoints(
    f: Integrand,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    from_left: Optional[Integrand] = None,
    from_right: Optional[Integrand] = None,
) -> IntegralResult:
    """tanh-sinh (double-exponential) rule on [a, b]; never evaluates the
    integrand at a or b, and tolerates integrable inverse-square-root
    endpoint singularities.

    ``from_left``/``from_right``, when given, evaluate the integrand as a
    function of the exact distance s from the corresponding endpoint
    (f(a + s) resp. f(b - s)).  They let callers dodge the cancellation in
    forming a + s or b - s when the endpoint is not representable-adjacent,
    which is what limits plain double-precision tanh-sinh to ~1e-8 on such
    integrands.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    length = b - a
    mid = 0.5 * (a + b)
    # Without the offset hooks, nodes whose abscissa rounds onto an endpoint
    # cannot be evaluated; the mass of the unsampled endpoint slice is bounded
    # by the worst admitted singularity (f ~ C/sqrt(s), whose slice integral is
    # 2 f(s_last) s_last) and charged to the error estimate.
    walls = [0.0, 0.0]
    last_good = [(0.0, 0.0), (0.0, 0.0)]  # (value, distance) closest to each end
    f_mid = _values(f, [mid])[0] if from_left is None else _values(from_left, [mid - a], "s")[0]
    n_eval = 1

    def side(hook: Optional[Integrand], end: float, sign: float, dists: list[float], i: int) -> np.ndarray:
        # integrand values at distances from one end, given in decreasing order
        if hook is not None:
            return _values(hook, dists, "s")
        xs = [end + sign * s for s in dists]
        n_good = sum(1 for x in xs if x != end)  # rounding onto the end is a suffix
        values = np.zeros((len(xs),) + np.shape(f_mid))
        if n_good:
            values[:n_good] = _values(f, xs[:n_good])
            if last_good[i][1] == 0.0 or dists[n_good - 1] < last_good[i][1]:
                last_good[i] = (values[n_good - 1].copy(), dists[n_good - 1])
        if n_good < len(xs):
            v, sv = last_good[i]
            walls[i] = np.maximum(walls[i], 2.0 * np.abs(v) * sv)
        return values

    def level_sum(h: float, only_odd: bool) -> np.ndarray:
        nonlocal n_eval
        weights, fractions = _ts_nodes(h, only_odd)
        n_eval += 2 * len(weights)
        dists = [length * frac for frac in fractions]
        return np.asarray(weights) @ (side(from_left, a, 1.0, dists, 0) + side(from_right, b, -1.0, dists, 1))

    h = _TS_H0
    acc = 0.5 * math.pi * f_mid + level_sum(h, only_odd=False)  # k = 0 node: weight pi/2
    value = acc * h * 0.5 * length
    for _ in range(_TS_MAX_LEVELS):
        h *= 0.5
        acc = acc + level_sum(h, only_odd=True)
        new_value = acc * h * 0.5 * length
        err = np.abs(new_value - value) + walls[0] + walls[1]
        value = new_value
        if (err <= spec.tolerance(value)).all():
            break
    return _result(value, err, n_eval, spec)


_TAIL_CUTOFF = 1e-16  # the semi-infinite tail is truncated below this


def integrate_semi_infinite(f: Integrand, a: float, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """Integrate f on [a, inf) for integrands decaying faster than any
    polynomial: truncate where every component of f is below the tail
    cutoff, then subdivide adaptively."""
    offset = 10.0
    n_probe = 0
    while True:
        n_probe += 1
        if np.abs(_values(f, [a + offset])).max() < _TAIL_CUTOFF:
            break
        offset *= 2.0
        if offset > 1e4:
            raise QuadratureError("no truncation point found below the ceiling a + 1e4")
    result = integrate_finite(f, a, a + offset, spec)
    return replace(result, evaluations=result.evaluations + n_probe)
