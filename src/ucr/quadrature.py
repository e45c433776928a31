"""Integration stack for the integrand classes the moment computations
need.  One adaptive G7-K15 rule takes smooth finite intervals directly,
inverse-square-root endpoint singularities after the change of variable
x = a + (b - a) sin^2(theta), and semi-infinite integrands with
fast-decaying tails by truncating the tail.  A fixed rule (nodes and
weights the caller supplies, such as the oscillator's Gauss-Hermite rule
and the classical ensembles' Gauss-Chebyshev and Gauss-Legendre rules)
takes an integrand it integrates exactly, in one call.

An integrand takes a 1-D float array of k abscissas and returns shape (k,),
or (m, k) for m components; each rule calls it once per batch of nodes.  An
m-component integrand is integrated in one pass: every component shares the
abscissas (and, for the adaptive rules, the subdivision), and the pass
converges only when each component meets ``spec.tolerance`` of its own value.
The result then holds one value, error estimate and rounding floor per component.

The adaptive finite rule starts from the panels between the caller's break
points (the well's n panels between u = k/n, the bouncer's between its Airy
zeros and their midpoints; both converge on them at the default spec), in
integrand calls of at most 512 panels, then takes each generation's halves in
one call, within a fixed budget of 60 splits.  Its error estimate is QUADPACK
qk15's, with its rounding floor; a pass asked for less than its floor stops at
once.  Nothing outlives a call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "QuadratureSpec",
    "integrate_finite",
    "integrate_rule",
    "integrate_semi_infinite",
    "integrate_singular_endpoints",
]

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadratureError(RuntimeError):
    pass


_REL_PER_ABS = 100.0  # a spec's relative tolerance per unit of its quad_tol


@dataclass(frozen=True)
class QuadratureSpec:
    """One tolerance, the CLI's --quad-tol: a component converges within max(quad_tol, 100 quad_tol |value|)."""

    quad_tol: float = 1e-12

    def __post_init__(self):
        if not (self.quad_tol > 0 and math.isfinite(_REL_PER_ABS * self.quad_tol)):
            raise ValueError(f"quad_tol must be > 0 with {_REL_PER_ABS:g} quad_tol finite, got {self.quad_tol!r}")

    def tolerance(self, value: Union[float, np.ndarray]) -> np.ndarray:
        """The tolerance of each component of `value`, saturating below the largest float."""
        rel_tol = _REL_PER_ABS * self.quad_tol
        # |value| is capped at max/rel_tol rounded down, so the product stays finite; a smaller |value| keeps its bits
        cap = math.nextafter(sys.float_info.max / rel_tol, 0.0)
        return np.maximum(self.quad_tol, rel_tol * np.minimum(np.abs(value), cap))


@dataclass(frozen=True)
class IntegralResult:
    value: Union[float, tuple[float, ...]]  # a tuple for an m-component integrand
    error_estimate: Union[float, tuple[float, ...]]
    evaluations: int
    converged: bool
    floor: Union[float, tuple[float, ...]] = field(repr=False)  # the least error estimate rounding allows


DEFAULT_SPEC = QuadratureSpec()


def _values(f: Integrand, xs: np.ndarray, where: str = "x") -> np.ndarray:
    """f over the abscissas in one call, as the integrand returns it, C-contiguous:
    shape (k,) for a one-component integrand, (m, k) for an m-component one."""
    values = np.asarray(f(xs), dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != len(xs):
        raise ValueError(f"integrand returned shape {values.shape} for {len(xs)} abscissas")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite.reshape(-1, len(xs)).all(axis=0)))
        raise QuadratureError(f"integrand returned non-finite value at {where}={xs[bad].item()!r}")
    return np.ascontiguousarray(values)


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
_K15_NODES = np.array(tuple(-x for x in _XGK[:-1]) + _XGK[::-1])
_K15_G7_WEIGHTS = np.array([_WGK[:-1] + _WGK[::-1], _WGK[:-1] + _WGK[::-1]])
_K15_G7_WEIGHTS[1, 1::2] -= _WG[:-1] + _WG[::-1]


# Starting panels per integrand call: 7,680 abscissas, so a two-component integrand's values
# (120 KiB) stay below glibc's default 128 KiB mmap threshold and are not mapped afresh each call.
_BLOCK = 512
_MAX_SPLITS = 60  # panels a pass may split, over all its generations


def _panels(f: Integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """K15 values, error estimates and rounding floors, shape (3, P) or (3, m, P), of the P
    panels (lo, hi) from one integrand call.  The estimate is QUADPACK qk15's:
    resasc min(1, (200 |K15 - G7| / resasc)^1.5), at least the floor 50 eps resabs, where
    resabs integrates |f| and resasc |f - mean| by K15.  The sums are 2-D products over one
    (m P, 15) row per panel and component, so a panel's sums do not depend on its batch."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = _values(f, (mid[:, None] + half[:, None] * _K15_NODES).ravel())
    rows = values.reshape(-1, 15)  # one panel of one component a row
    k15, diff = (rows @ _K15_G7_WEIGHTS.T).T
    deviation = rows - 0.5 * k15[:, None]  # from the panel's mean
    resabs, resasc = np.abs(rows) @ _K15_G7_WEIGHTS[0], np.abs(deviation, out=deviation) @ _K15_G7_WEIGHTS[0]
    ratio = np.divide(200.0 * np.abs(diff), resasc, out=np.ones_like(resasc), where=resasc > 0.0)
    floor = 50.0 * sys.float_info.epsilon * resabs
    panels = np.array((k15, np.maximum(resasc * np.minimum(ratio, 1.0) ** 1.5, floor), floor))
    return half * panels.reshape((3,) + values.shape[:-1] + (len(lo),))


def integrate_finite(f: Integrand, points, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """QUADPACK's globally adaptive subdivision from the panels between the increasing break
    points (qagp), a generation of panels at a time; an m-component integrand shares the
    subdivision.  It first evaluates every starting panel, ``_BLOCK`` panels a call, then each
    generation's halves in one call.  A pass stops unconverged after ``_MAX_SPLITS`` splits or when
    a component's summed rounding floor exceeds its tolerance, which no split can meet."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or len(points) < 2 or not np.logical_and.reduce(points[:-1] < points[1:]):
        raise ValueError(f"need two or more increasing break points, got {points!r}")
    edges = np.array((points[:-1], points[1:]))
    blocks = [_panels(f, *edges[:, k:k + _BLOCK]) for k in range(0, edges.shape[1], _BLOCK)]
    panels = np.ascontiguousarray(np.concatenate(blocks, axis=-1))  # summed pairwise, from contiguous memory
    evaluations, budget = 15 * edges.shape[1], _MAX_SPLITS
    while True:  # a generation a turn, by ndarray methods and ufuncs rather than numpy's Python wrappers
        value, err, floor = panels.sum(axis=-1)
        tol = spec.tolerance(value)
        converged = bool((err <= tol).all())
        if converged or budget == 0 or (floor > tol).any():
            break
        # Worst first by the largest error relative to the tolerance; split the fewest worst panels
        # whose removal leaves every component's error sum within tolerance: the errors are >= 0,
        # so `fits` is False up to there, then True.
        errors, tol_column = panels[1].reshape(-1, edges.shape[1]), tol.reshape(-1, 1)
        order = (-np.maximum.reduce(errors / tol_column)).argsort(kind="stable")
        left = errors.take(order[:0:-1], axis=1).cumsum(axis=1)[:, ::-1]  # column j: after splitting order[:j + 1]
        fits = np.logical_and.reduce(left <= tol_column)
        count = min(int(fits.searchsorted(True)) + 1, budget)
        split, keep = order[:count], order[count:]
        keep.sort()
        lo, hi = edges.take(split, axis=1)
        mid = 0.5 * (lo + hi)
        halves = np.concatenate((lo, mid, mid, hi)).reshape(2, -1)  # all left halves, then all right halves
        edges = np.concatenate((edges.take(keep, axis=1), halves), axis=1)
        # by index: take would change .sum's order
        panels = np.concatenate((panels[..., keep], _panels(f, *halves)), axis=-1)
        evaluations += 30 * count
        budget -= count
    plain = (lambda array: tuple(array.tolist())) if value.ndim else float
    return IntegralResult(plain(value), plain(err), evaluations, converged, plain(floor))


def integrate_rule(f: Integrand, nodes: np.ndarray, weights: np.ndarray,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """The fixed rule sum_i w_i f(x_i) from one integrand call at every node,
    for an integrand the rule integrates exactly.  Each component's error
    estimate is its rounding floor eps * sum_i |w_i f(x_i)|, and the pass
    converges when every floor is within ``spec.tolerance``.  The sums are
    numpy's pairwise ufunc sums over each component, not a BLAS product."""
    terms = _values(f, nodes) * weights  # (m, k): each component's terms contiguous
    value = np.add.reduce(terms, axis=-1)
    err = sys.float_info.epsilon * np.add.reduce(np.abs(terms), axis=-1)
    plain = (lambda array: tuple(array.tolist())) if value.ndim else float
    return IntegralResult(plain(value), plain(err), len(nodes), bool((err <= spec.tolerance(value)).all()), plain(err))


# No moment computation takes this rule since the classical ensembles went onto exact fixed
# rules; it stays while the benchmark's tracer names it, as `integrate_semi_infinite` does.
def integrate_singular_endpoints(
    from_left: Integrand, from_right: Integrand, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> IntegralResult:
    """Integrate f on [a, b] given as two functions of the exact distance s
    from an endpoint: ``from_left(s)`` = f(a + s) and ``from_right(s)`` =
    f(b - s), each called only at 0 < s < (b - a)/2.  Both halves fold onto
    theta in (0, pi/4) through s = (b - a) sin^2(theta), where an integrable
    inverse-square-root endpoint singularity cancels against ds/dtheta, and
    the adaptive finite rule takes the smooth integrand in theta.  The result
    is to full precision when the two forms never compute a + s or b - s.
    ``evaluations`` counts the values of f: two per abscissa in theta.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    length = b - a

    def folded(theta: np.ndarray) -> np.ndarray:
        s = length * np.sin(theta) ** 2
        return (_values(from_left, s, "s") + _values(from_right, s, "s")) * (length * np.sin(2.0 * theta))

    result = integrate_finite(folded, (0.0, 0.25 * math.pi), spec)
    return replace(result, evaluations=2 * result.evaluations)


_TAIL_CUTOFF = 1e-16  # the semi-infinite tail is truncated below this


def integrate_semi_infinite(f: Integrand, a: float, spec: QuadratureSpec = DEFAULT_SPEC) -> IntegralResult:
    """Integrate f on [a, inf) for integrands decaying faster than any
    polynomial: truncate where every component of f is below the tail
    cutoff, then subdivide adaptively."""
    offset = 10.0
    n_probe = 0
    while True:
        n_probe += 1
        if np.abs(_values(f, np.array([a + offset]))).max() < _TAIL_CUTOFF:
            break
        offset *= 2.0
        if offset > 1e4:
            raise QuadratureError("no truncation point found below the ceiling a + 1e4")
    result = integrate_finite(f, (a, a + offset), spec)
    return replace(result, evaluations=result.evaluations + n_probe)
