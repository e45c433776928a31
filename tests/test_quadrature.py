import dataclasses
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from ucr import quadrature
from ucr.quadrature import (
    DEFAULT_SPEC,
    IntegralResult,
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_rule,
    integrate_semi_infinite,
    integrate_singular_endpoints,
)
from ucr.quantum_states import _integrate, eigen_level
from ucr.specfun import airy_ai, airy_zero
from ucr.systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel

TIGHT = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-10
        assert [f.name for f in dataclasses.fields(spec)] == ["abs_tol", "rel_tol"]  # the split budget is fixed

    def test_tolerance_combines_abs_and_rel(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
        assert spec.tolerance(0.0) == 1e-12
        assert spec.tolerance(100.0) == 1e-8

    def test_tolerance_saturates_instead_of_overflowing(self):
        # rel_tol * 2e6 = 2e308 is past the largest float; warnings are errors here
        spec = QuadratureSpec(abs_tol=1e300, rel_tol=1e302)
        saturated = spec.tolerance(2e6)
        assert math.isfinite(saturated) and saturated == pytest.approx(sys.float_info.max, rel=1e-15)
        assert spec.tolerance(np.array([-2e6, 1.0])).tolist() == [saturated, 1e302]
        assert QuadratureSpec(abs_tol=1e-3, rel_tol=0.0).tolerance(sys.float_info.max) == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": -1.0},
            {"rel_tol": -1.0},
            {"abs_tol": 0.0, "rel_tol": 0.0},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError) as excinfo:
            QuadratureSpec(**kwargs)
        for field, value in kwargs.items():  # the message names each bad field and its value
            assert field in str(excinfo.value) and repr(value) in str(excinfo.value)


class TestFinite:
    def test_linear(self):
        r = integrate_finite(lambda x: x, (0.0, 1.0), TIGHT)
        assert r.converged
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.evaluations > 0

    def test_cosine_squared(self):
        r = integrate_finite(lambda x: np.cos(np.pi * x) ** 2, (-0.5, 0.5), TIGHT)
        assert r.value == pytest.approx(0.5, abs=1e-13)

    def test_ground_state_second_moment_profile(self):
        # integral of x^2 (2/L) cos^2(pi x / L) over [-L/2, L/2]
        # = L^2 (1/12 - 1/(2 pi^2)); checked at L = 1
        expected = 1.0 / 12.0 - 1.0 / (2.0 * math.pi ** 2)
        r = integrate_finite(lambda x: x * x * 2.0 * np.cos(np.pi * x) ** 2, (-0.5, 0.5), TIGHT)
        assert r.value == pytest.approx(expected, abs=1e-13)
        assert r.value == pytest.approx(0.032672, abs=1e-6)

    def test_polynomial_exactness_through_degree_ten(self):
        rng = random.Random(42)
        for _ in range(20):
            coeffs = [rng.uniform(-2.0, 2.0) for _ in range(11)]
            a, b = -1.3, 2.1

            def poly(x, c=coeffs):
                acc = 0.0
                for ck in reversed(c):
                    acc = acc * x + ck
                return acc

            exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k, c in enumerate(coeffs))
            r = integrate_finite(poly, (a, b), TIGHT)
            assert abs(r.value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_error_estimate_honest_when_converged(self):
        eps = 2.3e-16
        cases = [
            (lambda x: np.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0)),
            (lambda x: np.sin(7.0 * x), 0.0, 2.0, (1.0 - math.cos(14.0)) / 7.0),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
            (lambda x: x ** 5 - 3.0 * x, -1.0, 2.5, (2.5 ** 6 - 1.0) / 6.0 - 1.5 * (2.5 ** 2 - 1.0)),
        ]
        for f, a, b, exact in cases:
            r = integrate_finite(f, (a, b), QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10))
            assert r.converged
            floor = eps * (abs(r.value) + 1.0)
            assert abs(r.value - exact) <= 10.0 * max(r.error_estimate, floor)

    def test_tightening_tolerance_never_hurts(self):
        def f(x):
            return np.cos(10.0 * x) * np.exp(x)

        exact = (math.e ** 2.0 * (math.cos(20.0) + 10.0 * math.sin(20.0)) - 1.0) / 101.0
        errors = []
        tol = 1e-2
        for _ in range(12):
            r = integrate_finite(f, (0.0, 2.0), QuadratureSpec(abs_tol=tol, rel_tol=tol))
            errors.append(abs(r.value - exact))
            tol *= 0.5
        for coarse, fine in zip(errors, errors[1:]):
            # once both sit at the rounding floor, monotonicity is noise
            assert fine <= max(coarse, 1e-14)

    def test_budget_exhaustion_reported(self):
        # cos^2 40x on [0, 10] needs more panels than the pass may split; its rounding
        # floor lies below the tolerance, so only the fixed budget stops it
        r = integrate_finite(lambda x: np.cos(40.0 * x) ** 2, (0.0, 10.0))
        assert not r.converged
        assert r.evaluations == 15 + 30 * quadrature._MAX_SPLITS
        assert r.error_estimate > DEFAULT_SPEC.tolerance(r.value) > r.floor

    def test_degenerate_interval_rejected(self):
        # the break points must be one axis of two or more, strictly increasing
        cases = [(1.0, 1.0), (2.0, 1.0), (0.0, 0.5, 0.5, 1.0), (0.0, 2.0, 1.0), (0.0, float("nan"), 1.0), (1.0,), 1.0,
                 ((0.0, 1.0), (1.0, 2.0))]
        for points in cases:
            with pytest.raises(ValueError, match=r"^need two or more increasing break points, got array\("):
                integrate_finite(lambda x: x, points)

    def test_break_points_start_from_their_panels(self):
        # the first call evaluates every panel between the break points, each
        # centred on its own, the pass refines from there, and it agrees with
        # the pass from one panel over the whole interval
        def f(x):
            return np.array([np.cos(40.0 * x) ** 2, x * np.sin(25.0 * x)])

        recorded, calls = TestArrayContract._recording(f)
        points = np.linspace(0.0, 2.0, 9)
        r = integrate_finite(recorded, points, TestArrayContract.SPEC)
        whole = integrate_finite(f, (0.0, 2.0), TestArrayContract.SPEC)
        assert r.converged and len(calls) > 1 and len(calls[0]) == 15 * 8
        assert np.array_equal(calls[0].reshape(8, 15)[:, 7], 0.5 * (points[:-1] + points[1:]))
        assert all(len(x) % 30 == 0 for x in calls[1:]) and sum(len(x) for x in calls) == r.evaluations
        for v, e, w, d in zip(r.value, r.error_estimate, whole.value, whole.error_estimate):
            assert abs(v - w) <= e + d + 4e-16 * abs(w)

    def test_tolerance_below_the_floor_stops_at_once(self):
        # sin 7x on [-3, 3] integrates to 0, and 50 eps int |sin 7x| is about 4e-14: no split
        # can meet abs_tol 1e-14, so the pass stops on its first panel, not at its budget's end
        r = integrate_finite(lambda x: np.sin(7.0 * x), (-3.0, 3.0), QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13))
        assert (r.converged, r.evaluations) == (False, 15)
        assert r.floor == r.error_estimate > 1e-14 and abs(r.value) < 1e-15
        # one component below its floor stops the pass for all of them
        f = lambda x: np.array([np.exp(x), np.sin(7.0 * x)])
        r = integrate_finite(f, (-3.0, 3.0), QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13))
        assert (r.converged, r.evaluations) == (False, 15) and r.floor[1] > 1e-14

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_finite(lambda x: np.full_like(x, np.nan), (0.0, 1.0))

    def test_result_types_are_plain(self):
        r = integrate_finite(lambda x: x * x, (0.0, 1.0))
        assert isinstance(r, IntegralResult)
        assert type(r.value) is float
        assert type(r.error_estimate) is float
        assert type(r.converged) is bool


def _arcsine_from_edge(s):
    # 1/sqrt(1 - x^2) at distance s from either end of [-1, 1], without
    # forming x = -1 + s or 1 - s
    return 1.0 / np.sqrt(s * (2.0 - s))


class TestSingularEndpoints:
    """The integrand comes as from_left(s) = f(a + s) and from_right(s) =
    f(b - s), functions of the exact distance s from an end."""

    def test_arcsine_density(self):
        # 1/(pi sqrt(1 - x^2)) integrates to 1; the raw version to pi
        r = integrate_singular_endpoints(_arcsine_from_edge, _arcsine_from_edge, -1.0, 1.0, TIGHT)
        assert abs(r.value - math.pi) <= max(r.error_estimate * 10.0, 1e-14)

    def test_arcsine_with_offset_hooks(self):
        r = integrate_singular_endpoints(_arcsine_from_edge, _arcsine_from_edge, -1.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(math.pi, abs=1e-13)

    def test_inverse_sqrt_left(self):
        r = integrate_singular_endpoints(lambda s: 1.0 / np.sqrt(s), lambda s: 1.0 / np.sqrt(1.0 - s), 0.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-10)

    def test_inverse_sqrt_right(self):
        r = integrate_singular_endpoints(lambda s: 1.0 / np.sqrt(1.0 - s), lambda s: 1.0 / np.sqrt(s), 0.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-13)

    def test_second_moment_with_arcsine_weight(self):
        r = integrate_singular_endpoints(
            lambda s: (s - 1.0) ** 2 / np.sqrt(s * (2.0 - s)),
            lambda s: (1.0 - s) ** 2 / np.sqrt(s * (2.0 - s)),
            -1.0, 1.0, TIGHT,
        )
        assert r.converged
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_smooth_integrand_full_precision(self):
        r = integrate_singular_endpoints(np.exp, lambda s: np.exp(1.0 - s), 0.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_never_evaluates_endpoints(self):
        # no hook ever sees s <= 0, nor a distance past the midpoint
        seen = []

        def hook(s):
            seen.extend(s.tolist())
            return 1.0 / np.sqrt(s)

        integrate_singular_endpoints(hook, hook, 0.0, 1.0, TIGHT)
        assert seen and all(0.0 < s <= 0.5 for s in seen)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_singular_endpoints(lambda s: s, lambda s: s, 1.0, 0.0)

    def test_non_finite_integrand_raises(self):
        def f(s):
            return np.full_like(s, np.inf)

        with pytest.raises(QuadratureError):
            integrate_singular_endpoints(f, f, 0.0, 1.0)


class TestSemiInfinite:
    def test_exponential_tail(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_moment(self):
        # integral of x^2 e^(-x^2) over [0, inf) = sqrt(pi)/4
        r = integrate_semi_infinite(lambda x: x * x * np.exp(-x * x), 0.0, TIGHT)
        assert r.value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-13)

    def test_airy_squared_norm_identity(self):
        # integral of Ai^2 from the first zero a_1 equals Ai'(a_1)^2
        a1 = airy_zero(1).value
        expected = airy_ai(a1).ai_prime ** 2
        r = integrate_semi_infinite(lambda z: np.array([airy_ai(v).ai for v in z]) ** 2, a1, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(expected, rel=1e-11)

    def test_shifted_origin(self):
        r = integrate_semi_infinite(lambda x: np.exp(-(x - 3.0)), 3.0, TIGHT)
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_slow_decay_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda x: np.full_like(x, 1e-10), 0.0)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda x: np.full_like(x, np.nan), 0.0)


class TestFixedRule:
    # Gauss-Legendre with 3 nodes on [-1, 1]: exact through degree 5
    NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
    WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

    def test_exact_rule_in_one_call(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.array([x ** 4, x ** 5, np.ones_like(x)])

        r = integrate_rule(f, self.NODES, self.WEIGHTS)
        assert len(calls) == 1 and calls[0].tolist() == self.NODES.tolist()
        assert r.value == pytest.approx((0.4, 0.0, 2.0), abs=1e-15)
        assert (r.evaluations, r.converged) == (3, True)

    def test_error_estimate_is_the_rounding_floor(self):
        # eps * sum |w_i f(x_i)| per component; never 0 where a term is not 0
        f = lambda x: np.array([x ** 2, x ** 3])
        r = integrate_rule(f, self.NODES, self.WEIGHTS)
        terms = self.WEIGHTS * f(self.NODES)
        assert r.error_estimate == tuple((sys.float_info.epsilon * np.abs(terms).sum(axis=1)).tolist())
        assert min(r.error_estimate) > 0.0

    def test_one_component_returns_floats(self):
        r = integrate_rule(lambda x: x * x, self.NODES, self.WEIGHTS)
        assert type(r.value) is float and type(r.error_estimate) is float and type(r.evaluations) is int
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_tolerance_below_the_floor_does_not_converge(self):
        r = integrate_rule(lambda x: x * x, self.NODES, self.WEIGHTS, QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300))
        assert r.converged is False
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="at x=0.0"):
            integrate_rule(lambda x: np.where(x == 0.0, np.nan, x), self.NODES, self.WEIGHTS)


class TestKronrodConstants:
    """The typed G7-K15 digits, checked with mpmath alone: a 15-point rule
    that embeds the 7-point Gauss rule and integrates x^k exactly for
    k <= 22 is unique, so a mistyped digit fails here."""

    @staticmethod
    def _full_rule():
        xs, ws = quadrature._XGK, quadrature._WGK
        nodes = [-x for x in xs[:-1]] + list(xs[::-1])
        weights = list(ws[:-1]) + list(ws[::-1])
        return [mp.mpf(x) for x in nodes], [mp.mpf(w) for w in weights]

    def test_kronrod_rule_exact_through_degree_22(self):
        mp.mp.dps = 30
        nodes, weights = self._full_rule()
        assert len(nodes) == 15 and len(set(nodes)) == 15
        for k in range(23):
            got = mp.fsum(w * x ** k for x, w in zip(nodes, weights))
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            assert abs(got - exact) < 1e-15, k

    def test_embedded_gauss_rule_is_gauss_legendre_7(self):
        mp.mp.dps = 30
        gauss_nodes = quadrature._XGK[1::2]  # 0.949.., 0.741.., 0.405.., 0.0
        for x, w in zip(gauss_nodes, quadrature._WG):
            root = mp.findroot(lambda t: mp.legendre(7, t), mp.mpf(x))
            assert abs(root - x) < 1e-15
            weight = 2 / ((1 - root ** 2) * mp.diff(lambda t: mp.legendre(7, t), root) ** 2)
            assert abs(weight - w) < 1e-15
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(7)
        assert np.allclose(sorted(-x for x in gauss_nodes[:-1]) + sorted(gauss_nodes), ref_nodes,
                           rtol=0, atol=1e-15)
        assert np.allclose(quadrature._WG + quadrature._WG[-2::-1], ref_weights, rtol=0, atol=1e-15)


def _qk15(f, a: float, b: float) -> tuple[float, float, float, float]:
    # QUADPACK's qk15 (Piessens et al. 1983) line by line in Python floats, up to its
    # scaled estimate: result, |K15 - G7|, resasc and resabs
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    resg, resk = fc * wg[3], fc * wgk[7]
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 7, [0.0] * 7
    for j in range(7):
        absc = hlgth * xgk[j]
        fv1[j], fv2[j] = f(centr - absc), f(centr + absc)
        resk += wgk[j] * (fv1[j] + fv2[j])
        resabs += wgk[j] * (abs(fv1[j]) + abs(fv2[j]))
        if j % 2 == 1:
            resg += wg[j // 2] * (fv1[j] + fv2[j])
    reskh = resk * 0.5
    resasc = wgk[7] * abs(fc - reskh) + sum(wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh)) for j in range(7))
    return resk * hlgth, abs((resk - resg) * hlgth), resasc * abs(hlgth), resabs * abs(hlgth)


def _qk15_estimate(abserr: float, resasc: float, resabs: float) -> float:
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    return max(50.0 * sys.float_info.epsilon * resabs, abserr)


class TestQk15Estimate:
    """Each panel's error estimate and floor are QUADPACK qk15's.  |K15 - G7| is a
    difference of two sums that agree to many digits, so its rounding depends on the
    order of the sums: the estimate is held to qk15's at |K15 - G7| +- 8 eps resabs."""

    @pytest.mark.parametrize("f", [math.exp, lambda x: math.cos(40.0 * x) ** 2, lambda x: x ** 3, lambda x: 2.5,
                                   lambda x: math.sin(7.0 * x), lambda x: 1.0 / (1.0 + 100.0 * x * x)],
                             ids=["exp", "cos^2 40x", "cubic", "constant", "sin 7x", "runge"])
    def test_panels_follow_qk15(self, f):
        edges = np.array([[-3.0, -1.0, 0.0, 0.5], [-1.0, 0.0, 0.5, 2.0]])
        value, error, floor = quadrature._panels(np.vectorize(f), *edges)
        for k, (a, b) in enumerate(edges.T.tolist()):
            want, abserr, resasc, resabs = _qk15(f, a, b)
            slack = 8.0 * sys.float_info.epsilon * resabs
            assert value[k] == pytest.approx(want, rel=1e-14, abs=1e-15)
            low, high = (_qk15_estimate(e, resasc, resabs) for e in (max(abserr - slack, 0.0), abserr + slack))
            assert low * (1.0 - 1e-14) <= error[k] <= high * (1.0 + 1e-14)
            assert floor[k] == pytest.approx(50.0 * sys.float_info.epsilon * resabs, rel=1e-14)

    def test_components_share_the_abscissas_not_the_estimate(self):
        # each component of a panel gets the estimate it would get alone
        f = lambda x: np.array([np.exp(x), np.cos(40.0 * x) ** 2])
        both = quadrature._panels(f, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        for k in range(2):
            alone = quadrature._panels(lambda x: f(x)[k], np.array([0.0, 1.0]), np.array([1.0, 3.0]))
            assert np.allclose(both[:, k], alone, rtol=1e-14, atol=0.0)


def _agrees(vector, scalars):
    # each component of a tuple integral equals the scalar integral of that
    # component within the sum of their error estimates (plus a few ulps)
    assert vector.converged and all(s.converged for s in scalars)
    assert isinstance(vector.value, tuple) and isinstance(vector.error_estimate, tuple)
    assert len(vector.value) == len(scalars)
    for v, e, s in zip(vector.value, vector.error_estimate, scalars):
        assert type(v) is float and type(e) is float
        assert abs(v - s.value) <= e + s.error_estimate + 4e-16 * max(abs(v), abs(s.value))


class TestVectorIntegrands:
    def test_finite_smooth(self):
        # sin 7x and x exp(-x^2) integrate to 0, so their tolerance is abs_tol, and
        # sin 7x's rounding floor 50 eps int |sin 7x| is 4e-14: TIGHT's 1e-14 lies below it
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        components = (
            lambda x: np.exp(-x * x),
            lambda x: np.sin(7.0 * x),
            lambda x: 1.0 / (1.0 + x * x),
            lambda x: x * np.exp(-x * x),  # odd: vanishes on the symmetric range
        )
        vector = integrate_finite(lambda x: np.array([c(x) for c in components]), (-3.0, 3.0), spec)
        _agrees(vector, [integrate_finite(c, (-3.0, 3.0), spec) for c in components])
        assert isinstance(vector.evaluations, int) and type(vector.converged) is bool

    def test_semi_infinite_decaying(self):
        a1 = airy_zero(1).value
        components = (
            lambda z: np.array([airy_ai(v).ai for v in z]) ** 2,
            lambda z: (z - a1) * np.array([airy_ai(v).ai for v in z]) ** 2,
            lambda z: np.array([airy_ai(v).ai * airy_ai(v).ai_prime for v in z]),  # integrates to ~0
        )
        vector = integrate_semi_infinite(lambda z: np.array([c(z) for c in components]), a1, TIGHT)
        _agrees(vector, [integrate_semi_infinite(c, a1, TIGHT) for c in components])
        assert vector.value[0] == pytest.approx(airy_ai(a1).ai_prime ** 2, rel=1e-11)

    def test_semi_infinite_truncates_only_when_every_component_decayed(self):
        # the first component is below the tail cutoff long before the second
        vector = integrate_semi_infinite(lambda x: np.array([np.exp(-10.0 * x), np.exp(-x)]), 0.0, TIGHT)
        assert vector.value == pytest.approx((0.1, 1.0), abs=1e-13)

    def test_singular_endpoints(self):
        # 1, x and x^2 over sqrt(1 - x^2) on [-1, 1]
        left = (
            _arcsine_from_edge,
            lambda s: (s - 1.0) / np.sqrt(s * (2.0 - s)),
            lambda s: (s - 1.0) ** 2 / np.sqrt(s * (2.0 - s)),
        )
        right = (left[0], lambda s: (1.0 - s) / np.sqrt(s * (2.0 - s)), left[2])
        vector = integrate_singular_endpoints(
            lambda s: np.array([e(s) for e in left]), lambda s: np.array([r(s) for r in right]), -1.0, 1.0, TIGHT
        )
        scalars = [integrate_singular_endpoints(e, r, -1.0, 1.0, TIGHT) for e, r in zip(left, right)]
        _agrees(vector, scalars)
        assert vector.value == pytest.approx((math.pi, 0.0, math.pi / 2.0), abs=1e-13)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_component_raises(self, bad):
        def f(x):
            return np.array([np.exp(-x), np.where(x > 0.3, bad, 0.0)])

        with pytest.raises(QuadratureError):
            integrate_finite(f, (0.0, 1.0))
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(f, 0.0)
        with pytest.raises(QuadratureError):
            integrate_singular_endpoints(f, f, 0.0, 1.0)


class TestArrayContract:
    """Every integrand call gets one 1-D float array of abscissas; the finite
    rule evaluates its starting panels in calls of at most _BLOCK panels and
    one call per generation of split panels after them."""

    # x sin 25x on [0, 2] integrates to -0.078 with a rounding floor of 1.4e-14, so abs_tol is above it,
    # and cos^2 40x beside it needs 53 of the pass's 60 splits
    SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-13)

    @staticmethod
    def _recording(f):
        calls = []

        def recorded(x):
            calls.append(x)
            return f(x)

        return recorded, calls

    @staticmethod
    def _all_1d_float_arrays(calls):
        return calls and all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float for x in calls)

    def test_finite_batches_each_generation(self):
        f, calls = self._recording(lambda x: np.array([np.cos(40.0 * x) ** 2, x * np.sin(25.0 * x)]))
        r = integrate_finite(f, (0.0, 2.0), self.SPEC)
        assert r.converged
        assert self._all_1d_float_arrays(calls)
        assert len(calls[0]) == 15  # the one starting panel alone
        assert all(len(x) > 0 and len(x) % 30 == 0 for x in calls[1:])
        assert sum(len(x) for x in calls) == r.evaluations
        splits = (r.evaluations - 15) // 30
        assert len(calls) - 1 < splits / 4  # many panels per generation, not one

    @pytest.mark.parametrize(
        "f",
        [lambda x: 1.0, lambda x: x[:-1], lambda x: np.stack([x, x], axis=1), lambda x: x[None, None, :]],
        ids=["scalar", "one short", "abscissas last", "three axes"],
    )
    def test_integrand_of_the_wrong_shape_is_refused(self, f):
        # one value per abscissa, abscissas on the last axis of one or two
        for integrate in (lambda: integrate_finite(f, (0.0, 1.0)), lambda: integrate_rule(f, np.arange(3.0), np.ones(3))):
            with pytest.raises(ValueError, match=r"^integrand returned shape \(.*\) for \d+ abscissas$"):
                integrate()

    def test_first_panel_convergence_returns_its_panel(self):
        # a pass that converges on its first panel returns that panel's K15
        # value, error and floor, evaluated alone, bit for bit, from its one
        # call of 15 abscissas
        def f(x):
            return np.array([x ** 3 - x, np.exp(x)])

        recorded, calls = self._recording(f)
        r = integrate_finite(recorded, (-1.0, 1.3), self.SPEC)
        assert r.converged and len(calls) == 1
        value, error, floor = quadrature._panels(f, np.array([-1.0]), np.array([1.3]))[..., 0]
        assert (r.value, r.error_estimate, r.floor) == tuple(tuple(v.tolist()) for v in (value, error, floor))
        assert r.evaluations == len(calls[0]) == 15

    def test_starting_panels_in_blocks_keep_their_bits(self):
        # many starting panels are evaluated in integrand calls of at most
        # _BLOCK panels, with the bits of one call over all of them, summed pairwise
        def f(x):
            return np.array([np.cos(3.0 * x) ** 2, x * x])

        recorded, calls = self._recording(f)
        block = quadrature._BLOCK
        points = np.linspace(0.0, 1.0, 2 * block + 2)
        r = integrate_finite(recorded, points, DEFAULT_SPEC)
        assert r.converged and [len(x) for x in calls] == [15 * block, 15 * block, 15]
        assert r.evaluations == 15 * (2 * block + 1)
        value, error, _ = np.ascontiguousarray(quadrature._panels(f, points[:-1], points[1:])).sum(axis=-1)
        assert (r.value, r.error_estimate) == (tuple(value.tolist()), tuple(error.tolist()))

    def test_singular_endpoints_batches_each_generation(self, monkeypatch):
        # one pass of the finite rule in theta; each of its integrand calls
        # evaluates each side once, at the same distances s
        left, left_calls = self._recording(lambda s: np.cos(30.0 * (s - 1.0)) / np.sqrt(s * (2.0 - s)))
        right, right_calls = self._recording(lambda s: np.cos(30.0 * (1.0 - s)) / np.sqrt(s * (2.0 - s)))
        theta_calls = []

        def finite(f, *args):
            recorded, calls = self._recording(f)
            theta_calls.append(calls)
            return integrate_finite(recorded, *args)

        monkeypatch.setattr(quadrature, "integrate_finite", finite)
        r = integrate_singular_endpoints(left, right, -1.0, 1.0, self.SPEC)
        assert r.converged
        assert self._all_1d_float_arrays(left_calls) and self._all_1d_float_arrays(right_calls)
        [calls] = theta_calls
        assert len(calls) > 1 and len(left_calls) == len(right_calls) == len(calls)
        assert all(np.array_equal(s, t) for s, t in zip(left_calls, right_calls))
        assert len(left_calls[0]) == 15
        assert all(0.0 < s < 1.0 for s in np.concatenate(left_calls))
        assert sum(len(s) for s in left_calls + right_calls) == r.evaluations

    def test_semi_infinite_probes_then_batches(self):
        f, calls = self._recording(lambda x: np.exp(-x) * np.cos(5.0 * x) ** 2)
        r = integrate_semi_infinite(f, 0.0, self.SPEC)
        assert r.converged
        assert self._all_1d_float_arrays(calls)
        probes = [x for x in calls if len(x) == 1]
        assert len(probes) >= 1 and calls[:len(probes)] == probes
        assert sum(len(x) for x in calls) == r.evaluations
        assert len(calls) - len(probes) < (r.evaluations - len(probes)) // 15


def _oscillatory(x):
    return np.array([np.cos(7.0 * x) ** 2 * np.exp(-x), x * np.sin(5.0 * x)])


_MODELS = {
    "bouncer": PotentialModel(BouncingBall(m=1.0, g=1.0)),
    "ho": PotentialModel(HarmonicOscillator(m=1.0, omega=1.0)),
    "well": PotentialModel(InfiniteWell(m=1.0, L=1.0)),
}


class TestPinnedBits:
    """The value, error estimate (as float.hex, per component), evaluation
    count and convergence flag of fixed passes.  The values were first
    recorded from the code as it was before the finite rule evaluated the top
    of its bisection tree in its first call, and kept their bits through that
    tree and its removal: how the integrand calls are batched must not move a
    bit.  The well's pass over its half u in [0, 1] was recorded when it
    replaced the well's two parity passes over [-1, 1], and from n = 2 on
    re-recorded when it started from its n panels between u = k/n.  Every
    K15 pin was re-recorded when the error estimate became QUADPACK qk15's
    and the bouncer's pass started from its panels between the asymptotic
    Airy zeros: the well's values and the oscillatory pass's budget-3 values
    kept their bits.  The bouncer's pins were re-recorded when its break
    points took the midpoints between those zeros, on a grid of 2 ulp(E'), on
    which its pass converges without a split, and again, with the same
    evaluation counts, when Ai's Taylor steps moved onto the nearest of the
    anchors every 1/2 over (-12, 9).  The oscillator's Gauss-Hermite rule of n + 2 nodes was
    recorded when it replaced the oscillator's adaptive half-line pass, on
    numpy 2.4.6 with the AVX512_SPR dispatch of its ufuncs (np.exp, np.sin
    and np.cos build the nodes and the recurrence's start) on an AVX-512
    Xeon; its sums are numpy's pairwise sums, not a BLAS product."""

    MOMENT_PASSES = {
        ("bouncer", 1): (
            ("0x1.f77f5175bf7f2p-2", "0x1.8869086b58596p-1", "0x1.6effbbb3bb8efp+0", "-0x1.5900000000000p-55"),
            ("0x1.c36344b45620ep-47", "0x1.abaef1b9449fap-44", "0x1.6398934b2df66p-43", "0x1.30aa709925ee8p-45"),
            120,
        ),
        ("bouncer", 14): (
            ("0x1.474f6ac3b3399p+0", "0x1.b80861119d170p+3", "0x1.62f20aaf0c8dap+7", "0x1.4ddd35c880000p-52"),
            ("0x1.822d3628080dep-46", "0x1.0cae4fedbb8f4p-42", "0x1.f7832ee8d6c3ap-39", "0x1.d77b07a795c31p-45"),
            510,
        ),
        ("bouncer", 11): (
            ("0x1.2d89b0b1088dap+0", "0x1.580ab6ad48070p+3", "0x1.d70b65c4674f0p+6", "-0x1.3319ca3780000p-52"),
            ("0x1.6e0aa3290fc15p-46", "0x1.b5ed65c857100p-43", "0x1.632b3c46b4e52p-39", "0x1.bec0dce239086p-45"),
            420,
        ),
        ("bouncer", 36): (
            ("0x1.c20e1a09d8810p+0", "0x1.1e00ce5bfa683p+5", "0x1.b433985bf515bp+9", "-0x1.b633946f00000p-53"),
            ("0x1.e2122f16d52dcp-46", "0x1.485302b6c20a4p-41", "0x1.025d9bd6224a8p-36", "0x1.348a04b121bbap-44"),
            1170,
        ),
        ("ho", 0): (
            ("0x1.ffffffffffffep-2", "0x1.ffffffffffffbp-2", "0x0.0p+0"),
            ("0x1.ffffffffffffep-54", "0x1.ffffffffffffbp-54", "0x1.6a09e667f3bcbp-53"),
            2,
        ),
        ("ho", 25): (
            ("0x1.9800000000002p+4", "0x1.97fffffffffffp+4", "-0x1.0000000000000p-54"),
            ("0x1.9800000000002p-48", "0x1.97fffffffffffp-48", "0x1.6d424d2bdd361p-51"),
            27,
        ),
        ("ho", 40): (
            ("0x1.43fffffffffffp+5", "0x1.43ffffffffffep+5", "0x1.0000000000000p-53"),
            ("0x1.43fffffffffffp-47", "0x1.43ffffffffffep-47", "0x1.d4db5e4b842e7p-51"),
            42,
        ),
        ("well", 1): (("0x1.0000000000000p-1", "0x1.0ba7b4887e38bp-4"), ("0x1.9000000000000p-48", "0x1.6a4870ce2def8p-46"), 15),
        ("well", 100): (("0x1.0000000000001p-1", "0x1.5550056c65b0ap-3"), ("0x1.9000000000003p-48", "0x1.0aa78de89fa94p-49"), 1500),
        ("well", 1000): (("0x1.0000000000000p-1", "0x1.555547bbf6c6cp-3"), ("0x1.9000000000000p-48", "0x1.0aaaa04edbe5dp-49"), 15000),
    }

    ONE_PANEL_START = (  # the bouncer's n = 11 integrands on (-E'_11, -E'_11 + 40]: 27 splits
        ("0x1.2d89b0b1088dap+0", "0x1.580ab6ad4806ep+3", "0x1.d70b65c4674f0p+6", "0x1.0000000000000p-54"),
        ("0x1.e21d56f0b0b8bp-43", "0x1.512e06c804610p-41", "0x1.24d3f4bcad3bep-38", "0x1.7fa4fac66754ap-41"),
        825,
        True,
    )

    OSCILLATORY = {  # _oscillatory on [0, 3]
        "default": (DEFAULT_SPEC, ("0x1.e77fdba4a41d2p-2", "0x1.ed6356d32ea01p-2"),
                    ("0x1.6ecd829068a3cp-36", "0x1.2b538f9c8172cp-45"), 225, True),
        "tight": (QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12), ("0x1.e77fdba4a41d5p-2", "0x1.ed6356d32ea02p-2"),
                  ("0x1.271780995cac6p-45", "0x1.2b6d54036f956p-45"), 405, True),
    }

    @staticmethod
    def _hex(result):
        hexes = tuple(v.hex() for v in result.value), tuple(e.hex() for e in result.error_estimate)
        return hexes + (result.evaluations, result.converged)

    @pytest.mark.parametrize("system, n", sorted(MOMENT_PASSES))
    def test_moment_pass(self, system, n):
        # the level's one pass through the runner that quantum_moments_quadrature calls
        level = eigen_level(_MODELS[system], n)
        (f, *rule), _ = _MODELS[system].variant.moment_pass(level)
        result = _integrate(f"{system} pinned", f, rule, DEFAULT_SPEC)
        assert self._hex(result) == self.MOMENT_PASSES[system, n] + (True,)

    def test_one_panel_start(self):
        # a pass from one panel that splits over several generations, ending past the moment pass's z = 9
        level = eigen_level(_MODELS["bouncer"], 11)
        (f, points), _ = _MODELS["bouncer"].variant.moment_pass(level)
        result = integrate_finite(f, (points[0], points[0] + 40.0), DEFAULT_SPEC)
        assert self._hex(result) == self.ONE_PANEL_START

    @pytest.mark.parametrize("name", sorted(OSCILLATORY))
    def test_oscillatory_pass(self, name):
        spec, *pinned = self.OSCILLATORY[name]
        assert self._hex(integrate_finite(_oscillatory, (0.0, 3.0), spec)) == tuple(pinned)
