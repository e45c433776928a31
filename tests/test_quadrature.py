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
        assert spec.max_subdivisions == 60

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
            {"max_subdivisions": 0},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
            {"max_subdivisions": 2.5},
            {"max_subdivisions": 60.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError) as excinfo:
            QuadratureSpec(**kwargs)
        for field, value in kwargs.items():  # the message names each bad field and its value
            assert field in str(excinfo.value) and repr(value) in str(excinfo.value)


class TestFinite:
    def test_linear(self):
        r = integrate_finite(lambda x: x, 0.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.evaluations > 0

    def test_cosine_squared(self):
        r = integrate_finite(lambda x: np.cos(np.pi * x) ** 2, -0.5, 0.5, TIGHT)
        assert r.value == pytest.approx(0.5, abs=1e-13)

    def test_ground_state_second_moment_profile(self):
        # integral of x^2 (2/L) cos^2(pi x / L) over [-L/2, L/2]
        # = L^2 (1/12 - 1/(2 pi^2)); checked at L = 1
        expected = 1.0 / 12.0 - 1.0 / (2.0 * math.pi ** 2)
        r = integrate_finite(lambda x: x * x * 2.0 * np.cos(np.pi * x) ** 2, -0.5, 0.5, TIGHT)
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
            r = integrate_finite(poly, a, b, TIGHT)
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
            r = integrate_finite(f, a, b, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10))
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
            r = integrate_finite(f, 0.0, 2.0, QuadratureSpec(abs_tol=tol, rel_tol=tol))
            errors.append(abs(r.value - exact))
            tol *= 0.5
        for coarse, fine in zip(errors, errors[1:]):
            # once both sit at the rounding floor, monotonicity is noise
            assert fine <= max(coarse, 1e-14)

    def test_budget_exhaustion_reported(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1)
        r = integrate_finite(lambda x: np.cos(40.0 * x) ** 2, 0.0, 10.0, spec)
        assert not r.converged
        assert r.error_estimate > 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 2.0, 1.0)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_result_types_are_plain(self):
        r = integrate_finite(lambda x: x * x, 0.0, 1.0)
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
        components = (
            lambda x: np.exp(-x * x),
            lambda x: np.sin(7.0 * x),
            lambda x: 1.0 / (1.0 + x * x),
            lambda x: x * np.exp(-x * x),  # odd: vanishes on the symmetric range
        )
        vector = integrate_finite(lambda x: np.array([c(x) for c in components]), -3.0, 3.0, TIGHT)
        _agrees(vector, [integrate_finite(c, -3.0, 3.0, TIGHT) for c in components])
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
            integrate_finite(f, 0.0, 1.0)
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(f, 0.0)
        with pytest.raises(QuadratureError):
            integrate_singular_endpoints(f, f, 0.0, 1.0)


class TestArrayContract:
    """Every integrand call gets one 1-D float array of abscissas; the finite
    rule evaluates the first panel in one call and at most one call per
    generation of split panels after it."""

    SPEC = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=1000)

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
        r = integrate_finite(f, 0.0, 10.0, self.SPEC)
        assert r.converged
        assert self._all_1d_float_arrays(calls)
        tree = 15 * (2 ** (quadrature._TREE_DEPTH + 1) - 1)  # the first panel and its top generations of halves
        assert len(calls[0]) == tree
        assert all(len(x) > 0 and len(x) % 30 == 0 for x in calls[1:])
        assert sum(len(x) for x in calls) == r.evaluations
        splits = (r.evaluations - tree) // 30  # those past the tree
        assert len(calls) - 1 < splits / 4  # many panels per generation, not one

    @pytest.mark.parametrize(
        "f",
        [lambda x: 1.0, lambda x: x[:-1], lambda x: np.stack([x, x], axis=1), lambda x: x[None, None, :]],
        ids=["scalar", "one short", "abscissas last", "three axes"],
    )
    def test_integrand_of_the_wrong_shape_is_refused(self, f):
        # one value per abscissa, abscissas on the last axis of one or two
        for integrate in (lambda: integrate_finite(f, 0.0, 1.0), lambda: integrate_rule(f, np.arange(3.0), np.ones(3))):
            with pytest.raises(ValueError, match=r"^integrand returned shape \(.*\) for \d+ abscissas$"):
                integrate()

    def test_first_panel_convergence_returns_its_panel(self):
        # a pass that converges on its first panel returns that panel's K15
        # value and error, evaluated alone, bit for bit, and has evaluated the
        # whole tree in its one call
        def f(x):
            return np.array([x ** 3 - x, np.exp(x)])

        recorded, calls = self._recording(f)
        r = integrate_finite(recorded, -1.0, 1.3, self.SPEC)
        assert r.converged and len(calls) == 1
        value, error = quadrature._panels(f, np.array([-1.0]), np.array([1.3]))[..., 0]
        assert (r.value, r.error_estimate) == (tuple(value.tolist()), tuple(error.tolist()))
        assert r.evaluations == len(calls[0]) == 15 * quadrature._TREE

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
        assert len(left_calls[0]) == 15 * quadrature._TREE
        assert all(0.0 < s < 1.0 for s in np.concatenate(left_calls))
        assert sum(len(s) for s in left_calls + right_calls) == r.evaluations

    def test_semi_infinite_probes_then_batches(self):
        f, calls = self._recording(lambda x: np.exp(-x) * np.cos(9.0 * x) ** 2)
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
    count and convergence flag of fixed passes.  The values, errors and flags
    were recorded from the code as it was before the finite rule evaluated the
    top of its bisection tree in its first call: how the integrand calls are
    batched must not move a bit.  The counts, and the bouncer's n = 11 pass
    on (-E'_11, -E'_11 + 40], which has a generation with halves both inside
    and outside that tree, were recorded from the loop as it was before it
    took its halves from the tree by node number; that pass was the level's
    moment pass while the bouncer's ran on the half-line, and its count then
    included three one-element tail probes.  The bouncer's passes over
    (-E'_n, 9] were recorded when they replaced those half-line passes.  The
    well's pass over its half u in [0, 1] was recorded
    when it replaced the well's two parity passes over [-1, 1].  The
    oscillator's Gauss-Hermite rule of n + 2 nodes was recorded when it
    replaced the oscillator's adaptive half-line pass, on numpy 2.4.6 with
    the AVX512_SPR dispatch of its ufuncs (np.exp, np.sin and np.cos build
    the nodes and the recurrence's start) on an AVX-512 Xeon; its sums are
    numpy's pairwise sums, not a BLAS product."""

    MOMENT_PASSES = {
        ("bouncer", 1): (
            ("0x1.f77f5175bf7f3p-2", "0x1.8869086b58596p-1", "0x1.6effbbb3bb8f0p+0", "0x1.8000000000000p-55"),
            ("0x1.8e50c39f9ff60p-44", "0x1.7e296397ca3b0p-44", "0x1.4aba746c3f324p-40", "0x1.6738c21a38e9cp-46"),
            285,
        ),
        ("bouncer", 14): (
            ("0x1.474f6ac3b3397p+0", "0x1.b80861119d16bp+3", "0x1.62f20aaf0c8dcp+7", "0x1.5400000000000p-51"),
            ("0x1.a35bb963d08c2p-43", "0x1.e4e30762e5558p-40", "0x1.956d9077210a3p-36", "0x1.a9bdc242169b5p-41"),
            1185,
        ),
        ("bouncer", 11): (
            ("0x1.2d89b0b1088dap+0", "0x1.580ab6ad48071p+3", "0x1.d70b65c4674eep+6", "0x1.cc00000000000p-52"),
            ("0x1.028d6277274aap-41", "0x1.0a9f17209c901p-38", "0x1.0653b4fd819dcp-35", "0x1.684efe69b2c93p-41"),
            1035,
        ),
        ("bouncer", 36): (
            ("0x1.c20e1a09d880cp+0", "0x1.1e00ce5bfa67fp+5", "0x1.b433985bf5157p+9", "0x1.ac00000000000p-50"),
            ("0x1.95465a38bd544p-42", "0x1.73a5d1bedb273p-38", "0x1.f04fa47f64b05p-34", "0x1.f50523b29dcc5p-41"),
            2745,
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
        ("well", 1): (("0x1.0000000000000p-1", "0x1.0ba7b4887e38bp-4"), ("0x1.22de4bb4e4691p-55", "0x1.637a2fff35f50p-40"), 225),
        ("well", 100): (("0x1.fffffffffffffp-2", "0x1.5550056c65b0ap-3"), ("0x1.b6e685252759cp-35", "0x1.2ee79f4a65a98p-37"), 2535),
        ("well", 1000): (("0x1.ffffffffffffdp-2", "0x1.555547bbf6c6ep-3"), ("0x1.b3a64c2554bc6p-35", "0x1.474d578e7c740p-37"), 28575),
    }

    MIXED_GENERATION = (  # the bouncer's n = 11 integrands on (-E'_11, -E'_11 + 40], budget 6n = 66
        ("0x1.2d89b0b1088dbp+0", "0x1.580ab6ad4806dp+3", "0x1.d70b65c4674f3p+6", "0x1.c000000000000p-55"),
        ("0x1.344084a23c940p-41", "0x1.74dc2d5bd4df1p-39", "0x1.2900cfe6c581ap-36", "0x1.a2a3758acbaa8p-41"),
        1185,
        True,
    )

    OSCILLATORY = {  # _oscillatory on [0, 3]
        "default": (DEFAULT_SPEC, ("0x1.e77fdba4a41d4p-2", "0x1.ed6356d32ea01p-2"),
                    ("0x1.6a88472606d25p-35", "0x1.da763fe9bf039p-50"), 315, True),
        "tight": (QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12), ("0x1.e77fdba4a41d3p-2", "0x1.ed6356d32ea04p-2"),
                  ("0x1.07f515f6f630cp-42", "0x1.5b4d2633b9d31p-52"), 435, True),
        "budget": (QuadratureSpec(max_subdivisions=3), ("0x1.e77fdba4a41d5p-2", "0x1.ed6356d32e9fcp-2"),
                   ("0x1.b7397c6593620p-19", "0x1.5cb92ad2b992cp-35"), 225, False),
    }

    @staticmethod
    def _hex(result):
        hexes = tuple(v.hex() for v in result.value), tuple(e.hex() for e in result.error_estimate)
        return hexes + (result.evaluations, result.converged)

    @pytest.mark.parametrize("system, n", sorted(MOMENT_PASSES))
    def test_moment_pass(self, system, n):
        # the level's one pass through the runner that quantum_moments_quadrature calls
        level = eigen_level(_MODELS[system], n)
        (f, a, b), _ = _MODELS[system].variant.moment_pass(level)
        result = _integrate(f"{system} pinned", level, f, a, b, DEFAULT_SPEC)
        assert self._hex(result) == self.MOMENT_PASSES[system, n] + (True,)

    def test_mixed_generation_pass(self):
        # a generation that takes some halves from the tree and evaluates others
        level = eigen_level(_MODELS["bouncer"], 11)
        (f, a, _), _ = _MODELS["bouncer"].variant.moment_pass(level)
        result = integrate_finite(f, a, a + 40.0, QuadratureSpec(max_subdivisions=66))
        assert self._hex(result) == self.MIXED_GENERATION

    @pytest.mark.parametrize("name", sorted(OSCILLATORY))
    def test_oscillatory_pass(self, name):
        spec, *pinned = self.OSCILLATORY[name]
        assert self._hex(integrate_finite(_oscillatory, 0.0, 3.0, spec)) == tuple(pinned)
