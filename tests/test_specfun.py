import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ucr.specfun import ConvergenceError, airy_ai, airy_zero, hermite, hermite_prime


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_degree_one(self):
        assert hermite(1, 2.0) == 4.0

    def test_degree_four(self):
        # H_4(y) = 16 y^4 - 48 y^2 + 12, evaluated by hand at y = 2
        assert hermite(4, 2.0) == pytest.approx(76.0, abs=1e-12)

    def test_prime_degree_zero(self):
        assert hermite_prime(0, 1.5) == 0.0

    def test_prime_degree_one(self):
        assert hermite_prime(1, 0.3) == 2.0

    def test_prime_degree_four(self):
        # 8 * H_3(2) = 8 * (64 - 24)
        assert hermite_prime(4, 2.0) == pytest.approx(320.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_argument_rejected(self, bad):
        with pytest.raises(ValueError):
            hermite(3, bad)
        with pytest.raises(ValueError):
            hermite_prime(3, bad)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.floats(min_value=-5.0, max_value=5.0))
    def test_recurrence_consistency(self, n, y):
        lhs = hermite(n + 1, y)
        rhs = 2.0 * y * hermite(n, y) - 2.0 * n * hermite(n - 1, y)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale


class TestAiryAi:
    def test_value_at_origin(self):
        v = airy_ai(0.0)
        assert v.ai == pytest.approx(0.3550280538878172, abs=1e-15)
        assert v.ai_prime == pytest.approx(-0.2588194037928068, abs=1e-15)

    def test_near_first_zero_from_rounded_table(self):
        assert abs(airy_ai(-2.3381).ai) < 5e-5

    def test_large_positive_matches_leading_asymptotics(self):
        z = 10.0
        leading = math.exp(-2.0 / 3.0 * z ** 1.5) / (2.0 * math.sqrt(math.pi) * z ** 0.25)
        v = airy_ai(z)
        assert v.ai == pytest.approx(1.1048e-10, rel=1e-3)
        assert v.ai == pytest.approx(leading, rel=1e-2)

    def test_underflow_returns_zero(self):
        v = airy_ai(150.0)
        assert v.ai == 0.0
        assert v.branch == "positive-z-asymptotic"

    def test_branch_tags(self):
        # the Taylor-stepped mid-range (-9, 9) keeps the tag "power-series"
        assert airy_ai(0.5).branch == "power-series"
        assert airy_ai(6.0).branch == "power-series"
        assert airy_ai(20.0).branch == "positive-z-asymptotic"
        assert airy_ai(-20.0).branch == "negative-z-asymptotic"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            airy_ai(bad)

    def test_positive_axis_monotone_below_origin_value(self):
        ai0 = airy_ai(0.0).ai
        prev = ai0
        for i in range(1, 61):
            cur = airy_ai(i * 0.5).ai
            assert 0.0 <= cur < ai0
            assert cur < prev
            prev = cur

    def test_accuracy_against_reference(self):
        # mpmath in extended precision; scipy's amos drifts to ~5e-14
        # relative at large negative z, which is coarser than the target here
        mp.mp.dps = 30
        rng = random.Random(20260823)
        zs = [rng.uniform(-60.0, 30.0) for _ in range(500)] + [rng.uniform(-9.5, 9.5) for _ in range(300)]
        # the mid-range's integer anchors -8..9 and its lower edge -9 (9 is
        # also the upper edge), each with its float neighbours
        seams = [float(k) for k in range(-9, 10)]
        zs += [z for k in seams for z in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))]
        # far enough out that the powers of zeta in the negative-z expansion
        # overflow a double
        zs += [-4000.0, -5000.0, -1e4, -1e6]
        for z in zs:
            ref_ai = float(mp.airyai(mp.mpf(z)))
            ref_aip = float(mp.airyai(mp.mpf(z), derivative=1))
            v = airy_ai(z)
            assert abs(v.ai - ref_ai) <= max(1e-12 * abs(ref_ai), 1e-14)
            assert abs(v.ai_prime - ref_aip) <= max(1e-12 * abs(ref_aip), 1e-14)

    def test_mid_range_accuracy(self):
        # Ai and Ai' from DLMF 9.4.1-2 in 0F1 form, summed by mpmath at 40
        # digits: at z = 9 the series cancel about 16 digits, which leaves
        # the reference over 20 correct digits
        rng = random.Random(20261018)
        zs = [rng.uniform(-9.0, 9.0) for _ in range(20_000)]
        with mp.workdps(40):
            ai0 = 1 / (mp.cbrt(9) * mp.gamma(mp.mpf(2) / 3))
            aip0 = -1 / (mp.cbrt(3) * mp.gamma(mp.mpf(1) / 3))
            b13, b23, b43, b53 = (mp.mp.mpq(k, 3) for k in (1, 2, 4, 5))
            worst_abs_ai = worst_abs_aip = worst_rel = 0.0
            for z in zs:
                x = mp.mpf(z)
                w = x ** 3 / 9
                ref_ai = float(ai0 * mp.hyp0f1(b23, w) + aip0 * x * mp.hyp0f1(b43, w))
                ref_aip = float(ai0 * x * x / 2 * mp.hyp0f1(b53, w) + aip0 * mp.hyp0f1(b13, w))
                v = airy_ai(z)
                worst_abs_ai = max(worst_abs_ai, abs(v.ai - ref_ai))
                worst_abs_aip = max(worst_abs_aip, abs(v.ai_prime - ref_aip))
                if z > 0.0:
                    worst_rel = max(worst_rel, abs(v.ai / ref_ai - 1.0), abs(v.ai_prime / ref_aip - 1.0))
        assert worst_abs_ai <= 1e-15
        assert worst_abs_aip <= 3e-15
        assert worst_rel <= 2e-15

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_or_value_error(self, z):
        try:
            v = airy_ai(z)
        except ValueError:
            return
        assert math.isfinite(v.ai) and math.isfinite(v.ai_prime)

    def test_ode_residual_central_difference(self):
        # |Ai'' - z Ai| with Ai'' reconstructed by the 3-point stencil; the
        # tolerance carries the stencil's truncation (h^2 Ai''''/12) and the
        # roundoff floor set by the per-value accuracy contract,
        # max(1e-12 |Ai|, 1e-14), which the 1/h^2 division amplifies.
        h = 1e-4
        rng = random.Random(7)
        for _ in range(200):
            z = rng.uniform(-15.0, 10.0)
            vm, v0, vp = airy_ai(z - h), airy_ai(z), airy_ai(z + h)
            second = (vp.ai - 2.0 * v0.ai + vm.ai) / (h * h)
            residual = abs(second - z * v0.ai)
            # |Ai''''| = |2 Ai' + z^2 Ai| bounded through the oscillation
            # envelopes |Ai| <~ |z|^(-1/4)/sqrt(pi), |Ai'| <~ |z|^(1/4)/sqrt(pi)
            za = max(abs(z), 1.0)
            env_ai = max(abs(v0.ai), za ** -0.25)
            env_aip = max(abs(v0.ai_prime), za ** 0.25)
            fourth = 2.0 * env_aip + z * z * env_ai
            value_err = max(1e-12 * env_ai, 1e-14)
            budget = 1e-10 + h * h * fourth / 12.0 * 10.0 + 4.0 * value_err / (h * h)
            assert residual < budget

    def test_derivative_matches_central_difference(self):
        h = 1e-5
        rng = random.Random(11)
        for _ in range(200):
            z = rng.uniform(-15.0, 10.0)
            vm, v0, vp = airy_ai(z - h), airy_ai(z), airy_ai(z + h)
            diff = (vp.ai - vm.ai) / (2.0 * h)
            za = max(abs(z), 1.0)
            env_ai = max(abs(v0.ai), za ** -0.25)
            third = env_ai + abs(z) * max(abs(v0.ai_prime), za ** 0.25)  # |(z Ai)'|
            value_err = max(1e-12 * env_ai, 1e-14)
            budget = h * h * third / 6.0 * 10.0 + value_err / h
            assert abs(diff - v0.ai_prime) < budget


class TestAiryZero:
    # -a_n to 4 decimals, DLMF Table 9.9.1; the table of acceptance criterion 06
    ROUNDED_SCALED_ENERGIES = {1: 2.3381, 2: 4.0879, 3: 5.5206, 4: 6.7867, 5: 7.9441}

    def test_first_zeros_match_reference(self):
        # extended-precision references (scipy's ai_zeros drifts to ~1e-11)
        mp.mp.dps = 30
        for n in range(1, 11):
            z = airy_zero(n)
            assert z.index == n
            assert z.value == pytest.approx(float(mp.airyaizero(n)), abs=5e-15)
            assert z.scaled_energy == -z.value

    def test_rounded_reference_values(self):
        for n, rounded in self.ROUNDED_SCALED_ENERGIES.items():
            assert airy_zero(n).scaled_energy == pytest.approx(rounded, abs=5e-5)

    def test_rounded_table_matches_mpmath(self):
        # checks the hand-typed table itself: mpmath only, never ucr.specfun
        with mp.workdps(30):
            for n, typed in self.ROUNDED_SCALED_ENERGIES.items():
                rounded = round(float(-mp.airyaizero(n)), 4)
                assert typed == rounded, f"table has {typed} for n={n}; -a_{n} rounds to {rounded}"

    @pytest.mark.parametrize("n", [2460, 2465, 10000, 70000])
    def test_zeros_past_512_match_mpmath(self, n):
        # from |a_n| = 512 on, one ulp of a_n exceeds the absolute 1e-13 step
        # test of the Newton iteration; from n ~ 53,000 on (|a_n| > 3,986) the
        # powers of zeta in the negative-z expansion overflow a double
        with mp.workdps(30):
            reference = float(mp.airyaizero(n))
        assert abs(airy_zero(n).value - reference) <= 2.0 * math.ulp(reference)

    def test_residual_small(self):
        for n in range(1, 51):
            assert abs(airy_ai(airy_zero(n).value).ai) < 1e-12

    def test_strictly_decreasing_values(self):
        values = [airy_zero(n).value for n in range(1, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_sign_change_across_each_zero(self):
        for n in range(1, 20):
            a = airy_zero(n).value
            lo = airy_ai(a - 1e-10).ai
            hi = airy_ai(a + 1e-10).ai
            assert lo * hi < 0.0

    def test_no_spurious_zeros_between_consecutive(self):
        for n in range(1, 15):
            a_n = airy_zero(n).value
            a_next = airy_zero(n + 1).value
            eps = 1e-6
            samples = [a_next + eps + (a_n - eps - (a_next + eps)) * i / 200 for i in range(201)]
            signs = {math.copysign(1.0, airy_ai(z).ai) for z in samples}
            assert len(signs) == 1

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            airy_zero(0)

    def test_convergence_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)
