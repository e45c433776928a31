import math
import random
import re
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ucr import specfun
from ucr.specfun import ConvergenceError, airy, airy_ai, airy_zero, hermite, hermite_prime


# The Taylor branch's seams: the switches between its anchors at the odd
# quarters -19.75..8.75 and its edges -20 and 9.
SEAMS = [(half + 0.5) / 2.0 for half in specfun._HALVES[:-1]] + [specfun._NEGATIVE_CUT, specfun._POSITIVE_CUT]


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

    @pytest.mark.parametrize("function", [hermite, hermite_prime])
    @pytest.mark.parametrize("degree", [2.5, 2.0, "3", None])
    def test_non_integer_degree_rejected(self, function, degree):
        with pytest.raises(ValueError, match=re.escape(f"Hermite degree must be an integer >= 0, got {degree!r}")):
            function(degree, 0.5)

    @pytest.mark.parametrize("function", [hermite, hermite_prime])
    def test_numpy_integer_degree_accepted(self, function):
        assert function(np.int64(4), 2.0) == function(4, 2.0)

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
        # the Taylor-stepped mid-range (-20, 9) keeps the tag "power-series"
        assert airy_ai(0.5).branch == "power-series"
        assert airy_ai(6.0).branch == "power-series"
        assert airy_ai(-10.5).branch == "power-series"
        assert airy_ai(-15.0).branch == "power-series"
        assert airy_ai(20.0).branch == "positive-z-asymptotic"
        assert airy_ai(-20.5).branch == "negative-z-asymptotic"
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
        zs = [rng.uniform(-60.0, 30.0) for _ in range(500)] + [rng.uniform(-12.5, 9.5) for _ in range(300)]
        # the mid-range's seams, each with its float neighbours
        zs += [z for k in SEAMS for z in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))]
        # far enough out that the powers of zeta in the negative-z expansion
        # overflow a double, up to the lower limit -1e12
        zs += [-4000.0, -5000.0, -1e4, -1e6, -1e10, -1e12]
        # next to zeros of Ai' far out, where Ai''s error (one ulp of its envelope
        # |z|^(1/4)/sqrt(pi) ~ 135 at the first, the phase's rounding at the second,
        # envelope ~ 552) is 3.7 and 3.5 times a fixed absolute floor of 1e-14
        zs += [-3309562946.369938, -917141918133.2004]
        for z in zs:
            ref_ai = float(mp.airyai(mp.mpf(z)))
            ref_aip = float(mp.airyai(mp.mpf(z), derivative=1))
            v = airy_ai(z)
            assert abs(v.ai - ref_ai) <= max(1e-12 * abs(ref_ai), 1e-14)
            # Ai''s absolute floor scales with its envelope on the negative axis where that exceeds 1
            envelope = abs(z) ** 0.25 / math.sqrt(math.pi) if z < 0.0 else 0.0
            assert abs(v.ai_prime - ref_aip) <= max(1e-12 * abs(ref_aip), 1e-14 * max(1.0, envelope)), z

    def test_mid_range_accuracy(self):
        # Ai and Ai' from DLMF 9.4.1-2 in 0F1 form, summed by mpmath at 40
        # digits: at z = 9 the series cancel about 16 digits and at z = -12
        # about 13, which leaves the reference over 20 correct digits
        rng = random.Random(20261018)
        zs = [rng.uniform(-12.0, 9.0) for _ in range(20_000)]
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

    def test_seeded_taylor_range_accuracy(self):
        # (-20, -12]: Taylor steps from the anchors that the negative
        # expansion seeds, against mpmath at 40 digits, over the envelopes
        # |z|^(-1/4)/sqrt(pi) of Ai and |z|^(1/4)/sqrt(pi) of Ai'
        rng = random.Random(20261022)
        zs = [rng.uniform(specfun._NEGATIVE_CUT, specfun._SEEDED_BELOW) for _ in range(300)] + [specfun._SEEDED_BELOW]
        ai, aip = _cold(airy, np.array(zs))
        worst_ai = worst_aip = 0.0
        with mp.workdps(40):
            for z, a, ap in zip(zs, ai.tolist(), aip.tolist()):
                quarter = abs(z) ** 0.25 / math.sqrt(math.pi)
                worst_ai = max(worst_ai, float(abs(a - mp.airyai(z))) / quarter)
                worst_aip = max(worst_aip, float(abs(ap - mp.airyai(z, derivative=1))) * quarter)
        assert worst_ai <= 1e-15 and worst_aip <= 1e-15

    @pytest.mark.parametrize("z", [math.nextafter(-1e12, -math.inf), -1e13, -1e16])
    def test_below_negative_limit_rejected(self, z):
        # the phase (2/3)|z|^(3/2) is too coarse there for the accuracy contract
        with pytest.raises(ValueError, match="-1e\\+12"):
            airy_ai(z)

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


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _cold(fn, z):
    # every element computed by the kernel, none served by the memo
    airy_ai.cache_clear()
    return fn(z)


class TestAiryArray:
    @staticmethod
    def _mixed_batch() -> np.ndarray:
        # every branch, both sides of each seam and the far negative axis up to
        # its limit
        rng = random.Random(20261019)
        zs = [rng.uniform(-40.0, 30.0) for _ in range(450)]
        zs += [-(10.0 ** rng.uniform(1.0, 12.0)) for _ in range(100)]
        zs += [z for k in SEAMS for z in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))]
        zs += [-1e12, 30.0, 9.0 + 1e-9, specfun._NEGATIVE_CUT - 1e-9]
        rng.shuffle(zs)
        return np.array(zs)

    def test_each_element_equals_its_one_element_call(self):
        # a value depends on its z alone, never on the rest of its batch
        self._assert_each_element_is_its_own(self._mixed_batch())

    @staticmethod
    def _assert_each_element_is_its_own(z):
        ai, aip = _cold(airy, z)
        for i in range(len(z)):
            one_ai, one_aip = _cold(airy, z[i:i + 1])
            scalar = _cold(airy_ai, z[i])
            assert _bits([ai[i], aip[i]]) == _bits([one_ai[0], one_aip[0]]) == _bits([scalar.ai, scalar.ai_prime])

    @pytest.mark.parametrize("size", [1, 99, 100, 512, 513, 1500, specfun._CHUNK + 1])
    @pytest.mark.parametrize("near, far", [(specfun._NEGATIVE_CUT, -1e12), (9.0, 10.0 * specfun._POSITIVE_CAP)])
    def test_asymptotic_batches_on_both_sides_of_the_row_switch(self, near, far, size):
        # the series sums go along the rows of each pass of at most _CHUNK
        # elements, and a value is its z's alone.
        # Log-uniform |z| mixes term counts from 12 (z = -20) or 37 (z = 9)
        # down to 2.
        rng = np.random.default_rng(size)
        z = math.copysign(1.0, near) * 10.0 ** rng.uniform(math.log10(abs(near)), math.log10(abs(far)), size)
        z[[0, -1]] = far, near
        assert len({int(c) for c in specfun._term_count(2.0 / 3.0 * np.abs(z) ** 1.5)}) > (size > 1)
        self._assert_each_element_is_its_own(z)

    @pytest.mark.parametrize("size", [3, 100])
    def test_each_series_sum_is_read_at_its_own_count(self, size):
        # zeta = 18 (37 terms) next to zeta ~ 1e6 (3 terms) and to the most
        # terms of all, 40 at zeta ~ 19.3: past its own count a series at
        # zeta = 18 grows, so a sum read at another element's count shows.
        # `airy` reaches them on the positive axis only (the negative branch
        # starts at -20, with 12 terms), so the negative kernel takes them
        # directly, against its Python-float path.
        z = np.resize([9.0, 13104.0, (1.5 * 19.3) ** (2.0 / 3.0)], size)
        zeta = np.array([specfun._zeta_double_double(v)[0] for v in z[:3]])
        assert specfun._term_count(zeta).tolist() == [37, 3, 40]
        self._assert_each_element_is_its_own(z)
        self._assert_each_element_is_its_own(np.resize([specfun._NEGATIVE_CUT, -13104.0], size))
        ai, aip = specfun._negative(-z)
        for i, v in enumerate((-z).tolist()):
            assert _bits([ai[i], aip[i]]) == _bits(specfun._negative(v))

    def test_memo_returns_the_computed_bits(self):
        z = self._mixed_batch()
        cold = _cold(airy, z)
        _cold(airy, z[::3])  # z[::3] is remembered, z itself misses
        mixed = airy(z)
        warm = airy(z)
        for got in (mixed, warm):
            assert _bits(got[0]) == _bits(cold[0]) and _bits(got[1]) == _bits(cold[1])

    def test_returned_arrays_are_read_only(self):
        z = self._mixed_batch()
        ai, aip = _cold(airy, z)
        bits = _bits(ai), _bits(aip)
        for row in (ai, aip):
            with pytest.raises(ValueError):
                row[0] = 1.0
            with pytest.raises(ValueError):
                row *= 2.0
        hit = airy(z)
        assert airy_ai.cache_info().hits == len(z)
        assert (_bits(hit[0]), _bits(hit[1])) == bits

    @pytest.mark.parametrize("bad", [0.5, [[0.5, 1.0], [1.5, 2.0]], np.zeros((4, 1)), np.zeros((0, 0))])
    def test_non_1d_argument_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"1-D array, got shape {np.shape(bad)}")):
            airy(bad)
        scalar = airy_ai(0.5)  # the scalar form still takes a float
        assert _bits([scalar.ai, scalar.ai_prime]) == _bits(np.concatenate(airy(np.array([0.5]))))

    def test_empty_batch(self):
        ai, aip = airy(np.empty(0))
        assert ai.shape == aip.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, math.nextafter(-1e12, -math.inf), -1e13])
    @pytest.mark.parametrize("size", [4, 1500])
    def test_bad_element_raises_as_airy_ai_does(self, bad, size):
        with pytest.raises(ValueError) as scalar:
            airy_ai(bad)
        z = np.linspace(-20.0, 20.0, size)
        z[size // 2] = bad
        with pytest.raises(ValueError) as batch:
            airy(z)
        assert str(batch.value) == str(scalar.value)

    def test_cache_counts_batch_elements(self):
        airy_ai.cache_clear()
        airy(np.linspace(-12.0, 12.0, 10))
        info = airy_ai.cache_info()
        assert info.currsize >= 10 and info.misses == 10 and info.maxsize == 20_000
        airy(np.linspace(-12.0, 12.0, 10))
        assert airy_ai.cache_info().hits == 10
        airy_ai.cache_clear()
        assert airy_ai.cache_info().currsize == 0

    def test_least_recent_batches_go_first(self):
        first, second, third = (np.linspace(k, k + 1.0, 8_000) for k in (-3.0, 0.0, 3.0))
        airy_ai.cache_clear()
        airy(first)
        airy(second)
        airy(first)  # now second is the least recent
        airy(third)  # 24,000 elements: second goes
        info = airy_ai.cache_info()
        assert info.currsize == 2 * (8_000 + specfun._ENTRY_COST) and (info.hits, info.misses) == (8_000, 24_000)
        airy(first)
        airy(third)
        assert airy_ai.cache_info().misses == 24_000
        airy(second)
        assert airy_ai.cache_info().misses == 32_000
        assert airy_ai.cache_info().currsize <= 20_000

    def test_memo_holds_under_threads(self):
        # four threads share the memo through 24,000 elements of batches, so
        # entries are evicted throughout; no call may fail, return other bits
        # or lose a count
        batches = [np.linspace(k, k + 0.1, 200) for k in np.arange(-6.0, 6.0, 0.1)]
        want = [_cold(airy, z)[0].view(np.uint64) for z in batches]
        airy_ai.cache_clear()
        wrong = []

        def work(offset: int) -> None:
            try:
                for i in range(100):
                    j = (7 * i + 31 * offset) % len(batches)
                    if not np.array_equal(airy(batches[j])[0].view(np.uint64), want[j]):
                        wrong.append(j)
            except Exception as exc:  # reported by the assertion below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []
        info = airy_ai.cache_info()
        assert info.hits + info.misses == 4 * 100 * 200
        assert info.currsize == sum(len(ai) + specfun._ENTRY_COST for ai, _ in specfun._MEMO.values()) <= 20_000

    def test_batch_over_the_bound_is_returned_not_kept(self):
        kept = np.linspace(-2.0, 2.0, 100)
        airy_ai.cache_clear()
        airy(kept)
        big = np.linspace(-5.0, 5.0, 20_001)
        ai, aip = airy(big)
        assert ai.shape == aip.shape == (20_001,)
        assert _bits(ai[::2000]) == _bits(airy(big[::2000])[0])
        info = airy_ai.cache_info()
        assert info.currsize == 100 + len(big[::2000]) + 2 * specfun._ENTRY_COST
        assert info.misses == 20_001 + 100 + len(big[::2000])
        airy(kept)
        assert airy_ai.cache_info().hits == 100

    def test_each_batch_is_charged_its_overhead(self):
        # a one-element batch weighs about as much as 18 elements more (its key, two
        # views, its base array and its list node), so one-element calls fill the memo at 19 each
        airy_ai.cache_clear()
        for z in np.linspace(-1.0, 1.0, 2_000):
            airy(np.array([z]))
        held = 20_000 // (1 + specfun._ENTRY_COST)
        assert len(specfun._MEMO) == held and airy_ai.cache_info().currsize == held * (1 + specfun._ENTRY_COST)
        airy(np.array([1.0]))  # the last batch is still held; the first has gone
        airy(np.array([-1.0]))
        assert airy_ai.cache_info().hits == 1


class TestAirySeams:
    # Ai and Ai' against mpmath at 40 digits on both sides of each seam of the
    # kernel: z = -20 and 9, where the expansions meet the Taylor steps, and
    # the switches between those steps' anchors at the odd quarters; each
    # case takes the integer k and k -+ 1/4.  Errors are over the envelopes
    # |z|^(-1/4)/sqrt(pi) of Ai and |z|^(1/4)/sqrt(pi) of Ai', with |z|
    # floored at 1 so the envelope of Ai stays finite at the origin.
    BOUND = 2e-15

    @staticmethod
    def points(seam: int) -> list[float]:
        return [z for k in (seam - 0.25, float(seam), seam + 0.25)
                for z in (k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf), k - 1e-9, k + 1e-9)]

    @staticmethod
    def worst_over_envelope(zs: list[float]) -> tuple[float, float]:
        ai, aip = _cold(airy, np.array(zs))
        worst_ai = worst_aip = 0.0
        with mp.workdps(40):
            for z, a, ap in zip(zs, ai.tolist(), aip.tolist()):
                quarter = max(abs(z), 1.0) ** 0.25
                worst_ai = max(worst_ai, float(abs(a - mp.airyai(z))) * quarter * math.sqrt(math.pi))
                worst_aip = max(worst_aip, float(abs(ap - mp.airyai(z, derivative=1))) / quarter * math.sqrt(math.pi))
        return worst_ai, worst_aip

    @pytest.mark.parametrize("seam", sorted({half // 2 for half in specfun._HALVES}))
    def test_error_over_envelope(self, seam):
        worst_ai, worst_aip = self.worst_over_envelope(self.points(seam))
        assert worst_ai <= self.BOUND and worst_aip <= self.BOUND


class TestTaylorTable:
    def test_anchor_values_match_mpmath(self):
        # Each anchor's (c_0, c_1) is (Ai, Ai') at it: from -12 up stepped
        # down from the positive expansion at 9, below -12 the negative
        # expansion's.  Within 6e-16 of mpmath at 40 digits, over the
        # envelope at z0 <= 0 (|z| floored at 1) and relative at z0 > 0.
        with mp.workdps(40):
            for half, columns in zip(specfun._HALVES, specfun._anchor_columns()):
                z0 = 0.5 * half
                quarter = max(abs(z0), 1.0) ** 0.25 / math.sqrt(math.pi)
                for d, (got, scale) in enumerate(zip(columns[0], (1.0 / quarter, quarter))):
                    ref = mp.airyai(z0, derivative=d)
                    assert float(abs(got - ref) / (abs(ref) if z0 > 0.0 else scale)) <= 6e-16, (z0, d)

    def test_first_dropped_term_lies_below_the_floor_at_every_anchor(self):
        # The term count rests on the table, not on sampling.  At |h| = 1/4
        # each anchor's first dropped terms, c_21 h^21 of Ai and 22 c_22 h^21
        # of Ai', lie below 2^-60 of the envelope on its step, and with one
        # term fewer the anchor -20's do not.  The envelope is |z|^(-1/4)/sqrt(pi)
        # of Ai and |z|^(1/4)/sqrt(pi) of Ai' at z0 <= 0, with |z| floored at 1,
        # and Ai's and Ai''s own size at z0 + 1/4, the smallest on the step, at z0 > 0.
        terms = specfun._TAYLOR_TERMS
        worst = {}
        for half, columns in zip(specfun._HALVES, specfun._anchor_columns()):
            z0 = 0.5 * half
            c = specfun._taylor_coefficients(z0, *columns[0])
            assert columns == [(c[k], (k + 1) * c[k + 1]) for k in range(terms)]
            if z0 > 0.0:
                envelope = (abs(float(mp.airyai(z0 + 0.25, derivative=d))) for d in (0, 1))
            else:
                quarter = max(abs(z0), 1.0) ** 0.25
                envelope = (1.0 / (quarter * math.sqrt(math.pi)), quarter / math.sqrt(math.pi))
            env_ai, env_aip = envelope
            for n in (terms - 1, terms):
                dropped = max(abs(c[n]) / env_ai, (n + 1) * abs(c[n + 1]) / env_aip) * 0.25 ** n
                worst[n] = max(worst.get(n, 0.0), dropped / 2.0 ** -60)
            assert worst[terms] < 1.0, z0
        assert worst[terms - 1] > 1.0


class TestAiryZero:
    # -a_n to 4 decimals, DLMF Table 9.9.1; the table of acceptance criterion 06
    ROUNDED_SCALED_ENERGIES = {1: 2.3381, 2: 4.0879, 3: 5.5206, 4: 6.7867, 5: 7.9441}

    def test_first_zeros_match_reference(self):
        # extended-precision references (scipy's ai_zeros drifts to ~1e-11)
        mp.mp.dps = 30
        for n in range(1, 11):
            assert airy_zero(n) == pytest.approx(float(mp.airyaizero(n)), abs=5e-15)

    def test_rounded_reference_values(self):
        for n, rounded in self.ROUNDED_SCALED_ENERGIES.items():
            assert -airy_zero(n) == pytest.approx(rounded, abs=5e-5)

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
        assert abs(airy_zero(n) - reference) <= 2.0 * math.ulp(reference)

    def test_residual_small(self):
        for n in range(1, 51):
            assert abs(airy_ai(airy_zero(n)).ai) < 1e-12

    def test_strictly_decreasing_values(self):
        values = [airy_zero(n) for n in range(1, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_sign_change_across_each_zero(self):
        for n in range(1, 20):
            a = airy_zero(n)
            lo = airy_ai(a - 1e-10).ai
            hi = airy_ai(a + 1e-10).ai
            assert lo * hi < 0.0

    def test_no_spurious_zeros_between_consecutive(self):
        for n in range(1, 15):
            a_n = airy_zero(n)
            a_next = airy_zero(n + 1)
            eps = 1e-6
            samples = [a_next + eps + (a_n - eps - (a_next + eps)) * i / 200 for i in range(201)]
            signs = {math.copysign(1.0, airy_ai(z).ai) for z in samples}
            assert len(signs) == 1

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            airy_zero(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), "3"])
    def test_non_integer_index_rejected(self, n):
        airy_zero(3)
        airy_zero(np.int64(3))  # equal integers already memoized must not answer for n
        with pytest.raises(ValueError, match=re.escape(f"Airy-zero index must be an integer >= 1, got {n!r}")):
            airy_zero(n)

    def test_numpy_integer_index_accepted(self):
        zero = airy_zero(np.int64(3))
        assert zero == airy_zero(3) and type(zero) is float and type(airy_zero(3)) is float

    def test_seed_leaves_at_most_two_newton_steps(self):
        # from three terms of the asymptotic form, the second Airy evaluation of a cold zero ends
        # its iteration (the one-term seed took three); counted as memo misses, both caches cleared
        for n in range(2, 100):
            airy_ai.cache_clear()
            airy_zero.cache_clear()
            airy_zero(n)
            assert airy_ai.cache_info().misses <= 2, n

    def test_index_far_past_the_airy_limit_is_refused_as_a_value(self):
        # neither the seed's t^-4 term (from n ~ 2.5e76 a float's t ** 4 would overflow)
        # nor the index's own conversion to float (past 1.8e308) may raise an
        # OverflowError where the Airy limit refuses the index
        for n in (10 ** 18 + 1, 10 ** 100, 10 ** 309):
            with pytest.raises(ValueError, match="below the limit -1e\\+12"):
                airy_zero(n)

    def test_convergence_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_convergence_error_message_carries_the_last_iterate(self, monkeypatch):
        # with no Newton step allowed, the last iterate is the asymptotic seed
        monkeypatch.setattr(specfun, "_NEWTON_MAX_ITER", 0)
        airy_zero.cache_clear()
        seed = specfun.asymptotic_zero(3)
        assert seed == -5.520558836789148
        expected = f"Airy zero 3 did not converge in 0 iterations; last iterate {seed!r}"
        with pytest.raises(ConvergenceError, match=re.escape(expected)):
            airy_zero(3)
