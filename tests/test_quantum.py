import math
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from ucr import quantum_states, specfun, systems
from ucr.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_finite, integrate_rule, integrate_semi_infinite
from ucr.quantum_states import (
    bouncer_state,
    commutator_bound,
    density_grid,
    eigen_level,
    quantum_moments_closed_form,
    quantum_moments_quadrature,
    wavefunction,
)
from ucr.specfun import airy_ai, airy_zero
from ucr.systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel, _gauss_hermite, _ho_functions

HO = PotentialModel(HarmonicOscillator(m=1.0, omega=1.0))
WELL = PotentialModel(InfiniteWell(m=1.0, L=1.0))
BALL = PotentialModel(BouncingBall(m=1.0, g=1.0))
SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def _checked_mean_p(monkeypatch) -> list:
    """The <P> values handed to the check, in call order.  The returned
    moments carry <P> = 0, so the checked value is caught on its way."""
    seen = []
    check = quantum_states._check_mean_p
    monkeypatch.setattr(quantum_states, "_check_mean_p", lambda p, spec: check(p, spec) or seen.append(p))
    return seen


class TestEigenLevel:
    def test_oscillator_ground_state(self):
        level = eigen_level(HO, 0)
        assert level.energy == pytest.approx(0.5)
        assert level.turning_point == pytest.approx(1.0)

    def test_oscillator_spacing(self):
        energies = [eigen_level(HO, n).energy for n in range(6)]
        gaps = [b - a for a, b in zip(energies, energies[1:])]
        assert all(g == pytest.approx(1.0, abs=1e-15) for g in gaps)

    def test_well_levels(self):
        assert eigen_level(WELL, 1).energy == pytest.approx(math.pi ** 2 / 2.0)
        assert eigen_level(WELL, 2).energy == pytest.approx(2.0 * math.pi ** 2)
        assert eigen_level(WELL, 2).turning_point == pytest.approx(0.5)

    def test_bouncer_levels(self):
        mp.mp.dps = 30
        level = eigen_level(BALL, 3)
        scaled_energy, grav_length = BALL.variant.airy_scales(3, BALL.hbar)
        assert grav_length == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-14)
        assert scaled_energy == pytest.approx(float(-mp.airyaizero(3)), abs=1e-13)
        assert level.energy == pytest.approx(grav_length * scaled_energy, rel=1e-14)
        assert level.turning_point == pytest.approx(level.energy, rel=1e-14)  # m = g = 1

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ValueError):
            eigen_level(HO, -1)
        with pytest.raises(ValueError):
            eigen_level(WELL, 0)
        with pytest.raises(ValueError):
            eigen_level(BALL, 0)

    @pytest.mark.parametrize("model, n", [(HO, 2.5), (WELL, 2.5), (BALL, 2.5), (WELL, 2.0), (HO, "3")])
    def test_non_integer_quantum_numbers_rejected(self, model, n):
        need = f"must be an integer >= {model.variant.n_min}, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(need)):
            eigen_level(model, n)

    def test_oscillator_levels_past_the_ceiling_are_refused(self):
        # the oscillator's rule costs ~n^2; past n_max the level is refused
        # before any of that work starts
        assert eigen_level(HO, HO.variant.n_max).n == 20_000
        with pytest.raises(ValueError, match=re.escape("oscillator quantum number must be at most 20000, got 20001")):
            eigen_level(HO, 20_001)
        with pytest.raises(ValueError, match="at most 20000"):
            eigen_level(HO, 99_999_999_999)
        # the well's pass holds its n panels at once, so its levels stop at 10^6; the bouncer has no ceiling
        assert eigen_level(WELL, 10 ** 6).n == WELL.variant.n_max == 10 ** 6
        with pytest.raises(ValueError, match=re.escape("well quantum number must be at most 1000000, got 1000001")):
            eigen_level(WELL, 10 ** 6 + 1)
        assert BALL.variant.n_max == math.inf
        assert eigen_level(BALL, 10 ** 12).n == 10 ** 12

    @pytest.mark.parametrize("model", [HO, WELL, BALL])
    def test_numpy_integer_quantum_numbers_accepted(self, model):
        assert eigen_level(model, np.int64(3)).energy == eigen_level(model, 3).energy


class TestWavefunction:
    def test_oscillator_ground_state_peak(self):
        # pi^(-1/4)
        assert wavefunction(eigen_level(HO, 0), 0.0) == pytest.approx(0.7511255444649425, abs=1e-12)

    def test_well_ground_state_peak(self):
        assert wavefunction(eigen_level(WELL, 1), 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_well_vanishes_at_and_beyond_walls(self):
        level = eigen_level(WELL, 3)
        assert abs(wavefunction(level, 0.5)) < 1e-12
        assert wavefunction(level, 0.7) == 0.0

    def test_bouncer_vanishes_at_floor(self):
        level = eigen_level(BALL, 1)
        assert abs(wavefunction(level, 0.0)) < 1e-12
        assert wavefunction(level, -0.1) == 0.0

    def test_parity(self):
        for n in (0, 1, 4, 5):
            level = eigen_level(HO, n)
            sign = (-1.0) ** n
            for x in (0.3, 1.1, 2.4):
                assert wavefunction(level, -x) == pytest.approx(sign * wavefunction(level, x), rel=1e-12)

    def test_normalization_oscillator(self):
        for n in range(0, 21):
            level = eigen_level(HO, n)
            r = integrate_semi_infinite(lambda x: wavefunction(level, x) ** 2, 0.0,
                                        QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=400))
            assert 2.0 * r.value == pytest.approx(1.0, abs=1e-9)

    def test_normalization_well(self):
        for n in list(range(1, 11)) + [25, 50]:
            level = eigen_level(WELL, n)
            r = integrate_finite(lambda x: wavefunction(level, x) ** 2, (-0.5, 0.5),
                                 QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=400))
            assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_normalization_bouncer(self):
        for n in range(1, 11):
            level = eigen_level(BALL, n)
            r = integrate_semi_infinite(lambda x: wavefunction(level, x) ** 2, 0.0,
                                        QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=400))
            assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_normalization_off_unit_parameters(self):
        model = PotentialModel(HarmonicOscillator(m=2.5, omega=0.4), hbar=1.7)
        level = eigen_level(model, 3)
        r = integrate_semi_infinite(lambda x: wavefunction(level, x) ** 2, 0.0,
                                    QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=400))
        assert 2.0 * r.value == pytest.approx(1.0, abs=1e-9)


    def test_array_equals_pointwise_floats(self):
        # one call over an array gives exactly the per-point float calls,
        # including points outside the well and below the bouncer's floor
        cases = [
            (eigen_level(HO, 3), (-2.5, -0.3, 0.0, 0.7, 3.1)),
            (eigen_level(HO, 800), (-41.0, -1.2, 0.0, 38.5, 40.2)),
            (eigen_level(WELL, 4), (-0.6, -0.5, -0.13, 0.0, 0.31, 0.5, 0.7)),
            (eigen_level(BALL, 3), (-0.2, 0.0, 1.3, 4.4, 9.0)),
        ]
        for level, points in cases:
            xs = np.array(points)
            got = wavefunction(level, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            floats = [wavefunction(level, x) for x in points]
            assert all(type(v) is float for v in floats)
            assert got.tolist() == floats

    @pytest.mark.parametrize("model", [HO, WELL, BALL], ids=["oscillator", "well", "bouncer"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_refused(self, model, bad):
        # one ValueError on every system, for a float and inside an array; the bouncer
        # returned 0.0 at -inf and the oscillator nan with RuntimeWarnings
        level = eigen_level(model, 2)
        for x in (bad, np.array([0.1, bad, 0.2])):
            with pytest.raises(ValueError, match="x must be finite"):
                wavefunction(level, x)

    @pytest.mark.parametrize("n", [0, 5, 800])
    def test_oscillator_vanishes_where_y_squared_overflows(self, n):
        # past |y| = sqrt(max float) the recurrence's y^2/2 overflowed with a RuntimeWarning;
        # psi is 0 there, and the points inside keep their bits
        model = PotentialModel(HarmonicOscillator(m=2.0, omega=3.0), hbar=0.5)
        level = eigen_level(model, n)
        far = [1.4e154 / 12.0 ** 0.5, -1e200, 1.7e308, -sys.float_info.max]  # y = x sqrt(12)
        for x in far:
            assert wavefunction(level, x) == 0.0
        inside = [-3.0, 0.25, 1.5]
        got = wavefunction(level, np.array(far + inside))
        assert got[:4].tolist() == [0.0] * 4
        assert got[4:].tolist() == [wavefunction(level, x) for x in inside]


class TestHermiteFunctions:
    def test_recurrence_against_mpmath_at_n600(self):
        # both starts occur: e^(-y^2/2) is normal up to y = 37 and subnormal
        # or zero from y = 38 on, where the recurrence carries a shift
        mp.mp.dps = 50
        n = 600
        ys = np.array([0.0, 10.0, 37.0, 38.0, 39.0, 45.0])
        got = _ho_functions(n, ys)
        for row, k in zip(got, (n - 2, n - 1, n)):
            for value, y in zip(row.tolist(), ys.tolist()):
                y_mp = mp.mpf(y)
                want = mp.hermite(k, y_mp) * mp.exp(-y_mp ** 2 / 2) / mp.sqrt(
                    mp.mpf(2) ** k * mp.factorial(k) * mp.sqrt(mp.pi)
                )
                if want == 0:  # odd k at y = 0, by parity
                    assert value == 0.0
                else:
                    assert abs(value - want) <= 1e-13 * abs(want), (k, y)

    @pytest.mark.parametrize("count", [702, 2002])
    def test_rescale_schedule_moves_no_bit(self, monkeypatch, count):
        # the 2^600 rescale is tested only every few steps; a test after every
        # step (no headroom) must give the same bits on the rule's outer nodes
        y = _gauss_hermite(count)[0][count // 2:]
        sparse = _ho_functions(count, y)
        monkeypatch.setattr(systems, "_HEADROOM", 0.0)
        dense = _ho_functions(count, y)
        assert [row.tobytes() for row in sparse] == [row.tobytes() for row in dense]


class TestGaussHermite:
    """The oscillator's rule, checked without the recurrence it is built from."""

    @pytest.mark.parametrize("count", [2, 3, 42, 202, 902])
    def test_even_moments_of_the_gaussian(self, count):
        # sum_i W_i y_i^(2j) e^(-y_i^2) = Gamma(j + 1/2) for every j < N, each
        # term from np.exp and math.lgamma alone.  The bound is the rounding of
        # the exponent, whose parts reach N ln(2N + 1).
        y, w = _gauss_hermite(count)
        j = np.arange(count)[:, None]
        lgamma = np.array([math.lgamma(k + 0.5) for k in range(count)])[:, None]
        inner = y != 0.0
        sums = (w[inner] * np.exp(2 * j * np.log(np.abs(y[inner])) - y[inner] ** 2 - lgamma)).sum(axis=1)
        sums[0] += w[~inner].sum() * math.exp(-math.lgamma(0.5))  # the node y = 0 of an odd N counts only at j = 0
        assert np.abs(sums - 1.0).max() <= 4.0 * sys.float_info.epsilon * count * math.log(2 * count + 1)

    def test_agrees_with_numpy_hermgauss(self):
        # numpy's Golub-Welsch rule, a reference only: from N = 502 on its weights are nan
        from numpy.polynomial.hermite import hermgauss

        for count in range(2, 151):
            y, w = _gauss_hermite(count)
            x, lam = hermgauss(count)
            assert np.abs(y - x).max() <= 1e-14, count
            assert np.abs(lam * np.exp(x * x) / w - 1.0).max() <= 2e-13, count

    @pytest.mark.parametrize("count", [2, 3, 42, 203, 1002])
    def test_symmetric_nodes_in_three_newton_steps(self, monkeypatch, count):
        # nodes ascending, mirrored bit for bit, with an exact 0 for odd N; the
        # seeds are close enough that three evaluations of phi_N settle them
        calls = []
        functions = systems._ho_functions
        monkeypatch.setattr(systems, "_ho_functions", lambda *args: calls.append(1) or functions(*args))
        y, w = _gauss_hermite(count)
        assert len(calls) == 3
        assert y.shape == w.shape == (count,)
        assert (np.diff(y) > 0).all() and (y == -y[::-1]).all() and (w == w[::-1]).all() and (w > 0).all()
        assert (y == 0.0).sum() == count % 2


class TestBouncerState:
    def test_normalization_identity(self):
        # N_n * |Ai'(-E'_n)| = 1
        for n in range(1, 11):
            level = eigen_level(BALL, n)
            state = bouncer_state(level, SPEC)
            identity = state.normalization * abs(airy_ai(airy_zero(n).value).ai_prime)
            assert identity == pytest.approx(1.0, abs=1e-8)

    def test_rejects_non_bouncer_level(self):
        with pytest.raises(ValueError):
            bouncer_state(eigen_level(HO, 0))


class TestBouncerEnd:
    """The bouncer's pass ends at z = 9: the tail it drops lies below rounding,
    and no abscissa reaches the positive asymptotic branch."""

    @pytest.mark.parametrize("n", [*range(1, 37), 200, 1000, 3000])
    def test_dropped_tail_below_rounding(self, n):
        # Ai(z) <= e^(-zeta)/(2 sqrt(pi) z^(1/4)), zeta = (2/3) z^(3/2), for z > 0
        # (DLMF 9.7(iv)) bounds the tail of (z + E')^k Ai^2 past the end, against
        # the closed forms Ai'(a_n)^2 times 1, (2/3)E' and (8/15)E'^2, all in mpmath
        with mp.workdps(20):
            a_n = mp.airyaizero(n)
            norm = mp.airyai(a_n, derivative=1) ** 2
            for k, value in enumerate((norm, mp.mpf(2) / 3 * -a_n * norm, mp.mpf(8) / 15 * a_n ** 2 * norm)):
                bound = mp.quad(lambda z: (z - a_n) ** k * mp.exp(-mp.mpf(4) / 3 * z ** 1.5) / (4 * mp.pi * mp.sqrt(z)),
                                [systems._Z_END, 2 * systems._Z_END, mp.inf])
                assert bound < sys.float_info.epsilon * value, (n, k)

    def test_no_abscissa_reaches_the_positive_branch(self, monkeypatch):
        # every kernel batch of the pass lies below the seam, and the pass makes no one-element call
        levels = [eigen_level(BALL, n) for n in range(1, 37)]  # a_n's Newton steps make one-element calls
        batches = []
        airy = specfun.airy
        monkeypatch.setattr(specfun, "airy", lambda z: batches.append(z) or airy(z))
        for level in levels:
            quantum_moments_quadrature(level)
        assert batches and all(len(z) > 1 and z.max() < specfun._ASYMP_CUT for z in batches)


class TestFailingPass:
    # no pass meets these tolerances within its budget
    HOPELESS = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)

    def test_bouncer_normalization_names_itself(self):
        with pytest.raises(RuntimeError, match="^bouncer normalization integral failed to converge: IntegralResult"):
            bouncer_state(eigen_level(BALL, 3), self.HOPELESS)

    def test_oscillator_rule_names_itself(self):
        # the exact rule's rounding floor lies far above these tolerances
        with pytest.raises(RuntimeError, match="^oscillator moment quadrature failed to converge: IntegralResult"):
            quantum_moments_quadrature(eigen_level(HO, 3), QuadratureSpec(abs_tol=1e-300, rel_tol=1e-298))

    def test_pass_below_its_floor_names_the_component(self, monkeypatch):
        # at n = 200 the <P> integrand Ai Ai' has a rounding floor 50 eps int |Ai Ai'| of
        # 1.09e-13 over its 406 starting panels, above SPEC's 1e-13 for its zero value: the
        # pass stops on them and the error names that component, where it used to meet SPEC
        calls = []
        monkeypatch.setattr(quantum_states, "integrate_finite",
                            lambda *args: calls.append(args) or integrate_finite(*args))
        with pytest.raises(RuntimeError, match=r"^bouncer moment quadrature failed to converge: IntegralResult\(.*"
                                               r"evaluations=6090, converged=False\); component 3's rounding floor "
                                               r"1\.09e-13 exceeds its tolerance 1e-13$"):
            quantum_moments_quadrature(eigen_level(BALL, 200), SPEC)
        assert len(calls) == 1

    @pytest.mark.parametrize("system, n", [("well", 1000), ("bouncer", 200)])
    def test_runner_hands_the_pass_the_callers_spec(self, monkeypatch, system, n):
        # no budget grown with n: the K15 rule gets the very spec the caller gave
        seen, spec = [], QuadratureSpec(max_subdivisions=3)
        monkeypatch.setattr(quantum_states, "integrate_finite",
                            lambda f, points, spec: seen.append(spec) or integrate_finite(f, points, spec))
        level = eigen_level({"well": WELL, "bouncer": BALL}[system], n)
        quantum_moments_quadrature(level, spec)
        if system == "bouncer":
            bouncer_state(level, spec)
        assert seen and all(given is spec for given in seen)

    def test_well_stops_at_its_first_failing_pass(self, monkeypatch):
        # the runner looks each rule up by its module-level name, so a
        # patched name sees every call; the well's one pass is one call
        calls = []
        monkeypatch.setattr(quantum_states, "integrate_finite",
                            lambda *args: calls.append(args) or integrate_finite(*args))
        with pytest.raises(RuntimeError, match="^well moment quadrature failed to converge: IntegralResult"):
            quantum_moments_quadrature(eigen_level(WELL, 2), self.HOPELESS)
        assert len(calls) == 1


class TestMoments:
    def test_oscillator_every_level_matches_classical_values(self, monkeypatch):
        mean_p = _checked_mean_p(monkeypatch)
        levels = (0, 1, 2, 5, 10, 20)
        for n in levels:
            got = quantum_moments_quadrature(eigen_level(HO, n), SPEC)
            assert abs(got.mean_x) < 1e-9
            assert abs(got.mean_x2 - 0.5) < 1e-9
            assert abs(got.mean_p2 - 0.5) < 1e-9
            assert abs(got.product - 0.25) < 1e-9
        assert len(mean_p) == len(levels) and max(map(abs, mean_p)) < 1e-9

    def test_oscillator_high_levels(self):
        # H_n overflows doubles from n ~ 200 on; the normalized Hermite-function
        # recurrence must carry the moments through.  From n ~ 700 on the
        # outer nodes lie past y ~ 37.7, where the recurrence's start
        # e^(-y^2/2) underflows.
        for n in (200, 250, 700, 750, 900, 2000):
            got = quantum_moments_quadrature(eigen_level(HO, n), SPEC)
            assert abs(got.mean_x2 - 0.5) < 1e-13
            assert abs(got.mean_p2 - 0.5) < 1e-13
            assert abs(got.product - 0.25) < 1e-13

    @pytest.mark.parametrize("system, n", [("ho", 0), ("ho", 31), ("well", 1), ("well", 100), ("bouncer", 1), ("bouncer", 14)])
    def test_one_pass_per_level(self, system, n):
        # the oscillator on the Gauss-Hermite rule of n + 2 nodes over the whole
        # line, the well on its positive half from its n panels between u = k/n,
        # the bouncer from its floor at z = -E'_n past the asymptotic zeros a_k,
        # k = n - 1 .. 1, each within 6e-4 of its zero, to 0, with a break point
        # midway between each pair of neighbours, and on to z = 9; past -E'_n on a grid
        # of 2 ulp(E'), so every panel but the first has an exact centre and half-width
        model = {"ho": HO, "well": WELL, "bouncer": BALL}[system]
        (_, *rule), _ = model.variant.moment_pass(eigen_level(model, n))
        if system == "ho":
            nodes, weights = rule
            assert nodes.shape == weights.shape == (n + 2,) and nodes.min() < 0.0 < nodes.max()
            assert nodes.tolist() == _gauss_hermite(n + 2)[0].tolist()
        elif system == "bouncer":
            [points] = rule
            zeros = [airy_zero(k).value for k in range(n - 1, 0, -1)]
            past = [0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0]
            ends = points[:2 * n + 1:2]  # -E'_n, the a_k and 0
            assert len(points) == 2 * n + 7 and ends[0] == -airy_zero(n).scaled_energy
            assert points.tolist()[2 * n:] == past and np.all(np.abs(ends[1:n] - zeros) < 6e-4)
            assert np.all(np.abs(points[1:2 * n:2] - 0.5 * (ends[:-1] + ends[1:])) <= 2.0 * math.ulp(ends[0]))
            lo, hi = points[1:-1], points[2:]
            centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert (centre - half).tolist() == lo.tolist() and (centre + half).tolist() == hi.tolist()
        else:
            [points] = rule
            assert points.tolist() == [k / n for k in range(n + 1)]

    @pytest.mark.parametrize("n, calls", [(1, [15]), (2, [30]), (100, [1500]), (512, [7680]), (513, [7680, 15]),
                                          (1000, [7680, 7320])])
    def test_well_pass_converges_on_its_starting_panels(self, n, calls):
        # the pass converges on its n starting panels, 15n abscissas in
        # integrand calls of at most 512 panels
        level = eigen_level(WELL, n)
        (f, points), _ = WELL.variant.moment_pass(level)
        seen = []
        result = quantum_states._integrate("well", lambda u: seen.append(len(u)) or f(u), (points,),
                                           DEFAULT_SPEC)
        assert seen == calls and result.evaluations == sum(calls) and result.converged

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-4),
                                      QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)], ids=["default", "loose", "tight"])
    def test_well_closed_form_errors_stay_at_rounding(self, spec):
        # <P^2> = 2 norm and <X^2> = 1/3 - 2/(n pi)^2 at every spec; from its n
        # panels the pass meets both within a few ulps, below the worst the
        # pass from one panel reached at the default spec (2.3e-15 and 1.3e-15)
        for n in (*range(1, 60), 100, 178, 316, 422, 562, 750, 1000, 1778, 3000, 10_001):
            got = quantum_moments_quadrature(eigen_level(WELL, n), spec)
            assert abs(got.mean_p2 - 1.0) <= 1.2e-15, n
            assert abs(got.mean_x2 - (1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2))) <= 5e-16, n

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32])
    def test_oscillator_one_half_line_pass(self, monkeypatch, n):
        # one rule call a level, its integrand taken at every node of both
        # signs (no mirrored half), so <P> = sum W_i psi psi' checks parity
        seen, rules = _checked_mean_p(monkeypatch), []
        monkeypatch.setattr(quantum_states, "integrate_rule",
                            lambda f, y, w, spec: rules.append(y) or integrate_rule(f, y, w, spec))
        for spec in (DEFAULT_SPEC, SPEC):
            quantum_moments_quadrature(eigen_level(HO, n), spec)
        assert [len(y) for y in rules] == [n + 2, n + 2] and all((y < 0.0).sum() == (n + 2) // 2 for y in rules)
        assert len(seen) == 2 and max(map(abs, seen)) < 1e-15

    @pytest.mark.parametrize(
        "spec, shift, fires",
        [
            (DEFAULT_SPEC, 2e-12, True),
            (SPEC, 2e-12, True),
            (DEFAULT_SPEC, 5e-13, False),
            (QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6), 2e-12, False),
        ],
    )
    def test_mean_p_bound_follows_abs_tol(self, monkeypatch, spec, shift, fires):
        # |<P>| is held to max(1e-12, abs_tol): 1e-12 at the default and the
        # tighter specs, looser only where the caller asked for a looser integral
        moment_pass = HarmonicOscillator.moment_pass

        def shifted(self, level):
            one_pass, moments = moment_pass(self, level)

            def shifted_moments(values):
                mean_x, mean_x2, mean_p2, mean_p = moments(values)
                return mean_x, mean_x2, mean_p2, mean_p + shift

            return one_pass, shifted_moments

        monkeypatch.setattr(HarmonicOscillator, "moment_pass", shifted)
        level = eigen_level(HO, 3)
        if fires:
            with pytest.raises(RuntimeError, match="<P>"):
                quantum_moments_quadrature(level, spec)
        else:
            assert quantum_moments_quadrature(level, spec).mean_p2 == pytest.approx(0.5, abs=1e-6)

    def test_well_second_moment_formula(self):
        for n in range(1, 51):
            got = quantum_moments_quadrature(eigen_level(WELL, n), SPEC)
            expected = 1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2)
            assert abs(got.mean_x2 - expected) < 1e-10
            assert abs(got.mean_p2 - 1.0) < 1e-10
            assert abs(got.mean_x) < 1e-10

    def test_well_loose_spec_meets_closed_forms(self):
        # even at a loose spec the well's pass over [0, 1] meets 1/3 - 2/(n pi)^2
        # and 1 within 6.1e-13 over the benchmark's levels
        spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-4)
        for n in (1, 2, 3, 6, 10, 18, 32, 56, 100, 178, 316, 422, 562, 750, 1000):
            got = quantum_moments_quadrature(eigen_level(WELL, n), spec)
            assert abs(got.mean_x2 - (1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2))) < 5e-12, n
            assert abs(got.mean_p2 - 1.0) < 5e-12, n

    @pytest.mark.parametrize("n", [30_000, 100_000])
    def test_well_past_ten_thousand(self, n):
        # psi^2 and u^2 psi^2 stay of order 1 at every level; the pass
        # converges on its n starting panels between u = k/n
        level = eigen_level(WELL, n)
        got = quantum_moments_quadrature(level)
        want = quantum_moments_closed_form(level)
        for g, w in zip(got.fields(), want.fields()):
            assert abs(g - w) < 1e-12

    def test_well_product_approaches_classical_from_below(self):
        products = [quantum_moments_quadrature(eigen_level(WELL, n), SPEC).product for n in range(1, 11)]
        assert all(b > a for a, b in zip(products, products[1:]))
        assert all(p < 1.0 / 3.0 for p in products)

    def test_bouncer_levels_match_classical_values(self, monkeypatch):
        mean_p = _checked_mean_p(monkeypatch)
        levels = range(1, 6)
        for n in levels:
            got = quantum_moments_quadrature(eigen_level(BALL, n), SPEC)
            assert abs(got.mean_x - 2.0 / 3.0) < 1e-6
            assert abs(got.mean_x2 - 8.0 / 15.0) < 1e-6
            assert abs(got.mean_p2 - 1.0 / 3.0) < 1e-6
            assert abs(got.product - 4.0 / 135.0) < 1e-6
        assert len(mean_p) == len(levels) and max(map(abs, mean_p)) < 1e-6

    def test_revisited_bouncer_level_makes_no_kernel_pass(self, monkeypatch):
        # a level's moment pass and density grid make the same Airy batches
        # on every visit, so the memo serves the second visit whole
        level = eigen_level(BALL, 4)
        batches = []
        evaluate = specfun._evaluate
        monkeypatch.setattr(specfun, "_evaluate", lambda z: batches.append(len(z)) or evaluate(z))
        airy_ai.cache_clear()
        cold = quantum_moments_quadrature(level, SPEC), density_grid(level, 61)
        assert batches  # the counter sees the kernel
        batches.clear()
        warm = quantum_moments_quadrature(level, SPEC), density_grid(level, 61)
        assert batches == [] and warm == cold

    @pytest.mark.parametrize("n", [200, 1000])
    def test_bouncer_high_levels(self, monkeypatch, n):
        # Ai over (a_n, 9] carries about n oscillations; at n = 1000 the
        # moment pass evaluates Ai 44,400 times, far past what the memo
        # holds.  DEFAULT_SPEC, as `ucr compare` runs: SPEC's abs_tol 1e-13
        # lies below the Ai Ai' component's rounding floor from n = 200 on.
        mean_p = _checked_mean_p(monkeypatch)
        got = quantum_moments_quadrature(eigen_level(BALL, n), DEFAULT_SPEC)
        assert abs(got.mean_x - 2.0 / 3.0) < 1e-6
        assert abs(got.mean_x2 - 8.0 / 15.0) < 1e-6
        assert abs(got.mean_p2 - 1.0 / 3.0) < 1e-6
        assert abs(got.product - 4.0 / 135.0) < 1e-6
        assert len(mean_p) == 1 and abs(mean_p[0]) < 1e-6

    def test_bouncer_parameter_invariance(self):
        # the scaled moments of a level cannot depend on (m, omega/L/g, hbar),
        # for the bouncer and the other two systems alike
        rng = random.Random(5)
        for variant, n in ((BouncingBall, 2), (HarmonicOscillator, 3), (InfiniteWell, 4)):
            base = quantum_moments_quadrature(eigen_level(PotentialModel(variant(1.0, 1.0)), n), SPEC)
            for _ in range(5):
                model = PotentialModel(
                    variant(rng.uniform(0.2, 5.0), rng.uniform(0.2, 20.0)),
                    hbar=rng.uniform(0.2, 3.0),
                )
                got = quantum_moments_quadrature(eigen_level(model, n), SPEC)
                for g, b in zip(got.fields(), base.fields()):
                    assert abs(g - b) < 1e-9

    def test_closed_forms(self):
        ho = quantum_moments_closed_form(eigen_level(HO, 7))
        assert (ho.mean_x2, ho.mean_p2) == (0.5, 0.5)
        well = quantum_moments_closed_form(eigen_level(WELL, 3))
        assert well.mean_x2 == pytest.approx(1.0 / 3.0 - 2.0 / (9.0 * math.pi ** 2), abs=1e-16)
        ball = quantum_moments_closed_form(eigen_level(BALL, 1))
        assert ball.mean_x2 == pytest.approx(8.0 / 15.0, abs=1e-16)

    def test_quadrature_matches_closed_form(self):
        cases = [(HO, 4), (WELL, 6), (BALL, 2)]
        for model, n in cases:
            level = eigen_level(model, n)
            got = quantum_moments_quadrature(level, SPEC)
            want = quantum_moments_closed_form(level)
            for g, w in zip(got.fields(), want.fields()):
                assert abs(g - w) < 1e-6

    def test_realm_and_method_tags(self):
        got = quantum_moments_quadrature(eigen_level(WELL, 1), SPEC)
        assert got.realm == "quantum"
        assert got.method == "quadrature"


_ESTIMATE_SPECS = {"default": DEFAULT_SPEC, "loose": QuadratureSpec(abs_tol=1e-6, rel_tol=1e-4), "tight": SPEC}


def _exact_integrals(system: str, n: int) -> list:
    """The exact integrals of the level's moment pass, from mpmath at 30 digits: the well's
    1/2 and 1/6 - 1/(n pi)^2 over u in [0, 1]; the bouncer's Ai'(a_n)^2, (2/3) E' Ai'(a_n)^2,
    (8/15) E'^2 Ai'(a_n)^2 and 0 over (a_n, inf), for the shifts z + e by the pass's own
    double e rather than E' = -a_n (delta = e - E' is about an ulp of E')."""
    if system == "well":
        return [mp.mpf(1) / 2, mp.mpf(1) / 6 - 1 / (n * mp.pi) ** 2]
    with mp.workdps(30):
        a = mp.airyaizero(n)
        slope2 = mp.airyai(a, derivative=1) ** 2
        e = -a
        delta = mp.mpf(airy_zero(n).scaled_energy) - e
        first = mp.mpf(2) / 3 * e * slope2
        second = mp.mpf(8) / 15 * e * e * slope2 + 2 * delta * first + delta ** 2 * slope2
        return [slope2, first + delta * slope2, second, mp.mpf(0)]


class TestErrorEstimates:
    """Every converged pass's error estimate bounds its component's distance from the exact
    integral: QUADPACK qk15's estimate with its rounding floor 50 eps resabs does; the
    |K15 - G7| of the G7 rule did not, 14 of the well's 138 components lay past it at
    the default spec."""

    LEVELS = {
        "well": (*range(1, 60), 100, 178, 316, 422, 562, 750, 1000, 1778, 3000, 10_001),
        "bouncer": (*range(1, 37), 200, 1000),
    }

    @pytest.mark.parametrize("spec", sorted(_ESTIMATE_SPECS))
    @pytest.mark.parametrize("system", sorted(LEVELS))
    def test_estimate_bounds_the_truth(self, system, spec):
        model, spec = {"well": WELL, "bouncer": BALL}[system], _ESTIMATE_SPECS[spec]
        passed, under = 0, []
        for n in self.LEVELS[system]:
            level = eigen_level(model, n)
            (f, *rule), _ = model.variant.moment_pass(level)
            try:
                result = quantum_states._integrate(system, f, rule, spec)
            except RuntimeError:  # a pass that does not converge claims nothing
                continue
            passed += 1
            for k, (value, error, exact) in enumerate(zip(result.value, result.error_estimate,
                                                          _exact_integrals(system, n))):
                if not abs(mp.mpf(value) - exact) <= error:
                    under.append((n, k, float(abs(mp.mpf(value) - exact)), error))
        assert passed >= len(self.LEVELS[system]) - 2 and under == []

    @pytest.mark.parametrize("n", [*range(1, 41), 200, 1000, 3000, 4000])
    def test_bouncer_converges_on_its_starting_panels(self, n):
        # the bouncer's pass evaluates its 2n + 6 starting panels, 512 to a call, and converges
        # on them at the default spec, with no split; every moment lies within 4e-15 of its
        # closed form up to n = 4000, where the pass from one panel did not converge
        level = eigen_level(BALL, n)
        (f, points), moments = BALL.variant.moment_pass(level)
        seen = []
        result = quantum_states._integrate("bouncer", lambda z: seen.append(len(z)) or f(z), (points,),
                                           DEFAULT_SPEC)
        panels = 2 * n + 6
        assert seen == [15 * 512] * ((panels - 1) // 512) + [15 * ((panels - 1) % 512 + 1)]
        assert (result.evaluations, result.converged) == (15 * panels, True)
        mean_x, mean_x2, mean_p2, mean_p = moments(result.value)
        for got, exact in ((mean_x, 2.0 / 3.0), (mean_x2, 8.0 / 15.0), (mean_p2, 1.0 / 3.0), (mean_p, 0.0)):
            assert abs(got - exact) <= 4e-15


class TestCommutatorBound:
    def test_values(self):
        assert commutator_bound(eigen_level(HO, 0)) == 0.25
        assert commutator_bound(eigen_level(HO, 2)) == pytest.approx(1.0 / 100.0)
        assert commutator_bound(eigen_level(WELL, 1)) == pytest.approx(1.0 / math.pi ** 2)
        e1 = airy_zero(1).scaled_energy
        assert commutator_bound(eigen_level(BALL, 1)) == pytest.approx(1.0 / (4.0 * e1 ** 3))

    def test_product_respects_bound(self):
        cases = (
            [(HO, n) for n in range(0, 8)]
            + [(WELL, n) for n in range(1, 8)]
            + [(BALL, n) for n in range(1, 6)]
        )
        for model, n in cases:
            level = eigen_level(model, n)
            got = quantum_moments_quadrature(level, SPEC)
            assert got.product >= commutator_bound(level) - 1e-12

    def test_ground_state_oscillator_saturates(self):
        level = eigen_level(HO, 0)
        got = quantum_moments_quadrature(level, SPEC)
        assert got.product == pytest.approx(commutator_bound(level), abs=1e-12)

    def test_bound_vanishes_for_high_levels(self):
        bounds = [commutator_bound(eigen_level(BALL, n)) for n in (1, 5, 20)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestDensityGrid:
    # (x, quantum, classical, clipped) rows of level 2 as float.hex, recorded
    # from the padded-neighbour clip that the end-only clip replaced; the
    # classical columns were re-recorded when the ensembles went onto exact
    # fixed rules: the well's is 1/2 and the bouncer's 1/(2 sqrt(1 - X)) at
    # X = 0 and 1/2 to the bit, at X = 1/3 and 2/3 within an ulp
    ROWS = {
        ('bouncer', 2): (
            ('0x0.0p+0', '0x1.0bc814deb8f23p-102', '0x1.0000000000000p-1', False),
            ('0x1.0000000000000p+0', '0x1.9906428a81d38p-1', '0x1.0000000000000p-1', True),
        ),
        ('bouncer', 3): (
            ('0x0.0p+0', '0x1.0bc814deb8f23p-102', '0x1.0000000000000p-1', False),
            ('0x1.0000000000000p-1', '0x1.031289148bd82p-2', '0x1.6a09e667f3bcdp-1', False),
            ('0x1.0000000000000p+0', '0x1.9906428a81d38p-1', '0x1.6a09e667f3bcdp-1', True),
        ),
        ('bouncer', 4): (
            ('0x0.0p+0', '0x1.0bc814deb8f23p-102', '0x1.0000000000000p-1', False),
            ('0x1.5555555555555p-2', '0x1.a4de5fc7a6d99p-2', '0x1.3988e1409212ep-1', False),
            ('0x1.5555555555555p-1', '0x1.95ec7ae2b388ep+0', '0x1.bb67ae8584ca9p-1', False),
            ('0x1.0000000000000p+0', '0x1.9906428a81d38p-1', '0x1.bb67ae8584ca9p-1', True),
        ),
        ('ho', 3): (
            ('-0x1.0000000000000p+0', '0x1.6086f6d304710p-2', '0x1.45f306dc9c883p-2', True),
            ('0x0.0p+0', '0x1.42f601a8c679cp-1', '0x1.45f306dc9c883p-2', False),
            ('0x1.0000000000000p+0', '0x1.6086f6d304710p-2', '0x1.45f306dc9c883p-2', True),
        ),
        ('ho', 4): (
            ('-0x1.0000000000000p+0', '0x1.6086f6d304710p-2', '0x1.59b8b1f4ecc98p-2', True),
            ('-0x1.5555555555556p-2', '0x1.24d1d6e7654d8p-8', '0x1.59b8b1f4ecc98p-2', False),
            ('0x1.5555555555554p-2', '0x1.24d1d6e76547ep-8', '0x1.59b8b1f4ecc98p-2', False),
            ('0x1.0000000000000p+0', '0x1.6086f6d304710p-2', '0x1.59b8b1f4ecc98p-2', True),
        ),
        ('well', 2): (
            ('-0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
            ('0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
        ),
        ('well', 3): (
            ('-0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
            ('0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p-1', False),
            ('0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
        ),
        ('well', 4): (
            ('-0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
            ('-0x1.5555555555556p-2', '0x1.8000000000001p-1', '0x1.0000000000000p-1', False),
            ('0x1.5555555555554p-2', '0x1.7ffffffffffffp-1', '0x1.0000000000000p-1', False),
            ('0x1.0000000000000p+0', '0x1.377ce858a5d4ap-106', '0x1.0000000000000p-1', False),
        ),
    }

    @pytest.mark.parametrize("system, points", sorted(ROWS))
    def test_pinned_rows(self, system, points):
        rows = density_grid(eigen_level({"bouncer": BALL, "ho": HO, "well": WELL}[system], 2), points)
        assert tuple((x.hex(), q.hex(), c.hex(), clipped) for x, q, c, clipped in rows) == self.ROWS[system, points]

    @staticmethod
    def _assert_turning_point_ends(level, points):
        # A_n is turning_point(E_n) to the bit, so each end of the grid that lies on a turning
        # point is singular: flagged and clipped to its inner neighbour, never 0 or a huge finite value
        variant = level.model.variant
        assert level.turning_point == variant.turning_point(level.energy)
        rows = density_grid(level, points)
        assert all(math.isfinite(p_cl) and p_cl >= 0.0 for _, _, p_cl, _ in rows)
        ends = {"oscillator": [0, points - 1], "bouncer": [points - 1], "well": []}[variant.name]
        assert [i for i, row in enumerate(rows) if row[3]] == ends
        for end in ends:
            assert rows[end][2] == rows[1 if end == 0 else end - 1][2]

    @pytest.mark.parametrize("model, n", [(PotentialModel(HarmonicOscillator(m=0.5, omega=3.0), hbar=0.1), 3),
                                          (PotentialModel(BouncingBall(m=0.5, g=3.0), hbar=0.1), 5)],
                             ids=["oscillator", "bouncer"])
    def test_ends_off_unit_parameters_are_turning_points(self, model, n):
        self._assert_turning_point_ends(eigen_level(model, n), 5)

    @pytest.mark.parametrize("system", [HarmonicOscillator, InfiniteWell, BouncingBall])
    def test_ends_are_turning_points_over_random_parameters(self, system):
        rng = random.Random(f"density ends {system.__name__}")
        for _ in range(60):
            model = PotentialModel(system(10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0)),
                                   hbar=10.0 ** rng.uniform(-2.0, 0.0))
            self._assert_turning_point_ends(eigen_level(model, rng.randint(model.variant.n_min, 30)),
                                            rng.randint(3, 12))

    def test_well_classical_column_flat(self):
        rows = density_grid(eigen_level(WELL, 5), 5)
        assert len(rows) == 5
        for x, _, p_cl, clipped in rows:
            assert p_cl == pytest.approx(0.5, rel=1e-10)
            assert not clipped

    def test_oscillator_center_value(self):
        rows = density_grid(eigen_level(HO, 0), 3)
        # middle point: A |psi(0)|^2 = 1/sqrt(pi)
        assert rows[1][0] == 0.0
        assert rows[1][1] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)

    def test_oscillator_endpoints_clipped(self):
        rows = density_grid(eigen_level(HO, 0), 11)
        assert rows[0][3] and rows[-1][3]
        assert math.isfinite(rows[0][2]) and rows[0][2] > 0.0
        assert rows[0][2] == rows[1][2]  # clipped to the nearest interior value
        assert all(not r[3] for r in rows[1:-1])

    def test_bouncer_floor_value(self):
        rows = density_grid(eigen_level(BALL, 1), 4)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1][3]  # turning point is singular classically

    def test_well_grid_sums_to_one(self):
        rows = density_grid(eigen_level(WELL, 3), 1001)
        dx = 2.0 / 1000.0

        def trapezoid(col):
            vals = [r[col] for r in rows]
            return dx * (0.5 * vals[0] + sum(vals[1:-1]) + 0.5 * vals[-1])

        assert trapezoid(1) == pytest.approx(1.0, abs=1e-3)
        assert trapezoid(2) == pytest.approx(1.0, abs=1e-3)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            density_grid(eigen_level(WELL, 1), 1)

    @pytest.mark.parametrize("points", [4.5, 5.0, np.float64(5.0), "5"])
    def test_non_integer_points_rejected(self, points):
        with pytest.raises(ValueError, match=re.escape(f"need an integer of at least 2 grid points, got {points!r}")):
            density_grid(eigen_level(WELL, 1), points)

    def test_numpy_integer_points_accepted(self):
        assert density_grid(eigen_level(WELL, 1), np.int32(5)) == density_grid(eigen_level(WELL, 1), 5)

    def test_two_points_without_finite_neighbour_rejected(self):
        # both oscillator grid points are singular turning points
        with pytest.raises(ValueError, match="neighbour"):
            density_grid(eigen_level(HO, 1), 2)

    def test_two_points_accepted_with_a_finite_endpoint(self):
        for model in (WELL, BALL):
            rows = density_grid(eigen_level(model, 1), 2)
            assert len(rows) == 2
            assert all(math.isfinite(r[2]) for r in rows)
