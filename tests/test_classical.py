import math
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from ucr import classical_ensemble
from ucr.classical_ensemble import (
    build_ensemble,
    classical_density,
    classical_moments_closed_form,
    classical_moments_quadrature,
)
from ucr.quadrature import QuadratureSpec, integrate_rule
from ucr.quantum_states import eigen_level
from ucr.systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel

SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def _random_models(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        e = rng.uniform(0.1, 10.0)
        yield (
            (PotentialModel(HarmonicOscillator(m=m, omega=a)), e),
            (PotentialModel(InfiniteWell(m=m, L=a)), e),
            (PotentialModel(BouncingBall(m=m, g=a)), e),
        )


class TestConstruction:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: HarmonicOscillator(m=-1.0, omega=1.0),
            lambda: HarmonicOscillator(m=1.0, omega=0.0),
            lambda: InfiniteWell(m=1.0, L=-2.0),
            lambda: BouncingBall(m=0.0, g=9.8),
            lambda: PotentialModel(HarmonicOscillator(1.0, 1.0), hbar=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_invalid_energy_rejected(self):
        model = PotentialModel(HarmonicOscillator(1.0, 1.0))
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                build_ensemble(model, bad)

    def test_turning_points(self):
        assert build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5).turning_point == pytest.approx(1.0)
        assert build_ensemble(PotentialModel(InfiniteWell(1.0, 3.0)), 1.0).turning_point == pytest.approx(1.5)
        assert build_ensemble(PotentialModel(BouncingBall(2.0, 5.0)), 30.0).turning_point == pytest.approx(3.0)

    def test_regions(self):
        ho = build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5)
        assert ho.region == (-1.0, 1.0)
        well = build_ensemble(PotentialModel(InfiniteWell(1.0, 2.0)), 1.0)
        assert well.region == (-1.0, 1.0)
        ball = build_ensemble(PotentialModel(BouncingBall(1.0, 1.0)), 2.0)
        assert ball.region == (0.0, 2.0)


class TestNormalization:
    def test_against_analytic_constants(self):
        # period integrals have elementary closed forms:
        #   HO:      1/N = pi * sqrt(2/m) / omega
        #   well:    1/N = L / sqrt(E)
        #   bouncer: 1/N = 2 sqrt(A/(m g))
        for ho_case, well_case, ball_case in _random_models(101, 50):
            model, e = ho_case
            v = model.variant
            ens = build_ensemble(model, e, SPEC)
            assert ens.normalization == pytest.approx(v.omega / (math.pi * math.sqrt(2.0 / v.m)), rel=1e-10)

            model, e = well_case
            v = model.variant
            ens = build_ensemble(model, e, SPEC)
            assert ens.normalization == pytest.approx(math.sqrt(e) / v.L, rel=1e-10)

            model, e = ball_case
            v = model.variant
            ens = build_ensemble(model, e, SPEC)
            amp = e / (v.m * v.g)
            assert ens.normalization == pytest.approx(0.5 * math.sqrt(v.m * v.g / amp), rel=1e-10)

    def test_normalization_integral_converged(self):
        ens = build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5, SPEC)
        assert ens.result.converged
        assert ens.normalization * ens.result.value[0] == pytest.approx(1.0, abs=1e-15)


class TestOnePass:
    """The ensemble takes one pass of four integrals against 1/sqrt(E - V):
    the normalization and the three moments come from it, and the moment
    accessor integrates nothing."""

    @pytest.mark.parametrize(
        "variant",
        [HarmonicOscillator(1.3, 0.7), InfiniteWell(0.7, 3.0), BouncingBall(1.0, 9.8)],
        ids=["oscillator", "well", "bouncer"],
    )
    def test_one_integral_per_ensemble(self, monkeypatch, variant):
        calls = []

        def counted(*args):
            calls.append(args)
            return integrate_rule(*args)

        monkeypatch.setattr(classical_ensemble, "integrate_rule", counted)
        ens = build_ensemble(PotentialModel(variant), 1.7, SPEC)
        assert len(calls) == 1
        assert classical_moments_quadrature(ens) is ens.moments
        assert len(calls) == 1
        assert ens.result.converged and len(ens.result.value) == 4
        assert ens.normalization * ens.result.value[0] == pytest.approx(1.0, abs=1e-15)

    def test_unconverged_pass_raises(self):
        # here the rule's rounding floor stays far above 1e-300
        tight = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        ens = build_ensemble(PotentialModel(BouncingBall(1.0, 9.8)), 1.7, tight)
        assert not ens.result.converged
        with pytest.raises(RuntimeError, match="classical moment quadrature failed to converge"):
            classical_moments_quadrature(ens)


    @pytest.mark.parametrize(
        "variant",
        [HarmonicOscillator(1.0, 1.0), InfiniteWell(1.0, 1.0), BouncingBall(1.0, 1.0)],
        ids=["oscillator", "well", "bouncer"],
    )
    def test_unreachable_tolerance_never_claims_convergence(self, variant):
        # an estimate taken from two refinements that agree to the bit would
        # read (0, 0, 0, 0) here and claim convergence no rule can reach
        ens = build_ensemble(PotentialModel(variant), 0.5, QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300))
        assert not ens.result.converged


def _rule_of_twice_the_nodes(name):
    """The classical pass's rule of twice the nodes on the same weight and interval, its nodes
    and weights rounded from 40 digits: on the non-negative half for the folded symmetric
    passes, and mapped onto [0, 1] for the bouncer."""
    count = {"oscillator": 8, "well": 4, "bouncer": 6}[name]
    with mp.workdps(40):
        if name == "oscillator":  # Gauss-Chebyshev
            nodes = [mp.cos((2 * k - 1) * mp.pi / (2 * count)) for k in range(1, count + 1)]
            weights = [mp.pi / count] * count
        else:  # Gauss-Legendre: numpy's nodes refined on P_count, Christoffel weights 2/((1 - x^2) P'(x)^2)
            legendre = lambda x: mp.legendre(count, x)
            nodes = [mp.findroot(legendre, x) for x in np.polynomial.legendre.leggauss(count)[0].tolist()]
            weights = [2 / ((1 - x * x) * mp.diff(legendre, x) ** 2) for x in nodes]
        if name == "bouncer":
            pairs = [((1 + x) / 2, w / 2) for x, w in zip(nodes, weights)]
        else:
            pairs = [(x, w) for x, w in zip(nodes, weights) if x > 0]
        return np.array([float(x) for x, _ in pairs]), np.array([float(w) for _, w in pairs])


class TestExactRules:
    """Each ensemble's pass is a polynomial against its rule's weight, which its
    fixed rule integrates exactly: checked against a rule of twice the nodes, not
    against the closed forms."""

    VARIANTS = [HarmonicOscillator, InfiniteWell, BouncingBall]

    @pytest.mark.parametrize("factory", VARIANTS, ids=["oscillator", "well", "bouncer"])
    def test_rule_of_twice_the_nodes_agrees(self, factory):
        rng = random.Random(20261020)
        for _ in range(50):
            variant = factory(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
            energy = math.exp(rng.uniform(-8.0, 8.0))
            f, nodes, weights = variant.classical_pass(energy)
            own = integrate_rule(f, nodes, weights).value
            twice = integrate_rule(f, *_rule_of_twice_the_nodes(variant.name)).value
            for a, b in zip(own, twice):
                assert abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b))), (variant, energy, own, twice)

    def test_rules_are_their_closed_forms_correctly_rounded(self):
        with mp.workdps(40):
            want = {
                "oscillator": ([mp.cos(3 * mp.pi / 8), mp.cos(mp.pi / 8)], [mp.pi / 4] * 2),
                "well": ([1 / mp.sqrt(3)], [1]),
                "bouncer": ([mp.mpf(1) / 2 - mp.sqrt(15) / 10, mp.mpf(1) / 2, mp.mpf(1) / 2 + mp.sqrt(15) / 10],
                            [mp.mpf(5) / 18, mp.mpf(4) / 9, mp.mpf(5) / 18]),
            }
            for factory in self.VARIANTS:
                variant = factory(1.0, 1.0)
                _, nodes, weights = variant.classical_pass(1.0)
                assert nodes.tolist() == [float(v) for v in want[variant.name][0]]
                assert weights.tolist() == [float(v) for v in want[variant.name][1]]

    @pytest.mark.parametrize("factory", VARIANTS, ids=["oscillator", "well", "bouncer"])
    @pytest.mark.parametrize("spec", [QuadratureSpec(abs_tol=0.0, rel_tol=1e-10), QuadratureSpec(abs_tol=1e-12, rel_tol=0.0)],
                             ids=["rel only", "abs only"])
    def test_pass_converges_at_one_sided_specs(self, factory, spec):
        # rel only: the folded <X> of a symmetric system is 0 with a 0 floor, so it meets a 0 tolerance
        model = PotentialModel(factory(1.0, 1.0))
        for n in (model.variant.n_min, 2, 10, 100, 1000):
            ens = build_ensemble(model, eigen_level(model, n).energy, spec)
            assert ens.result.converged, (n, ens.result)
            assert ens.result.error_estimate == ens.result.floor


class TestDensity:
    def test_point_values(self):
        ho = build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5)
        assert classical_density(ho, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

        well = build_ensemble(PotentialModel(InfiniteWell(1.0, 2.0)), 1.0)
        assert classical_density(well, 0.3) == pytest.approx(0.5, rel=1e-12)  # 1/L

        ball = build_ensemble(PotentialModel(BouncingBall(1.0, 1.0)), 2.0)
        assert classical_density(ball, 0.0) == pytest.approx(0.25, rel=1e-12)  # 1/(2A)

    def test_zero_outside_support(self):
        ho = build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5)
        assert classical_density(ho, 1.0000001) == 0.0
        assert classical_density(ho, -5.0) == 0.0
        ball = build_ensemble(PotentialModel(BouncingBall(1.0, 1.0)), 2.0)
        assert classical_density(ball, -1e-12) == 0.0

    def test_divergence_at_turning_point(self):
        ho = build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5)
        assert classical_density(ho, ho.turning_point) == math.inf
        ball = build_ensemble(PotentialModel(BouncingBall(1.0, 1.0)), 2.0)
        assert classical_density(ball, ball.turning_point) == math.inf

    @pytest.mark.parametrize(
        "variant", [HarmonicOscillator(1.3, 0.7), InfiniteWell(0.8, 2.5), BouncingBall(1.1, 0.9)], ids=lambda v: v.name
    )
    def test_array_equals_pointwise_floats(self, variant):
        ens = build_ensemble(PotentialModel(variant), 1.7)
        a, b = ens.region
        xs = np.concatenate(([a - 1.0, np.nextafter(a, -np.inf), a, b, np.nextafter(b, np.inf), b + 1.0],
                             np.linspace(a, b, 17)[1:-1]))
        density = classical_density(ens, xs)
        assert isinstance(density, np.ndarray) and density.shape == xs.shape
        pointwise = [classical_density(ens, x) for x in xs.tolist()]
        assert all(type(value) is float for value in pointwise)
        assert density.tolist() == pointwise
        assert pointwise[:6].count(0.0) == 4  # outside the region on both sides
        # at the ends: turning points diverge, the well's walls and the floor do not
        assert pointwise[2:4].count(math.inf) == {"oscillator": 2, "well": 0, "bouncer": 1}[variant.name]

    @pytest.mark.parametrize(
        "variant", [HarmonicOscillator(1.3, 0.7), InfiniteWell(0.8, 2.5), BouncingBall(1.1, 0.9)], ids=lambda v: v.name
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_refused(self, variant, bad):
        # one ValueError on every system, for a float and inside an array; the well gave a
        # finite density at nan, the oscillator and the bouncer nan
        ens = build_ensemble(PotentialModel(variant), 1.7)
        for x in (bad, np.array([0.1, bad, 0.2])):
            with pytest.raises(ValueError, match="x must be finite"):
                classical_density(ens, x)

    @pytest.mark.parametrize(
        "variant", [HarmonicOscillator(1.3, 0.7), InfiniteWell(0.8, 2.5), BouncingBall(1.1, 0.9)], ids=lambda v: v.name
    )
    def test_x_with_two_axes_refused(self, variant):
        # a (2, 3) x came back as a (2, 3) density; a float, a 1-D and an empty array still work
        ens = build_ensemble(PotentialModel(variant), 1.7)
        with pytest.raises(ValueError, match=re.escape("x must be a float or a 1-D array, got shape (2, 3)")):
            classical_density(ens, np.full((2, 3), 0.1))
        assert type(classical_density(ens, 0.1)) is float
        assert classical_density(ens, np.array([0.1, 0.2])).tolist() == [classical_density(ens, v) for v in (0.1, 0.2)]
        assert classical_density(ens, np.array([])).shape == (0,)

    @pytest.mark.parametrize(
        "variant", [HarmonicOscillator(1.3, 0.7), InfiniteWell(0.8, 2.5), BouncingBall(1.1, 0.9)], ids=lambda v: v.name
    )
    def test_zero_far_outside_without_overflow(self, variant):
        # E - V is taken on x clipped to the region, so the oscillator's (A - x)(A + x)
        # no longer overflows with a RuntimeWarning far outside
        ens = build_ensemble(PotentialModel(variant), 1.7)
        for x in (1e155, -1e200, sys.float_info.max, -sys.float_info.max):
            assert classical_density(ens, x) == 0.0

    def test_symmetric_in_x_for_symmetric_systems(self):
        ho = build_ensemble(PotentialModel(HarmonicOscillator(1.3, 0.7)), 2.0)
        for x in (0.1, 0.5, 1.2):
            assert classical_density(ho, x) == pytest.approx(classical_density(ho, -x), rel=1e-13)


class TestMoments:
    def test_closed_forms(self):
        ho = classical_moments_closed_form(PotentialModel(HarmonicOscillator(1.0, 1.0)))
        assert (ho.mean_x, ho.mean_x2, ho.mean_p, ho.mean_p2) == (0.0, 0.5, 0.0, 0.5)
        assert ho.product == 0.25

        well = classical_moments_closed_form(PotentialModel(InfiniteWell(1.0, 1.0)))
        assert (well.mean_x, well.mean_p) == (0.0, 0.0)
        assert well.mean_x2 == pytest.approx(1.0 / 3.0, abs=1e-16)
        assert well.mean_p2 == 1.0
        assert well.product == pytest.approx(1.0 / 3.0, abs=1e-16)

        ball = classical_moments_closed_form(PotentialModel(BouncingBall(1.0, 1.0)))
        assert ball.mean_x == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert ball.mean_x2 == pytest.approx(8.0 / 15.0, abs=1e-16)
        assert ball.mean_p2 == pytest.approx(1.0 / 3.0, abs=1e-16)
        assert ball.var_x == pytest.approx(4.0 / 45.0, abs=1e-15)
        assert ball.product == pytest.approx(4.0 / 135.0, abs=1e-15)

    def test_quadrature_matches_closed_form(self):
        for cases in _random_models(7, 10):
            for model, e in cases:
                ens = build_ensemble(model, e, SPEC)
                got = classical_moments_quadrature(ens)
                want = classical_moments_closed_form(model)
                for g, w in zip(got.fields(), want.fields()):
                    assert abs(g - w) < 1e-9
                assert abs(got.product - want.product) < 1e-9
                assert got.realm == "classical"
                assert got.method == "quadrature"

    @pytest.mark.parametrize("variant", [HarmonicOscillator(1.0, 1.0), InfiniteWell(1.0, 1.0), BouncingBall(1.0, 1.0)],
                             ids=["oscillator", "well", "bouncer"])
    def test_loose_spec_still_meets_closed_form(self, variant):
        # the turning points cancel in the change of variable, so even a loose
        # tolerance gives the closed form to rounding at every level energy
        model = PotentialModel(variant)
        loose = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-4)
        want = classical_moments_closed_form(model).fields()
        for n in [*range(variant.n_min, 41), 178, 316, 1000]:
            got = classical_moments_quadrature(build_ensemble(model, eigen_level(model, n).energy, loose))
            assert max(abs(g - w) for g, w in zip(got.fields(), want)) <= 1e-15, n

    def test_scale_invariance(self):
        # scaled moments cannot depend on (m, omega/L/g, E)
        base = {
            "ho": classical_moments_quadrature(build_ensemble(PotentialModel(HarmonicOscillator(1.0, 1.0)), 1.0, SPEC)),
            "well": classical_moments_quadrature(build_ensemble(PotentialModel(InfiniteWell(1.0, 1.0)), 1.0, SPEC)),
            "bouncer": classical_moments_quadrature(build_ensemble(PotentialModel(BouncingBall(1.0, 1.0)), 1.0, SPEC)),
        }
        for ho_case, well_case, ball_case in _random_models(20260823, 50):
            for key, (model, e) in zip(("ho", "well", "bouncer"), (ho_case, well_case, ball_case)):
                got = classical_moments_quadrature(build_ensemble(model, e, SPEC))
                for g, b in zip(got.fields(), base[key].fields()):
                    assert abs(g - b) < 1e-10

    def test_mean_position_symmetry(self):
        for model in (
            PotentialModel(HarmonicOscillator(2.0, 0.5)),
            PotentialModel(InfiniteWell(0.7, 3.0)),
        ):
            got = classical_moments_quadrature(build_ensemble(model, 1.7, SPEC))
            assert abs(got.mean_x) < 1e-12
            assert got.mean_p == 0.0

    def test_variance_bookkeeping(self):
        got = classical_moments_quadrature(build_ensemble(PotentialModel(BouncingBall(1.0, 9.8)), 3.0, SPEC))
        assert got.var_x == got.mean_x2 - got.mean_x ** 2
        assert got.var_p == got.mean_p2 - got.mean_p ** 2
        assert got.product == got.var_x * got.var_p
