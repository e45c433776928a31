import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from ucr.classical_ensemble import build_ensemble, classical_moments_quadrature
from ucr.quadrature import QuadratureSpec
from ucr.systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel
from ucr.trajectory_oracle import BLOCK, build_trajectory, trajectory_moments

SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def _potential(model, x):
    v = model.variant
    if isinstance(v, HarmonicOscillator):
        return 0.5 * v.m * v.omega ** 2 * x * x
    if isinstance(v, InfiniteWell):
        return 0.0
    return v.m * v.g * x


def _all_models():
    return (
        PotentialModel(HarmonicOscillator(m=1.3, omega=0.7)),
        PotentialModel(InfiniteWell(m=0.8, L=2.5)),
        PotentialModel(BouncingBall(m=1.1, g=9.8)),
    )


class TestBuildTrajectory:
    def test_oscillator_initial_conditions(self):
        model = PotentialModel(HarmonicOscillator(m=2.0, omega=3.0))
        traj = build_trajectory(model, 9.0)
        assert float(traj.position_in_period(0.0)) == 0.0
        # p(0) = m omega A = sqrt(2 m E)
        assert float(traj.momentum_in_period(0.0)) == pytest.approx(math.sqrt(2.0 * 2.0 * 9.0), rel=1e-14)
        assert traj.period == pytest.approx(2.0 * math.pi / 3.0, rel=1e-14)

    def test_well_quarter_period_reaches_wall(self):
        model = PotentialModel(InfiniteWell(m=1.0, L=2.0))
        traj = build_trajectory(model, 2.0)
        assert float(traj.position_in_period(traj.period / 4.0)) == pytest.approx(1.0, rel=1e-12)
        assert float(traj.position_in_period(3.0 * traj.period / 4.0)) == pytest.approx(-1.0, rel=1e-12)

    def test_bouncer_apex_at_half_period(self):
        model = PotentialModel(BouncingBall(m=1.0, g=2.0))
        traj = build_trajectory(model, 4.0)
        t_half = traj.period / 2.0
        assert float(traj.position_in_period(t_half)) == pytest.approx(traj.turning_point, rel=1e-12)
        assert float(traj.momentum_in_period(t_half)) == pytest.approx(0.0, abs=1e-12)
        assert traj.turning_point == pytest.approx(2.0)  # E/(m g)

    def test_invalid_energy_rejected(self):
        with pytest.raises(ValueError):
            build_trajectory(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.0)

    @pytest.mark.parametrize(
        "variant",
        [HarmonicOscillator(1.0, 1.0), InfiniteWell(1.0, 2.0), BouncingBall(1.0, 9.8)],
        ids=["oscillator", "well", "bouncer"],
    )
    def test_non_finite_energy_rejected(self, variant):
        # the ensemble's rejection; an infinite energy used to give NaN moments
        model = PotentialModel(variant)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="strictly positive and finite") as from_trajectory:
                build_trajectory(model, bad)
            with pytest.raises(ValueError) as from_ensemble:
                build_ensemble(model, bad)
            assert str(from_trajectory.value) == str(from_ensemble.value)

    def test_energy_conserved_along_path(self):
        rng = random.Random(99)
        for model in _all_models():
            energy = 1.7
            traj = build_trajectory(model, energy)
            t = np.array([rng.uniform(0.0, traj.period) for _ in range(10_000)])
            t = t[t < traj.period]  # uniform(a, b) may return b
            x = traj.position_in_period(t)
            p = traj.momentum_in_period(t)
            e = p ** 2 / (2.0 * model.mass) + np.array([_potential(model, xi) for xi in x])
            assert float(np.max(np.abs(e - energy))) < 1e-10 * energy

    def test_position_stays_inside_region(self):
        for model in _all_models():
            traj = build_trajectory(model, 3.1)
            t = np.linspace(0.0, traj.period, 10_001)[:-1]
            x = traj.position_in_period(t)
            assert float(np.max(np.abs(x))) <= traj.turning_point * (1.0 + 1e-12)
            if isinstance(model.variant, BouncingBall):
                assert float(np.min(x)) >= 0.0

    def test_midpoint_samples_stay_inside_the_period(self):
        # trajectory_moments calls the in-period functions at (i + 1/2) fl(P/N);
        # the last of them, (N - 1/2) fl(P/N), must still be below P
        for model in _all_models():
            for energy in (1e-3, 0.37, 1.0, 1.9, 42.0, 3.1e5):
                period = build_trajectory(model, energy).period
                for samples in (2, 3, 7, 10 ** 6, 2 ** 40, 2 ** 50):
                    assert (samples - 0.5) * (period / samples) < period, (model, energy, samples)


class TestTrajectoryMoments:
    def test_well_midpoint_momentum_moment_exact(self):
        traj = build_trajectory(PotentialModel(InfiniteWell(1.0, 1.0)), 1.0)
        got = trajectory_moments(traj, 1000)
        assert got.mean_p2 == 1.0
        assert got.mean_p == pytest.approx(0.0, abs=1e-15)
        assert got.method == "trajectory"
        assert got.realm == "classical"

    def test_matches_ensemble_moments(self):
        for model in _all_models():
            traj = build_trajectory(model, 1.0)
            oracle = trajectory_moments(traj, 1_000_000)
            ens = classical_moments_quadrature(build_ensemble(model, 1.0, SPEC))
            for o, e in zip(oracle.fields(), ens.fields()):
                assert abs(o - e) < 1e-4

    @pytest.mark.parametrize(
        "samples",
        [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 5, 16 * BLOCK + 9, 100_000, 999_983, 1_000_000, 1_234_567],
    )
    def test_blocks_match_whole_array_bits(self, samples):
        # the blocks are the pieces of numpy's pairwise sum, so every bit
        # equals one whole-array evaluation
        for model in _all_models():
            traj = build_trajectory(model, 1.7)
            t = (np.arange(samples) + 0.5) * (traj.period / samples)
            x = traj.position_in_period(t) / traj.turning_point
            p = traj.momentum_in_period(t) / math.sqrt(2.0 * model.mass * traj.energy)
            want = tuple(float(np.mean(a)) for a in (x, x ** 2, p, p ** 2))
            got = trajectory_moments(traj, samples)
            assert (got.mean_x, got.mean_x2, got.mean_p, got.mean_p2) == want, (model, samples)

    def test_memory_is_two_arrays_and_a_block(self):
        # one block's arrays whatever the count (0.26 MB at 10^5 samples, 0.33 MB
        # at 10^6); whole-length X and P arrays peaked at 16.3 MB at 10^6
        for model in _all_models():
            traj = build_trajectory(model, 1.0)
            for samples in (100_000, 1_000_000):
                tracemalloc.start()
                try:
                    trajectory_moments(traj, samples)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 8 * BLOCK * 8, (model, samples, peak)

    def test_sampling_error_shrinks_with_refinement(self):
        # bouncer <X> has the slowest midpoint convergence (corner at the floor)
        traj = build_trajectory(PotentialModel(BouncingBall(1.0, 1.0)), 1.0)
        errors = []
        for samples in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            got = trajectory_moments(traj, samples)
            errors.append(abs(got.mean_x - 2.0 / 3.0))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse, 1e-12)
        assert errors[-1] < 1e-7

    def test_bad_inputs_rejected(self):
        traj = build_trajectory(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.5)
        with pytest.raises(ValueError):
            trajectory_moments(traj, 1)

    @pytest.mark.parametrize("samples", [2.0000001, 1000.0, np.float64(1000.0), "1000"])
    def test_non_integer_samples_rejected(self, samples):
        traj = build_trajectory(PotentialModel(InfiniteWell(1.0, 1.0)), 1.0)
        with pytest.raises(ValueError, match=re.escape(f"need an integer of at least 2 samples, got {samples!r}")):
            trajectory_moments(traj, samples)

    def test_numpy_integer_samples_accepted(self):
        traj = build_trajectory(PotentialModel(InfiniteWell(1.0, 1.0)), 1.0)
        assert trajectory_moments(traj, np.int64(1000)) == trajectory_moments(traj, 1000)
