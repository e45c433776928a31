import math
import random

import numpy as np
import pytest

from ucr.classical_ensemble import (
    BouncingBall,
    HarmonicOscillator,
    InfiniteWell,
    PotentialModel,
    build_ensemble,
    classical_moments_quadrature,
)
from ucr.quadrature import QuadratureSpec
from ucr.trajectory_oracle import build_trajectory, trajectory_moments

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
        assert float(traj.position_of_time(0.0)) == 0.0
        # p(0) = m omega A = sqrt(2 m E)
        assert float(traj.momentum_of_time(0.0)) == pytest.approx(math.sqrt(2.0 * 2.0 * 9.0), rel=1e-14)
        assert traj.period == pytest.approx(2.0 * math.pi / 3.0, rel=1e-14)

    def test_well_quarter_period_reaches_wall(self):
        model = PotentialModel(InfiniteWell(m=1.0, L=2.0))
        traj = build_trajectory(model, 2.0)
        assert float(traj.position_of_time(traj.period / 4.0)) == pytest.approx(1.0, rel=1e-12)
        assert float(traj.position_of_time(3.0 * traj.period / 4.0)) == pytest.approx(-1.0, rel=1e-12)

    def test_bouncer_apex_at_half_period(self):
        model = PotentialModel(BouncingBall(m=1.0, g=2.0))
        traj = build_trajectory(model, 4.0)
        t_half = traj.period / 2.0
        assert float(traj.position_of_time(t_half)) == pytest.approx(traj.turning_point, rel=1e-12)
        assert float(traj.momentum_of_time(t_half)) == pytest.approx(0.0, abs=1e-12)
        assert traj.turning_point == pytest.approx(2.0)  # E/(m g)

    def test_invalid_energy_rejected(self):
        with pytest.raises(ValueError):
            build_trajectory(PotentialModel(HarmonicOscillator(1.0, 1.0)), 0.0)

    def test_energy_conserved_along_path(self):
        rng = random.Random(99)
        for model in _all_models():
            energy = 1.7
            traj = build_trajectory(model, energy)
            t = np.array([rng.uniform(0.0, 5.0 * traj.period) for _ in range(10_000)])
            x = traj.position_of_time(t)
            p = traj.momentum_of_time(t)
            e = p ** 2 / (2.0 * model.mass) + np.array([_potential(model, xi) for xi in x])
            assert float(np.max(np.abs(e - energy))) < 1e-10 * energy

    def test_periodicity(self):
        for model in _all_models():
            traj = build_trajectory(model, 2.3)
            t = np.linspace(0.0, traj.period, 37)
            assert np.allclose(traj.position_of_time(t + traj.period), traj.position_of_time(t),
                               rtol=0.0, atol=1e-10)

    def test_position_stays_inside_region(self):
        for model in _all_models():
            traj = build_trajectory(model, 3.1)
            t = np.linspace(0.0, 3.0 * traj.period, 10_001)
            x = traj.position_of_time(t)
            assert float(np.max(np.abs(x))) <= traj.turning_point * (1.0 + 1e-12)
            if isinstance(model.variant, BouncingBall):
                assert float(np.min(x)) >= 0.0


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
            ens = classical_moments_quadrature(build_ensemble(model, 1.0, SPEC), SPEC)
            for o, e in zip(oracle.fields(), ens.fields()):
                assert abs(o - e) < 1e-4

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
