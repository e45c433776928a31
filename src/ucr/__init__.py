"""Scaled-moment uncertainty products for classical fixed-energy ensembles
and quantum stationary states of three 1D bound systems (harmonic
oscillator, infinite well, bouncing ball)."""

from .classical_ensemble import (
    ClassicalEnsemble,
    ScaledMoments,
    build_ensemble,
    classical_density,
    classical_moments_closed_form,
    classical_moments_quadrature,
)
from .quadrature import IntegralResult, QuadratureSpec
from .quantum_states import (
    BouncerState,
    EigenLevel,
    bouncer_state,
    commutator_bound,
    density_grid,
    eigen_level,
    quantum_moments_closed_form,
    quantum_moments_quadrature,
    wavefunction,
)
from .specfun import AiryValue, AiryZero, airy, airy_ai, airy_zero, hermite, hermite_prime
from .systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel
from .trajectory_oracle import Trajectory, build_trajectory, trajectory_moments

__version__ = "0.1.0"

__all__ = [
    "AiryValue",
    "AiryZero",
    "BouncerState",
    "BouncingBall",
    "ClassicalEnsemble",
    "EigenLevel",
    "HarmonicOscillator",
    "InfiniteWell",
    "IntegralResult",
    "PotentialModel",
    "QuadratureSpec",
    "ScaledMoments",
    "Trajectory",
    "airy",
    "airy_ai",
    "airy_zero",
    "bouncer_state",
    "build_ensemble",
    "build_trajectory",
    "classical_density",
    "classical_moments_closed_form",
    "classical_moments_quadrature",
    "commutator_bound",
    "density_grid",
    "eigen_level",
    "hermite",
    "hermite_prime",
    "quantum_moments_closed_form",
    "quantum_moments_quadrature",
    "trajectory_moments",
    "wavefunction",
]
