"""The three bound systems, each described once: the classical side (turning
point, region, factored E - V, the ensemble's pass on a rule that integrates
it exactly, closed-form moments), the quantum side
(eigenlevels, wavefunction, moment integrands in the natural coordinate,
Robertson bound) and the exact trajectory.

Every system supplies the same members, and the engines in
`classical_ensemble`, `quantum_states` and `trajectory_oracle` use nothing
else, so a new system is one more class here.  The closed forms, the
Robertson bounds and the trajectories compute their values from the
parameters alone, never through the E - V, wavefunction or moment code they
check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import specfun

__all__ = ["BouncingBall", "HarmonicOscillator", "InfiniteWell", "PotentialModel"]


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be strictly positive and finite, got {value}")


def _points(x: Union[float, np.ndarray]) -> np.ndarray:
    """x, a float or a 1-D array, as a 1-D float array; more axes, a nan or an infinity are refused."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a float or a 1-D array, got shape {xs.shape}")
    xs = np.atleast_1d(xs)
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {xs[~np.isfinite(xs)][0].item()!r}")
    return xs


# The classical passes' fixed rules, each as (nodes, weights) on the non-negative half of a
# symmetric rule (for an integrand folded as f(t) + f(-t)) or on [0, 1]; the nodes are
# decimal literals, so that each is the correctly rounded value of its closed form.
# Gauss-Chebyshev of 4 nodes cos((2k - 1) pi/8), weights pi/4, for the weight 1/sqrt(1 - t^2):
_CHEBYSHEV_4 = (np.array([0.382683432365089771728459984030398867, 0.923879532511286756128183189396788287]),
                np.full(2, 0.25 * math.pi))
# Gauss-Legendre of 2 nodes +-1/sqrt(3), weights 1, on [-1, 1]:
_LEGENDRE_2 = (np.array([0.577350269189625764509148780501957456]), np.ones(1))
# Gauss-Legendre of 3 nodes on [0, 1], 1/2 -+ sqrt(15)/10 and 1/2, weights 5/18, 4/9 and 5/18:
_LEGENDRE_3_UNIT = (np.array([0.112701665379258311482073460021760039, 0.5, 0.887298334620741688517926539978239961]),
                    np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]))


def _ensemble_weights(scaled_x: np.ndarray, density: np.ndarray, kinetic: np.ndarray, energy: float) -> np.ndarray:
    # the classical pass's four components: 1, X, X^2 and (E - V)/E, each times `density`,
    # which is dx/sqrt(E - V) over the rule's weight
    return density * np.array([np.ones_like(scaled_x), scaled_x, scaled_x * scaled_x, kinetic / energy])


def _folded(t: np.ndarray, density: np.ndarray, kinetic: np.ndarray, energy: float) -> np.ndarray:
    # a symmetric system's components at X = t and X = -t, where E - V and `density` are the same:
    # the odd <X> terms cancel exactly, so its sum is 0 with a 0 rounding floor
    return _ensemble_weights(t, density, kinetic, energy) + _ensemble_weights(-t, density, kinetic, energy)


class _System:
    """What each system supplies.

    Classical side, at energy E with turning point A:
      ``turning_point(E)``; ``scaled_region``, the classical region in X = x/A;
      ``kinetic(E, A)``, E - V as a function of x, which the classical density reads;
      ``classical_pass(E)``, the ensemble's one integral as (f, nodes, weights):
      the weights 1, X, X^2 and (E - V)/E over sqrt(E - V), with E - V factored
      in the pass's own variable so that it stays exact next to a turning point,
      each a low-degree polynomial against the rule's weight, so that the fixed
      rule integrates them exactly; a symmetric system folds +t and -t first;
      ``closed_form``, the exact classical (<X>, <X^2>, <P^2>).
    Quantum side, for level n at hbar:
      ``name``, ``n_min`` and ``n_max`` (the highest level computed);
      ``level(n, hbar)``, E_n, whose A_n is ``turning_point(E_n)``; ``psi(level, x)``;
      ``moment_pass(level)``, the one integral in the natural coordinate,
      (f, points) adaptively from the panels between the sorted break points
      or (f, nodes, weights) by a fixed rule, and how its values become
      (<X>, <X^2>, <P^2>, <P>);
      ``x2_offset(n)``, how far the exact quantum <X^2> sits below the
      classical one; ``robertson_bound(level)``.
    Trajectory: ``trajectory(E)``, the period and x(t) and p(t) for t in [0, period), of amplitude ``turning_point(E)``.
    The bouncer's quantum members share ``airy_scales(n, hbar)``, its scaled
    energy E'_n = -a_n and gravitational length l_g = (hbar^2/(2 m^2 g))^(1/3).
    Functions of x (E - V, psi, the integrands) take and return 1-D arrays.
    """

    n_max = math.inf

    def __post_init__(self):
        _require_positive(**{f.name: getattr(self, f.name) for f in fields(self)})

    def x2_offset(self, n: int) -> float:
        return 0.0


# --- oscillator ---------------------------------------------------------------

_LN2 = math.log(2.0)
_RESCALE = 600  # the scaled recurrence is renormalized past 2^600
_RESCALE_AT = 2.0 ** _RESCALE
_HEADROOM = 400  # log2 of the growth allowed between two tests: 2^(600 + 400) stays below overflow
_NEWTON_STEPS = 8  # the Gauss-Hermite nodes settle in three
_Y_SQUARE_MAX = math.sqrt(sys.float_info.max)  # the largest |y| whose y * y is finite


def _ho_functions(n: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (phi_{n-2}, phi_{n-1}, phi_n) at each y, the orthonormal oscillator
    # states in the dimensionless y = x*sqrt(m w/hbar), with phi_{-1} =
    # phi_{-2} = 0, by phi_{k+1} = sqrt(2/(k+1)) y phi_k - sqrt(k/(k+1)) phi_{k-1}.
    # The recurrence never forms H_n, which overflows doubles from n ~ 200 on.
    half_y2 = 0.5 * y * y
    phi = math.pi ** -0.25 * np.exp(-half_y2)
    shift, every, underflows = None, n + 1, phi < sys.float_info.min
    if underflows.any():
        # Past y ~ 37.7 the start e^(-y^2/2) is subnormal or zero: such an element
        # carries phi * 2^-shift (capped where no level is representable anyway)
        # and is renormalized as the recurrence grows it.
        shift = np.where(underflows, np.ceil(np.minimum(half_y2, 1e15) / _LN2), 0.0).astype(np.int64)
        phi = np.where(shift > 0, math.pi ** -0.25 * np.exp(shift * _LN2 - half_y2), phi)
        # A step grows max(|phi_k|, |phi_(k-1)|) by at most sqrt(2) max|y| + 1, so testing
        # that pair after each `every` steps keeps it below 2^(600 + 400); an unscaled
        # element never nears 2^600, so without a shift n + 1 tests none.  Each rescale
        # is exact, so the schedule moves no bit.
        every = max(1, int(_HEADROOM / math.log2(math.sqrt(2.0) * np.fmax.reduce(np.abs(y)) + 1.0)))
    older = old = np.zeros_like(y)
    rows = max(1, (1 << 16) // max(y.size, 1))  # a_k * y by blocks of <= 512 KiB: 3 array ops a step
    for k in range(n):
        if k % rows == 0:
            steps = np.arange(k + 1.0, min(k + rows, n) + 1.0)  # k + 1 for each k of the block
            a_y, b = np.multiply.outer(np.sqrt(2.0 / steps), y), np.sqrt((steps - 1.0) / steps).tolist()
        older, old, phi = old, phi, a_y[k % rows] * phi - b[k % rows] * old
        if (k + 1) % every == 0 and (big := np.maximum(np.abs(old), np.abs(phi)) > _RESCALE_AT).any():
            older, old, phi = (np.ldexp(v, -_RESCALE * big) for v in (older, old, phi))
            shift -= _RESCALE * big
    if shift is None:  # no start underflowed: nothing to scale back
        return older, old, phi
    return np.ldexp(older, -shift), np.ldexp(old, -shift), np.ldexp(phi, -shift)


def _gauss_hermite(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite rule of `count` >= 2 nodes, ascending, with the scaled
    Christoffel weights W_i = lambda_i e^(y_i^2) = 1/(count phi_{count-1}(y_i)^2),
    so that sum_i W_i g(y_i) is the integral over the line of g = q e^(-y^2)
    for every polynomial q of degree < 2 count, and no weight underflows
    (Golub & Welsch, Math. Comp. 23, 1969; Townsend, Trogdon & Olver, IMA J.
    Numer. Anal. 36, 2016)."""
    # Seeds y = sqrt(2N+1) cos(theta), theta - sin(2 theta)/2 = 2 pi (k - 1/4)/(2N+1) for
    # the positive nodes k = 1..N/2, largest first: Newton from theta = pi/2, where the
    # left side is convex and increasing on [0, pi/2], so theta falls monotonically onto the root.
    k = np.arange(1, count // 2 + 1)
    target = 2.0 * math.pi * (k - 0.25) / (2 * count + 1)
    theta = np.full(k.size, 0.5 * math.pi)
    while True:
        step = (theta - 0.5 * np.sin(2.0 * theta) - target) / (2.0 * np.sin(theta) ** 2)
        theta -= step
        if step.max() <= 1e-13:
            break
    y = math.sqrt(2 * count + 1) * np.cos(theta)
    if count % 2:
        y = np.append(y, 0.0)  # phi_N(0) is exactly 0 for odd N, so Newton leaves this node in place
    # Newton on phi_N with phi_N' = sqrt(2N) phi_{N-1} - y phi_N: three steps from these seeds
    root = math.sqrt(2.0 * count)
    for _ in range(_NEWTON_STEPS):
        older, old, phi = _ho_functions(count, y)
        step = phi / (root * old - y * phi)
        if np.abs(step).max() <= 1e-14 * y[0]:
            break
        y -= step
    else:
        raise ArithmeticError(f"Gauss-Hermite nodes for {count} points did not converge in {_NEWTON_STEPS} Newton steps")
    # the last step moves phi_{N-1} by one Taylor term, phi_{N-1}' = sqrt(2N-2) phi_{N-2} - y phi_{N-1}
    old -= step * (math.sqrt(2.0 * count - 2.0) * older - y * old)
    y -= step
    weights = 1.0 / (count * old * old)
    half = count // 2
    return np.concatenate((-y[:half], y[::-1])), np.concatenate((weights[:half], weights[::-1]))


@dataclass(frozen=True)
class HarmonicOscillator(_System):
    m: float
    omega: float

    name = "oscillator"
    n_min = 0
    n_max = 20_000  # the rule's cost grows as n^2: 3-5 s for this level's pass on a 2-vCPU x86-64 VM
    scaled_region = (-1.0, 1.0)
    closed_form = (0.0, 0.5, 0.5)

    def turning_point(self, energy: float) -> float:
        return math.sqrt(2.0 * energy / (self.m * self.omega ** 2))

    def kinetic(self, energy: float, turning: float):
        # E - V = (1/2) m w^2 (A - x)(A + x); the factored form stays exact
        # near the turning points where E - V would cancel.
        half_mw2 = 0.5 * self.m * self.omega ** 2
        return lambda x: half_mw2 * (turning - x) * (turning + x)

    def classical_pass(self, energy: float):
        # x = A t on the arcsine weight 1/sqrt(1 - t^2): E - V = (1/2) m w^2 A^2 (1 - t^2), so each
        # weight over sqrt(E - V), times dx/dt = A and over the rule's weight, is a polynomial of
        # degree <= 2 in t, which the 4-node Gauss-Chebyshev rule integrates exactly.
        turning = self.turning_point(energy)
        half_mw2 = 0.5 * self.m * self.omega ** 2

        def integrands(t: np.ndarray) -> np.ndarray:
            s = turning * (1.0 - t)  # x = +-A t lies s = A (1 - t) from its nearer end
            kinetic = half_mw2 * s * (2.0 * turning - s)  # E - V, exact next to that end
            return _folded(t, turning * np.sqrt((1.0 - t) * (1.0 + t) / kinetic), kinetic, energy)

        return (integrands, *_CHEBYSHEV_4)

    def level(self, n: int, hbar: float) -> float:
        return (n + 0.5) * hbar * self.omega

    def psi(self, level, x: np.ndarray) -> np.ndarray:
        scale = math.sqrt(self.m * self.omega / level.model.hbar)
        with np.errstate(over="ignore"):  # an infinite y is far too
            y = scale * x
        # where y^2 overflows, psi has underflowed to 0 at every level long before
        far = np.abs(y) > _Y_SQUARE_MAX
        return math.sqrt(scale) * np.where(far, 0.0, _ho_functions(level.n, np.where(far, 0.0, y))[2])

    def moment_pass(self, level):
        n = level.n
        c1, c2 = math.sqrt(2.0 * n), 2.0 * math.sqrt(n * (n - 1.0))

        def integrands(y: np.ndarray) -> np.ndarray:
            # psi' and psi'' from the Hermite derivative recurrences
            # H_n' = 2n H_{n-1} and H_n'' = 4n(n-1) H_{n-2}, not from the
            # eigen-equation, so <P^2> is not routed through <X^2>.
            older, old, psi = _ho_functions(n, y)
            psi_prime = c1 * old - y * psi
            psi_second = c2 * older - 2.0 * y * c1 * old + (y * y - 1.0) * psi
            return np.array([y * y * psi * psi, -psi * psi_second, psi * psi_prime])

        def moments(values):
            # Each integrand is a polynomial of degree <= 2n + 2 times e^(-y^2), which
            # the rule of n + 2 nodes integrates exactly over the whole line; the odd
            # psi psi' is taken at every node, both signs, so <P> = 0 tests parity.
            x2, p2, p = values
            scale = 1.0 / (2.0 * n + 1.0)  # over the scaled A_n^2 and 2mE_n
            return 0.0, x2 * scale, p2 * scale, p / math.sqrt(2.0 * n + 1.0)

        return (integrands, *_gauss_hermite(n + 2)), moments

    def robertson_bound(self, level) -> float:
        return 1.0 / (4.0 * (2.0 * level.n + 1.0) ** 2)

    def trajectory(self, energy: float):
        m, omega = self.m, self.omega
        amplitude = self.turning_point(energy)

        def position(t: np.ndarray) -> np.ndarray:
            return amplitude * np.sin(omega * t)

        def momentum(t: np.ndarray) -> np.ndarray:
            return m * omega * amplitude * np.cos(omega * t)

        return 2.0 * math.pi / omega, position, momentum


# --- infinite well ------------------------------------------------------------


def _well_state_u(n: int, u: np.ndarray) -> np.ndarray:
    # Unit-normalized well state in u = x/(L/2) on [-1, 1]; odd n are the
    # even-parity cosines, even n the odd-parity sines.
    if n % 2 == 1:
        return np.cos(n * math.pi * u / 2.0)
    return np.sin(n * math.pi * u / 2.0)


@dataclass(frozen=True)
class InfiniteWell(_System):
    m: float
    L: float

    name = "well"
    n_min = 1
    n_max = 1_000_000  # its pass holds n panels at once: 1.1 s and 145 MB peak RSS on a 2-vCPU x86-64 VM
    scaled_region = (-1.0, 1.0)
    closed_form = (0.0, 1.0 / 3.0, 1.0)

    def turning_point(self, energy: float) -> float:
        return self.L / 2.0

    def kinetic(self, energy: float, turning: float):
        return lambda x: np.full_like(x, energy)

    def classical_pass(self, energy: float):
        # flat in x = A t: each weight over sqrt(E - V), times dx/dt = A, is a polynomial of
        # degree <= 2 in t, which the 2-node Gauss-Legendre rule integrates exactly.
        turning = self.turning_point(energy)

        def integrands(t: np.ndarray) -> np.ndarray:
            kinetic = np.full_like(t, energy)
            return _folded(t, turning / np.sqrt(kinetic), kinetic, energy)

        return (integrands, *_LEGENDRE_2)

    def level(self, n: int, hbar: float) -> float:
        return n * n * math.pi ** 2 * hbar ** 2 / (2.0 * self.m * self.L ** 2)

    def psi(self, level, x: np.ndarray) -> np.ndarray:
        half = level.turning_point  # psi is exactly 0 at the walls, not sin's residual at n pi/2
        u = np.clip(x, -half, half) / half  # an x past a wall takes the wall's u, so no x overflows it
        return np.where(np.abs(x) >= half, 0.0, math.sqrt(2.0 / self.L) * _well_state_u(level.n, u))

    def moment_pass(self, level):
        n = level.n

        # psi^2 and u^2 psi^2 are even in u: the half [0, 1], doubled, from its n
        # panels between the nodes and peaks u = k/n.  <X> and <P> vanish by
        # parity, and psi'' = -(n pi/2)^2 psi makes <P^2> the norm.
        def integrands(u: np.ndarray) -> np.ndarray:
            density = _well_state_u(n, u) ** 2
            return np.array([density, u * u * density])

        def moments(values):
            norm, x2 = values
            return 0.0, 2.0 * x2, 2.0 * norm, 0.0

        return (integrands, np.arange(n + 1) / n), moments

    def x2_offset(self, n: int) -> float:
        return 2.0 / (n * n * math.pi ** 2)

    def robertson_bound(self, level) -> float:
        return 1.0 / (level.n ** 2 * math.pi ** 2)

    def trajectory(self, energy: float):
        m, half = self.m, self.turning_point(energy)
        speed = math.sqrt(2.0 * energy / m)
        period = 2.0 * self.L / speed

        def position(t: np.ndarray) -> np.ndarray:
            # triangle wave: 0 -> L/2 -> -L/2 -> 0 over one period; u in [0.75, 1.75), u - 1 exact
            u = t / period + 0.75
            return half * (4.0 * np.abs(np.where(u >= 1.0, u - 1.0, u) - 0.5) - 1.0)

        def momentum(t: np.ndarray) -> np.ndarray:
            phase = t / period
            return m * speed * np.where((phase < 0.25) | (phase >= 0.75), 1.0, -1.0)

        return period, position, momentum


# --- bouncer ------------------------------------------------------------------

# The bouncer's pass ends at z = 9, `specfun`'s asymptotic seam: every K15 node lies
# inside it, so no abscissa reaches the positive-z branch.  For z > 0, Ai(z) <=
# e^(-zeta)/(2 sqrt(pi) z^(1/4)) with zeta = (2/3) z^(3/2) (DLMF 9.7(iv)), so the
# dropped tails of Ai^2, (z + E')Ai^2 and (z + E')^2 Ai^2 past z = 9 lie below 0.42 eps
# of their integrals Ai'(a_n)^2, (2/3)E' and (8/15)E'^2 times it (the worst case, n = 1;
# the ratio falls as n grows).
_Z_END = 9.0
_PAST_ZEROS = (0.0, 1.0, 2.0, 3.0, 4.5, 6.0, _Z_END)  # the pass's break points past a_1 ~ -2.34, where Ai decays


@dataclass(frozen=True)
class BouncingBall(_System):
    m: float
    g: float

    name = "bouncer"
    n_min = 1
    scaled_region = (0.0, 1.0)
    closed_form = (2.0 / 3.0, 8.0 / 15.0, 1.0 / 3.0)

    def turning_point(self, energy: float) -> float:
        return energy / (self.m * self.g)

    def kinetic(self, energy: float, turning: float):
        mg = self.m * self.g
        return lambda x: mg * (turning - x)

    def classical_pass(self, energy: float):
        # in u on [0, 1], where A - x = A u^2: E - V = m g A u^2 and |dx/du| = 2 A u, so each
        # weight over sqrt(E - V) is a polynomial of degree <= 4 in u (X = 1 - u^2), which the
        # 3-node Gauss-Legendre rule integrates exactly.
        turning, mg = self.turning_point(energy), self.m * self.g

        def integrands(u: np.ndarray) -> np.ndarray:
            kinetic = mg * (turning * u * u)
            return _ensemble_weights(1.0 - u * u, 2.0 * turning * u / np.sqrt(kinetic), kinetic, energy)

        return (integrands, *_LEGENDRE_3_UNIT)

    def airy_scales(self, n: int, hbar: float) -> tuple[float, float]:
        return -specfun.airy_zero(n), (hbar ** 2 / (2.0 * self.m ** 2 * self.g)) ** (1.0 / 3.0)

    def level(self, n: int, hbar: float) -> float:
        scaled_energy, grav_length = self.airy_scales(n, hbar)
        return self.m * self.g * grav_length * scaled_energy

    def psi(self, level, x: np.ndarray) -> np.ndarray:
        # N_n = 1/|Ai'(a_n)| normalizes Ai over (a_n, inf); `bouncer_state`
        # checks that identity by quadrature over (a_n, 9].
        e, lg = self.airy_scales(level.n, level.model.hbar)
        normalization = 1.0 / abs(specfun.airy_ai(-e).ai_prime)
        # x < 0 takes the floor's z, then psi = 0; Ai(z) is 0.0 in floats from z ~ 108 on, so an x
        # past z = 200 takes that z, and no x overflows it
        z = np.minimum(np.maximum(x, 0.0), lg * (e + 200.0)) / lg - e
        # psi is exactly 0 on the floor, not Ai's residual at the computed zero a_n
        return np.where(x <= 0.0, 0.0, normalization / math.sqrt(lg) * specfun.airy(z)[0])

    def moment_pass(self, level):
        # All integrals live in the shifted dimensionless coordinate on
        # (-E'_n, 9], the tail past _Z_END below rounding; the gravitational
        # length cancels throughout.  Break points: -E'_n, the asymptotic zeros a_k of Ai,
        # k = n - 1 .. 1, and 0, with one midway between each pair of neighbours, then
        # _PAST_ZEROS; the pass converges on these 2n + 6 panels at the default spec.  Past
        # -E'_n they lie on multiples of 2 ulp(E'), so each panel's centre and half-width are
        # exact and its nodes straddle the panel itself, not one shifted by the centre's rounding
        # (that shift alone moved the moments at n = 4000 by up to 4e-15).
        e = self.airy_scales(level.n, level.model.hbar)[0]
        ends = np.concatenate(([-e], specfun.asymptotic_zero(np.arange(level.n - 1, 0, -1)), _PAST_ZEROS[:1]))
        points = np.column_stack((ends[:-1], 0.5 * (ends[:-1] + ends[1:]))).ravel()
        grid = 2.0 * math.ulp(e)
        points[1:] = np.round(points[1:] / grid) * grid

        def integrands(z: np.ndarray) -> np.ndarray:
            ai, ai_prime = specfun.airy(z)
            ai_sq = ai ** 2
            return np.array([ai_sq, (z + e) * ai_sq, (z + e) ** 2 * ai_sq, ai * ai_prime])

        def moments(values):
            norm, first, second, raw_p = values
            # psi'' = z*psi by the Airy equation, so <P^2> = -(1/E') <z> in the
            # shifted coordinate; <P> is the raw integral over sqrt(E').
            mean_z_shifted = first / norm - e
            return first / (e * norm), second / (e * e * norm), -mean_z_shifted / e, raw_p / (norm * math.sqrt(e))

        return (integrands, np.concatenate((points, _PAST_ZEROS))), moments

    def robertson_bound(self, level) -> float:
        return 1.0 / (4.0 * self.airy_scales(level.n, level.model.hbar)[0] ** 3)

    def trajectory(self, energy: float):
        # launched from the floor at t = 0
        m, g = self.m, self.g
        v0 = math.sqrt(2.0 * energy / m)
        period = 2.0 * v0 / g

        def position(t: np.ndarray) -> np.ndarray:
            return v0 * t - 0.5 * g * t ** 2

        def momentum(t: np.ndarray) -> np.ndarray:
            return m * (v0 - g * t)

        return period, position, momentum


Variant = Union[HarmonicOscillator, InfiniteWell, BouncingBall]


@dataclass(frozen=True)
class PotentialModel:
    """One of the three systems plus hbar (hbar only matters quantum-side,
    but a single model object drives both realms)."""

    variant: Variant
    hbar: float = 1.0

    def __post_init__(self):
        _require_positive(hbar=self.hbar)

    @property
    def mass(self) -> float:
        return self.variant.m
