"""End-to-end acceptance checks, one test per criterion; each prints a
single PASS/FAIL line (visible with pytest -s or in failure output)."""

import math
import random
import time

import numpy as np

from ucr.classical_ensemble import (
    build_ensemble,
    classical_moments_closed_form,
    classical_moments_quadrature,
)
from ucr.cli_report import EXIT_OK, EXIT_PARITY, EXIT_USAGE, main
from ucr.quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    integrate_singular_endpoints,
)
from ucr.quantum_states import (
    bouncer_state,
    commutator_bound,
    eigen_level,
    quantum_moments_quadrature,
)
from ucr.specfun import airy_ai, airy_zero
from ucr.systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel
from ucr.trajectory_oracle import build_trajectory, trajectory_moments

HO = PotentialModel(HarmonicOscillator(m=1.0, omega=1.0))
WELL = PotentialModel(InfiniteWell(m=1.0, L=1.0))
BALL = PotentialModel(BouncingBall(m=1.0, g=1.0))
SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)

CLASSICAL_TARGETS = {
    "ho": (0.0, 0.5, 0.0, 0.5),
    "well": (0.0, 1.0 / 3.0, 0.0, 1.0),
    "bouncer": (2.0 / 3.0, 8.0 / 15.0, 0.0, 1.0 / 3.0),
}


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}" + (f" -- {failures[0]}" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_criterion_01_oscillator_parity():
    failures = []
    for n in (0, 1, 2, 5, 10, 20):
        got = quantum_moments_quadrature(eigen_level(HO, n), SPEC)
        devs = [abs(g - w) for g, w in zip(
            (got.mean_x, got.mean_x2, got.mean_p, got.mean_p2), (0.0, 0.5, 0.0, 0.5))]
        devs.append(abs(got.product - 0.25))
        if max(devs) > 1e-9:
            failures.append(f"quantum n={n}: max dev {max(devs):.3e}")
    rng = random.Random(1)
    for _ in range(5):
        model = PotentialModel(HarmonicOscillator(m=rng.uniform(0.1, 10.0), omega=rng.uniform(0.1, 10.0)))
        got = classical_moments_quadrature(build_ensemble(model, rng.uniform(0.1, 10.0), SPEC))
        devs = [abs(g - w) for g, w in zip(
            (got.mean_x, got.mean_x2, got.mean_p, got.mean_p2), (0.0, 0.5, 0.0, 0.5))]
        if max(devs) > 1e-9:
            failures.append(f"classical {model.variant}: max dev {max(devs):.3e}")
    _report("criterion 01: oscillator parity", failures)


def test_criterion_02_oscillator_ground_state_saturation():
    failures = []
    level = eigen_level(HO, 0)
    product = quantum_moments_quadrature(level, SPEC).product
    bound = commutator_bound(level)
    if abs(product - 0.25) > 1e-12:
        failures.append(f"product {product!r}")
    if abs(bound - 0.25) > 1e-12:
        failures.append(f"bound {bound!r}")
    _report("criterion 02: oscillator ground-state saturation", failures)


def test_criterion_03_well_second_moment_formula():
    failures = []
    for n in range(1, 51):
        got = quantum_moments_quadrature(eigen_level(WELL, n), SPEC)
        expected = 1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2)
        if abs(got.mean_x2 - expected) > 1e-10:
            failures.append(f"n={n}: <X^2> dev {abs(got.mean_x2 - expected):.3e}")
        if abs(got.mean_p2 - 1.0) > 1e-10:
            failures.append(f"n={n}: <P^2> dev {abs(got.mean_p2 - 1.0):.3e}")
    _report("criterion 03: well second-moment formula", failures)


def test_criterion_04_well_large_n_limit():
    failures = []
    got = quantum_moments_quadrature(eigen_level(WELL, 1000), SPEC)
    dev = abs(got.product - 1.0 / 3.0)
    if not dev < 2.1e-7:
        failures.append(f"|product - 1/3| = {dev:.3e}")
    _report("criterion 04: well large-n limit", failures)


def test_criterion_05_well_classical_product():
    failures = []
    rng = random.Random(2)
    for _ in range(10):
        model = PotentialModel(InfiniteWell(m=rng.uniform(0.1, 10.0), L=rng.uniform(0.1, 10.0)))
        got = classical_moments_quadrature(build_ensemble(model, rng.uniform(0.1, 10.0), SPEC))
        if abs(got.product - 1.0 / 3.0) > 1e-10:
            failures.append(f"{model.variant}: dev {abs(got.product - 1.0 / 3.0):.3e}")
    _report("criterion 05: well classical product", failures)


def test_criterion_06_airy_zero_table():
    failures = []
    table = {1: 2.3381, 2: 4.0879, 3: 5.5206, 4: 6.7867, 5: 7.9441}
    for n, expected in table.items():
        got = airy_zero(n).scaled_energy
        if abs(got - expected) > 5e-5:
            failures.append(f"n={n}: got {got:.9f}, table {expected}, dev {abs(got - expected):.3e}")
    for n in range(1, 51):
        residual = abs(airy_ai(airy_zero(n).value).ai)
        if residual > 1e-12:
            failures.append(f"n={n}: |Ai(a_n)| = {residual:.3e}")
    _report("criterion 06: Airy zero table", failures)


def test_criterion_07_bouncer_classical():
    failures = []
    got = classical_moments_quadrature(build_ensemble(BALL, 1.0, SPEC))
    want = CLASSICAL_TARGETS["bouncer"]
    devs = [abs(g - w) for g, w in zip((got.mean_x, got.mean_x2, got.mean_p, got.mean_p2), want)]
    devs.append(abs(got.product - 4.0 / 135.0))
    if max(devs) > 1e-9:
        failures.append(f"quadrature max dev {max(devs):.3e}")
    closed = classical_moments_closed_form(BALL)
    devs = [abs(g - w) for g, w in zip((closed.mean_x, closed.mean_x2, closed.mean_p, closed.mean_p2), want)]
    if max(devs) > 1e-9:
        failures.append(f"closed-form max dev {max(devs):.3e}")
    _report("criterion 07: bouncer classical moments", failures)


def test_criterion_08_bouncer_quantum():
    failures = []
    start = time.perf_counter()
    for n in range(1, 6):
        got = quantum_moments_quadrature(eigen_level(BALL, n), SPEC)
        devs = [abs(g - w) for g, w in zip(
            (got.mean_x, got.mean_x2, got.mean_p, got.mean_p2), CLASSICAL_TARGETS["bouncer"])]
        devs.append(abs(got.product - 4.0 / 135.0))
        if max(devs) > 1e-6:
            failures.append(f"n={n}: max dev {max(devs):.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s")
    _report("criterion 08: bouncer quantum moments", failures)


def test_criterion_09_bouncer_normalization_identity():
    failures = []
    for n in range(1, 11):
        level = eigen_level(BALL, n)
        identity = bouncer_state(level, SPEC).normalization * abs(airy_ai(airy_zero(n).value).ai_prime)
        if abs(identity - 1.0) > 1e-8:
            failures.append(f"n={n}: dev {abs(identity - 1.0):.3e}")
    _report("criterion 09: bouncer normalization identity", failures)


def test_criterion_10_robertson_bounds():
    failures = []
    cases = (
        [(HO, n) for n in (0, 1, 2, 5, 10, 20)]
        + [(WELL, n) for n in range(1, 51)]
        + [(BALL, n) for n in range(1, 11)]
    )
    for model, n in cases:
        level = eigen_level(model, n)
        product = quantum_moments_quadrature(level, SPEC).product
        bound = commutator_bound(level)
        if not product >= bound - 1e-12:
            failures.append(f"{type(model.variant).__name__} n={n}: product {product!r} < bound {bound!r}")
    e1 = airy_zero(1).scaled_energy
    b1 = commutator_bound(eigen_level(BALL, 1))
    if abs(b1 - 1.0 / (4.0 * e1 ** 3)) > 1e-15 or not b1 < 4.0 / 135.0:
        failures.append(f"bouncer n=1 bound {b1!r}")
    _report("criterion 10: Robertson bounds", failures)


def test_criterion_11_trajectory_oracle_equivalence():
    failures = []
    for name, model in (("ho", HO), ("well", WELL), ("bouncer", BALL)):
        oracle = trajectory_moments(build_trajectory(model, 1.0), 1_000_000)
        ens = classical_moments_quadrature(build_ensemble(model, 1.0, SPEC))
        dev = max(abs(o - e) for o, e in zip(oracle.fields(), ens.fields()))
        if dev > 1e-4:
            failures.append(f"{name}: max dev {dev:.3e}")
    _report("criterion 11: trajectory-oracle equivalence", failures)


def test_criterion_12_scale_invariance():
    failures = []
    rng = random.Random(3)
    base = {
        name: classical_moments_quadrature(build_ensemble(model, 1.0, SPEC))
        for name, model in (("ho", HO), ("well", WELL), ("bouncer", BALL))
    }
    for _ in range(50):
        m = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        e = rng.uniform(0.1, 10.0)
        draws = {
            "ho": PotentialModel(HarmonicOscillator(m=m, omega=a)),
            "well": PotentialModel(InfiniteWell(m=m, L=a)),
            "bouncer": PotentialModel(BouncingBall(m=m, g=a)),
        }
        for name, model in draws.items():
            got = classical_moments_quadrature(build_ensemble(model, e, SPEC))
            dev = max(abs(g - b) for g, b in zip(got.fields(), base[name].fields()))
            if dev > 1e-9:
                failures.append(f"{name} (m={m:.3f}, a={a:.3f}, E={e:.3f}): dev {dev:.3e}")
    _report("criterion 12: scale invariance", failures)


def test_criterion_13_quadrature_unit_suite():
    failures = []
    # the singular rule takes the integrand as functions of the distance
    # from the left and from the right end
    r = integrate_singular_endpoints(lambda s: 1.0 / np.sqrt(s), lambda s: 1.0 / np.sqrt(1.0 - s), 0.0, 1.0, SPEC)
    if abs(r.value - 2.0) > 1e-10:
        failures.append(f"x^(-1/2): dev {abs(r.value - 2.0):.3e}")

    def arcsine(s):
        return 1.0 / np.sqrt(s * (2.0 - s))

    r = integrate_singular_endpoints(arcsine, arcsine, -1.0, 1.0, SPEC)
    if abs(r.value - math.pi) > 1e-10:
        failures.append(f"arcsine: dev {abs(r.value - math.pi):.3e}")
    r = integrate_semi_infinite(lambda x: x * x * np.exp(-x * x), 0.0, SPEC)
    if abs(2.0 * r.value - math.sqrt(math.pi) / 2.0) > 1e-10:
        failures.append(f"Gaussian moment: dev {abs(2.0 * r.value - math.sqrt(math.pi) / 2.0):.3e}")
    _report("criterion 13: quadrature unit suite", failures)


def test_criterion_14_cli_contract(capsys, tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    failures = []

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    cases = [
        (("compare", "--system", "ho", "--n", "0,1"), "compare_ho_n01.csv"),
        (("density", "--system", "well", "--n", "2", "--points", "5"), "density_well_n2_p5.csv"),
        (("airy-zeros", "--count", "5"), "airy_zeros_5.csv"),
    ]
    for argv, golden_name in cases:
        code, out = run(*argv)
        if code != EXIT_OK:
            failures.append(f"{argv}: exit {code}")
        elif out != (golden / golden_name).read_text():
            failures.append(f"{argv}: output differs from {golden_name}")

    exit_matrix = [
        (("compare", "--system", "ho", "--n", "0"), EXIT_OK),
        (("compare", "--system", "bouncer", "--n", "3", "--quad-tol", "1e-6", "--tol", "0"), EXIT_PARITY),
        (("compare", "--system", "well", "--n", "0"), EXIT_USAGE),
        (("compare", "--system", "nosuch"), EXIT_USAGE),
        (("verify", "--system", "well", "--samples", "100"), EXIT_PARITY),
        (("verify", "--system", "ho"), EXIT_OK),
    ]
    for argv, expected in exit_matrix:
        code, _ = run(*argv)
        if code != expected:
            failures.append(f"{argv}: exit {code}, expected {expected}")
    _report("criterion 14: CLI contract", failures)
