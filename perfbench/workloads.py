"""Seeded workloads of the ucr benchmark and the benchmark's own output checks.

A workload is an endless stream of decks. A deck holds one operation per
band; the seed picks the value inside each band and the order of the deck, so
every seed runs the same mix of bands. A band hands out its values in seeded
shuffled rounds, so over a run each value comes up about equally often
whatever the seed.

The bands are laid out so that the latency quantiles the benchmark reports
do not sit in a gap between bands, where they would jump with the seed. A
scan deck holds 15 operations and the session's five bands hold 15 levels;
with the bands' costs in order, the median and the 90th percentile fall on
the middle value of the 8th and the 14th costliest band.

The checks hold their own references and never call the package's closed
forms or Robertson bounds, which are part of what is being checked.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from typing import Iterator

import ucr
from ucr import cli_report, specfun

# Reference products Var(X)*Var(P); the well's quantum product depends on n.
_PRODUCT = {"ho": 0.25, "bouncer": 4.0 / 135.0, "well": 1.0 / 3.0}
# An output further than this from its reference counts as a failed operation.
PRODUCT_REL_TOL = 1e-8
ZERO_REL_TOL = 1e-9  # airy-zeros prints 10 significant digits
# Relative errors are floored here so that an exact output reads 16 digits.
_REL_ERR_FLOOR = 1e-16

# bouncer-scan: twelve compare bands over n = 1..36, two density grids and
# one airy-zeros table.
_BOUNCER_N_BANDS = [range(lo, lo + 3) for lo in range(1, 37, 3)]
_BOUNCER_DENSITY_N = range(1, 10)
_BOUNCER_DENSITY_POINTS = range(51, 102, 10)
_ZERO_COUNT = range(5, 31)
# ho-well-scan: seven oscillator bands over n = 0..40, five well bands on a
# log-spaced grid up to n = 1000, and one verify per system. The verify
# sample count keeps its arrays in cache: at the default million samples,
# memory traffic made their time swing with the host's load far more than
# the rest of the workload, and the speed probe cannot follow that.
_HO_N_BANDS = [range(lo, lo + 5) for lo in range(0, 20, 5)] + [range(lo, lo + 7) for lo in range(20, 41, 7)]
_WELL_N_BANDS = [(1, 2, 3), (6, 10, 18), (32, 56, 100), (178, 316, 422), (562, 750, 1000)]
_VERIFY_SAMPLES = 100_000
# bouncer-session: five bands over levels 1..15, each revisited deck after deck.
_SESSION_LEVEL_BANDS = [range(lo, lo + 3) for lo in range(1, 16, 3)]
_SESSION_POINTS = range(41, 82, 8)
_SESSION_WAVEFUNCTION_POINTS = 4
_SESSION_X_FRACTION = (0.02, 1.2)  # of the turning point; past 1 is the tail


@dataclass(frozen=True)
class Op:
    """One operation: a `ucr` command line, or one library call set on a
    bouncer level (`level`, grid `points`, wavefunction `x_fractions`)."""

    argv: tuple[str, ...] = ()
    level: int = 0
    points: int = 0
    x_fractions: tuple[float, ...] = ()

    def record(self):
        if self.argv:
            return ["ucr", *self.argv]
        return {"level": self.level, "points": self.points, "x_fractions": list(self.x_fractions)}


@dataclass
class Outcome:
    ok: bool
    digits: list[float]  # -log10 relative error of each checked product
    reason: str
    # digest of the exact output, to compare traced and untraced runs without
    # holding every output (and its memory) for the length of the run
    digest: str = ""


def _rounds(rng: random.Random, band) -> Iterator[int]:
    values = list(band)
    while True:
        rng.shuffle(values)
        yield from values


def decks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's endless stream of decks for this seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "bouncer-scan":
        compare_n = [_rounds(rng, band) for band in _BOUNCER_N_BANDS]
        density_n = _rounds(rng, _BOUNCER_DENSITY_N)
        density_points = _rounds(rng, _BOUNCER_DENSITY_POINTS)
        zero_count = _rounds(rng, _ZERO_COUNT)
        while True:
            deck = [Op(("compare", "--system", "bouncer", "--n", str(next(n)))) for n in compare_n]
            deck += [
                Op(("density", "--system", "bouncer", "--n", str(next(density_n)), "--points", str(next(density_points))))
                for _ in range(2)
            ]
            deck.append(Op(("airy-zeros", "--count", str(next(zero_count)))))
            rng.shuffle(deck)
            yield deck
    elif workload == "ho-well-scan":
        ho_n = [_rounds(rng, band) for band in _HO_N_BANDS]
        well_n = [_rounds(rng, band) for band in _WELL_N_BANDS]
        while True:
            deck = [Op(("compare", "--system", "ho", "--n", str(next(n)))) for n in ho_n]
            deck += [Op(("compare", "--system", "well", "--n", str(next(n)))) for n in well_n]
            deck += [
                Op(("verify", "--system", system, "--samples", str(_VERIFY_SAMPLES))) for system in ("ho", "well", "bouncer")
            ]
            rng.shuffle(deck)
            yield deck
    elif workload == "bouncer-session":
        levels = [_rounds(rng, band) for band in _SESSION_LEVEL_BANDS]
        points = _rounds(rng, _SESSION_POINTS)
        while True:
            deck = [
                Op(
                    level=next(n),
                    points=next(points),
                    x_fractions=tuple(
                        rng.uniform(*_SESSION_X_FRACTION) for _ in range(_SESSION_WAVEFUNCTION_POINTS)
                    ),
                )
                for n in levels
            ]
            rng.shuffle(deck)
            yield deck
    else:
        raise ValueError(f"unknown workload {workload!r}")


def clears_caches(workload: str) -> bool:
    """Scan workloads stand for separate `ucr` processes, each starting cold."""
    return workload != "bouncer-session"


def clear_caches() -> None:
    specfun.airy_ai.cache_clear()
    specfun.airy_zero.cache_clear()


class Checker:
    """Runs operations and checks their outputs against the benchmark's own
    references. Airy-zero references come from mpmath, computed once here so
    the timed region never pays for them."""

    def __init__(self, workload: str):
        self._zeros: list[float] = []
        if workload == "bouncer-scan":
            import mpmath

            self._zeros = [-float(mpmath.airyaizero(k)) for k in range(1, max(_ZERO_COUNT) + 1)]
        self._model = ucr.PotentialModel(ucr.BouncingBall(m=1.0, g=1.0))

    def run(self, op: Op) -> object:
        """Execute the operation and return its raw output; this is the timed part."""
        if op.argv:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_report.main(list(op.argv))
            return code, out.getvalue(), err.getvalue()
        level = ucr.eigen_level(self._model, op.level)
        moments = ucr.quantum_moments_quadrature(level)
        grid = ucr.density_grid(level, op.points)
        psi = [ucr.wavefunction(level, f * level.turning_point) for f in op.x_fractions]
        return moments, grid, psi

    def check(self, op: Op, output: object) -> Outcome:
        try:
            if op.argv:
                ok, digits, reason = self._check_cli(op, *output)
            else:
                ok, digits, reason = self._check_session(op, *output)
        except (ValueError, IndexError, KeyError) as exc:
            ok, digits, reason = False, [], f"unparsable output: {exc}"
        return Outcome(ok, digits, reason, hashlib.sha256(repr(output).encode()).hexdigest())

    def _check_cli(self, op: Op, code: int, out: str, err: str) -> tuple[bool, list[float], str]:
        if code != 0:
            return False, [], f"exit {code}: {err.strip()}"
        rows = list(csv.DictReader(io.StringIO(out)))
        command = op.argv[0]
        opts = dict(zip(op.argv[1::2], op.argv[2::2]))
        if command == "compare":
            digits = []
            for row in rows:
                got = float(row["product"])
                want = _reference_product(row["system"], row["realm"], int(row["n"]))
                digits.append(_digits(got, want))
                if row["parity_ok"] != "true" or not _close(got, want, PRODUCT_REL_TOL):
                    return False, digits, f"product {got!r} vs {want!r} in {row}"
            if len(rows) != 2:
                return False, digits, f"expected 2 rows, got {len(rows)}"
            return True, digits, ""
        if command == "density":
            if len(rows) != int(opts["--points"]):
                return False, [], f"expected {opts['--points']} rows, got {len(rows)}"
            for row in rows:
                if not (_finite_non_negative(float(row["p_qm"])) and _finite_non_negative(float(row["p_cl"]))):
                    return False, [], f"bad density {row}"
            return True, [], ""
        if command == "airy-zeros":
            if len(rows) != int(opts["--count"]):
                return False, [], f"expected {opts['--count']} zeros, got {len(rows)}"
            for row in rows:
                got, want = float(row["scaled_energy"]), self._zeros[int(row["n"]) - 1]
                if not _close(got, want, ZERO_REL_TOL):
                    return False, [], f"zero {row['n']}: {got!r} vs {want!r}"
            return True, [], ""
        if command == "verify":
            devs = [float(row["abs_dev"]) for row in rows]
            if len(devs) != 6 or not all(math.isfinite(d) for d in devs):
                return False, [], f"bad verify report {out!r}"
            return True, [], ""
        return False, [], f"no check for command {command!r}"

    def _check_session(self, op: Op, moments, grid, psi) -> tuple[bool, list[float], str]:
        want = _PRODUCT["bouncer"]
        digits = [_digits(moments.product, want)]
        if not _close(moments.product, want, PRODUCT_REL_TOL):
            return False, digits, f"product {moments.product!r} vs {want!r}"
        if len(grid) != op.points:
            return False, digits, f"expected {op.points} grid rows, got {len(grid)}"
        for _, p_qm, p_cl, _ in grid:
            if not (_finite_non_negative(p_qm) and _finite_non_negative(p_cl)):
                return False, digits, f"bad density row ({p_qm!r}, {p_cl!r})"
        if not all(math.isfinite(v) for v in psi):
            return False, digits, f"non-finite wavefunction {psi!r}"
        return True, digits, ""


def _reference_product(system: str, realm: str, n: int) -> float:
    if system == "well" and realm == "quantum":
        return 1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2)
    return _PRODUCT[system]


def _close(got: float, want: float, rel_tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel_tol * abs(want)


def _digits(got: float, want: float) -> float:
    if not math.isfinite(got):
        return 0.0
    return -math.log10(max(abs(got - want) / abs(want), _REL_ERR_FLOOR))


def _finite_non_negative(value: float) -> bool:
    return math.isfinite(value) and value >= 0.0
