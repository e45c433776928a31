"""Command-line front end: parity tables (classical vs quantum vs bound),
density grids for plotting, Airy-zero tables, and the trajectory-oracle
check.  Emits CSV or JSON; the exit code encodes the verdict:

    0   all checks passed
    1   computation error
    2   parity / verification failure
    64  usage error
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable, Optional, Sequence

from .classical_ensemble import ScaledMoments, build_ensemble, classical_moments_quadrature
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .quantum_states import (
    commutator_bound,
    density_grid,
    eigen_level,
    quantum_moments_quadrature,
)
from .specfun import airy_zero
from .systems import BouncingBall, HarmonicOscillator, InfiniteWell, PotentialModel
from .trajectory_oracle import build_trajectory, trajectory_moments

__all__ = ["main"]

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_PARITY = 2
EXIT_USAGE = 64

COMPARE_HEADER = ",".join(
    ("system", "n", "realm", "method", *ScaledMoments.FIELD_NAMES, "product", "bound", "parity_ok")
)

_MODELS = {
    "ho": PotentialModel(HarmonicOscillator(m=1.0, omega=1.0)),
    "well": PotentialModel(InfiniteWell(m=1.0, L=1.0)),
    "bouncer": PotentialModel(BouncingBall(m=1.0, g=1.0)),
}


class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.11e}"  # 12 significant digits, lowercase exponent


def parse_n_list(text: str) -> Sequence[int]:
    """Accepts '0,1,5,20' or '1..5'; a range stays a `range`, unbuilt."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse n selector {text!r}") from None
    if not values:
        raise UsageError("empty n selector")
    return values


def _render(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """CSV with a header line, or a JSON list of records.  Floats arrive
    formatted; ints and bools print as they are (bools as true/false)."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(("true" if v else "false") if isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# --- the commands: each takes its merged options and returns (output, ok) ---


def run_compare(options: dict) -> tuple[str, bool]:
    """classical vs quantum parity table"""
    system, n_list = options["system"], options["n"]
    model, spec = _MODELS[system], QuadratureSpec(options["quad-tol"])
    try:  # every level is checked before any is computed, a range by its two ends
        for n in (n_list[0], n_list[-1]) if isinstance(n_list, range) else n_list:
            eigen_level(model, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:  # built whole: a range too long for memory fails at once, not level after level
        levels = list(n_list)
    except (OverflowError, MemoryError):  # longer than sys.maxsize, or than memory holds
        raise UsageError(f"n selector {n_list.start}..{n_list.stop - 1} has too many levels to build") from None
    cells, ok = [], True
    for n in levels:
        level = eigen_level(model, n)
        try:
            classical = classical_moments_quadrature(build_ensemble(model, level.energy, spec))
            quantum = quantum_moments_quadrature(level, spec)
            bound = commutator_bound(level)
        except (ArithmeticError, RuntimeError) as exc:
            raise RuntimeError(f"{system} n={n}: {exc}") from exc
        # Parity allows for the documented finite-n deviation of the quantum
        # <X^2> (the well's 2/(n^2 pi^2)); the other moments must agree.
        expected = replace(classical, mean_x2=classical.mean_x2 - model.variant.x2_offset(n))
        parity_ok = max(abs(c - q) for c, q in zip(expected.fields(), quantum.fields())) < options["tol"]
        ok = ok and parity_ok
        for moments in (classical, quantum):
            values = tuple(_fmt(v) for v in moments.fields() + (moments.product, bound))
            cells.append((system, n, moments.realm, moments.method) + values + (parity_ok,))
    return _render(COMPARE_HEADER.split(","), cells, options["format"]), ok


def run_density(options: dict) -> tuple[str, bool]:
    """quantum and classical density grid"""
    if options["n"][1:]:  # a level past the first; a range's slice is tested without its length
        raise UsageError("density needs exactly one quantum number")
    model = _MODELS[options["system"]]
    try:
        rows = density_grid(eigen_level(model, options["n"][0]), options["points"])
    except ValueError as exc:  # a bad level, or too few points to clip a singular endpoint
        raise UsageError(str(exc)) from exc
    cells = [(_fmt(x), _fmt(qm), _fmt(cl), int(clipped)) for x, qm, cl, clipped in rows]
    return _render(("x_scaled", "p_qm", "p_cl", "clipped_flag"), cells, options["format"]), True


def run_airy_zeros(options: dict) -> tuple[str, bool]:
    """table of scaled bouncer eigenvalues"""
    cells = [(n, f"{-airy_zero(n):.9e}") for n in range(1, options["count"] + 1)]  # 10 significant digits
    return _render(("n", "scaled_energy"), cells, options["format"]), True


def run_verify(options: dict) -> tuple[str, bool]:
    """trajectory-oracle check of the classical moments"""
    model = _MODELS[options["system"]]
    try:
        reference = classical_moments_quadrature(build_ensemble(model, 1.0, QuadratureSpec(options["quad-tol"])))
    except RuntimeError as exc:
        raise RuntimeError(f"{options['system']}: {exc}") from exc
    oracle = trajectory_moments(build_trajectory(model, 1.0), options["samples"])
    rows = []
    ok = True
    for name, ref, got in zip(ScaledMoments.FIELD_NAMES, reference.fields(), oracle.fields()):
        dev = abs(ref - got)
        ok = ok and dev < options["tol"]
        rows.append((name, _fmt(ref), _fmt(got), _fmt(dev)))
    return _render(("field", "quadrature", "trajectory", "abs_dev"), rows, options["format"]), ok


# --- options: one table, one merge -----------------------------------------


def _checked(parse: Callable[[str], object], ok=lambda value: True, need: str = "") -> Callable[[str], object]:
    """A converter that parses the text and checks the value."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, UsageError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    return convert


def _writable(path: str) -> bool:
    return not os.path.isdir(path) and os.path.isdir(os.path.dirname(path) or ".")


# Every option by its config key; its flag is --<key>.  argparse's type= and
# the config-file reader call the same converter, so both are checked alike.
_OPTIONS: dict[str, Callable[[str], object]] = {
    "system": _checked(str, _MODELS.__contains__, "ho, well or bouncer"),
    "n": _checked(parse_n_list),
    # each point costs about 5 us and 0.75 KB, its row and its text, so this ceiling's grid
    # takes 5 s and 780 MB peak RSS on a 2-vCPU x86-64 VM
    "points": _checked(int, lambda v: 2 <= v <= 1_000_000, ">= 2 and <= 1000000"),
    # the oracle's memory is one block whatever the count, so the count bounds
    # only its time: 13-50 ns per sample, under a minute at this ceiling
    "samples": _checked(int, lambda v: 2 <= v <= 1_000_000_000, ">= 2 and <= 1000000000"),
    "tol": _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    # the spec's relative tolerance, 100 quad-tol (`quadrature`), must be finite; 1e300 keeps it so
    "quad-tol": _checked(float, lambda v: 0.0 < v <= 1e300, "> 0 and <= 1e+300"),
    "format": _checked(str, ("csv", "json").__contains__, "csv or json"),
    "out": _checked(str, _writable, "a file path in an existing directory"),
}

# command -> (runner, the options it reads with their defaults); every
# command also reads the _COMMON options and --config.
_COMMANDS = {
    "compare": (run_compare, {"system": "ho", "n": (1,), "tol": 1e-6, "quad-tol": DEFAULT_SPEC.quad_tol}),
    "density": (run_density, {"system": "ho", "n": (1,), "points": 101}),
    "airy-zeros": (run_airy_zeros, {}),
    "verify": (run_verify, {"system": "ho", "samples": 1_000_000, "tol": 1e-4, "quad-tol": DEFAULT_SPEC.quad_tol}),
}
_COMMON = {"format": "csv", "out": None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ucr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, defaults) in _COMMANDS.items():
        # a flag left off the command line stays out of the namespace
        p = sub.add_parser(command, help=run.__doc__, argument_default=argparse.SUPPRESS)
        for key in {**defaults, **_COMMON}:
            p.add_argument(f"--{key}", dest=key, type=_OPTIONS[key])
        p.add_argument("--config")
    # a flag only, not a config key.  Each zero costs about 24 us and 0.4 KB, its Newton solve and its
    # row, so this ceiling's table takes 2.8 s and 73 MB peak RSS on a 2-vCPU x86-64 VM
    count = _checked(int, lambda v: 1 <= v <= 100_000, ">= 1 and <= 100000")
    sub.choices["airy-zeros"].add_argument("--count", type=count, default=5)
    return parser


def _read_config_file(path: str) -> dict[str, object]:
    """Every key=value line, converted and checked whichever command runs."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        key = key.strip()
        if not sep:
            raise UsageError(f"bad config line (expected key=value): {line!r}")
        if key not in _OPTIONS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = _OPTIONS[key](text.strip())
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"bad config value for {key}: {exc}") from exc
    return values


def _options(args: argparse.Namespace) -> dict:
    """The command's options: flags over config-file values over defaults."""
    flags = dict(vars(args))
    defaults = {**_COMMANDS[flags.pop("command")][1], **_COMMON}
    path = flags.pop("config", None) or os.environ.get("UCR_CONFIG")
    from_file = _read_config_file(path) if path else {}
    return {**defaults, **{key: value for key, value in from_file.items() if key in defaults}, **flags}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        options = _options(args)
        text, ok = _COMMANDS[args.command][0](options)
        _emit(text, options["out"])
        return EXIT_OK if ok else EXIT_PARITY
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # computation failure
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no message
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
