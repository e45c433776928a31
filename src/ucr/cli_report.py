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
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .classical_ensemble import (
    BouncingBall,
    HarmonicOscillator,
    InfiniteWell,
    PotentialModel,
    ScaledMoments,
    build_ensemble,
    classical_moments_quadrature,
)
from .quadrature import QuadratureSpec
from .quantum_states import (
    commutator_bound,
    density_grid,
    eigen_level,
    quantum_moments_quadrature,
)
from .specfun import airy_zero
from .trajectory_oracle import build_trajectory, trajectory_moments

__all__ = ["ComparisonRow", "RunConfig", "main"]

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_PARITY = 2
EXIT_USAGE = 64

COMPARE_HEADER = (
    "system,n,realm,method,mean_x,mean_x2,mean_p,mean_p2,var_x,var_p,product,bound,parity_ok"
)

_MODELS = {
    "ho": PotentialModel(HarmonicOscillator(m=1.0, omega=1.0)),
    "well": PotentialModel(InfiniteWell(m=1.0, L=1.0)),
    "bouncer": PotentialModel(BouncingBall(m=1.0, g=1.0)),
}
_SYSTEMS = tuple(_MODELS)
_MOMENT_FIELDS = ("mean_x", "mean_x2", "mean_p", "mean_p2", "var_x", "var_p")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ComparisonRow:
    system: str
    n: int
    classical: ScaledMoments
    quantum: ScaledMoments
    bound: float
    max_abs_dev: float
    parity_ok: bool


@dataclass
class RunConfig:
    system: str = "ho"
    n_list: list[int] = field(default_factory=lambda: [1])
    points: int = 101
    samples: int = 1_000_000
    tol: Optional[float] = None  # parity/verify tolerance; per-command default
    quad_tol: float = 1e-12
    fmt: str = "csv"
    out: Optional[str] = None

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(abs_tol=self.quad_tol, rel_tol=100.0 * self.quad_tol)


def _fmt(value: float) -> str:
    return f"{value:.11e}"  # 12 significant digits, lowercase exponent


def parse_n_list(text: str) -> list[int]:
    """Accepts '0,1,5,20' or '1..5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse n selector {text!r}") from None
    if not values:
        raise UsageError("empty n selector")
    return values


def compare_rows(config: RunConfig) -> list[ComparisonRow]:
    model = _MODELS[config.system]
    spec = config.quad_spec()
    rows = []
    for n in config.n_list:
        try:
            level = eigen_level(model, n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        classical = classical_moments_quadrature(build_ensemble(model, level.energy, spec), spec)
        quantum = quantum_moments_quadrature(level, spec)
        bound = commutator_bound(level)
        # Parity allows for the documented finite-n deviation of the quantum
        # <X^2> (the well's 2/(n^2 pi^2)); the other moments must agree.
        expected = replace(classical, mean_x2=classical.mean_x2 - model.variant.x2_offset(n))
        max_abs_dev = max(abs(c - q) for c, q in zip(expected.fields(), quantum.fields()))
        rows.append(ComparisonRow(config.system, n, classical, quantum, bound, max_abs_dev, max_abs_dev < config.tol))
    return rows


def _render(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """CSV with a header line, or a JSON list of records.  Floats arrive
    formatted; ints and bools print as they are (bools as true/false)."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(("true" if v else "false") if isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def render_compare(rows: Sequence[ComparisonRow], fmt: str) -> str:
    cells = [
        (row.system, row.n, moments.realm, moments.method)
        + tuple(_fmt(v) for v in moments.fields() + (moments.product, row.bound))
        + (row.parity_ok,)
        for row in rows
        for moments in (row.classical, row.quantum)
    ]
    return _render(COMPARE_HEADER.split(","), cells, fmt)


def render_density(config: RunConfig) -> str:
    if len(config.n_list) != 1:
        raise UsageError("density needs exactly one quantum number")
    model = _MODELS[config.system]
    try:
        rows = density_grid(eigen_level(model, config.n_list[0]), config.points)
    except ValueError as exc:  # a bad level, or too few points to clip a singular endpoint
        raise UsageError(str(exc)) from exc
    cells = [(_fmt(x), _fmt(qm), _fmt(cl), int(clipped)) for x, qm, cl, clipped in rows]
    return _render(("x_scaled", "p_qm", "p_cl", "clipped_flag"), cells, config.fmt)


def render_airy_zeros(count: int, fmt: str) -> str:
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    zeros = [airy_zero(n) for n in range(1, count + 1)]
    # 10 significant digits
    return _render(("n", "scaled_energy"), [(z.index, f"{z.scaled_energy:.9e}") for z in zeros], fmt)


def run_verify(config: RunConfig) -> tuple[str, bool]:
    model = _MODELS[config.system]
    spec = config.quad_spec()
    reference = classical_moments_quadrature(build_ensemble(model, 1.0, spec), spec)
    oracle = trajectory_moments(build_trajectory(model, 1.0), config.samples, "midpoint")
    rows = []
    ok = True
    for name in _MOMENT_FIELDS:
        ref = getattr(reference, name)
        got = getattr(oracle, name)
        dev = abs(ref - got)
        ok = ok and dev < config.tol
        rows.append((name, _fmt(ref), _fmt(got), _fmt(dev)))
    return _render(("field", "quadrature", "trajectory", "abs_dev"), rows, config.fmt), ok


# --- argument and config handling ------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line (expected key=value): {line!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="ucr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--system", choices=_SYSTEMS)
        p.add_argument("--n", dest="n_selector")
        p.add_argument("--points", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--quad-tol", type=float, dest="quad_tol")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--out")
        p.add_argument("--config")

    add_common(sub.add_parser("compare", help="classical vs quantum parity table"))
    add_common(sub.add_parser("density", help="quantum and classical density grid"))
    zeros = sub.add_parser("airy-zeros", help="table of scaled bouncer eigenvalues")
    zeros.add_argument("--count", type=int, default=5)
    add_common(zeros)
    add_common(sub.add_parser("verify", help="trajectory-oracle check of the classical moments"))
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = args.config or os.environ.get("UCR_CONFIG")
    file_values = _read_config_file(path) if path else {}

    def pick(flag_value, file_key: str, convert, default):
        text = file_values.pop(file_key, None)  # what is left over is unknown
        if flag_value is not None:
            return flag_value
        if text is not None:
            try:
                return convert(text)
            except (ValueError, UsageError) as exc:
                raise UsageError(f"bad config value for {file_key}: {exc}") from exc
        return default

    config.system = pick(getattr(args, "system", None), "system", str, config.system)
    config.n_list = pick(
        parse_n_list(args.n_selector) if getattr(args, "n_selector", None) else None,
        "n", parse_n_list, config.n_list,
    )
    config.points = pick(getattr(args, "points", None), "points", int, config.points)
    config.samples = pick(getattr(args, "samples", None), "samples", int, config.samples)
    config.tol = pick(getattr(args, "tol", None), "tol", float, config.tol)
    config.quad_tol = pick(getattr(args, "quad_tol", None), "quad-tol", float, config.quad_tol)
    config.fmt = pick(getattr(args, "fmt", None), "format", str, config.fmt)
    config.out = pick(getattr(args, "out", None), "out", str, config.out)
    if file_values:
        raise UsageError(f"unknown config key {sorted(file_values)[0]!r}")
    if config.system not in _SYSTEMS:
        raise UsageError(f"unknown system {config.system!r}")
    if config.fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {config.fmt!r}")
    for name, count in (("points", config.points), ("samples", config.samples)):
        if count < 2:
            raise UsageError(f"{name} must be >= 2, got {count}")
    if config.tol is not None and not (math.isfinite(config.tol) and config.tol >= 0.0):
        raise UsageError(f"tol must be finite and non-negative, got {config.tol}")
    if not (math.isfinite(config.quad_tol) and config.quad_tol > 0.0):
        raise UsageError(f"quad-tol must be finite and positive, got {config.quad_tol}")
    return config


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve_config(args)
        if args.command == "compare":
            if config.tol is None:
                config.tol = 1e-6
            rows = compare_rows(config)
            _emit(render_compare(rows, config.fmt), config.out)
            return EXIT_OK if all(row.parity_ok for row in rows) else EXIT_PARITY
        if args.command == "density":
            _emit(render_density(config), config.out)
            return EXIT_OK
        if args.command == "airy-zeros":
            count = getattr(args, "count", 5)
            _emit(render_airy_zeros(count, config.fmt), config.out)
            return EXIT_OK
        # verify
        if config.tol is None:
            config.tol = 1e-4
        report, ok = run_verify(config)
        _emit(report, config.out)
        return EXIT_OK if ok else EXIT_PARITY
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
