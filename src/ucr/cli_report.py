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
from dataclasses import dataclass, field
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

_SYSTEMS = ("ho", "well", "bouncer")
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
    oracle: str = "trajectory"

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(abs_tol=self.quad_tol, rel_tol=100.0 * self.quad_tol)


def _fmt(value: float) -> str:
    return f"{value:.11e}"  # 12 significant digits, lowercase exponent


def _model(system: str) -> PotentialModel:
    if system == "ho":
        return PotentialModel(HarmonicOscillator(m=1.0, omega=1.0))
    if system == "well":
        return PotentialModel(InfiniteWell(m=1.0, L=1.0))
    if system == "bouncer":
        return PotentialModel(BouncingBall(m=1.0, g=1.0))
    raise UsageError(f"unknown system {system!r}; expected one of {_SYSTEMS}")


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


def _well_parity_ok(quantum: ScaledMoments, n: int, tol: float) -> bool:
    # Finite-n criterion: the well's <X^2> carries a documented 2/(n^2 pi^2)
    # deviation from the classical 1/3, so parity is judged against the
    # finite-n formula rather than raw classical equality.
    expected_x2 = 1.0 / 3.0 - 2.0 / (n * n * math.pi ** 2)
    return (
        abs(quantum.mean_x2 - expected_x2) < tol
        and abs(quantum.mean_x) < tol
        and abs(quantum.mean_p) < tol
        and abs(quantum.mean_p2 - 1.0) < tol
    )


def compare_rows(config: RunConfig) -> list[ComparisonRow]:
    model = _model(config.system)
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
        max_abs_dev = max(
            abs(c - q) for c, q in zip(classical.fields(), quantum.fields())
        )
        if config.system == "well":
            parity_ok = _well_parity_ok(quantum, n, config.tol)
        else:
            parity_ok = max_abs_dev < config.tol
        rows.append(ComparisonRow(config.system, n, classical, quantum, bound, max_abs_dev, parity_ok))
    return rows


def _moment_record(row: ComparisonRow, moments: ScaledMoments) -> dict:
    return {
        "system": row.system,
        "n": row.n,
        "realm": moments.realm,
        "method": moments.method,
        "mean_x": moments.mean_x,
        "mean_x2": moments.mean_x2,
        "mean_p": moments.mean_p,
        "mean_p2": moments.mean_p2,
        "var_x": moments.var_x,
        "var_p": moments.var_p,
        "product": moments.product,
        "bound": row.bound,
        "parity_ok": row.parity_ok,
    }


def render_compare(rows: Sequence[ComparisonRow], fmt: str) -> str:
    records = []
    for row in rows:
        records.append(_moment_record(row, row.classical))
        records.append(_moment_record(row, row.quantum))
    if fmt == "json":
        return json.dumps(
            [
                {k: (_fmt(v) if isinstance(v, float) else v) for k, v in record.items()}
                for record in records
            ],
            indent=2,
        ) + "\n"
    lines = [COMPARE_HEADER]
    for record in records:
        lines.append(
            ",".join(
                _fmt(value) if isinstance(value, float) else
                ("true" if value is True else "false" if value is False else str(value))
                for value in record.values()
            )
        )
    return "\n".join(lines) + "\n"


def render_density(config: RunConfig) -> str:
    if len(config.n_list) != 1:
        raise UsageError("density needs exactly one quantum number")
    model = _model(config.system)
    try:
        rows = density_grid(eigen_level(model, config.n_list[0]), config.points)
    except ValueError as exc:  # a bad level, or too few points to clip a singular endpoint
        raise UsageError(str(exc)) from exc
    if config.fmt == "json":
        return json.dumps(
            [
                {
                    "x_scaled": _fmt(x),
                    "p_qm": _fmt(qm),
                    "p_cl": _fmt(cl),
                    "clipped_flag": int(clipped),
                }
                for x, qm, cl, clipped in rows
            ],
            indent=2,
        ) + "\n"
    lines = ["x_scaled,p_qm,p_cl,clipped_flag"]
    for x, qm, cl, clipped in rows:
        lines.append(f"{_fmt(x)},{_fmt(qm)},{_fmt(cl)},{int(clipped)}")
    return "\n".join(lines) + "\n"


def render_airy_zeros(count: int, fmt: str) -> str:
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    zeros = [airy_zero(n) for n in range(1, count + 1)]
    if fmt == "json":
        return json.dumps(
            [{"n": z.index, "scaled_energy": f"{z.scaled_energy:.9e}"} for z in zeros],
            indent=2,
        ) + "\n"
    lines = ["n,scaled_energy"]
    for z in zeros:
        lines.append(f"{z.index},{z.scaled_energy:.9e}")  # 10 significant digits
    return "\n".join(lines) + "\n"


def run_verify(config: RunConfig) -> tuple[str, bool]:
    if config.oracle != "trajectory":
        raise UsageError(f"unknown oracle {config.oracle!r}")
    model = _model(config.system)
    spec = config.quad_spec()
    reference = classical_moments_quadrature(build_ensemble(model, 1.0, spec), spec)
    oracle = trajectory_moments(build_trajectory(model, 1.0), config.samples, "midpoint")
    lines = ["field,quadrature,trajectory,abs_dev"]
    ok = True
    for name in _MOMENT_FIELDS:
        ref = getattr(reference, name)
        got = getattr(oracle, name)
        dev = abs(ref - got)
        ok = ok and dev < config.tol
        lines.append(f"{name},{_fmt(ref)},{_fmt(got)},{_fmt(dev)}")
    return "\n".join(lines) + "\n", ok


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
    verify = sub.add_parser("verify", help="trajectory-oracle check of the classical moments")
    verify.add_argument("--oracle", default="trajectory")
    add_common(verify)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    path = args.config or os.environ.get("UCR_CONFIG")
    file_values = _read_config_file(path) if path else {}

    def pick(flag_value, file_key: str, convert, default):
        if flag_value is not None:
            return flag_value
        if file_key in file_values:
            try:
                return convert(file_values[file_key])
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
    config.oracle = pick(getattr(args, "oracle", None), "oracle", str, config.oracle)
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
