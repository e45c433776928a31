"""In-process A/B of two trees' adaptive K15 loop: the same bits in every
field of every `IntegralResult`, then the loop's calls per generation and
interleaved pass times.

    python3 tools/quad_ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `ucr` package (a checkout's
`src/`).  Both trees' `ucr/quadrature.py` are loaded into this one process
as separate modules; the integrands are CHANGE_SRC's, so the two loops see
the same functions, the same Airy memo and the machine's speed of the moment.

The sweep takes, for every level of SWEEP, the level's one quantum moment
pass from `moment_pass` (by `integrate_rule` when it hands over a fixed rule's
nodes and weights, as the oscillator's does) and the classical ensemble's
pass at E_n from `classical_pass` (by `integrate_rule`), at each of the six
SPECS, among them the CLI's `--quad-tol` 1e-13 and 1e-17; both trees'
`integrate_finite` take the pass's break points and the spec as given, as
`quantum_states._integrate` hands them on.  A spec is one tolerance, the CLI's
`--quad-tol` q; a tree whose `QuadratureSpec` still holds two gets
(q, 100.0 * q), as its CLI built them.  The loop's budget of splits is fixed
in each tree.  The value, error estimate, `evaluations` and
`converged` of the two trees' results must agree bit for bit (an integrand
error must be the same exception).  Every (system, n, pass) that differs is listed with its specs,
and the first differing case is shown.

The loop's calls are counted with `sys.setprofile`: a `call` or `c_call`
event belongs to the loop when the nearest enclosing frame of the tree's
`integrate_finite`, `_values` or `_panels` is `integrate_finite`,
so the integrand and the panel products are not counted, but numpy's Python
wrappers and `QuadratureSpec.tolerance` are.  A generation is one turn of the
loop, one call of `spec.tolerance` from `integrate_finite`.  The times are
whole sets of passes at `DEFAULT_SPEC`, warm, the trees interleaved round by
round; each printed time is the minimum of the rounds, in ms.  Exits 0 when
every field agrees, 1 otherwise.  Needs numpy only.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time

SPECS = {  # each the CLI's --quad-tol
    "default": 1e-12,
    "loose": 1e-6,
    "tight": 1e-14,
    "quad-tol 1e-13": 1e-13,
    "quad-tol 1e-17": 1e-17,
    "1e-300": 1e-300,
}
SWEEP = {
    "bouncer": (*range(1, 40), 100, 200),
    "ho": (*range(0, 45), 100, 200),
    "well": (1, 2, 3, 6, 10, 18, 32, 56, 100, 178, 316, 422, 562, 750, 1000, 1778, 3000),
}
# The sets whose loop calls are counted and whose passes are timed: the
# levels of the bouncer session and the median band of the well scan (the
# oscillator's quantum pass is a fixed rule, which has no loop).
COUNTED = {
    "bouncer n=1..15": ("bouncer", range(1, 16)),
    "well n=178,316,422": ("well", (178, 316, 422)),
}
ROUNDS = 15
_OWNERS = {"integrate_finite": True, "_values": False, "_panels": False}


def load_quadrature(src: str, label: str):
    # A tree's quadrature as a module of its own; it imports nothing from ucr.
    name = f"quadrature_{label}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "ucr", "quadrature.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def import_ucr(src: str):
    """`src`'s ucr package and its three unit-parameter models, by the CLI's system names."""
    sys.path.insert(0, os.path.abspath(src))
    import ucr

    if not ucr.__file__.startswith(os.path.abspath(src)):
        raise SystemExit(f"imported ucr from {ucr.__file__}, not from {src}")
    variants = {"bouncer": ucr.BouncingBall(m=1.0, g=1.0), "ho": ucr.HarmonicOscillator(m=1.0, omega=1.0),
                "well": ucr.InfiniteWell(m=1.0, L=1.0)}
    return ucr, {system: ucr.PotentialModel(variant) for system, variant in variants.items()}


def level_passes(ucr, model, n: int) -> list[tuple]:
    """The level's passes as (label, kind, integrand, rule): the quantum
    moment pass, its rule its (points,) or, kind "rule", a fixed rule's
    (nodes, weights), then the classical ensemble's pass at E_n, a fixed
    rule's, from `classical_pass`."""
    level = ucr.eigen_level(model, n)
    (f, *rule), _ = model.variant.moment_pass(level)
    g, *classical = model.variant.classical_pass(level.energy)
    return [("quantum", "rule" if len(rule) == 2 else "quantum", f, tuple(rule)),
            ("classical", "rule", g, tuple(classical))]


def run(module, one_pass: tuple, quad_tol: float):
    _, kind, f, rule = one_pass
    two = "abs_tol" in module.QuadratureSpec.__dataclass_fields__  # a tree from before the spec held one number
    spec = module.QuadratureSpec(quad_tol, 100.0 * quad_tol) if two else module.QuadratureSpec(quad_tol)
    if kind == "rule":
        return module.integrate_rule(f, *rule, spec)
    return module.integrate_finite(f, *rule, spec)


def fields(module, one_pass: tuple, quad_tol: float) -> tuple:
    # Every field of the result, floats as hex; an exception as its type and message.
    try:
        result = run(module, one_pass, quad_tol)
    except Exception as exc:  # an integrand error must be the same in both trees
        return ("raises", type(exc).__name__, str(exc))
    hexes = [tuple(map(float.hex, v if isinstance(v, tuple) else (v,))) for v in (result.value, result.error_estimate)]
    return (*hexes, repr(result.evaluations), type(result.evaluations).__name__, result.converged)


def loop_calls(module, passes: list[tuple]) -> tuple[int, int]:
    """The loop-owned call events and the generations of `passes` at `DEFAULT_SPEC`."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event not in ("call", "c_call"):
            return
        if event == "call" and frame.f_code.co_name == "tolerance" and _in(module, frame.f_back, "integrate_finite"):
            counts[1] += 1
        while frame is not None:
            if frame.f_code.co_filename == module.__file__ and frame.f_code.co_name in _OWNERS:
                counts[0] += _OWNERS[frame.f_code.co_name]
                return
            frame = frame.f_back

    sys.setprofile(profile)
    try:
        for one_pass in passes:
            run(module, one_pass, SPECS["default"])
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def _in(module, frame, name: str) -> bool:
    return frame is not None and frame.f_code.co_filename == module.__file__ and frame.f_code.co_name == name


def main(argv: list[str], sweep: dict = SWEEP, counted: dict = COUNTED, rounds: int = ROUNDS) -> int:
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "ucr", "quadrature.py")) for src in argv):
        print(__doc__, file=sys.stderr)
        return 64
    trees = {"parent": load_quadrature(argv[0], "parent"), "change": load_quadrature(argv[1], "change")}
    ucr, models = import_ucr(argv[1])
    cases = differ = 0
    first, listed = None, {}
    for system, levels in sweep.items():
        for n in levels:
            for one_pass in level_passes(ucr, models[system], n):
                for spec_name, quad_tol in SPECS.items():
                    got = [fields(module, one_pass, quad_tol) for module in trees.values()]
                    cases += 1
                    if got[0] != got[1]:
                        differ += 1
                        first = first or (f"{system} n={n} spec={spec_name} pass={one_pass[0]}", *got)
                        listed.setdefault(f"{system} n={n} pass={one_pass[0]}", []).append(spec_name)
    print(f"fields: {differ} of {cases} (level, pass, spec) cases differ")
    for case, spec_names in listed.items():
        print(f"  {case}: {', '.join(spec_names)}")
    if first:
        print(f"first difference: {first[0]}\n  parent {first[1]}\n  change {first[2]}")
    print(f"{'loop calls per generation':30s}   parent -> change   generations per pass   pass set ms (min of {rounds})")
    for name, (system, levels) in counted.items():
        passes = [p for n in levels for p in level_passes(ucr, models[system], n) if p[1] == "quantum"]
        calls = {tree: loop_calls(module, passes) for tree, module in trees.items()}
        times = {tree: [] for tree in trees}
        for i in range(rounds):
            for tree in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                start = time.perf_counter()
                for one_pass in passes:
                    run(trees[tree], one_pass, SPECS["default"])
                times[tree].append(time.perf_counter() - start)
        per_generation = [calls[tree][0] / calls[tree][1] for tree in trees]
        per_pass = [calls[tree][1] / len(passes) for tree in trees]
        best = [1e3 * min(times[tree]) for tree in trees]
        print(f"{name:30s} {per_generation[0]:8.1f} -> {per_generation[1]:5.1f}"
              f"   {per_pass[0]:8.2f} -> {per_pass[1]:5.2f}"
              f"   {best[0]:8.3f} -> {best[1]:7.3f} ({best[1] / best[0] - 1.0:+.0%})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
