"""In-process A/B of two trees' Airy layer: the same bits, then cold and warm
`airy` times.

    python3 tools/airy_ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `ucr` package (a checkout's
`src/`).  Both trees' `ucr/specfun.py` are loaded into this one process as
separate modules, so the two kernels share the process, its caches and the
machine's speed of the moment.  The batches are the ones `specfun.airy`
receives in the bouncer's moment passes at n = 14, 36 and 200 (DEFAULT_SPEC),
recorded once through CHANGE_SRC's `ucr` package.

The script asserts that the two kernels agree bit for bit on every element of
those batches and of a fixed 43,000-point set on [-1e12, 40]: evaluated cold
(memo cleared), warm (the same calls again) and mixed (half the calls
remembered).  It then times each tree's `airy` over each level's batches,
the trees interleaved round by round: a cold round clears the memo first, a
warm round repeats the batches on the filled memo.  Each time printed is the
10th percentile of the rounds, in ms.  Exits 0 when the bits agree, 1
otherwise.  Needs numpy only.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import time

import numpy as np

LEVELS = (14, 36, 200)
ROUNDS = 60


def load_specfun(src: str, label: str):
    # A tree's specfun as a module of its own; it imports nothing from ucr.
    name = f"specfun_{label}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "ucr", "specfun.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def record_batches(src: str) -> dict[int, list[np.ndarray]]:
    # The arrays the bouncer's moment pass hands to specfun.airy, per level.
    sys.path.insert(0, os.path.abspath(src))
    import ucr
    from ucr import specfun

    if not ucr.__file__.startswith(os.path.abspath(src)):
        raise SystemExit(f"imported ucr from {ucr.__file__}, not from {src}")
    model = ucr.PotentialModel(ucr.BouncingBall(m=1.0, g=1.0))
    kernel, batches = specfun.airy, {}

    def recording(z):
        batches[n].append(np.array(z, dtype=float))
        return kernel(z)

    specfun.airy = recording
    try:
        for n in LEVELS:
            batches[n] = []
            ucr.quantum_moments_quadrature(ucr.eigen_level(model, n))
    finally:
        specfun.airy = kernel
    return batches


def point_set() -> np.ndarray:
    # 43,000 fixed abscissas: the Taylor range, the seams at the integers
    # -9..9 from 1e-16 to 0.1 away, both asymptotic branches, the far
    # negative axis to its limit, and the two ends.
    rng = np.random.default_rng(43_000)
    seams = rng.integers(-9, 10, 2_998) + rng.choice([-1.0, 1.0], 2_998) * 10.0 ** rng.uniform(-16.0, -1.0, 2_998)
    parts = (
        rng.uniform(-9.0, 9.0, 20_000),
        rng.uniform(-40.0, 40.0, 10_000),
        -(10.0 ** rng.uniform(1.0, 12.0, 10_000)),
        seams,
        [-1e12, 40.0],
    )
    return np.concatenate(parts)


def outputs(module, calls: list[np.ndarray], remembered: list[np.ndarray]) -> bytes:
    # Every element's Ai and Ai' bits over `calls`, after a cleared memo
    # took `remembered` first.
    module.airy_ai.cache_clear()
    for z in remembered:
        module.airy(z)
    return b"".join(np.asarray(row, dtype=float).tobytes() for z in calls for row in module.airy(z))


def differing_ways(parent, change, calls: list[np.ndarray]) -> list[str]:
    # The ways of evaluating `calls` on which the two kernels disagree.
    ways = {"cold": [], "warm": calls, "mixed": calls[::2]}
    return [way for way, remembered in ways.items() if outputs(parent, calls, remembered) != outputs(change, calls, remembered)]


def times(module, batches: list[np.ndarray], clear: bool) -> float:
    if clear:
        module.airy_ai.cache_clear()
    start = time.perf_counter()
    for z in batches:
        module.airy(z)
    return time.perf_counter() - start


def main(argv: list[str], rounds: int = ROUNDS) -> int:
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "ucr", "specfun.py")) for src in argv):
        print(__doc__, file=sys.stderr)
        return 64
    trees = {"parent": load_specfun(argv[0], "parent"), "change": load_specfun(argv[1], "change")}
    batches = record_batches(argv[1])
    points = point_set()
    checks = {f"n={n}": batches[n] for n in LEVELS}
    checks["43,000 points, 1,000 a call"] = np.split(points, 43)
    checks["43,000 points, one call"] = [points]
    checks["every 43rd point, one a call"] = [points[i:i + 1] for i in range(0, len(points), 43)]
    differ = 0
    for what, calls in checks.items():
        bad = differing_ways(trees["parent"], trees["change"], calls)
        differ += bool(bad)
        print(f"bits {what}: {'differ ' + ', '.join(bad) if bad else 'equal'} ({sum(map(len, calls))} elements)")
    samples = {(tree, n, kind): [] for tree in trees for n in LEVELS for kind in ("cold", "warm")}
    for i in range(rounds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for n in LEVELS:
            for tree in order:
                samples[tree, n, "cold"].append(times(trees[tree], batches[n], clear=True))
                samples[tree, n, "warm"].append(times(trees[tree], batches[n], clear=False))

    def p10(key) -> float:
        values = samples[key]
        return 1e3 * (statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0])

    print(f"airy ms, p10 of {rounds} rounds   parent -> change")
    for n in LEVELS:
        size = sum(map(len, batches[n]))
        line = [f"n={n:<4} {len(batches[n]):3d} batches {size:6d} elements"]
        for kind in ("cold", "warm"):
            before, after = p10(("parent", n, kind)), p10(("change", n, kind))
            line.append(f"{kind} {before:8.3f} -> {after:8.3f} ({after / before - 1.0:+.0%})")
        print("   ".join(line))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
