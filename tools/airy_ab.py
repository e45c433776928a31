"""In-process A/B of two trees' Airy layer: the same bits, then cold and warm
`airy` times, and the time in each branch kernel.

    python3 tools/airy_ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `ucr` package (a checkout's
`src/`).  Both trees' `ucr/specfun.py` are loaded into this one process as
separate modules, so the two kernels share the process, its caches and the
machine's speed of the moment.  The calls are the ones `specfun.airy`
receives when a bouncer level at n = 14, 36 and 200 is found and its moment
pass runs (DEFAULT_SPEC): the one-element calls of the Newton steps, and the
pass's multi-element batches.  They are recorded once through CHANGE_SRC's
`ucr` package.

The script asserts that the two kernels agree bit for bit on every element of
those calls and of a fixed 43,000-point set on [-1e12, 40]: evaluated cold
(memo cleared), warm (the same calls again) and mixed (half the calls
remembered).  It then times each tree's `airy` per level, the trees
interleaved round by round: the one-element calls from a cleared memo, then
the batches (cold too, as none of them is remembered), then all the calls
again on the filled memo (warm).  A last cold run per round times each call
of the three branch kernels, `_negative` (z <= -9), `_taylor` and
`_positive` (z >= 9), summed over the level's calls.  Each time printed is
the 10th percentile of the rounds, in ms.  Exits 0 when the bits agree, 1
otherwise.  Needs numpy only.
"""

from __future__ import annotations

import collections
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

LEVELS = (14, 36, 200)
ROUNDS = 60
KERNELS = ("_negative", "_taylor", "_positive")


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


def times(module, calls: list[np.ndarray], clear: bool) -> float:
    if clear:
        module.airy_ai.cache_clear()
    start = time.perf_counter()
    for z in calls:
        module.airy(z)
    return time.perf_counter() - start


def kernel_times(module, calls: list[np.ndarray]) -> dict[str, float]:
    # Seconds each branch kernel takes over `calls` from a cleared memo.
    spent = dict.fromkeys(KERNELS, 0.0)
    kernels = dict(module._BRANCHES)

    def timed(kernel):
        def run(z):
            start = time.perf_counter()
            values = kernel(z)
            spent[kernel.__name__] += time.perf_counter() - start
            return values

        return run

    module._BRANCHES.update({branch: timed(kernel) for branch, kernel in kernels.items()})
    try:
        times(module, calls, clear=True)
    finally:
        module._BRANCHES.update(kernels)
    return spent


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
    parts = {n: {"one-element": [z for z in batches[n] if len(z) == 1],
                 "batches": [z for z in batches[n] if len(z) > 1]} for n in LEVELS}
    samples = collections.defaultdict(list)
    for i in range(rounds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for n in LEVELS:
            for tree in order:
                module = trees[tree]
                samples[tree, n, "one-element"].append(times(module, parts[n]["one-element"], clear=True))
                samples[tree, n, "batches"].append(times(module, parts[n]["batches"], clear=False))
                samples[tree, n, "warm"].append(times(module, batches[n], clear=False))
                for kernel, spent in kernel_times(module, batches[n]).items():
                    samples[tree, n, kernel].append(spent)

    def p10(key) -> float:
        values = samples[key]
        return 1e3 * (statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0])

    def change(what, n) -> str:
        before, after = p10(("parent", n, what)), p10(("change", n, what))
        return f"{before:8.3f} -> {after:8.3f} ({after / before - 1.0:+.0%})" if before else f"{before:8.3f} -> {after:8.3f}"

    print(f"airy ms, p10 of {rounds} rounds   parent -> change")
    for n in LEVELS:
        ones, many = parts[n]["one-element"], parts[n]["batches"]
        print(f"n={n:<4} {len(ones):4d} one-element calls              cold  {change('one-element', n)}")
        print(f"n={n:<4} {len(many):4d} batches {sum(map(len, many)):6d} elements        cold  {change('batches', n)}")
        print(f"n={n:<4} {len(batches[n]):4d} calls, all remembered          warm  {change('warm', n)}")
    print(f"kernel ms over each level's calls, cold, p10 of {rounds} rounds   parent -> change")
    for n in LEVELS:
        print(f"n={n:<4} " + "   ".join(f"{kernel} {change(kernel, n)}" for kernel in KERNELS))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
