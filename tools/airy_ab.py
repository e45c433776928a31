"""In-process A/B of two trees' Airy layer: the same bits, then cold and warm
`airy` times, and the time in each branch kernel.

    python3 tools/airy_ab.py [--accuracy] PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `ucr` package (a checkout's
`src/`).  Both trees' `ucr/specfun.py` are loaded into this one process as
separate modules, so the two kernels share the process, its caches and the
machine's speed of the moment.  The calls are the ones `specfun.airy`
receives when a bouncer level at n = 14, 36 and 200 is found and its moment
pass runs (DEFAULT_SPEC): the one-element calls of the Newton steps, and the
pass's multi-element batches.  They are recorded once through CHANGE_SRC's
`ucr` package.

The script asserts that the two kernels agree bit for bit on every element of
those calls and of a 43,000-point set on [-1e12, 40], laid out on
CHANGE_SRC's Taylor range and seams: evaluated cold (memo cleared), warm (the
same calls again) and mixed (half the calls remembered).  With
``--accuracy`` it then measures, on every element of those calls whose bits
differ between the trees, each tree's worst and rms error against mpmath at
40 digits, per range: absolute on (-9, 9), over the envelope on (-12, -9],
(-20, -12] and z <= -20 (|z|^(-1/4)/sqrt(pi) for Ai, |z|^(1/4)/sqrt(pi) for
Ai'), and relative on z >= 9.  It asserts that both trees' `airy_zero(n)`
agree bit for bit for n = 1..3000, each zero found cold (both caches
cleared), and prints each tree's Airy evaluations per zero, the memo's
misses.  It then times each tree's `airy` per level, the trees interleaved
round by round: the one-element calls from a cleared memo, then the batches
(cold too, as none of them is remembered), then all the calls again on the
filled memo (warm).  A last cold run per round times each call of the three
branch kernels, `_negative` (from the negative cut down), `_taylor` and
`_positive` (z >= 9), summed over the level's calls.  Each time printed is
the 10th percentile of the rounds, in ms.  Exits 0 when the bits agree, 1
otherwise.  Needs numpy, and mpmath for ``--accuracy``.
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
ZEROS = 3000
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


def point_set(module) -> np.ndarray:
    # 43,000 fixed abscissas: the module's Taylor range, its seams from 1e-16
    # to 0.1 away (the switches between anchors at the odd quarters and the
    # two cuts), both asymptotic branches, the far negative axis to its
    # limit, and the two ends.
    rng = np.random.default_rng(43_000)
    cuts = [module._NEGATIVE_CUT, module._POSITIVE_CUT]
    seams = np.append((np.array(module._HALVES[:-1]) + 0.5) / 2.0, cuts)
    seams = rng.choice(seams, 2_998) + rng.choice([-1.0, 1.0], 2_998) * 10.0 ** rng.uniform(-16.0, -1.0, 2_998)
    parts = (
        rng.uniform(*cuts, 20_000),
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


def cold_zeros(module) -> tuple[bytes, int]:
    # The bits of a_n for n = 1..ZEROS, each found from cleared caches, and the
    # Airy elements the memo missed in finding them.
    values, misses = [], 0
    for n in range(1, ZEROS + 1):
        module.airy_ai.cache_clear()
        module.airy_zero.cache_clear()
        zero = module.airy_zero(n)
        values.append(getattr(zero, "value", zero))  # a_n, or an older tree's `AiryZero` record of it
        misses += module.airy_ai.cache_info().misses
    return np.array(values).tobytes(), misses


def ranges(z: np.ndarray) -> dict[str, np.ndarray]:
    # The ranges the accuracy mode reports on, each with its error measure.
    return {
        "(-9, 9), absolute": (z > -9.0) & (z < 9.0),
        "(-12, -9], over the envelope": (z > -12.0) & (z <= -9.0),
        "(-20, -12], over the envelope": (z > -20.0) & (z <= -12.0),
        "z <= -20, over the envelope": z <= -20.0,
        "z >= 9, relative": z >= 9.0,
    }


def errors(z: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Each element's Ai and Ai' error against mpmath at 40 digits, in the
    # measure of its range: absolute on (-9, 9), over the envelopes
    # |z|^(-1/4)/sqrt(pi) and |z|^(1/4)/sqrt(pi) below -9, relative from 9 on.
    import mpmath  # the accuracy mode's alone

    out = np.empty_like(values)
    with mpmath.workdps(40):
        for i, x in enumerate(z.tolist()):
            for row in range(2):
                ref = mpmath.airyai(x, derivative=row)
                if -9.0 < x < 9.0:
                    scale = 1
                elif x < 0.0:
                    scale = mpmath.root(-x, 4) ** (2 * row - 1) / mpmath.sqrt(mpmath.pi)
                else:
                    scale = abs(ref)
                out[row, i] = abs(mpmath.mpf(values[row, i]) - ref) / scale
    return out


def accuracy(parent, change, z: np.ndarray) -> list[str]:
    # Per range, each tree's worst and rms error on the elements of z whose
    # bits differ between the trees, parent -> change.
    z = np.unique(z)
    values = []
    for module in (parent, change):
        module.airy_ai.cache_clear()
        values.append(np.array(module.airy(z)))
    differ = (values[0].view(np.uint64) != values[1].view(np.uint64)).any(axis=0)
    lines = []
    for name, inside in ranges(z).items():
        picked = inside & differ
        if not picked.any():
            lines.append(f"accuracy {name}: bits equal ({inside.sum()} elements)")
            continue
        before, after = (errors(z[picked], tree[:, picked]) for tree in values)
        for row, label in enumerate(("Ai ", "Ai'")):
            worst = f"{before[row].max():.2e} -> {after[row].max():.2e}"
            rms = f"{np.sqrt(np.mean(before[row] ** 2)):.2e} -> {np.sqrt(np.mean(after[row] ** 2)):.2e}"
            lines.append(f"accuracy {name}, {label}: worst {worst}, rms {rms} "
                         f"({picked.sum()} of {inside.sum()} elements differ)")
    return lines


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
    check_accuracy = "--accuracy" in argv
    argv = [arg for arg in argv if arg != "--accuracy"]
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "ucr", "specfun.py")) for src in argv):
        print(__doc__, file=sys.stderr)
        return 64
    trees = {"parent": load_specfun(argv[0], "parent"), "change": load_specfun(argv[1], "change")}
    batches = record_batches(argv[1])
    points = point_set(trees["change"])
    checks = {f"n={n}": batches[n] for n in LEVELS}
    checks["43,000 points, 1,000 a call"] = np.split(points, 43)
    checks["43,000 points, one call"] = [points]
    checks["every 43rd point, one a call"] = [points[i:i + 1] for i in range(0, len(points), 43)]
    differ = 0
    for what, calls in checks.items():
        bad = differing_ways(trees["parent"], trees["change"], calls)
        differ += bool(bad)
        print(f"bits {what}: {'differ ' + ', '.join(bad) if bad else 'equal'} ({sum(map(len, calls))} elements)")
    if check_accuracy:
        print("errors against mpmath at 40 digits where the bits disagree, parent -> change")
        print("\n".join(accuracy(*trees.values(), np.concatenate([z for calls in checks.values() for z in calls]))))
    (parent_zeros, parent_misses), (change_zeros, change_misses) = map(cold_zeros, trees.values())
    differ += parent_zeros != change_zeros
    print(f"bits airy_zero(n), n = 1..{ZEROS}: {'differ' if parent_zeros != change_zeros else 'equal'} ({ZEROS} zeros)")
    print(f"Airy evaluations per cold zero, n = 1..{ZEROS}   parent -> change: "
          f"{parent_misses / ZEROS:.3f} -> {change_misses / ZEROS:.3f} ({parent_misses} -> {change_misses})")
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
