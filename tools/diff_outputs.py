"""Run the same `ucr` command list against two source trees and report every
exit code, stdout line or stderr line that differs.

    python3 tools/diff_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `ucr` package (a checkout's
`src/`); it goes first on PYTHONPATH for that tree's runs.  The 130
commands cover `compare` on every system, and on the bouncer's high levels
n = 200 and 1000 (CSV and JSON, and at the loose integral tolerances
`--quad-tol 1e-6` and, for the oscillator's n = 0, `1e-4`, where the
adaptive passes' <P> = 0 check meets real quadrature error, and at the tight
end `--quad-tol 1e-17`, where the classical verdicts meet their rounding
floor: `compare` on the oscillator's n = 0 and 5 and `verify` on every
system) and n = 3000 and
4000 (whose passes from the Airy zeros alone split 2,908 and 3,905 panels),
the three `compare` runs that reach the adaptive pass's split step (the
well's n = 1 at `--quad-tol 1e-15`, and the bouncer's n = 100 and 200 at
`1e-13`, the last stopped by its <P> component's rounding floor, exit 1),
`compare` and a 101-point `density` grid on
the oscillator's high levels (n = 200 and 900, where its recurrence is
renormalized past y ~ 37.7, and `compare` at n = 2000, whose outer nodes lie
near y ~ 63), `compare` on the well's levels 1778, 3000 and
10001 (past the benchmark scan's 1000), `verify` on every system at
its default 1,000,000 samples and five more counts (100,000 and 1000, and 6
and 2, where the well's sample phases land exactly on 1/4 and 3/4, so its
triangle wave and square-wave momentum switch there, and 131,081, sixteen
blocks and 9 samples, whose pairwise split is five levels deep on one side
and four on the other), the well's `verify` at 8193 samples (one past the
oracle's block) and at the prime 999,983, bouncer `density` grids over
levels 1..9 and 51..101 points, `compare` on the bouncer's n = 6..9 and
its `density` at n = 8 on 101 points (the levels whose zeros a_n lie in
(-12, -9], where Taylor steps took over from the negative expansion), the
well's and the oscillator's density grids (a 5-point one each, and levels
0, 3, 10 resp. 1, 8, 100 at 11 and 101 points), the smallest grids the
endpoint clip meets (bouncer n = 1 at 2 and 3 points, oscillator n = 0 at 3
points and at 2, whose ends are both singular), and two `airy-zeros` tables
(30 zeros, and 12, whose last three lie past -12), and nine refusals and
failures, whose stderr pins their messages: `density` over two levels and
over a range past sys.maxsize, `compare` past the oscillator's ceiling and
over a bouncer range too long to build, `--points`, `--samples` and
`--count` past their ceilings, `--quad-tol 1e306`, and the oscillator's
n = 0 at `--quad-tol 1e-300` (exit 1).  Exits 0 when the two trees agree
on all of them, 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

_WELL_LEVELS = "1,2,3,6,10,18,32,56,100,178,316,422,562,750,1000"


def commands() -> list[tuple[str, ...]]:
    cmds: list[tuple[str, ...]] = []
    for system, n in (("bouncer", "1..36"), ("bouncer", "200,1000"), ("ho", "0..40"), ("well", _WELL_LEVELS)):
        for fmt in ("csv", "json"):
            cmds.append(("compare", "--system", system, "--n", n, "--format", fmt))
        cmds.append(("compare", "--system", system, "--n", n, "--quad-tol", "1e-6"))
    cmds.append(("compare", "--system", "ho", "--n", "0", "--quad-tol", "1e-4"))
    cmds.append(("compare", "--system", "ho", "--n", "0,5", "--quad-tol", "1e-17"))
    cmds.append(("compare", "--system", "well", "--n", "1", "--quad-tol", "1e-15"))  # 45 evaluations, 15 at the start
    for n in ("100", "200"):  # one split (3,120 evaluations), then exit 1 on component 3's floor
        cmds.append(("compare", "--system", "bouncer", "--n", n, "--quad-tol", "1e-13"))
    cmds.append(("compare", "--system", "bouncer", "--n", "3000,4000"))
    cmds.append(("compare", "--system", "ho", "--n", "200,900"))
    cmds.append(("compare", "--system", "ho", "--n", "2000"))
    cmds.append(("compare", "--system", "well", "--n", "1778,3000,10001"))
    cmds.append(("density", "--system", "ho", "--n", "900", "--points", "101"))
    for system in ("ho", "well", "bouncer"):
        cmds.append(("verify", "--system", system))  # the default 1,000,000 samples
        for samples in ("100000", "1000", "6", "2"):
            cmds.append(("verify", "--system", system, "--samples", samples))
    cmds.append(("verify", "--system", "well", "--samples", "8193"))  # one past the oracle's 8192-sample block
    for system in ("ho", "well", "bouncer"):
        cmds.append(("verify", "--system", system, "--quad-tol", "1e-17"))  # the classical pass at its rounding floor
    for system in ("ho", "well", "bouncer"):
        cmds.append(("verify", "--system", system, "--samples", "131081"))  # 17 blocks, 5 levels deep and 4
    cmds.append(("verify", "--system", "well", "--samples", "999983"))  # a prime: uneven blocks all the way down
    for n in range(1, 10):
        for points in range(51, 102, 10):
            cmds.append(("density", "--system", "bouncer", "--n", str(n), "--points", str(points)))
    cmds.append(("density", "--system", "well", "--n", "2", "--points", "5"))
    cmds.append(("density", "--system", "ho", "--n", "0", "--points", "5"))
    for system, n, points in (("bouncer", "1", "2"), ("bouncer", "1", "3"), ("ho", "0", "2"), ("ho", "0", "3")):
        cmds.append(("density", "--system", system, "--n", n, "--points", points))  # the clip at its smallest grids
    for system, levels in (("ho", (0, 3, 10)), ("well", (1, 8, 100))):
        for n, points in itertools.product(levels, ("11", "101")):
            cmds.append(("density", "--system", system, "--n", str(n), "--points", points))
    cmds.append(("compare", "--system", "bouncer", "--n", "6..9"))
    cmds.append(("density", "--system", "bouncer", "--n", "8", "--points", "101"))
    cmds.append(("airy-zeros", "--count", "30"))
    cmds.append(("airy-zeros", "--count", "12"))
    # refusals (exit 64) and a computation error (exit 1): each pins its message on stderr
    cmds.append(("density", "--system", "bouncer", "--n", "1..100000000000000000000"))  # past sys.maxsize
    cmds.append(("density", "--system", "ho", "--n", "3,3"))
    cmds.append(("compare", "--system", "ho", "--n", "20001"))
    cmds.append(("compare", "--system", "bouncer", "--n", "1..100000000000000000"))
    cmds.append(("density", "--system", "ho", "--n", "5", "--points", "1000000000000"))
    cmds.append(("verify", "--system", "ho", "--samples", "1000000001"))
    cmds.append(("airy-zeros", "--count", "100001"))
    cmds.append(("compare", "--system", "ho", "--n", "0", "--quad-tol", "1e306"))
    cmds.append(("compare", "--system", "ho", "--n", "0", "--quad-tol", "1e-300"))
    return cmds


def run(src: str, argv: tuple[str, ...]) -> tuple[int, list[str], list[str]]:
    path = os.pathsep.join(filter(None, (os.path.abspath(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("UCR_CONFIG", None)  # the commands run on their defaults, not on a config file
    done = subprocess.run([sys.executable, "-m", "ucr.cli_report", *argv], env=env, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines(), done.stderr.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(src, "ucr")) for src in argv):
        print("usage: diff_outputs.py PARENT_SRC CHANGE_SRC, each a directory holding ucr/", file=sys.stderr)
        return 64
    parent, change = argv
    cmds = commands()
    differing = 0
    for command in cmds:
        (code_a, *streams_a), (code_b, *streams_b) = run(parent, command), run(change, command)
        diffs = [] if code_a == code_b else [f"  exit code: {code_a} != {code_b}"]
        for label, lines_a, lines_b in zip(("line", "stderr line"), streams_a, streams_b):
            for i, (line_a, line_b) in enumerate(itertools.zip_longest(lines_a, lines_b, fillvalue="(no line)"), 1):
                if line_a != line_b:
                    diffs.append(f"  {label} {i}:\n    - {line_a}\n    + {line_b}")
        if diffs:
            differing += 1
            print("ucr " + " ".join(command))
            print("\n".join(diffs))
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
