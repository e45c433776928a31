"""ucr benchmark: runs one seeded workload against the package in `src/` and
prints its metrics, the last line of standard output being one JSON object.

    python3 perfbench/run.py --workload bouncer-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With `--trace 0` the workload runs whole decks, untraced, until `--seconds`
have passed, and the metrics are the end-to-end ones of BENCHMARK.json. With
`--trace 1` a fixed prefix of the workload's decks runs twice, untraced and
then traced; both runs must give identical outputs, the metrics are the
per-layer ones, and the spans are written under `.perfbench/`. Each run
writes the operations it ran under `.perfbench/` too, so they can be replayed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import probe, scale, steady

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOADS = ("bouncer-scan", "ho-well-scan", "bouncer-session")

SETUP_REPEATS = 7
# Measurements of one cold operation in the untraced run, at most; see run_decks.
ATTEMPTS = 3
# Decks in the traced run; every deck covers every band of its workload.
TRACE_DECKS = {"bouncer-scan": 2, "ho-well-scan": 2, "bouncer-session": 6}

# Run in a fresh interpreter: the time `import ucr` takes, in reference-box
# seconds. The probe runs before the import only; right after it, the
# import's cache pollution slows the probe.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "before = speed.probe()\n"
    "t = time.perf_counter()\n"
    "import ucr\n"
    "t = time.perf_counter() - t\n"
    "if not ucr.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported ucr from ' + ucr.__file__)\n"
    "print(repr(t * speed.scale(before, before)))\n"
)


def load_package() -> None:
    """Put the checkout's `src/` first on the path and import `ucr` from it,
    never from an installed copy."""
    if not (SRC / "ucr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'ucr'}")
    sys.path.insert(0, str(SRC))
    import ucr

    if not ucr.__file__.startswith(str(SRC)):
        sys.exit(f"perfbench: imported ucr from {ucr.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median over fresh interpreters of the time `import ucr` takes. One
    unmeasured import first writes the bytecode caches, as an installed
    package has them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


@dataclass
class Run:
    ops: list
    latencies: list[float]  # reference-box seconds
    outcomes: list


def run_decks(workload: str, checker, decks, seconds: float | None = None, tracer=None, attempts: int = 1) -> Run:
    """Run the decks' operations in order, stopping after the first deck that
    ends past `seconds`. Scan workloads clear the caches before every
    operation, as each stands for a fresh `ucr` process; such an operation,
    when the speed probes around it disagree, ran across a change of the
    box's speed and is measured again, up to `attempts` times in all."""
    from workloads import Outcome, clear_caches, clears_caches

    cold = clears_caches(workload)
    run = Run([], [], [])
    clear_caches()
    start = time.perf_counter()
    before = probe()
    for deck in decks:
        for op in deck:
            if tracer is not None:
                tracer.op = len(run.ops)
            for _ in range(attempts if cold else 1):
                if cold:
                    clear_caches()
                t0 = time.perf_counter()
                try:
                    output = checker.run(op)
                except Exception as exc:  # a raising operation is a failed one; keep going
                    outcome = Outcome(False, [], f"raised {exc!r}", repr(exc))
                else:
                    outcome = None
                seconds_taken = time.perf_counter() - t0
                after = probe()
                latency = seconds_taken * scale(before, after)
                was_steady = steady(before, after)
                before = after
                if outcome is not None or was_steady:
                    break
            run.latencies.append(latency)
            run.outcomes.append(outcome if outcome is not None else checker.check(op, output))
            run.ops.append(op)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return run


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    from workloads import Checker, decks

    setup_s = measure_setup()
    checker = Checker(workload)
    run = run_decks(workload, checker, decks(workload, seed), seconds=seconds, attempts=ATTEMPTS)
    completed = sum(o.ok for o in run.outcomes)
    digits = [d for o in run.outcomes for d in o.digits]
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(run.latencies),
        "op_s.p90": statistics.quantiles(run.latencies, n=10, method="inclusive")[8],
        "ops_per_s": completed / sum(run.latencies),
        "min_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "op_s.p50": f"{len(run.latencies)} operations",
        "op_s.p90": f"{len(run.latencies)} operations",
        "ops_per_s": f"{completed} completed in {sum(run.latencies):.3f} s of operation time",
        "min_digits": f"{len(digits)} products checked",
    }
    return run, metrics, notes


def traced(workload: str, seed: int) -> tuple[Run, bool, dict, Path]:
    from tracing import Tracer
    from workloads import Checker, decks

    prefix = list(itertools.islice(decks(workload, seed), TRACE_DECKS[workload]))
    checker = Checker(workload)
    base = run_decks(workload, checker, prefix)
    tracer = Tracer()
    with tracer:
        run = run_decks(workload, checker, prefix, tracer=tracer)
    same = [o.digest for o in base.outcomes] == [o.digest for o in run.outcomes]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = sum(run.latencies) - sum(base.latencies)
    path = TRACE_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.save(path)
    return run, same, metrics, path


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    load_package()
    if args.trace:
        run, same, metrics, path = traced(args.workload, args.seed)
        notes = {"trace.overhead_s": f"spans: {path.relative_to(ROOT)}"}
    else:
        run, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
        same = True
    failed = sum(not o.ok for o in run.outcomes)
    inputs = TRACE_DIR / f"inputs-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    inputs.parent.mkdir(parents=True, exist_ok=True)
    inputs.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "ops": [op.record() for op in run.ops]}
    ) + "\n")
    print(f"{args.workload}  inputs: {len(run.ops)} operations in {inputs.relative_to(ROOT)}")
    for op, outcome in zip(run.ops, run.outcomes):
        if not outcome.ok:
            print(f"FAILED {op.record()}: {outcome.reason}", file=sys.stderr)
    if not same:
        print("FAILED traced and untraced outputs differ", file=sys.stderr)
    units = _units()
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}{note}")
    print(f"{args.workload}  error_rate = {failed / len(run.ops):.6g}  ({failed} of {len(run.ops)} failed)")
    result = {
        "correct": failed == 0 and same,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"perfbench: {workload} printed no result (exit {done.returncode})")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json at {ROOT}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
