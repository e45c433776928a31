"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import run

run.load_package()

import tracing  # noqa: E402  (needs the package on the path)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _band(op: workloads.Op):
    """The band an operation was drawn from, named by command and band index."""
    def index(bands, value):
        return next(i for i, band in enumerate(bands) if value in band)

    if not op.argv:
        return ("session", index(workloads._SESSION_LEVEL_BANDS, op.level))
    opts = dict(zip(op.argv[1::2], op.argv[2::2]))
    system, n = opts.get("--system"), int(opts.get("--n", 0))
    if op.argv[0] == "compare" and system == "bouncer":
        return ("compare-bouncer", index(workloads._BOUNCER_N_BANDS, n))
    if op.argv[0] == "compare" and system == "ho":
        return ("compare-ho", index(workloads._HO_N_BANDS, n))
    if op.argv[0] == "compare" and system == "well":
        return ("compare-well", index(workloads._WELL_N_BANDS, n))
    return (op.argv[0], system)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeds_share_bands(workload):
    first = list(islice(workloads.decks(workload, 1), 4))
    again = list(islice(workloads.decks(workload, 1), 4))
    second = list(islice(workloads.decks(workload, 2), 4))
    assert first == again
    assert first != second
    for deck_a, deck_b in zip(first, second):
        assert Counter(map(_band, deck_a)) == Counter(map(_band, deck_b))


def test_tracer_restores_every_name():
    modules = tracing.NAMESPACES + (tracing.quadrature, tracing.trajectory_oracle)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.specfun.airy_ai is not tracing.TRACED["specfun.airy_ai"]
        assert tracing.quantum_states.integrate_semi_infinite is not tracing.TRACED["quadrature.integrate_semi_infinite"]
        assert tracing.cli_report.airy_zero is not tracing.TRACED["specfun.airy_zero"]
        tracing.specfun.airy_ai(0.5)
        assert tracing.TRACED["specfun.airy_ai"].cache_info().currsize > 0
        tracing.specfun.airy_ai.cache_clear()  # must reach the real cache
        assert tracing.TRACED["specfun.airy_ai"].cache_info().currsize == 0
    after = [dict(vars(m)) for m in modules]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[name] is new[name] for name in old)
    assert tracer.span_count() == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_matches_untraced(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    traced_run, same, metrics, path = run.traced(workload, seed=3)
    assert same
    assert all(o.ok for o in traced_run.outcomes)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert path.is_file()


def test_untraced_run_emits_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "bouncer-session", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checker_rejects_wrong_outputs():
    checker = workloads.Checker("ho-well-scan")
    op = workloads.Op(("compare", "--system", "well", "--n", "3"))
    code, out, err = checker.run(op)
    assert checker.check(op, (code, out, err)).ok
    header, classical, quantum = out.splitlines()
    product = header.split(",").index("product")
    fields = quantum.split(",")
    fields[product] = "3.33333333333e-01"  # the classical value, not the finite-n one
    assert not checker.check(op, (code, "\n".join([header, classical, ",".join(fields)]), err)).ok
    assert not checker.check(op, (2, out, err)).ok
    assert not checker.check(op, (0, "", "")).ok


def test_airy_zero_references_come_from_mpmath():
    checker = workloads.Checker("bouncer-scan")
    op = workloads.Op(("airy-zeros", "--count", "5"))
    output = checker.run(op)
    assert checker.check(op, output).ok
    wrong = output[1].replace("2.338107410e+00", "2.338107420e+00")
    assert wrong != output[1]
    assert not checker.check(op, (0, wrong, "")).ok


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bouncer-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
