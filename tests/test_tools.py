import importlib.util
import shutil
import sys
import types
from pathlib import Path

import numpy as np

import ucr
from ucr.cli_report import _quad_spec

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
SRC = str(Path(ucr.__file__).resolve().parents[1])


def _tool(name: str, home: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", home / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_airy_ab_agrees_with_itself(capsys, monkeypatch):
    # both trees are this one: every bit check holds, so no range needs mpmath, and every level is timed
    monkeypatch.setattr(sys, "path", list(sys.path))
    airy_ab = _tool("airy_ab")
    try:
        assert airy_ab.main(["--accuracy", SRC, SRC], rounds=2) == 0
        change = sys.modules["specfun_change"]
    finally:
        for label in ("parent", "change"):
            sys.modules.pop(f"specfun_{label}", None)
    out = capsys.readouterr().out
    assert out.count(": equal (") == 7 and "differ" not in out
    assert "bits airy_zero(n), n = 1..3000: equal (3000 zeros)" in out
    assert out.count("accuracy ") == 4 and all(f"accuracy {name}: bits equal (" in out for name in airy_ab.ranges(np.zeros(0)))
    assert "Airy evaluations per cold zero" in out
    lines = out.splitlines()
    for n in (14, 36, 200):  # one-element calls, batches, warm calls, then the three kernels
        timed = [line for line in lines if line.startswith(f"n={n} ")]
        assert len(timed) == 4
        assert "one-element calls" in timed[0] and "cold" in timed[0]
        assert " batches " in timed[1] and "cold" in timed[1]
        assert "warm" in timed[2]
        assert all(kernel in timed[3] for kernel in airy_ab.KERNELS)
    assert ucr.specfun.airy is ucr.airy  # the recorder is gone again
    assert set(change._BRANCHES.values()) == {change._negative, change._taylor, change._positive}  # and the timers


def test_airy_ab_usage():
    assert _tool("airy_ab").main([SRC]) == 64
    assert _tool("airy_ab").main(["--accuracy", SRC]) == 64


def test_airy_ab_accuracy_measures_only_the_elements_whose_bits_differ():
    # the second tree moves Ai' by one ulp on (-12, -9] alone: that range
    # reports both trees' errors over its two elements, the others equal bits
    airy_ab = _tool("airy_ab")

    def tree(nudge: bool):
        def airy(z):
            ai, aip = ucr.airy(z)
            moved = nudge & (z > -12.0) & (z <= -9.0)
            return ai, np.where(moved, np.nextafter(aip, np.inf), aip)

        return types.SimpleNamespace(airy=airy, airy_ai=types.SimpleNamespace(cache_clear=lambda: None))

    lines = airy_ab.accuracy(tree(False), tree(True), np.array([-20.0, -10.5, -9.0, -10.5, 0.5, 12.0]))
    assert lines[0] == "accuracy (-9, 9), absolute: bits equal (1 elements)"
    assert lines[3:] == ["accuracy z <= -12, over the envelope: bits equal (1 elements)",
                         "accuracy z >= 9, relative: bits equal (1 elements)"]
    for line, label in zip(lines[1:3], ("Ai ", "Ai'")):
        assert line.startswith(f"accuracy (-12, -9], over the envelope, {label}: worst ")
        assert line.endswith("(2 of 2 elements differ)")
        worst = [float(v) for v in line.split("worst ")[1].split(",")[0].split(" -> ")]
        assert max(worst) < 1e-15 and (worst[0] == worst[1]) == (label == "Ai ")


def test_quad_ab_agrees_with_itself(capsys, monkeypatch):
    # both trees are this one: every field agrees and every counted set is timed
    monkeypatch.setattr(sys, "path", list(sys.path))
    quad_ab = _tool("quad_ab")
    sweep = {"bouncer": (11,), "ho": (3,), "well": (2,)}
    counted = {"bouncer n=11": ("bouncer", (11,)), "well n=2": ("well", (2,))}
    try:
        assert quad_ab.main([SRC, SRC], sweep=sweep, counted=counted, rounds=1) == 0
    finally:
        for label in ("parent", "change"):
            sys.modules.pop(f"quadrature_{label}", None)
    out = capsys.readouterr().out
    assert f"fields: 0 of {6 * 8} (level, pass, spec) cases differ" in out  # 2 passes a level at 8 specs
    assert "bouncer n=11 " in out and "well n=2 " in out
    assert sys.getprofile() is None  # the profiler is gone again


def test_quad_ab_hands_each_tree_the_break_points_and_the_spec_as_given():
    # each tree's integrate_finite gets the pass's break points and the spec as they
    # are, as quantum_states._integrate hands them on
    quad_ab, seen = _tool("quad_ab"), []

    def points(f, points, spec):
        seen.append((points, spec))

    one_pass = ("quantum", "quantum", None, ((0.0, 0.25, 0.5, 0.75, 1.0),))
    tree = types.SimpleNamespace(QuadratureSpec=ucr.QuadratureSpec, integrate_finite=points)
    for fields in ({}, quad_ab.SPECS["quad-tol 1e-17"]):
        quad_ab.run(tree, one_pass, fields)
    assert seen == [((0.0, 0.25, 0.5, 0.75, 1.0), ucr.QuadratureSpec()),
                    ((0.0, 0.25, 0.5, 0.75, 1.0), _quad_spec(1e-17))]


def test_quad_ab_usage():
    assert _tool("quad_ab").main([SRC]) == 64


def test_diff_outputs_names_the_command_and_line_that_differ(capsys, monkeypatch, tmp_path):
    # two short commands; the second tree prints one digit fewer, which only the density grid shows
    diff_outputs = _tool("diff_outputs")
    density = ("density", "--system", "well", "--n", "2", "--points", "3")
    monkeypatch.setattr(diff_outputs, "commands", lambda: [("airy-zeros", "--count", "2"), density])
    assert diff_outputs.main([SRC, SRC]) == 0
    assert capsys.readouterr().out == "0 of 2 commands differ\n"

    shutil.copytree(Path(SRC) / "ucr", tmp_path / "ucr", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "ucr" / "cli_report.py"
    source = cli.read_text()
    assert source.count('f"{value:.11e}"') == 1
    cli.write_text(source.replace('f"{value:.11e}"', 'f"{value:.10e}"'))
    assert diff_outputs.main([SRC, str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ucr " + " ".join(density) + "\n  line 2:\n    - -1.00000000000e+00,")
    assert out.endswith("1 of 2 commands differ\n") and "airy-zeros" not in out


def test_diff_outputs_compares_stderr(capsys, monkeypatch, tmp_path):
    # a refusal prints nothing on stdout and exits 64 in both trees: only its message differs
    diff_outputs = _tool("diff_outputs")
    refusal = ("density", "--system", "ho", "--n", "0,1")
    monkeypatch.setattr(diff_outputs, "commands", lambda: [refusal])
    shutil.copytree(Path(SRC) / "ucr", tmp_path / "ucr", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "ucr" / "cli_report.py"
    source = cli.read_text()
    assert source.count("density needs exactly one quantum number") == 1
    cli.write_text(source.replace("density needs exactly one quantum number", "density needs one quantum number"))
    assert diff_outputs.main([SRC, str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "ucr " + " ".join(refusal) + "\n  stderr line 1:\n"
        "    - usage error: density needs exactly one quantum number\n"
        "    + usage error: density needs one quantum number\n"
        "1 of 1 commands differ\n"
    )


def test_diff_outputs_usage(capsys):
    assert _tool("diff_outputs").main([SRC]) == 64
    assert "usage" in capsys.readouterr().err


def test_benchmark_tracer_wraps_and_restores_the_package():
    # perfbench/tracing.py looks its traced functions up by name on import,
    # so a renamed or deleted one fails here and not only under --trace 1.
    tracing = _tool("tracing", ROOT / "perfbench")
    before = {(module.__name__, attr): value for module in tracing.NAMESPACES for attr, value in vars(module).items()}
    model = ucr.PotentialModel(ucr.BouncingBall(m=1.0, g=1.0))
    with tracing.Tracer() as tracer:
        ucr.quantum_moments_quadrature(ucr.eigen_level(model, 2))
    assert tracer.span_count() > 0
    metrics = tracer.layer_metrics()
    assert metrics["quantum_states.moment_sets"] == 1
    assert metrics["quadrature.integrals.finite"] == 1 and metrics["quadrature.integrals.semi_infinite"] == 0
    after = {(module.__name__, attr): value for module in tracing.NAMESPACES for attr, value in vars(module).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
