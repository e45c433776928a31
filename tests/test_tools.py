import importlib.util
import shutil
import sys
import types
from pathlib import Path

import ucr

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
SRC = str(Path(ucr.__file__).resolve().parents[1])


def _tool(name: str, home: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", home / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_airy_ab_agrees_with_itself(capsys, monkeypatch):
    # both trees are this one: every bit check holds and every level is timed
    monkeypatch.setattr(sys, "path", list(sys.path))
    airy_ab = _tool("airy_ab")
    try:
        assert airy_ab.main([SRC, SRC], rounds=2) == 0
        change = sys.modules["specfun_change"]
    finally:
        for label in ("parent", "change"):
            sys.modules.pop(f"specfun_{label}", None)
    out = capsys.readouterr().out
    assert out.count(": equal (") == 7 and "differ" not in out
    assert "bits airy_zero(n), n = 1..3000: equal (3000 zeros)" in out
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
    assert f"fields: 0 of {6 * 7} (level, pass, spec) cases differ" in out  # 2 passes a level at 7 specs
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
    for fields in ({}, {"max_subdivisions": 3}):
        quad_ab.run(tree, one_pass, fields)
    assert seen == [((0.0, 0.25, 0.5, 0.75, 1.0), ucr.QuadratureSpec()),
                    ((0.0, 0.25, 0.5, 0.75, 1.0), ucr.QuadratureSpec(max_subdivisions=3))]


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
