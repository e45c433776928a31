import importlib.util
import sys
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
    try:
        assert _tool("airy_ab").main([SRC, SRC], rounds=2) == 0
    finally:
        for label in ("parent", "change"):
            sys.modules.pop(f"specfun_{label}", None)
    out = capsys.readouterr().out
    assert out.count(": equal (") == 6 and "differ" not in out
    assert all(f"n={n} " in out for n in (14, 36, 200))
    assert ucr.specfun.airy is ucr.airy  # the recorder is gone again


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
    assert sys.getprofile() is None  # the profiler and the recorder are gone again
    assert ucr.classical_ensemble.integrate_singular_endpoints is ucr.quadrature.integrate_singular_endpoints


def test_quad_ab_lists_a_rule_the_parent_lacks_as_moved(capsys, monkeypatch, tmp_path):
    # a parent tree with no integrate_rule cannot run the oscillator's node
    # rule: its quantum cases are listed as moved, every other case compared
    monkeypatch.setattr(sys, "path", list(sys.path))
    (tmp_path / "ucr").mkdir()
    source = Path(ucr.quadrature.__file__).read_text()
    (tmp_path / "ucr" / "quadrature.py").write_text(source + "\ndel integrate_rule\n")
    quad_ab = _tool("quad_ab")
    sweep = {"ho": (3, 4), "well": (2,)}
    try:
        assert quad_ab.main([str(tmp_path), SRC], sweep=sweep, counted={}, rounds=1) == 0
    finally:
        for label in ("parent", "change"):
            sys.modules.pop(f"quadrature_{label}", None)
    out = capsys.readouterr().out
    assert f"fields: 0 of {4 * 7} (level, pass, spec) cases differ" in out  # 3 classical passes and the well's
    assert "moved by design: 14 ho quantum cases (n = 3, 4 at 7 specs)" in out


def test_quad_ab_usage():
    assert _tool("quad_ab").main([SRC]) == 64


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
    assert metrics["quantum_states.moment_sets"] == 1 and metrics["quadrature.integrals.semi_infinite"] == 1
    after = {(module.__name__, attr): value for module in tracing.NAMESPACES for attr, value in vars(module).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
