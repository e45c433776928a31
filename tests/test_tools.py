import importlib.util
import sys
from pathlib import Path

import ucr

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = str(Path(ucr.__file__).resolve().parents[1])


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
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
    assert ucr.specfun.airy is ucr.quantum_states.airy  # the recorder is gone again


def test_airy_ab_usage():
    assert _tool("airy_ab").main([SRC]) == 64
