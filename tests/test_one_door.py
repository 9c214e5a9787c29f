"""Static gate: the dual simplex has one way in.

:func:`repro.lp.warm.warm_resolve` turns a refused basis into a cold
fallback and audits every OPTIMAL answer from scratch; a direct call to
:func:`repro.lp.dual_simplex.dual_simplex_resolve` would skip both.  So
no module under ``src/`` but ``lp/warm.py`` may call it.  An
``__init__`` re-export is an import, not a call, and does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOOR = ROOT / "src" / "repro" / "lp" / "warm.py"


def _calls_of(name):
    """``(path, line)`` of every call to ``name`` under ``src/``."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                yield path, node.lineno


def test_only_warm_resolve_calls_the_dual_loop():
    others = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, line in _calls_of("dual_simplex_resolve")
        if path != DOOR
    ]
    assert not others, f"call warm_resolve instead: {others}"


def test_the_gate_sees_the_door():
    assert any(path == DOOR for path, _ in _calls_of("dual_simplex_resolve"))
