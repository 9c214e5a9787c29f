"""Static gates: the LP solvers have one way in.

:func:`repro.lp.warm.warm_resolve` turns a refused basis into a cold
fallback and audits every OPTIMAL answer from scratch; a direct call to
:func:`repro.lp.dual_simplex.dual_simplex_resolve` would skip both.  So
no module under ``src/`` but ``lp/warm.py`` may call it.

:func:`repro.lp.warm.solve_warm_or_cold` is the one LP door: the warm
attempt, the cold solve when it is refused, and every pivot that ran
counted once.  A cold solve is the dual loop from the slack basis, and
the primal loop :func:`repro.lp.simplex.solve_standard_form` only
finishes it from the basis that loop leaves.  So no module under
``src/`` but ``lp/warm.py`` may call it.

An ``__init__`` re-export is an import, not a call, and does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOOR = SRC / "lp" / "warm.py"


def _called(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _walk(node, function, name):
    """``(function, line)`` of each call to ``name`` below ``node``;
    ``function`` is the innermost enclosing ``def`` (None at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _called(child) == name:
            yield function, child.lineno
        scope = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _walk(child, scope, name)


def _calls_of(name):
    """``(path, function, line)`` of every call to ``name`` under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        for function, line in _walk(ast.parse(path.read_text()), None, name):
            yield path, function, line


def test_only_warm_resolve_calls_the_dual_loop():
    others = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, _, line in _calls_of("dual_simplex_resolve")
        if path != DOOR
    ]
    assert not others, f"call warm_resolve instead: {others}"


def test_the_gate_sees_the_door():
    assert any(path == DOOR for path, _, _ in _calls_of("dual_simplex_resolve"))


def test_only_the_door_solves_cold():
    others = [
        f"{path.relative_to(ROOT)}:{line} ({function})"
        for path, function, line in _calls_of("solve_standard_form")
        if path != DOOR
    ]
    assert not others, f"call solve_warm_or_cold instead: {others}"


def test_the_cold_gate_sees_the_door():
    assert any(path == DOOR for path, _, _ in _calls_of("solve_standard_form"))
