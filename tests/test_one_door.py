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

A cold start is decided in one place, :func:`repro.lp.warm.cold_start`:
which positive costs start complemented, which are zeroed, and which
members start primal.  The door (``_solve_cold``) and the lockstep
tableau (``solve_lp_batch``) both call it, and no other function under
``src/`` builds a ``cost > 0`` mask.

An ``__init__`` re-export is an import, not a call, and does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOOR = SRC / "lp" / "warm.py"
TABLEAU = SRC / "lp" / "batch_simplex.py"


def _called(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _walk(node, function, match):
    """``(function, line)`` of each node below ``node`` that ``match(child,
    parent)`` accepts; ``function`` is the innermost enclosing ``def``
    (None at module level)."""
    for child in ast.iter_child_nodes(node):
        if match(child, node):
            yield function, child.lineno
        scope = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _walk(child, scope, match)


def _found(match):
    """``(path, function, line)`` of every node under ``src/`` ``match`` accepts."""
    for path in sorted(SRC.rglob("*.py")):
        for function, line in _walk(ast.parse(path.read_text()), None, match):
            yield path, function, line


def _calls_of(name):
    """``(path, function, line)`` of every call to ``name`` under ``src/``."""
    return _found(lambda node, _: isinstance(node, ast.Call) and _called(node) == name)


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


def test_both_cold_engines_call_the_one_start_rule():
    callers = {(path, function) for path, function, _ in _calls_of("cold_start")}
    assert callers == {(DOOR, "_solve_cold"), (TABLEAU, "solve_lp_batch")}, callers


def _zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _cost(node):
    """``c``, ``cost`` or ``<anything>.c``: a cost vector."""
    if isinstance(node, ast.Name):
        return node.id in ("c", "cost")
    return isinstance(node, ast.Attribute) and node.attr == "c"


def _positive_cost_mask(node, parent):
    """``cost > 0`` (or ``0 < cost``) as a value, not a branch's or a loop's test."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    if isinstance(parent, (ast.If, ast.While)) and node is parent.test:
        return False
    left, op, right = node.left, node.ops[0], node.comparators[0]
    return (isinstance(op, ast.Gt) and _cost(left) and _zero(right)) or (
        isinstance(op, ast.Lt) and _zero(left) and _cost(right)
    )


def test_only_the_start_rule_masks_positive_costs():
    masks = list(_found(_positive_cost_mask))
    assert [(path, function) for path, function, _ in masks] == [(DOOR, "cold_start")], [
        f"{path.relative_to(ROOT)}:{line} ({function})" for path, function, line in masks
    ]
