"""Static gate: every LP the program runs says what meters it.

A solve through the LP door (:func:`repro.lp.warm.solve_warm_or_cold`,
:func:`repro.lp.warm.warm_resolve`) or up the guard ladder
(:func:`repro.guard.escalate.escalate_lp`) charges device time only
through the ``CostHook`` it is handed; left to its default it runs
unpriced, and nothing fails.  A tree built without ``engine=`` runs every
node LP on the unpriced default engine.  So under ``src/`` (``check/``
aside: the oracles measure nothing) every such call passes a hook, every
``BranchAndBoundSolver(`` passes ``engine=``, and each call that is
unpriced on purpose sits in :data:`UNMETERED` with its reason.

``NULL_HOOK`` passed by name counts as a hook: the choice is then
written at the call.  A table entry whose call is gone or now metered
fails too, so the table cannot outlive its reasons.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: callee → (positional index of its hook, keyword that names it).
METERED = {
    "solve_warm_or_cold": (2, "hook"),
    "warm_resolve": (3, "hook"),
    "escalate_lp": (1, "hook"),
    "BranchAndBoundSolver": (2, "engine"),
}

#: (path under ``src/repro``, enclosing function, callee) → why it runs unmetered.
UNMETERED = {
    ("mip/portfolio.py", "_solve_lp", "solve_warm_or_cold"):
        "priced as one launch_lp_stream per LP; pricing it by hook is ROADMAP item 20",
    ("mip/portfolio.py", "_lns", "BranchAndBoundSolver"):
        "runs on the default engine, priced after as one launch_lp_stream; item 20",
    ("serve/parametric.py", "try_answer", "warm_resolve"):
        "priced by the parametric cache's own constants; ROADMAP item 14",
    ("api.py", "_solve_lp", "solve_warm_or_cold"):
        "every attempt is charged after it as one launch_lp_stream",
    ("mip/colgen.py", "solve_cutting_stock", "BranchAndBoundSolver"):
        "column generation is a host-only path with no device",
}


def _callee(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(node, function=None):
    """``(function, callee, call)`` of each metered-name call below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _callee(child) in METERED:
            yield function, _callee(child), child
        scope = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = child.name
        yield from _calls(child, scope)


def _metered(callee: str, call: ast.Call) -> bool:
    index, keyword = METERED[callee]
    return len(call.args) > index or any(k.arg == keyword for k in call.keywords)


def unmetered(tree: ast.AST, rel: str):
    """``(rel, function, callee, line)`` of each call in ``tree`` that
    passes no meter; ``rel`` is its path under ``src/repro``."""
    for function, callee, call in _calls(tree):
        if not _metered(callee, call):
            yield rel, function, callee, call.lineno


def _scan():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("check/"):
            continue
        yield from unmetered(ast.parse(path.read_text()), rel)


def test_every_lp_call_passes_its_meter():
    found = [
        f"{rel}:{line} ({function}) {callee}"
        for rel, function, callee, line in _scan()
        if (rel, function, callee) not in UNMETERED
    ]
    assert not found, f"pass a hook (or engine=), or a reason in UNMETERED: {found}"


def test_every_exception_is_still_an_unmetered_call():
    seen = {(rel, function, callee) for rel, function, callee, _ in _scan()}
    stale = sorted(set(UNMETERED) - seen)
    assert not stale, f"drop these UNMETERED entries: {stale}"


def test_the_gate_catches_a_planted_unmetered_call():
    planted = ast.parse(
        "def node(sf, warm, engine):\n"
        "    solve_warm_or_cold(sf, warm)\n"
        "    solve_warm_or_cold(sf, warm, engine.lp_hook)\n"
        "    lp.warm_resolve(sf, warm, audit=False)\n"
        "    escalate_lp(sf, hook=NULL_HOOK, first=None)\n"
        "    BranchAndBoundSolver(problem, options)\n"
        "    BranchAndBoundSolver(problem, options, engine=engine)\n"
    )
    found = [(callee, line) for _, _, callee, line in unmetered(planted, "mip/x.py")]
    assert found == [
        ("solve_warm_or_cold", 2),
        ("warm_resolve", 4),
        ("BranchAndBoundSolver", 6),
    ]
