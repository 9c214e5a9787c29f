"""The perf ruler's targets must keep resolving.

``perf/trace.py`` patches the program by name; a PR that deletes or
turns one of those names into something other than a plain function
breaks the benchmark, not the program.  This makes that a tier-1
failure instead of one only the separate ``perf-smoke`` job sees —
likewise the names ``perf/workloads.py`` imports from the program
(``repro.cluster``'s S2 workload, ``repro.lp.pdhg_crossover``'s
instances and tolerances).
"""

import importlib
import inspect

import pytest

from perf.trace import TARGETS


@pytest.mark.parametrize("target", [t for t, _, _ in TARGETS])
def test_target_resolves_to_a_plain_function(target):
    # The lookup Tracer.install() does.
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        original = getattr(module, cls_name).__dict__[attr]
    else:
        original = getattr(module, qualname)
    assert inspect.isfunction(original), f"{target} is not a plain function"


def test_workload_definitions_import():
    importlib.import_module("perf.workloads")
