"""The integer audit is the ``Fraction`` audit, bit for bit.

``tests/check/_fraction_oracle.py`` is the exact-rational implementation
``repro.check.certificates`` shipped before it moved to dyadic-integer
arithmetic, kept verbatim as a test-only oracle.  Everything here asserts
that the full ``(name, ok, violation, tolerance, detail)`` list of a
report is *equal* between the two: on hypothesis-drawn LP / MIP /
first-order certificates (wide exponent spreads, signed zeros,
subnormals, empty equality blocks, infinite bounds, deliberately wrong
claims), on the ``repro fuzz --seed 0 --budget 50`` corpus, and on every
certify call of one smoke pass of the two perf workloads that audit.

The hypothesis budget is the active profile's (100 examples by default;
``--hypothesis-profile=ci`` from ``tests/conftest.py`` runs 5x).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.check
from repro.check import certificates as exact
from repro.check import fuzz
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import solve_lp
from repro.mip.problem import MIPProblem

from . import _fraction_oracle as oracle

CERTIFIERS = (
    "certify_mip_solution",
    "certify_mip_result",
    "certify_lp_result",
    "certify_first_order_lp",
)


def rows(report):
    return [(c.name, c.ok, c.violation, c.tolerance, c.detail) for c in report.checks]


def oracle_rows(name, args, kwargs):
    """The ``Fraction`` audit of the same call (it has no form/standard_form)."""
    kwargs = {k: v for k, v in kwargs.items() if k not in ("form", "standard_form")}
    return rows(getattr(oracle, name)(*args, **kwargs))


def assert_same(name, args, kwargs=None):
    """Both audits on one call; returns the integer audit's report."""
    kwargs = kwargs or {}
    got = getattr(exact, name)(*args, **kwargs)
    assert rows(got) == oracle_rows(name, args, kwargs)
    return got


# -- hypothesis: drawn certificates ---------------------------------------------


@st.composite
def cases(draw):
    """Shape, exponent spread, special values and which claim to corrupt."""
    return SimpleNamespace(
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        m_ub=draw(st.integers(0, 4)),
        m_eq=draw(st.integers(0, 2)),
        n=draw(st.integers(1, 5)),
        spread=draw(st.sampled_from([0, 3, 40, 100])),
        special=draw(st.sampled_from(["none", "zeros", "subnormal"])),
        inf_bounds=draw(st.sampled_from(["none", "some", "all"])),
        wrong=draw(st.sampled_from(["none", "x", "duals", "objective"])),
        honest=draw(st.booleans()),
    )


def wide(case, shape, spread=None):
    """Floats whose exponents cover ``10**±spread``, plus the special values."""
    spread = case.spread if spread is None else spread
    rng = case.rng
    out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-spread, spread, shape)
    if case.special == "zeros":
        out = np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], shape), out)
    elif case.special == "subnormal":
        tiny = rng.integers(1, 2**20, shape) * 5e-324 * rng.choice([-1.0, 1.0], shape)
        out = np.where(rng.random(shape) < 0.3, tiny, out)
    return out


def drawn_lp(case, spread=None, boxed=False):
    """A random LP; variables under the ``boxed`` mask keep finite bounds."""
    n, rng = case.n, case.rng
    lb = np.where(rng.random(n) < 0.3, wide(case, n, spread), 0.0)
    ub = lb + np.abs(wide(case, n, spread)) + 1.0
    if case.inf_bounds != "none":
        p = 1.0 if case.inf_bounds == "all" else 0.4
        lb = np.where((rng.random(n) < p) & ~boxed, -np.inf, lb)
        ub = np.where((rng.random(n) < p) & ~boxed, np.inf, ub)
    block = lambda m: (wide(case, (m, n), spread), wide(case, m, spread)) if m else (None, None)
    (a_ub, b_ub), (a_eq, b_eq) = block(case.m_ub), block(case.m_eq)
    return LinearProgram(
        c=wide(case, n, spread), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, lb=lb, ub=ub
    )


@settings(deadline=None)
@given(case=cases())
def test_lp_certificate_equals_fraction_oracle(case):
    lp = drawn_lp(case)
    sf = lp.to_standard_form()
    result = None
    if case.honest and case.spread <= 3:
        try:
            result = solve_lp(lp)
        except Exception:
            result = None
    if result is None or result.status is not LPStatus.OPTIMAL or result.duals is None:
        # A fabricated claim: the audit does not need it to be true.
        x = wide(case, lp.n)
        result = LPResult(
            status=LPStatus.OPTIMAL,
            x=x,
            objective=float(lp.c @ x),
            duals=wide(case, sf.m),
            x_standard=np.abs(wide(case, sf.n)),
        )
    if case.wrong == "x":
        result.x = result.x + wide(case, lp.n, 3) * 1e-6
    elif case.wrong == "duals":
        result.duals = result.duals * (1.0 + 1e-5) - 1e-7
    elif case.wrong == "objective":
        result.objective = result.objective * (1.0 + 1e-6) + 1e-7
    form = {}
    assert_same("certify_lp_result", (lp, result), {"form": form, "standard_form": sf})
    # Second audit through the now-filled form, and with explicit tolerances.
    assert_same("certify_lp_result", (lp, result), {"form": form})
    assert_same(
        "certify_lp_result", (lp, result),
        {"feasibility_tol": 1e-3, "optimality_tol": 0.0, "form": form},
    )


@settings(deadline=None)
@given(case=cases())
def test_mip_certificate_equals_fraction_oracle(case):
    integer = case.rng.random(case.n) < 0.6
    lp = drawn_lp(case, boxed=integer)  # MIPProblem boxes free integers itself
    problem = MIPProblem(
        c=lp.c, integer=integer, a_ub=lp.a_ub, b_ub=lp.b_ub,
        a_eq=lp.a_eq, b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub,
    )
    x = wide(case, lp.n)
    if case.wrong != "x":
        x = np.where(integer, np.round(x), x)
    if case.honest:
        x = x + np.where(integer, 1e-7, 0.0)  # inside the integrality budget
    objective = float(problem.c @ x)
    if case.wrong == "objective":
        objective += 1e-3 * (1.0 + abs(objective))
    bound = objective + (-1.0 if case.wrong == "duals" else 1.0) * (1.0 + abs(objective))
    form = {}
    assert_same("certify_mip_solution", (problem, x), {"form": form})
    assert_same("certify_mip_solution", (problem, x, objective, bound), {"form": form})
    assert_same(
        "certify_mip_solution", (problem, x, objective),
        {"feasibility_tol": 0.0, "integrality_tol": 0.25},
    )


@settings(deadline=None)
@given(case=cases())
def test_first_order_certificate_equals_fraction_oracle(case):
    # Squared norms: keep (data · point)² inside float range so the
    # oracle's unsaturated float() conversion does not overflow.
    spread = min(case.spread, 40)
    lp = drawn_lp(case, spread)
    rng = case.rng
    x = wide(case, lp.n, 3)
    if case.honest:
        x = np.clip(x, lp.lb, lp.ub)
    y = wide(case, case.m_eq + case.m_ub, 3)
    if case.wrong != "duals":
        y[case.m_eq:] = np.abs(y[case.m_eq:])
    objective = float(lp.c @ x) + (1e-3 if case.wrong == "objective" else 0.0)
    result = SimpleNamespace(status=LPStatus.OPTIMAL, x=x, y=y, objective=objective)
    assert_same("certify_first_order_lp", (lp, result))
    assert_same("certify_first_order_lp", (lp, result, float(rng.choice([1e-4, 1.0, 1e6]))))


# -- recorded corpora --------------------------------------------------------------


class _Recorder:
    """Swaps each public certifier for 'run both audits, compare, count'."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.failures = 0
        for name in CERTIFIERS:
            wrapper = self._wrap(name)
            for module in (exact, repro.check, fuzz):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)

    def _wrap(self, name):
        original = getattr(exact, name)

        def both(*args, **kwargs):
            report = original(*args, **kwargs)
            assert rows(report) == oracle_rows(name, args, kwargs)
            self.calls += 1
            self.failures += not report.ok
            return report

        return both


def _corpus_options(out_dir):
    """``repro fuzz --seed 0 --budget 50``'s instances, certificate lane only."""
    return fuzz.FuzzOptions(
        budget=50, seed=0, shrink=False, differential=False, lp_differential=False,
        metamorphic=False, out_dir=str(out_dir),
    )


def test_fuzz_corpus_equals_fraction_oracle(monkeypatch, tmp_path):
    """Every certificate of the ``repro fuzz --seed 0 --budget 50`` corpus."""
    recorder = _Recorder(monkeypatch)
    report = fuzz.run_fuzz(_corpus_options(tmp_path))
    assert report.ok and report.checks["certificate"] == 50
    assert recorder.calls >= 50 and recorder.failures == 0


def test_fuzz_corpus_with_a_lying_solver_equals_fraction_oracle(monkeypatch, tmp_path):
    """The same corpus with corrupted answers: failing reports agree too."""
    recorder = _Recorder(monkeypatch)
    honest = fuzz.default_solve_fn()

    def lying(problem):
        result = honest(problem)
        if result.x is not None:
            result.x = result.x + 0.25
            result.best_bound = result.objective - 1.0
        return result

    report = fuzz.run_fuzz(_corpus_options(tmp_path), solve_fn=lying)
    assert not report.ok
    assert recorder.failures >= 40


@pytest.mark.parametrize(
    "workload, minimum", [("cluster-dup", 40), ("tree-portfolio", 20)]
)
def test_perf_smoke_pass_equals_fraction_oracle(monkeypatch, workload, minimum):
    """Every certify call of one ``--smoke`` pass of the auditing workloads."""
    from perf.workloads import WORKLOADS

    recorder = _Recorder(monkeypatch)
    w = WORKLOADS[workload]
    w.run(w.build(0, smoke=True))
    assert recorder.calls >= minimum and recorder.failures == 0


# -- the cached form is checked by value ---------------------------------------------


def _small_lp():
    return LinearProgram(
        c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0], ub=[3.0, 3.0]
    )


class TestCachedForm:
    def test_form_is_filled_once_and_reused(self):
        lp = _small_lp()
        result = solve_lp(lp)
        form = {}
        assert exact.certify_lp_result(lp, result, form=form).ok
        held = {role: id(entry[1]) for role, entry in form.items()}
        assert set(held) == {"rows_ub", "standard_t"}
        assert exact.certify_lp_result(lp, result, form=form).ok
        assert {role: id(entry[1]) for role, entry in form.items()} == held

    def test_matrix_mutated_in_place_rebuilds_and_follows_new_matrix(self):
        lp = _small_lp()
        result = solve_lp(lp)
        form = {}
        assert exact.certify_lp_result(lp, result, form=form).ok
        stale = form["rows_ub"][1]
        lp.a_ub[0, 0] = 5.0  # same array object, different matrix
        report = assert_same("certify_lp_result", (lp, result), {"form": form})
        assert not report.ok
        assert any(c.name == "rows_ub" for c in report.failures)
        assert form["rows_ub"][1] is not stale
        assert np.array_equal(form["rows_ub"][0], lp.a_ub)

    def test_form_of_another_problem_cannot_certify_this_one(self):
        lp, other = _small_lp(), _small_lp()
        # lp's optimum (3, 1) breaks this row of `other`, whichever of the
        # degenerate vertex's optimal duals the solver happens to return.
        other.a_ub[0, 1] = 2.0
        form = {}
        assert exact.certify_lp_result(lp, solve_lp(lp), form=form).ok
        result = solve_lp(other)
        assert_same("certify_lp_result", (other, result), {"form": form})
        # ... and the wrong answer for `other` still fails through lp's form.
        report = assert_same("certify_lp_result", (other, solve_lp(lp)), {"form": form})
        assert not report.ok

    def test_mip_form_survives_between_candidates(self):
        problem = MIPProblem(
            c=[5.0, 4.0], integer=[True, True], a_ub=[[6.0, 4.0], [1.0, 2.0]],
            b_ub=[24.0, 6.0], ub=[10.0, 10.0],
        )
        form = {}
        good = assert_same("certify_mip_solution", (problem, [3.0, 1.0], 19.0), {"form": form})
        bad = assert_same("certify_mip_solution", (problem, [4.0, 1.0], 24.0), {"form": form})
        assert good.ok and not bad.ok and set(form) == {"rows_ub"}


# -- non-finite claims fail, huge ones saturate ---------------------------------------


class TestNonFiniteAndOverflow:
    PROBLEM = MIPProblem(
        c=[1.0, 1.0], integer=[True, False], a_ub=[[1.0, 1.0]], b_ub=[4.0], ub=[3.0, 3.0]
    )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_entry_fails_finite_check(self, bad):
        report = exact.certify_mip_solution(self.PROBLEM, [bad, 1.0])
        assert [c.name for c in report.checks] == ["finite"]
        assert not report.ok and "x[0]" in report.checks[0].detail

    def test_non_finite_objective_and_nan_bound_fail_finite_check(self):
        report = exact.certify_mip_solution(self.PROBLEM, [1.0, 1.0], objective=math.nan)
        assert not report.ok and report.checks[0].detail.startswith("objective is")
        report = exact.certify_mip_solution(self.PROBLEM, [1.0, 1.0], 2.0, math.nan)
        assert not report.ok and report.checks[0].detail.startswith("best_bound is")
        # An infinite bound claims nothing and is skipped, as before.
        assert exact.certify_mip_solution(self.PROBLEM, [1.0, 1.0], 2.0, math.inf).ok

    @pytest.mark.parametrize("field", ["x", "duals", "x_standard", "objective"])
    def test_non_finite_lp_result_field_fails_finite_check(self, field):
        lp = _small_lp()
        result = solve_lp(lp)
        value = getattr(result, field)
        if field == "objective":
            result.objective = math.inf
        else:
            value = value.copy()
            value[-1] = math.nan
            setattr(result, field, value)
        report = exact.certify_lp_result(lp, result)
        assert [c.name for c in report.failures] == ["finite"]
        assert report.failures[0].detail.startswith(field)

    def test_non_finite_first_order_pair_fails_finite_check(self):
        lp = _small_lp()
        claim = SimpleNamespace(
            status=LPStatus.OPTIMAL, x=np.array([1.0, 1.0]),
            y=np.array([0.0, math.inf]), objective=5.0,
        )
        report = exact.certify_first_order_lp(lp, claim)
        assert [c.name for c in report.failures] == ["finite"]
        assert "y[1]" in report.failures[0].detail

    def test_huge_violation_saturates_the_reported_float(self):
        problem = MIPProblem(
            c=[1.0, 1.0], integer=[False, False], a_ub=[[1e300, 1e300]], b_ub=[1.0],
            ub=[math.inf, math.inf],
        )
        report = exact.certify_mip_solution(problem, [1e300, 1e300])
        check = next(c for c in report.checks if c.name == "rows_ub")
        assert not check.ok and check.violation == math.inf
        with pytest.raises(OverflowError):
            oracle.certify_mip_solution(problem, [1e300, 1e300])

    def test_wrong_length_lp_solution_fails_shape_check(self):
        lp = _small_lp()
        result = solve_lp(lp)
        result.x = np.append(result.x, 0.0)
        report = exact.certify_lp_result(lp, result)
        assert [c.name for c in report.checks] == ["shape"] and not report.ok
