"""Executed = charged: the launch list is the list of operations performed.

A recording :class:`CostHook` and the two recording basis objects — the
primal loop's :class:`ProductFormInverse`, the warm dual's
:class:`ExplicitInverse` — share one log, so every factorization /
inversion, ftran, btran and rank-1 update that *ran* sits next to the
charge that paid for it — none missing, none charged that did not run.
The lockstep tableau (:mod:`repro.lp.batch_simplex`) is held to its own
launch list: the start's complement GEMV when some member starts with a
column at its upper bound, a getrf, a trio per round (dual or primal) at
that round's active width, and a scan launch in exactly the rounds where
some member flipped.
Matrix–vector products and elementwise passes cannot be observed from
outside numpy; they are held to the per-iteration grammar DESIGN.md ("A
warm node costs its pivots" for the dual, "Bounds out of the basis" for
the primal) gives line for line, and for the dual loop the products on
``sf.a`` are counted through an ndarray subclass as well.  The dual
loop's ρ is a row of the explicit inverse, read in place: no launch, so
no token, but each read is paired with its ``on_inverse_row`` call.

Tokens, one per launch (DESIGN.md "One launch per step"): ``F``
factorize (primal) / invert (dual), ``f`` ftran, ``b`` btran, ``U`` eta
(primal, the one-pass vector launch) / rank-1 GER (dual); ``P`` a full
``Aᵀ·`` product (m × all columns), ``p`` a product over a column subset
(flipped / at-upper / moved columns); ``R`` a reducing pass over the
columns, ``r`` one over the rows.  Fused launches: ``A`` a full product with an
elementwise pass over its outputs in the epilogue, ``x`` an ftran whose
epilogue moves ``x_B`` by its result (β = 1), ``V`` the pivot's ``x_B``,
``d`` and ``y`` updates, ``E`` the carried entry's status, ``Δx_N`` and
``Δb`` passes, ``C`` the cost and reduced-cost shift of a stalled dual
loop.  ``S`` is one block of a primal flip run: its recorded
block solve (:meth:`ProductFormInverse.ftran_block`, the triangular pair
and eta chain over the block's columns) and its scan.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.traffic import s2_pool
from repro.device import kernels as K
from repro.la.updates import ExplicitInverse, ProductFormInverse
from repro.lp import batch_simplex
from repro.lp.pdhg_crossover import crossover_instances
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import FLIP_BLOCK, CostHook, SimplexOptions, solve_standard_form
from repro.lp.warm import (
    WarmStartState,
    cold_start,
    slack_start,
    solve_warm_or_cold,
    warm_resolve,
)
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip

from ._degenerate import degenerate_lp

#: One dual iteration: α = σAᵀρ with the ratio pass, ρ read off the
#: inverse (no launch); breakpoint scan; with flips their gemv and the ftran moving x_B; entering
#: ftran; the x_B / d / y pass; GER (or the refactor that replaces a
#: singular one); once, at a stall, the cost shift.
DUAL_REFACTOR = "FbPp?f"
DUAL_ITERATION = f"AR(?:px)?fV(?:U|{DUAL_REFACTOR})(?:{DUAL_REFACTOR})?C?"
#: From-scratch set-up: invert unless the parent's inverse is reused; y,
#: and d with the status pass; b − N_U u_U when a column sits at upper; x_B.
SCRATCH_ENTRY = "F?bAp?f"
#: Carried set-up: the status, Δx_N and Δb pass on the parent's iterate;
#: the product over the moved columns; the ftran moving x_B when b − N x_N
#: moved at all.
CARRIED_ENTRY = "Ep?x?"
#: Exit: nothing (OPTIMAL: y was kept current), the scan that found no
#: entering column plus the from-scratch proof (ρᵀb, the box's reach), or
#: (OPTIMAL under shifted costs) y and d re-priced under the true ones.
DUAL = re.compile(
    f"(?:{SCRATCH_ENTRY}|{CARRIED_ENTRY})(?:{DUAL_ITERATION})*(?:ARrR|bA)?"
)

#: One primal pricing pass: y = btran(c_B); d = c − Aᵀy; the first
#: candidate's ftran and ratio test; when it flips, its x_B pass and the
#: run's later candidates block by block; then the pivot that ends the
#: run (devex's row first; x_B axpy; eta; a refactor on its interval).
PRIMAL_REFACTOR = "Fp?f"
PRIMAL_PIVOT = f"(?:bP)?r(?:U|{PRIMAL_REFACTOR})(?:{PRIMAL_REFACTOR})?"
PRIMAL_ITERATION = f"bPfr(?:rS*)?{PRIMAL_PIVOT}"
#: The loop ends on a pass that pivots nowhere: nothing to enter, a ray,
#: or a run that used up every candidate.
PRIMAL_PASSES = f"(?:{PRIMAL_ITERATION})*(?:bP|bPfr(?:rS*)?)"
#: The primal loop from a given basis: its LU; b − N_U u_U when a column
#: sits at upper, and x_B; the passes; y at an OPTIMAL exit.  A start
#: whose x_B is out of bounds stops after x_B.
PRIMAL = re.compile(f"Fp?f(?:{PRIMAL_PASSES}b?)?")
#: A cold solve through the door: the dual loop from the slack basis,
#: then the primal loop when it finishes the answer; or, from a primal
#: start, the primal loop from the slack basis alone.
COLD = re.compile(f"(?:{DUAL.pattern})(?:{PRIMAL.pattern})?|{PRIMAL.pattern}")


class Recorder(CostHook):
    """Logs each charge as its token."""

    def __init__(self, m, n):
        self.m, self.n, self.log = m, n, []

    def on_factorize(self, m):
        self.log.append(("charge", "F"))

    def on_ftran(self, m, num_etas):
        self.log.append(("charge", "f"))

    def on_btran(self, m, num_etas):
        self.log.append(("charge", "b"))

    def on_vector_pass(self, *lengths):
        m, n = self.m, self.n
        self.log.append(("charge", {(m,): "U", (m, n, m): "V", (n, n, m): "E", (n,): "C"}[lengths]))

    def on_flip_run(self, m, num_etas, width):
        assert m == self.m and 0 < width <= FLIP_BLOCK
        self.log.append(("charge", "S"))

    def on_pricing(self, m, n, epilogue):
        assert m == self.m and 0 < n <= self.n and epilogue in (0, n)
        self.log.append(("charge", "A" if epilogue else "P" if n == self.n else "p"))

    def on_ratio_test(self, m):
        assert m in (self.m, self.n) and self.m != self.n
        self.log.append(("charge", "R" if m == self.n else "r"))

    def on_invert(self, m):
        assert m == self.m
        self.log.append(("charge", "F"))

    def on_inverse_apply(self, m, epilogue):
        assert m == self.m and epilogue in (0, m)
        # f or b, whichever then ran; x for an ftran moving x_B by its result.
        self.log.append(("charge", "apply+" if epilogue else "apply"))

    def on_inverse_row(self, m):
        assert m == self.m
        self.log.append(("row", "charged"))

    def on_inverse_update(self, m):
        assert m == self.m
        self.log.append(("charge", "U"))


@pytest.fixture
def recording(monkeypatch):
    """``record(m, n)`` → a hook whose log also receives what the basis
    object (either representation) ran."""
    hooks = []
    depth = [0]

    def spy(cls, name, token):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            # An operation built of others (a block solve) is one operation.
            depth[0] += 1
            try:
                out = original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if hooks and not depth[0]:
                log = hooks[-1].log
                if log and log[-1] == ("charge", "apply"):
                    log[-1] = ("charge", token)
                elif log and log[-1] == ("charge", "apply+"):
                    assert token == "f"
                    log[-1] = ("charge", "x")
                log.append(("ran", token))
            return out

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (ProductFormInverse, ExplicitInverse):
        for name, token in (("__init__", "F"), ("refactorize", "F"), ("ftran", "f"),
                            ("btran", "b"), ("update", "U")):
            spy(cls, name, token)
    spy(ProductFormInverse, "ftran_block", "S")
    row = ExplicitInverse.row

    def read(self, pos):
        if hooks:
            hooks[-1].log.append(("row", "read"))
        return row(self, pos)

    monkeypatch.setattr(ExplicitInverse, "row", read)

    def record(m, n):
        hooks.append(Recorder(m, n))
        return hooks[-1]

    return record


def launches(hook) -> str:
    """The charged tokens, after pairing every basis operation with its
    charge and every row read with its ``on_inverse_row``."""
    log, la = hook.log, ("F", "f", "x", "b", "U", "S", "apply", "apply+")
    rows = [t for kind, t in log if kind == "row"]
    assert rows == ["charged", "read"] * (len(rows) // 2)
    solve = {"x": "f"}  # the basis operation a fused launch ran
    charged = [solve.get(t, t) for kind, t in log if kind == "charge" and t in la]
    ran = [t for kind, t in log if kind == "ran"]
    assert charged == ran
    for i, (kind, token) in enumerate(log):
        if kind != "ran":
            continue
        # A solve is charged on the way in, a factorization or eta once it stands.
        neighbour = log[i - 1] if token in "fbS" else log[i + 1]
        assert neighbour[0] == "charge" and solve.get(neighbour[1], neighbour[1]) == token
    return "".join(t for kind, t in log if kind == "charge")


class CountingMatrix(np.ndarray):
    """``sf.a`` that counts the products taken on it (views included)."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


def dive(problem, depth, seed):
    """``(child form, parent state)`` pairs down one branching path."""
    lp = problem.relaxation()
    form = lp.to_standard_form()
    res = solve_warm_or_cold(form, None).result
    # The root's basis alone: the first child inverts it from scratch.
    state = WarmStartState.from_result(form, res).demoted()
    rng = np.random.default_rng(seed)
    for _ in range(depth):
        x = form.recover_x(res.x_standard)
        fractional = problem.fractional_integers(x)
        if fractional.size == 0:
            return
        var = int(fractional[rng.integers(fractional.size)])
        down = rng.random() < 0.5
        lp = lp.with_bounds(var, ub=np.floor(x[var])) if down else lp.with_bounds(var, lb=np.ceil(x[var]))
        form = lp.to_standard_form()
        yield form, state
        outcome = warm_resolve(form, state)
        if outcome is None or outcome.result.status is not LPStatus.OPTIMAL:
            return
        res, state = outcome.result, outcome.result.warm


PROBLEMS = [
    generate_knapsack(16, seed=3, correlation="strong"),
    generate_knapsack(20, seed=1),
    generate_random_mip(12, 6, seed=2, integer_fraction=1.0),
    generate_random_mip(10, 5, seed=5, integer_fraction=1.0, bound=3.0),
]


def test_dual_resolves_charge_what_they_run(recording):
    seen = {"flips": 0, "no_flips": 0, "carried": 0, "moved": 0, "still": 0,
            "fresh": 0, "infeasible": 0}
    for seed, problem in enumerate(PROBLEMS):
        for form, state in dive(problem, depth=8, seed=seed):
            hook = recording(form.m, form.n)
            form.a = form.a.view(CountingMatrix)
            CountingMatrix.products = 0
            # audit=False: the from-scratch audit multiplies by sf.a too.
            outcome = warm_resolve(form, state, hook=hook, audit=False)
            assert outcome is not None
            stream = launches(hook)
            assert DUAL.fullmatch(stream), stream
            assert CountingMatrix.products == sum(map(stream.count, "APp"))
            infeasible = outcome.result.status is LPStatus.INFEASIBLE
            assert stream.count("AR") - infeasible == outcome.result.iterations
            # Every pivot, and the infeasible exit's proof, reads one row.
            assert hook.log.count(("row", "read")) == stream.count("AR")
            seen["flips" if "Rpx" in stream else "no_flips"] += 1
            # A basis-only parent (the dive's root) re-derives everything; a
            # warm one leaves its inverse and iterate, and then nothing is
            # factorized or re-derived at entry.
            carried = state.iterate is not None
            assert carried == (state.inverse is not None) == stream.startswith("E")
            assert carried or stream.startswith("FbA")
            seen["carried" if carried else "fresh"] += 1
            if carried:
                seen["moved" if re.match("Ep?x", stream) else "still"] += 1
            seen["infeasible"] += infeasible
    assert all(seen.values()), seen


def test_slack_start_cold_solves_charge_what_they_run(recording):
    """A cold LP through the door is the dual loop from its slack basis:
    the from-scratch entry, its identity inverted like any basis."""
    for problem in PROBLEMS:
        form = problem.relaxation().to_standard_form()
        for bordered in (False, True):
            hook = recording(form.m, form.n)
            outcome = solve_warm_or_cold(form, None, hook=hook)
            assert not outcome.warm_used and outcome.result.status is LPStatus.OPTIMAL
            stream = launches(hook)
            assert DUAL.fullmatch(stream) and stream.startswith("FbA"), stream
            assert stream.count("AR") == outcome.result.iterations == outcome.pivots
            # A cut row's slack joins the basis: the bordered form starts so too.
            x = outcome.result.x_standard
            cut = np.zeros((1, form.n))
            cut[0, : form.num_structural] = 1.0
            form = form.with_appended_rows(cut, np.array([0.5 * cut[0] @ x]))


def test_an_iterate_priced_under_another_objective_is_not_carried(recording):
    carried = rederived = 0
    for form, state in dive(PROBLEMS[2], depth=8, seed=2):
        if state.iterate is None:
            continue
        # The same objective by value (a fresh array) is still the state's ...
        hook = recording(form.m, form.n)
        assert warm_resolve(replace(form, c=form.c.copy()), state, hook=hook) is not None
        stream = launches(hook)
        assert DUAL.fullmatch(stream) and stream.startswith("E"), stream
        carried += 1
        # ... a re-priced one is not: the inverse is reused, y and d are not.
        hook = recording(form.m, form.n)
        outcome = warm_resolve(replace(form, c=2.0 * form.c), state, hook=hook)
        assert outcome is not None and outcome.reused_factors
        stream = launches(hook)
        assert DUAL.fullmatch(stream) and stream.startswith("bA"), stream
        rederived += 1
    assert carried and rederived


def test_dual_refactor_interval_is_charged(recording):
    """Interval 1 refactors after every pivot; interval 2 also at entry,
    once the dive's inverse has two updates on it — and an entry refactor
    means nothing is carried."""
    problem = generate_random_mip(14, 8, seed=4, integer_fraction=1.0)
    for interval in (1, 2):
        options = SimplexOptions(refactor_interval=interval)
        refactors = entry_refactors = 0
        for form, state in dive(problem, depth=8, seed=0):
            hook = recording(form.m, form.n)
            outcome = warm_resolve(form, state, options=options, hook=hook)
            assert outcome is not None
            stream = launches(hook)
            assert DUAL.fullmatch(stream), stream
            refactors += stream.count("F")
            if state.inverse is not None and stream[0] == "F":
                assert state.inverse.num_etas >= interval and not outcome.reused_factors
                assert stream.startswith("FbA")
                entry_refactors += 1
        assert refactors > 2
        assert entry_refactors or interval == 1


def _cold_corpus():
    for problem in PROBLEMS:
        yield problem.relaxation().to_standard_form()  # boxed: the dual loop alone
        # Unboxed positive costs over b ≥ 0: the primal start.
        yield problem.relaxation().to_standard_form().with_bounds_as_rows()
    rng = np.random.default_rng(7)
    # Negative rhs and equality rows, one of them redundant: unboxed
    # positive costs there are zeroed for the dual loop, the primal finishes.
    for _ in range(4):
        a_eq = rng.integers(-3, 4, (3, 6)).astype(float)
        a_eq[2] = 2 * a_eq[0]
        x0 = rng.integers(0, 3, 6).astype(float)
        form = LinearProgram(
            c=rng.integers(-3, 4, 6).astype(float),
            a_ub=rng.integers(-3, 4, (2, 6)).astype(float),
            b_ub=rng.integers(-2, 3, 2).astype(float),
            a_eq=a_eq, b_eq=a_eq @ x0, ub=np.append(np.full(5, 4.0), np.inf),
        ).to_standard_form()
        yield form
        # A cut row over every slack: no slack column is a unit vector.
        cut = np.zeros(form.n)
        cut[0] = 1.0
        cut[form.n - form.m:] = 1.0
        yield form.with_appended_rows(cut, [10.0])
    yield LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0]).to_standard_form()


@pytest.mark.parametrize("pricing", ["dantzig", "devex"])
def test_cold_solves_charge_what_they_run(recording, pricing):
    """The dual loop's stream, then the primal loop's when it finishes
    the answer, or the primal loop's alone from a primal start; the
    answer counts both loops' passes."""
    seen = {"dual_only": 0, "finished": 0, "primal": 0, "unbounded": 0, "infeasible": 0}
    options = SimplexOptions(pricing=pricing)
    for form in _cold_corpus():
        hook = recording(form.m, form.n)
        outcome = solve_warm_or_cold(form, None, hook=hook, cold_options=options)
        res = outcome.result
        stream = launches(hook)
        assert COLD.fullmatch(stream), stream
        primal = cold_start(form.c, form.upper, form.b)[2]
        dual_end = 0 if primal else DUAL.match(stream).end()
        assert primal == bool(PRIMAL.fullmatch(stream)), stream
        seen["primal" if primal else "finished" if dual_end < len(stream) else "dual_only"] += 1
        # A dual pass is one "AR"; a primal pass prices once ("bP").
        assert stream[:dual_end].count("AR") + stream[dual_end:].count("bP") >= res.iterations
        assert outcome.pivots == res.iterations
        assert res.basis is None or np.all(res.basis < form.n)
        seen["unbounded"] += res.status is LPStatus.UNBOUNDED
        seen["infeasible"] += res.status is LPStatus.INFEASIBLE
    assert all(seen.values()), seen


def test_a_stalled_dual_loop_charges_its_shift_and_its_re_pricing(recording):
    """A cold solve of the degenerate family: the dual loop shifts its
    costs once (one pass over the columns), and its OPTIMAL exit is
    re-priced under the true costs (a btran and a pricing)."""
    for seed in (0, 9, 51):
        # Boxed: the slack start is dual feasible and the dual loop alone answers.
        form = degenerate_lp(seed, boxed=True, rows=(10, 30), cols=(10, 40)).to_standard_form()
        hook = recording(form.m, form.n)
        outcome = solve_warm_or_cold(form, None, hook=hook)
        assert outcome.result.status is LPStatus.OPTIMAL
        stream = launches(hook)
        assert DUAL.fullmatch(stream) and stream.startswith("FbA"), stream
        assert stream.count("C") == 1 and stream.endswith("bA"), stream
        assert stream.count("AR") == outcome.result.iterations


@pytest.mark.parametrize("pricing", ["dantzig", "devex"])
def test_primal_passes_charge_what_they_run(recording, pricing):
    """The primal loop from the slack basis of each knapsack relaxation
    (b ≥ 0): runs of flips, block by block, and the pivot that ends each."""
    seen = {"run": 0, "block": 0}
    for problem in PROBLEMS[:2]:
        form = problem.relaxation().to_standard_form()
        hook = recording(form.m, form.n)
        res = solve_standard_form(
            form, slack_start(form).basis, options=SimplexOptions(pricing=pricing), hook=hook
        )
        assert res.status is LPStatus.OPTIMAL
        stream = launches(hook)
        assert PRIMAL.fullmatch(stream), stream
        # A pass counts once: a run of flips, its pivot, or both.
        runs = len(re.findall("bPfrr", stream))
        assert stream.count("U") + runs >= res.iterations
        seen["run"] += runs
        seen["block"] += stream.count("S")
    assert all(seen.values()), seen


class RecordingDevice:
    """Stands in for a ``Device``: logs each launch it is charged."""

    def __init__(self, log):
        self.log = log

    def _charge(self, cost, stream):
        assert stream is None
        self.log.append(("charge", cost))


def _lockstep_corpus():
    pool = s2_pool()
    yield [pool[0], pool[32], pool[64], pool[96]]  # 40 items: one dual round
    yield crossover_instances(16, 16, 4)
    yield [generate_knapsack(12, seed=s).relaxation() for s in range(3)]
    # No finite bounds: no start pass, no flips, every round a pivot.
    rng = np.random.default_rng(3)
    yield [
        LinearProgram(c=rng.random(5), a_ub=rng.random((4, 5)) + 0.1, b_ub=rng.random(4) + 1.0)
        for _ in range(3)
    ]
    # Boxed and unboxed positive costs: a primal start, no column
    # complemented, then primal rounds with flips.
    rng = np.random.default_rng(3)
    yield [
        LinearProgram(
            c=rng.standard_normal(6) + 0.5, a_ub=rng.random((4, 6)) + 0.1,
            b_ub=rng.random(4) + 1.0, ub=np.where(np.arange(6) % 2 == 0, 1.0, np.inf),
        )
        for _ in range(3)
    ]


def test_lockstep_rounds_charge_what_they_run(monkeypatch):
    """The start pass, then per round a trio at the active width, each
    phase's step and one scan launch when any member flipped (either
    phase); the round that finds every member optimal is a trio alone."""
    log = []

    def record(name, kind):
        original = getattr(batch_simplex, name)

        def wrapped(*args):
            out = original(*args)
            # _flip_runs(tab, flipped, act, order, run, rhs): each
            # member's flips this round.
            log.append((kind, args[4].copy() if kind == "ran" else None))
            return out

        monkeypatch.setattr(batch_simplex, name, wrapped)

    record("_scan_runs", "primal")
    record("_long_steps", "dual")
    record("_flip_runs", "ran")
    seen = dict.fromkeys(("start", "dual_rounds", "flip_rounds", "pivot_only_rounds"), 0)
    for lps in _lockstep_corpus():
        k, m, cols = len(lps), lps[0].num_ub_rows, lps[0].n + lps[0].num_ub_rows
        # A member's own rounds (width invariance: the same path alone);
        # it stays in the active width through the round that finds it
        # optimal.
        own = np.array([batch_simplex.solve_lp_batch([lp]).iterations for lp in lps])
        log.clear()
        res = batch_simplex.solve_lp_batch_on_device(lps, RecordingDevice(log))
        assert res.all_ok and res.iterations == own.max()
        raised = np.array([
            cold_start(lp.c, np.append(lp.ub, np.full(m, np.inf)), lp.b_ub)[0] for lp in lps
        ]).sum(axis=1)
        i = 0
        if raised.any():
            start = K.batched_gemm_kernel(int(np.count_nonzero(raised)), m + 1, 1, int(raised.max()))
            assert log[0] == ("charge", start)
            i = 1
            seen["start"] += 1
        assert log[i] == ("charge", K.batched_getrf_kernel(k, m))
        i += 1
        for r in range(1, res.iterations + 2):
            width = int(np.count_nonzero(own + 1 >= r))
            trio = [K.batched_trsv_kernel(width, m), K.batched_trsv_kernel(width, m),
                    K.batched_gemm_kernel(width, 1, cols, m)]
            assert log[i:i + 3] == [("charge", cost) for cost in trio], r
            i += 3
            if r > res.iterations:
                break  # the round that finds every member optimal
            runs = []
            while i < len(log) and log[i][0] in ("primal", "dual"):
                assert log[i + 1][0] == "ran"
                seen["dual_rounds"] += log[i][0] == "dual"
                runs.append(log[i + 1][1])
                i += 2
            assert runs, r
            run = np.concatenate(runs)
            if run.any():
                longest = int(run.max())
                scan_launch = K.batched_gemm_kernel(
                    int(np.count_nonzero(run)), m + 1, longest, longest
                )
                assert log[i] == ("charge", scan_launch)
                i += 1
                seen["flip_rounds"] += 1
            else:
                seen["pivot_only_rounds"] += 1
        assert i == len(log)
    assert all(seen.values()), seen
