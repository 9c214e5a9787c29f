"""One PDHG loop: the single-LP solver is the lockstep engine at width 1.

Each test pins one of the differences the fold settled (DESIGN.md, "One
PDHG loop") or a capability the engine gained from the serial copy.
"""

import numpy as np
import pytest

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import ShapeError
from repro.guard.budget import GuardContext, guarding
from repro.guard.watchdog import WatchdogOptions
from repro.lp import pdhg as pdhg_module
from repro.lp.pdhg import (
    CHECK_EVERY,
    POWER_ITERATIONS,
    STEP_SIZE_SCALE,
    PDHGCostHook,
    PDHGOptions,
    _kkt,
    _lockstep_pdhg,
    _score,
    _step_limit,
    power_iteration_norm,
    saddle_from_lp,
    solve_lp_pdhg,
)
from repro.lp.pdhg_batch import solve_lp_pdhg_batch, solve_lp_pdhg_batch_on_device
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus

EPS = 1e-8


def random_lp(m, n, seed, a=None):
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)) if a is None else a,
        b_ub=rng.random(m) * 4 + 0.5,
        ub=np.full(n, 10.0),
    )


def sibling_batch(k, m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    return [random_lp(m, n, seed + 1 + i, a=a) for i in range(k)]


class RecordingHook(PDHGCostHook):
    def __init__(self):
        self.calls = []

    def on_layout(self, k, shared):
        self.calls.append(("layout", k, shared))

    def on_setup(self, k, m, n):
        self.calls.append(("setup", k, m, n))

    def on_iteration(self, k, m, n):
        self.calls.append(("iteration", k, m, n))

    def on_check(self, k, m, n):
        self.calls.append(("check", k, m, n))


class TestWidthOneIdentity:
    @pytest.mark.parametrize("m,n,seed", [(3, 4, 0), (8, 6, 2), (16, 18, 5)])
    def test_single_solver_is_the_batch_of_one(self, m, n, seed):
        lp = random_lp(m, n, seed)
        opts = PDHGOptions(tolerance=EPS)
        single_hook, batch_hook = RecordingHook(), RecordingHook()
        (single,), _ = _lockstep_pdhg([saddle_from_lp(lp)], opts, single_hook)
        member = solve_lp_pdhg_batch([lp], opts, hook=batch_hook).results[0]
        assert single.status is member.status is LPStatus.OPTIMAL
        assert single.stats == member.stats
        assert single.stats.power_iterations == POWER_ITERATIONS
        np.testing.assert_array_equal(single.x, member.x)
        np.testing.assert_array_equal(single.y, member.y)
        # Same engine, so the same device program: one charge per check
        # round (item 2), none for the start point (item 1).
        assert single_hook.calls == batch_hook.calls
        checks = [c for c in single_hook.calls if c[0] == "check"]
        assert len(checks) * CHECK_EVERY >= single.iterations
        assert single_hook.calls[0] == ("layout", 1, True)

    def test_kkt_checks_count_scored_candidates_only(self):
        # One block, one check: the iterate and the span average.
        res = solve_lp_pdhg(
            random_lp(6, 8, seed=3),
            PDHGOptions(tolerance=1e-14, max_iterations=20),
        )
        assert res.status is LPStatus.ITERATION_LIMIT
        assert res.stats.kkt_checks == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStepRule:
    """`_step_limit` against hand-computed values, and what the engine does with it."""

    def limit(self, omega, dx, dy, dkty):
        dx, dy, dkty = (np.array([v], dtype=float) for v in (dx, dy, dkty))
        return float(_step_limit(np.array([float(omega)]), dx, dy, dkty)[0])

    def test_limit_is_movement_over_twice_the_interaction(self):
        # ‖Δx‖² = 1, ‖Δy‖² = 4, Δxᵀdkty = 0.5: η_max = (1 + 4) / (2·0.5) = 5.
        assert self.limit(1.0, [1, 0], [0, 2], [0.5, 9]) == pytest.approx(5.0)
        # The interaction term counts by magnitude.
        assert self.limit(1.0, [1, 0], [0, 2], [-0.5, 9]) == pytest.approx(5.0)

    def test_primal_weight_splits_the_movement(self):
        # ω = 4: η_max = (4·1 + 4/4) / (2·0.5) = 5 again, by other terms;
        # ω = 2: (2·1 + 4/2) / 1 = 4.
        assert self.limit(4.0, [1, 0], [0, 2], [0.5, 9]) == pytest.approx(5.0)
        assert self.limit(2.0, [1, 0], [0, 2], [0.5, 9]) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "dx,dy,dkty",
        [
            ([0, 0], [0, 0], [0, 0]),   # Δ = 0
            ([1, 0], [0, 2], [0, 3]),   # movement, but Δx ⟂ KᵀΔy
        ],
    )
    def test_no_interaction_term_means_no_limit(self, dx, dy, dkty):
        assert self.limit(2.0, dx, dy, dkty) == np.inf

    def test_frozen_row_has_no_limit_beside_a_live_one(self):
        # A frozen member's ceiling is 0, so η = 0 and Δ = 0: its row must
        # stay a fixed point (0 ≤ inf accepts, min(0, inf) keeps 0).
        dx = np.array([[0.0, 0.0], [1.0, 0.0]])
        dy = np.array([[0.0, 0.0], [0.0, 2.0]])
        dkty = np.array([[0.0, 0.0], [0.5, 9.0]])
        limit = _step_limit(np.ones(2), dx, dy, dkty)
        assert limit.tolist() == [np.inf, 5.0]
        assert np.minimum(np.array([0.0, 7.0]), limit).tolist() == [0.0, 5.0]

    def test_first_span_is_the_fixed_step_of_the_whole_matrix(self):
        # η_max ≥ 1/‖K‖₂ whatever the proposal, so before the first restart
        # nothing is refused and every sweep uses STEP_SIZE_SCALE/‖K‖₂.
        lps = sibling_batch(3, 6, 8, seed=1)
        opts = PDHGOptions(tolerance=1e-14, max_iterations=40)
        res = solve_lp_pdhg_batch(lps, opts)
        assert res.rejected_steps == 0
        assert res.statuses == [LPStatus.ITERATION_LIMIT] * 3

    def test_a_norm_measured_too_low_is_caught_by_refusing_steps(self, monkeypatch):
        # Report a tenth of every norm (the whole matrix's and each restart
        # face's): steps start ten times too long, proposals run into their
        # limits, are refused, and pull the ceilings down — same answers.
        lps = sibling_batch(3, 6, 8, seed=20)
        honest = solve_lp_pdhg_batch(lps, PDHGOptions(tolerance=EPS))
        assert honest.all_ok and honest.rejected_steps == 0
        monkeypatch.setattr(
            pdhg_module,
            "power_iteration_norm",
            lambda k, iterations, hook=pdhg_module.NULL_PDHG_HOOK: 0.1
            * power_iteration_norm(k, iterations, hook),
        )
        res = solve_lp_pdhg_batch(lps, PDHGOptions(tolerance=EPS))
        assert res.all_ok
        assert all(r.stats.rejected_steps > 0 for r in res.results)
        assert res.objectives == pytest.approx(honest.objectives, abs=1e-6)

    def test_frozen_members_ride_the_unmasked_sweep_without_warnings(self):
        # Members stop at different checks, so early finishers sit at
        # η = 0 through the sweeps (and step-rule calls) of the slow one.
        lps = sibling_batch(3, 6, 8, seed=20)
        res = solve_lp_pdhg_batch(lps, PDHGOptions(tolerance=EPS))
        assert res.all_ok and len(set(res.member_iterations)) > 1
        for lp, member in zip(lps, res.results):
            alone = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
            assert member.objective == pytest.approx(alone.objective, abs=1e-6)
            assert np.all(np.isfinite(member.x)) and np.all(np.isfinite(member.y))


class TestWarmStartedMember:
    def test_warm_member_converges_sooner_and_siblings_do_not_move(self):
        lps = sibling_batch(3, 6, 8, seed=20)
        saddles = [saddle_from_lp(lp) for lp in lps]
        opts = PDHGOptions(tolerance=EPS)
        cold, _ = _lockstep_pdhg(saddles, opts)
        assert all(r.status is LPStatus.OPTIMAL for r in cold)
        slow = int(np.argmax([r.iterations for r in cold]))
        assert cold[slow].iterations > CHECK_EVERY
        initial = [None] * 3
        initial[slow] = (cold[slow].x, cold[slow].y)
        warm, _ = _lockstep_pdhg(saddles, opts, initial=initial)
        assert warm[slow].status is LPStatus.OPTIMAL
        assert warm[slow].iterations < cold[slow].iterations
        assert warm[slow].objective == pytest.approx(cold[slow].objective, abs=1e-6)
        for i in set(range(3)) - {slow}:
            assert warm[i].stats == cold[i].stats
            np.testing.assert_array_equal(warm[i].x, cold[i].x)
            np.testing.assert_array_equal(warm[i].y, cold[i].y)

    @pytest.mark.parametrize(
        "start", [(np.zeros(7), np.zeros(6)), (np.zeros(8), np.zeros((6, 1)))]
    )
    def test_misshapen_warm_start_is_a_shape_error(self, start):
        lp = random_lp(6, 8, seed=11)
        with pytest.raises(ShapeError, match="member 0"):
            _lockstep_pdhg([saddle_from_lp(lp)], PDHGOptions(), initial=[start])
        saddles = [saddle_from_lp(lp) for lp in sibling_batch(2, 6, 8, seed=1)]
        with pytest.raises(ShapeError, match="member 1"):
            _lockstep_pdhg(saddles, PDHGOptions(), initial=[None, start])


class TestFreezing:
    def test_watchdog_freezes_diverging_member_while_siblings_converge(self, monkeypatch):
        # Member 1 is unbounded; with ray detection off nothing but the
        # watchdog can stop its iterate running away along the ray.  The
        # relative KKT score saturates there (≈1.13 → 1.16) instead of
        # exploding, so a tight divergence factor stands in for blow-up.
        a = np.array([[1.0, -1.0], [-1.0, -1.0]])
        bounded = [
            LinearProgram(c=[-1.0, -2.0], a_ub=a, b_ub=[1.0, -1.0]),
            LinearProgram(c=[-2.0, -1.0], a_ub=a, b_ub=[2.0, -0.5]),
        ]
        runaway = LinearProgram(c=[1.0, 1.0], a_ub=a, b_ub=[1.0, -1.0])
        lps = [bounded[0], runaway, bounded[1]]
        opts = PDHGOptions(tolerance=1e-6)
        monkeypatch.setattr(pdhg_module, "_check_primal_ray", lambda s, dx, tol: False)
        monkeypatch.setattr(pdhg_module, "_check_dual_ray", lambda s, dy, tol: False)
        ctx = GuardContext(watchdog=WatchdogOptions(diverge_factor=1.01))
        with guarding(ctx):
            res = solve_lp_pdhg_batch(lps, opts)
        assert res.statuses == [LPStatus.OPTIMAL, LPStatus.NUMERICAL, LPStatus.OPTIMAL]
        trips = [e.detail for e in ctx.events if e.kind == "watchdog"]
        assert [t["signal"] for t in trips] == ["diverged"]
        # Unguarded there is no watchdog: the same member runs to the limit.
        free = solve_lp_pdhg_batch(lps, opts)
        assert free.statuses[1] is LPStatus.ITERATION_LIMIT
        assert res.iterations < free.iterations
        assert free.objectives[0] == res.objectives[0]
        assert free.objectives[2] == res.objectives[2]

    def test_limit_reports_the_best_candidate_not_the_raw_iterate(self, monkeypatch):
        lps = sibling_batch(3, 6, 8, seed=1)
        sweeps = 20
        opts = PDHGOptions(tolerance=1e-14, max_iterations=sweeps)
        monkeypatch.setattr(pdhg_module, "RUIZ_ITERATIONS", 0)  # unscaled, as below
        res = solve_lp_pdhg_batch(lps, opts)
        assert res.statuses == [LPStatus.ITERATION_LIMIT] * 3
        k = saddle_from_lp(lps[0]).k
        eta = STEP_SIZE_SCALE / power_iteration_norm(k, POWER_ITERATIONS)[0]
        improved = 0
        for lp, member in zip(lps, res.results):
            # Reference: the same sweeps as a plain single-LP loop.
            s = saddle_from_lp(lp)
            omega = np.linalg.norm(s.c_hat) / np.linalg.norm(s.q)
            tau, sigma = eta / omega, eta * omega
            x, y = np.clip(np.zeros(s.n), s.lb, s.ub), np.zeros(s.m)
            for _ in range(sweeps):
                x_new = np.clip(x - tau * (s.c_hat - s.k.T @ y), s.lb, s.ub)
                y = np.maximum(y + sigma * (s.q - s.k @ (2.0 * x_new - x)), 0.0)
                x = x_new
            raw = _score(*_kkt(s, x, y)[:3])
            reported = _score(member.primal_residual, member.dual_residual, member.gap)
            assert reported <= raw * (1 + 1e-9)
            improved += reported < 0.99 * raw
        assert improved  # somewhere the span average beats the iterate


class TestSharedDecisionLivesOnce:
    def test_device_prices_what_the_engine_decided(self):
        # Same K, written two ways: no equality block vs an empty one.
        lps = sibling_batch(3, 4, 5, seed=7)
        lps[1].a_eq, lps[1].b_eq = np.zeros((0, 5)), np.zeros(0)
        hook = RecordingHook()
        solve_lp_pdhg_batch(lps, hook=hook)
        assert hook.calls[0] == ("layout", 3, True)
        assert [c[0] for c in hook.calls].count("layout") == 1
        device = Device(V100)
        res = solve_lp_pdhg_batch_on_device(lps, device)
        assert res.all_ok
        assert device.metrics.count("kernels.gemm") > 0
        assert device.metrics.count("kernels.batched_gemm") == 0
