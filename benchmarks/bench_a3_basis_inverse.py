"""A3 (ablation) — the basis inverse: product form vs explicit (§5.1).

The warm dual simplex pivots on a resident *explicit* inverse: a solve is
one GEMV, a basis change one rank-1 GER over the whole m × m matrix.
The primal loop (E4's path) keeps the *product form*: a solve is two
triangular sweeps plus the eta chain, a basis change appends one
m-vector.  The explicit form launches fewer kernels per pivot and pays
an m² memory pass for it; this table measures where that trade turns.

Both sides are measured through the loops that run them, on the same
matrix at each m: the warm dual re-solving bound-tightened children of
one optimal vertex, and the primal loop over one refactor interval
(chain lengths 0..63), started from that vertex's basis under the
negated objective (primal feasible, and far from that objective's
optimum).  Only the basis object's own kernels are compared
(solves, update, and the refactorization spread over the interval) —
the ``Aᵀ·`` products and elementwise passes are the same under either.
Past the measured sizes the crossover is *priced*: the kernel builders
at larger m, each side weighted by its own measured solves and updates
per pivot (the dual's set-up and flips cost it more solves per pivot
than the primal takes).
"""

from dataclasses import replace

import numpy as np

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.warm import WarmStartState, warm_resolve
from repro.reporting import render_table
from repro.strategies.engine import DeviceCostHook

SIZES = [1, 16, 64, 256, 512]
SPECS = [V100, CPU_HOST]
INTERVAL = SimplexOptions().refactor_interval
CHILDREN = 8


class BasisMeter(DeviceCostHook):
    """``DeviceCostHook`` that also totals what the basis object cost."""

    def __init__(self, device):
        super().__init__(device, mode="dense")
        #: callback kind -> [calls, kernels, seconds]
        self.spent = {kind: [0, 0, 0.0] for kind in ("refactor", "solve", "update")}


def _metered(name, kind):
    charge = getattr(DeviceCostHook, name)

    def callback(self, *args):
        kernels, clock = self.device.kernel_count(), self.device.clock.now
        charge(self, *args)
        spent = self.spent[kind]
        spent[0] += 1
        spent[1] += self.device.kernel_count() - kernels
        spent[2] += self.device.clock.now - clock

    return callback


for _name, _kind in (
    ("on_factorize", "refactor"), ("on_invert", "refactor"),
    ("on_ftran", "solve"), ("on_btran", "solve"), ("on_flip_run", "solve"),
    ("on_inverse_apply", "solve"),
    ("on_inverse_update", "update"),
):
    setattr(BasisMeter, _name, _metered(_name, _kind))


class ProductFormMeter(BasisMeter):
    """The primal loop's one elementwise pass is its eta append."""

    on_vector_pass = _metered("on_vector_pass", "update")


def optimal_vertex(m, seed):
    """A dense boxed LP (m × 2m) built around a known optimal basis."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, 2 * m))
    a[:, :m] += m * np.eye(m)  # the basis: well conditioned
    x_basic = rng.uniform(1.0, 2.0, m)
    y = rng.standard_normal(m)
    c = a.T @ y
    c[m:] -= rng.uniform(0.1, 1.0, m)  # nonbasic at lower, d_j < 0
    form = StandardFormLP(
        c=c, a=a, b=a[:, :m] @ x_basic, num_structural=2 * m,
        pos_col=np.arange(2 * m), neg_col=np.full(2 * m, -1), shift=np.zeros(2 * m),
        upper=np.full(2 * m, 10.0),
    )
    return form, np.arange(m), x_basic


def per_pivot(meter, pivots):
    """(kernels, seconds, solves, updates) per pivot: solves and updates
    as run (set-up and exit included), one refactorization spread over
    the refactor interval."""
    refactors, refactor_kernels, refactor_seconds = meter.spent["refactor"]
    solve, update = meter.spent["solve"], meter.spent["update"]
    return (
        (solve[1] + update[1]) / pivots + refactor_kernels / refactors / INTERVAL,
        (solve[2] + update[2]) / pivots + refactor_seconds / refactors / INTERVAL,
        solve[0] / pivots,
        update[0] / pivots,
    )


def measure(m, spec):
    form, basis, x_basic = optimal_vertex(m, seed=m)
    # Explicit inverse: children of the vertex, each with one basic
    # variable's bound pulled under its value (a branch), re-solved warm.
    meter = BasisMeter(Device(spec))
    vertex = LPResult(LPStatus.OPTIMAL, basis=basis)
    seeded = warm_resolve(form, WarmStartState.from_result(form, vertex), hook=meter).result
    assert seeded.status is LPStatus.OPTIMAL and seeded.iterations == 0
    pivots = 0
    for child in range(min(CHILDREN, m)):
        upper = form.upper.copy()
        upper[child] = 0.5 * x_basic[child]
        outcome = warm_resolve(replace(form, upper=upper), seeded.warm, hook=meter)
        assert outcome is not None and not outcome.audit_failed and outcome.reused_factors
        assert outcome.result.status is LPStatus.OPTIMAL and outcome.result.iterations > 0
        pivots += outcome.result.iterations
    explicit = per_pivot(meter, pivots)

    # Product form: the primal loop over one refactor interval (E4's path).
    meter = ProductFormMeter(Device(spec))
    res = solve_standard_form(
        replace(form, c=-form.c), basis,
        options=SimplexOptions(max_iterations=INTERVAL), hook=meter,
    )
    return explicit, per_pivot(meter, res.iterations)


def priced_crossover(spec, explicit_mix, product_mix):
    """Smallest m at which the explicit inverse's basis kernels cost more
    per pivot than the product form's: the builders' prices at m, each
    side weighted by its own measured solves and updates per pivot."""
    chain = INTERVAL // 2  # mean eta-chain length over an interval

    def explicit(m):
        solves, updates = explicit_mix
        refactor = K.getrf_kernel(m).duration(spec) + K.getri_kernel(m).duration(spec)
        return (
            solves * K.gemv_kernel(m, m).duration(spec)
            + updates * K.ger_kernel(m, m).duration(spec)
            + refactor / INTERVAL
        )

    def product(m):
        solves, updates = product_mix
        solve = 2 * K.trsv_kernel(m).duration(spec) + K.eta_chain_kernel(m, chain).duration(spec)
        return (
            solves * solve
            + updates * K.axpy_kernel(m).duration(spec)
            + K.getrf_kernel(m).duration(spec) / INTERVAL
        )

    for m in range(16, 16385, 16):
        if explicit(m) > product(m):
            return m
    return None


def run_ablation():
    rows, crossovers = [], {}
    for spec in SPECS:
        measured = []
        for m in SIZES:
            explicit, product = measure(m, spec)
            measured.append((explicit[2:], product[2:]))
            rows.append(
                (
                    spec.name, m,
                    round(product[0], 1), round(product[1] * 1e6, 2),
                    round(explicit[0], 1), round(explicit[1] * 1e6, 2),
                    round(product[1] / explicit[1], 2),
                )
            )
        # The mixes of the sizes past the set-up-dominated m = 1 row.
        crossovers[spec.name] = priced_crossover(spec, *np.mean(measured[1:], axis=0))
    return rows, crossovers


def test_a3_basis_inverse(benchmark, report):
    rows, crossovers = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    for _, m, pfi_kernels, pfi_us, inv_kernels, inv_us, _ in rows:
        # Fewer launches per pivot at every size; cheaper wherever a tree
        # node's basis lives (m ≤ 64 on every instance the ledger runs).
        assert inv_kernels < pfi_kernels
        assert m > 64 or inv_us < pfi_us
    # The m² pass overtakes the launches it saves somewhere past that.
    assert all(m is None or m > 64 for m in crossovers.values())
    table = render_table(
        ["device", "m", "PFI kernels/pivot", "PFI µs/pivot",
         "inverse kernels/pivot", "inverse µs/pivot", "PFI / inverse"],
        rows,
        title=(
            "A3 — basis inverse per pivot: product form (primal loop) vs "
            "explicit (warm dual); basis kernels only, refactor ÷ "
            f"{INTERVAL}"
        ),
    )
    lines = [
        f"priced crossover on {name}: "
        + (f"m ≈ {m} (explicit dearer from there)" if m else "none up to m = 16384")
        for name, m in crossovers.items()
    ]
    report.add("A3_basis_inverse", table + "\n" + "\n".join(lines))
