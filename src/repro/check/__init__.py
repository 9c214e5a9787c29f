"""Correctness tooling: certificates, differential testing, fuzzing.

The float solvers in :mod:`repro.lp` / :mod:`repro.mip` are the ground
every experiment stands on; this package verifies them independently:

- :mod:`repro.check.certificates` — exact dyadic-integer arithmetic
  verification of returned solutions (primal feasibility, integrality,
  objective and dual-bound consistency).  Floats are dyadic rationals
  ``m·2**e`` and the audit only adds, subtracts, multiplies and
  compares, so integers on shared exponents *are* the exact rational
  audit — no operation leaves the ring;
- :mod:`repro.check.differential` — the same instance through every
  applicable solver pair, flagging disagreements beyond tolerance;
- :mod:`repro.check.metamorphic` — property-preserving instance
  transforms whose effect on the optimum is known exactly;
- :mod:`repro.check.fuzz` + :mod:`repro.check.shrinker` — a randomized
  harness over :mod:`repro.problems.random_mip` that runs one oracle per
  failure kind (``fuzz.ORACLES``) and, on any failure, greedily
  minimizes the instance under that oracle and writes a repro file that
  replays the same oracle.
"""

from repro.check.certificates import (
    CertificateCheck,
    CertificateReport,
    certify_first_order_lp,
    certify_lp_result,
    certify_mip_result,
    certify_mip_solution,
)
from repro.check.differential import (
    DifferentialReport,
    Disagreement,
    SolverRun,
    differential_cluster,
    differential_lp,
    differential_mip,
    differential_warm_lp,
)
from repro.check.fuzz import FuzzFailure, FuzzOptions, FuzzReport, replay_repro, run_fuzz
from repro.check.metamorphic import (
    MetamorphicReport,
    MetamorphicVariant,
    check_metamorphic,
    metamorphic_variants,
)
from repro.check.serialize import load_repro, problem_from_dict, problem_to_dict, save_repro
from repro.check.shrinker import ShrinkResult, shrink

__all__ = [
    "CertificateCheck",
    "CertificateReport",
    "DifferentialReport",
    "Disagreement",
    "FuzzFailure",
    "FuzzOptions",
    "FuzzReport",
    "MetamorphicReport",
    "MetamorphicVariant",
    "ShrinkResult",
    "SolverRun",
    "certify_first_order_lp",
    "certify_lp_result",
    "certify_mip_result",
    "certify_mip_solution",
    "check_metamorphic",
    "differential_cluster",
    "differential_lp",
    "differential_mip",
    "differential_warm_lp",
    "load_repro",
    "metamorphic_variants",
    "problem_from_dict",
    "problem_to_dict",
    "replay_repro",
    "run_fuzz",
    "save_repro",
    "shrink",
]
