"""Hypothesis profiles for the whole test tree.

``tier1`` (loaded by default) is derandomised and keeps no example
database: tier-1 runs the same examples on every machine and on every
run, and a stale ``.hypothesis`` directory left by an earlier checkout
cannot replay a failure into it.  Whatever a randomised run finds is
pinned as an ``@example`` on the property instead.

``--hypothesis-profile=ci --hypothesis-seed=0`` (the CI ``fuzz-smoke``
job) spends five times tier-1's default budget of 100 examples on the
properties that take their budget from the profile — the exact-audit
and bit-identity oracles and the HiGHS lane — off the tier-1 clock.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile("tier1")
