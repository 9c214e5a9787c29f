"""Hypothesis profiles for the ``check`` suites.

``--hypothesis-profile=ci`` (the CI ``fuzz-smoke`` job) runs the
exact-audit equivalence properties at five times tier-1's default
budget of 100 examples.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
