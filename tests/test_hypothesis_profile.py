"""The session runs the hypothesis profile it asked for.

``tests/conftest.py`` loads ``tier1`` (or the plugin loads the profile
named by ``--hypothesis-profile``).  A test module that registers or
loads a profile at import time silently replaces that default for every
property collected after it; this test runs after collection, so such a
leak fails it.  A module that wants its own budget puts it on its own
``@settings(...)`` decorator.
"""

from hypothesis import settings


def test_the_session_default_is_the_loaded_profile(pytestconfig):
    name = pytestconfig.getoption("hypothesis_profile", None) or "tier1"
    active, loaded = settings.default, settings.get_profile(name)
    assert (active.max_examples, active.derandomize, active.database) == (
        loaded.max_examples,
        loaded.derandomize,
        loaded.database,
    )
    if name == "tier1":
        assert active.max_examples == 100
        assert active.derandomize
        assert active.database is None
