"""Property-based tests (hypothesis) for the cluster routing tier.

Three properties the sharded tier leans on:

- **balance** — consistent hashing with 64 vnodes keeps the max/mean
  shard key-load bounded (a hot ring arc cannot swallow the cluster);
- **monotonicity** — a group join/leave moves only the keys whose
  owning arc changed, ~K/N of them, and *only* between the touched
  group and the rest (no unrelated key ever changes owner);
- **determinism** — routing is a pure function of (key, live set,
  loads): same inputs, same owner, in any join order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import HashRing, VNODES, make_router

#: This module's own budget; loading a profile here would replace the
#: session's for every module collected after it.
PROPERTY = settings(deadline=None, max_examples=50)


def ring_of(groups):
    """A ring with ``groups`` joined in the given order."""
    ring = HashRing()
    for gid in groups:
        ring.join(gid)
    return ring


keys_strategy = st.lists(
    st.text(min_size=1, max_size=24), min_size=32, max_size=256, unique=True
)
groups_strategy = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=2, max_size=8, unique=True
)


class TestBalance:
    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_max_over_mean_load_bounded(self, keys, groups):
        ring = ring_of(groups)
        counts = {g: 0 for g in groups}
        for key in keys:
            counts[ring.owner(key)] += 1
        mean = len(keys) / len(groups)
        # 64 vnodes/group keeps arc-length variance modest; 2.5x mean is
        # a loose envelope that still fails for a genuinely broken ring
        # (a degenerate ring puts everything on one group: N x mean).
        assert max(counts.values()) <= max(2.5 * mean, 12.0)

    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_every_group_owns_something_eventually(self, keys, groups):
        # With >= 32 keys and <= 8 groups a group owning *zero* keys is
        # possible but must be rare; assert the ring at least spreads
        # keys across more than one group.
        ring = ring_of(groups)
        owners = {ring.owner(key) for key in keys}
        assert len(owners) > 1


class TestMonotonicity:
    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_join_moves_only_keys_onto_the_joiner(self, keys, groups):
        newcomer = max(groups) + 1
        ring = ring_of(groups)
        before = {key: ring.owner(key) for key in keys}
        ring.join(newcomer)
        after = {key: ring.owner(key) for key in keys}
        moved = {k for k in keys if before[k] != after[k]}
        # Every moved key moved TO the newcomer — never between
        # incumbents (that's the consistent-hashing contract).
        for key in moved:
            assert after[key] == newcomer
        # Expected movement is ~K/N; allow generous sampling slack but
        # rule out a rehash-everything implementation.
        expected = len(keys) / (len(groups) + 1)
        assert len(moved) <= max(3.0 * expected, 12.0)

    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_leave_moves_only_the_leavers_keys(self, keys, groups):
        ring = ring_of(groups)
        before = {key: ring.owner(key) for key in keys}
        leaver = groups[0]
        ring.leave(leaver)
        after = {key: ring.owner(key) for key in keys}
        for key in keys:
            if before[key] == leaver:
                assert after[key] != leaver
            else:
                # Keys not owned by the leaver must not move at all.
                assert after[key] == before[key]

    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_join_then_leave_is_identity(self, keys, groups):
        newcomer = max(groups) + 1
        ring = ring_of(groups)
        before = {key: ring.owner(key) for key in keys}
        ring.join(newcomer)
        ring.leave(newcomer)
        after = {key: ring.owner(key) for key in keys}
        assert before == after


class TestDeterminism:
    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_owner_independent_of_join_order(self, keys, groups):
        forward = ring_of(groups)
        backward = ring_of(list(reversed(groups)))
        for key in keys:
            assert forward.owner(key) == backward.owner(key)

    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_repeated_routing_is_stable(self, keys, groups):
        router = make_router("hash")
        for gid in groups:
            router.join(gid)
        load = {g: float(i) for i, g in enumerate(groups)}
        first = [router.route(k, load.get, None) for k in keys]
        second = [router.route(k, load.get, None) for k in keys]
        assert first == second

    @PROPERTY
    @given(keys=keys_strategy, groups=groups_strategy)
    def test_least_loaded_picks_min_load_deterministically(self, keys, groups):
        router = make_router("least_loaded")
        for gid in groups:
            router.join(gid)
        load = {g: float(i % 3) for i, g in enumerate(groups)}
        best = min(groups, key=lambda g: (load[g], g))
        for key in keys[:8]:
            assert router.route(key, load.get, None) == best

    @PROPERTY
    @given(groups=groups_strategy)
    def test_vnode_count_respected(self, groups):
        ring = ring_of(groups)
        assert len(ring._points) <= VNODES * len(groups)
        assert len(ring.groups) == len(groups)
