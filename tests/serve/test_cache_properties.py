"""Property-based tests (hypothesis) for the serve-layer cache:
fingerprint stability, coalescing/cache coherence, and the LRU bound."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import ClusterCache
from repro.mip.problem import MIPProblem
from repro.serve import BatchingPolicy, SolveService
from repro.serve.cache import ResultCache
from repro.serve.workload import lp_pool
from repro.serve.request import Outcome, SolveResponse, fingerprint

#: This module's own budget, 30 % of the session profile's (30 examples
#: in tier-1, 150 under CI's 5x profile); loading a profile here would
#: replace the session's for every module collected after it.
PROPERTY = settings(deadline=None, max_examples=max(1, settings().max_examples * 3 // 10))


finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def mip_problems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    c = draw(
        st.lists(finite_floats, min_size=n, max_size=n).map(np.asarray)
    )
    integer = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda bits: np.asarray(bits, dtype=bool)
        )
    )
    row = draw(st.lists(finite_floats, min_size=n, max_size=n).map(np.asarray))
    rhs = draw(finite_floats)
    return dict(
        c=c,
        integer=integer,
        a_ub=row.reshape(1, n),
        b_ub=np.array([abs(rhs) + 1.0]),
        lb=np.zeros(n),
        ub=np.full(n, 10.0),
    )


class TestFingerprintProperties:
    @PROPERTY
    @given(data=mip_problems())
    def test_equal_problems_one_fingerprint(self, data):
        # Two independently constructed problems with identical data
        # (including fresh array copies) must collapse to one fingerprint,
        # regardless of their names.
        a = MIPProblem(name="left", **{k: np.copy(v) for k, v in data.items()})
        b = MIPProblem(name="right", **{k: np.copy(v) for k, v in data.items()})
        assert fingerprint(a) == fingerprint(b)

    @PROPERTY
    @given(data=mip_problems(), delta=st.floats(min_value=0.5, max_value=5.0))
    def test_changed_objective_changes_fingerprint(self, data, delta):
        a = MIPProblem(**{k: np.copy(v) for k, v in data.items()})
        changed = {k: np.copy(v) for k, v in data.items()}
        changed["c"] = changed["c"] + delta
        b = MIPProblem(**changed)
        assert fingerprint(a) != fingerprint(b)


class TestCoalescingProperties:
    @PROPERTY
    @given(
        duplicates=st.integers(min_value=1, max_value=5),
        batch_size=st.integers(min_value=1, max_value=8),
    )
    def test_duplicates_all_receive_the_primary_result(
        self, duplicates, batch_size
    ):
        problem = lp_pool(1, seed=4)[0]
        service = SolveService(
            policy=BatchingPolicy(max_batch_size=batch_size)
        )
        for i in range(duplicates + 1):
            service.submit(problem, at=i * 1e-6)
        responses = service.close()
        assert len(responses) == duplicates + 1
        primary = responses[0]
        assert primary.ok and not primary.cached and not primary.coalesced
        for follower in responses[1:]:
            assert follower.ok
            assert follower.cached or follower.coalesced
            assert follower.objective == primary.objective
            assert follower.completion_time >= primary.completion_time
        # The device solved the problem exactly once.
        assert service.metrics.count("serve.batch_members") == 1

    @PROPERTY
    @given(
        distinct=st.integers(min_value=1, max_value=4),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_distinct_problems_never_share_results(self, distinct, repeats):
        pool = lp_pool(distinct, seed=11)
        service = SolveService(policy=BatchingPolicy(max_batch_size=16))
        t = 0.0
        for _ in range(repeats):
            for problem in pool:
                service.submit(problem, at=t)
                t += 1e-6
        responses = service.close()
        assert len(responses) == distinct * repeats
        by_problem = {}
        for i, response in enumerate(responses):
            by_problem.setdefault(i % distinct, set()).add(response.objective)
        for objectives in by_problem.values():
            assert len(objectives) == 1  # repeats agree with their primary
        assert service.metrics.count("serve.batch_members") == distinct


def _entry(obj):
    return SolveResponse(
        request_id=0,
        fingerprint="fp",
        outcome=Outcome.OK,
        solver_status="optimal",
        objective=obj,
    )


class TestLRUProperties:
    @PROPERTY
    @given(
        capacity=st.integers(min_value=0, max_value=8),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=12)),
            max_size=60,
        ),
    )
    def test_size_never_exceeds_capacity(self, capacity, ops):
        cache = ResultCache(capacity=capacity)
        inserted = set()
        for is_put, key_id in ops:
            key = f"k{key_id}"
            if is_put:
                cache.put(key, _entry(float(key_id)))
                inserted.add(key)
            else:
                entry = cache.get(key)
                if entry is not None:
                    assert entry.objective == float(key_id)
            assert len(cache) <= capacity
        assert len(cache) <= min(capacity, len(inserted) or 0)
        assert cache.hits + cache.misses == sum(1 for p, _ in ops if not p)

    @PROPERTY
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=20), min_size=1, max_size=40
        )
    )
    def test_most_recent_keys_survive(self, keys):
        capacity = 4
        cache = ResultCache(capacity=capacity)
        for k in keys:
            cache.put(f"k{k}", _entry(float(k)))
        # Deduplicate by most-recent insertion, last `capacity` survive.
        recent = list(dict.fromkeys(f"k{k}" for k in reversed(keys)))[:capacity]
        for key in recent:
            assert key in cache
        assert len(cache) == min(capacity, len(set(keys)))

    @PROPERTY
    @given(
        capacity=st.integers(min_value=0, max_value=6),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10)),
            max_size=60,
        ),
    )
    def test_cluster_tier_evicts_like_a_plain_result_cache(self, capacity, ops):
        # The owner tier behind a store that keeps nothing is the plain
        # LRU, hit for hit and eviction for eviction (capacity 0: never
        # stores); a shard's replica is its group's own store, so every
        # key that store kept is a local hit.
        plain = ResultCache(capacity)
        owner_only = ClusterCache(capacity=capacity)
        owner_only.attach_shard(0, ResultCache(0))
        replicated = ClusterCache(capacity=64)
        group_store = ResultCache(capacity)
        replicated.attach_shard(0, group_store)
        for is_put, key_id in ops:
            key = f"k{key_id}"
            if is_put:
                entry = _entry(float(key_id))
                plain.put(key, entry)
                owner_only.insert(key, entry)
                group_store.put(key, entry)
                replicated.insert(key, entry)
            else:
                assert owner_only.lookup(key, shard=0, at=0.0)[0] is plain.get(key)
            assert len(owner_only) == len(plain)
            assert owner_only.replica_len(0) == 0
        assert replicated.replica_len(0) == len(group_store)
        kept = [f"k{key_id}" for key_id in range(11) if f"k{key_id}" in group_store]
        for key in kept:
            replicated.lookup(key, shard=0, at=0.0)
        assert replicated.local_hits == len(kept)
