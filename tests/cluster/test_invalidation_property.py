"""An invalidated fingerprint is never served again from before.

``ClusterCache.invalidate`` removes a fingerprint from every store that
can answer it: the owner tier and each shard's replica, which is the
group's own result cache.  The property drives a small duplicate-heavy
stream through a two-group cluster, invalidating fingerprints at drawn
points, and traces every answer back to the solve that produced it: a
cached or coalesced response shares its producer's solution array.  No
response to a request submitted after an invalidation of its
fingerprint may carry an answer that had completed by then.  An answer
still in flight at the invalidation may be delivered and stored after
it; it completed after the invalidation, so it counts as new.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterService
from repro.serve import BatchingPolicy, fingerprint
from repro.serve.workload import lp_pool

#: This module's own budget, a tenth of the session profile's (10
#: examples in tier-1, 50 under CI's 5x profile).
PROPERTY = settings(max_examples=max(1, settings().max_examples // 10), deadline=None)

POOL = lp_pool(3, seed=2)
FINGERPRINTS = [fingerprint(lp) for lp in POOL]
#: Gaps between arrivals: back-to-back (coalescing), within a solve
#: (in flight), and well after one (completed, cache hits).
GAPS = (0.0, 1e-6, 1e-5, 5e-5, 2e-4)


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=8, max_value=30))
    keys = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=n, max_size=n))
    invalidations = draw(
        st.dictionaries(
            st.integers(1, n - 1), st.integers(0, len(POOL) - 1), min_size=1, max_size=4
        )
    )
    batch = draw(st.integers(min_value=1, max_value=4))
    return keys, gaps, invalidations, batch


@PROPERTY
@given(stream=streams())
def test_no_response_replays_an_answer_from_before_its_invalidation(stream):
    keys, gaps, invalidations, batch = stream
    cluster = ClusterService(
        groups=2,
        num_workers=1,
        policy=BatchingPolicy(max_batch_size=batch, max_wait=2e-5),
    )
    #: fingerprint → cluster clock at its latest invalidation.
    invalidated_at = {}
    #: per request: the latest invalidation of its fingerprint before it.
    cutoffs = []
    at = 0.0
    for i, (key, gap) in enumerate(zip(keys, gaps)):
        if i in invalidations:
            fp = FINGERPRINTS[invalidations[i]]
            cluster.cache.invalidate(fp)
            invalidated_at[fp] = cluster.now
        at += gap
        cluster.submit(POOL[key], at=at)
        cutoffs.append(invalidated_at.get(FINGERPRINTS[key]))
    responses = cluster.close()
    assert all(r.ok and r.x is not None for r in responses)
    producers = {}
    for r in responses:
        if not r.cached and not r.coalesced:
            producers.setdefault(id(r.x), r)
    for r, cutoff in zip(responses, cutoffs):
        if cutoff is not None:
            assert producers[id(r.x)].completion_time > cutoff, (
                f"request {r.request_id} replays an answer that completed "
                f"before its fingerprint was invalidated at {cutoff:.6g}"
            )
