"""The shared result-cache tier: owner tier + each shard's own cache."""

import pytest

from repro.cluster import S2_SLO, ClusterService, TrafficSpec, heavy_tailed_stream, s2_pool
from repro.cluster.cache import ClusterCache, ENTRY_WIRE_BYTES
from repro.comm.network import SHARED_MEMORY, ZERO_COST
from repro.errors import ServiceError
from repro.serve import BatchingPolicy, fingerprint
from repro.serve.cache import CACHE_LOOKUP_SECONDS, ResultCache
from repro.serve.request import Outcome, SolveResponse
from repro.serve.workload import lp_pool

#: Every lookup below happens after the stored answers completed.
LATER = 2.0


def _entry(completion=1.0, objective=42.0):
    return SolveResponse(
        request_id=0,
        fingerprint="fp",
        outcome=Outcome.OK,
        solver_status="optimal",
        objective=objective,
        completion_time=completion,
    )


def _with_shards(*shards, network=SHARED_MEMORY):
    """A tier with one attached group store per shard."""
    cache = ClusterCache(network=network)
    stores = {shard: ResultCache() for shard in shards}
    for shard, store in stores.items():
        cache.attach_shard(shard, store)
    return cache, stores


class TestLookupCosts:
    def test_producing_shard_hits_locally(self):
        # The producing group already holds its answer in its own store.
        cache, stores = _with_shards(0)
        stores[0].put("fp", _entry())
        cache.insert("fp", _entry())
        entry, cost = cache.lookup("fp", shard=0, at=LATER)
        assert entry is not None
        assert cost == CACHE_LOOKUP_SECONDS
        assert cache.local_hits == 1

    def test_other_shard_pays_the_round_trip_then_replicates(self):
        cache, stores = _with_shards(0, 1)
        stores[0].put("fp", _entry())
        cache.insert("fp", _entry())
        remote_cost = (
            CACHE_LOOKUP_SECONDS
            + SHARED_MEMORY.message_time(64)
            + SHARED_MEMORY.message_time(ENTRY_WIRE_BYTES)
        )
        entry, cost = cache.lookup("fp", shard=1, at=LATER)
        assert entry is not None
        assert cost == remote_cost
        assert cache.remote_hits == 1
        # The answer is now in shard 1's own store: second hit is local.
        assert "fp" in stores[1]
        _, cost2 = cache.lookup("fp", shard=1, at=LATER)
        assert cost2 == CACHE_LOOKUP_SECONDS
        assert cache.local_hits == 1

    def test_zero_cost_network_remote_equals_local(self):
        cache, _ = _with_shards(0, 1, network=ZERO_COST)
        cache.insert("fp", _entry())
        _, cost = cache.lookup("fp", shard=1, at=LATER)
        assert cost == CACHE_LOOKUP_SECONDS

    def test_miss_costs_the_probe_only(self):
        cache, _ = _with_shards(0)
        entry, cost = cache.lookup("nope", shard=0, at=LATER)
        assert entry is None
        assert cost == CACHE_LOOKUP_SECONDS
        assert cache.misses == 1

    def test_an_answer_still_in_flight_is_a_miss(self):
        # The group stored its answer at dispatch; until it completes,
        # the front door does not have it.
        cache, stores = _with_shards(0)
        stores[0].put("fp", _entry(completion=1.0))
        assert cache.lookup("fp", shard=0, at=0.5) == (None, CACHE_LOOKUP_SECONDS)
        assert cache.misses == 1
        assert cache.lookup("fp", shard=0, at=1.0)[0] is not None
        assert cache.local_hits == 1


class TestInvalidation:
    def test_invalidate_removes_owner_and_every_replica(self):
        cache, stores = _with_shards(0, 1)
        stores[0].put("fp", _entry())
        cache.insert("fp", _entry())
        cache.lookup("fp", shard=1, at=LATER)  # replicate at shard 1
        assert cache.invalidate("fp") == 3  # owner + 2 replicas
        assert "fp" not in stores[0] and "fp" not in stores[1]
        assert cache.lookup("fp", shard=0, at=LATER)[0] is None
        assert cache.lookup("fp", shard=1, at=LATER)[0] is None
        assert cache.invalidations == 1

    def test_invalidate_unknown_fingerprint_is_a_noop(self):
        cache = ClusterCache()
        assert cache.invalidate("ghost") == 0
        assert cache.invalidations == 0

    def test_drop_replica_keeps_the_owner_tier(self):
        cache, stores = _with_shards(0)
        stores[0].put("fp", _entry())
        cache.insert("fp", _entry())
        assert cache.replica_len(0) == 1
        assert cache.drop_replica(0) == 1
        assert cache.replica_len(0) == 0
        assert cache.replica_drops == 1
        # A dropped shard is never probed again, and the answer
        # survives in the owner tier for other shards.
        assert cache.invalidate("fp") == 1
        cache.insert("fp", _entry())
        cache.attach_shard(1, ResultCache())
        entry, _ = cache.lookup("fp", shard=1, at=LATER)
        assert entry is not None


class TestBounds:
    def test_owner_tier_is_lru_bounded(self):
        cache = ClusterCache(capacity=2)
        cache.attach_shard(1, ResultCache())
        for i in range(3):
            cache.insert(f"fp{i}", _entry(objective=float(i)))
        assert len(cache) == 2
        assert cache.lookup("fp0", shard=1, at=LATER)[0] is None
        assert cache.lookup("fp2", shard=1, at=LATER)[0] is not None

    def test_replicas_are_lru_bounded(self):
        # A replica is its group's own store, bounded by that store.
        cache = ClusterCache()
        cache.attach_shard(0, ResultCache(capacity=2))
        for i in range(4):
            cache.insert(f"fp{i}", _entry())
            cache.lookup(f"fp{i}", shard=0, at=LATER)  # owner hit → replica
        assert cache.replica_len(0) == 2
        # The owner tier still holds all four.
        assert len(cache) == 4

    def test_zero_capacity_disables_the_tier(self):
        cache = ClusterCache(capacity=0)
        cache.attach_shard(0, ResultCache(capacity=0))
        cache.insert("fp", _entry())
        assert cache.lookup("fp", shard=0, at=LATER)[0] is None

    def test_negative_capacities_rejected(self):
        with pytest.raises(ServiceError):
            ClusterCache(capacity=-1)
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)


class TestStats:
    def test_hit_rate_and_stats_shape(self):
        cache, stores = _with_shards(0)
        stores[0].put("fp", _entry())
        cache.insert("fp", _entry())
        cache.lookup("fp", shard=0, at=LATER)
        cache.lookup("ghost", shard=0, at=LATER)
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["local_hits"] == 1
        assert stats["misses"] == 1
        assert stats["replicas"] == {0: 1}


class TestOneCachePerShard:
    def test_every_live_shard_probes_its_groups_own_cache(self):
        cluster = ClusterService(groups=3, num_workers=1)
        cluster.add_group(at=0.0)
        cluster.kill_group(0, at=0.0)
        cluster.drain_group(1)
        assert cluster.group_ids == [2, 3]
        assert sorted(cluster.cache._replicas) == cluster.group_ids
        for gid in cluster.group_ids:
            assert cluster.cache._replicas[gid] is cluster._groups[gid].cache

    def test_a_duplicate_of_an_answer_in_flight_is_forwarded(self):
        # The group stores its answer at dispatch, so the front door's
        # store already holds it while the solve runs.  The duplicate
        # must not be answered before the hop: it is forwarded, and its
        # group replays the answer once it exists.
        lp = lp_pool(1, seed=4)[0]
        cluster = ClusterService(
            groups=1, num_workers=1, policy=BatchingPolicy(max_batch_size=1)
        )
        primary = cluster.submit(lp, at=0.0)
        group = cluster._groups[0]
        stored = group.cache.get(fingerprint(lp))
        assert stored is group.result(0)
        assert cluster.cache.replica_len(0) == 1
        at = stored.start_time
        assert at < stored.completion_time
        dup = cluster.submit(lp, at=at)
        cluster.drain()
        first, second = cluster.result(primary), cluster.result(dup)
        assert cluster.metrics.count("cluster.cache_hits") == 0
        assert group.metrics.count("serve.cache.hits") == 1
        assert second.cached and second.objective == first.objective
        assert second.completion_time >= first.completion_time


def test_every_response_of_a_two_group_stream_carries_its_trace_id():
    """Cluster-tier hits included: an answer served from the shared cache
    is addressed to its own request, trace id and all."""
    cluster = ClusterService(
        groups=2,
        slo=S2_SLO,
        spill_depth=2,
        num_workers=1,
        policy=BatchingPolicy(max_batch_size=8, max_wait=2e-5),
    )
    stream = heavy_tailed_stream(
        s2_pool(pool_size=96, base_items=100, shape_spread=32, seed=3),
        TrafficSpec(num_requests=400, mean_interarrival=1e-4, zipf_s=0.3, seed=5),
    )
    rids = [cluster.submit(problem, at=at, priority=priority) for at, problem, priority in stream]
    responses = cluster.close()
    assert [r.request_id for r in responses] == rids
    assert all(r.trace_id == f"req-{r.request_id:06d}" for r in responses)
    assert cluster.cache.local_hits + cluster.cache.remote_hits > 0
