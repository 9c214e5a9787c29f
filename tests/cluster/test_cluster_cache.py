"""The shared result-cache tier: owner + per-shard replicas."""

import pytest

from repro.cluster import S2_SLO, ClusterService, TrafficSpec, heavy_tailed_stream, s2_pool
from repro.cluster.cache import ClusterCache, ENTRY_WIRE_BYTES
from repro.comm.network import SHARED_MEMORY, ZERO_COST
from repro.errors import ServiceError
from repro.serve import BatchingPolicy
from repro.serve.cache import CACHE_LOOKUP_SECONDS, CacheEntry
from repro.serve.request import Outcome


def _entry(ready_time=1.0, objective=42.0):
    return CacheEntry(
        outcome=Outcome.OK,
        solver_status="optimal",
        objective=objective,
        x=None,
        ready_time=ready_time,
    )


class TestLookupCosts:
    def test_producing_shard_hits_locally(self):
        cache = ClusterCache(network=SHARED_MEMORY)
        cache.attach_shard(0)
        cache.insert("fp", _entry(), shard=0)
        entry, cost = cache.lookup("fp", shard=0)
        assert entry is not None
        assert cost == CACHE_LOOKUP_SECONDS
        assert cache.local_hits == 1

    def test_other_shard_pays_the_round_trip_then_replicates(self):
        cache = ClusterCache(network=SHARED_MEMORY)
        cache.attach_shard(0)
        cache.attach_shard(1)
        cache.insert("fp", _entry(), shard=0)
        remote_cost = (
            CACHE_LOOKUP_SECONDS
            + SHARED_MEMORY.message_time(64)
            + SHARED_MEMORY.message_time(ENTRY_WIRE_BYTES)
        )
        entry, cost = cache.lookup("fp", shard=1)
        assert entry is not None
        assert cost == remote_cost
        assert cache.remote_hits == 1
        # The entry is now replicated at shard 1: second hit is local.
        _, cost2 = cache.lookup("fp", shard=1)
        assert cost2 == CACHE_LOOKUP_SECONDS
        assert cache.local_hits == 1

    def test_zero_cost_network_remote_equals_local(self):
        cache = ClusterCache(network=ZERO_COST)
        cache.insert("fp", _entry(), shard=0)
        _, cost = cache.lookup("fp", shard=1)
        assert cost == CACHE_LOOKUP_SECONDS

    def test_miss_costs_the_probe_only(self):
        cache = ClusterCache()
        entry, cost = cache.lookup("nope", shard=0)
        assert entry is None
        assert cost == CACHE_LOOKUP_SECONDS
        assert cache.misses == 1


class TestInvalidation:
    def test_invalidate_removes_owner_and_every_replica(self):
        cache = ClusterCache()
        cache.insert("fp", _entry(), shard=0)
        cache.lookup("fp", shard=1)  # replicate at shard 1
        assert cache.invalidate("fp") == 3  # owner + 2 replicas
        assert cache.lookup("fp", shard=0)[0] is None
        assert cache.lookup("fp", shard=1)[0] is None
        assert cache.invalidations == 1

    def test_invalidate_unknown_fingerprint_is_a_noop(self):
        cache = ClusterCache()
        assert cache.invalidate("ghost") == 0
        assert cache.invalidations == 0

    def test_drop_replica_keeps_the_owner_tier(self):
        cache = ClusterCache()
        cache.insert("fp", _entry(), shard=0)
        assert cache.replica_len(0) == 1
        assert cache.drop_replica(0) == 1
        assert cache.replica_len(0) == 0
        assert cache.replica_drops == 1
        # The answer survives in the owner tier for other shards.
        entry, _ = cache.lookup("fp", shard=1)
        assert entry is not None


class TestBounds:
    def test_owner_tier_is_lru_bounded(self):
        cache = ClusterCache(capacity=2)
        for i in range(3):
            cache.insert(f"fp{i}", _entry(objective=float(i)), shard=0)
        assert len(cache) == 2
        # Probe from a fresh shard so the producing shard's replica
        # (which may still hold evicted entries) is out of the picture.
        assert cache.lookup("fp0", shard=1)[0] is None
        assert cache.lookup("fp2", shard=1)[0] is not None

    def test_replicas_are_lru_bounded(self):
        cache = ClusterCache(replica_capacity=2)
        for i in range(4):
            cache.insert(f"fp{i}", _entry(), shard=0)
        assert cache.replica_len(0) == 2
        # The owner tier still holds all four.
        assert len(cache) == 4

    def test_zero_capacity_disables_the_tier(self):
        cache = ClusterCache(capacity=0)
        cache.insert("fp", _entry(), shard=0)
        assert cache.lookup("fp", shard=0)[0] is None

    def test_negative_capacities_rejected(self):
        with pytest.raises(ServiceError):
            ClusterCache(capacity=-1)
        with pytest.raises(ServiceError):
            ClusterCache(replica_capacity=-1)


class TestStats:
    def test_hit_rate_and_stats_shape(self):
        cache = ClusterCache()
        cache.insert("fp", _entry(), shard=0)
        cache.lookup("fp", shard=0)
        cache.lookup("ghost", shard=0)
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["local_hits"] == 1
        assert stats["misses"] == 1
        assert stats["replicas"] == {0: 1}


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
