"""The cluster front door: routing, cache tier, shedding, autoscaling."""

import pytest

from repro.cluster import (
    AutoscalePolicy,
    ClusterService,
    SLOPolicy,
    request_wire_bytes,
)
from repro.api import SolveMode
from repro.errors import ServiceClosed, ServiceError
from repro.serve.request import Outcome
from repro.serve.workload import lp_pool, mip_pool

from ..serve._busy import occupy_workers

POOL = lp_pool(8, seed=4)


class TestWireFormat:
    def test_request_wire_bytes_counts_the_arrays(self):
        small = lp_pool(1, num_items=6, seed=0)[0]
        large = lp_pool(1, num_items=24, seed=0)[0]
        assert request_wire_bytes(small) > 64
        assert request_wire_bytes(large) > request_wire_bytes(small)


class TestSubmitBasics:
    def test_every_request_answered_once_in_id_order(self):
        cluster = ClusterService(groups=3)
        ids = [
            cluster.submit(POOL[i % len(POOL)], at=1e-4 * i) for i in range(12)
        ]
        responses = cluster.close()
        assert [r.request_id for r in responses] == ids
        assert all(r.outcome is Outcome.OK for r in responses)

    def test_deterministic_replay(self):
        def run():
            cluster = ClusterService(groups=2)
            for i in range(10):
                cluster.submit(POOL[i % 3], at=1e-4 * i)
            return [r.to_dict() for r in cluster.close()]

        assert run() == run()

    def test_arrivals_must_be_nondecreasing(self):
        cluster = ClusterService(groups=2)
        cluster.submit(POOL[0], at=1.0)
        with pytest.raises(ServiceError):
            cluster.submit(POOL[1], at=0.5)

    def test_submit_after_close_raises(self):
        cluster = ClusterService(groups=2)
        cluster.close()
        with pytest.raises(ServiceClosed):
            cluster.submit(POOL[0])

    def test_unknown_priority_rejected(self):
        cluster = ClusterService(groups=2, slo=SLOPolicy())
        with pytest.raises(ServiceError):
            cluster.submit(POOL[0], priority="platinum")

    def test_needs_at_least_one_group(self):
        with pytest.raises(ServiceError):
            ClusterService(groups=0)


class TestValidateFirst:
    """An invalid request is refused before the front door does anything."""

    TIGHT = SLOPolicy(p95_target=1e-7, p99_target=1e-7)

    @pytest.mark.parametrize(
        "slo,kwargs",
        [
            (None, {"mode": "bogus"}),
            (None, {"mode": "heuristic_only"}),  # POOL holds LPs
            (SLOPolicy(), {"priority": "platinum"}),
            (None, {"priority": "platinum"}),  # no SLO: still not a class
        ],
    )
    def test_invalid_request_touches_nothing(self, slo, kwargs):
        cluster = ClusterService(groups=2, slo=slo)
        cluster.submit(POOL[0], at=0.0)
        before = cluster.metrics.to_dict()
        with pytest.raises(ServiceError):
            cluster.submit(POOL[1], at=1.0, **kwargs)
        assert cluster.metrics.to_dict() == before
        assert cluster.now == 0.0
        assert cluster.outstanding == 1 and len(cluster._inflight) == 1
        if cluster.admission is not None:
            assert sum(cluster.admission.admitted_counts.values()) == 1
        # No id was spent: the next valid request gets the next id.
        assert cluster.submit(POOL[1], at=1.0) == 1

    def test_invalid_request_raises_even_while_shedding(self):
        cluster = ClusterService(groups=1, slo=self.TIGHT)
        for i in range(6):
            cluster.submit(POOL[i], at=1e-5 * i, priority="gold")
        cluster.submit(POOL[6], at=1.0, priority="gold")  # deliver + observe
        shed = cluster.submit(POOL[7], at=1.001, priority="bronze")
        assert cluster.result(shed).outcome is Outcome.SHED
        with pytest.raises(ServiceError):
            cluster.submit(POOL[7], at=1.002, mode="bogus", priority="bronze")
        assert cluster.metrics.count("cluster.shed") == 1

    def test_enum_and_string_modes_are_one_channel(self):
        def run(mode):
            cluster = ClusterService(groups=2)
            for i in range(4):
                cluster.submit(POOL[0], at=10.0 * i, mode=mode)
            cluster.close()
            return (
                cluster.metrics.count("cluster.cache_hits"),
                cluster.stats()["derived"]["cache"]["entries"],
                sorted(cluster._inflight),
            )

        assert run(SolveMode.EXACT) == run("exact") == (3, 1, [])


class TestRoutingAndCache:
    def test_same_problem_routes_to_one_shard(self):
        cluster = ClusterService(groups=4)
        for i in range(6):
            cluster.submit(POOL[0], at=1e-6 * i)
        loaded = [g for g in cluster.group_ids if cluster._load(g) > 0]
        assert len(loaded) == 1
        cluster.close()

    def test_repeat_after_delivery_hits_the_cluster_cache(self):
        cluster = ClusterService(groups=2)
        cluster.submit(POOL[0], at=0.0)
        rid = cluster.submit(POOL[0], at=10.0)  # long after completion
        response = cluster.result(rid) or cluster.close()[rid]
        assert response.cached
        assert cluster.metrics.count("cluster.cache_hits") == 1

    def test_duplicate_affinity_follows_the_inflight_primary(self):
        cluster = ClusterService(groups=4)
        cluster.submit(POOL[0], at=0.0)
        for i in range(5):
            cluster.submit(POOL[0], at=1e-7 * (i + 1))
        assert cluster.metrics.count("cluster.affinity_hits") >= 1
        responses = cluster.close()
        # All six answered, exactly one device solve (rest coalesced or
        # answered by the shard's own cache).
        assert len(responses) == 6
        assert sum(1 for r in responses if not r.cached and not r.coalesced) == 1

    def test_least_loaded_router_spreads_distinct_work(self):
        cluster = ClusterService(groups=2, router="least_loaded")
        for i in range(8):
            cluster.submit(POOL[i], at=1e-7 * i)
        assert all(cluster._load(g) > 0 for g in cluster.group_ids)
        cluster.close()


class TestClientClock:
    def test_a_response_starts_its_clock_at_the_cluster(self):
        # The group stamps its own arrival, one front-door hop later;
        # the client's response carries the cluster's, so its latency
        # is the one the cluster's histogram (and SLO admission) reads.
        cluster = ClusterService(groups=1)
        occupy_workers(cluster, 1.0)
        first = cluster.submit(POOL[0], at=0.5)
        follower = cluster.submit(POOL[0], at=0.5 + 1e-7)  # coalesces
        responses = cluster.close()
        hop = cluster.network.message_time(request_wire_bytes(POOL[0]))
        assert hop > 0.0
        assert [r.arrival_time for r in responses] == [0.5, 0.5 + 1e-7]
        assert cluster.result(follower).coalesced
        assert all(r.queue_wait >= hop for r in responses)
        assert cluster.metrics.histograms["cluster.latency"].values == [
            r.latency for r in responses
        ]
        assert cluster.result(first).latency > hop


class TestShedding:
    TIGHT = SLOPolicy(p95_target=1e-7, p99_target=1e-7)

    def test_bronze_is_shed_under_pressure_gold_survives(self):
        cluster = ClusterService(groups=1, slo=self.TIGHT)
        # Generate latency observations that breach the impossible SLO.
        for i in range(6):
            cluster.submit(POOL[i], at=1e-5 * i, priority="gold")
        cluster.submit(POOL[6], at=1.0, priority="gold")  # deliver + observe
        shed_rid = cluster.submit(POOL[7], at=1.001, priority="bronze")
        shed = cluster.result(shed_rid)
        assert shed is not None and shed.outcome is Outcome.SHED
        assert shed.solver_status == "shed"
        responses = cluster.close()
        gold = [r for r in responses if r.request_id != shed_rid]
        assert all(r.outcome is not Outcome.SHED for r in gold)
        assert cluster.stats()["derived"]["shed_rate"]["bronze"] == 1.0

    def test_shed_response_keeps_the_requests_mode(self):
        cluster = ClusterService(groups=1, slo=self.TIGHT)
        for i in range(6):
            cluster.submit(POOL[i], at=1e-5 * i, priority="gold")
        cluster.submit(POOL[6], at=1.0, priority="gold")  # deliver + observe
        mip = mip_pool(1, num_items=8, seed=6)[0]
        rid = cluster.submit(mip, at=1.001, priority="bronze", mode="heuristic_only")
        shed = cluster.result(rid)
        assert shed.outcome is Outcome.SHED
        assert shed.mode == "heuristic_only"

    def test_shed_responses_are_answers_not_drops(self):
        cluster = ClusterService(groups=1, slo=self.TIGHT)
        ids = []
        for i in range(6):
            ids.append(cluster.submit(POOL[i], at=1e-5 * i, priority="gold"))
        ids.append(cluster.submit(POOL[6], at=1.0, priority="bronze"))
        ids.append(cluster.submit(POOL[7], at=1.001, priority="bronze"))
        responses = cluster.close()
        assert sorted(r.request_id for r in responses) == sorted(ids)


class TestMembership:
    def test_drain_group_delivers_everything_it_owed(self):
        cluster = ClusterService(groups=2)
        ids = [cluster.submit(POOL[i], at=1e-5 * i) for i in range(6)]
        victim = cluster.group_ids[0]
        cluster.drain_group(victim)
        assert victim not in cluster.group_ids
        responses = cluster.close()
        assert sorted(r.request_id for r in responses) == ids

    def test_autoscale_adds_groups_under_load_and_drains_idle(self):
        policy = AutoscalePolicy(
            min_groups=1,
            max_groups=4,
            up_outstanding=2.0,
            down_outstanding=0.5,
            cooldown=0.0,
        )
        cluster = ClusterService(groups=1, autoscale=policy)
        wide = lp_pool(24, seed=9)
        for i, problem in enumerate(wide):
            cluster.submit(problem, at=1e-7 * i)
        assert len(cluster.group_ids) > 1
        assert any(action == "add" for _, action, _, _ in cluster.scale_events)
        # A long-idle arrival lets the backlog drain and scale back down.
        cluster.submit(wide[0], at=10.0)
        cluster.submit(wide[1], at=20.0)
        assert any(
            action == "drain" for _, action, _, _ in cluster.scale_events
        )
        assert len(cluster.close()) == len(wide) + 2

    def test_autoscale_policy_validation(self):
        with pytest.raises(ServiceError):
            AutoscalePolicy(min_groups=3, max_groups=2)
        with pytest.raises(ServiceError):
            AutoscalePolicy(up_outstanding=1.0, down_outstanding=1.0)
        with pytest.raises(ServiceError):
            AutoscalePolicy(cooldown=-1.0)


class TestStats:
    def test_stats_shape(self):
        cluster = ClusterService(groups=2, slo=SLOPolicy())
        for i in range(4):
            cluster.submit(POOL[i], at=1e-5 * i)
        cluster.close()
        derived = cluster.stats()["derived"]
        assert derived["groups"] == cluster.group_ids
        assert set(derived["tiers"]) == {
            "router",
            "queue_wait",
            "batch",
            "solve",
            "latency",
        }
        for tier in derived["tiers"].values():
            assert set(tier) == {"p50", "p95", "p99"}
        assert set(derived["shed_rate"]) == {"gold", "silver", "bronze"}
        assert derived["router"]["policy"] == "hash"
        assert derived["cache"]["entries"] >= 0

    def test_mip_and_heuristic_modes_flow_through(self):
        cluster = ClusterService(groups=2)
        mips = mip_pool(2, num_items=8, seed=6)
        cluster.submit(mips[0], at=0.0)
        rid = cluster.submit(
            mips[1], at=1e-5, mode="heuristic_only", gap_target=0.1
        )
        responses = cluster.close()
        assert len(responses) == 2
        heur = next(r for r in responses if r.request_id == rid)
        assert heur.mode == "heuristic_only"
