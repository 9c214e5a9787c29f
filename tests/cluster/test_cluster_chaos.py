"""Whole-group-kill chaos over the cluster tier (satellite of PR 10).

The contract under a group fail-stop:

- responses the group delivered before the kill stay delivered (exactly
  once — never re-answered);
- everything the group still owed is re-routed to the survivors and
  answered exactly once (never dropped, never double-answered);
- the dead shard's cache replica is invalidated, while the shared owner
  tier keeps the still-valid answers.

Both surfaces are pinned: direct :meth:`ClusterService.kill_group`
calls, and the fault-injection path (``cluster.group`` site) that
``repro chaos`` replays via the builtin ``group-kill`` plan.
"""

import pytest

from repro.cluster import ClusterService
from repro.cluster.service import request_wire_bytes
from repro.errors import ServiceError
from repro.faults.chaos import builtin_corpus, run_chaos
from repro.faults.injector import injecting
from repro.faults.plan import SITE_GROUP, FaultPlan, ScheduledFault
from repro.problems.knapsack import generate_knapsack
from repro.serve import BatchingPolicy, Outcome
from repro.serve.workload import lp_pool, mip_pool

from ..serve._busy import occupy_workers

POOL = mip_pool(4, num_items=8, seed=11)


def _submit_stream(cluster, requests, gap=1e-4):
    ids = []
    for i in range(requests):
        ids.append(cluster.submit(POOL[i % len(POOL)], at=gap * i))
    return ids


class TestKillGroupDirect:
    def test_inflight_rerouted_never_dropped_or_duplicated(self):
        cluster = ClusterService(groups=3, num_workers=2)
        ids = _submit_stream(cluster, 12)
        victim = cluster.group_ids[0]
        rerouted = cluster.kill_group(victim, at=cluster.now)
        responses = cluster.close()
        answered = [r.request_id for r in responses]
        assert sorted(answered) == sorted(ids)
        assert len(answered) == len(set(answered))
        assert cluster.metrics.count("cluster.rerouted") == rerouted

    def test_delivered_responses_stay_delivered(self):
        cluster = ClusterService(groups=3, num_workers=2)
        ids = _submit_stream(cluster, 8)
        # A late arrival forces a harvest pass: earlier completions are
        # delivered before any kill happens.
        late = cluster.submit(POOL[0], at=10.0)
        delivered = {
            rid: cluster.result(rid)
            for rid in ids
            if cluster.result(rid) is not None
        }
        assert delivered, "expected some responses delivered pre-kill"
        victim = cluster.group_ids[-1]
        cluster.kill_group(victim, at=cluster.now)
        for rid, response in delivered.items():
            assert cluster.result(rid) is response
        answered = [r.request_id for r in cluster.close()]
        assert sorted(answered) == sorted(ids + [late])
        assert len(answered) == len(set(answered))

    def test_dead_shards_cache_replica_is_invalidated(self):
        cluster = ClusterService(groups=2, num_workers=2)
        ids = _submit_stream(cluster, 6)
        # Let everything complete so both replicas hold entries.
        cluster.submit(POOL[0], at=10.0)
        victim = max(
            cluster.group_ids, key=lambda g: cluster.cache.replica_len(g)
        )
        assert cluster.cache.replica_len(victim) > 0
        cluster.kill_group(victim, at=cluster.now)
        stats = cluster.cache.stats()
        assert victim not in stats["replicas"]
        assert stats["replica_drops"] >= 1
        # The owner tier keeps the answers — they are still valid.
        assert stats["entries"] > 0
        assert sorted(r.request_id for r in cluster.close()) == sorted(
            ids + [ids[-1] + 1]
        )

    def test_rerouted_requests_keep_their_keywords(self):
        # Everything waits in group 0's queue (max_wait 1 s), a second
        # group joins, group 0 dies: the survivor must see the same
        # mode, gap target, solve deadline and queue timeout.
        cluster = ClusterService(
            groups=1, policy=BatchingPolicy(max_batch_size=8, max_wait=1.0)
        )
        occupy_workers(cluster, 0.5)
        lps = lp_pool(2, seed=11)
        hard = generate_knapsack(14, seed=4, correlation="strong")
        heur = cluster.submit(POOL[0], at=0.0, mode="heuristic_only", gap_target=0.1)
        partial = cluster.submit(hard, at=1e-6, solve_deadline=1e-4)
        budgeted = cluster.submit(lps[0], at=2e-6, solve_deadline=1e-3)
        expired = cluster.submit(lps[1], at=3e-6, timeout=1e-3)
        survivor = cluster.add_group(at=4e-6)
        occupy_workers(cluster, 0.5)
        assert cluster.kill_group(0, at=5e-6) == 4
        # Well past every timer, the same heuristic request again: the
        # survivor cached the re-routed answer on the channel that
        # spells out both the mode and the gap target.
        again = cluster.submit(
            POOL[0], at=10.0, mode="heuristic_only", gap_target=0.1
        )
        by_id = {r.request_id: r for r in cluster.close()}
        assert by_id[heur].mode == "heuristic_only"
        assert by_id[heur].solver_status == "heuristic"
        assert by_id[again].cached
        assert by_id[again].objective == by_id[heur].objective
        assert by_id[partial].outcome is Outcome.PARTIAL
        assert by_id[partial].solver_status == "time_limit"
        assert by_id[budgeted].ok
        assert by_id[expired].outcome is Outcome.TIMEOUT
        # The client waited from its arrival at the cluster (3e-6) until
        # the survivor's timer fired: 1e-3 after the re-routed request
        # crossed the hop at the kill (5e-6).
        hop = cluster.network.message_time(request_wire_bytes(lps[1]))
        assert by_id[expired].queue_wait == pytest.approx(5e-6 + hop + 1e-3 - 3e-6)
        # A deadline-carrying LP takes the per-member path, never the
        # fused lockstep one — on the survivor too.
        counters = cluster._groups[survivor].metrics.counters
        assert counters.get("serve.dispatch.lockstep", 0) == 0
        assert counters["serve.deadline_hits"] == 1
        assert counters["serve.heuristic_hit"] == 1

    def test_orphan_every_survivor_rejects_is_answered_failed(self):
        # One queue slot per group, both taken: the orphan has nowhere
        # to go and must come back FAILED — answered, and no longer owed.
        cluster = ClusterService(
            groups=2,
            router="least_loaded",
            policy=BatchingPolicy(max_batch_size=8, max_wait=1.0, max_queue_depth=1),
        )
        occupy_workers(cluster, 0.5)
        first = cluster.submit(POOL[0], at=0.0)
        second = cluster.submit(POOL[1], at=1e-6)
        assert cluster.outstanding == 2
        assert cluster.kill_group(0, at=2e-6) == 1
        lost = cluster.result(first)
        assert lost.outcome is Outcome.FAILED
        assert lost.solver_status == "cluster_overflow"
        assert cluster.metrics.count("cluster.reroute_failed") == 1
        assert cluster.outstanding == 1
        assert [r.request_id for r in cluster.close()] == [first, second]
        assert cluster.outstanding == 0

    def test_overflowed_orphan_keeps_its_mode(self):
        cluster = ClusterService(
            groups=2,
            router="least_loaded",
            policy=BatchingPolicy(max_batch_size=8, max_wait=1.0, max_queue_depth=1),
        )
        occupy_workers(cluster, 0.5)
        first = cluster.submit(POOL[0], at=0.0, mode="heuristic_first")
        cluster.submit(POOL[1], at=1e-6)
        assert cluster.kill_group(0, at=2e-6) == 1
        lost = cluster.result(first)
        assert lost.solver_status == "cluster_overflow"
        assert lost.mode == "heuristic_first"
        cluster.close()

    def test_killing_the_last_group_is_refused(self):
        cluster = ClusterService(groups=1, num_workers=2)
        with pytest.raises(ServiceError):
            cluster.kill_group(cluster.group_ids[0], at=0.0)

    def test_sequential_kills_down_to_one_group(self):
        cluster = ClusterService(groups=3, num_workers=2)
        ids = _submit_stream(cluster, 9)
        cluster.kill_group(cluster.group_ids[0], at=cluster.now)
        cluster.kill_group(cluster.group_ids[0], at=cluster.now)
        assert len(cluster.group_ids) == 1
        answered = [r.request_id for r in cluster.close()]
        assert sorted(answered) == sorted(ids)
        assert len(answered) == len(set(answered))

    def test_load_counts_the_channels_in_flight_through_membership_changes(self):
        # A group's load is kept as a running count of the coalescing
        # channels it holds; it must read what a scan of them reads.
        def scanned(g):
            return sum(1 for flights in cluster._inflight.values() if g in flights)

        def check():
            for g in cluster.group_ids:
                assert cluster._load(g) == scanned(g)

        cluster = ClusterService(groups=3, num_workers=1)
        occupy_workers(cluster, 1.0)
        _submit_stream(cluster, 9, gap=1e-6)
        check()
        assert sum(cluster._load(g) for g in cluster.group_ids) == len(POOL)
        cluster.kill_group(cluster.group_ids[0], at=cluster.now)
        check()
        gid = cluster.add_group(at=cluster.now)
        cluster.submit(POOL[0], at=cluster.now + 1e-6)
        check()
        cluster.drain_group(cluster.group_ids[0], at=cluster.now)
        check()
        cluster.close()
        assert all(cluster._load(g) == 0 for g in cluster.group_ids)
        assert gid in cluster.group_ids


class TestGroupKillInjection:
    def test_scheduled_group_kill_fires_and_recovers(self):
        plan = FaultPlan(
            seed=0,
            scheduled=(ScheduledFault(site=SITE_GROUP, at=2),),
            name="one-kill",
        )
        with injecting(plan) as injector:
            cluster = ClusterService(groups=3, num_workers=2)
            ids = _submit_stream(cluster, 8)
            responses = cluster.close()
        assert cluster.metrics.count("cluster.group_kills") == 1
        assert len(cluster.group_ids) == 2
        assert injector.clean
        assert injector.counts()["injected"] == 1
        assert injector.counts()["recovered"] == 1
        answered = [r.request_id for r in responses]
        assert sorted(answered) == sorted(ids)
        assert len(answered) == len(set(answered))

    def test_last_group_never_consults_the_site(self):
        plan = FaultPlan(
            seed=0, rates={SITE_GROUP: 1.0}, max_faults=None, name="kill-all"
        )
        with injecting(plan) as injector:
            cluster = ClusterService(groups=3, num_workers=2)
            ids = _submit_stream(cluster, 8)
            responses = cluster.close()
            # Rate 1.0 kills a group on every eligible admission; once a
            # single group is left, the site is never consulted again.
            assert len(cluster.group_ids) == 1
            assert injector._occurrences[SITE_GROUP] == 2
        assert injector.clean
        assert sorted(r.request_id for r in responses) == sorted(ids)

    def test_builtin_group_kill_plan_passes_chaos(self):
        corpus = [p for p in builtin_corpus(seed=0) if p.name == "group-kill"]
        assert corpus, "group-kill plan missing from the builtin corpus"
        report = run_chaos(plans=corpus, seed=0, items=8, requests=8)
        assert report.ok, [run.to_dict() for run in report.runs]
        scenarios = {run.scenario for run in report.runs}
        assert "cluster" in scenarios
        assert report.total_injected >= 2
