"""Golden multi-shard streams: the cluster tier is the same, bit for bit.

``golden_cluster_streams.json`` was recorded at the commit *before* the
cluster front door started forwarding the service's own
:class:`SolveRequest`, caching in the service's own LRU and sharing its
request/response/cache-entry conversions with the single-pool service.
That fold promises to move no simulated number, and the 1-shard
``differential_cluster`` lane cannot see routing, spills, shedding,
re-routes, autoscaling or invalidation — so each scenario here replays
a heavy-tailed ``s2_pool`` stream through a 2- or 4-group cluster with
``S2_SLO`` shedding on and pins every response (a digest of its whole
``to_dict()``, ``trace_id`` included), the derived stats and the whole
metrics registry down to the last bit (``repr`` of the floats).

Re-recorded once since, when an answer served from the cluster's own
cache tier started carrying its request's ``trace_id`` (it read ``''``):
exactly those responses' digests moved — 50, 37 and 90 of the three
scenarios' 400, 500 and 140 — and every derived stat and metric stayed
bit for bit.

Re-recorded a second time when a cluster response started carrying the
cluster's arrival time (it carried its group's, one front-door hop
later, or for a re-routed request the re-route time plus the hop), so
that its ``latency`` is the one the ``cluster.latency`` histogram
observes.  The digests of the forwarded responses moved — 208, 463 and
50 of the 400, 500 and 140 — and so did the ``cluster.queue_wait``
histogram and its tier percentiles; no other derived stat or metric
moved.  The same change made each shard's cache replica its group's own
result cache; replayed with the old arrival stamp, that fold alone
moves no recorded byte of these three streams.

Re-recorded a third time when the lockstep tableau started taking each
member's whole run of bound flips in one round: every LP batch costs
fewer rounds, so every stream's simulated times moved — 60 of the
autoscale stream's 140 responses, 466 of the kill stream's 500 (its
re-routes fell from 48 to 25).  At its old load (400 requests, 1e-4 s
apart, over 96 LPs) the shed scenario no longer overloaded two groups
and shed nothing, so its offered load was raised — 800 requests, 4e-5 s
apart, over 192 LPs, the same ``S2_SLO`` — and it sheds 120.

Re-recorded a fourth time when a bucket started flushing as soon as a
worker is free (trigger ``idle``) instead of waiting out ``max_wait``
on an idle pool.  The shed and kill streams are saturated: only each
group's first batch went early (one ``idle`` flush per group), yet the
few microseconds it saved moved 409 of 800 and 318 of 500 digests
through every later clock, and shifted a handful of affinity hits,
spills and replica hits; the shed count (120) and the re-routes (25)
held.  The autoscale stream's groups idle between bursts: 12 of the 13
flushes its two surviving groups made are ``idle`` (all 11 were
``deadline`` flushes), 38 of 140 digests moved, and its second
scale-down drains group 2 at 0.549 ms where it drained group 1 at
0.685 ms (group 1's queue emptied sooner).

Re-recorded a fifth time when the lockstep tableau started from the
cold door's dual start: a cold knapsack batch takes one dual round (a
100-item batch's solve p50 fell from 250 to 52 µs), so at their old
loads the three streams reached nothing a shard cannot — the shed
stream shed nothing, the kill stream re-routed nothing and the autoscale
stream never scaled.  Each stream's offered load was raised to match.
The shed stream still sheds under ``S2_SLO`` itself: its 10 ms p95 is
only observed once a backlog that deep has built and drained, so the
stream had to last longer (4 000 requests, 5e-6 s apart, ~20 ms of
arrivals where 800 × 4e-5 s gave 32 ms) and draw from more LPs (768,
so that repeats served from cache do not absorb the overload); it sheds
218 in two steps (120 before).  The kill stream's gaps went 1.5e-5 →
5e-6 s (÷3), 24 re-routes (25 before); the autoscale stream's 3e-5 →
1.5e-5 s (÷2), one add and one drain (two of each before).

Regenerate (only when a PR *means* to move the model)::

    PYTHONPATH=src python tests/cluster/test_golden_cluster_streams.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import (
    S2_SLO,
    AutoscalePolicy,
    ClusterService,
    TrafficSpec,
    heavy_tailed_stream,
    s2_pool,
)
from repro.serve import BatchingPolicy, fingerprint

GOLDEN = Path(__file__).with_name("golden_cluster_streams.json")

#: name → (cluster kwargs, pool kwargs, traffic, {request index: event}).
#: Events fire just before the indexed request is submitted, at its
#: arrival time: ``("kill", rank)`` fail-stops the rank-th live group,
#: ``("invalidate", i)`` drops request ``i``'s fingerprint cluster-wide.
SCENARIOS = {
    # Two single-worker groups under sustained overload: bronze then
    # silver are shed, the hot head coalesces by affinity, distinct work
    # spills, repeats hit the replica / owner tier, and one delivered
    # fingerprint is invalidated cluster-wide mid-stream.
    "2-groups/shed+spill+invalidate": (
        dict(groups=2, slo=S2_SLO, spill_depth=2, num_workers=1),
        dict(pool_size=768, base_items=100, shape_spread=32, seed=3),
        TrafficSpec(num_requests=4000, mean_interarrival=5e-6, zipf_s=0.3, seed=5),
        {250: ("invalidate", 3)},
    ),
    # A group dies mid-burst with work queued: survivors take the
    # re-routes, its replica is wiped, the owner tier keeps answering.
    "4-groups/kill": (
        dict(groups=4, slo=S2_SLO, spill_depth=2, num_workers=1),
        dict(pool_size=192, base_items=40, shape_spread=32, seed=1),
        TrafficSpec(num_requests=500, mean_interarrival=5e-6, zipf_s=0.5, seed=2),
        {200: ("kill", 1)},
    ),
    # Reactive scaling: the burst adds groups, the Pareto lulls drain them.
    "2-groups/autoscale": (
        dict(
            groups=2,
            slo=S2_SLO,
            autoscale=AutoscalePolicy(
                min_groups=2,
                max_groups=4,
                up_outstanding=3.0,
                down_outstanding=0.5,
                cooldown=1e-4,
            ),
        ),
        dict(pool_size=24, base_items=24, shape_spread=6, seed=7),
        TrafficSpec(num_requests=140, mean_interarrival=1.5e-5, pareto_alpha=1.2, seed=11),
        {},
    ),
}


def _pin(value):
    """JSON-stable form: floats by ``repr`` (exact, inf/nan included)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _pin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(v) for v in value]
    return value


def _digest(response) -> str:
    """16 hex digits over the response's whole pinned ``to_dict()``."""
    blob = json.dumps(_pin(response.to_dict()), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run(name: str) -> dict:
    """Replay one scenario; everything the cluster tier leaves behind."""
    cluster_kwargs, pool_kwargs, spec, events = SCENARIOS[name]
    cluster = ClusterService(
        policy=BatchingPolicy(max_batch_size=8, max_wait=2e-5), **cluster_kwargs
    )
    stream = heavy_tailed_stream(s2_pool(**pool_kwargs), spec)
    rerouted = 0
    for i, (at, problem, priority) in enumerate(stream):
        kind, arg = events.get(i, (None, None))
        if kind == "kill":
            rerouted = cluster.kill_group(cluster.group_ids[arg], at=at)
        elif kind == "invalidate":
            cluster.cache.invalidate(fingerprint(stream[arg][1]))
        cluster.submit(problem, at=at, priority=priority)
    responses = cluster.close()
    return _pin(
        {
            "responses": [_digest(r) for r in responses],
            "derived": cluster.stats()["derived"],
            "metrics": cluster.metrics.to_dict(),
            "group_metrics": {
                gid: svc.metrics.to_dict()["counters"]
                for gid, svc in sorted(cluster._groups.items())
            },
            "scale_events": cluster.scale_events,
            "rerouted": rerouted,
        }
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_cluster_stream_matches_golden(name, golden):
    got = run(name)
    want = golden[name]
    # Response by response first, so a drift names the request it hit.
    drifted = [
        i for i, (g, w) in enumerate(zip(got["responses"], want["responses"])) if g != w
    ]
    assert not drifted, f"responses drifted: {drifted[:10]}"
    assert got == want


def test_scenarios_reach_what_one_shard_cannot(golden):
    """The net is only worth its bytes if the recorded runs got there."""
    shed = golden["2-groups/shed+spill+invalidate"]
    counters = shed["metrics"]["counters"]
    assert counters["cluster.shed"] > 0
    assert counters["cluster.affinity_hits"] > 0
    assert shed["derived"]["router"]["spills"] > 0
    assert shed["derived"]["cache"]["invalidations"] == 1
    assert shed["derived"]["cache"]["remote_hits"] > 0

    kill = golden["4-groups/kill"]
    assert kill["rerouted"] > 0
    assert kill["metrics"]["counters"]["cluster.rerouted"] == kill["rerouted"]
    assert len(kill["derived"]["groups"]) == 3
    assert kill["derived"]["cache"]["replica_drops"] == 1

    actions = [action for _, action, _, _ in golden["2-groups/autoscale"]["scale_events"]]
    assert "add" in actions and "drain" in actions


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run(name) for name in SCENARIOS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(SCENARIOS)} streams -> {GOLDEN}")
