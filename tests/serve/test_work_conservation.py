"""Requests wait for a worker, not a timer: the dispatch rule as a property.

A bucket flushes when it is full, when its oldest member has waited
``max_wait``, or as soon as a worker is free, whichever comes first.
Over random streams — shapes, duplicates, arrival gaps, batch sizes,
timers and pool sizes — every response must show:

- its ``queue_wait`` is at most ``max_wait`` (its dispatch comes no
  later than ``arrival + max_wait``);
- work conservation: a request that waited and was not flushed by size
  had every worker busy from its arrival to its dispatch.  A worker's
  busy time is read off the responses alone: the ``[start_time,
  completion_time)`` of each batch it ran;
- its answer is :func:`repro.solve_lp`'s.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve_lp
from repro.serve import BatchingPolicy, SolveService
from repro.serve.workload import lp_pool

#: Three shapes (three buckets), three problems each.
POOL = [lp for items in (6, 8, 10) for lp in lp_pool(3, num_items=items, seed=items)]
REFERENCE = [solve_lp(lp).objective for lp in POOL]
#: Back-to-back, within one solve, about one solve, well after one.
GAPS = (0.0, 1e-6, 1e-5, 5e-5, 2e-4)
WAITS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3)


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    keys = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=n, max_size=n))
    batch = draw(st.integers(min_value=1, max_value=4))
    wait = draw(st.sampled_from(WAITS))
    workers = draw(st.integers(min_value=1, max_value=3))
    return keys, gaps, batch, wait, workers


def _covered(intervals, begin, end):
    """Whether half-open ``[begin, end)`` lies inside the union of ``intervals``."""
    t = begin
    for start, completion in sorted(intervals):
        if t >= end:
            break
        if start <= t < completion:
            t = completion
    return t >= end


@settings(deadline=None)
@given(stream=streams())
def test_no_worker_idles_while_a_request_waits(stream):
    keys, gaps, batch, wait, workers = stream
    service = SolveService(
        policy=BatchingPolicy(max_batch_size=batch, max_wait=wait),
        num_workers=workers,
    )
    at = 0.0
    for key, gap in zip(keys, gaps):
        at += gap
        service.submit(POOL[key], at=at)
    responses = service.close()
    assert len(responses) == len(keys)

    busy = defaultdict(set)
    for r in responses:
        if r.worker >= 0:
            busy[r.worker].add((r.start_time, r.completion_time))
    for key, r in zip(keys, responses):
        assert r.ok
        assert r.objective == pytest.approx(REFERENCE[key])
        # queue_wait <= max_wait, without the subtraction's rounding.
        assert r.dispatch_time <= r.arrival_time + wait
        if r.queue_wait > 0.0 and r.batch_size < batch:
            idle = [
                w
                for w in range(workers)
                if not _covered(busy[w], r.arrival_time, r.dispatch_time)
            ]
            assert not idle, (
                f"request {r.request_id} waited {r.queue_wait:.3g} s "
                f"while worker(s) {idle} idled"
            )
