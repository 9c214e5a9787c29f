"""Bucketing, batching policy validation, and the batch queue."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.lp.problem import LinearProgram
from repro.problems.knapsack import generate_knapsack
from repro.serve.batching import BatchQueue, BatchingPolicy, bucket_key
from repro.serve.request import SolveRequest


def lp(num_items, seed=0):
    return generate_knapsack(num_items, seed=seed).relaxation()


class TestBucketKey:
    def test_same_shape_lps_share_bucket(self):
        assert bucket_key(lp(10, seed=1)) == bucket_key(lp(10, seed=2))

    def test_different_shapes_split(self):
        assert bucket_key(lp(10)) != bucket_key(lp(12))

    def test_mip_and_lp_split(self):
        mip = generate_knapsack(10, seed=1)
        assert bucket_key(mip) != bucket_key(mip.relaxation())
        assert bucket_key(mip)[0] == "mip"

    def test_non_lockstep_lp_goes_solo(self):
        eq = LinearProgram(
            c=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            ub=np.array([1.0, 1.0]),
        )
        assert bucket_key(eq)[0] == "lp-solo"
        assert bucket_key(lp(10))[0] == "lp"


class TestBatchingPolicy:
    def test_defaults_valid(self):
        policy = BatchingPolicy()
        assert policy.max_batch_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait": -1.0},
            {"max_queue_depth": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            BatchingPolicy(**kwargs)


class TestBatchQueue:
    def make_queue(self, **kwargs):
        return BatchQueue(BatchingPolicy(**kwargs))

    def request(self, problem, rid, at=0.0, timeout=None):
        return SolveRequest(
            problem=problem, arrival_time=at, timeout=timeout, request_id=rid
        )

    def test_push_pop_fifo(self):
        q = self.make_queue(max_batch_size=2)
        reqs = [self.request(lp(10, seed=i), rid=i) for i in range(3)]
        keys = {q.push(r) for r in reqs}
        assert len(keys) == 1
        key = keys.pop()
        assert q.depth == 3
        batch = q.pop_batch(key)
        assert [r.request_id for r in batch] == [0, 1]
        assert q.depth == 1

    def test_next_deadline_is_oldest_plus_max_wait(self):
        q = self.make_queue(max_wait=1e-3)
        q.push(self.request(lp(10, seed=1), rid=0, at=5e-4))
        q.push(self.request(lp(10, seed=2), rid=1, at=9e-4))
        when, _key, trigger = q.next_deadline(free_at=float("inf"))
        assert when == pytest.approx(5e-4 + 1e-3)
        assert trigger == "deadline"

    def test_next_timeout_picks_earliest(self):
        q = self.make_queue()
        q.push(self.request(lp(10, seed=1), rid=0, at=0.0, timeout=5e-3))
        q.push(self.request(lp(10, seed=2), rid=1, at=0.0, timeout=1e-3))
        q.push(self.request(lp(10, seed=3), rid=2, at=0.0))  # no timeout
        when, req = q.next_timeout()
        assert when == pytest.approx(1e-3)
        assert req.request_id == 1

    def test_remove(self):
        q = self.make_queue()
        req = self.request(lp(10, seed=1), rid=0)
        q.push(req)
        q.remove(req)
        assert q.depth == 0
        assert q.next_deadline(free_at=0.0) is None

    def test_a_free_worker_flushes_before_the_timer(self):
        q = self.make_queue(max_wait=1e-3)
        q.push(self.request(lp(10, seed=1), rid=0, at=5e-4))
        q.push(self.request(lp(12, seed=2), rid=1, at=2e-4))
        # A worker frees up before either timer: the older head goes.
        when, key, trigger = q.next_deadline(free_at=7e-4)
        assert (when, trigger) == (pytest.approx(7e-4), "idle")
        assert key == bucket_key(lp(12))
        # A worker already free: the head's own arrival.
        assert q.next_deadline(free_at=0.0)[::2] == (pytest.approx(2e-4), "idle")


#: Problems of two shapes (two buckets) for the queue's operation sequences.
OPS_POOL = [lp(items, seed=s) for items in (6, 8) for s in range(3)]


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(("push", "pop", "remove")), st.integers(0, 5)),
        max_size=40,
    ),
    batch=st.integers(min_value=1, max_value=4),
)
def test_depth_is_the_sum_of_the_bucket_lengths(ops, batch):
    q = BatchQueue(BatchingPolicy(max_batch_size=batch))
    queued = []
    for rid, (op, index) in enumerate(ops):
        if op == "push":
            req = SolveRequest(problem=OPS_POOL[index], request_id=rid)
            q.push(req)
            queued.append(req)
        elif op == "pop":
            for req in q.pop_batch(bucket_key(OPS_POOL[index])):
                queued.remove(req)
        elif queued:
            req = queued.pop(index % len(queued))
            q.remove(req)
        assert q.depth == sum(q.bucket_len(k) for k in q.nonempty_keys())
        assert q.depth == len(queued)
