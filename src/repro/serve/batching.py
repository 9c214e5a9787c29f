"""Dynamic batching policy and shape-compatibility bucketing.

The §5.5 throughput lever is coalescing many *compatible* small problems
into one device-resident batch.  Compatibility is structural: the
lockstep batched simplex needs every member to share ``(m, n)`` and the
finite-upper-bound pattern, and MIPs can only share a concurrent round
with other MIPs.  :func:`bucket_key` maps a problem to its
compatibility class; the :class:`BatchQueue` keeps one FIFO per class.

A batch is flushed when the first of three triggers fires:

- **size** — a bucket reaches ``max_batch_size`` members;
- **deadline** — the oldest member has waited ``max_wait`` simulated
  seconds (bounded latency for partial batches under load);
- **idle** — a worker is free: no worker idles while a request is
  queued, so ``max_wait`` bounds a wait but never imposes one.

``max_queue_depth`` bounds the total number of queued requests — the
admission-control knob the service enforces with
:class:`repro.errors.ServiceSaturated`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.lp.batch_simplex import lockstep_compatible
from repro.mip.problem import MIPProblem
from repro.serve.request import Problem, SolveRequest

BucketKey = Tuple


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs of the dynamic batcher (see module docstring)."""

    #: Flush a bucket once it holds this many requests.
    max_batch_size: int = 16
    #: Flush a bucket once its oldest member waited this long (simulated s).
    max_wait: float = 2e-3
    #: Admission control: max total queued (undispatched) requests.
    max_queue_depth: int = 256

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ServiceError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait < 0.0:
            raise ServiceError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


def bucket_key(problem: Problem) -> BucketKey:
    """Compatibility class of a problem.

    - ``("mip", n, m_ub, m_eq)`` — MIPs of one shape share concurrent
      batched-node rounds;
    - ``("lp", n, m_ub, ub_pattern)`` — lockstep-capable LPs sharing a
      shape *and* finite-ub pattern can run one SIMD tableau batch;
    - ``("lp-solo", n, m_ub, m_eq)`` — LPs outside the lockstep
      preconditions (equality rows, shifted bounds, negative rhs) are
      still grouped for concurrent-stream execution.
    """
    if isinstance(problem, MIPProblem):
        return ("mip", problem.n, problem.num_ub_rows, problem.num_eq_rows)
    if lockstep_compatible(problem):
        pattern = np.isfinite(problem.ub).tobytes()
        return ("lp", problem.n, problem.num_ub_rows, pattern)
    return ("lp-solo", problem.n, problem.num_ub_rows, problem.num_eq_rows)


def lockstep_bucket(key: BucketKey) -> bool:
    """The bucket's lockstep verdict, decided once by :func:`bucket_key`:
    its members can share one fused tableau batch."""
    return key[0] == "lp"


class BatchQueue:
    """Per-compatibility-class FIFOs with deadline bookkeeping.

    Pure data structure — no clock of its own.  The service asks for the
    earliest pending event (:meth:`next_deadline` given the pool's
    earliest free time, :meth:`next_timeout`) and pops batches when a
    trigger fires.  All tie-breaks are deterministic: earliest time
    wins, then the oldest head / first-created bucket / lowest request id.
    """

    def __init__(self, policy: BatchingPolicy):
        self.policy = policy
        self._buckets: "OrderedDict[BucketKey, List[SolveRequest]]" = OrderedDict()
        #: Total queued (undispatched) requests across all buckets, kept
        #: by :meth:`push`, :meth:`pop_batch` and :meth:`remove`.
        self.depth = 0

    def bucket_len(self, key: BucketKey) -> int:
        """Queued requests in one bucket."""
        return len(self._buckets.get(key, ()))

    def nonempty_keys(self) -> List[BucketKey]:
        """Bucket keys holding requests, in bucket-creation order."""
        return [k for k, reqs in self._buckets.items() if reqs]

    def push(self, request: SolveRequest) -> BucketKey:
        """Append a request to its compatibility bucket; returns the key."""
        key = bucket_key(request.problem)
        self._buckets.setdefault(key, []).append(request)
        self.depth += 1
        return key

    def pop_batch(self, key: BucketKey) -> List[SolveRequest]:
        """Remove and return up to ``max_batch_size`` oldest requests."""
        reqs = self._buckets.get(key, [])
        take = min(self.policy.max_batch_size, len(reqs))
        batch, self._buckets[key] = reqs[:take], reqs[take:]
        self.depth -= take
        return batch

    def remove(self, request: SolveRequest) -> None:
        """Drop one queued request (timeout handling)."""
        for reqs in self._buckets.values():
            if request in reqs:
                reqs.remove(request)
                self.depth -= 1
                return

    def next_deadline(
        self, free_at: float
    ) -> Optional[Tuple[float, BucketKey, str]]:
        """Earliest ``(when, bucket, trigger)`` flush event.

        ``free_at`` is the earliest time a worker is free.  A bucket
        flushes at ``min(oldest + max_wait, max(oldest, free_at))``:
        ``"deadline"`` when its timer fires first (or together),
        ``"idle"`` when a worker frees up first.  At one time the oldest
        head goes first, so a freed worker pulls the longest wait.
        """
        best: Optional[Tuple[float, BucketKey, str]] = None
        best_head = 0.0
        max_wait = self.policy.max_wait
        for key, reqs in self._buckets.items():
            if not reqs:
                continue
            head = reqs[0].arrival_time
            when, trigger = head + max_wait, "deadline"
            idle = free_at if free_at > head else head
            if idle < when:
                when, trigger = idle, "idle"
            if best is None or (when, head) < (best[0], best_head):
                best, best_head = (when, key, trigger), head
        return best

    def next_timeout(self) -> Optional[Tuple[float, SolveRequest]]:
        """Earliest per-request timeout event among queued requests."""
        best: Optional[Tuple[float, SolveRequest]] = None
        for reqs in self._buckets.values():
            for req in reqs:
                deadline = req.deadline
                if not np.isfinite(deadline):
                    continue
                if (
                    best is None
                    or deadline < best[0]
                    or (deadline == best[0] and req.request_id < best[1].request_id)
                ):
                    best = (deadline, req)
        return best
