"""repro.serve — a batching solve service for the §5.5 traffic regime.

The paper argues the GPU's winning regime is *many small concurrent
problems*; this subsystem is the serving layer that exploits it: request
queueing, dynamic batching by shape compatibility (a bucket flushes
when full, at its deadline or as soon as a worker is free), an LRU
result cache keyed by canonical problem fingerprints, admission control
with typed rejections, and per-stage metrics.

Typical use::

    from repro.serve import BatchingPolicy, SolveService

    service = SolveService(policy=BatchingPolicy(max_batch_size=32))
    rid = service.submit(problem, at=0.0)
    responses = service.close()
"""

from repro.serve.batching import BatchingPolicy, BatchQueue, bucket_key
from repro.serve.cache import ResultCache
from repro.serve.parametric import ParametricCache, ParametricEntry
from repro.serve.request import (
    Outcome,
    SolveRequest,
    SolveResponse,
    fingerprint,
    structure_fingerprint,
)
from repro.serve.scheduler import WorkerPool
from repro.serve.service import SolveService
from repro.serve.workload import (
    lp_pool,
    mip_pool,
    replay,
    run_load,
    synthetic_stream,
)

__all__ = [
    "BatchingPolicy",
    "BatchQueue",
    "bucket_key",
    "ResultCache",
    "ParametricCache",
    "ParametricEntry",
    "structure_fingerprint",
    "Outcome",
    "SolveRequest",
    "SolveResponse",
    "fingerprint",
    "WorkerPool",
    "SolveService",
    "lp_pool",
    "mip_pool",
    "replay",
    "run_load",
    "synthetic_stream",
]
