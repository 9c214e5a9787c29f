"""repro.cluster — sharded multi-group serving behind one front door.

The ROADMAP's horizontal-scaling layer: N independent
:class:`repro.serve.SolveService` worker pools (shards), a
consistent-hash / least-loaded router keyed on structure fingerprints,
a shared result-cache tier with per-shard replicas, SLO-aware admission
with priority classes, autoscaling, and the S2 workload definition
(the experiment over it is ``benchmarks/bench_s2_cluster.py``).
"""

from repro.cluster.admission import (
    PRIORITY_CLASSES,
    SLOAdmission,
    SLOPolicy,
    priority_rank,
)
from repro.cluster.cache import ClusterCache, ENTRY_WIRE_BYTES
from repro.cluster.router import (
    ConsistentHashRouter,
    HashRing,
    LeastLoadedRouter,
    VNODES,
    make_router,
)
from repro.cluster.service import (
    AutoscalePolicy,
    ClusterService,
    request_wire_bytes,
)
from repro.cluster.traffic import (
    S2_SLO,
    TrafficSpec,
    heavy_tailed_stream,
    s2_pool,
)

__all__ = [
    "PRIORITY_CLASSES",
    "SLOAdmission",
    "SLOPolicy",
    "priority_rank",
    "S2_SLO",
    "s2_pool",
    "ClusterCache",
    "ENTRY_WIRE_BYTES",
    "ConsistentHashRouter",
    "HashRing",
    "LeastLoadedRouter",
    "VNODES",
    "make_router",
    "AutoscalePolicy",
    "ClusterService",
    "request_wire_bytes",
    "TrafficSpec",
    "heavy_tailed_stream",
]
