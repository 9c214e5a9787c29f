"""Heavy-tailed traffic generation and cluster replay."""

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.cluster.admission import PRIORITY_CLASSES
from repro.cluster.traffic import TrafficSpec, heavy_tailed_stream
from repro.errors import ServiceError
from repro.serve.request import fingerprint
from repro.serve.workload import lp_pool, replay

POOL = lp_pool(16, seed=2)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"mean_interarrival": 0.0},
            {"pareto_alpha": 1.0},
            {"zipf_s": -0.1},
            {"priority_mix": (0.5, 0.5)},
            {"priority_mix": (0.5, 0.4, 0.2)},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            TrafficSpec(**kwargs)


class TestStreamShape:
    SPEC = TrafficSpec(num_requests=500, mean_interarrival=1e-3, seed=5)

    def test_deterministic(self):
        a = heavy_tailed_stream(POOL, self.SPEC)
        b = heavy_tailed_stream(POOL, self.SPEC)
        assert [(t, fingerprint(p), pr) for t, p, pr in a] == [
            (t, fingerprint(p), pr) for t, p, pr in b
        ]

    def test_arrivals_nondecreasing(self):
        arrivals = [t for t, _, _ in heavy_tailed_stream(POOL, self.SPEC)]
        assert arrivals == sorted(arrivals)

    def test_mean_interarrival_is_respected(self):
        arrivals = [t for t, _, _ in heavy_tailed_stream(POOL, self.SPEC)]
        mean_gap = arrivals[-1] / len(arrivals)
        # Pareto sampling noise on 500 draws: right order of magnitude.
        assert 0.3e-3 < mean_gap < 3e-3

    def test_gaps_are_heavy_tailed(self):
        arrivals = np.array([t for t, _, _ in heavy_tailed_stream(POOL, self.SPEC)])
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        # Bursty: the max gap dwarfs the median gap.
        assert gaps.max() > 10.0 * np.median(gaps)

    def test_zipf_popularity_has_a_hot_head(self):
        spec = TrafficSpec(num_requests=800, zipf_s=1.5, seed=7)
        counts = {}
        for _, problem, _ in heavy_tailed_stream(POOL, spec):
            counts[fingerprint(problem)] = counts.get(fingerprint(problem), 0) + 1
        top = max(counts.values())
        assert top > 2 * (800 / len(POOL))  # far above the uniform share

    def test_priorities_follow_the_mix(self):
        spec = TrafficSpec(num_requests=600, priority_mix=(0.0, 1.0, 0.0), seed=3)
        priorities = {pr for _, _, pr in heavy_tailed_stream(POOL, spec)}
        assert priorities == {"silver"}
        mixed = {pr for _, _, pr in heavy_tailed_stream(POOL, self.SPEC)}
        assert mixed <= set(PRIORITY_CLASSES)

    def test_empty_pool_rejected(self):
        with pytest.raises(ServiceError):
            heavy_tailed_stream([], self.SPEC)


class TestReplay:
    def test_replay_answers_every_request(self):
        spec = TrafficSpec(num_requests=40, mean_interarrival=1e-4, seed=1)
        stream = heavy_tailed_stream(POOL, spec)
        cluster = ClusterService(groups=2)
        responses, rejected = replay(cluster, stream)
        assert rejected == 0
        assert len(responses) == len(stream)
        ids = [r.request_id for r in responses]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
