"""Fingerprints and the LRU result cache."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.problems.knapsack import generate_knapsack
from repro.serve.cache import ResultCache
from repro.serve.request import Outcome, SolveResponse, fingerprint


def entry(obj=1.0, ready=0.0):
    return SolveResponse(
        request_id=0,
        fingerprint="fp",
        outcome=Outcome.OK,
        solver_status="optimal",
        objective=obj,
        completion_time=ready,
    )


class TestFingerprint:
    def test_identical_data_same_hash(self):
        a = generate_knapsack(10, seed=3)
        b = generate_knapsack(10, seed=3)
        assert fingerprint(a) == fingerprint(b)

    def test_name_is_excluded(self):
        a = generate_knapsack(10, seed=3)
        b = generate_knapsack(10, seed=3)
        b.name = "renamed"
        assert fingerprint(a) == fingerprint(b)

    def test_data_change_changes_hash(self):
        a = generate_knapsack(10, seed=3)
        b = generate_knapsack(10, seed=4)
        assert fingerprint(a) != fingerprint(b)

    def test_lp_and_mip_differ(self):
        mip = generate_knapsack(10, seed=3)
        lp = mip.relaxation()
        assert fingerprint(mip) != fingerprint(lp)

    def test_relaxations_of_same_mip_match(self):
        mip = generate_knapsack(10, seed=3)
        assert fingerprint(mip.relaxation()) == fingerprint(mip.relaxation())


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", entry())
        assert cache.get("a") is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_contains_does_not_count(self):
        cache = ResultCache(capacity=4)
        cache.put("a", entry())
        assert "a" in cache and "b" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", entry(1.0))
        cache.put("b", entry(2.0))
        cache.get("a")          # refresh "a": "b" is now LRU
        cache.put("c", entry(3.0))
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_zero_capacity_stores_nothing(self):
        cache = ResultCache(capacity=0)
        cache.put("a", entry())
        assert len(cache) == 0 and cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)
