"""SLO-aware admission: priority classes, shed levels, hysteresis, and the
sorted window the tail percentiles are read from (``np.percentile`` bit
for bit, evictions in arrival order)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.admission import (
    CHECK_INTERVAL,
    PRIORITY_CLASSES,
    WINDOW,
    SLOAdmission,
    SLOPolicy,
    priority_rank,
)
from repro.errors import ServiceError


class TestPriorityClasses:
    def test_rank_order_gold_first(self):
        assert [priority_rank(p) for p in PRIORITY_CLASSES] == [0, 1, 2]

    def test_unknown_class_rejected(self):
        with pytest.raises(ServiceError):
            priority_rank("platinum")


class TestSLOPolicyValidation:
    def test_defaults_valid(self):
        SLOPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p95_target": 0.0},
            {"p99_target": -1.0},
            {"p95_target": float("nan")},
            {"p99_target": float("nan")},
            {"p95_target": -1.0},
            {"p99_target": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            SLOPolicy(**kwargs)


def _breaching(policy):
    """An admission controller whose window breaches both targets."""
    adm = SLOAdmission(policy)
    for _ in range(32):
        adm.observe(10.0 * policy.p99_target)
    return adm


T = CHECK_INTERVAL


class TestShedLevels:
    POLICY = SLOPolicy(p95_target=1e-3, p99_target=1e-2)

    def test_level_rises_one_step_per_check(self):
        adm = _breaching(self.POLICY)
        assert adm.evaluate(0.0) == 1
        # Within the same check interval the level holds.
        assert adm.evaluate(0.5 * T) == 1
        assert adm.evaluate(T) == 2

    def test_gold_is_never_shed(self):
        adm = _breaching(self.POLICY)
        for t in range(10):
            adm.evaluate(t * T)
        assert adm.shed_level == len(PRIORITY_CLASSES) - 1
        assert adm.admit("gold", 100.0)
        assert not adm.admit("silver", 200.0)
        assert not adm.admit("bronze", 300.0)

    def test_shed_order_bronze_before_silver(self):
        adm = _breaching(self.POLICY)
        adm.evaluate(0.0)
        assert adm.shed_level == 1
        assert adm.admit("silver", 0.0)
        assert not adm.admit("bronze", 0.0)

    def test_recovery_needs_both_percentiles_below_fraction(self):
        adm = _breaching(self.POLICY)
        adm.evaluate(0.0)
        assert adm.shed_level == 1
        # Replace the window with latencies well under recovery.
        for _ in range(WINDOW):
            adm.observe(1e-6)
        assert adm.evaluate(T) == 0

    def test_hysteresis_no_drop_in_the_dead_band(self):
        adm = _breaching(self.POLICY)
        adm.evaluate(0.0)
        # Latencies between recover_fraction*target and target: level holds.
        for _ in range(WINDOW):
            adm.observe(0.9 * self.POLICY.p95_target)
        assert adm.evaluate(T) == 1
        assert adm.evaluate(2 * T) == 1

    def test_transitions_are_recorded(self):
        adm = _breaching(self.POLICY)
        adm.evaluate(0.0)
        adm.evaluate(T)
        assert [lvl for (_, lvl, _, _) in adm.transitions] == [1, 2]


class TestReporting:
    def test_shed_rate_and_stats(self):
        adm = _breaching(SLOPolicy(p95_target=1e-3, p99_target=1e-2))
        adm.evaluate(0.0)
        assert adm.admit("gold", 0.0)
        assert not adm.admit("bronze", 0.0)
        assert not adm.admit("bronze", 0.0)
        assert adm.shed_rate("bronze") == 1.0
        assert adm.shed_rate("gold") == 0.0
        stats = adm.stats()
        assert stats["shed"]["bronze"] == 2
        assert stats["admitted"]["gold"] == 1
        assert stats["shed_level"] == 1
        assert stats["transitions"] == 1

    def test_window_is_bounded(self):
        adm = SLOAdmission(SLOPolicy())
        for i in range(WINDOW + 100):
            adm.observe(float(i))
        assert len(adm._window) == WINDOW
        # Only the most recent WINDOW latencies feed the percentiles.
        p95, _ = adm.percentiles()
        assert p95 >= 100.0

    def test_empty_window_percentiles_are_zero(self):
        assert SLOAdmission().percentiles() == (0.0, 0.0)


# -- the window: sorted on insert, read as np.percentile reads it -------------

#: Latencies with ties and zeros: a few repeated values beside fresh ones
#: over several decades.
latencies = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-5, 2.5e-5 + 1e-20, 1.0]),
    st.floats(0.0, 1.0, allow_subnormal=False),
    st.floats(1e-7, 1e-4),
)


def _bits(pair):
    return tuple(float(x).hex() for x in pair)


@given(st.lists(latencies, min_size=1, max_size=300))
def test_percentiles_are_numpys_bit_for_bit(stream):
    adm = SLOAdmission()
    window = deque(maxlen=WINDOW)
    for i, latency in enumerate(stream):
        adm.observe(latency)
        window.append(latency)
        if i % 16 == 15 or i == len(stream) - 1:
            expected = tuple(float(np.percentile(list(window), q)) for q in (95, 99))
            assert _bits(adm.percentiles()) == _bits(expected)
    assert adm._window == sorted(window)


def test_a_full_window_evicts_its_oldest_value():
    adm = SLOAdmission()
    first = [5.0] + [1.0] * (WINDOW - 1)
    for latency in first:
        adm.observe(latency)
    adm.observe(2.0)
    assert adm._window == sorted(first[1:] + [2.0])
    assert adm.percentiles() == tuple(
        float(np.percentile(first[1:] + [2.0], q)) for q in (95, 99)
    )


def test_an_evicted_value_tied_with_a_later_one_leaves_once():
    adm = SLOAdmission()
    first = [3.0, 1.0, 3.0] + [2.0] * (WINDOW - 3)
    for latency in first:
        adm.observe(latency)
    adm.observe(4.0)  # the first 3.0 leaves; the second stays
    assert adm._window.count(3.0) == 1
    adm.observe(0.0)  # then the 1.0
    assert adm._window == sorted(first[3:] + [3.0, 4.0, 0.0])
    assert len(adm._window) == WINDOW
