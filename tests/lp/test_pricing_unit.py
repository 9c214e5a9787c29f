"""Direct unit tests for the simplex pricing rules."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.lp.pricing import (
    BlandPricing,
    DantzigPricing,
    DevexPricing,
    make_pricing,
)


class TestDantzig:
    def test_picks_most_positive(self):
        rule = DantzigPricing()
        reduced = np.array([0.5, 3.0, -1.0, 2.9])
        eligible = np.array([True, True, True, True])
        assert rule.select(reduced, eligible) == 1

    def test_respects_eligibility(self):
        rule = DantzigPricing()
        reduced = np.array([0.5, 3.0])
        eligible = np.array([True, False])
        assert rule.select(reduced, eligible) == 0

    def test_none_when_nothing_eligible(self):
        rule = DantzigPricing()
        assert rule.select(np.array([1.0]), np.array([False])) is None


class TestBland:
    def test_smallest_index(self):
        rule = BlandPricing()
        eligible = np.array([False, True, True])
        assert rule.select(np.array([0.0, 0.1, 9.9]), eligible) == 1

    def test_none_when_empty(self):
        assert BlandPricing().select(np.zeros(3), np.zeros(3, dtype=bool)) is None


class TestDevex:
    def test_initial_weights_behave_like_dantzig_squared(self):
        rule = DevexPricing()
        rule.reset(3)
        reduced = np.array([1.0, 2.0, -3.0])
        eligible = np.array([True, True, False])
        # Scores d²/w with w=1: picks index 1.
        assert rule.select(reduced, eligible) == 1

    def test_update_raises_weights(self):
        rule = DevexPricing()
        rule.reset(3)
        w = np.array([0.0, 0.0, 0.0])
        pivot_row = np.array([4.0, 2.0, 1.0])  # entering col 2 (alpha=1)
        rule.update(entering=2, leaving=0, w=w, pivot_row_coeffs=pivot_row)
        # Column 0's ratio (4/1)² = 16 should dominate its weight now.
        assert rule._weights[0] >= 16.0

    def test_auto_reset_on_size_change(self):
        rule = DevexPricing()
        rule.reset(2)
        reduced = np.array([1.0, 1.0, 5.0])
        eligible = np.ones(3, dtype=bool)
        assert rule.select(reduced, eligible) == 2

    def test_zero_pivot_update_ignored(self):
        rule = DevexPricing()
        rule.reset(2)
        before = rule._weights.copy()
        rule.update(0, 1, np.zeros(2), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(rule._weights, before)


class TestFactory:
    @pytest.mark.parametrize("name", ["dantzig", "devex", "bland"])
    def test_known_rules(self, name):
        assert make_pricing(name).name == name

    def test_unknown_rule(self):
        with pytest.raises(ReproError):
            make_pricing("steepest-edge-exact")
