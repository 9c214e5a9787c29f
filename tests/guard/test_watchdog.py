"""IterationWatchdog signal detection, per pathology."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.guard.budget import GuardContext, guarding
from repro.guard.watchdog import (
    CYCLE_REPEATS,
    STALL_WINDOW,
    IterationWatchdog,
    WatchdogOptions,
    WatchdogSignal,
)


class TestOptionsValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ReproError):
            WatchdogOptions(diverge_factor=1.0)
        with pytest.raises(ReproError):
            WatchdogOptions(diverge_factor=float("nan"))


class TestSignals:
    def test_ok_while_improving(self):
        dog = IterationWatchdog("t")
        for i in range(2 * STALL_WINDOW):
            assert dog.observe(i, merit=1000.0 - i).ok

    def test_stall_after_window(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0, merit=1.0).ok
        signals = [
            dog.observe(i, merit=1.0 + 1e-15 * i) for i in range(1, STALL_WINDOW + 10)
        ]
        assert WatchdogSignal.STALL in signals
        # 1e-15 jitter defeats the exact-repeat cycle detector, so the
        # stall detector is what must fire here.
        assert WatchdogSignal.CYCLING not in signals

    def test_improvement_resets_stall(self):
        dog = IterationWatchdog("t")
        merit = 1000.0
        for i in range(4 * STALL_WINDOW):
            if i % (STALL_WINDOW - 1) == 0:
                merit -= 1.0  # real progress just inside every window
            # Distinct sub-threshold wobble in between: neither a repeat
            # nor an improvement.
            assert dog.observe(i, merit=merit + 1e-12 * (i % (STALL_WINDOW - 1))).ok

    def test_diverged(self):
        dog = IterationWatchdog("t", WatchdogOptions(diverge_factor=100.0))
        assert dog.observe(0, merit=1.0).ok
        assert dog.observe(1, merit=1e6) is WatchdogSignal.DIVERGED
        assert IterationWatchdog("t").observe(0, merit=1.0).ok

    def test_cycling_on_exact_repeats(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0, merit=7.0).ok
        signals = [dog.observe(i, merit=7.0) for i in range(1, CYCLE_REPEATS + 1)]
        assert signals[-1] is WatchdogSignal.CYCLING

    def test_nonfinite_merit(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0, merit=float("nan")) is WatchdogSignal.NONFINITE

    def test_nonfinite_vector(self):
        dog = IterationWatchdog("t")
        x = np.array([1.0, np.inf, 3.0])
        assert dog.observe(0, merit=1.0, vector=x) is WatchdogSignal.NONFINITE

    def test_sense_max_orients_merit(self):
        # For a maximizing engine a growing objective is progress, not
        # divergence-free stalling.
        dog = IterationWatchdog("t", sense="max")
        for i in range(2 * STALL_WINDOW):
            assert dog.observe(i, merit=float(i)).ok

    def test_no_merit_is_ok(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0).ok


class TestEventReporting:
    def test_trip_notes_into_active_context(self):
        with guarding(GuardContext()) as ctx:
            dog = IterationWatchdog("enginex")
            dog.observe(3, merit=float("nan"))
        assert ctx.counters["watchdog"] == 1
        event = ctx.events[0].to_dict()
        assert event["engine"] == "enginex"
        assert event["signal"] == "nonfinite"
        assert event["iteration"] == 3

    def test_trip_without_context_is_silent(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0, merit=float("inf")) is WatchdogSignal.NONFINITE
