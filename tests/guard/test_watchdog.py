"""IterationWatchdog signal detection, per pathology."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.guard.budget import GuardContext, guarding
from repro.guard.watchdog import IterationWatchdog, WatchdogOptions, WatchdogSignal


class TestOptionsValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ReproError):
            WatchdogOptions(diverge_factor=1.0)
        with pytest.raises(ReproError):
            WatchdogOptions(diverge_factor=float("nan"))


class TestSignals:
    def test_ok_while_improving(self):
        dog = IterationWatchdog("t")
        for i in range(500):
            assert dog.observe(i, merit=1000.0 - i).ok

    def test_diverged(self):
        dog = IterationWatchdog("t", WatchdogOptions(diverge_factor=100.0))
        assert dog.observe(0, merit=1.0).ok
        assert dog.observe(1, merit=1e6) is WatchdogSignal.DIVERGED
        assert IterationWatchdog("t").observe(0, merit=1.0).ok

    def test_nonfinite_merit(self):
        dog = IterationWatchdog("t")
        assert dog.observe(0, merit=float("nan")) is WatchdogSignal.NONFINITE

    def test_nonfinite_vector(self):
        dog = IterationWatchdog("t")
        x = np.array([1.0, np.inf, 3.0])
        assert dog.observe(0, merit=1.0, vector=x) is WatchdogSignal.NONFINITE

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
