"""FaultPlan construction, validation, and the replay corpus format."""

import pytest

from repro.errors import FaultError
from repro.faults.plan import (
    SITE_ECC,
    SITE_KERNEL,
    SITE_RANK,
    SITE_WORKER,
    SITES,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)


class TestValidation:
    def test_unknown_site_in_rates_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(rates={"device.nope": 0.1})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(rates={SITE_KERNEL: 1.5})

    def test_unknown_scheduled_site_rejected(self):
        with pytest.raises(FaultError):
            ScheduledFault(site="bogus", at=0)

    def test_rank_fault_requires_rank(self):
        with pytest.raises(FaultError):
            ScheduledFault(site=SITE_RANK, at=0)
        ScheduledFault(site=SITE_RANK, at=0, rank=1)  # ok


class TestIntrospection:
    def test_touches_via_rate_and_schedule(self):
        plan = FaultPlan(
            rates={SITE_KERNEL: 0.1},
            scheduled=(ScheduledFault(site=SITE_ECC, at=2),),
        )
        assert plan.touches(SITE_KERNEL)
        assert plan.touches(SITE_ECC)
        assert not plan.touches(SITE_WORKER)
        assert not plan.empty

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(rates={SITE_KERNEL: 0.0}).touches(SITE_KERNEL)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            rates={SITE_KERNEL: 0.05, SITE_WORKER: 0.2},
            scheduled=(
                ScheduledFault(site=SITE_ECC, at=3),
                ScheduledFault(site=SITE_RANK, at=1, rank=2, kind=""),
            ),
            max_faults=5,
            retry=RetryPolicy(max_attempts=7, base_delay=2e-4),
            degrade=False,
            transfer_timeout_factor=3.0,
            name="roundtrip",
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_version_mismatch_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"version": 999})


class TestConstructors:
    def test_generate_is_deterministic(self):
        assert FaultPlan.generate(3) == FaultPlan.generate(3)
        assert FaultPlan.generate(3) != FaultPlan.generate(4)

    def test_generate_unknown_intensity(self):
        with pytest.raises(FaultError):
            FaultPlan.generate(0, intensity="apocalyptic")

    def test_survivable_budget_vs_retries(self):
        plan = FaultPlan.survivable(0)
        assert plan.max_faults == 3
        assert plan.retry.max_attempts > plan.max_faults
        assert plan.degrade

    def test_all_sites_recognised(self):
        for site in SITES:
            rank = 0 if site == SITE_RANK else -1
            ScheduledFault(site=site, at=0, rank=rank)
