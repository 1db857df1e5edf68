"""The campaign's crash-recovery probe: seeded crash/recover cycles
per cell, byte-verified against the uninterrupted run."""

import pytest

from repro.campaign.matrix import (
    CampaignMatrix,
    crash_recovery_matrix,
    load_matrix,
)
from repro.campaign.report import aggregate_json
from repro.campaign.runner import run_campaign
from repro.campaign.shard import CRASH_CYCLES, run_shard
from repro.errors import ConfigurationError
from repro.faults import SERVICE_CRASHPOINTS


def crash_matrix(**overrides) -> CampaignMatrix:
    kwargs = dict(
        name="crash",
        probe="crash-recovery",
        schedulers=("tableau",),
        vm_counts=(10,),
        seeds=(42,),
        topology="8",
        duration_s=20.0,
        arrival_rates=(6.0,),
        batch_windows_ms=(1000.0,),
    )
    kwargs.update(overrides)
    return CampaignMatrix(**kwargs)


class TestMatrix:
    def test_builtin_matrices_load(self):
        assert load_matrix("crash-recovery").probe == "crash-recovery"
        smoke = load_matrix("crash-smoke")
        assert smoke.probe == "crash-recovery"
        assert len(smoke.expand()) == 1

    def test_shard_ids_carry_the_service_axes(self):
        spec = crash_matrix().expand()[0]
        assert spec.shard_id == "0000.tableau.v10.s42.none.a6.w1000"
        assert spec.arrival_rate == 6.0
        assert spec.batch_window_ms == 1000.0

    def test_rejects_fault_presets_health_and_array(self):
        with pytest.raises(ConfigurationError):
            crash_matrix(presets=("chaos-lite",))
        with pytest.raises(ConfigurationError):
            crash_matrix(health=True)
        with pytest.raises(ConfigurationError):
            crash_matrix(engines=("array",))

    def test_default_matrix_shape(self):
        matrix = crash_recovery_matrix()
        assert matrix.schedulers == ("tableau",)
        assert len(matrix.expand()) == 2  # two seeds


class TestShard:
    def test_every_cycle_recovers_byte_identical(self):
        record = run_shard(crash_matrix().expand()[0])
        assert record["status"] == "ok"
        metrics = record["metrics"]
        assert metrics["cycles"] == CRASH_CYCLES
        assert metrics["identical_cycles"] == CRASH_CYCLES
        assert metrics["crashes"] >= CRASH_CYCLES
        cycles = metrics["crash_cycles"]
        assert len(cycles) == CRASH_CYCLES
        for i, cycle in enumerate(cycles):
            # Point rotation: (seed + i) % len, call index i + 1.
            expected = SERVICE_CRASHPOINTS[
                (42 + i) % len(SERVICE_CRASHPOINTS)
            ]
            assert cycle["point"] == expected
            assert cycle["call"] == i + 1
            assert cycle["identical"] is True

    def test_campaign_runs_and_aggregates_deterministically(self):
        matrix = crash_matrix()
        first = run_campaign(matrix, workers=1)
        second = run_campaign(matrix, workers=1)
        assert first.ok and second.ok
        assert aggregate_json(first.aggregate) == aggregate_json(
            second.aggregate
        )
