"""Campaign runner failure paths: crashes, timeouts, shard errors.

The pool workers here are forked children, so monkeypatching
``repro.campaign.runner.run_shard`` in the parent is inherited — the
stand-ins below must be module-level (picklable by reference).
"""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignMatrix, run_campaign
from repro.campaign.shard import run_shard as real_run_shard


def tiny_matrix(**overrides):
    defaults = dict(
        name="faulty",
        probe="intrinsic",
        schedulers=("credit",),
        vm_counts=(4,),
        seeds=(42,),
        topology="2",
        duration_s=0.005,
    )
    defaults.update(overrides)
    return CampaignMatrix(**defaults)


#: Where ``_crash_once`` leaves its per-shard markers; set per test by
#: the ``marker_dir`` fixture (forked workers inherit it, as they do the
#: patched ``run_shard``).
MARKER_DIR = None


@pytest.fixture
def marker_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "MARKER_DIR", tmp_path)
    return tmp_path


def _crash_once(spec):
    """Kill the worker hard on each shard's first attempt only."""
    marker = Path(MARKER_DIR) / f"{spec.shard_id}.crashed"
    if not marker.exists():
        marker.write_text("x")
        os._exit(1)
    return real_run_shard(spec)


def _always_crash(spec):
    os._exit(1)


def _always_raise(spec):
    raise ValueError("deterministic shard bug")


def _sleep(spec):
    time.sleep(1.5)
    return real_run_shard(spec)


class TestWorkerCrash:
    def test_crashed_shard_is_retried_once_and_succeeds(
        self, monkeypatch, marker_dir
    ):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _crash_once
        )
        result = run_campaign(tiny_matrix(), workers=2)
        assert (marker_dir / f"{result.records[0]['shard']}.crashed").exists()
        assert result.ok
        assert result.retried == 1
        assert result.records[0]["status"] == "ok"

    def test_double_crash_records_failure_without_raising(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _always_crash
        )
        result = run_campaign(tiny_matrix(), workers=2)
        assert not result.ok
        assert result.retried == 1
        assert result.records[0]["status"] == "crashed"
        assert "crashed twice" in result.failures[0]

    def test_crash_record_reaches_the_log(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _always_crash
        )
        log = tmp_path / "run.jsonl"
        run_campaign(tiny_matrix(), workers=2, log_path=str(log))
        assert '"crashed"' in log.read_text()


class TestDeterministicFailure:
    def test_exception_becomes_failed_record_no_retry(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _always_raise
        )
        result = run_campaign(tiny_matrix(), workers=2)
        assert not result.ok
        assert result.retried == 0
        record = result.records[0]
        assert record["status"] == "failed"
        assert "deterministic shard bug" in record["error"]

    def test_serial_path_isolates_shard_errors_too(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _always_raise
        )
        result = run_campaign(tiny_matrix(), workers=1)
        assert not result.ok
        assert result.records[0]["status"] == "failed"

    def test_failed_shards_are_excluded_from_summaries(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.runner.run_shard", _always_raise
        )
        result = run_campaign(tiny_matrix(), workers=1)
        summary = result.aggregate["by_scheduler"]["credit"]
        assert summary["cells"] == 0


class TestTimeout:
    def test_slow_shard_records_timeout(self, monkeypatch):
        monkeypatch.setattr("repro.campaign.runner.run_shard", _sleep)
        result = run_campaign(
            tiny_matrix(), workers=2, shard_timeout_s=0.2
        )
        assert not result.ok
        assert result.records[0]["status"] == "timeout"
        assert "timeout" in result.failures[0]
