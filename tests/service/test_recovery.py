"""Crash → recover → resume: the exactly-once acceptance sweep.

The property under test: for every registered service crashpoint and
any crash schedule that eventually lets a run finish, the recovered
run's canonical service report is **byte-identical** to the same
configuration run uninterrupted.
"""

import json

import pytest

from repro.crashpoints import (
    CRASH_JOURNAL_TORN_APPEND,
    CRASH_SERVICE_ADMIT,
    CRASH_SERVICE_FLUSH_POST_PUSH,
)
from repro.errors import ConfigurationError, ReproError
from repro.faults import (
    SERVICE_CRASHPOINTS,
    CrashPlan,
    crashes_armed,
    parse_crash_plan,
)
from repro.metrics import service_report, service_report_json
from repro.service import (
    ChurnConfig,
    SchedulerService,
    ServiceConfig,
    ServiceJournal,
    crash_recover_resume,
    resume_service,
    run_service,
    run_to_crash,
)
from repro.topology import uniform

DURATION_S = 20.0
SEEDS = (42, 43, 44)
CONFIG = ServiceConfig(batch_window_ms=1000.0)


def churn(seed: int) -> ChurnConfig:
    return ChurnConfig(
        seed=seed, arrival_rate_per_s=6.0, target_population=10
    )


def report_json(service) -> str:
    return service_report_json(service_report(service))


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted per-seed reference reports, computed once."""
    cache = {}

    def get(seed: int) -> str:
        if seed not in cache:
            service = run_service(
                uniform(8),
                duration_s=DURATION_S,
                churn=churn(seed),
                config=CONFIG,
            )
            cache[seed] = report_json(service)
        return cache[seed]

    return get


class TestCrashpointSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("point", SERVICE_CRASHPOINTS)
    def test_every_crashpoint_recovers_byte_identical(
        self, tmp_path, point, seed, reference
    ):
        plan = CrashPlan.at(point, call=2, seed=seed)
        outcome = crash_recover_resume(
            uniform(8),
            DURATION_S,
            tmp_path / "wal.bin",
            plan,
            churn=churn(seed),
            config=CONFIG,
        )
        assert outcome.crash_count == 1
        assert outcome.crashes[0].point == point
        assert report_json(outcome.service) == reference(seed)

    def test_journal_attachment_does_not_perturb_the_report(
        self, tmp_path, reference
    ):
        service = run_service(
            uniform(8),
            duration_s=DURATION_S,
            churn=churn(42),
            config=CONFIG,
            journal=ServiceJournal(tmp_path / "wal.bin"),
        )
        assert report_json(service) == reference(42)


class TestTornTail:
    def test_torn_append_heals_and_regenerates(self, tmp_path, reference):
        # Die mid-append: the half-written record is NOT durable, so
        # recovery must truncate it and the resumed churn stream must
        # regenerate the lost request identically.
        plan = CrashPlan.at(CRASH_JOURNAL_TORN_APPEND, call=5)
        outcome = crash_recover_resume(
            uniform(8),
            DURATION_S,
            tmp_path / "wal.bin",
            plan,
            churn=churn(42),
            config=CONFIG,
        )
        assert outcome.crash_count == 1
        assert outcome.healed_bytes > 0
        assert report_json(outcome.service) == reference(42)


class TestDoubleCrash:
    def test_crash_during_recovery_recovers_again(self, tmp_path, reference):
        # The second call index fires during the recovery replay (the
        # plan's counters persist across deaths), killing the recovery
        # itself; the third attempt completes.
        plan = CrashPlan.at_calls(CRASH_SERVICE_FLUSH_POST_PUSH, (2, 5))
        outcome = crash_recover_resume(
            uniform(8),
            DURATION_S,
            tmp_path / "wal.bin",
            plan,
            churn=churn(42),
            config=CONFIG,
        )
        assert outcome.crash_count == 2
        assert report_json(outcome.service) == reference(42)

    def test_unrecoverable_plan_gives_up_after_max_crashes(self, tmp_path):
        # Persistent from the first admit: every recovery replay dies
        # at the same site it was born at.
        plan = parse_crash_plan("service.admit@1+")
        with pytest.raises(ReproError, match="still firing"):
            crash_recover_resume(
                uniform(8),
                DURATION_S,
                tmp_path / "wal.bin",
                plan,
                churn=churn(42),
                config=CONFIG,
                max_crashes=2,
            )


class TestRecoverySemantics:
    def _crash(self, tmp_path, point=CRASH_SERVICE_FLUSH_POST_PUSH, call=2):
        plan = CrashPlan.at(point, call=call)
        with crashes_armed(plan):
            service, crash = run_to_crash(
                uniform(8),
                DURATION_S,
                tmp_path / "wal.bin",
                churn=churn(42),
                config=CONFIG,
            )
        assert crash is not None and crash.point == point
        return service

    def test_run_to_crash_leaves_a_durable_closed_journal(self, tmp_path):
        dead = self._crash(tmp_path)
        assert dead.journal is not None
        journal = ServiceJournal(tmp_path / "wal.bin")
        assert len(journal.request_records()) > 0
        journal.close()

    def test_recover_replays_every_journaled_request(self, tmp_path):
        self._crash(tmp_path)
        journal = ServiceJournal(tmp_path / "wal.bin")
        durable = len(journal.request_records())
        recovered = SchedulerService.recover(
            uniform(8), journal, config=CONFIG
        )
        assert recovered.replayed_requests == durable
        assert recovered.recovered_churn is not None

    def test_fresh_service_refuses_a_populated_journal(self, tmp_path):
        self._crash(tmp_path)
        journal = ServiceJournal(tmp_path / "wal.bin")
        with pytest.raises(ConfigurationError, match="recover"):
            SchedulerService(uniform(8), config=CONFIG, journal=journal)
        journal.close()

    def test_recover_then_resume_matches_reference(
        self, tmp_path, reference
    ):
        self._crash(tmp_path)
        journal = ServiceJournal(tmp_path / "wal.bin")
        service = SchedulerService.recover(
            uniform(8), journal, config=CONFIG
        )
        resume_service(service, DURATION_S, churn=churn(42))
        assert report_json(service) == reference(42)
        journal.close()


class TestDaemonCountersSurviveRecovery:
    def test_daemon_block_matches_uninterrupted(self, tmp_path, reference):
        # The daemon's episode counters (replans, push backoffs,
        # history depth) live in the service's commit markers; if
        # recovery dropped them the report's "daemon" block would
        # diverge even when the tenant ledger matches.
        plan = CrashPlan.at(CRASH_SERVICE_ADMIT, call=30)
        outcome = crash_recover_resume(
            uniform(8),
            DURATION_S,
            tmp_path / "wal.bin",
            plan,
            churn=churn(43),
            config=CONFIG,
        )
        assert outcome.crash_count == 1
        recovered = json.loads(report_json(outcome.service))
        expected = json.loads(reference(43))
        assert expected["daemon"]["total_replans"] > 0
        assert recovered["daemon"] == expected["daemon"]
