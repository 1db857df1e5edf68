"""Control-plane behaviour: batching, backpressure, SWR reads,
rollback, and adaptive windowing."""

import pytest

from repro.core import edfcore
from repro.errors import ConfigurationError, ReproError
from repro.metrics import service_report, service_report_json
from repro.service import (
    KIND_CREATE,
    KIND_QUERY,
    KIND_TEARDOWN,
    REJECT_ADMISSION,
    REJECT_BACKPRESSURE,
    REJECT_PLAN_FAILED,
    REJECT_UNKNOWN_TENANT,
    ChurnConfig,
    SchedulerService,
    ServiceConfig,
    TenantRequest,
    run_service,
)
from repro.topology import uniform, xeon_16core

SEC = 1_000_000_000


def create(name: str, tier: str = "economy", at: int = 0) -> TenantRequest:
    return TenantRequest(KIND_CREATE, name, tier=tier, arrival_ns=at)


class TestBatching:
    def test_one_push_covers_the_whole_batch(self):
        service = SchedulerService(uniform(8))
        for i in range(6):
            assert service.submit(create(f"t{i}")) is None
        service.engine.run_until(5 * SEC)
        assert service.table_pushes == 1
        assert service.mutations_committed == 6
        assert service.batches_committed == 1
        assert service.committed == {f"t{i}": "economy" for i in range(6)}

    def test_default_burst_profile_batches_at_least_3x(self):
        """The PR's headline batching bar: at the default churn profile
        (4 req/s, 1s window) the service folds >= 3 mutations into each
        table push on average."""
        service = run_service(
            xeon_16core(), duration_s=300.0, churn=ChurnConfig()
        )
        report = service_report(service)
        assert report["batching"]["ratio"] >= 3.0
        assert service.table_pushes < service.mutations_committed

    def test_replan_latency_and_sojourn_are_recorded(self):
        service = SchedulerService(uniform(8))
        service.submit(create("t0", at=0))
        service.engine.run_until(5 * SEC)
        assert len(service.replan_latencies_ns) == 1
        assert len(service.sojourns_ns) == 1
        # Sojourn = wait for the flush tick + simulated replan cost.
        assert service.sojourns_ns[0] >= service.replan_latencies_ns[0]


class TestAdmission:
    def test_backpressure_bounds_the_queue(self):
        config = ServiceConfig(queue_limit=4)
        service = SchedulerService(uniform(8), config=config)
        reasons = [service.submit(create(f"t{i}")) for i in range(10)]
        assert reasons[:4] == [None] * 4
        assert reasons[4:] == [REJECT_BACKPRESSURE] * 6
        assert service.rejected[REJECT_BACKPRESSURE] == 6
        assert len(service.queue) == 4

    def test_capacity_admission_rejects_before_queueing(self):
        service = SchedulerService(uniform(4))
        # Dedicated tenants reserve a whole core each, so admission
        # fits floor(headroom * guest_cores) of them and no more.
        fits = int(service.capacity)  # dedicated utilization == 1.0
        reasons = [
            service.submit(create(f"t{i}", tier="dedicated"))
            for i in range(fits + 2)
        ]
        assert reasons[:fits] == [None] * fits
        assert reasons[fits:] == [REJECT_ADMISSION] * 2
        assert service.rejected[REJECT_ADMISSION] == 2
        # Rejected creates never occupied a queue slot.
        assert len(service.queue) == fits

    def test_duplicate_create_and_unknown_tenant(self):
        service = SchedulerService(uniform(8))
        assert service.submit(create("t0")) is None
        assert service.submit(create("t0")) == REJECT_ADMISSION
        assert (
            service.submit(TenantRequest(KIND_TEARDOWN, "ghost"))
            == REJECT_UNKNOWN_TENANT
        )

    def test_unknown_tier_is_a_configuration_error(self):
        service = SchedulerService(uniform(8))
        with pytest.raises(ConfigurationError):
            service.submit(create("t0", tier="platinum"))


class TestStaleWhileRevalidate:
    def test_query_before_commit_is_stale(self):
        service = SchedulerService(uniform(8))
        service.submit(create("t0"))
        # Accepted but no flush yet: answered, counted stale.
        assert service.submit(TenantRequest(KIND_QUERY, "t0")) is None
        assert service.queries_stale == 1
        assert service.queries_fresh == 0

    def test_query_after_commit_is_fresh(self):
        service = SchedulerService(uniform(8))
        service.submit(create("t0"))
        service.engine.run_until(5 * SEC)
        assert service.submit(TenantRequest(KIND_QUERY, "t0")) is None
        assert service.queries_fresh == 1
        assert service.guarantees_of("t0") == {
            "tenant": "t0",
            "tier": "economy",
            "utilization": 0.125,
            "latency_ns": 100_000_000,
        }

    def test_query_during_inflight_replan_is_stale(self):
        service = SchedulerService(uniform(8))
        service.submit(create("t0"))
        service.engine.run_until(5 * SEC)
        service.submit(create("t1"))
        window_ns = service.config.batch_window_ns
        # Run to just past the next flush: the replan is in flight
        # (tableau model cost >> 1ms) but not committed.
        next_flush = ((service.engine.now // window_ns) + 1) * window_ns
        service.engine.run_until(next_flush + 1_000_000)
        assert service._inflight is not None
        assert service.submit(TenantRequest(KIND_QUERY, "t0")) is None
        assert service.queries_stale == 1

    def test_query_of_unknown_tenant_rejects(self):
        service = SchedulerService(uniform(8))
        assert (
            service.submit(TenantRequest(KIND_QUERY, "ghost"))
            == REJECT_UNKNOWN_TENANT
        )
        assert service.rejected[REJECT_UNKNOWN_TENANT] == 1


class TestPlanFailureRollback:
    def test_failed_batch_rolls_back_accepted_census(self):
        service = SchedulerService(uniform(8))
        service.submit(create("t0"))
        service.engine.run_until(5 * SEC)

        def broken(specs, reason=""):
            raise ReproError("planner exploded")

        service.daemon.replan = broken  # type: ignore[method-assign]
        service.submit(create("t1"))
        service.engine.run_until(10 * SEC)
        assert service.batches_failed == 1
        assert service.rejected[REJECT_PLAN_FAILED] == 1
        # The committed table keeps serving; the failed create is gone
        # from the accepted census too.
        assert service.committed == {"t0": "economy"}
        assert service.accepted == {"t0": "economy"}
        assert service.table_pushes == 1


class TestAdaptiveWindow:
    def test_window_widens_under_backlog_and_narrows_when_drained(self):
        config = ServiceConfig(
            batch_window_ms=50.0, max_batch_window_ms=400.0, queue_limit=4
        )
        service = SchedulerService(uniform(8), config=config)
        base_ns = config.batch_window_ns
        service.submit(create("t0"))
        # Two more arrive while the first batch's replan (~166ms for
        # tableau) is still in flight — queue >= limit // 2 at the next
        # tick forces a widening.
        service.engine.at(60_000_000, lambda: service.submit(create("t1")))
        service.engine.at(70_000_000, lambda: service.submit(create("t2")))
        service.engine.run_until(2 * SEC)
        assert service.window_widenings >= 1
        # Everything committed and the queue drained: back to base.
        assert service._flush_handle.period == base_ns
        assert service.mutations_committed == 3


class TestSLO:
    def test_sojourns_over_the_slo_are_counted(self):
        config = ServiceConfig(sojourn_slo_ns=1)
        service = SchedulerService(uniform(8), config=config)
        for i in range(3):
            service.submit(create(f"t{i}"))
        service.engine.run_until(5 * SEC)
        assert service.slo_violations == 3


class TestReportDeterminism:
    def test_shape_cache_warmth_never_shows_in_the_report(self):
        """Cache temperature is observability, not simulation: a run
        whose planner finds every core shape already cached must
        produce byte-identical metrics."""
        churn = ChurnConfig(seed=9, target_population=10)

        def run():
            service = run_service(uniform(8), duration_s=90.0, churn=churn)
            planner = service.daemon.planner
            return (
                service_report_json(service_report(service)),
                planner.core_cache_hits,
                planner.core_cache_misses,
            )

        edfcore.clear_shape_cache()
        cold, _, cold_misses = run()
        warm, warm_hits, warm_misses = run()
        assert cold_misses > 0
        assert warm_hits > 0 and warm_misses == 0
        assert cold == warm
