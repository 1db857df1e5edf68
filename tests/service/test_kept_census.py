"""The service keeps its accepted census per request.

After every request the sorted tenant list, the admission sum and the
specs a flush plans must equal what the accepted census (tenant -> tier)
derives: ``sorted``, the tiers' utilizations summed in the census's own
order, and ``vms_from_tiers`` over the census in name order.  Streams mix
creates, reconfigures, teardowns and queries; a tier whose latency goal
no period meets makes a batch fail to plan and roll back; a recovery
from the journal must keep the same census.  Admission decides with the
ordered float sum, which rounds differently from other orders or from
per-tier counts near the capacity for catalogues such as 0.1 and 0.3.
"""

import random
import tempfile
from pathlib import Path
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import MS, ServiceTier, vms_from_tiers
from repro.service import (
    KIND_CREATE,
    KIND_QUERY,
    KIND_RECONFIGURE,
    KIND_TEARDOWN,
    REJECT_ADMISSION,
    SchedulerService,
    ServiceConfig,
    TenantRequest,
)
from repro.service.journal import ServiceJournal
from repro.topology import uniform

TIERS = {
    "tenth": ServiceTier("tenth", 0.1, 20 * MS),
    "third": ServiceTier("third", 1 / 3, 50 * MS),
    "wide": ServiceTier("wide", 0.3, 30 * MS),
    "big": ServiceTier("big", 0.6, 10 * MS),
    # Admitted, but no period meets a 1 ns goal: its batch fails to plan.
    "broken": ServiceTier("broken", 0.2, 1),
}
CONFIG = ServiceConfig(tiers=TIERS)
TOPOLOGY = uniform(3)
TENANTS = [f"t{i}" for i in range(6)]
KINDS = [KIND_CREATE, KIND_CREATE, KIND_RECONFIGURE, KIND_TEARDOWN, KIND_QUERY]
SEC = 1_000_000_000


def ordered_sum(service: SchedulerService) -> float:
    """The admission sum as the accepted census orders it."""
    tiers = service.config.tiers
    return sum(tiers[tier].utilization for tier in service.accepted.values())


def watch_flushes(service: SchedulerService, flushes: List[int]) -> None:
    """Check every census a flush hands the daemon against the accepted
    census it was cut from."""
    replan = service.daemon.replan

    def checked(specs, reason=""):
        census = sorted(service.accepted.items())
        assert list(specs) == vms_from_tiers(census, tiers=service.config.tiers)
        flushes.append(len(census))
        return replan(specs, reason=reason)

    service.daemon.replan = checked  # type: ignore[method-assign]


def assert_kept(service: SchedulerService) -> None:
    assert service.tenant_names() == sorted(service.accepted)
    assert service._accepted_utilization() == ordered_sum(service)


steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(TENANTS),
        st.sampled_from(sorted(TIERS)),
        # Gaps that let flushes and commits fall between requests; the
        # odd nanoseconds keep arrivals off the flush ticks.
        st.sampled_from([0, 1, 300, 900, 2_500]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_kept_census_follows_every_request_and_recovery(steps):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "wal.bin"
        service = SchedulerService(
            TOPOLOGY, config=CONFIG, journal=ServiceJournal(path)
        )
        flushes: List[int] = []
        watch_flushes(service, flushes)
        now = 0
        for seq, (kind, tenant, tier, gap_ms) in enumerate(steps):
            now += gap_ms * MS + 7
            service.engine.run_until(now)
            assert_kept(service)
            request = TenantRequest(
                kind,
                tenant,
                tier=None if kind in (KIND_TEARDOWN, KIND_QUERY) else tier,
                arrival_ns=now,
                seq=seq,
            )
            service.submit(request)
            assert_kept(service)
        end = now + 20 * SEC
        service.engine.run_until(end)
        assert_kept(service)
        assert service.queue == []
        service.journal.close()

        recovered = SchedulerService.recover(TOPOLOGY, path, config=CONFIG)
        recovered_flushes: List[int] = []
        watch_flushes(recovered, recovered_flushes)
        assert_kept(recovered)
        recovered.engine.run_until(end)
        assert_kept(recovered)
        assert recovered.accepted == service.accepted
        assert recovered.tenant_names() == service.tenant_names()
        recovered.journal.close()


def reference_rejects(service: SchedulerService, request: TenantRequest) -> bool:
    """Admission as the ordered sum over the accepted census decides it."""
    tiers = service.config.tiers
    total = ordered_sum(service)
    new = tiers[request.tier].utilization  # type: ignore[index]
    if request.kind == KIND_CREATE:
        return total + new > service.capacity
    delta = new - tiers[service.accepted[request.tenant]].utilization
    return delta > 0 and total + delta > service.capacity


def admission_stream(
    tiers: Dict[str, ServiceTier], cores: int, seed: int, length: int
) -> int:
    """Drive ``length`` creates, reconfigures and teardowns through one
    service that never flushes, checking each admission decision against
    the ordered sum; returns the number of admission rejections."""
    config = ServiceConfig(tiers=tiers, queue_limit=length + 1)
    service = SchedulerService(uniform(cores), config=config)
    rng = random.Random(seed)
    names = sorted(tiers)
    rejections = 0
    born = 0
    for _ in range(length):
        tenants = service.tenant_names()
        draw = rng.random()
        if not tenants or draw < 0.6:
            request = TenantRequest(KIND_CREATE, f"n{born}", tier=rng.choice(names))
            born += 1
        elif draw < 0.7:
            tenant = tenants[rng.randrange(len(tenants))]
            request = TenantRequest(KIND_RECONFIGURE, tenant, tier=rng.choice(names))
        else:
            tenant = tenants[rng.randrange(len(tenants))]
            service.submit(TenantRequest(KIND_TEARDOWN, tenant))
            continue
        expected = reference_rejects(service, request)
        reason = service.submit(request)
        assert (reason == REJECT_ADMISSION) == expected, (request, ordered_sum(service))
        rejections += expected
        assert service._accepted_utilization() == ordered_sum(service)
    return rejections


@settings(max_examples=40, deadline=None)
@given(
    utilizations=st.lists(
        st.one_of(
            st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 0.125, 0.2, 0.6]),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=5,
    ),
    cores=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_admission_equals_the_ordered_sum_for_any_catalogue(utilizations, cores, seed):
    tiers = {
        f"tier{i}": ServiceTier(f"tier{i}", u, 10 * MS)
        for i, u in enumerate(utilizations)
    }
    admission_stream(tiers, cores, seed, 300)


def test_admission_at_the_boundary_of_a_non_dyadic_catalogue():
    # 16 cores at the default 0.95 headroom: capacity 15.2.  On these
    # streams a running float sum disagrees with the ordered sum in 47
    # of the 10,428 capacity decisions, and per-tier counts in 259.
    tiers = {
        f"u{u}": ServiceTier(f"u{u}", u, 10 * MS) for u in (0.1, 0.2, 0.3, 0.6, 0.7)
    }
    rejections = sum(admission_stream(tiers, 16, seed, 2_000) for seed in range(8))
    assert rejections > 0
