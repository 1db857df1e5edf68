"""The scheduler-as-a-service control plane.

:class:`SchedulerService` wraps :class:`~repro.xen.daemon.PlannerDaemon`
in a long-running request loop driven entirely by the simulated clock:

* **Bounded admission queue.**  Mutations wait in a queue of at most
  ``queue_limit`` entries; a full queue rejects with ``backpressure``
  (the caller sees the reason, the report counts it).  Creates that
  would exceed the machine's reservable capacity are rejected with
  ``admission`` before they ever occupy a queue slot.
* **Batched replans.**  A recurring flush tick drains the whole queue
  into *one* census change and one planning pass — one table push per
  batch, however bursty the arrivals.  While a replan is in flight the
  tick coalesces further arrivals into the next batch, and the window
  widens (``RecurringHandle.set_period``) when the queue keeps growing
  anyway — classic adaptive backpressure, narrowing back once drained.
* **Stale-while-revalidate reads.**  ``query-guarantees`` requests are
  answered immediately from the last *committed* census and plan, even
  while a replan is in flight; such reads are counted ``stale`` (the
  answer may be about to change) versus ``fresh``.
* **Deterministic latency.**  The simulated cost of a replan comes
  from :class:`~repro.service.latency.PlannerLatencyModel` — never
  from wall-clock planning time — so the full service history,
  latencies included, is a pure function of (topology, seeds, config).

The daemon's commit point maps onto the simulated clock: the census
flips at ``flush_time + model_cost``, which is when the batch's
requests complete and their sojourn is measured.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union, TYPE_CHECKING

from repro.core.params import (
    DEFAULT_TIERS,
    MS,
    SEC,
    Nanoseconds,
    ServiceTier,
    VMSpec,
    make_vm,
    seconds_to_ns,
)
from repro.crashpoints import (
    CRASH_SERVICE_ADMIT,
    CRASH_SERVICE_COMMIT,
    CRASH_SERVICE_FLUSH_POST_PUSH,
    CRASH_SERVICE_FLUSH_PRE_PUSH,
    crashpoint,
)
from repro.errors import ConfigurationError, RecoveryError, ReproError
from repro.service.churn import ChurnConfig, ChurnGenerator
from repro.service.journal import ServiceJournal
from repro.service.latency import PlannerLatencyModel
from repro.service.requests import (
    KIND_CREATE,
    KIND_QUERY,
    KIND_RECONFIGURE,
    KIND_TEARDOWN,
    REJECT_ADMISSION,
    REJECT_BACKPRESSURE,
    REJECT_PLAN_FAILED,
    REJECT_UNKNOWN_TENANT,
    REQUEST_KINDS,
    TenantRequest,
)
from repro.sim.engine import SimEngine
from repro.topology import Topology
from repro.xen.daemon import PlannerDaemon

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.planner import PlanResult


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of one :class:`SchedulerService`.

    Attributes:
        queue_limit: Bounded admission-queue depth; beyond it requests
            are rejected with ``backpressure``.
        batch_window_ms: Base flush-tick period — the batching window.
        max_batch_window_ms: Ceiling the window may widen to under
            sustained backpressure.
        sojourn_slo_ns: Mutation-completion SLO; a committed request
            whose arrival→commit sojourn exceeds this counts as an SLO
            violation.
        utilization_headroom: Fraction of guest-core capacity the
            pre-admission check will fill before rejecting creates.
        history_limit: Daemon audit-ring size (see
            :class:`~repro.xen.daemon.PlannerDaemon`).
        tiers: Service-tier catalogue requests may name.
    """

    queue_limit: int = 64
    batch_window_ms: float = 1000.0
    max_batch_window_ms: float = 8000.0
    sojourn_slo_ns: int = 3 * SEC
    utilization_headroom: float = 0.95
    history_limit: int = 256
    tiers: Dict[str, ServiceTier] = field(
        default_factory=lambda: dict(DEFAULT_TIERS)
    )

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.batch_window_ms <= 0:
            raise ConfigurationError("batch_window_ms must be positive")
        if self.max_batch_window_ms < self.batch_window_ms:
            raise ConfigurationError(
                "max_batch_window_ms must be >= batch_window_ms"
            )
        if not 0.0 < self.utilization_headroom <= 1.0:
            raise ConfigurationError(
                "utilization_headroom must be in (0, 1]"
            )

    @property
    def batch_window_ns(self) -> Nanoseconds:
        return Nanoseconds(int(self.batch_window_ms * MS))

    @property
    def max_batch_window_ns(self) -> Nanoseconds:
        return Nanoseconds(int(self.max_batch_window_ms * MS))


class SchedulerService:
    """A persistent planning control plane on a simulated clock.

    Args:
        topology: The machine whose tables the service maintains.
        config: Operating knobs (:class:`ServiceConfig`).
        scheduler: Scheduler axis value — selects the latency model
            (``tableau`` pays Fig. 3 table generation amortized by the
            shape cache; dynamic schedulers pay a flat runqueue
            reconfiguration cost).
        engine: Bring-your-own event loop (tests compose the service
            with other actors); by default the service owns one.
        journal: Optional write-ahead log.  Every submitted request is
            journaled *before* it takes effect and every flush-window
            commit appends a verified counter marker, so the service
            can be rebuilt from the journal after a crash
            (:meth:`recover`).  Attaching a journal that already holds
            history requires going through :meth:`recover` — silently
            continuing a fresh service on an old journal would corrupt
            the sequence space.

    The accepted census is kept per request, in the three forms its
    readers use: each tenant's :class:`~repro.core.params.VMSpec` (a
    flush plans them in name order, building none), the sorted tenant
    list (the churn generator's sampling frame) and each tenant's
    utilization in admission order (what admission sums, in the order
    :attr:`accepted` lists them).  :meth:`submit` updates all three with
    the request, and a rolled-back batch rebuilds them.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[ServiceConfig] = None,
        scheduler: str = "tableau",
        engine: Optional[SimEngine] = None,
        journal: Optional[ServiceJournal] = None,
        _replaying: bool = False,
    ) -> None:
        if journal is not None and journal.records and not _replaying:
            raise ConfigurationError(
                f"journal {journal.path} already holds "
                f"{len(journal.records)} records; rebuild from it with "
                "SchedulerService.recover() instead of attaching it to "
                "a fresh service"
            )
        self.topology = topology
        self.config = config if config is not None else ServiceConfig()
        self.scheduler = scheduler
        self.engine = engine if engine is not None else SimEngine()
        self.model = PlannerLatencyModel.for_scheduler(scheduler)
        self.daemon = PlannerDaemon(
            topology,
            hypercall=None,
            cache=True,
            history_limit=self.config.history_limit,
        )
        self.capacity = self.config.utilization_headroom * len(
            topology.guest_cores
        )
        #: Census the service has *accepted* (committed plus queued
        #: effects) — what admission projects against and what the
        #: churn generator sees.
        self.accepted: Dict[str, str] = {}
        #: The accepted census as kept per request (see the class
        #: docstring): specs by tenant, the sorted tenants, and the
        #: utilizations in :attr:`accepted`'s order.
        self._specs: Dict[str, VMSpec] = {}
        self._tenants: List[str] = []
        self._utilizations: Dict[str, float] = {}
        #: Census the last committed table serves — what queries read.
        self.committed: Dict[str, str] = {}
        self.committed_plan: Optional["PlanResult"] = None
        self.queue: List[TenantRequest] = []
        self._inflight: Optional[
            Tuple[List[TenantRequest], Dict[str, str], Nanoseconds]
        ] = None
        self._shapes_seen: set = set()
        self._flush_handle = self.engine.every(
            self.config.batch_window_ns, self._flush
        )

        # ---- durability ---------------------------------------------
        self.journal = journal
        #: Highest request seq this service instance has journaled;
        #: live submits with a stale seq (manual callers defaulting to
        #: 0) are restamped to keep the WAL's sequence space monotonic.
        self._last_seq = -1
        #: Churn checkpoint carried by the last journaled request —
        #: set by :meth:`recover` for
        #: :func:`repro.service.recovery.resume_service`.
        self.recovered_churn: Optional[Dict[str, object]] = None
        #: Request records replayed by :meth:`recover` (0 on a fresh
        #: service).
        self.replayed_requests = 0

        # ---- deterministic accounting ------------------------------
        self.requests_by_kind: Dict[str, int] = {
            kind: 0 for kind in REQUEST_KINDS
        }
        self.rejected: Dict[str, int] = {
            REJECT_BACKPRESSURE: 0,
            REJECT_ADMISSION: 0,
            REJECT_UNKNOWN_TENANT: 0,
            REJECT_PLAN_FAILED: 0,
        }
        self.queries_fresh = 0
        self.queries_stale = 0
        self.batches_committed = 0
        self.batches_failed = 0
        self.mutations_committed = 0
        self.table_pushes = 0
        self.slo_violations = 0
        self.peak_queue = 0
        self.peak_population = 0
        self.window_widenings = 0
        self.replan_latencies_ns: List[int] = []
        self.sojourns_ns: List[int] = []

    # ------------------------------------------------------------------
    # Census helpers
    # ------------------------------------------------------------------

    def tenant_names(self) -> List[str]:
        """Accepted tenants, sorted (the deterministic sampling frame).

        The service's own list, kept per request: do not mutate it."""
        return self._tenants

    @property
    def population(self) -> int:
        return len(self.accepted)

    def _tier(self, name: Optional[str]) -> ServiceTier:
        if name is None or name not in self.config.tiers:
            raise ConfigurationError(f"unknown service tier {name!r}")
        return self.config.tiers[name]

    def _accepted_utilization(self) -> float:
        # The tiers' utilizations, summed in the order ``accepted`` lists
        # the tenants: a float sum rounds by its order.
        return sum(self._utilizations.values())

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def submit(
        self,
        request: TenantRequest,
        churn_state: Optional[Dict[str, object]] = None,
    ) -> Optional[str]:
        """Process one request *now*; returns a rejection reason or
        ``None`` (accepted / answered).

        With a journal attached the request is made durable *first*
        (write-ahead: a crash after the append but before any effect
        loses nothing — replay applies it), then the ``service.admit``
        crashpoint is consulted.  ``churn_state`` is the generator's
        RNG checkpoint riding the record; replayed requests deduplicate
        inside the journal by ``seq``.
        """
        if self.journal is not None:
            if request.seq <= self._last_seq:
                request = replace(request, seq=self._last_seq + 1)
            self.journal.append_request(request, churn_state)
            self._last_seq = request.seq
            crashpoint(CRASH_SERVICE_ADMIT)
        self.requests_by_kind[request.kind] = (
            self.requests_by_kind.get(request.kind, 0) + 1
        )
        if request.kind == KIND_QUERY:
            return self._serve_query(request)
        reason = self._admit(request)
        if reason is not None:
            self.rejected[reason] += 1
            return reason
        self._apply(self.accepted, request)
        self._keep(request.tenant)
        self.queue.append(request)
        self.peak_queue = max(self.peak_queue, len(self.queue))
        self.peak_population = max(self.peak_population, self.population)
        return None

    def _serve_query(self, request: TenantRequest) -> Optional[str]:
        """Answer a guarantee read from the last committed state.

        Stale-while-revalidate: the answer always comes from the
        committed census/plan — never blocks on an in-flight replan —
        and is counted stale whenever it might be superseded (a replan
        in flight, or the tenant accepted but not yet committed).
        """
        if request.tenant not in self.accepted:
            self.rejected[REJECT_UNKNOWN_TENANT] += 1
            return REJECT_UNKNOWN_TENANT
        stale = (
            self._inflight is not None
            or request.tenant not in self.committed
        )
        if stale:
            self.queries_stale += 1
        else:
            self.queries_fresh += 1
        return None

    def guarantees_of(self, tenant: str) -> Optional[Dict[str, object]]:
        """The committed (U, L) guarantee of ``tenant``, if any."""
        tier_name = self.committed.get(tenant)
        if tier_name is None:
            return None
        tier = self.config.tiers[tier_name]
        return {
            "tenant": tenant,
            "tier": tier.name,
            "utilization": tier.utilization,
            "latency_ns": tier.latency_ns,
        }

    def _admit(self, request: TenantRequest) -> Optional[str]:
        if len(self.queue) >= self.config.queue_limit:
            return REJECT_BACKPRESSURE
        if request.kind == KIND_CREATE:
            if request.tenant in self.accepted:
                return REJECT_ADMISSION  # duplicate name
            tier = self._tier(request.tier)
            if self._accepted_utilization() + tier.utilization > self.capacity:
                return REJECT_ADMISSION
            return None
        if request.tenant not in self.accepted:
            return REJECT_UNKNOWN_TENANT
        if request.kind == KIND_RECONFIGURE:
            old = self.config.tiers[self.accepted[request.tenant]]
            new = self._tier(request.tier)
            delta = new.utilization - old.utilization
            if delta > 0 and self._accepted_utilization() + delta > self.capacity:
                return REJECT_ADMISSION
        return None

    @staticmethod
    def _apply(census: Dict[str, str], request: TenantRequest) -> None:
        if request.kind == KIND_CREATE or request.kind == KIND_RECONFIGURE:
            census[request.tenant] = request.tier  # type: ignore[assignment]
        elif request.kind == KIND_TEARDOWN:
            census.pop(request.tenant, None)

    def _keep(self, tenant: str) -> None:
        """Bring the kept census forms in line with :attr:`accepted`'s
        entry for ``tenant``."""
        tier_name = self.accepted.get(tenant)
        if tier_name is None:
            del self._specs[tenant]
            del self._utilizations[tenant]
            del self._tenants[bisect_left(self._tenants, tenant)]
            return
        tier = self.config.tiers[tier_name]
        if tenant not in self._specs:
            insort(self._tenants, tenant)
        self._specs[tenant] = make_vm(
            tenant, tier.utilization, tier.latency_ns, capped=tier.capped
        )
        self._utilizations[tenant] = tier.utilization

    # ------------------------------------------------------------------
    # Batched replanning
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        if self._inflight is not None:
            # Busy-coalescing: arrivals keep queueing for the next
            # batch.  If the queue keeps growing anyway, widen the
            # window — fewer, larger batches under sustained pressure.
            if len(self.queue) >= self.config.queue_limit // 2:
                widened = min(
                    self._flush_handle.period * 2,
                    self.config.max_batch_window_ns,
                )
                if widened > self._flush_handle.period:
                    self._flush_handle.set_period(widened)
                    self.window_widenings += 1
            return
        if not self.queue:
            if self._flush_handle.period != self.config.batch_window_ns:
                # Drained: narrow back to the base cadence.
                self._flush_handle.set_period(self.config.batch_window_ns)
            return
        batch = self.queue
        self.queue = []
        census = dict(self.accepted)
        signature = tuple(sorted(census.values()))
        cache_hit = signature in self._shapes_seen
        cost = self.model.cost_ns(len(census), cache_hit)
        # Dying here loses the in-memory batch — but every request in
        # it is already journaled, so replay rebuilds and re-flushes it.
        crashpoint(CRASH_SERVICE_FLUSH_PRE_PUSH)
        if census:
            specs = [self._specs[tenant] for tenant in self._tenants]
            try:
                self.daemon.replan(
                    specs, reason=f"batch of {len(batch)} @{self.engine.now}"
                )
            except ReproError:
                # The whole batch rolls back: the committed census and
                # table keep serving, the requests report plan-failed.
                self.batches_failed += 1
                self.rejected[REJECT_PLAN_FAILED] += len(batch)
                self._rollback(batch)
                return
        # Dying here loses a replan the daemon already performed;
        # replay re-runs the same replan from the same census, so the
        # rebuilt daemon state matches.
        crashpoint(CRASH_SERVICE_FLUSH_POST_PUSH)
        self._shapes_seen.add(signature)
        self._inflight = (batch, census, cost)
        self.engine.after(cost, self._commit)

    def _commit(self) -> None:
        # Dying here loses the commit entirely — its journal marker was
        # never written, so replay re-commits and appends it then.
        crashpoint(CRASH_SERVICE_COMMIT)
        assert self._inflight is not None
        batch, census, cost = self._inflight
        self._inflight = None
        self.committed = census
        self.committed_plan = self.daemon.current_plan
        now = self.engine.now
        for request in batch:
            sojourn = now - request.arrival_ns
            self.sojourns_ns.append(sojourn)
            if sojourn > self.config.sojourn_slo_ns:
                self.slo_violations += 1
        self.mutations_committed += len(batch)
        self.replan_latencies_ns.append(int(cost))
        self.batches_committed += 1
        self.table_pushes += 1
        if self.journal is not None:
            marker: Dict[str, object] = {
                "type": "commit",
                "now": now,
                "end_seq": max(r.seq for r in batch),
                "batch": len(batch),
                "counters": self._counter_snapshot(),
            }
            existing = self.journal.append_commit(marker)
            if existing is not None and existing != marker:
                # Replay recommitted a journaled window with different
                # state than the crashed process durably recorded —
                # the rebuild is wrong; refuse to serve from it.
                raise RecoveryError(
                    "replayed commit diverged from journal marker at "
                    f"end_seq={marker['end_seq']}: journal={existing} "
                    f"replayed={marker}"
                )

    def _counter_snapshot(self) -> Dict[str, int]:
        """Running counters persisted in commit markers (and verified
        on replay) — including the daemon's exact episode counters and
        the hypercall's activation failures, which would otherwise
        silently reset across a crash-restart."""
        daemon = self.daemon
        hypercall = daemon.hypercall
        return {
            "batches_committed": self.batches_committed,
            "batches_failed": self.batches_failed,
            "mutations_committed": self.mutations_committed,
            "table_pushes": self.table_pushes,
            "slo_violations": self.slo_violations,
            "window_widenings": self.window_widenings,
            "queries_fresh": self.queries_fresh,
            "queries_stale": self.queries_stale,
            "requests_total": sum(self.requests_by_kind.values()),
            "rejected_total": sum(self.rejected.values()),
            "population": self.population,
            "peak_queue": self.peak_queue,
            "peak_population": self.peak_population,
            "daemon_total_replans": daemon.total_replans,
            "daemon_committed_replans": daemon.committed_replans,
            "daemon_failed_replans": daemon.failed_replans,
            "daemon_total_push_backoff_ns": daemon.total_push_backoff_ns,
            "daemon_history_len": len(daemon.history),
            "daemon_push_backoffs_len": len(daemon.push_backoffs_ns),
            "failed_activations": (
                hypercall.failed_activations if hypercall is not None else 0
            ),
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        topology: Topology,
        journal: Union[str, Path, ServiceJournal],
        config: Optional[ServiceConfig] = None,
        scheduler: str = "tableau",
        engine: Optional[SimEngine] = None,
    ) -> "SchedulerService":
        """Rebuild a service from its journal (crash-restart).

        Opens (and tail-heals) ``journal``, then replays every
        journaled request through a fresh service at its original
        arrival time on a fresh simulated clock.  The replayed events
        are *chain-scheduled* — request *n+1* is scheduled from inside
        request *n*'s callback, mirroring the live churn generator —
        so same-timestamp ties resolve in the original heap order and
        the rebuilt history is bit-identical, flush windows, widenings
        and all.  Journaled commit markers deduplicate on re-append and
        are verified against the replayed counters
        (:class:`~repro.errors.RecoveryError` on divergence).  A request
        record this journal could not have written raises
        :class:`~repro.errors.JournalError` naming its ``seq``.

        Effects are exactly-once: replayed appends deduplicate by
        ``seq``, and the last journaled churn checkpoint is exposed as
        :attr:`recovered_churn` so
        :func:`repro.service.recovery.resume_service` continues the
        arrival stream precisely where the crashed run stopped.
        """
        if not isinstance(journal, ServiceJournal):
            journal = ServiceJournal(journal)
        service = cls(
            topology,
            config=config,
            scheduler=scheduler,
            engine=engine,
            journal=journal,
            _replaying=True,
        )
        service.recovered_churn = journal.last_churn_state
        requests = [
            (journal.request_from(record), record.get("churn"))
            for record in journal.request_records()
        ]
        service.replayed_requests = len(requests)
        if not requests:
            return service
        sim = service.engine

        def _replay(index: int) -> None:
            request, churn = requests[index]
            service.submit(request, churn_state=churn)  # type: ignore[arg-type]
            if index + 1 < len(requests):
                sim.at(
                    requests[index + 1][0].arrival_ns,
                    lambda: _replay(index + 1),
                )

        sim.at(requests[0][0].arrival_ns, lambda: _replay(0))
        sim.run_until(journal.horizon_ns())
        return service

    def _rollback(self, batch: List[TenantRequest]) -> None:
        """Recompute the accepted census as committed + queued effects
        (the failed batch's effects drop out), and its kept forms."""
        census = dict(self.committed)
        for request in self.queue:
            self._apply(census, request)
        self.accepted = census
        self._specs = {}
        self._tenants = []
        self._utilizations = {}
        for tenant in census:
            self._keep(tenant)


def run_service(
    topology: Topology,
    duration_s: float,
    churn: Optional[ChurnConfig] = None,
    config: Optional[ServiceConfig] = None,
    scheduler: str = "tableau",
    journal: Optional[ServiceJournal] = None,
) -> SchedulerService:
    """Run a seeded churn stream against a fresh service for
    ``duration_s`` simulated seconds; returns the finished service.

    With ``journal`` attached the run is crash-recoverable: see
    :meth:`SchedulerService.recover` and
    :func:`repro.service.recovery.crash_recover_resume`.
    """
    service = SchedulerService(
        topology, config=config, scheduler=scheduler, journal=journal
    )
    generator = ChurnGenerator(service, churn)
    until_ns = seconds_to_ns(duration_s)
    generator.start(until_ns)
    service.engine.run_until(until_ns)
    return service
