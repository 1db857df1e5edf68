"""The Tableau planner daemon (userspace, dom0).

In the paper the planner is "a daemon in the userspace of dom0" written
in Python on SchedCAT (Sec. 6).  This module is that daemon: it owns the
current guest census, replans on any change, and pushes the compiled
table through the hypercall interface.  Its latency — the table
generation time of Fig. 3 — is what inflates VM provisioning
operations, so every replan is timed and recorded.

Replans are **transactional**: a replan either fully commits (plan
generated, table pushed and staged, ``current_plan`` and ``history``
updated together) or leaves every observable piece of daemon state as it
was — the hypervisor keeps serving the last good table, and the failed
episode is recorded in :class:`ReplanRecord` with a non-``committed``
status.  Transient push failures (:class:`~repro.errors.TablePushError`)
are retried with bounded exponential backoff before the episode is
declared failed; format rejections
(:class:`~repro.errors.TableFormatError`) are deterministic — the same
payload is rejected the same way every time — so they fail fast without
burning the retry budget, and a failed episode's backoffs are never
charged to provisioning latency.

The daemon is built to run forever: ``history`` and ``push_backoffs_ns``
are bounded rings (most recent episodes only) while the episode counters
(:attr:`total_replans`, :attr:`committed_replans`,
:attr:`failed_replans`, :attr:`total_push_backoff_ns`) are exact running
totals, so hours of service-mode churn cannot grow the control plane's
memory footprint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING, Union

from repro.core import METHOD_PARTITIONED, Planner, PlanResult, TableCache
from repro.core.params import VMSpec, flatten_vcpus
from repro.core.table import SystemTable
from repro.crashpoints import CRASH_DAEMON_MID_RETRY, crashpoint
from repro.errors import (
    PlanningError,
    ReproError,
    TableDeltaMismatchError,
    TableFormatError,
    TablePushError,
)
from repro.faults.plan import SITE_PLAN
from repro.topology import Topology
from repro.xen.hypercall import PushRecord, TableHypercall

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.plan import FaultPlan

#: Replan episode outcomes recorded in :attr:`ReplanRecord.status`.
STATUS_COMMITTED = "committed"
STATUS_PLAN_FAILED = "plan-failed"
STATUS_PUSH_FAILED = "push-failed"

#: Why a push travelled as a full table, counted in
#: :attr:`PlannerDaemon.full_push_reasons`: the plan is not partitioned,
#: nothing was pushed before, the table length or core set changed, more
#: than half the cores changed, or the hypervisor bounced the delta.
FULL_METHOD = "method"
FULL_NO_BASE = "no-base"
FULL_GEOMETRY = "geometry"
FULL_OVER_HALF = "over-half"
FULL_DELTA_BOUNCED = "delta-bounced"
FULL_PUSH_REASONS = (
    FULL_METHOD,
    FULL_NO_BASE,
    FULL_GEOMETRY,
    FULL_OVER_HALF,
    FULL_DELTA_BOUNCED,
)

#: Default size of the bounded episode/backoff rings.  Large enough for
#: any test or audit window, small enough that a persistent service
#: replanning every couple of simulated seconds stays memory-flat.
HISTORY_LIMIT = 512


@dataclass
class ReplanRecord:
    """One planning episode: why, how long, what came out.

    ``status`` distinguishes committed episodes from failed ones (which
    are kept in the history for auditing but never became the current
    plan); ``push_retries`` counts transient push failures absorbed
    before the final outcome.
    """

    reason: str
    num_vms: int
    generation_seconds: float
    method: str
    table_bytes: int
    push: Optional[PushRecord] = None
    status: str = STATUS_COMMITTED
    push_retries: int = 0
    error: str = ""

    @property
    def committed(self) -> bool:
        return self.status == STATUS_COMMITTED


class PlannerDaemon:
    """On-demand table generation for a changing VM census.

    Args:
        topology: The machine being managed.
        hypercall: Optional hypervisor interface; when present every
            replan is immediately compiled and pushed (the normal mode).
            Without it the daemon just plans (useful for dry-run
            admission checks and unit tests).
        cache: Reuse tables across same-shape censuses (Sec. 7.1's
            caching optimization) — a tier-based cloud hits this cache
            on almost every create/destroy.
        faults: Optional fault plan consulted before each planning pass
            (site ``planner.plan``); push-site faults are consulted by
            the hypercall itself.
        push_retries: How many times a transiently failed push is
            retried before the replan is declared failed.
        push_backoff_ns: Base backoff charged between push attempts;
            doubles per retry.  Committed episodes record their
            backoffs in :attr:`push_backoffs_ns` so callers can charge
            them to provisioning time; a failed episode's backoffs are
            dropped (the operation is failed, not slow).
        history_limit: Size of the bounded :attr:`history` /
            :attr:`push_backoffs_ns` rings.
        planner_kwargs: Forwarded to :class:`repro.core.Planner`.
    """

    def __init__(
        self,
        topology: Topology,
        hypercall: Optional[TableHypercall] = None,
        cache: bool = False,
        faults: Optional["FaultPlan"] = None,
        push_retries: int = 3,
        push_backoff_ns: int = 1_000_000,
        history_limit: int = HISTORY_LIMIT,
        **planner_kwargs,
    ) -> None:
        self.planner = Planner(topology, **planner_kwargs)
        self.hypercall = hypercall
        self.cache = TableCache(self.planner) if cache else None
        self.faults = faults
        self.push_retries = push_retries
        self.push_backoff_ns = push_backoff_ns
        self.history_limit = history_limit
        #: Most recent backoff charges (committed episodes only).
        self.push_backoffs_ns: Deque[int] = deque(maxlen=history_limit)
        #: Most recent episodes; counters below stay exact across
        #: eviction from this ring.
        self.history: Deque[ReplanRecord] = deque(maxlen=history_limit)
        self._total_replans = 0
        self._committed_replans = 0
        self._failed_replans = 0
        #: Exact running sum of every backoff ever charged (committed
        #: episodes), immune to ring eviction.
        self.total_push_backoff_ns = 0
        self.current_plan: Optional[PlanResult] = None
        #: The last table successfully pushed, and the hypercall
        #: generation token it landed as — the base a delta push names.
        self._last_pushed_table: Optional[SystemTable] = None
        self._last_push_token = 0
        #: Push-path accounting: how often only changed per-core columns
        #: travelled, how often the whole table did, and how often a
        #: delta was bounced (stale base) and re-sent in full.
        self.delta_pushes = 0
        self.full_pushes = 0
        self.delta_fallbacks = 0
        #: Each full push counted under its one reason
        #: (``FULL_PUSH_REASONS``); the counts sum to ``full_pushes``.
        self.full_push_reasons: Dict[str, int] = dict.fromkeys(FULL_PUSH_REASONS, 0)
        #: Invoked as (result, record) right after a replan commits (new
        #: table safely staged).  The health supervisor uses it to learn
        #: that a clean table is on its way to the dispatcher.
        self.on_commit: Optional[
            Callable[[PlanResult, ReplanRecord], None]
        ] = None

    def replan(self, specs: List[VMSpec], reason: str) -> PlanResult:
        """Plan for ``specs``; push to the hypervisor when attached.

        Raises :class:`repro.errors.AdmissionError` (and every other
        planning- or push-phase error) *without* touching the currently
        installed table or ``current_plan`` — a failed VM creation must
        not degrade running guests.  The failed episode is appended to
        :attr:`history` with a descriptive status before the error
        propagates, so the control plane's audit log is complete even
        across crashes.
        """
        if self.faults is not None and self.faults.fires(SITE_PLAN) is not None:
            error = PlanningError("injected planner fault")
            self._record_failure(reason, specs, STATUS_PLAN_FAILED, error)
            raise error
        try:
            if self.cache is not None:
                # A hit keeps the committed placement where it can, so
                # the delta against the pushed table stays small.
                result = self.cache.plan(flatten_vcpus(specs), base=self.current_plan)
            else:
                result = self.planner.plan(specs)
        except ReproError as error:
            self._record_failure(reason, specs, STATUS_PLAN_FAILED, error)
            raise
        push = None
        retries = 0
        # Backoffs accumulate per episode and are only charged on
        # commit: a failed operation is reported failed, not slow.
        episode_backoffs: List[int] = []
        if self.hypercall is not None:
            while True:
                try:
                    push = self._push_result(result)
                    break
                except TableFormatError as error:
                    # Format rejections are deterministic — the same
                    # table serializes to the same (corrupt) payload —
                    # so retrying cannot succeed.  Fail fast with no
                    # backoff charge.
                    self._record_failure(
                        reason,
                        specs,
                        STATUS_PUSH_FAILED,
                        error,
                        result=result,
                        push_retries=retries,
                    )
                    raise
                except TablePushError as error:
                    if retries >= self.push_retries:
                        self._record_failure(
                            reason,
                            specs,
                            STATUS_PUSH_FAILED,
                            error,
                            result=result,
                            push_retries=retries,
                        )
                        raise
                    # Bounded exponential backoff; the simulated control
                    # plane records rather than sleeps the delay.
                    episode_backoffs.append(self.push_backoff_ns << retries)
                    retries += 1
                    # Dying mid-retry loses the whole episode: nothing
                    # was committed (backoffs are only charged on
                    # commit), so a rebuilt daemon that re-runs the
                    # episode from scratch matches exactly.
                    crashpoint(CRASH_DAEMON_MID_RETRY)
        # Commit point: all observable state flips together, only after
        # the new table is safely staged in the hypervisor.
        self.current_plan = result
        for backoff_ns in episode_backoffs:
            self.push_backoffs_ns.append(backoff_ns)
            self.total_push_backoff_ns += backoff_ns
        record = ReplanRecord(
            reason=reason,
            num_vms=len(specs),
            generation_seconds=result.stats.generation_seconds,
            method=result.stats.method,
            table_bytes=result.stats.table_bytes,
            push=push,
            status=STATUS_COMMITTED,
            push_retries=retries,
        )
        self._append(record)
        if self.on_commit is not None:
            self.on_commit(result, record)
        return result

    # ------------------------------------------------------------------
    # Push transport: delta when cheap, full otherwise
    # ------------------------------------------------------------------

    def _push_result(self, result: PlanResult) -> PushRecord:
        """Push ``result``'s table — as a per-core delta when that is
        both expressible and smaller than half the table.

        A bounced delta (:class:`TableDeltaMismatchError` — the
        hypervisor's base moved underneath us) is retried as a full
        push rather than failing the episode; any *other* format error
        propagates to the caller's fail-fast handling.  Exceptions
        leave ``_last_pushed_table`` untouched, so retry attempts
        re-evaluate delta eligibility against the real base.  Each full
        push is counted under its reason in :attr:`full_push_reasons`.
        """
        hypercall = self.hypercall
        assert hypercall is not None
        table = result.table
        changed = self._delta_cores(result)
        if isinstance(changed, str):
            reason = changed
        else:
            try:
                push = hypercall.push_system_table_delta(
                    table, changed, self._last_push_token
                )
            except TableDeltaMismatchError:
                self.delta_fallbacks += 1
                reason = FULL_DELTA_BOUNCED
            else:
                self.delta_pushes += 1
                self._note_pushed(table)
                return push
        push = hypercall.push_system_table(table)
        self.full_pushes += 1
        self.full_push_reasons[reason] += 1
        self._note_pushed(table)
        return push

    def _delta_cores(self, result: PlanResult) -> Union[List[int], str]:
        """The cores a delta push of ``result`` carries, or the reason
        (a ``FULL_*`` constant) it must travel in full.

        Deltas are restricted to partitioned plans: split pieces (``#k``
        names) and DP-WRAP clusters couple cores through shared vCPUs,
        so a per-core diff no longer captures the full schedule change
        safely.  The peephole pass rewrites each core on its own, so a
        partitioned peephole plan is a valid per-core delta.  A delta
        needs a base of the same geometry (length, core set), and is
        worth it only when at most half the cores changed; otherwise
        the full table is barely bigger and needs no base.

        A core is unchanged when it is the pushed table's own object (a
        plan memo hit, or a core a cache hit kept) or holds the same
        schedule (:meth:`~repro.core.table.CoreTable.same_schedule`,
        which only compares the names of cores bound to the same shared
        segments).  Comparing stops at the first changed core past half:
        the push then goes in full whatever the other cores hold.
        """
        if result.stats.method != METHOD_PARTITIONED:
            return FULL_METHOD
        base = self._last_pushed_table
        if base is None:
            return FULL_NO_BASE
        table = result.table
        if base.length_ns != table.length_ns or set(base.cores) != set(table.cores):
            return FULL_GEOMETRY
        half = len(table.cores) // 2
        changed: List[int] = []
        for cpu, core in table.cores.items():
            old = base.cores[cpu]
            if core is not old and not core.same_schedule(old):
                changed.append(cpu)
                if len(changed) > half:
                    return FULL_OVER_HALF
        return changed

    def _note_pushed(self, table: SystemTable) -> None:
        assert self.hypercall is not None
        self._last_pushed_table = table
        self._last_push_token = self.hypercall.delta_generation

    def _append(self, record: ReplanRecord) -> None:
        """Ring append + exact counter update (the only history writer)."""
        self.history.append(record)
        self._total_replans += 1
        if record.committed:
            self._committed_replans += 1
        else:
            self._failed_replans += 1

    def _record_failure(
        self,
        reason: str,
        specs: List[VMSpec],
        status: str,
        error: Exception,
        result: Optional[PlanResult] = None,
        push_retries: int = 0,
    ) -> None:
        self._append(
            ReplanRecord(
                reason=reason,
                num_vms=len(specs),
                generation_seconds=(
                    result.stats.generation_seconds if result is not None else 0.0
                ),
                method=result.stats.method if result is not None else "none",
                table_bytes=result.stats.table_bytes if result is not None else 0,
                push=None,
                status=status,
                push_retries=push_retries,
                error=f"{type(error).__name__}: {error}",
            )
        )

    @property
    def last_generation_seconds(self) -> float:
        return self.history[-1].generation_seconds if self.history else 0.0

    @property
    def total_replans(self) -> int:
        """Exact episode count, independent of ring eviction."""
        return self._total_replans

    @property
    def committed_replans(self) -> int:
        return self._committed_replans

    @property
    def failed_replans(self) -> int:
        return self._failed_replans

    def rotate_table(self, specs: List[VMSpec]) -> PlanResult:
        """Periodic regeneration rotating the split victim (Sec. 7.5).

        For censuses requiring semi-partitioning, bumping the planner's
        rotation changes which equal-utilization vCPU pays the
        migration penalty, so the cost "evens out over time" as with
        the dynamic schedulers.  The bump only commits when the replan
        does: a failed rotation must not silently change which vCPU
        pays the penalty on the *next* successful replan.
        """
        self.planner.rotation += 1
        try:
            return self.replan(specs, reason="rotate split victim")
        except ReproError:
            self.planner.rotation -= 1
            raise
