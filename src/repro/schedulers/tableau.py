"""The Tableau dispatcher: table-driven first level + fair-share second level.

This is the runtime half of Tableau (Sec. 4 and 6): an O(1), core-local
dispatcher that enacts the planner's table, plus an epoch-based
round-robin second-level scheduler that soaks up idle slots so the
machine stays work-conserving for uncapped vCPUs.

The implementation mirrors the paper's key mechanisms:

* **O(1) dispatch** via the slice table (at most two records per lookup);
* **cross-core migration safety** — a core never runs a vCPU still
  marked as scheduled elsewhere; it registers for an IPI and the owning
  core sends one in its post-schedule path when it deschedules the vCPU;
* **efficient wake-ups** — the table itself tells the waking core which
  pCPU to notify (current allocation, else the idle home core for
  uncapped vCPUs; wake-ups of capped vCPUs without an allocation are
  safely ignored);
* **lock-free table switches** — a pending table installed with a cycle
  number becomes active at the next table wrap, identically on every
  core (the Xen layer in :mod:`repro.xen` takes care of choosing a safe
  activation point mid-round).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.table import SystemTable
from repro.errors import ConfigurationError
from repro.hotpath import coldpath, hotpath
from repro.schedulers.base import Decision, Scheduler, WakeAction
from repro.sim.overheads import IPI_WIRE_NS
from repro.sim.vm import VCpu, VCpuState

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

#: Cost-model constants (ns), calibrated so the 16-core I/O scenario
#: reproduces the Tableau column of Table 1 (1.43 / 1.06 / 0.43 us).
#: The split between a fixed local part and a socket-scaled part is
#: derived from the 16- vs 48-core measurements (Tables 1 and 2).
PICK_LOCAL_NS: float = 430.0
PICK_SCALED_NS: float = 1_000.0
L2_SCAN_NS: float = 35.0  # per core-local candidate examined
WAKE_LOCAL_NS: float = 300.0
WAKE_SCALED_NS: float = 760.0
MIGRATE_LOCAL_NS: float = 200.0
MIGRATE_SCALED_NS: float = 230.0

#: Default second-level scheduling epoch and maximum L2 timeslice.
DEFAULT_L2_EPOCH_NS = 10_000_000
DEFAULT_L2_SLICE_NS = 1_000_000

#: Budget residue below this counts as exhausted.  Dispatching a vCPU
#: for less than the scheduling overhead would make no progress, so
#: sub-threshold budgets must trigger replenishment rather than a
#: zero-length timeslice.
L2_MIN_BUDGET_NS = 50_000


@dataclass
class _L2State:
    """Per-core second-level scheduler state (epoch budgets)."""

    budgets: Dict[str, int] = field(default_factory=dict)
    members: List[VCpu] = field(default_factory=list)


class TableauScheduler(Scheduler):
    """Table-driven dispatcher enacting a planner-generated system table.

    Args:
        table: The system table to enact (slices are built if missing).
        capped: Per-vCPU cap flags; capped vCPUs never run outside their
            table slots (and are skipped by the second-level scheduler).
            Defaults come from each vCPU's own ``capped`` attribute.
        l2_epoch_ns: Epoch length of the second-level fair-share
            scheduler.
        l2_slice_ns: Maximum contiguous L2 timeslice (keeps the second
            level round-robin responsive).
        work_conserving: Disable to get the naive, strictly-table-driven
            dispatcher (used by the ablation benchmark).
        split_l2_policy: ``"none"`` (paper prototype: split vCPUs do not
            take part in second-level scheduling) or ``"trailing"`` (the
            trailing-core policy sketched in Sec. 5).
        faults: Optional :class:`~repro.faults.FaultPlan` consulted at
            the table-switch activation point (``runtime.table.switch``).
            A fired spec makes the staged table fail to activate; with
            ``corrupt=True`` the targeted core (``spec.cpu``, or every
            core) drops to the degraded round-robin dispatcher until a
            later switch succeeds.
    """

    name = "tableau"

    def __init__(
        self,
        table: SystemTable,
        l2_epoch_ns: int = DEFAULT_L2_EPOCH_NS,
        l2_slice_ns: int = DEFAULT_L2_SLICE_NS,
        work_conserving: bool = True,
        split_l2_policy: str = "none",
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        super().__init__()
        if split_l2_policy not in ("none", "trailing"):
            raise ConfigurationError(f"unknown split policy {split_l2_policy!r}")
        self.table = table
        self.table.build_slices(only_missing=True)
        self.l2_epoch_ns = l2_epoch_ns
        self.l2_slice_ns = l2_slice_ns
        self.work_conserving = work_conserving
        self.split_l2_policy = split_l2_policy
        self._vcpus: Dict[str, VCpu] = {}
        self._l2: Dict[int, _L2State] = {}
        self._last_pick: Dict[int, Tuple[Optional[VCpu], int, int]] = {}
        self._pending_table: Optional[SystemTable] = None
        self._pending_cycle: int = 0
        self.table_switches = 0
        self.faults = faults
        if faults is not None:
            from repro.faults.plan import SITE_TABLE_SWITCH

            self._switch_faults = faults.has_site(SITE_TABLE_SWITCH)
        else:
            self._switch_faults = False
        self.failed_switches = 0
        #: Cores currently running the degraded round-robin dispatcher,
        #: mapped to the reason they dropped out of table-driven mode.
        self.degraded_cores: Dict[int, str] = {}
        self.degraded_picks = 0
        self._rr_cursor: Dict[int, int] = {}
        #: vCPUs barred from dispatch (name -> reason); see quarantine().
        self._quarantined: Dict[str, str] = {}
        # Invoked as (old_table, new_table, now) at the wrap where a
        # staged table becomes active; the hypercall layer uses it to
        # retire the outgoing table the moment no core references it.
        self.on_table_switch: Optional[
            Callable[[SystemTable, SystemTable, int], None]
        ] = None
        self._switch_listeners: List[
            Callable[[SystemTable, SystemTable, int], None]
        ] = []
        self._switch_failed_listeners: List[Callable[[SystemTable, int], None]] = []
        # Entry-point costs are fixed per machine (socket_factor is a
        # topology constant); precomputed at attach so the hot path does
        # not re-derive them on every invocation.
        self._pick_cost = PICK_LOCAL_NS + PICK_SCALED_NS
        self._wake_cost = WAKE_LOCAL_NS + WAKE_SCALED_NS
        self._migrate_cost = MIGRATE_LOCAL_NS + MIGRATE_SCALED_NS

    def attach(self, machine) -> None:
        super().attach(machine)
        factor = machine.costs.socket_factor
        self._pick_cost = PICK_LOCAL_NS + PICK_SCALED_NS * factor
        self._wake_cost = WAKE_LOCAL_NS + WAKE_SCALED_NS * factor
        self._migrate_cost = MIGRATE_LOCAL_NS + MIGRATE_SCALED_NS * factor

    # ------------------------------------------------------------------
    # Assembly and table management
    # ------------------------------------------------------------------

    def add_vcpu(self, vcpu: VCpu) -> None:
        if vcpu.name not in self.table.home_cores:
            raise ConfigurationError(
                f"{vcpu.name} has no allocations in the installed table"
            )
        self._vcpus[vcpu.name] = vcpu
        home = self._l2_home(vcpu)
        if home is not None:
            state = self._l2.setdefault(home, _L2State())
            state.members.append(vcpu)
            state.budgets[vcpu.name] = 0

    def install_table(self, table: SystemTable, first_cycle: int) -> None:
        """Stage ``table`` to become active at table-cycle ``first_cycle``.

        All cores compare the current cycle index against the activation
        cycle inside ``pick_next``, so they flip over at exactly the same
        table wrap without any locking — the simulated analogue of the
        time-synchronized ``next_table`` pointer of Sec. 6.  Only cores
        without a slice table get one: a decoded push arrives with every
        core's slices derived and checked, and a delta push shares its
        unchanged cores (slices included) with the base table.
        """
        table.build_slices(only_missing=True)
        self._pending_table = table
        self._pending_cycle = first_cycle

    def _maybe_switch(self, now: int) -> None:
        if self._pending_table is None:
            return
        if now // self.table.length_ns >= self._pending_cycle:
            new = self._pending_table
            self._pending_table = None
            if self._switch_faults:
                from repro.faults.plan import SITE_TABLE_SWITCH

                spec = self.faults.fires(SITE_TABLE_SWITCH)
                if spec is not None:
                    # Mid-activation failure: the staged table is dropped
                    # (a fresh push is needed to retry) and, if the fault
                    # corrupts per-core state, the targeted cores fall
                    # back to degraded round-robin dispatch.
                    self.failed_switches += 1
                    if spec.corrupt:
                        reason = "table switch failed mid-activation"
                        if spec.cpu is not None:
                            self.degraded_cores[spec.cpu] = reason
                        else:
                            for core in self.table.cores:
                                self.degraded_cores[core] = reason
                    for listener in self._switch_failed_listeners:
                        listener(new, now)
                    return
            old = self.table
            self.table = new
            self.table_switches += 1
            # Home cores may have moved under the new table: rebuild the
            # second-level membership (budgets carry over so mid-epoch
            # fairness is preserved across the switch).
            self._rebuild_l2()
            if self.degraded_cores:
                # A clean table activation is the recovery point: every
                # degraded core resumes table-driven dispatch.
                self.degraded_cores.clear()
            if self.on_table_switch is not None:
                self.on_table_switch(old, self.table, now)
            for listener in self._switch_listeners:
                listener(old, self.table, now)

    def _rebuild_l2(self) -> None:
        carried: Dict[str, int] = {}
        for state in self._l2.values():
            carried.update(state.budgets)
        self._l2 = {}
        for vcpu in self._vcpus.values():
            home = self._l2_home(vcpu)
            if home is None:
                continue
            state = self._l2.setdefault(home, _L2State())
            state.members.append(vcpu)
            state.budgets[vcpu.name] = carried.get(vcpu.name, 0)

    def add_switch_listener(
        self, listener: Callable[[SystemTable, SystemTable, int], None]
    ) -> None:
        """Register a callback invoked after every successful switch."""
        self._switch_listeners.append(listener)

    def add_switch_failed_listener(
        self, listener: Callable[[SystemTable, int], None]
    ) -> None:
        """Register a callback invoked as (dropped_table, now) when an
        activation fails under fault injection."""
        self._switch_failed_listeners.append(listener)

    @property
    def pending_table(self) -> Optional[SystemTable]:
        """The staged table (if any) awaiting its activation wrap."""
        return self._pending_table

    @property
    def pending_cycle(self) -> int:
        return self._pending_cycle

    # ------------------------------------------------------------------
    # Scheduling entry points
    # ------------------------------------------------------------------

    @hotpath
    def pick_next(self, cpu: int, now: int) -> Decision:
        # Settle the previous pick's second-level budget *before* any
        # table switch (inlined _settle_l2: this runs on every decision,
        # so the common level-1/idle case must exit in a couple of
        # compares).  Ordering matters: a switch rebuilds the L2
        # membership, and a wakeup-driven resched landing exactly on the
        # activation boundary would otherwise lose the budget consumed
        # under the outgoing table.
        last = self._last_pick.get(cpu)
        if last is not None and last[2] == 2:
            prev_vcpu, runtime_seen, _level = last
            state = self._l2.get(cpu)
            if state is None:
                state = self._l2[cpu] = _L2State()
            consumed = prev_vcpu.runtime_ns - runtime_seen
            if consumed > 0:
                remaining = state.budgets.get(prev_vcpu.name, 0) - consumed
                state.budgets[prev_vcpu.name] = remaining if remaining > 0 else 0

        if self._pending_table is not None:
            self._maybe_switch(now)
        if self.degraded_cores and cpu in self.degraded_cores:
            return self._pick_degraded(cpu, now)
        state = self._l2.get(cpu)

        cost = self._pick_cost
        core_table = self.table.cores.get(cpu)
        if core_table is None:
            return Decision(None, quantum_end=None, cost_ns=cost)
        # The lookup memo covers the slot enclosing ``now`` (lookup()
        # installs it on miss), so one tuple yields the allocation, the
        # level-1 quantum end, and the next timer boundary.
        memo = core_table._memo
        if memo is None or not memo[0] <= now < memo[1]:
            core_table.lookup(now)
            memo = core_table._memo
        alloc = memo[2]

        if alloc is not None and alloc.vcpu is not None:
            vcpu = self._vcpus.get(alloc.vcpu)
            if (
                vcpu is not None
                and vcpu.state is not VCpuState.BLOCKED
                and (not self._quarantined or vcpu.name not in self._quarantined)
            ):
                if vcpu.pcpu is not None and vcpu.pcpu != cpu:
                    # Scheduled elsewhere (overlapping split-allocation
                    # race): register for an IPI on deschedule and fall
                    # through to the second level meanwhile.
                    vcpu.sched_data["tableau.waiter"] = cpu
                else:
                    self._last_pick[cpu] = (vcpu, vcpu.runtime_ns, 1)
                    return Decision(vcpu, quantum_end=memo[1], level=1, cost_ns=cost)

        boundary = memo[1]

        # Idle slot (or blocked/busy owner): try the second level.
        if self.work_conserving:
            candidate, budget = self._l2_pick(cpu, now, state)
            if candidate is not None:
                if self.split_l2_policy != "none":
                    state = self._l2.get(cpu)
                cost += L2_SCAN_NS * (len(state.members) if state is not None else 0)
                slice_ns = budget if budget < self.l2_slice_ns else self.l2_slice_ns
                quantum = now + slice_ns
                if boundary < quantum:
                    quantum = boundary
                self._last_pick[cpu] = (candidate, candidate.runtime_ns, 2)
                return Decision(candidate, quantum_end=quantum, level=2, cost_ns=cost)

        self._last_pick[cpu] = (None, 0, 0)
        return Decision(None, quantum_end=boundary, cost_ns=cost)

    # ------------------------------------------------------------------
    # Degraded mode and quarantine
    # ------------------------------------------------------------------

    @coldpath
    def _pick_degraded(self, cpu: int, now: int) -> Decision:
        """Emergency round-robin dispatch for a core whose table state is
        corrupt (failed mid-activation switch).

        Every non-quarantined vCPU homed on the core — capped or not —
        gets a bounded timeslice in turn, so guests keep making progress
        until the planner daemon pushes a clean table and the next
        successful switch restores table-driven dispatch.
        """
        cost = self._pick_cost
        quarantined = self._quarantined
        home_cores = self.table.home_cores
        blocked = VCpuState.BLOCKED
        candidates = [
            v
            for v in self._vcpus.values()
            if v.state is not blocked
            and (v.pcpu is None or v.pcpu == cpu)
            and cpu in home_cores.get(v.name, ())
            and (not quarantined or v.name not in quarantined)
        ]
        if not candidates:
            self._last_pick[cpu] = (None, 0, 0)
            return Decision(
                None, quantum_end=now + self.l2_slice_ns, level=3, cost_ns=cost
            )
        cursor = self._rr_cursor.get(cpu, 0)
        chosen = candidates[cursor % len(candidates)]
        self._rr_cursor[cpu] = cursor + 1
        self.degraded_picks += 1
        self._last_pick[cpu] = (chosen, chosen.runtime_ns, 3)
        return Decision(
            chosen, quantum_end=now + self.l2_slice_ns, level=3, cost_ns=cost
        )

    def mark_degraded(self, cpu: int, reason: str) -> None:
        """Drop ``cpu`` to the degraded round-robin dispatcher."""
        self.degraded_cores[cpu] = reason
        if self.machine is not None:
            self.machine.request_resched(cpu)

    def clear_degraded(self, cpu: int) -> None:
        """Return ``cpu`` to table-driven dispatch."""
        if self.degraded_cores.pop(cpu, None) is not None and self.machine is not None:
            self.machine.request_resched(cpu)

    def quarantine(self, name: str, reason: str) -> None:
        """Bar vCPU ``name`` from dispatch at every level.

        A running quarantined vCPU is preempted at the next resched on
        its core (requested here); it stays runnable but is skipped by
        the table path, the second level, and degraded round-robin until
        :meth:`release_quarantine`.
        """
        self._quarantined[name] = reason
        vcpu = self._vcpus.get(name)
        if vcpu is not None and vcpu.pcpu is not None and self.machine is not None:
            self.machine.request_resched(vcpu.pcpu)

    def release_quarantine(self, name: str) -> None:
        """Re-admit a quarantined vCPU (no-op if not quarantined)."""
        if self._quarantined.pop(name, None) is None:
            return
        vcpu = self._vcpus.get(name)
        if (
            vcpu is not None
            and vcpu.state is not VCpuState.BLOCKED
            and self.machine is not None
        ):
            homes = self.table.home_cores.get(name, ())
            if homes:
                self.machine.request_resched(homes[0])

    @property
    def quarantined(self) -> Dict[str, str]:
        """Currently quarantined vCPUs (name -> reason), a copy."""
        return dict(self._quarantined)

    def on_wakeup(self, vcpu: VCpu, now: int) -> WakeAction:
        cost = self._wake_cost
        processing = vcpu.last_cpu
        if self._quarantined and vcpu.name in self._quarantined:
            # Quarantined vCPUs never trigger rescheds; they are picked
            # up (if released) at the next natural decision point.
            return WakeAction(cpu=processing, cost_ns=cost, resched_cpu=None)
        # The table tells us where the vCPU currently has an allocation.
        for core in self.table.home_cores.get(vcpu.name, ()):
            table = self.table.cores[core]
            alloc = table.lookup(now)
            if alloc is not None and alloc.vcpu == vcpu.name:
                return WakeAction(
                    cpu=processing,
                    cost_ns=cost,
                    resched_cpu=core,
                    ipi_delay_ns=IPI_WIRE_NS,
                )
        # No current allocation: uncapped vCPUs may use an idling home core.
        home = self._l2_home(vcpu)
        if (
            self.work_conserving
            and home is not None
            and self.machine.cpus[home].current is None
        ):
            return WakeAction(
                cpu=processing, cost_ns=cost, resched_cpu=home, ipi_delay_ns=IPI_WIRE_NS
            )
        # Capped (or no idle core): safely ignored; the vCPU will be seen
        # as runnable when its next allocation begins.
        return WakeAction(cpu=processing, cost_ns=cost, resched_cpu=None)

    def array_program(self, machine):
        """Compile the table into the fused array-dispatch program.

        Only the stock dispatcher configuration is compilable: subclasses
        (and the ``"trailing"`` split policy, whose L2 membership is
        recomputed per pick) fall back to the object engine.  The program
        receives the second-level constants and state factory here so
        :mod:`repro.sim.arraycore` never imports the scheduler layer.
        """
        if type(self) is not TableauScheduler or self.split_l2_policy != "none":
            return None
        from repro.sim.arraycore import TableauArrayProgram

        return TableauArrayProgram(
            machine,
            self,
            l2_scan=L2_SCAN_NS,
            l2_min_budget=L2_MIN_BUDGET_NS,
            l2_state_factory=_L2State,
        )

    def post_schedule(
        self, cpu: int, prev: Optional[VCpu], chosen: Optional[VCpu], now: int
    ) -> float:
        cost = self._migrate_cost
        if prev is not None and prev is not chosen:
            waiter = prev.sched_data.pop("tableau.waiter", None)
            if waiter is not None:
                cost += self.machine.costs.ipi()
                self.machine.send_resched_ipi(int(waiter), delay=IPI_WIRE_NS)
        return cost

    def runnable_on(self, cpu: int) -> int:
        state = self._l2.get(cpu)
        if state is None:
            return 0
        return sum(1 for v in state.members if v.runnable)

    # ------------------------------------------------------------------
    # Second-level scheduler (epoch-based fair share)
    # ------------------------------------------------------------------

    def _l2_home(self, vcpu: VCpu) -> Optional[int]:
        """Core on which a vCPU takes part in second-level scheduling."""
        if vcpu.capped:
            return None
        homes = self.table.home_cores.get(vcpu.name, [])
        if not homes:
            return None
        if len(homes) > 1:
            if self.split_l2_policy == "none":
                # Paper prototype: split vCPUs get no second-level service.
                return None
            # Trailing-core policy: participate where it last received a
            # guaranteed allocation; approximated by the first home core
            # until the vCPU actually runs (last_cpu tracks it afterwards).
            return None  # dynamic; resolved in _l2_pick via last_cpu
        return homes[0]

    def _l2_members(self, cpu: int) -> List[VCpu]:
        state = self._l2.get(cpu)
        members = list(state.members) if state is not None else []
        if self.split_l2_policy == "trailing":
            # Runs on every L2 pick (via the @hotpath _l2_pick), so the
            # trailing-member scan appends in place rather than building
            # a generator per call.
            home_cores = self.table.home_cores
            for v in self._vcpus.values():
                if (
                    not v.capped
                    and len(home_cores.get(v.name, [])) > 1
                    and v.last_cpu == cpu
                ):
                    members.append(v)
        return members

    @hotpath
    def _l2_pick(
        self, cpu: int, now: int, state: Optional[_L2State] = None
    ) -> Tuple[Optional[VCpu], int]:
        if self.split_l2_policy == "none":
            # Fast path: the membership list is fixed after assembly, so
            # iterate it in place instead of rebuilding a copy per pick
            # (the caller passes the per-core state it already fetched).
            if state is None:
                state = self._l2.get(cpu)
                if state is None:
                    return None, 0
            members: Sequence[VCpu] = state.members
        else:
            state = self._l2.setdefault(cpu, _L2State())
            members = self._l2_members(cpu)
        budgets = state.budgets
        quarantined = self._quarantined
        candidates: List[VCpu] = []
        any_replenished = False
        blocked = VCpuState.BLOCKED
        for v in members:
            if (
                v.state is not blocked
                and (v.pcpu is None or v.pcpu == cpu)
                and (not quarantined or v.name not in quarantined)
            ):
                candidates.append(v)
                if budgets.get(v.name, 0) >= L2_MIN_BUDGET_NS:
                    any_replenished = True
        if not candidates:
            return None, 0
        if not any_replenished:
            # Replenish: divide the epoch evenly among runnable vCPUs.
            share = self.l2_epoch_ns // len(candidates)
            for v in candidates:
                budgets[v.name] = share
        best: Optional[VCpu] = None
        best_budget = 0
        for v in candidates:
            budget = budgets.get(v.name, 0)
            if (
                best is None
                or budget > best_budget
                or (budget == best_budget and v.name > best.name)
            ):
                best = v
                best_budget = budget
        if best_budget < L2_MIN_BUDGET_NS:
            return None, 0
        return best, best_budget
