"""Structure-of-arrays dispatch engine: batched table playback.

The object backend (:class:`~repro.sim.machine.Machine` +
``TableauScheduler.pick_next``) pays per-event Python overhead on every
dispatch: a chain of method frames (resched callback, ``pick_next``,
``post_schedule``, two ``record_op`` calls, ``_arm_event``), a
:class:`~repro.schedulers.base.Decision` allocation, and repeated
attribute traffic.  Tableau's tables make almost all of that work
statically predictable, so this module compiles the active system table
into flat per-core arrays and *plays them back*:

* each core's cyclic schedule is flattened into full-coverage segment
  columns — ``seg_ends`` (``array('q')`` of segment end offsets) plus a
  parallel owner column (vCPU registry handles, ``-1`` for idle) — so a
  dispatch lookup is a cursor advance over an integer array instead of a
  slice-table probe;
* a per-core cursor and cycle base batch-advance monotonically with the
  clock: within one table round the next boundary is one array read,
  and multi-round gaps fast-forward with one division;
* the three hot entry points (resched, core timer event, wakeup) are
  compiled — once per core, at program build — into argument-bound
  kernel functions: every constant the kernel touches (the engine, the
  heap, the shared scheduler dicts, the tracer's stat objects, cost
  scalars, enum members) is bound as a function default, so the hot
  loop runs on local-variable loads with no ``self`` traffic, no
  ``functools.partial`` indirection, and no per-event frames beyond the
  kernel itself.

Kernels are built exactly once; a staged table *switch* refills the
stable per-core containers (``seg_ends``/``seg_vcpu``/cursors) in place
and updates the program's rebindable attributes, so callbacks already
sitting in the event heap keep working — they re-read the mutable state
through containers whose identity never changes.

Behavioral equivalence is the hard constraint: the kernels replicate
the object path statement for statement (same event schedule times,
same ``seq`` consumption, same RNG draw order, same float accumulation
order into :class:`~repro.sim.tracing.OpStats`), so a same-seed run
produces a bit-identical trace fingerprint on either backend.  Whenever
a non-table code path is active the kernels fall back to the inherited
object implementation:

* clock skew or timer jitter faults -> the resched/timer kernels are
  compiled *as* the object path (the whole run is affected);
* stuck-guest faults -> burst completion delegated likewise;
* a staged table switch -> only the resched that activates it (the
  first at or after its wrap) is delegated, and the switch listener
  recompiles the arrays; until then the serving table is unchanged, so
  the kernels keep playing it;
* a degraded core (corrupt table) -> that core's rescheds delegated to
  the round-robin path while healthy cores keep playing the table;
* quarantined vCPUs are honored inline (shared dict reads).

Schedulers other than the plain ``TableauScheduler`` return no array
program at all, in which case :class:`ArrayMachine` behaves exactly
like :class:`~repro.sim.machine.Machine`.
"""

from __future__ import annotations

from array import array
from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.hotpath import hotpath
from repro.sim.engine import EventHandle
from repro.sim.machine import Machine, _Cpu
from repro.sim.overheads import CONTEXT_SWITCH_NS, IPI_WIRE_NS
from repro.sim.tracing import (
    OP_MIGRATE,
    OP_SCHEDULE,
    OP_WAKEUP,
    DispatchRecord,
    Tracer,
)
from repro.sim.vm import VCpu, VCpuState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.schedulers.tableau import TableauScheduler

#: Engine backend names accepted by the scenario/campaign/CLI seams.
ENGINES = ("object", "array")


class ArrayTracer(Tracer):
    """Tracer with a columnar (SoA) dispatch log.

    Dispatch records are stored as parallel columns — ``array('q')`` for
    time/cpu/level plus a list of vCPU names — and materialized into
    :class:`~repro.sim.tracing.DispatchRecord` objects only when
    :attr:`dispatches` is read.  The hot loop appends four scalars per
    decision instead of constructing an object; every observable
    (records, listeners, stats) is identical to :class:`Tracer`.
    """

    def __init__(
        self, keep_samples: bool = False, keep_dispatches: bool = False
    ) -> None:
        self.dispatch_times: array = array("q")
        self.dispatch_cpus: array = array("q")
        self.dispatch_levels: array = array("q")
        self.dispatch_vcpus: List[Optional[str]] = []
        self._dispatch_cache: Optional[List[DispatchRecord]] = None
        super().__init__(keep_samples=keep_samples, keep_dispatches=keep_dispatches)

    @property
    def dispatches(self) -> List[DispatchRecord]:  # type: ignore[override]
        cache = self._dispatch_cache
        if cache is None or len(cache) != len(self.dispatch_times):
            cache = [
                DispatchRecord(time, cpu, vcpu, level)
                for time, cpu, vcpu, level in zip(
                    self.dispatch_times,
                    self.dispatch_cpus,
                    self.dispatch_vcpus,
                    self.dispatch_levels,
                )
            ]
            self._dispatch_cache = cache
        return cache

    @dispatches.setter
    def dispatches(self, records: List[DispatchRecord]) -> None:
        # Tracer.__init__ assigns ``self.dispatches = []``; resetting the
        # columns keeps that contract without storing an object list.
        self.dispatch_times = array("q")
        self.dispatch_cpus = array("q")
        self.dispatch_levels = array("q")
        self.dispatch_vcpus = []
        self._dispatch_cache = None
        for record in records:
            self.dispatch_times.append(record.time)
            self.dispatch_cpus.append(record.cpu)
            self.dispatch_vcpus.append(record.vcpu)
            self.dispatch_levels.append(record.level)

    def record_dispatch(
        self, time: int, cpu: int, vcpu: Optional[str], level: int
    ) -> None:
        if self.keep_dispatches:
            self.dispatch_times.append(time)
            self.dispatch_cpus.append(cpu)
            self.dispatch_vcpus.append(vcpu)
            self.dispatch_levels.append(level)
        if self.dispatch_listeners:
            for listener in self.dispatch_listeners:
                listener(time, cpu, vcpu, level)


# ----------------------------------------------------------------------
# Kernel factories (cold: run once per program build)
# ----------------------------------------------------------------------
#
# Each factory returns one argument-bound function.  Everything the
# kernel needs is frozen as a default argument (a LOAD_FAST at run
# time); state that a table switch may *replace* (the L2 map, the home
# maps, the cycle length) is read through ``program``, and state a
# switch *refills* (the segment columns, the cursors) is reached through
# container objects whose identity never changes — so kernels captured
# by events already in the heap stay valid across recompiles.


def _compile_resched(program: "TableauArrayProgram", cpu: _Cpu) -> Callable[[], None]:
    """Build the fused dispatch-decision kernel for one core.

    Replicates ``Machine._do_resched`` + ``TableauScheduler.pick_next``
    + ``post_schedule`` + ``Machine._arm_event`` with identical
    observable effects (event times, seq consumption, trace records,
    shared-state mutation order).
    """
    machine = program.machine
    if program._slow_resched:
        # Clock skew / timer jitter bends every decision on this
        # machine: the object path *is* the kernel.
        return partial(machine._do_resched, cpu)
    tracer = program._tracer

    @hotpath
    def resched_kernel(
        program=program,
        cpu=cpu,
        index=cpu.index,
        sched=program.sched,
        machine=machine,
        do_resched=machine._do_resched,
        engine=program.engine,
        heap=program.engine._heap,
        last_pick=program._last_pick,
        quarantined=program._quarantined,
        degraded=program._degraded,
        scratch=program._scratch,
        seg_ends=program.seg_ends,
        seg_vcpu=program.seg_vcpu,
        seg_cursor=program.seg_cursor,
        seg_base=program.seg_base,
        l2_state_factory=program.l2_state_factory,
        pick_cost=program._pick_cost,
        migrate_cost=program._migrate_cost,
        l2_scan=program.l2_scan,
        l2_min=program.l2_min_budget,
        l2_epoch=program._l2_epoch,
        l2_slice=program._l2_slice,
        work_conserving=program._work_conserving,
        tracer=tracer,
        ssched=program._ssched,
        smig=program._smig,
        tracer_is_array=program._tracer_is_array,
        record_dispatch=program._record_dispatch,
        blocked=VCpuState.BLOCKED,
        running=VCpuState.RUNNING,
        runnable=VCpuState.RUNNABLE,
        event_handle=EventHandle,
        heap_push=heappush,
        context_switch_ns=CONTEXT_SWITCH_NS,
        ipi_wire_ns=IPI_WIRE_NS,
        op_schedule=OP_SCHEDULE,
        op_migrate=OP_MIGRATE,
    ):
        now = engine.now
        # A staged table changes nothing until its activation wrap
        # (``pick_next`` only calls ``_maybe_switch``), so the kernel plays
        # the serving table through the staged window and delegates the
        # resched that is due to switch.  This is ``_maybe_switch``'s own
        # test; it relies on ``program.length_ns`` being the serving
        # table's length, which every compile (build, each switch) sets.
        if (
            sched._pending_table is not None
            and now // program.length_ns >= sched._pending_cycle
        ) or (degraded and index in degraded):
            do_resched(cpu)
            return
        handle = cpu.resched
        if handle is not None:
            if not handle._dead:
                handle._dead = True
                engine._live -= 1
            cpu.resched = None
        # -- inline Machine._sync_current ------------------------------
        prev = cpu.current
        if prev is not None:
            handle = cpu.event
            if handle is not None:
                if not handle._dead:
                    handle._dead = True
                    engine._live -= 1
                cpu.event = None
            consumed = now - cpu.run_start
            if consumed > 0:
                remaining = prev.remaining_burst
                if consumed > remaining:
                    consumed = remaining
                prev.remaining_burst = remaining - consumed
                prev.runtime_ns += consumed
                cpu.busy_ns += consumed
            cpu.run_start = now
        # -- inline pick_next: settle the previous L2 pick -------------
        l2 = program._l2
        last = last_pick.get(index)
        if last is not None and last[2] == 2:
            prev_vcpu = last[0]
            state = l2.get(index)
            if state is None:
                state = l2[index] = l2_state_factory()
            consumed = prev_vcpu.runtime_ns - last[1]
            if consumed > 0:
                budgets = state.budgets
                name = prev_vcpu.name
                remaining = budgets.get(name, 0) - consumed
                budgets[name] = remaining if remaining > 0 else 0
        # -- inline pick_next: table playback (batch advance) ----------
        cost = pick_cost
        chosen = None
        level = 1
        ends = seg_ends[index]
        if ends is None:
            # Core without a table: idle, re-pick only on external events.
            qend = None
        else:
            base = seg_base[index]
            offset = now - base
            length = program.length_ns
            if offset >= length:
                skip = offset // length
                base += skip * length
                offset -= skip * length
                seg_base[index] = base
                cursor = 0
            else:
                cursor = seg_cursor[index]
            while offset >= ends[cursor]:
                cursor += 1
            seg_cursor[index] = cursor
            boundary = base + ends[cursor]
            owner = seg_vcpu[index][cursor]
            qend = boundary
            if (
                owner is not None
                and owner.state is not blocked
                and (not quarantined or owner.name not in quarantined)
            ):
                owner_pcpu = owner.pcpu
                if owner_pcpu is not None and owner_pcpu != index:
                    # Scheduled elsewhere (split-allocation race):
                    # register for an IPI, fall through to the L2.
                    owner.sched_data["tableau.waiter"] = index
                else:
                    chosen = owner
                    last_pick[index] = (owner, owner.runtime_ns, 1)
            if chosen is None:
                # -- inline _l2_pick (split policy "none") -------------
                if work_conserving:
                    state = l2.get(index)
                    if state is not None:
                        members = state.members
                        budgets = state.budgets
                        bget = budgets.get
                        candidates = scratch
                        del candidates[:]
                        any_replenished = False
                        # Single pass: collect candidates and track the
                        # (budget, name)-max simultaneously; pre-replenish
                        # budgets are exactly what the two-pass object
                        # algorithm scans when no replenish happens.
                        best = None
                        best_budget = 0
                        for vcpu in members:
                            vcpu_pcpu = vcpu.pcpu
                            if (
                                vcpu.state is not blocked
                                and (vcpu_pcpu is None or vcpu_pcpu == index)
                                and (
                                    not quarantined
                                    or vcpu.name not in quarantined
                                )
                            ):
                                candidates.append(vcpu)
                                budget = bget(vcpu.name, 0)
                                if budget >= l2_min:
                                    any_replenished = True
                                if (
                                    best is None
                                    or budget > best_budget
                                    or (
                                        budget == best_budget
                                        and vcpu.name > best.name
                                    )
                                ):
                                    best = vcpu
                                    best_budget = budget
                        if best is not None:
                            if not any_replenished:
                                # Replenish: equal shares, so the best
                                # becomes the lexicographically greatest
                                # candidate (the object path's tie-break).
                                share = l2_epoch // len(candidates)
                                best = None
                                for vcpu in candidates:
                                    budgets[vcpu.name] = share
                                    if best is None or vcpu.name > best.name:
                                        best = vcpu
                                best_budget = share
                            if best_budget >= l2_min:
                                chosen = best
                                level = 2
                                cost = cost + l2_scan * len(members)
                                slice_left = l2_slice
                                if best_budget < slice_left:
                                    slice_left = best_budget
                                quantum = now + slice_left
                                qend = quantum if quantum < boundary else boundary
                                last_pick[index] = (best, best.runtime_ns, 2)
                if chosen is None:
                    last_pick[index] = (None, 0, 0)
                    qend = boundary
        # -- record the schedule op (inline OpStats.add) ---------------
        keep_samples = tracer.keep_samples
        stats = ssched
        stats.count += 1
        stats.total_ns += cost
        if cost > stats.max_ns:
            stats.max_ns = cost
        if keep_samples:
            tracer.samples[op_schedule].append((now, index, cost))
        # -- inline post_schedule --------------------------------------
        mcost = migrate_cost
        if prev is not None and prev is not chosen:
            waiter = prev.sched_data.pop("tableau.waiter", None)
            if waiter is not None:
                mcost = mcost + machine.costs.ipi()
                machine.send_resched_ipi(int(waiter), delay=ipi_wire_ns)
        stats = smig
        stats.count += 1
        stats.total_ns += mcost
        if mcost > stats.max_ns:
            stats.max_ns = mcost
        if keep_samples:
            tracer.samples[op_migrate].append((now, index, mcost))
        overhead = cost + mcost
        cpu.overhead_ns += int(overhead)
        # -- context switch bookkeeping --------------------------------
        switching = chosen is not prev
        if prev is not None and switching:
            prev.pcpu = None
            if prev.state is running:
                prev.state = runnable
            prev.workload.on_deschedule(now)
        cpu.quantum_end = qend
        if chosen is None:
            cpu.current = None
            # -- inline _arm_event (idle core) -------------------------
            handle = cpu.event
            if handle is not None:
                if not handle._dead:
                    handle._dead = True
                    engine._live -= 1
                cpu.event = None
            if qend is not None:
                when = qend if qend > now else now
                seq = engine._seq
                engine._seq = seq + 1
                handle = event_handle(when, seq, cpu.event_cb, engine)
                heap_push(heap, (when, seq, handle))
                engine._live += 1
                cpu.event = handle
            return
        dispatch_at = now + int(overhead)
        if switching:
            dispatch_at += context_switch_ns
            tracer.context_switches += 1
            if chosen.last_cpu != index:
                tracer.migrations += 1
            chosen.dispatch_count += 1
        cpu.current = chosen
        chosen.state = running
        chosen.pcpu = index
        chosen.last_cpu = index
        cpu.run_start = dispatch_at
        name = chosen.name
        if tracer_is_array:
            # Columnar append, re-reading the columns from the tracer so
            # a ``dispatches = []`` reset cannot leave stale references.
            if tracer.keep_dispatches:
                tracer.dispatch_times.append(now)
                tracer.dispatch_cpus.append(index)
                tracer.dispatch_vcpus.append(name)
                tracer.dispatch_levels.append(level)
            listeners = tracer.dispatch_listeners
            if listeners:
                for listener in listeners:
                    listener(now, index, name, level)
        else:
            record_dispatch(now, index, name, level)
        if switching:
            chosen.workload.on_dispatch(dispatch_at)
        # -- inline _arm_event (running core) --------------------------
        handle = cpu.event
        if handle is not None and not handle._dead:
            handle._dead = True
            engine._live -= 1
        when = cpu.run_start + chosen.remaining_burst
        if qend is not None:
            clamped = qend if qend > now else now
            if clamped < when:
                when = clamped
        seq = engine._seq
        engine._seq = seq + 1
        handle = event_handle(when, seq, cpu.event_cb, engine)
        heap_push(heap, (when, seq, handle))
        engine._live += 1
        cpu.event = handle

    return resched_kernel


def _compile_cpu_event(
    program: "TableauArrayProgram", cpu: _Cpu, resched_k: Callable[[], None]
) -> Callable[[], None]:
    """Build the fused core-timer kernel for one core.

    Replicates ``Machine._on_cpu_event`` + ``Machine._complete_burst``
    (sans the stuck-guest consult, which compiles to the object path
    when that fault site is armed).
    """
    machine = program.machine
    if program._slow_event:
        return partial(machine._on_cpu_event, cpu)

    @hotpath
    def cpu_event_kernel(
        cpu=cpu,
        engine=program.engine,
        heap=program.engine._heap,
        resched_k=resched_k,
        blocked=VCpuState.BLOCKED,
        event_handle=EventHandle,
        heap_push=heappush,
        sim_error=SimulationError,
    ):
        now = engine.now
        handle = cpu.event
        if handle is not None:
            if not handle._dead:
                handle._dead = True
                engine._live -= 1
            cpu.event = None
        vcpu = cpu.current
        if vcpu is None:
            # Idle core reached a scheduler-requested check point.
            resched_k()
            return
        remaining = vcpu.remaining_burst
        run_start = cpu.run_start
        if now < run_start + remaining:
            # Quantum expiry: preemption point.
            resched_k()
            return
        # -- inline _complete_burst ------------------------------------
        consumed = now - run_start
        if consumed > remaining:
            consumed = remaining
        vcpu.remaining_burst = remaining - consumed
        vcpu.runtime_ns += consumed
        cpu.busy_ns += consumed
        cpu.run_start = now
        vcpu.workload.on_burst_complete(now)
        remaining = vcpu.remaining_burst
        if remaining > 0:
            # More compute queued; keep running within the quantum.
            qend = cpu.quantum_end
            when = now + remaining
            if qend is not None:
                clamped = qend if qend > now else now
                if clamped < when:
                    when = clamped
            seq = engine._seq
            engine._seq = seq + 1
            handle = event_handle(when, seq, cpu.event_cb, engine)
            heap_push(heap, (when, seq, handle))
            engine._live += 1
            cpu.event = handle
        elif vcpu.state is blocked:
            # ``Scheduler.on_block`` is a no-op for the stock Tableau
            # dispatcher (the compile gate guarantees no subclass), so
            # the notification is elided here.
            vcpu.pcpu = None
            vcpu.workload.on_deschedule(now)
            cpu.current = None
            resched_k()
        else:
            raise sim_error(
                # fatal-error path, never taken by a conforming workload
                # repro: allow[hot-fstring]
                f"{vcpu.name}: workload neither queued a burst nor blocked"
            )

    return cpu_event_kernel


def _compile_wake(program: "TableauArrayProgram") -> Callable[[VCpu], None]:
    """Build the fused wakeup-delivery kernel (installed as ``machine.wake``).

    Replicates ``Machine.wake`` + ``TableauScheduler.on_wakeup`` +
    ``Machine._steal`` + ``Machine.request_resched``, using the segment
    cursors for the current-allocation probe.
    """
    tracer = program._tracer

    @hotpath
    def wake_kernel(
        vcpu,
        program=program,
        machine=program.machine,
        engine=program.engine,
        heap=program.engine._heap,
        cpus=program._cpus,
        quarantined=program._quarantined,
        seg_ends=program.seg_ends,
        seg_vcpu=program.seg_vcpu,
        seg_cursor=program.seg_cursor,
        seg_base=program.seg_base,
        wake_cost=program._wake_cost,
        work_conserving=program._work_conserving,
        ipi_faults=program._ipi_faults,
        tracer=tracer,
        swake=program._swake,
        blocked=VCpuState.BLOCKED,
        event_handle=EventHandle,
        heap_push=heappush,
        ipi_wire_ns=IPI_WIRE_NS,
        op_wakeup=OP_WAKEUP,
    ):
        now = engine.now
        if vcpu.state is not blocked:
            vcpu.workload.on_wake(now)
            return
        vcpu.workload.on_wake(now)
        if vcpu.state is blocked:
            # The workload chose to ignore the event (no burst queued).
            return
        # -- inline TableauScheduler.on_wakeup -------------------------
        cost = wake_cost
        name = vcpu.name
        processing = vcpu.last_cpu
        resched_cpu = -1
        ipi_delay = 0
        if not quarantined or name not in quarantined:
            homes = program._home_cores.get(name)
            if homes:
                length = program.length_ns
                for core in homes:
                    # Boundary scan: same cursor advance as the dispatch
                    # path (wake probes are monotonic in engine time too).
                    base = seg_base[core]
                    offset = now - base
                    if offset >= length:
                        skip = offset // length
                        base += skip * length
                        offset -= skip * length
                        seg_base[core] = base
                        cursor = 0
                    else:
                        cursor = seg_cursor[core]
                    ends = seg_ends[core]
                    while offset >= ends[cursor]:
                        cursor += 1
                    seg_cursor[core] = cursor
                    if seg_vcpu[core][cursor] is vcpu:
                        resched_cpu = core
                        ipi_delay = ipi_wire_ns
                        break
            if resched_cpu < 0 and work_conserving:
                # No current allocation: uncapped vCPUs may use an
                # idling home core.
                home = program._l2_home_by_name.get(name)
                if home is not None and cpus[home].current is None:
                    resched_cpu = home
                    ipi_delay = ipi_wire_ns
        # -- record the wakeup op (inline OpStats.add) -----------------
        stats = swake
        stats.count += 1
        stats.total_ns += cost
        if cost > stats.max_ns:
            stats.max_ns = cost
        if tracer.keep_samples:
            tracer.samples[op_wakeup].append((now, processing, cost))
        # -- inline Machine._steal on the processing core --------------
        charge = int(cost)
        proc = cpus[processing]
        proc.overhead_ns += charge
        if charge > 0 and proc.current is not None:
            handle = proc.event
            if handle is not None:
                when = handle.time + charge
                if not handle._dead:
                    handle._dead = True
                    engine._live -= 1
                proc.run_start += charge
                pqend = proc.quantum_end
                if pqend is not None and handle.time == pqend:
                    proc.quantum_end = pqend + charge
                seq = engine._seq
                engine._seq = seq + 1
                handle = event_handle(when, seq, proc.event_cb, engine)
                heap_push(heap, (when, seq, handle))
                engine._live += 1
                proc.event = handle
        if resched_cpu < 0:
            return
        delay = charge
        if resched_cpu != processing:
            if ipi_faults:
                # Cross-core notification over the faultable IPI wire.
                machine.send_resched_ipi(resched_cpu, delay=delay + ipi_delay)
                return
            delay += ipi_delay
        # -- inline Machine.request_resched (coalescing) ---------------
        target = cpus[resched_cpu]
        when = now + delay
        handle = target.resched
        if handle is not None and not handle._dead:
            if handle.time <= when:
                return
            handle._dead = True
            engine._live -= 1
        seq = engine._seq
        engine._seq = seq + 1
        handle = event_handle(when, seq, target.resched_cb, engine)
        heap_push(heap, (when, seq, handle))
        engine._live += 1
        target.resched = handle

    return wake_kernel


class TableauArrayProgram:
    """The compiled playback program for one (machine, scheduler) pair.

    Holds the flattened table columns, the per-core cursors, and direct
    references to the scheduler's *shared* mutable state (budgets, last
    picks, quarantine/degrade maps).  Sharing — never copying — that
    state is what makes mixed fused/delegated execution coherent: a
    delegated degraded-core pick and a fused table pick read and write
    the same dictionaries in the same order as a pure object run.

    Built by ``TableauScheduler.array_program``; the scheduler passes
    its second-level constants and the ``_L2State`` factory in so this
    module never imports the scheduler layer (``sim`` must stay below
    ``schedulers`` in the layering).

    Attributes:
        resched_kernels: Per-core dispatch-decision kernels (the
            machine's ``resched_cb`` targets).
        event_kernels: Per-core timer kernels (``event_cb`` targets).
        wake_kernel: The machine-wide wakeup kernel (``machine.wake``).
        compiles: Number of table compilations (1 + one per switch).
    """

    __slots__ = (
        "machine",
        "sched",
        "engine",
        "l2_scan",
        "l2_min_budget",
        "l2_state_factory",
        "_last_pick",
        "_quarantined",
        "_degraded",
        "_l2",
        "_pick_cost",
        "_wake_cost",
        "_migrate_cost",
        "_work_conserving",
        "_l2_slice",
        "_l2_epoch",
        "_cpus",
        "_tracer",
        "_tracer_is_array",
        "_ssched",
        "_smig",
        "_swake",
        "_record_dispatch",
        "_slow_resched",
        "_slow_event",
        "_ipi_faults",
        "_scratch",
        "vcpu_registry",
        "seg_ends",
        "seg_vcpu",
        "seg_cursor",
        "seg_base",
        "length_ns",
        "_home_cores",
        "_l2_home_by_name",
        "compiles",
        "resched_kernels",
        "event_kernels",
        "wake_kernel",
    )

    def __init__(
        self,
        machine: Machine,
        sched: "TableauScheduler",
        l2_scan: float,
        l2_min_budget: int,
        l2_state_factory: Callable[[], object],
    ) -> None:
        self.machine = machine
        self.sched = sched
        self.engine = machine.engine
        self.l2_scan = l2_scan
        self.l2_min_budget = l2_min_budget
        self.l2_state_factory = l2_state_factory
        # Shared scheduler state: these dicts are mutated in place by
        # both backends and never replaced (``_l2`` is replaced on table
        # switches; re-cached by the switch listener below).
        self._last_pick = sched._last_pick
        self._quarantined = sched._quarantined
        self._degraded = sched.degraded_cores
        self._l2 = sched._l2
        # Fixed scheduler configuration (entry costs are finalized in
        # ``attach``, which ran during machine construction).
        self._pick_cost = sched._pick_cost
        self._wake_cost = sched._wake_cost
        self._migrate_cost = sched._migrate_cost
        self._work_conserving = sched.work_conserving
        self._l2_slice = sched.l2_slice_ns
        self._l2_epoch = sched.l2_epoch_ns
        # Cached machine surfaces (fixed for the machine's lifetime).
        self._cpus = machine.cpus
        tracer = machine.tracer
        self._tracer = tracer
        self._tracer_is_array = isinstance(tracer, ArrayTracer)
        self._ssched = tracer.ops[OP_SCHEDULE]
        self._smig = tracer.ops[OP_MIGRATE]
        self._swake = tracer.ops[OP_WAKEUP]
        self._record_dispatch = tracer.record_dispatch
        # Whole-run fallback gates (fault wiring is fixed at machine
        # construction): when set, the matching kernels are compiled as
        # the object path.
        self._slow_resched = machine._any_skew or machine._timer_faults
        self._slow_event = machine._stuck_faults or machine._timer_faults
        self._ipi_faults = machine._ipi_faults
        # Candidate scratch for the L2 scan (reused, never reallocated;
        # safe because the scan completes before any workload hook runs).
        self._scratch: List[VCpu] = []
        #: vCPU registry: table vcpu-id -> registered VCpu (None when the
        #: table names a vCPU this machine never registered).
        self.vcpu_registry: List[Optional[VCpu]] = []
        # Stable containers: the kernels capture these list objects, so
        # recompiles must refill them in place, never replace them.
        num_cores = machine.topology.num_cores
        self.seg_ends: List[Optional[array]] = [None] * num_cores
        self.seg_vcpu: List[Optional[List[Optional[VCpu]]]] = [None] * num_cores
        self.seg_cursor: List[int] = [0] * num_cores
        self.seg_base: List[int] = [0] * num_cores
        self.length_ns = 0
        self._home_cores: Dict[str, List[int]] = {}
        self._l2_home_by_name: Dict[str, Optional[int]] = {}
        self.compiles = 0
        self._compile_table()
        # Kernels are built once; table switches refill the containers.
        self.resched_kernels: List[Callable[[], None]] = [
            _compile_resched(self, cpu) for cpu in machine.cpus
        ]
        self.event_kernels: List[Callable[[], None]] = [
            _compile_cpu_event(self, cpu, self.resched_kernels[cpu.index])
            for cpu in machine.cpus
        ]
        self.wake_kernel: Callable[[VCpu], None] = _compile_wake(self)
        sched.add_switch_listener(self._on_table_switch)

    # ------------------------------------------------------------------
    # Compilation (assembly time; not a hot path)
    # ------------------------------------------------------------------

    def _compile_table(self) -> None:
        """Flatten the active table into the per-core segment columns."""
        sched = self.sched
        table = sched.table
        vcpus = sched._vcpus
        num_cores = self.machine.topology.num_cores
        self.length_ns = table.length_ns
        columns = table.as_arrays()
        names = table.vcpu_names
        registry: List[Optional[VCpu]] = [vcpus.get(name) for name in names]
        self.vcpu_registry = registry
        seg_ends = self.seg_ends
        seg_vcpu = self.seg_vcpu
        seg_cursor = self.seg_cursor
        seg_base = self.seg_base
        for i in range(num_cores):
            seg_ends[i] = None
            seg_vcpu[i] = None
            seg_cursor[i] = 0
            seg_base[i] = 0
        for cpu_index, (_starts, ends, handles) in columns.items():
            seg_ends[cpu_index] = ends
            seg_vcpu[cpu_index] = [
                registry[handle] if handle >= 0 else None for handle in handles
            ]
        self._home_cores = table.home_cores
        self._l2 = sched._l2
        self._l2_home_by_name = {
            name: sched._l2_home(vcpu) for name, vcpu in vcpus.items()
        }
        self.compiles += 1

    def _on_table_switch(self, old, new, now: int) -> None:
        # A successful switch replaced ``sched.table`` (and rebuilt the
        # L2 membership); recompile and restart the cursors — the next
        # lookup fast-forwards to ``now`` in one division.  The kernels
        # themselves are untouched: they reach this state through the
        # program and the stable containers.
        self._compile_table()

    # ------------------------------------------------------------------
    # Method façade (cold; tests and interactive use)
    # ------------------------------------------------------------------

    def resched(self, cpu: _Cpu) -> None:
        """Run the dispatch-decision kernel for ``cpu``."""
        self.resched_kernels[cpu.index]()

    def cpu_event(self, cpu: _Cpu) -> None:
        """Run the core-timer kernel for ``cpu``."""
        self.event_kernels[cpu.index]()

    def wake(self, vcpu: VCpu) -> None:
        """Run the wakeup kernel for ``vcpu``."""
        self.wake_kernel(vcpu)


class ArrayMachine(Machine):
    """A :class:`Machine` with the array dispatch backend installed.

    Construction is identical to :class:`Machine`.  At the first
    :meth:`run` the scheduler is asked for a compiled array program
    (``scheduler.array_program(self)``); when one is available the
    per-core dispatch callbacks and the wake entry point are rebound to
    its compiled kernels.  Schedulers without a program — and every
    condition a program does not cover — use the inherited object
    paths, so behavior is bit-identical to the object backend in all
    cases.
    """

    engine_name = "array"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.program: Optional[TableauArrayProgram] = None

    def run(self, duration_ns: int) -> None:
        if not self._started and self.program is None:
            program = self.scheduler.array_program(self)
            if program is not None:
                self.program = program
                for cpu in self.cpus:
                    cpu.resched_cb = program.resched_kernels[cpu.index]
                    cpu.event_cb = program.event_kernels[cpu.index]
                # Instance attribute shadows the class method: every
                # wake (workloads, probes, external clients) goes
                # through the compiled kernel.
                self.wake = program.wake_kernel
        super().run(duration_ns)
