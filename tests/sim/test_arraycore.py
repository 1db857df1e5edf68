"""Differential backend suite: the array engine is bit-identical.

The array dispatch backend (``repro.sim.arraycore``) is a pure
performance substitution — ISSUE 6's acceptance bar is that every
observable simulation output matches the object engine *bit for bit*:
trace fingerprints, event counts, per-vCPU utilization, and overhead
accounting.  This suite sweeps the scheduler x seed grid fault-free,
then the regimes where the array engine must *fall back* per call
rather than diverge: the full chaos runtime preset (skew and timer
faults, lost/delayed IPIs, stuck guests) and health-supervised
degraded-mode dispatch after a corrupted table switch; and tables
pushed by the planner daemon and switched live, where only the
activating resched may leave the compiled kernels.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from repro.core.params import MS, make_vm
from repro.core.periods import HYPERPERIOD_NS
from repro.core.planner import Planner
from repro.experiments.scenarios import build_scenario
from repro.faults.plan import (
    SITE_ACTIVATION,
    SITE_IPI_LOST,
    SITE_TABLE_SWITCH,
    FaultPlan,
    FaultSpec,
    runtime_preset,
)
from repro.health import run_chaos
from repro.schedulers import TableauScheduler
from repro.sim import VCpu
from repro.sim.arraycore import ENGINES, ArrayMachine, ArrayTracer
from repro.sim.machine import Machine
from repro.sim.tracing import Tracer
from repro.topology import uniform
from repro.workloads import IoLoop
from repro.xen.daemon import PlannerDaemon
from repro.xen.hypercall import TableHypercall

SCHEDULERS = ("tableau", "credit", "credit2", "rtds")
SEEDS = (42, 43, 101)


def trace_fingerprint(tracer):
    """Order-sensitive digest of the full dispatch trace."""
    digest = hashlib.sha256()
    for record in tracer.dispatches:
        digest.update(
            f"{record.time}|{record.cpu}|{record.vcpu}|{record.level}\n".encode()
        )
    return digest.hexdigest()


def observables(machine):
    """Everything the simulation produced that experiments consume."""
    return {
        "events": machine.engine.events_processed,
        "now": machine.engine.now,
        "trace": trace_fingerprint(machine.tracer),
        "context_switches": machine.tracer.context_switches,
        "migrations": machine.tracer.migrations,
        "overhead_ns": machine.total_overhead_ns(),
        "utilization": {
            name: vcpu.runtime_ns for name, vcpu in machine.vcpus.items()
        },
    }


def run_cell(scheduler, seed, engine):
    scenario = build_scenario(
        scheduler,
        vantage_workload=IoLoop(),
        capped=(scheduler == "rtds"),
        background="io",
        topology=uniform(4),
        num_vms=8,
        seed=seed,
        tracer=Tracer(keep_dispatches=True),
        engine=engine,
    )
    scenario.run_seconds(0.02)
    return scenario


class TestFaultFreeDifferential:
    """4 schedulers x 3 seeds: identical output on both backends."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_backends_agree(self, scheduler, seed):
        obj = run_cell(scheduler, seed, "object")
        arr = run_cell(scheduler, seed, "array")
        assert isinstance(obj.machine, Machine)
        assert isinstance(arr.machine, ArrayMachine)
        assert observables(obj.machine) == observables(arr.machine)

    def test_tableau_actually_compiles_a_program(self):
        arr = run_cell("tableau", 42, "array")
        assert arr.machine.program is not None
        assert arr.machine.program.compiles >= 1

    def test_non_tableau_schedulers_fall_back_whole_hog(self):
        # Non-table schedulers have no array program; the ArrayMachine
        # seam must run them unchanged rather than refuse.
        for scheduler in ("credit", "credit2", "rtds"):
            arr = run_cell(scheduler, 42, "array")
            assert arr.machine.program is None
            assert arr.machine.engine.events_processed > 0


class TestFaultedDifferential:
    """The fallback regimes: faults and degradation must not diverge."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_preset_backends_agree(self, seed):
        runs = {
            engine: run_chaos(
                runtime_preset("chaos", seed=seed),
                seconds=0.05,
                seed=seed,
                engine=engine,
            )
            for engine in ENGINES
        }
        assert observables(runs["object"].machine) == observables(
            runs["array"].machine
        )
        assert runs["object"].injected_by_site == runs["array"].injected_by_site
        assert runs["object"].health_report == runs["array"].health_report
        assert runs["array"].audit_clean

    def test_degraded_mode_backends_agree(self):
        # One core's table corrupts mid-activation and a dead IPI wire
        # rides along (the ISSUE 3 survival scenario): the degraded core
        # serves round-robin through the object path while healthy cores
        # keep playing arrays, then recovery restores table dispatch.
        def corruption_plan():
            return FaultPlan(
                seed=3,
                specs=[
                    FaultSpec(
                        site=SITE_TABLE_SWITCH, calls=(1,), cpu=4, corrupt=True
                    ),
                    FaultSpec(
                        site=SITE_IPI_LOST,
                        key="cpu4",
                        probability=1.0,
                        persistent_from=1,
                    ),
                ],
            )

        runs = {
            engine: run_chaos(
                corruption_plan(), seconds=0.5, seed=3, engine=engine
            )
            for engine in ENGINES
        }
        # The scenario genuinely exercised degraded dispatch + recovery.
        assert runs["array"].scheduler.degraded_picks > 0
        assert runs["array"].scheduler.degraded_cores == {}
        assert runs["array"].audit_clean
        assert observables(runs["object"].machine) == observables(
            runs["array"].machine
        )
        assert runs["object"].health_report == runs["array"].health_report

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stuck_guest_quarantine_backends_agree(self, seed):
        # Stuck vCPUs route through the quarantine fallback gate.
        runs = {
            engine: run_chaos(
                runtime_preset("stuck-vcpu", seed=seed),
                seconds=0.05,
                seed=seed,
                engine=engine,
            )
            for engine in ENGINES
        }
        assert runs["array"].health_report["quarantines"]
        assert observables(runs["object"].machine) == observables(
            runs["array"].machine
        )
        assert runs["object"].health_report == runs["array"].health_report


#: Every third table round one VM is removed or restored, so each push
#: stays staged for one round of three (two with an activation delay).
CHANGE_EVERY_ROUNDS = 3


@lru_cache(maxsize=None)
def live_switch_run(engine, seed, case):
    """A small ``dispatch``-like run with tables switching live.

    Twelve ``IoLoop`` VMs on four cores, even ones capped and odd ones
    uncapped (so second-level budgets carry across switches).  Every
    ``CHANGE_EVERY_ROUNDS`` table rounds the population saws one VM down
    (12 to 10) or back up, chosen by ``random.Random(seed)``, and the
    daemon replans through a ``TableHypercall``, which moves home cores.
    ``case`` adds one disturbance to the switch window:

    * ``"activation-delay"``: the 2nd and 5th pushes activate a round late;
    * ``"switch-failure"``: the 3rd activation fails (no corruption), so
      that table never serves;
    * ``"double-push"``: after the 3rd change, a 4th follows a quarter
      round later, overwriting the staged table before its wrap;
    * ``"length-change"``: the 3rd change pushes a table planned on twice
      the table length, so the window after it is counted in longer
      rounds until the next push brings the old length back.

    Returns what both engines must agree on, plus the number of
    rescheds that took the object path (``Machine._do_resched``).
    """
    specs = {}
    for i in range(12):
        capped = i % 2 == 0
        name = f"vm{i:02d}"
        specs[name] = make_vm(
            name, 0.25 if capped else 0.2, (20 if capped else 30) * MS, capped=capped
        )
    present = sorted(specs)
    rng = random.Random(seed)
    topology = uniform(4)
    daemon = PlannerDaemon(topology)
    boot = daemon.replan([specs[name] for name in present], reason="boot")
    switch_faults = None
    if case == "switch-failure":
        switch_faults = FaultPlan(
            seed=seed, specs=[FaultSpec(site=SITE_TABLE_SWITCH, calls=(3,))]
        )
    scheduler = TableauScheduler(boot.table, faults=switch_faults)
    machine_cls = ArrayMachine if engine == "array" else Machine
    machine = machine_cls(
        topology, scheduler, seed=seed, tracer=Tracer(keep_dispatches=True)
    )
    for i, name in enumerate(present):
        machine.add_vcpu(VCpu(f"{name}.vcpu0", IoLoop(), capped=i % 2 == 0))
    push_faults = None
    if case == "activation-delay":
        push_faults = FaultPlan(
            seed=seed,
            specs=[FaultSpec(site=SITE_ACTIVATION, calls=(2, 5), delay_cycles=1)],
        )
    hypercall = TableHypercall(scheduler, faults=push_faults)
    daemon.hypercall = hypercall
    served_lengths = []
    scheduler.add_switch_listener(
        lambda old, new, now: served_lengths.append(new.length_ns)
    )
    object_rescheds = 0
    do_resched = machine._do_resched

    def counted_resched(cpu):
        nonlocal object_rescheds
        object_rescheds += 1
        do_resched(cpu)

    # The array program binds this attribute when it compiles (first run).
    machine._do_resched = counted_resched
    falling = True
    length = boot.table.length_ns

    def change():
        nonlocal present, falling
        if len(present) == 12:
            falling = True
        elif len(present) == 10:
            falling = False
        if falling:
            present.remove(rng.choice(present))
        else:
            absent = sorted(set(specs) - set(present))
            present = sorted(present + [rng.choice(absent)])
        census = [specs[name] for name in present]
        if case == "length-change" and len(hypercall.pushes) == 2:
            planner = Planner(topology, hyperperiod_ns=2 * length)
            hypercall.push_system_table(planner.plan(census).table)
        else:
            daemon.replan(census, reason="change")
        if case == "double-push" and len(hypercall.pushes) == 3:
            machine.engine.after(length // 4, change)

    machine.engine.every(CHANGE_EVERY_ROUNDS * length, change)
    machine.run(30 * length)
    return {
        "observables": observables(machine),
        "switches": scheduler.table_switches,
        "activations": hypercall.activations,
        "failed_activations": hypercall.failed_activations,
        "retired_unactivated": hypercall.retired_unactivated,
        "delayed_pushes": sum(1 for push in hypercall.pushes if push.delayed_cycles),
        "served_lengths": served_lengths,
        "dispatch_counts": {
            name: vcpu.dispatch_count for name, vcpu in machine.vcpus.items()
        },
    }, object_rescheds


LIVE_SWITCH_CASES = [
    ("none", 1),
    ("none", 2),
    ("none", 3),
    ("activation-delay", 1),
    ("switch-failure", 1),
    ("double-push", 1),
    ("length-change", 1),
]


class TestLiveTableSwitches:
    """Tables pushed and switched mid-run: both engines agree, and the
    array engine leaves its kernels only for the activating resched."""

    @pytest.mark.parametrize("case, seed", LIVE_SWITCH_CASES)
    def test_backends_agree_across_switches(self, case, seed):
        obj, _ = live_switch_run("object", seed, case)
        arr, _ = live_switch_run("array", seed, case)
        assert arr["switches"] >= 8
        assert obj == arr
        if case == "activation-delay":
            assert arr["delayed_pushes"] == 2
        if case == "switch-failure":
            assert arr["failed_activations"] == 1
        if case == "double-push":
            assert arr["retired_unactivated"] == 1
        if case == "length-change":
            assert set(arr["served_lengths"]) == {HYPERPERIOD_NS, 2 * HYPERPERIOD_NS}

    @pytest.mark.parametrize("case, seed", LIVE_SWITCH_CASES)
    def test_staged_window_stays_compiled(self, case, seed):
        # Only the resched at or after a staged table's wrap (which
        # switches it, or fails to) runs on the object path.
        arr, object_rescheds = live_switch_run("array", seed, case)
        assert object_rescheds == arr["switches"] + arr["failed_activations"]


class TestArrayTracer:
    """The columnar tracer is a drop-in for trace consumers."""

    def test_columnar_dispatch_log_matches_object_records(self):
        obj = build_scenario(
            "tableau",
            vantage_workload=IoLoop(),
            capped=False,
            topology=uniform(4),
            num_vms=8,
            seed=42,
            tracer=Tracer(keep_dispatches=True),
            engine="object",
        )
        arr = build_scenario(
            "tableau",
            vantage_workload=IoLoop(),
            capped=False,
            topology=uniform(4),
            num_vms=8,
            seed=42,
            tracer=ArrayTracer(keep_dispatches=True),
            engine="array",
        )
        obj.run_seconds(0.02)
        arr.run_seconds(0.02)
        assert trace_fingerprint(obj.machine.tracer) == trace_fingerprint(
            arr.machine.tracer
        )
        assert len(arr.machine.tracer.dispatches) == len(
            obj.machine.tracer.dispatches
        )


class TestPlainTracer:
    """A plain :class:`Tracer` on the array engine: a dispatch listener
    that joins after the kernels were compiled is heard, as on the object
    engine, and a tracer whose ``record_dispatch`` is overridden is
    called."""

    @staticmethod
    def scenario(engine, tracer):
        return build_scenario(
            "tableau",
            vantage_workload=IoLoop(),
            capped=False,
            topology=uniform(4),
            num_vms=8,
            seed=42,
            tracer=tracer,
            engine=engine,
        )

    def test_listener_added_between_runs_hears_every_later_dispatch(self):
        heard = {}
        for engine in ENGINES:
            scenario = self.scenario(engine, Tracer())
            scenario.run_seconds(0.01)
            log = heard[engine] = []
            scenario.machine.tracer.dispatch_listeners.append(
                lambda *record, log=log: log.append(record)
            )
            scenario.run_seconds(0.01)
            assert not scenario.machine.tracer.dispatches
        assert heard["array"] and heard["array"] == heard["object"]

    def test_overridden_record_dispatch_is_called(self):
        class Counting(Tracer):
            def record_dispatch(self, time, cpu, vcpu, level):
                self.calls = getattr(self, "calls", 0) + 1
                super().record_dispatch(time, cpu, vcpu, level)

        obj = self.scenario("object", Counting(keep_dispatches=True))
        arr = self.scenario("array", Counting(keep_dispatches=True))
        obj.run_seconds(0.02)
        arr.run_seconds(0.02)
        assert arr.machine.tracer.calls == obj.machine.tracer.calls > 0
        assert arr.machine.tracer.dispatches == obj.machine.tracer.dispatches
