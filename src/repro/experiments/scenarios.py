"""Scenario builders for the paper's evaluation matrix (Sec. 7.2).

Every experiment in the paper shares one setup: four single-vCPU VMs
per guest core at 25% utilization each, a 20 ms latency goal for
Tableau (matching Credit's effective replenishment cadence with a 5 ms
timeslice), RTDS configured with the same (budget, period) the Tableau
planner derives, and a distinguished *vantage VM* that receives no
special treatment.  Scenarios vary along three axes:

* scheduler: tableau | credit | credit2 | rtds,
* capping: capped (hard reservation) vs uncapped (spare cycles allowed),
* background: none | io | cpu (stress-like workloads in all other VMs).

This module turns that matrix into ready-to-run :class:`Machine`
instances so tests, benchmarks, and examples stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core import MS, Planner, PlanResult, make_vm
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults import FaultPlan
from repro.schedulers import (
    Credit2Scheduler,
    CreditScheduler,
    RtdsScheduler,
    Scheduler,
    TableauScheduler,
)
from repro.sim import ENGINES, ArrayMachine, Machine, Tracer, VCpu, Workload
from repro.topology import Topology, xeon_16core
from repro.workloads import CpuHog, IoLoop

SCHEDULERS = ("tableau", "credit", "credit2", "rtds")
BACKGROUNDS = ("none", "io", "cpu")

#: The evaluation's per-VM parameters.
VM_UTILIZATION = 0.25
VM_LATENCY_NS = 20 * MS
VMS_PER_CORE = 4


@dataclass
class Scenario:
    """A fully assembled experiment: machine, vantage vCPU, plan.

    Attributes:
        machine: Ready to ``run()``.
        vantage: The measured vCPU (``vm00.vcpu0``).
        plan: The Tableau plan for this VM census (available for all
            schedulers, since RTDS borrows its parameters).
        scheduler_name: Which policy is installed.
    """

    machine: Machine
    vantage: VCpu
    plan: PlanResult
    scheduler_name: str
    capped: bool
    background: str
    engine: str = "object"

    def run_seconds(self, seconds: float) -> None:
        self.machine.run(int(seconds * 1e9))


#: Process-local memo for :func:`plan_for`.  Every scenario builder and
#: benchmark funnels through ``plan_for``; before this memo each call
#: re-planned an identical ``(topology, num_vms, capped)`` census from
#: scratch.  Keyed by every input of ``plan_for`` — ``(topology,
#: num_vms, capped, latency_ns)``, the topology being a frozen
#: dataclass — so a hit is the plan the same call would generate.
_PLAN_MEMO: Dict[Tuple[Topology, int, bool, int], PlanResult] = {}

#: Cumulative memo hits (exposed for tests and campaign stats).
plan_for_cache_hits = 0


def reset_plan_memo() -> None:
    """Drop the process-local plan memo (bench/test hook).

    The perf harness uses this to emulate the pre-cache execution path,
    where every experiment re-planned its census from scratch.
    """
    _PLAN_MEMO.clear()


def plan_for(
    topology: Topology,
    num_vms: int,
    capped: bool,
    latency_ns: int = VM_LATENCY_NS,
) -> PlanResult:
    """The Tableau plan for the paper's uniform high-density census.

    Identical requests are served from a process-local memo.  The
    returned plan's ``stats.plan_cache_hit`` records whether planning
    work was skipped: a memo hit is a copy of the memoized plan that
    shares its table, tasks and assignment but has its own stats
    (``plan_cache_hit``, with a ``generation_seconds`` of 0.0), so the
    plan the planning call returned keeps its own.  ``latency_ns``
    tightens or relaxes every VM's latency goal (the paper's default is
    20 ms; Fig. 3's hardest curve uses 1 ms).
    """
    global plan_for_cache_hits
    key = (topology, num_vms, capped, latency_ns)
    memoized = _PLAN_MEMO.get(key)
    if memoized is not None:
        plan_for_cache_hits += 1
        stats = memoized.stats
        return replace(
            memoized,
            stats=replace(
                stats,
                generation_seconds=0.0,
                cluster_cores=list(stats.cluster_cores),
                compensated_vcpus=list(stats.compensated_vcpus),
                plan_cache_hit=True,
            ),
        )
    vms = [
        make_vm(f"vm{i:02d}", VM_UTILIZATION, latency_ns, capped=capped)
        for i in range(num_vms)
    ]
    result = Planner(topology).plan(vms)
    _PLAN_MEMO[key] = result
    return result


def make_scheduler(
    name: str,
    plan: PlanResult,
    capped: bool,
    topology: Topology,
) -> Scheduler:
    """Instantiate a scheduler configured exactly as in Sec. 7.2."""
    if name == "tableau":
        return TableauScheduler(plan.table)
    if name == "credit":
        caps = (
            {vcpu: VM_UTILIZATION for vcpu in plan.vcpus} if capped else None
        )
        return CreditScheduler(caps=caps)
    if name == "credit2":
        if capped:
            raise ConfigurationError(
                "Credit2 has no cap mechanism (the paper evaluates it "
                "only in uncapped scenarios)"
            )
        return Credit2Scheduler()
    if name == "rtds":
        if not capped:
            raise ConfigurationError(
                "RTDS enforces budgets strictly (capped-only in the paper)"
            )
        return RtdsScheduler(
            {name_: (t.cost, t.period) for name_, t in plan.tasks.items()}
        )
    raise ConfigurationError(f"unknown scheduler {name!r}")


def background_workload(kind: str, rng_hint: int) -> Workload:
    """One background VM's workload: stress-like I/O or cache thrash."""
    if kind == "io":
        return IoLoop()
    if kind == "cpu":
        return CpuHog()
    if kind == "none":
        # Even "idle" VMs occasionally need CPU for system processes
        # (Sec. 7.3 uses this to explain Credit's capped-idle latency);
        # a sparse I/O loop models housekeeping timers.
        return IoLoop(compute_ns=100_000, io_ns=50_000_000, jitter=0.5)
    raise ConfigurationError(f"unknown background {kind!r}")


def build_scenario(
    scheduler: str,
    vantage_workload: Workload,
    capped: bool = True,
    background: str = "io",
    topology: Optional[Topology] = None,
    num_vms: Optional[int] = None,
    seed: int = 42,
    tracer: Optional[Tracer] = None,
    plan: Optional[PlanResult] = None,
    faults: Optional["FaultPlan"] = None,
    latency_ns: int = VM_LATENCY_NS,
    engine: str = "object",
) -> Scenario:
    """Assemble one cell of the evaluation matrix.

    Args:
        scheduler: One of :data:`SCHEDULERS`.
        vantage_workload: The measured workload, installed in
            ``vm00.vcpu0`` (the vantage VM).
        capped: Whether VMs are held to their reservations.
        background: Workload of the other VMs (:data:`BACKGROUNDS`).
        topology: Defaults to the paper's 16-core machine.
        num_vms: Defaults to four per guest core.
        seed: Simulation RNG seed.
        tracer: Optional tracer (e.g., with dispatch records enabled).
        plan: Reuse a previously computed plan for this census.
        faults: Optional runtime fault plan armed on the machine
            (campaign fault/health-preset cells).
        latency_ns: Per-VM latency goal for the generated plan
            (ignored when ``plan`` is given).
        engine: Dispatch backend, one of :data:`repro.sim.ENGINES` —
            ``"object"`` (default) or ``"array"`` (batched table
            playback; bit-identical traces, higher events/s).
    """
    if scheduler not in SCHEDULERS:
        raise ConfigurationError(f"unknown scheduler {scheduler!r}")
    if background not in BACKGROUNDS:
        raise ConfigurationError(f"unknown background {background!r}")
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}")
    topo = topology if topology is not None else xeon_16core()
    count = num_vms if num_vms is not None else VMS_PER_CORE * len(topo.guest_cores)
    if plan is None:
        plan = plan_for(topo, count, capped, latency_ns=latency_ns)

    sched = make_scheduler(scheduler, plan, capped, topo)
    machine_cls = ArrayMachine if engine == "array" else Machine
    machine = machine_cls(topo, sched, seed=seed, tracer=tracer, faults=faults)
    vantage = machine.add_vcpu(
        VCpu("vm00.vcpu0", vantage_workload, capped=capped)
    )
    for i in range(1, count):
        machine.add_vcpu(
            VCpu(
                f"vm{i:02d}.vcpu0",
                background_workload(background, i),
                capped=capped,
            )
        )
    return Scenario(
        machine=machine,
        vantage=vantage,
        plan=plan,
        scheduler_name=scheduler,
        capped=capped,
        background=background,
        engine=engine,
    )


def schedulers_for(capped: bool) -> List[str]:
    """The schedulers the paper compares in a given capping mode.

    Capped: Credit, RTDS, Tableau.  Uncapped: Credit, Credit2, Tableau.
    """
    return ["credit", "rtds", "tableau"] if capped else ["credit", "credit2", "tableau"]
