"""Hot-path microbenchmarks: dispatch-loop events/sec and planner plans/sec.

This module is the repo's perf-regression yardstick.  It drives the two
paths every experiment funnels through — the discrete-event dispatch
loop (``SimEngine`` + ``Machine`` + ``TableauScheduler``) and the
planner's table-(re)generation pipeline — and reports throughput plus a
determinism fingerprint, so an optimization can prove both that it is
faster and that it changed no simulated behavior.  It also times the
push path between them: delta transport, and the full-push decode with
and without the decoder's cache of accepted core blocks.

Run directly to (re)generate ``BENCH_hotpath.json`` at the repo root::

    PYTHONPATH=src python benchmarks/hotpath.py

The JSON records a frozen "before" baseline (measured at the seed
commit, on the reference container) next to freshly measured "after"
numbers; `benchmarks/test_perf_hotpath.py` runs scaled-down versions of
the same loops as a smoke check.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import MS, CensusDelta, Planner, make_vm, serialize
from repro.core.serialize import _DECODED, clear_decode_cache, deserialize
from repro.core.table import SystemTable
from repro.experiments.scenarios import build_scenario
from repro.schedulers import TableauScheduler
from repro.sim import ArrayTracer, Tracer
from repro.topology import uniform, xeon_16core, xeon_48core
from repro.workloads import IoLoop
from repro.xen.daemon import PlannerDaemon
from repro.xen.hypercall import TableHypercall

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_hotpath.json"

#: Frozen baseline, measured at the growth seed (commit 91162aa) on the
#: reference container with the workloads below, interleaved with
#: current-tree runs to cancel machine-load drift.  The events count is
#: the number of executed simulation events, which is exact: same-seed
#: simulations are bit-identical across versions, so the seed processed
#: the same 38,188 events.  Wall seconds are medians over 12 runs.
SEED_BASELINE = {
    "dispatch": {"events": 38188, "wall_s": 0.611, "events_per_sec": 62500.0},
    "planner": {"plans": 48, "wall_s": 0.1748, "plans_per_sec": 274.6},
    "daemon_regeneration": {"plans": 8, "wall_s": 0.0358, "plans_per_sec": 223.4},
}


# ----------------------------------------------------------------------
# Dispatch loop
# ----------------------------------------------------------------------


def dispatch_scenario(seed: int = 42, health: bool = False, engine: str = "object"):
    """The benchmark machine: the paper's 16-core, 4-VMs/core I/O matrix.

    With ``health=True`` the full :mod:`repro.health` supervision layer
    (per-core watchdogs, guarantee monitor, supervisor sweep) is armed
    before the run.  On a fault-free machine it is purely observational,
    so the trace fingerprint must not change.

    ``engine="array"`` installs the batched table-playback backend (with
    its columnar dispatch log); the trace fingerprint must still not
    change — the array engine is a pure performance substitution.
    """
    tracer_cls = ArrayTracer if engine == "array" else Tracer
    tracer = tracer_cls(keep_dispatches=True)
    scenario = build_scenario(
        "tableau",
        IoLoop(),
        capped=False,
        background="io",
        seed=seed,
        tracer=tracer,
        engine=engine,
    )
    if health:
        from repro.health import HealthSupervisor

        supervisor = HealthSupervisor(scenario.machine, scenario.machine.scheduler)
        supervisor.start()
    return scenario


def trace_fingerprint(scenario) -> str:
    """SHA-256 over everything observable about a finished simulation.

    Two runs produce the same digest iff they dispatched the same vCPUs
    at the same times with the same modelled costs — the "bit-identical
    traces" bar optimizations must clear.
    """
    machine = scenario.machine
    hasher = hashlib.sha256()
    for record in machine.tracer.dispatches:
        hasher.update(
            f"{record.time},{record.cpu},{record.vcpu},{record.level};".encode()
        )
    for op, stats in sorted(machine.tracer.ops.items()):
        hasher.update(f"{op}:{stats.count}:{stats.total_ns!r}:{stats.max_ns!r};".encode())
    hasher.update(
        f"cs={machine.tracer.context_switches},mig={machine.tracer.migrations};".encode()
    )
    for name in sorted(machine.vcpus):
        vcpu = machine.vcpus[name]
        hasher.update(f"{name}={vcpu.runtime_ns},{vcpu.dispatch_count};".encode())
    hasher.update(f"now={machine.engine.now}".encode())
    return hasher.hexdigest()


def bench_dispatch(
    sim_seconds: float = 0.5,
    seed: int = 42,
    runs: int = 3,
    health: bool = False,
    engine: str = "object",
) -> Dict[str, object]:
    """Run the dispatch-loop benchmark and return throughput + fingerprint.

    The wall time is the median over ``runs`` independent simulations
    (container timing is noisy); all runs must produce the same trace
    fingerprint, which doubles as a same-seed determinism check.

    ``health=True`` arms the supervision layer.  Note that the health
    timers add engine events, so ``events``/``events_per_sec`` are not
    comparable across the two modes — compare ``wall_s`` instead.
    """
    walls: List[float] = []
    events = 0
    fingerprint = None
    for _ in range(max(1, runs)):
        scenario = dispatch_scenario(seed=seed, health=health, engine=engine)
        start = time.perf_counter()
        scenario.run_seconds(sim_seconds)
        walls.append(time.perf_counter() - start)
        sim_engine = scenario.machine.engine
        events = getattr(sim_engine, "events_processed", None)
        if events is None:  # seed engine: count from the trace instead
            events = sum(s.count for s in scenario.machine.tracer.ops.values())
        digest = trace_fingerprint(scenario)
        if fingerprint is None:
            fingerprint = digest
        elif digest != fingerprint:
            raise AssertionError(
                f"same-seed runs diverged: {digest} != {fingerprint}"
            )
    wall = sorted(walls)[len(walls) // 2]
    return {
        "sim_seconds": sim_seconds,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "fingerprint": fingerprint,
    }


def bench_dispatch_backends(
    sim_seconds: float = 0.5, seed: int = 42, rounds: int = 5
) -> Dict[str, Dict[str, object]]:
    """Benchmark both dispatch backends, interleaved round by round.

    Interleaving (object, array, object, array, ...) means container-load
    drift hits both backends alike, so the reported ratio survives noisy
    machines where back-to-back blocks would not.  Each backend reports
    its best-of-rounds wall: the minimum is the run least contaminated
    by host steal, approximating the unloaded cost (the same rationale
    as ``test_perf_hotpath``'s interleaved gates).  The two backends'
    trace fingerprints must be identical (the array engine's whole
    contract).
    """
    walls: Dict[str, List[float]] = {"object": [], "array": []}
    results: Dict[str, Dict[str, object]] = {}
    for _ in range(max(1, rounds)):
        for engine in ("object", "array"):
            result = bench_dispatch(
                sim_seconds=sim_seconds, seed=seed, runs=1, engine=engine
            )
            previous = results.get(engine)
            if previous is not None and previous["fingerprint"] != result["fingerprint"]:
                raise AssertionError(f"{engine} same-seed runs diverged")
            results[engine] = result
            walls[engine].append(result["wall_s"])
    if results["object"]["fingerprint"] != results["array"]["fingerprint"]:
        raise AssertionError(
            "array backend diverged from object backend: "
            f"{results['array']['fingerprint']} != {results['object']['fingerprint']}"
        )
    for engine, engine_walls in walls.items():
        wall = min(engine_walls)
        events = results[engine]["events"]
        results[engine].update(
            wall_s=round(wall, 4), events_per_sec=round(events / wall, 1)
        )
    return results


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


def planner_census(n: int) -> List:
    return [make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(n)]


def bench_planner(repeats: int = 1) -> Dict[str, object]:
    """Daemon-style repeated replanning: a VM create burst from 33 to 48 VMs.

    Each census differs from the previous by one VM, the planner's
    actual invocation pattern (Sec. 3: replan on every create/teardown).
    A single `Planner` instance is reused across the burst, exactly as
    the daemon holds one.

    With ``repeats > 1`` the reported wall is the best burst (minimum
    over repeats) — the same load normalization the dispatch benchmarks
    use: the fastest repeat is the one least contaminated by host
    steal, and, because a fresh ``Planner`` still shares the module-
    level shape cache, it reflects the daemon's warm steady state
    rather than one-off process-cold costs.
    """
    table_digest: Optional[str] = None
    walls: List[float] = []
    plans = 0
    for _ in range(max(1, repeats)):
        planner = Planner(xeon_16core())
        plans = 0
        start = time.perf_counter()
        for n in range(33, 49):
            result = planner.plan(planner_census(n))
            plans += 1
        walls.append(time.perf_counter() - start)
        table_digest = plan_fingerprint(result)
    wall = min(walls)
    return {
        "plans": plans,
        "wall_s": round(wall, 4),
        "plans_per_sec": round(plans / wall, 1),
        "fingerprint": table_digest,
    }


def plan_fingerprint(result) -> str:
    """SHA-256 over the final plan's table (layout must not change)."""
    hasher = hashlib.sha256()
    for cpu in sorted(result.table.cores):
        table = result.table.cores[cpu]
        for alloc in table.allocations:
            hasher.update(f"{cpu}:{alloc.start}:{alloc.end}:{alloc.vcpu};".encode())
    return hasher.hexdigest()


#: ``bench_plan_methods`` censuses: ``(cores, [(U, L in ms), ...])``.
#: Together they reach partitioning, C=D semi-partitioning and DP-WRAP
#: clusters, coalescing moves budget in two of them, and the last has a
#: dedicated (U = 1) vCPU.
PLAN_METHOD_CENSUSES = [
    # Partitioned; mixed latency goals give the peephole pass work.
    (4, [(0.3, 2)] * 4 + [(0.5, 100)] * 4),
    # Three 60% vCPUs on two cores: one is split C=D.
    (2, [(0.6, 100)] * 3),
    # C=D, and coalescing moves 9.9 us of vm1 per cycle.
    (2, [(0.55, 1), (0.5, 2), (0.6, 1)]),
    # vm0 fits no core and C=D fails: cores 0 and 1 form a cluster.
    (3, [(0.75, 5), (0.4, 20), (0.75, 2), (0.3, 2), (0.65, 50)]),
    # Both cores form the cluster; coalescing moves budget of vm3.
    (2, [(0.45, 50), (0.35, 1), (0.5, 50), (0.7, 10)]),
    # A dedicated core next to two shared ones.
    (3, [(1.0, 1), (0.3, 2), (0.5, 100), (0.6, 10), (0.45, 5)]),
]


def bench_plan_methods() -> Dict[str, object]:
    """Plan every ``PLAN_METHOD_CENSUSES`` entry, peephole off and on.

    The fingerprint hashes each plan's method, cluster cores, every
    allocation, the coalesce report and the peephole report, so it
    freezes the output of every planning method, the peephole pass and
    dedicated cores, which the one-method planner burst does not reach.
    """
    hasher = hashlib.sha256()
    methods: Dict[str, int] = {}
    plans = 0
    start = time.perf_counter()
    for cores, pairs in PLAN_METHOD_CENSUSES:
        vms = [
            make_vm(f"vm{i}", utilization, latency_ms * MS)
            for i, (utilization, latency_ms) in enumerate(pairs)
        ]
        for peephole in (False, True):
            result = Planner(uniform(cores), peephole=peephole).plan(vms)
            plans += 1
            stats = result.stats
            methods[stats.method] = methods.get(stats.method, 0) + 1
            hasher.update(f"{stats.method}:{stats.cluster_cores};".encode())
            hasher.update(plan_fingerprint(result).encode())
            report = stats.coalesce
            hasher.update(
                f"{sorted(report.lost_ns.items())}{sorted(report.gained_ns.items())}"
                f"{report.merged_count}:{report.dropped_count};".encode()
            )
            hasher.update(f"{stats.peephole};".encode())
    wall = time.perf_counter() - start
    return {
        "plans": plans,
        "methods": methods,
        "wall_s": round(wall, 4),
        "fingerprint": hasher.hexdigest(),
    }


def bench_daemon_regeneration(cycles: int = 8) -> Dict[str, object]:
    """The daemon's periodic same-census regeneration (incremental path)."""
    daemon = PlannerDaemon(xeon_16core())
    specs = planner_census(48)
    start = time.perf_counter()
    for i in range(cycles):
        daemon.replan(specs, reason=f"regeneration {i}")
    wall = time.perf_counter() - start
    return {
        "plans": cycles,
        "wall_s": round(wall, 4),
        "plans_per_sec": round(cycles / wall, 1),
    }


def bench_planner_delta(cycles: int = 100) -> Dict[str, object]:
    """Census-diff replans: ``CensusDelta`` create/destroy churn.

    A live planner absorbs a create-then-destroy pair per cycle, the
    service layer's steady-state pattern.  Each create introduces a new
    VM name (never memoized); each destroy returns to the base census.
    The final table must fingerprint identically to the base plan — the
    benchmark doubles as a differential check that delta replans never
    drift from from-scratch planning.

    The base census is 47 VMs, one short of the machine's 12-guest-core
    capacity, so the created VM always admits.
    """
    planner = Planner(xeon_16core())
    base = planner.plan(planner_census(47))
    base_digest = plan_fingerprint(base)
    result = base
    start = time.perf_counter()
    for i in range(cycles):
        vm = make_vm(f"delta{i:03d}", 0.25, 20 * MS)
        planner.plan(CensusDelta(create=[vm]))
        result = planner.plan(CensusDelta(destroy=[vm.name]))
    wall = time.perf_counter() - start
    if plan_fingerprint(result) != base_digest:
        raise AssertionError("delta replans drifted from the base plan")
    plans = 2 * cycles
    return {
        "plans": plans,
        "wall_s": round(wall, 4),
        "plans_per_sec": round(plans / wall, 1),
        "fingerprint": base_digest,
    }


def bench_plan_transport(cycles: int = 100) -> Dict[str, object]:
    """Plan transport: delta ('TBLD') pushes vs full-table payloads.

    A daemon attached to a hypervisor-side hypercall alternates between
    a 47- and 48-VM census; after the boot push every change is small
    enough to travel as changed per-core columns only.  Reports push
    throughput plus the payload-size ratio (full table bytes over the
    mean delta bytes) — the zero-copy transport's whole point.

    Three more sections.  ``cache_hit``: a ``cache=True`` daemon
    alternates two same-shape 47-VM censuses that differ in one tenant's
    name, so every replan after the boot is a table-cache hit; the push
    counts are exact.  ``delta_over_full``: the best-of-200 wall of a
    delta push (one of the 12 busy cores renamed) over that of a full
    push of the same table, interleaved, each delta on a freshly pushed
    base.  ``hit_scaling``: the same one-tenant swap on a small and a
    large machine (:func:`_hit_scaling`).
    """
    scheduler = TableauScheduler(SystemTable(length_ns=MS, cores={}))
    hypercall = TableHypercall(scheduler)
    daemon = PlannerDaemon(xeon_16core(), hypercall=hypercall)
    base = planner_census(47)
    grown = base + [make_vm("vm47", 0.25, 20 * MS)]
    daemon.replan(base, reason="boot")
    full_bytes = daemon.history[-1].push.table_bytes
    start = time.perf_counter()
    for i in range(cycles):
        daemon.replan(grown if i % 2 == 0 else base, reason=f"churn {i}")
    wall = time.perf_counter() - start
    delta_sizes = [
        record.push.table_bytes
        for record in daemon.history
        if record.push is not None and record.push.delta
    ]
    delta_bytes = (
        round(sum(delta_sizes) / len(delta_sizes)) if delta_sizes else 0
    )
    return {
        "pushes": cycles,
        "wall_s": round(wall, 4),
        "pushes_per_sec": round(cycles / wall, 1),
        "delta_pushes": daemon.delta_pushes,
        "full_pushes": daemon.full_pushes,
        "delta_fallbacks": daemon.delta_fallbacks,
        "full_table_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "bytes_ratio": round(full_bytes / delta_bytes, 1) if delta_bytes else 0.0,
        "cache_hit": _cache_hit_transport(cycles),
        "delta_over_full": _delta_over_full(),
        "hit_scaling": _hit_scaling(),
    }


def _cache_hit_transport(cycles: int) -> Dict[str, object]:
    """Push counts of a ``cache=True`` daemon alternating two same-shape
    censuses one tenant's name apart (see :func:`bench_plan_transport`)."""
    scheduler = TableauScheduler(SystemTable(length_ns=MS, cores={}))
    daemon = PlannerDaemon(
        xeon_16core(), hypercall=TableHypercall(scheduler), cache=True
    )
    first = planner_census(47)
    second = first[:-1] + [make_vm("vm47", 0.25, 20 * MS)]
    daemon.replan(first, reason="boot")
    for i in range(cycles):
        daemon.replan(second if i % 2 == 0 else first, reason=f"swap {i}")
    assert daemon.cache is not None
    return {
        "pushes": cycles,
        "hits": daemon.cache.stats.hits,
        "delta_pushes": daemon.delta_pushes,
        # The boot push, and any replan that had to travel in full.
        "full_pushes": daemon.full_pushes,
    }


def _delta_over_full() -> float:
    """Best delta-push wall over best full-push wall for one table (see
    :func:`bench_plan_transport`)."""
    base = Planner(xeon_16core()).plan(planner_census(47)).table
    cpu = base.core_of("vm46.vcpu0")
    core = base.cores[cpu]
    swap = {name: name for name, _start in core.served()}
    swap["vm46.vcpu0"] = "vm47.vcpu0"
    table = SystemTable(
        length_ns=base.length_ns, cores={**base.cores, cpu: core.renamed(swap)}
    )
    hypercall = TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))
    delta_walls: List[float] = []
    full_walls: List[float] = []
    for _ in range(200):
        hypercall.push_system_table(base)
        start = time.perf_counter()
        hypercall.push_system_table_delta(table, [cpu], hypercall.delta_generation)
        delta_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        hypercall.push_system_table(table)
        full_walls.append(time.perf_counter() - start)
    return round(min(delta_walls) / min(full_walls), 3)


#: ``hit_scaling``'s machines and censuses: 47 VMs on the 12 guest cores
#: of ``xeon_16core`` and 175 on the 44 of ``xeon_48core`` (3.7x the
#: vCPUs), each VM a 25% vCPU.
HIT_SCALING_SIZES = (("small", xeon_16core, 47), ("large", xeon_48core, 175))


def _hit_scaling() -> Dict[str, object]:
    """Wall of a table-cache hit replan, small census against large.

    On each machine of :data:`HIT_SCALING_SIZES` a ``cache=True`` daemon
    alternates two same-shape censuses one tenant's name apart, so every
    replan after the boot is a rebind that keeps all but one core, plus
    a one-core delta push.  The machines take turns, 20 replans at a
    time, for 9 rounds; each reports its best round's wall per replan,
    and ``ratio`` is large over small.  A hit whose cost follows the
    cores that change reads well under the vCPU ratio.
    """
    rounds, swaps = 9, 20
    runs = []
    for label, topology, vms in HIT_SCALING_SIZES:
        scheduler = TableauScheduler(SystemTable(length_ns=MS, cores={}))
        daemon = PlannerDaemon(
            topology(), hypercall=TableHypercall(scheduler), cache=True
        )
        first = planner_census(vms)
        second = first[:-1] + [make_vm(f"vm{vms}", 0.25, 20 * MS)]
        daemon.replan(first, reason="boot")
        runs.append((label, daemon, first, second))
    walls: Dict[str, List[float]] = {label: [] for label, *_ in runs}
    for _ in range(rounds):
        for label, daemon, first, second in runs:
            start = time.perf_counter()
            for i in range(swaps):
                daemon.replan(second if i % 2 == 0 else first, reason=f"swap {i}")
            walls[label].append((time.perf_counter() - start) / swaps)
    for label, daemon, _first, _second in runs:
        assert daemon.cache is not None
        if not daemon.cache.stats.hits == daemon.delta_pushes == rounds * swaps:
            raise AssertionError(f"{label}: a swap was not a hit pushed as a delta")
    small, large = min(walls["small"]), min(walls["large"])
    return {
        "vcpus": [vms for _label, _topology, vms in HIT_SCALING_SIZES],
        "small_us": round(small * 1e6, 1),
        "large_us": round(large * 1e6, 1),
        "ratio": round(large / small, 2),
    }


#: VM shapes ``(utilization, latency goal in ms)`` of the decode walk.
DECODE_WALK_SHAPES = ((0.25, 20), (0.2, 10), (0.1, 40), (0.3, 20))


def decode_walk_payloads() -> List[bytes]:
    """Full ('TBLO') payloads of a 120-step census walk (seed 1) on the
    16-core machine.

    Each step creates a VM of a random shape or destroys a random one,
    the population wandering between 30 and 40 VMs, and the census is
    planned from scratch and encoded.  VMs come and go, so vCPU ids shift
    and every push travels full; schedules recur, as in a live service.
    """
    rng = random.Random(1)
    planner = Planner(xeon_16core())
    live: Dict[str, tuple] = {}
    payloads = []
    for step in range(120):
        if len(live) < 30 or (len(live) < 40 and rng.random() < 0.5):
            live[f"vm{step:03d}"] = rng.choice(DECODE_WALK_SHAPES)
        else:
            del live[rng.choice(sorted(live))]
        census = [make_vm(name, u, ms * MS) for name, (u, ms) in live.items()]
        payloads.append(serialize(planner.plan(census).table))
    return payloads


def bench_full_push_decode() -> Dict[str, object]:
    """Full-push decode: the decoder's block cache warm against cold.

    Decodes the :func:`decode_walk_payloads` stream five times each way,
    interleaved: *cold* clears the cache before every push (each core is
    parsed and its schedule's slice table derived), *warm* clears it once
    and decodes the stream in order, so a core block the walk sent before
    is bound without a second check.  Walls are best of five; the share
    of received cores that hit the cache is exact.
    """
    payloads = decode_walk_payloads()
    cold_walls: List[float] = []
    warm_walls: List[float] = []
    for _ in range(5):
        start = time.perf_counter()
        for payload in payloads:
            clear_decode_cache()
            deserialize(payload)
        cold_walls.append(time.perf_counter() - start)
        clear_decode_cache()
        start = time.perf_counter()
        cores = sum(len(deserialize(payload).cores) for payload in payloads)
        warm_walls.append(time.perf_counter() - start)
    # Each distinct block misses once, a repeat in the same push included
    # (the walk stays under the cache's byte budget), so the blocks held
    # after a warm pass are its misses.
    misses = len(_DECODED)
    cold = min(cold_walls) / len(payloads)
    warm = min(warm_walls) / len(payloads)
    return {
        "pushes": len(payloads),
        "cores": cores,
        "hit_share": round(1 - misses / cores, 4),
        "cold_us_per_push": round(cold * 1e6, 1),
        "warm_us_per_push": round(warm * 1e6, 1),
        "warm_over_cold": round(warm / cold, 3),
    }


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def run_all(sim_seconds: float = 0.5, planner_repeats: int = 3) -> Dict[str, object]:
    # benchmarks/ is on the path of a script run.
    from campaign import calibration_s

    backends = bench_dispatch_backends(sim_seconds=sim_seconds)
    dispatch = backends["object"]
    array = backends["array"]
    planner = bench_planner(repeats=planner_repeats)
    regeneration = bench_daemon_regeneration()
    planner_delta = bench_planner_delta()
    transport = bench_plan_transport()
    decode = bench_full_push_decode()
    calibration = calibration_s()
    planner_norm = {
        **planner,
        "plans_per_sec": round(planner["plans"] / planner["wall_s"], 1),
    }
    return {
        "generated_by": "benchmarks/hotpath.py",
        # Median time of perfbench's calibration kernel on the host that
        # measured the walls below, except those listed next: they are the
        # frozen reference that test_perf_hotpath's load-normalized gate
        # divides by, measured on an earlier host.
        "calibration_s": round(calibration, 6),
        "calibration_excludes": ["after.dispatch", "after.dispatch_array"],
        "before": SEED_BASELINE,
        "after": {
            "dispatch": {
                k: dispatch[k] for k in ("events", "wall_s", "events_per_sec")
            },
            "dispatch_array": {
                k: array[k] for k in ("events", "wall_s", "events_per_sec")
            },
            "planner": {
                k: planner_norm[k] for k in ("plans", "wall_s", "plans_per_sec")
            },
            "daemon_regeneration": regeneration,
            "planner_delta": {
                k: planner_delta[k] for k in ("plans", "wall_s", "plans_per_sec")
            },
            "plan_transport": {
                k: transport[k]
                for k in (
                    "pushes",
                    "wall_s",
                    "pushes_per_sec",
                    "delta_pushes",
                    "full_pushes",
                    "full_table_bytes",
                    "delta_bytes",
                    "bytes_ratio",
                    "cache_hit",
                    "delta_over_full",
                    "hit_scaling",
                )
            },
            "full_push_decode": decode,
        },
        "speedup": {
            "dispatch": round(
                dispatch["events_per_sec"]
                / SEED_BASELINE["dispatch"]["events_per_sec"],
                2,
            ),
            "dispatch_array": round(
                array["events_per_sec"]
                / SEED_BASELINE["dispatch"]["events_per_sec"],
                2,
            ),
            "dispatch_array_vs_object": round(
                array["events_per_sec"] / dispatch["events_per_sec"], 2
            ),
            "planner": round(
                planner_norm["plans_per_sec"]
                / SEED_BASELINE["planner"]["plans_per_sec"],
                2,
            ),
            "daemon_regeneration": round(
                regeneration["plans_per_sec"]
                / SEED_BASELINE["daemon_regeneration"]["plans_per_sec"],
                2,
            ),
            # New scenarios (no seed baseline): delta replans measured
            # against this tree's own full-replan burst, and the delta
            # transport's payload-size advantage over a full table.
            "planner_delta_vs_full_burst": round(
                planner_delta["plans_per_sec"] / planner_norm["plans_per_sec"], 2
            ),
            "plan_transport_bytes": transport["bytes_ratio"],
            "full_push_decode_warm_vs_cold": round(1 / decode["warm_over_cold"], 2),
        },
        "fingerprints": {
            "dispatch_trace": dispatch["fingerprint"],
            "dispatch_trace_array": array["fingerprint"],
            "final_plan": planner["fingerprint"],
        },
    }


def main() -> None:
    report = run_all()
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {BENCH_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
