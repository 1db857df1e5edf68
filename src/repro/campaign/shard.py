"""Shard specs and the worker-side shard executor.

A :class:`ShardSpec` is one cell of a campaign matrix, reduced to plain
picklable data — no machines, no plans, no closures — so a
``ProcessPoolExecutor`` worker (or a remote runner) can reconstruct and
execute the cell from the spec alone.  :func:`run_shard` is that
executor: it plans, builds the scenario, simulates, and aggregates,
timing each of the four phases.

The returned record keeps deterministic simulation output (``metrics``)
strictly separate from environment-dependent observability (``timings``,
``plan_cache``): campaign aggregation reads only the former, which is
what lets a parallel run's aggregate match a serial run's byte for
byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.metrics import PhaseTimings, summarize_ns

#: Probe kinds a shard can run: the Fig. 5 and Fig. 6 drivers, the
#: scheduler-as-a-service scenario (streaming tenant churn against the
#: persistent control plane), and the crash-recovery probe (seeded
#: crash/recover cycles that must reproduce the uninterrupted run
#: byte-for-byte).
PROBES = ("intrinsic", "ping", "service", "crash-recovery")

#: Ping-load shape per shard, matching the scaled-down
#: :func:`repro.experiments.delay.ping_latency` defaults.
PING_THREADS = 8
PINGS_PER_THREAD = 200


@dataclass(frozen=True)
class ShardSpec:
    """One matrix cell as plain data (fully picklable; see tests)."""

    shard_id: str
    index: int
    campaign: str
    probe: str
    scheduler: str
    num_vms: int
    seed: int
    preset: str
    health: bool
    capped: bool
    background: str
    topology: str
    duration_s: float
    #: Per-VM latency goal in ms (the paper's default is 20; Fig. 3's
    #: hardest planner curve uses 1).
    latency_ms: float = 20.0
    #: Dispatch backend (:data:`repro.sim.ENGINES`).  ``"array"`` plays
    #: compiled table arrays; output stays bit-identical to ``"object"``.
    engine: str = "object"
    #: Service-probe axes (ignored by the other probes): mean tenant
    #: arrival rate and base batch-flush window.
    arrival_rate: float = 0.0
    batch_window_ms: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_shard(spec: ShardSpec) -> Dict[str, object]:
    """Execute one shard and return its result record.

    Module-level (not a method) so the process pool pickles it by
    reference; everything it needs travels in ``spec``.  Raises on
    failure — the campaign runner converts exceptions and worker
    crashes into failure records.
    """
    # Imports here keep worker start-up lean and avoid import cycles
    # (experiments -> campaign would otherwise be circular).
    from repro.campaign.matrix import resolve_topology

    if spec.probe == "service":
        return _run_service_shard(spec)
    if spec.probe == "crash-recovery":
        return _run_crash_recovery_shard(spec)

    from repro.experiments.delay import MS
    from repro.experiments.scenarios import build_scenario, plan_for

    latency_ns = int(spec.latency_ms * MS)
    from repro.faults import runtime_preset
    from repro.workloads import IntrinsicLatencyProbe, PingResponder, run_ping_load

    timings = PhaseTimings()
    topo = resolve_topology(spec.topology)

    with timings.phase("plan"):
        plan = plan_for(topo, spec.num_vms, spec.capped, latency_ns=latency_ns)

    faults = (
        runtime_preset(spec.preset, seed=spec.seed)
        if spec.preset != "none"
        else None
    )
    probe: object
    with timings.phase("build"):
        if spec.probe == "intrinsic":
            probe = IntrinsicLatencyProbe()
        else:
            probe = PingResponder()
        scenario = build_scenario(
            spec.scheduler,
            vantage_workload=probe,
            capped=spec.capped,
            background=spec.background,
            topology=topo,
            num_vms=spec.num_vms,
            seed=spec.seed,
            plan=plan,
            faults=faults,
            engine=spec.engine,
        )
        # Health supervision is a Tableau-stack layer; other schedulers
        # run unsupervised (their cells still see machine-level faults).
        supervisor = None
        if spec.health and spec.scheduler == "tableau":
            from repro.health import HealthSupervisor

            supervisor = HealthSupervisor(
                scenario.machine, scenario.machine.scheduler
            )
            supervisor.start()
        if spec.probe == "ping":
            from repro.core.params import seconds_to_ns

            # Exact-int spacing: convert to ns once, then divide with
            # ``//`` — float division here loses exactness for long
            # durations (the time-lossy-div-ns lint rule).
            spacing_ns = max(
                1, seconds_to_ns(spec.duration_s) // PINGS_PER_THREAD
            )
            run_ping_load(
                scenario.machine,
                probe,
                threads=PING_THREADS,
                pings_per_thread=PINGS_PER_THREAD,
                max_spacing_ns=spacing_ns,
            )

    with timings.phase("simulate"):
        scenario.run_seconds(spec.duration_s)

    with timings.phase("aggregate"):
        if supervisor is not None:
            supervisor.stop()
        machine = scenario.machine
        metrics: Dict[str, object] = {
            "sim_now_ns": machine.engine.now,
            "events": machine.engine.events_processed,
            "context_switches": machine.tracer.context_switches,
            "migrations": machine.tracer.migrations,
            "vantage_runtime_ns": scenario.vantage.runtime_ns,
            "vantage_dispatches": scenario.vantage.dispatch_count,
        }
        if spec.probe == "intrinsic":
            metrics["max_delay_ms"] = probe.max_gap_ns / MS
            metrics["mean_delay_ms"] = probe.mean_gap_ns / MS
        else:
            summary = summarize_ns(probe.latencies_ns)
            metrics["ping_count"] = summary.count
            metrics["avg_ms"] = summary.mean_ms
            metrics["p99_ms"] = summary.p99_ms
            metrics["max_ms"] = summary.max_ms

    record: Dict[str, object] = {
        "shard": spec.shard_id,
        "index": spec.index,
        "status": "ok",
        "spec": spec.as_dict(),
        "metrics": metrics,
        "timings": timings.as_dict(),
        "plan_cache": {"hit": plan.stats.plan_cache_hit},
    }
    return record


#: Conversion for reporting service latencies in ms (floats derived
#: from deterministic integer-ns samples stay deterministic).
_NS_PER_MS = 1_000_000


def _run_service_shard(spec: ShardSpec) -> Dict[str, object]:
    """One scheduler-as-a-service cell: churn stream → service report.

    ``num_vms`` is the churn generator's target population, ``seed``
    its stream seed, ``duration_s`` the simulated service lifetime.
    The deterministic ``metrics`` are flattened from the service report
    (integer-ns nearest-rank percentiles); the full report rides along
    under ``metrics["service"]``.
    """
    from repro.campaign.matrix import resolve_topology
    from repro.metrics import service_report
    from repro.service import ChurnConfig, ServiceConfig, run_service

    timings = PhaseTimings()
    topo = resolve_topology(spec.topology)

    with timings.phase("build"):
        churn = ChurnConfig(
            seed=spec.seed,
            arrival_rate_per_s=spec.arrival_rate,
            target_population=spec.num_vms,
        )
        config = ServiceConfig(batch_window_ms=spec.batch_window_ms)

    with timings.phase("simulate"):
        service = run_service(
            topo,
            duration_s=spec.duration_s,
            churn=churn,
            config=config,
            scheduler=spec.scheduler,
        )

    with timings.phase("aggregate"):
        report = service_report(service)
        replan = report["replan_latency_ns"]
        sojourn = report["sojourn_ns"]
        batching = report["batching"]
        rejected = report["rejected"]
        requests = report["requests"]
        slo = report["slo"]
        assert isinstance(replan, dict) and isinstance(sojourn, dict)
        assert isinstance(batching, dict) and isinstance(rejected, dict)
        assert isinstance(requests, dict) and isinstance(slo, dict)
        metrics: Dict[str, object] = {
            "events": service.engine.events_processed,
            "requests": requests["total"],
            "replan_p50_ms": replan["p50"] / _NS_PER_MS,
            "replan_p99_ms": replan["p99"] / _NS_PER_MS,
            "replan_p999_ms": replan["p999"] / _NS_PER_MS,
            "sojourn_p99_ms": sojourn["p99"] / _NS_PER_MS,
            "batching_ratio": batching["ratio"],
            "table_pushes": batching["table_pushes"],
            "rejection_rate": rejected["rate"],
            "slo_violations": slo["violations"],
            "service": report,
        }

    return {
        "shard": spec.shard_id,
        "index": spec.index,
        "status": "ok",
        "spec": spec.as_dict(),
        "metrics": metrics,
        "timings": timings.as_dict(),
        "plan_cache": {"hit": False},
    }


#: Seeded crash/recover cycles per crash-recovery shard.
CRASH_CYCLES = 3


def _run_crash_recovery_shard(spec: ShardSpec) -> Dict[str, object]:
    """One crash-recovery cell: N seeded crash/recover cycles, each
    verified byte-for-byte against the uninterrupted run.

    Every cycle gets its own temp directory for its journal.  Cycle
    *i* arms a single-shot :class:`CrashPlan` at the
    crashpoint ``SERVICE_CRASHPOINTS[(seed + i) % len]``, call index
    ``i + 1``, recovers through the journal, resumes, and compares
    the final :func:`service_report_json` against the shard's own
    uninterrupted reference.  Any divergence raises — the campaign
    runner records the shard failed.
    """
    import tempfile
    from pathlib import Path

    from repro.campaign.matrix import resolve_topology
    from repro.errors import ReproError
    from repro.faults.crash import SERVICE_CRASHPOINTS, CrashPlan
    from repro.metrics import service_report
    from repro.metrics.service import service_report_json
    from repro.service import ChurnConfig, ServiceConfig, run_service
    from repro.service.recovery import crash_recover_resume

    timings = PhaseTimings()
    topo = resolve_topology(spec.topology)

    with timings.phase("build"):
        churn = ChurnConfig(
            seed=spec.seed,
            arrival_rate_per_s=spec.arrival_rate,
            target_population=spec.num_vms,
        )
        config = ServiceConfig(batch_window_ms=spec.batch_window_ms)

    with timings.phase("plan"):
        # The uninterrupted reference (no journal: it does not show in
        # the report).
        reference = run_service(
            topo,
            duration_s=spec.duration_s,
            churn=churn,
            config=config,
            scheduler=spec.scheduler,
        )
        reference_json = service_report_json(service_report(reference))

    cycles = []
    crashes_total = 0
    healed_total = 0
    with timings.phase("simulate"):
        for i in range(CRASH_CYCLES):
            point = SERVICE_CRASHPOINTS[
                (spec.seed + i) % len(SERVICE_CRASHPOINTS)
            ]
            plan = CrashPlan.at(point, call=i + 1, seed=spec.seed)
            with tempfile.TemporaryDirectory() as tmp:
                outcome = crash_recover_resume(
                    topo,
                    spec.duration_s,
                    Path(tmp) / "service.journal",
                    plan,
                    churn=churn,
                    config=config,
                    scheduler=spec.scheduler,
                )
                recovered_json = service_report_json(
                    service_report(outcome.service)
                )
            identical = recovered_json == reference_json
            crashes_total += outcome.crash_count
            healed_total += outcome.healed_bytes
            cycles.append(
                {
                    "point": point,
                    "call": i + 1,
                    "crashes": outcome.crash_count,
                    "healed_bytes": outcome.healed_bytes,
                    "identical": identical,
                }
            )
            if not identical:
                raise ReproError(
                    f"{spec.shard_id}: recovered report diverged from "
                    f"uninterrupted run (crashpoint {point}@{i + 1})"
                )

    with timings.phase("aggregate"):
        metrics: Dict[str, object] = {
            "cycles": len(cycles),
            "crashes": crashes_total,
            "healed_bytes": healed_total,
            "identical_cycles": sum(1 for c in cycles if c["identical"]),
            "crash_cycles": cycles,
        }

    return {
        "shard": spec.shard_id,
        "index": spec.index,
        "status": "ok",
        "spec": spec.as_dict(),
        "metrics": metrics,
        "timings": timings.as_dict(),
        "plan_cache": {"hit": False},
    }
