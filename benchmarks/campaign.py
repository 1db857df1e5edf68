"""Campaign-engine benchmark: plan-cache speedup and hit rate.

Drives a Fig. 6-style comparison matrix (credit / credit2 / tableau
over several VM densities and seeds on the paper's 48-core machine, at
the 1 ms latency goal of Fig. 3's hardest planner curve) three ways:

* ``serial_seed``  — the seed execution path: one shard after another
  in one process, re-planning every census from scratch (no plan memo,
  no on-disk store — exactly how the experiment drivers ran before the
  campaign engine existed);
* ``parallel_cold`` — 4 pool workers against an empty
  :class:`repro.core.plancache.PlanStore`, which they populate;
* ``parallel_warm`` — 4 pool workers against the now-warm store.

and verifies the properties the campaign engine exists for: every
aggregate is **byte-identical** to the serial one, the warm run's
planner phase is served from the content-addressed store (>=90% hits),
and the warm store beats a cold one at equal parallelism.

Historical note on the bars: before the columnar planner, planning was
5.86s of a 6.75s serial run and the warm store delivered a >=3x
wall-clock win over serial.  The columnar planner cut the serial plan
phase to ~0.14s (the module-level shape cache is shared across
shards within one process), so on this single-CPU container the serial
path now *beats* the pool — worker processes fork cold and re-pay
process-cold planning.  The wall bar therefore moved to where the
store's effect still is: the pooled *plan phase*, cold store vs warm
store at equal parallelism (measured ~1.6-1.8x; gated at 1.3x), plus a
hard ceiling on the serial cold plan phase itself (<=2.93s, half the
pre-columnar cost) so the planner win that retired the old bar cannot
silently regress.  Wall ratios are still reported but not gated — at
~1.2x they sit inside this container's timing noise.

Once cold planning got cheap, one pair's plan-phase ratio swung from
1.15x to 2.6x between runs of one tree on a 2-vCPU host, so the cold/
warm pair runs ``POOLED_PAIRS`` times, each against a fresh store, and
the 1.3x bar is on the median ratio; the report keeps every ratio and
the last pair's blocks.

An absolute ceiling that loose let a 4x planner regression through
(binding a cached core to names rebuilt every allocation), so the
serial plan phase is also barred relative to the host: divided by the
median time of perfbench's calibration kernel, measured next to it, it
must stay at or below ``MAX_PLAN_PHASE_OVER_CALIBRATION``.  On a 2-vCPU
x86 host whose kernel takes 1.3-2.3 ms, a planner that binds cached
cores to names without building allocations reads 43-73x, and one that
builds them on every bind reads 480-880x.

Run directly to (re)generate ``BENCH_campaign.json`` at the repo root::

    PYTHONPATH=src python benchmarks/campaign.py

The parallel runs execute first so pool workers fork with a cold
process-local plan memo and actually exercise the on-disk store (a
warm parent memo would shadow it).
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.campaign import (
    CampaignMatrix,
    aggregate_json,
    aggregate_records,
    fig6_matrix,
    run_campaign,
    run_shard,
)
from repro.experiments.scenarios import reset_plan_memo

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_campaign.json"

WORKERS = 4
SEEDS: Sequence[int] = (42, 43, 44)
VM_COUNTS: Sequence[int] = (120, 144, 176)
DURATION_S = 0.005
LATENCY_MS = 1.0

#: Bar on the serial plan phase over the calibration kernel's time.
MAX_PLAN_PHASE_OVER_CALIBRATION = 200.0
CALIBRATION_RUNS = 21
#: Cold/warm pooled pairs whose median plan-phase ratio is barred.
POOLED_PAIRS = 3


def calibration_s() -> float:
    """Median wall time of perfbench's calibration kernel on this host."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from rep import calibration

    return statistics.median(calibration() for _ in range(CALIBRATION_RUNS))


def bench_matrix(
    duration_s: float = DURATION_S,
    seeds: Sequence[int] = SEEDS,
    vm_counts: Sequence[int] = VM_COUNTS,
) -> CampaignMatrix:
    return fig6_matrix(
        duration_s=duration_s,
        seeds=tuple(seeds),
        topology="48core",
        vm_counts=tuple(vm_counts),
        latency_ms=LATENCY_MS,
    )


def run_seed_path(matrix: CampaignMatrix) -> Dict[str, object]:
    """The pre-campaign baseline: serial shards, a fresh plan each."""
    records = []
    start = time.perf_counter()
    for spec in matrix.expand():
        reset_plan_memo()
        records.append(run_shard(spec, None))
    wall = time.perf_counter() - start
    aggregate = aggregate_records(matrix, records)
    plans = sum(
        float((record.get("timings") or {}).get("plan", 0.0))
        for record in records
    )
    return {
        "workers": 1,
        "wall_s": round(wall, 4),
        "shards": len(records),
        "plan_phase_s": round(plans, 4),
        "aggregate_bytes": aggregate_json(aggregate),
    }


def run_pooled(
    matrix: CampaignMatrix, cache_dir: str, log_path: str
) -> Dict[str, object]:
    start = time.perf_counter()
    result = run_campaign(
        matrix, workers=WORKERS, cache_dir=cache_dir, log_path=log_path
    )
    wall = time.perf_counter() - start
    report = result.report
    assert isinstance(report["plan_cache"], dict)
    assert isinstance(report["phase_seconds"], dict)
    return {
        "workers": WORKERS,
        "wall_s": round(wall, 4),
        "shards": len(result.records),
        "failures": len(result.failures),
        "plan_cache": report["plan_cache"],
        "plan_phase_s": report["phase_seconds"].get("plan", 0.0),
        "aggregate_bytes": aggregate_json(result.aggregate),
    }


def run_all(
    duration_s: float = DURATION_S, seeds: Sequence[int] = SEEDS
) -> Dict[str, object]:
    matrix = bench_matrix(duration_s=duration_s, seeds=seeds)
    phase_speedups = []
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as td:
        # Pooled pairs first: workers must fork before this process ever
        # plans, so the on-disk store (not an inherited memo) serves
        # lookups.
        for pair in range(POOLED_PAIRS):
            cache = str(Path(td) / f"plan-cache-{pair}")
            cold = run_pooled(matrix, cache, str(Path(td) / f"cold-{pair}.jsonl"))
            warm = run_pooled(matrix, cache, str(Path(td) / f"warm-{pair}.jsonl"))
            phase_speedups.append(
                round(float(cold["plan_phase_s"]) / float(warm["plan_phase_s"]), 2)
            )
        calibration = calibration_s()
        serial = run_seed_path(matrix)

    identical = (
        serial["aggregate_bytes"]
        == cold["aggregate_bytes"]
        == warm["aggregate_bytes"]
    )
    for block in (serial, cold, warm):
        del block["aggregate_bytes"]
    speedup = float(serial["wall_s"]) / float(warm["wall_s"])
    speedup_vs_cold = float(cold["wall_s"]) / float(warm["wall_s"])
    warm_cache = warm["plan_cache"]
    assert isinstance(warm_cache, dict)
    return {
        "generated_by": "benchmarks/campaign.py",
        "matrix": {
            "name": matrix.name,
            "schedulers": list(matrix.schedulers),
            "seeds": list(seeds),
            "vm_counts": list(VM_COUNTS),
            "shards": len(matrix.expand()),
            "topology": matrix.topology,
            "duration_s": duration_s,
            "latency_ms": matrix.latency_ms,
        },
        "serial_seed": serial,
        "parallel_cold": cold,
        "parallel_warm": warm,
        "calibration_s": round(calibration, 6),
        "serial_plan_phase_over_calibration": round(
            float(serial["plan_phase_s"]) / calibration, 1
        ),
        "speedup_warm_vs_serial": round(speedup, 2),
        "speedup_warm_vs_cold": round(speedup_vs_cold, 2),
        "plan_phase_speedups_warm_vs_cold": phase_speedups,
        "plan_phase_speedup_warm_vs_cold": statistics.median(phase_speedups),
        "warm_hit_rate": warm_cache["hit_rate"],
        "aggregates_identical": identical,
    }


def main() -> int:
    results = run_all()
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {BENCH_PATH}")
    ok = (
        results["aggregates_identical"]
        and float(results["plan_phase_speedup_warm_vs_cold"]) >= 1.3
        and float(results["warm_hit_rate"]) >= 0.9
        and float(results["serial_seed"]["plan_phase_s"]) <= 2.93
        and float(results["serial_plan_phase_over_calibration"])
        <= MAX_PLAN_PHASE_OVER_CALIBRATION
    )
    if not ok:
        print("BENCHMARK BAR NOT MET", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
