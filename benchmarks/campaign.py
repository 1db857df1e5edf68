"""Campaign-engine benchmark: pooled vs serial, same aggregate.

Drives a Fig. 6-style comparison matrix (credit / credit2 / tableau
over several VM densities and seeds on the paper's 48-core machine, at
the 1 ms latency goal of Fig. 3's hardest planner curve) two ways:

* ``serial_seed`` — the seed execution path: one shard after another
  in one process, re-planning every census from scratch (no plan memo
  — exactly how the experiment drivers ran before the campaign engine
  existed);
* ``pooled`` — ``WORKERS`` pool workers through :func:`run_campaign`.

and verifies the property the campaign engine exists for: the pooled
aggregate is **byte-identical** to the serial one.  The pooled/serial
wall ratio is reported but not gated: the pool forks cold workers that
each re-plan, and on a 2-vCPU host the ratio sits inside timing noise.

Two ceilings guard the serial plan phase.  It must stay at or below
2.93 s, half the pre-columnar cost.  An absolute ceiling that loose let
a 4x planner regression through (binding a cached core to names
rebuilt every allocation), so it is also barred relative to the host:
divided by the median time of perfbench's calibration kernel, measured
next to it, it must stay at or below
``MAX_PLAN_PHASE_OVER_CALIBRATION``.  On a 2-vCPU x86 host whose kernel
takes 1.3-2.3 ms, a planner that binds cached cores to names without
building allocations reads 43-73x, and one that builds them on every
bind reads 480-880x.

Run directly to (re)generate ``BENCH_campaign.json`` at the repo root::

    PYTHONPATH=src python benchmarks/campaign.py

The pooled run executes first, so its workers fork before this process
ever plans and inherit no plan memo or shape cache.
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
#: Absolute bar on the serial plan phase, in seconds.
MAX_SERIAL_PLAN_PHASE_S = 2.93
CALIBRATION_RUNS = 21


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
        records.append(run_shard(spec))
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


def run_pooled(matrix: CampaignMatrix, log_path: str) -> Dict[str, object]:
    start = time.perf_counter()
    result = run_campaign(matrix, workers=WORKERS, log_path=log_path)
    wall = time.perf_counter() - start
    phases = result.report["phase_seconds"]
    assert isinstance(phases, dict)
    return {
        "workers": WORKERS,
        "wall_s": round(wall, 4),
        "shards": len(result.records),
        "failures": len(result.failures),
        "plan_phase_s": phases.get("plan", 0.0),
        "aggregate_bytes": aggregate_json(result.aggregate),
    }


def run_all(
    duration_s: float = DURATION_S, seeds: Sequence[int] = SEEDS
) -> Dict[str, object]:
    matrix = bench_matrix(duration_s=duration_s, seeds=seeds)
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as td:
        # Pooled first: its workers must fork before this process plans.
        pooled = run_pooled(matrix, str(Path(td) / "pooled.jsonl"))
    calibration = calibration_s()
    serial = run_seed_path(matrix)

    identical = serial["aggregate_bytes"] == pooled["aggregate_bytes"]
    for block in (serial, pooled):
        del block["aggregate_bytes"]
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
        "pooled": pooled,
        "calibration_s": round(calibration, 6),
        "serial_plan_phase_over_calibration": round(
            float(serial["plan_phase_s"]) / calibration, 1
        ),
        "pooled_over_serial_wall": round(
            float(pooled["wall_s"]) / float(serial["wall_s"]), 2
        ),
        "aggregates_identical": identical,
    }


def main() -> int:
    results = run_all()
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {BENCH_PATH}")
    ok = (
        results["aggregates_identical"]
        and float(results["serial_seed"]["plan_phase_s"])
        <= MAX_SERIAL_PLAN_PHASE_S
        and float(results["serial_plan_phase_over_calibration"])
        <= MAX_PLAN_PHASE_OVER_CALIBRATION
    )
    if not ok:
        print("BENCHMARK BAR NOT MET", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
