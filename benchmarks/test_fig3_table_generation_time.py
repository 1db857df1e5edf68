"""Fig. 3: table-generation time vs number of VMs.

Paper setup: 48-core Xeon, four cores for dom0, up to four VMs per
remaining core (176 VMs max), every VM at one of four latency goals
(1, 30, 60, 100 ms).  Claim: generation time never exceeds two seconds,
with the 1 ms goal the slowest curve.

One extra curve is an extension, not a paper claim: a heterogeneous
census whose VMs are drawn, seeded, from ``DEFAULT_TIERS`` with the
churn generator's tier mix, so its cores hold distinct task shapes.
"""

import random

import pytest

from conftest import publish

from repro.core import MS, Planner, edfcore, make_vm, vms_from_tiers
from repro.core import planner as planner_module
from repro.experiments import LATENCY_GOALS_MS
from repro.service.churn import ChurnConfig
from repro.topology import xeon_48core

TOPOLOGY = xeon_48core()
VM_COUNTS = (44, 88, 132, 176)
#: The heterogeneous curve's censuses: 176 tiered VMs over-utilize the
#: 44 guest cores.
TIERED_VM_COUNTS = (44, 88, 132)
TIERED_SEED = 1


def _vms(count, latency_ms):
    return [make_vm(f"vm{i:03d}", 0.25, latency_ms * MS) for i in range(count)]


def _tiered_vms(count, seed=TIERED_SEED):
    """``count`` VMs, each of a tier drawn with the churn generator's
    weights (the draws of a smaller census are a prefix of a larger's)."""
    names, weights = zip(*ChurnConfig().tier_weights)
    tiers = random.Random(seed).choices(names, weights=weights, k=count)
    return vms_from_tiers((f"vm{i:03d}", tier) for i, tier in enumerate(tiers))


@pytest.mark.parametrize("latency_ms", LATENCY_GOALS_MS)
def test_fig3_generation_time(benchmark, latency_ms):
    """Benchmark the planner at the paper's largest census per curve.

    Every round plans cold: a fresh planner, whose whole-plan memo would
    otherwise answer from the second round on, and the process-wide
    shape cache cleared.
    """
    vms = _vms(176, latency_ms)

    def cold():
        edfcore.clear_shape_cache()
        return (Planner(TOPOLOGY), vms), {}

    result = benchmark.pedantic(Planner.plan, setup=cold, rounds=10)
    assert result.stats.method == "partitioned"
    # The paper's bound: under two seconds even for the worst case.
    assert benchmark.stats["mean"] < 2.0


#: Cold plans per point; a point's time is the best of them.
COLD_PLANS = 3


def test_fig3_full_curves(benchmark, monkeypatch):
    """Regenerate the full Fig. 3 series (all curves, all VM counts).

    Every point plans cold: a fresh planner, and the process-wide shape
    cache cleared, so each row times table generation, not a lookup of
    a shape an earlier test planned.  A point's time is the best of
    ``COLD_PLANS`` such plans, so one slow plan (a collection, a busy
    host) does not stand for the point.  Each row also counts the EDF
    pipeline runs the plan made, the same in every plan of the point:
    one per distinct core shape, which is why a uniform census plans in
    milliseconds.
    """
    pipeline_runs = []

    def counted(*args, **kwargs):
        pipeline_runs.append(1)
        return edfcore.run_pipeline(*args, **kwargs)

    monkeypatch.setattr(planner_module, "run_pipeline", counted)

    def cold_plan(vms):
        plans = []
        for _ in range(COLD_PLANS):
            edfcore.clear_shape_cache()
            pipeline_runs.clear()
            plans.append((Planner(TOPOLOGY).plan(vms), len(pipeline_runs)))
        runs = {count for _result, count in plans}
        assert len(runs) == 1, f"cold plans of one census ran {runs} pipelines"
        return min(plans, key=lambda plan: plan[0].stats.generation_seconds)

    def sweep():
        rows = []
        for latency_ms in LATENCY_GOALS_MS:
            for count in VM_COUNTS:
                result, runs = cold_plan(_vms(count, latency_ms))
                rows.append(
                    (latency_ms, count, result.stats.generation_seconds, runs)
                )
        tiered = []
        for count in TIERED_VM_COUNTS:
            result, runs = cold_plan(_tiered_vms(count))
            tiered.append(
                (count, result.stats.generation_seconds, runs, result.stats.method)
            )
        return rows, tiered

    rows, tiered = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"{'L (ms)':>7s} {'VMs':>5s} {'generation (ms)':>16s} "
        f"{'pipeline runs':>14s}"
    ]
    for latency_ms, count, seconds, runs in rows:
        lines.append(f"{latency_ms:7d} {count:5d} {seconds * 1e3:16.3f} {runs:14d}")
        assert seconds < 2.0, "paper bound: table generation under 2 s"
        assert runs >= 1, "a cold plan runs the EDF pipeline"
    # Shape: the 1 ms curve is the slowest at max census.
    by_goal = {lm: s for lm, c, s, _ in rows if c == 176}
    assert by_goal[1] == max(by_goal.values())
    lines += [
        "",
        f"Extension, not a paper claim: DEFAULT_TIERS census (churn tier "
        f"mix, seed {TIERED_SEED})",
        f"{'VMs':>5s} {'generation (ms)':>16s} {'pipeline runs':>14s} "
        f"{'method':>12s}",
    ]
    for count, seconds, runs, method in tiered:
        lines.append(f"{count:5d} {seconds * 1e3:16.3f} {runs:14d} {method:>12s}")
        assert seconds < 2.0, "table generation under 2 s"
        assert runs >= 1, "a cold plan runs the EDF pipeline"
    publish("fig3_table_generation_time", "\n".join(lines), benchmark)
