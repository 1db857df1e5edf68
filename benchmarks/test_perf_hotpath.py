"""Perf-regression smoke checks for the two hot paths.

Quick-scale versions of ``benchmarks/hotpath.py``: the dispatch loop and
the planner's replanning burst, each published as events/plans per
second.  These are smoke checks, not gates — container timing is far too
noisy for hard thresholds in CI — but they do hard-assert the properties
an optimization must not break:

* same-seed simulations are bit-identical (trace fingerprints match);
* repeated replanning converges on the same table (plan fingerprint);
* the planner's core-table memo actually hits on incremental replans;
* the full-push decoder derives nothing for core blocks it accepted
  before, and its cache at least halves the decode;
* table-cache hits travel as deltas, and a one-core delta push costs at
  most 0.55 of a full push (interleaved best-of-N walls, a ratio);
* a one-tenant cache-hit replan on 175 vCPUs costs at most 2.5 times
  one on 47 (interleaved best-of-N walls, a ratio).

Full-scale numbers (and the frozen seed baseline) live in
``BENCH_hotpath.json``; regenerate with
``PYTHONPATH=src python benchmarks/hotpath.py``.
"""

from __future__ import annotations

import json

from conftest import sim_seconds, publish

from hotpath import (
    BENCH_PATH,
    SEED_BASELINE,
    bench_daemon_regeneration,
    bench_dispatch,
    bench_dispatch_backends,
    bench_full_push_decode,
    bench_plan_methods,
    bench_plan_transport,
    bench_planner,
    bench_planner_delta,
    decode_walk_payloads,
)
from repro.core import MS, Planner, edfcore, make_vm
from repro.core.serialize import deserialize
from repro.core.table import CoreTable
from repro.topology import xeon_16core

#: Full-scale (0.5 s, seed 42) reference fingerprints.  These freeze the
#: fault-free simulated behavior: the health layer, being observational,
#: must reproduce them bit for bit.
DISPATCH_FINGERPRINT_PREFIX = "eb99ea934a2278f6"
PLAN_FINGERPRINT_PREFIX = "478c6f53501c6324"
#: The every-method plan set of ``bench_plan_methods``.
PLAN_METHODS_FINGERPRINT_PREFIX = "df1fc300831db935"


def test_dispatch_throughput():
    result = bench_dispatch(sim_seconds=sim_seconds(0.1, 0.5), runs=2)
    # bench_dispatch raises if the two same-seed runs' traces diverge.
    assert result["events"] > 0
    publish(
        "perf_dispatch_hotpath",
        "dispatch-loop throughput (quick scale)\n"
        f"events/cycle      {result['events']}\n"
        f"events_per_sec    {result['events_per_sec']:.0f}\n"
        f"trace fingerprint {result['fingerprint'][:16]}",
    )


def test_planner_throughput():
    result = bench_planner(repeats=1)
    regen = bench_daemon_regeneration(cycles=4)
    assert result["plans"] == 16
    assert result["fingerprint"] is not None
    publish(
        "perf_planner_hotpath",
        "planner replanning throughput (quick scale)\n"
        f"burst plans_per_sec  {result['plans_per_sec']:.0f}\n"
        f"regen plans_per_sec  {regen['plans_per_sec']:.0f}\n"
        f"plan fingerprint     {result['fingerprint'][:16]}",
    )


def test_health_layer_preserves_fingerprints_and_throughput():
    """The supervision layer must be invisible to a fault-free machine.

    Runs the full-scale dispatch benchmark twice — bare and with the
    complete ``repro.health`` stack armed (per-core watchdogs, guarantee
    monitor, supervisor sweep) — and asserts the trace fingerprints are
    bit-identical and match the frozen reference.  Throughput is guarded
    against the frozen ``BENCH_hotpath.json`` baseline: less than 5%
    regression in dispatch events/sec.  Wall seconds are *not* compared
    across the two modes: health timers add (cheap) engine events, so
    events/sec is the like-for-like throughput metric.
    """
    bare_walls: list = []
    health_walls: list = []
    bare_fp = health_fp = None
    bare_events = health_events = 0
    # Interleave the two modes so container-load drift hits both alike.
    for _ in range(3):
        bare = bench_dispatch(sim_seconds=0.5, seed=42, runs=1)
        health = bench_dispatch(sim_seconds=0.5, seed=42, runs=1, health=True)
        assert bare_fp in (None, bare["fingerprint"])
        assert health_fp in (None, health["fingerprint"])
        bare_fp, health_fp = bare["fingerprint"], health["fingerprint"]
        bare_events, health_events = bare["events"], health["events"]
        bare_walls.append(bare["wall_s"])
        health_walls.append(health["wall_s"])

    assert bare_fp.startswith(DISPATCH_FINGERPRINT_PREFIX)
    assert health_fp == bare_fp

    plan = bench_planner(repeats=1)
    assert plan["fingerprint"].startswith(PLAN_FINGERPRINT_PREFIX)

    # The 5% gate is relative and interleaved: an absolute wall-clock
    # floor against a frozen file cannot distinguish a code regression
    # from a loaded container (the seed baseline itself had to be
    # measured interleaved for the same reason).  Best-of-N approximates
    # the unloaded cost of each mode.
    bare_eps = bare_events / min(bare_walls)
    health_eps = health_events / min(health_walls)
    assert health_eps > 0.95 * bare_eps, (
        f"health layer costs >5% dispatch throughput: "
        f"{health_eps:.0f} ev/s armed vs {bare_eps:.0f} ev/s bare"
    )
    # Against BENCH_hotpath.json only a catastrophic-regression tripwire
    # is load-safe; halving throughput fails it on any container.
    baseline = json.loads(BENCH_PATH.read_text())["after"]["dispatch"]
    assert bare_eps > 0.5 * baseline["events_per_sec"], (
        f"dispatch throughput collapsed: {bare_eps:.0f} ev/s vs frozen "
        f"baseline {baseline['events_per_sec']:.0f}"
    )
    publish(
        "perf_health_overhead",
        "health-layer overhead (full scale, 0.5 s, seed 42)\n"
        f"fingerprint        {bare_fp[:16]} (identical armed/bare)\n"
        f"bare   events/sec  {bare_eps:.0f}\n"
        f"health events/sec  {health_eps:.0f}\n"
        f"baseline events/sec {baseline['events_per_sec']:.0f}",
    )


def test_array_backend_is_bit_identical_and_clears_5x_seed():
    """ISSUE 6 acceptance: batched table playback at >= 5x seed throughput.

    Both backends run the full-scale benchmark interleaved.  Three gates:

    * exactness — the array trace fingerprint equals the object one and
      matches the frozen reference (no behavioral drift, ever);
    * relative — the array engine decisively outruns the object engine
      (measured ratio ~1.7x; the 1.4x gate leaves room for scheduling
      noise but fails if the batching advantage evaporates);
    * the 5x-vs-seed floor, load-normalized: the bar scales by how far
      the object engine itself is currently displaced from its frozen
      ``BENCH_hotpath.json`` speed, so host steal (which slows both
      backends alike) cannot fail the gate, while a real array-engine
      regression still does.  On an unloaded container the factor is
      1.0 and the full 5x floor applies.
    """
    backends = bench_dispatch_backends(sim_seconds=0.5, seed=42, rounds=3)
    obj, arr = backends["object"], backends["array"]

    assert arr["fingerprint"] == obj["fingerprint"]
    assert arr["fingerprint"].startswith(DISPATCH_FINGERPRINT_PREFIX)

    obj_eps = obj["events_per_sec"]
    arr_eps = arr["events_per_sec"]
    assert arr_eps > 1.4 * obj_eps, (
        f"array backend lost its batching advantage: {arr_eps:.0f} ev/s "
        f"vs {obj_eps:.0f} ev/s object"
    )

    seed_eps = SEED_BASELINE["dispatch"]["events_per_sec"]
    frozen_obj_eps = json.loads(BENCH_PATH.read_text())["after"]["dispatch"][
        "events_per_sec"
    ]
    load_factor = min(1.0, obj_eps / frozen_obj_eps)
    floor = 5.0 * seed_eps * load_factor
    assert arr_eps > floor, (
        f"array backend under the 5x-vs-seed floor: {arr_eps:.0f} ev/s "
        f"vs floor {floor:.0f} (load factor {load_factor:.2f})"
    )
    publish(
        "perf_array_backend",
        "array dispatch backend (full scale, 0.5 s, seed 42)\n"
        f"fingerprint       {arr['fingerprint'][:16]} (identical to object)\n"
        f"object events/sec {obj_eps:.0f}\n"
        f"array  events/sec {arr_eps:.0f} ({arr_eps / seed_eps:.1f}x seed, "
        f"{arr_eps / obj_eps:.2f}x object)\n"
        f"5x floor          {floor:.0f} (load factor {load_factor:.2f})",
    )


def test_planner_delta_matches_scratch_and_outruns_full_burst():
    """Delta replans: differential correctness plus a relative gate.

    ``bench_planner_delta`` itself raises if the churned plan drifts
    from the base fingerprint, so running it *is* the differential
    check.  The throughput gate is relative to this tree's own full
    burst (both measured here, same container load): census-diff
    replans skip census rebuilding and WFD repacking of untouched
    cores, so they must beat the full-replan burst rate.
    """
    delta = bench_planner_delta(cycles=25)
    full = bench_planner(repeats=1)
    assert delta["plans"] == 50
    assert delta["plans_per_sec"] > full["plans_per_sec"], (
        f"delta replans ({delta['plans_per_sec']:.0f}/s) no faster than "
        f"full burst ({full['plans_per_sec']:.0f}/s)"
    )
    publish(
        "perf_planner_delta",
        "census-diff (delta) replanning (quick scale)\n"
        f"delta plans_per_sec {delta['plans_per_sec']:.0f}\n"
        f"full  plans_per_sec {full['plans_per_sec']:.0f}\n"
        f"fingerprint         {delta['fingerprint'][:16]} (drift-checked)",
    )


def test_plan_transport_travels_as_deltas():
    """Zero-copy transport: steady-state churn must push 'TBLD' deltas.

    Payload size is deterministic (same census diff → same columns), so
    the 20x bytes bar is a hard gate, unlike the timing smoke above.
    A 'TBLD' delta carries only the names of the cores it carries: 650
    bytes against a 16,076-byte table (24.7x; version 1, which carried
    every name, read 13.6x).
    """
    transport = bench_plan_transport(cycles=16)
    assert transport["delta_pushes"] == transport["pushes"], (
        f"only {transport['delta_pushes']}/{transport['pushes']} churn "
        "pushes travelled as deltas"
    )
    assert transport["full_pushes"] == 1  # the boot push only
    assert transport["delta_fallbacks"] == 0
    assert transport["bytes_ratio"] >= 20.0, (
        f"delta payloads only {transport['bytes_ratio']}x smaller than "
        "a full table"
    )
    # Table-cache hits keep the committed placement: every push after
    # the boot push is a delta.
    hits = transport["cache_hit"]
    assert hits["hits"] == hits["pushes"]
    assert hits["delta_pushes"] == hits["pushes"], hits
    # Interleaved best-of-N walls: a delta carrying one of 12 busy cores
    # costs at most 0.55 of a full push of the same table (measured
    # 0.48 on a 2-vCPU x86 host, where the parent measured 0.62).
    assert transport["delta_over_full"] <= 0.55, transport["delta_over_full"]
    # A table-cache hit pays for the cores it changes: a one-tenant swap
    # on 175 vCPUs (44 guest cores) costs at most 2.5 times one on 47
    # (12 cores), interleaved best-of-9 walls.  On a 2-vCPU x86 host, 6
    # runs interleaved with the parent's, which renamed every task and
    # re-indexed every core, read 1.92-1.97 against 2.79-3.17, and
    # single runs of this test 1.89-1.95 (the vCPU ratio is 3.7).
    scaling = transport["hit_scaling"]
    assert scaling["ratio"] <= 2.5, scaling
    publish(
        "perf_plan_transport",
        "delta table transport (quick scale)\n"
        f"pushes_per_sec   {transport['pushes_per_sec']:.0f}\n"
        f"delta pushes     {transport['delta_pushes']}/{transport['pushes']}\n"
        f"payload bytes    {transport['delta_bytes']} vs "
        f"{transport['full_table_bytes']} full "
        f"({transport['bytes_ratio']}x smaller)\n"
        f"cache-hit deltas {hits['delta_pushes']}/{hits['pushes']}\n"
        f"delta over full  {transport['delta_over_full']}\n"
        f"hit scaling      {scaling['large_us']} / {scaling['small_us']} us "
        f"({scaling['ratio']}x for {scaling['vcpus'][1]} / "
        f"{scaling['vcpus'][0]} vCPUs)",
    )


def test_full_push_decode_cache(monkeypatch):
    """The decoder's cache of accepted core blocks: two bars.

    Deterministic: once a warm pass has decoded the walk, a second pass
    over the same payloads derives no slice table.  Timed, interleaved
    and best of N: a warm decode of the walk takes at most half a cold
    one (measured 0.27-0.32x on a 2-vCPU x86 host).
    """
    result = bench_full_push_decode()
    derived = []
    original = CoreTable.derive_slices

    def counting(self, starts, ends, slice_len):
        derived.append(self)
        original(self, starts, ends, slice_len)

    # The benchmark's last pass was warm: every block of the walk is held.
    monkeypatch.setattr(CoreTable, "derive_slices", counting)
    for payload in decode_walk_payloads():
        deserialize(payload)
    assert derived == []
    assert result["warm_over_cold"] <= 0.5, (
        f"warm decode {result['warm_us_per_push']} us/push is more than half "
        f"of cold {result['cold_us_per_push']} us/push"
    )
    publish(
        "perf_full_push_decode",
        "full-push decode, cache of accepted core blocks\n"
        f"pushes            {result['pushes']} ({result['cores']} cores)\n"
        f"hit share         {result['hit_share']}\n"
        f"cold us/push      {result['cold_us_per_push']}\n"
        f"warm us/push      {result['warm_us_per_push']} "
        f"({result['warm_over_cold']}x cold)",
    )


def test_incremental_replan_hits_core_cache():
    # The shape cache is process-wide: clear it so the first plan is cold.
    edfcore._SHAPE_CACHE.clear()
    planner = Planner(xeon_16core())
    planner.plan([make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(40)])
    assert planner.core_cache_hits == 0
    misses_first = planner.core_cache_misses
    # One more VM: only the cores receiving new tasks should re-simulate.
    planner.plan([make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(41)])
    assert planner.core_cache_hits > 0
    assert planner.core_cache_misses - misses_first < misses_first


def test_plan_methods_digest_is_frozen():
    result = bench_plan_methods()
    assert result["methods"] == {
        "partitioned": 4,
        "semi-partitioned": 4,
        "clustered": 4,
    }
    assert result["fingerprint"].startswith(PLAN_METHODS_FINGERPRINT_PREFIX)
