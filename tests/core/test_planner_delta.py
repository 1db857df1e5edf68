"""Differential suite: delta replans must equal from-scratch plans.

The columnar planner's delta path (``Planner.plan(CensusDelta)``) reuses
core tables WFD did not repack.  The contract pinned here: for every
census-diff sequence, the delta-accumulated plan and a cold planner's
from-scratch plan of the same census are *equal* — same method, same
allocations, identical plan fingerprint — across all four schedulers'
census flavors, three seeds, and create/reconfigure/destroy sequences
(including replanning on top of a recovered service, the PR-8 replay
path).
"""

import hashlib
import random

import pytest

from repro.core import (
    METHOD_PARTITIONED,
    METHOD_SEMI_PARTITIONED,
    MS,
    CensusDelta,
    Planner,
    make_vm,
)
from repro.errors import PlanningError
from repro.experiments.scenarios import SCHEDULERS
from repro.topology import uniform

#: Capping mode per scheduler (rtds is capped-only, credit2 uncapped;
#: the flag flows into every VCpuSpec and thus into planning).
CAPPED = {"tableau": False, "credit": True, "credit2": False, "rtds": True}
SEEDS = (101, 202, 303)

UTILS = (0.1, 0.15, 0.2, 0.25)
LATENCIES = (10 * MS, 20 * MS, 50 * MS)


def plan_fingerprint(result) -> str:
    """sha256 over every allocation, core-sorted (matches benchmarks)."""
    hasher = hashlib.sha256()
    for cpu in sorted(result.table.cores):
        for alloc in result.table.cores[cpu].allocations:
            hasher.update(f"{cpu}:{alloc.start}:{alloc.end}:{alloc.vcpu};".encode())
    return hasher.hexdigest()


def base_census(scheduler, seed, count=10):
    rng = random.Random(seed)
    return [
        make_vm(
            f"{scheduler}-s{seed}-vm{i:02d}",
            rng.choice(UTILS),
            rng.choice(LATENCIES),
            capped=CAPPED[scheduler],
        )
        for i in range(count)
    ]


def mutation_steps(census, scheduler, seed, steps=6):
    """A deterministic create/reconfigure/destroy sequence.

    Yields ``(delta, census)`` pairs: the ``CensusDelta`` for the live
    planner and the full census after applying it (for the from-scratch
    control plan).  ``census`` is mutated in place across steps.
    """
    rng = random.Random(seed * 7919 + 13)
    capped = CAPPED[scheduler]
    serial = 0
    for step in range(steps):
        op = rng.choice(("create", "reconfigure", "destroy"))
        if op == "destroy" and len(census) <= 4:
            op = "create"
        if op == "create":
            vm = make_vm(
                f"{scheduler}-s{seed}-new{serial}",
                rng.choice(UTILS),
                rng.choice(LATENCIES),
                capped=capped,
            )
            serial += 1
            delta = CensusDelta(create=[vm])
            census.append(vm)
        elif op == "reconfigure":
            index = rng.randrange(len(census))
            old = census[index]
            vm = make_vm(
                old.name, rng.choice(UTILS), rng.choice(LATENCIES), capped=capped
            )
            delta = CensusDelta(reconfigure=[vm])
            census[index] = vm
        else:
            index = rng.randrange(len(census))
            victim = census.pop(index)
            delta = CensusDelta(destroy=[victim.name])
        yield delta, census


def assert_plans_equal(live, scratch):
    assert live.stats.method == scratch.stats.method
    assert live.table.length_ns == scratch.table.length_ns
    assert set(live.table.cores) == set(scratch.table.cores)
    for cpu, core in scratch.table.cores.items():
        assert live.table.cores[cpu].allocations == core.allocations
    assert set(live.vcpus) == set(scratch.vcpus)
    assert plan_fingerprint(live) == plan_fingerprint(scratch)


class TestDeltaEqualsScratch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_census_diff_sequence(self, scheduler, seed):
        topo = uniform(4)
        census = base_census(scheduler, seed)
        live_planner = Planner(topo)
        previous = live_planner.plan(list(census))
        kept = 0
        for delta, full in mutation_steps(census, scheduler, seed):
            live = live_planner.plan(delta)
            scratch = Planner(topo).plan(list(full))
            assert_plans_equal(live, scratch)
            # A core handed the same tasks as in the previous plan holds
            # the same schedule, which the daemon's delta push leaves out.
            clustered = set(live.stats.cluster_cores) | set(
                previous.stats.cluster_cores
            )
            for cpu, core in live.table.cores.items():
                if cpu in clustered or cpu not in previous.assignment:
                    continue
                if live.assignment.get(cpu) == previous.assignment[cpu]:
                    assert core.same_schedule(previous.table.cores[cpu])
                    kept += 1
            previous = live
        assert kept > 0

    def test_combined_delta_matches_hand_edit(self):
        topo = uniform(4)
        census = base_census("tableau", 7)
        planner = Planner(topo)
        planner.plan(list(census))
        created = make_vm("combo-new", 0.2, 20 * MS)
        reconf = make_vm(census[3].name, 0.25, 10 * MS)
        doomed = census[0].name
        live = planner.plan(
            CensusDelta(create=[created], reconfigure=[reconf], destroy=[doomed])
        )
        edited = [reconf if vm.name == reconf.name else vm for vm in census[1:]]
        edited.append(created)
        scratch = Planner(topo).plan(edited)
        assert_plans_equal(live, scratch)

    def test_delta_without_base_census_is_refused(self):
        planner = Planner(uniform(2))
        with pytest.raises(PlanningError, match="without a base census"):
            planner.plan(CensusDelta(create=[make_vm("vm0", 0.25, 20 * MS)]))

    def test_semi_partitioned_delta_matches_scratch(self):
        # Splits couple cores; the delta path must still land on the
        # exact from-scratch plan when the method escalates.
        topo = uniform(2)
        census = [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(2)]
        planner = Planner(topo)
        planner.plan(list(census))
        census.append(make_vm("vm2", 0.6, 100 * MS))
        live = planner.plan(CensusDelta(create=[census[-1]]))
        scratch = Planner(topo).plan(list(census))
        assert live.stats.method == METHOD_SEMI_PARTITIONED
        assert_plans_equal(live, scratch)

    def test_peephole_delta_matches_scratch(self):
        topo = uniform(4)
        census = base_census("tableau", 11)
        planner = Planner(topo, peephole=True)
        planner.plan(list(census))
        census.append(make_vm("peep-new", 0.25, 20 * MS))
        live = planner.plan(CensusDelta(create=[census[-1]]))
        scratch = Planner(topo, peephole=True).plan(list(census))
        assert_plans_equal(live, scratch)


class TestRecoveredServiceDelta:
    def test_delta_on_recovered_daemon_matches_scratch(self, tmp_path):
        """PR-8 replay path: a recovered daemon's planner (warm from
        journal replay) must delta-plan to the same table a cold
        planner produces from scratch."""
        from repro.core.params import vms_from_tiers
        from repro.crashpoints import CRASH_SERVICE_FLUSH_POST_PUSH
        from repro.faults import CrashPlan
        from repro.service import ChurnConfig, ServiceConfig, crash_recover_resume
        from repro.topology import uniform as uniform_topo

        outcome = crash_recover_resume(
            uniform_topo(8),
            20.0,
            tmp_path / "wal.bin",
            CrashPlan.at(CRASH_SERVICE_FLUSH_POST_PUSH, call=2, seed=42),
            churn=ChurnConfig(seed=42, arrival_rate_per_s=6.0, target_population=10),
            config=ServiceConfig(batch_window_ms=1000.0),
        )
        service = outcome.service
        assert outcome.crash_count == 1
        census = vms_from_tiers(
            sorted(service.committed.items()), tiers=service.config.tiers
        )
        if not census:
            pytest.skip("churn drained the census; nothing to delta-plan")
        recovered_planner = service.daemon.planner
        recovered_planner.plan(list(census))
        census.append(make_vm("post-recovery", 0.125, 100 * MS))
        live = recovered_planner.plan(CensusDelta(create=[census[-1]]))
        scratch = Planner(uniform_topo(8)).plan(list(census))
        assert_plans_equal(live, scratch)
        assert live.stats.method == METHOD_PARTITIONED
