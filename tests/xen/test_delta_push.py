"""The delta table push: changed per-core columns only (zero-copy).

Covers both ends of the 'TBLD' transport: the hypercall's validation
and base-token protocol, the daemon's eligibility gating plus the
mismatch → full-push fallback, the reason each full push is counted
under, and a table-cache hit that keeps the committed placement.
"""

import struct

import pytest

from repro.core import (
    METHOD_PARTITIONED,
    MS,
    CensusDelta,
    Planner,
    make_vm,
    serialize,
)
from repro.core.serialize import deserialize_delta, serialize_delta
from repro.core.table import CoreTable, SystemTable
from repro.errors import TableDeltaMismatchError, TableFormatError
from repro.faults import FaultPlan
from repro.schedulers import TableauScheduler
from repro.topology import uniform, xeon_16core
from repro.xen import PlannerDaemon, TableHypercall
from repro.xen.daemon import (
    FULL_DELTA_BOUNCED,
    FULL_GEOMETRY,
    FULL_METHOD,
    FULL_NO_BASE,
    FULL_OVER_HALF,
    FULL_PUSH_REASONS,
)


def census(count, prefix="vm"):
    return [make_vm(f"{prefix}{i:02d}", 0.25, 20 * MS) for i in range(count)]


def build_daemon(topo=None, **daemon_kwargs):
    topo = topo or uniform(4)
    sched = TableauScheduler(SystemTable(length_ns=MS, cores={}))
    hypercall = TableHypercall(sched)
    daemon = PlannerDaemon(topo, hypercall=hypercall, **daemon_kwargs)
    return daemon, hypercall, sched


def changed_cores(before, after):
    """Cores whose schedule differs between two plans' tables."""
    return {
        cpu
        for cpu, core in after.table.cores.items()
        if not core.same_schedule(before.table.cores[cpu])
    }


class TestHypercallDeltaProtocol:
    def test_delta_before_any_push_is_a_mismatch(self):
        _, hypercall, _ = build_daemon()
        plan = Planner(uniform(4)).plan(census(4))
        payload = serialize_delta(plan.table, [], 0)
        with pytest.raises(TableDeltaMismatchError, match="no previously pushed"):
            hypercall.push_table_delta(payload)
        assert not hypercall.pushes  # nothing staged

    def test_stale_base_token_rejected(self):
        daemon, hypercall, _ = build_daemon()
        daemon.replan(census(4), "boot")
        plan = daemon.current_plan
        stale = serialize_delta(plan.table, [], hypercall.delta_generation - 1)
        with pytest.raises(TableDeltaMismatchError, match="base token"):
            hypercall.push_table_delta(stale)

    def test_length_mismatch_rejected(self):
        daemon, hypercall, _ = build_daemon()
        daemon.replan(census(4), "boot")
        other = Planner(uniform(4), hyperperiod_ns=200 * MS).plan(
            [make_vm("odd", 0.3, 30 * MS)]
        )
        assert other.table.length_ns != daemon.current_plan.table.length_ns
        payload = serialize_delta(other.table, [], hypercall.delta_generation)
        with pytest.raises(TableDeltaMismatchError, match="length"):
            hypercall.push_table_delta(payload)

    def test_unknown_core_rejected(self):
        daemon, hypercall, _ = build_daemon()
        daemon.replan(census(4), "boot")
        base = daemon.current_plan.table
        ghost_cpu = max(base.cores) + 17
        ghost = SystemTable(
            length_ns=base.length_ns,
            cores=dict(base.cores),
        )
        # Hand-build a delta naming a core the base does not have.
        donor_cpu = next(iter(base.cores))
        donor = base.cores[donor_cpu]
        ghost.cores[ghost_cpu] = donor
        payload = serialize_delta(ghost, [ghost_cpu], hypercall.delta_generation)
        with pytest.raises(TableDeltaMismatchError, match="absent from the base"):
            hypercall.push_table_delta(payload)

    def test_successful_delta_shares_unchanged_cores(self):
        daemon, hypercall, sched = build_daemon(xeon_16core())
        vms = census(44)
        boot = daemon.replan(vms, "boot")
        base_staged = hypercall.staged_table
        grown = daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        record = daemon.history[-1].push
        assert record.delta
        staged = hypercall.staged_table
        changed = changed_cores(boot, grown)
        assert changed  # the create really did repack something
        for cpu, core in staged.cores.items():
            if cpu not in changed:
                assert core is base_staged.cores[cpu]

    def test_zero_core_delta_for_identical_replan(self):
        daemon, hypercall, _ = build_daemon(xeon_16core())
        vms = census(44)
        daemon.replan(vms, "boot")
        full_bytes = daemon.history[-1].push.table_bytes
        daemon.replan(vms, "regen")
        record = daemon.history[-1].push
        assert record.delta
        assert record.table_bytes < full_bytes // 4

    def test_generation_token_advances_per_push(self):
        daemon, hypercall, _ = build_daemon()
        daemon.replan(census(4), "boot")
        daemon.replan(census(5), "grow")
        daemon.replan(census(5), "noop")
        assert hypercall.delta_generation == 3
        assert len(hypercall.pushes) == 3

    def test_corrupt_delta_payload_is_a_format_error(self):
        daemon, hypercall, _ = build_daemon()
        daemon.replan(census(4), "boot")
        plan = daemon.current_plan
        payload = serialize_delta(plan.table, [], hypercall.delta_generation)
        garbled = b"TBLX" + payload[4:]
        with pytest.raises(TableFormatError):
            hypercall.push_table_delta(garbled)


def delta_payload(length_ns, names, token, cpu, ends, handles, version=2):
    """A hand-built one-core 'TBLD' payload with the given raw columns;
    ``handles`` index ``names``, the payload's own string table."""
    chunks = [
        struct.pack("<4sHHQII", b"TBLD", version, 1, length_ns, len(names), token)
    ]
    for name in names:
        chunks.append(struct.pack("<H", len(name)) + name.encode())
    chunks.append(struct.pack("<II", cpu, len(ends)))
    chunks.append(struct.pack(f"<{len(ends)}q", *ends))
    chunks.append(struct.pack(f"<{len(handles)}q", *handles))
    return b"".join(chunks)


class TestMalformedDeltaColumns:
    """Segment columns must cover the cycle: strictly increasing ends that
    finish at the table length, handles -1 (idle) or a vCPU index."""

    @staticmethod
    def pushed():
        daemon, hypercall, sched = build_daemon()
        daemon.replan(census(4), "boot")
        return hypercall, sched, hypercall.staged_table

    def crafted(self, hypercall, base, ends, handles, names=None, **kwargs):
        """A delta for the lowest cpu, ``ends`` in 1/10,000ths of the
        table; the string table is ``names``, by default the first vCPU
        of the base's index (served only on that cpu)."""
        length = base.length_ns
        return delta_payload(
            length,
            [base.vcpu_names[0]] if names is None else names,
            hypercall.delta_generation,
            min(base.cores),
            [end * length // 10_000 for end in ends],
            handles,
            **kwargs,
        )

    def test_well_formed_crafted_delta_is_staged(self):
        # The control: the same crafting, with valid columns, is accepted
        # (handle 0 is the first vCPU on the lowest cpu, served only there).
        hypercall, _, base = self.pushed()
        assert base.home_cores[base.vcpu_names[0]] == [min(base.cores)]
        payload = self.crafted(hypercall, base, [2_500, 6_000, 10_000], [0, -1, 0])
        assert hypercall.push_table_delta(payload).delta
        staged = hypercall.staged_table
        rebuilt = SystemTable(length_ns=staged.length_ns, cores=dict(staged.cores))
        assert staged.vcpu_names == rebuilt.vcpu_names
        assert list(staged.home_cores.items()) == list(rebuilt.home_cores.items())

    def test_version_1_payload_rejected_untouched(self):
        # Version 1 carried the whole census's string table; its payloads
        # are refused, not read as version 2.
        hypercall, sched, base = self.pushed()
        payload = self.crafted(
            hypercall, base, [2_500, 6_000, 10_000], [0, -1, 0], version=1
        )
        with pytest.raises(TableFormatError, match="version 1"):
            hypercall.push_table_delta(payload)
        assert hypercall.staged_table is base
        assert sched.pending_table is base

    def test_repeated_name_in_the_string_table_rejected(self):
        # Two handles of one name would give it two ids on one core, and
        # the patched vCPU index holds each name once.
        hypercall, sched, base = self.pushed()
        name = base.vcpu_names[0]
        payload = self.crafted(
            hypercall, base, [2_500, 6_000, 10_000], [0, -1, 1], names=[name, name]
        )
        with pytest.raises(TableFormatError, match="listed twice"):
            deserialize_delta(payload)
        with pytest.raises(TableFormatError, match="listed twice"):
            hypercall.push_table_delta(payload)
        assert hypercall.staged_table is base
        assert sched.pending_table is base

    @pytest.mark.parametrize(
        "ends, handles",
        [
            ([5_000, 2_500, 10_000], [-1, -1, 0]),  # backwards inside idle
            ([2_500, 6_000], [0, -1]),  # stops short of the table length
            ([5_000, 12_000], [0, -1]),  # idle segment runs past the length
            ([5_000, 10_000], [0, -2]),  # handle below -1
        ],
    )
    def test_malformed_columns_rejected_untouched(self, ends, handles):
        hypercall, sched, base = self.pushed()
        payload = self.crafted(hypercall, base, ends, handles)
        with pytest.raises(TableFormatError):
            deserialize_delta(payload)
        pushes = list(hypercall.pushes)
        generation = hypercall.delta_generation
        with pytest.raises(TableFormatError):
            hypercall.push_table_delta(payload)
        assert hypercall.staged_table is base
        assert sched.pending_table is base
        assert hypercall.pushes == pushes
        assert hypercall.delta_generation == generation
        assert hypercall.retired_unactivated == 0

    @staticmethod
    def served_elsewhere(base):
        """A vCPU that a core other than the lowest serves, and when."""
        changed = min(base.cores)
        name = next(n for n in base.vcpu_names if changed not in base.home_cores[n])
        (home,) = base.home_cores[name]
        return name, home, base.cores[home].service_intervals(name)

    def test_parallel_service_rejected_untouched(self):
        # Well-formed columns, but the changed core serves a vCPU that an
        # unchanged core also serves: a structural rejection, typed like
        # the full push's.
        hypercall, sched, base = self.pushed()
        name, _home, _intervals = self.served_elsewhere(base)
        payload = self.crafted(hypercall, base, [10_000], [0], names=[name])
        serving = sched.table
        pushes = list(hypercall.pushes)
        generation = hypercall.delta_generation
        with pytest.raises(TableFormatError, match="two cores"):
            hypercall.push_table_delta(payload)
        assert sched.table is serving
        assert hypercall.staged_table is base
        assert sched.pending_table is base
        assert hypercall.pushes == pushes
        assert hypercall.delta_generation == generation
        assert hypercall.retired_unactivated == 0

    def test_second_home_without_overlap_is_staged(self):
        # The same vCPU on the changed core, but only while its kept home
        # core leaves it idle: staged, with both homes in time order.
        hypercall, _, base = self.pushed()
        name, home, intervals = self.served_elsewhere(base)
        # Its first idle stretch between two allocations on its home core.
        gap_start, gap_end = next(
            (end, start)
            for (_s, end), (start, _e) in zip(intervals, intervals[1:])
            if start > end
        )
        changed = min(base.cores)
        length = base.length_ns
        payload = delta_payload(
            length,
            [name],
            hypercall.delta_generation,
            changed,
            [gap_start, gap_end, length],
            [-1, 0, -1],
        )
        assert hypercall.push_table_delta(payload).delta
        staged = hypercall.staged_table
        assert staged.home_cores[name] == [home, changed]
        rebuilt = SystemTable(length_ns=length, cores=dict(staged.cores))
        assert staged.vcpu_names == rebuilt.vcpu_names
        assert list(staged.home_cores.items()) == list(rebuilt.home_cores.items())


class TestDaemonDeltaGating:
    def test_boot_push_is_full(self):
        daemon, _, _ = build_daemon()
        daemon.replan(census(4), "boot")
        assert daemon.full_pushes == 1
        assert daemon.delta_pushes == 0
        assert not daemon.history[-1].push.delta

    def test_small_change_travels_as_delta(self):
        daemon, _, _ = build_daemon(xeon_16core())
        vms = census(44)
        daemon.replan(vms, "boot")
        daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        assert daemon.delta_pushes == 1
        assert daemon.delta_fallbacks == 0

    def test_semi_partitioned_plan_forces_full_push(self):
        daemon, _, _ = build_daemon(uniform(2))
        awkward = [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]
        daemon.replan(awkward[:2], "boot")
        daemon.replan(awkward, "grow")  # escalates to semi-partitioning
        assert daemon.delta_pushes == 0
        assert daemon.full_pushes == 2

    def test_peephole_plan_travels_as_delta(self):
        # The peephole pass rewrites each core on its own, so a
        # partitioned peephole plan is a per-core delta like any other.
        topo = uniform(4)
        sched = TableauScheduler(SystemTable(length_ns=MS, cores={}))
        hypercall = TableHypercall(sched)
        daemon = PlannerDaemon(topo, hypercall=hypercall, peephole=True)
        # Mixed latency goals fragment EDF, so the pass has work to do.
        vms = [make_vm(f"tight{i}", 0.3, 2 * MS) for i in range(4)]
        vms += [make_vm(f"loose{i}", 0.5, 100 * MS) for i in range(4)]
        daemon.replan(vms, "boot")
        result = daemon.replan(vms + [make_vm("vm99", 0.1, 20 * MS)], "create")
        assert result.stats.method == METHOD_PARTITIONED
        assert result.stats.peephole.swaps_applied > 0
        assert daemon.delta_pushes == 1
        assert daemon.full_pushes == 1
        assert daemon.history[-1].push.delta
        staged = hypercall.staged_table
        assert set(staged.cores) == set(result.table.cores)
        for cpu, core in result.table.cores.items():
            assert staged.cores[cpu].allocations == core.allocations

    def test_stale_base_falls_back_to_full_push(self):
        daemon, hypercall, _ = build_daemon(xeon_16core())
        vms = census(44)
        daemon.replan(vms, "boot")
        # Another writer advances the generation behind the daemon.
        hypercall.push_system_table(daemon.current_plan.table)
        daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        assert daemon.delta_fallbacks == 1
        assert daemon.full_pushes == 2
        assert daemon.history[-1].committed
        # Re-synced: the next incremental change deltas again.
        daemon.replan(vms, "destroy")
        assert daemon.delta_pushes == 1

    def test_delta_and_full_tables_dispatch_identically(self):
        # The staged table assembled from a delta must equal the one a
        # full push of the same plan would install.
        daemon, hypercall, _ = build_daemon(xeon_16core())
        vms = census(44)
        daemon.replan(vms, "boot")
        grown = vms + [make_vm("vm44", 0.25, 20 * MS)]
        daemon.replan(grown, "create")
        staged = hypercall.staged_table
        scratch = Planner(xeon_16core()).plan(grown)
        assert staged.length_ns == scratch.table.length_ns
        assert set(staged.cores) == set(scratch.table.cores)
        for cpu, core in scratch.table.cores.items():
            assert staged.cores[cpu].allocations == core.allocations
        staged.validate()


class TestDeltaPlannerIntegration:
    def test_census_delta_replan_pushes_only_changed_columns(self):
        # End-to-end: CensusDelta at the planner, 'TBLD' on the wire.
        daemon, hypercall, _ = build_daemon(xeon_16core())
        vms = census(44)
        boot = daemon.replan(vms, "boot")
        planner = daemon.planner
        delta_result = planner.plan(
            CensusDelta(create=[make_vm("vm44", 0.25, 20 * MS)])
        )
        # Only the cores whose schedule changed travel.
        changed = sorted(changed_cores(boot, delta_result))
        assert 1 <= len(changed) < len(delta_result.table.cores)
        payload = serialize_delta(
            delta_result.table, changed, hypercall.delta_generation
        )
        full = serialize(delta_result.table)
        assert len(payload) < len(full) // 4
        record = hypercall.push_table_delta(payload)
        assert record.delta


class TestFullPushReasons:
    """Each full push is counted under one reason, and the counts sum to
    ``full_pushes``."""

    @staticmethod
    def reasons(daemon, **counts):
        expected = dict.fromkeys(FULL_PUSH_REASONS, 0)
        expected.update(counts)
        assert daemon.full_push_reasons == expected
        assert sum(daemon.full_push_reasons.values()) == daemon.full_pushes

    def test_boot_push_has_no_base(self):
        daemon, _, _ = build_daemon()
        daemon.replan(census(4), "boot")
        self.reasons(daemon, **{FULL_NO_BASE: 1})

    def test_semi_partitioned_plan_is_a_method_push(self):
        daemon, _, _ = build_daemon(uniform(2))
        awkward = [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]
        daemon.replan(awkward[:2], "boot")
        daemon.replan(awkward, "grow")
        self.reasons(daemon, **{FULL_NO_BASE: 1, FULL_METHOD: 1})

    def test_new_table_length_is_a_geometry_push(self):
        daemon, _, _ = build_daemon()
        daemon.replan(census(4), "boot")
        daemon.planner = Planner(uniform(4), hyperperiod_ns=200 * MS)
        daemon.replan(census(4), "retime")
        self.reasons(daemon, **{FULL_NO_BASE: 1, FULL_GEOMETRY: 1})

    def test_repack_of_most_cores_is_an_over_half_push(self):
        daemon, _, _ = build_daemon()
        daemon.replan(census(4), "boot")
        daemon.replan([make_vm(f"big{i}", 0.6, 50 * MS) for i in range(4)], "swap")
        self.reasons(daemon, **{FULL_NO_BASE: 1, FULL_OVER_HALF: 1})

    def test_over_half_push_stops_comparing_past_half(self, monkeypatch):
        daemon, _, _ = build_daemon(xeon_16core())
        daemon.replan(census(24), "boot")
        compared = []
        same_schedule = CoreTable.same_schedule

        def counted(core, other):
            compared.append(core.cpu)
            return same_schedule(core, other)

        monkeypatch.setattr(CoreTable, "same_schedule", counted)
        swapped = [make_vm(f"big{i:02d}", 0.6, 50 * MS) for i in range(12)]
        result = daemon.replan(swapped, "swap")
        cores = len(result.table.cores)
        assert cores == 12
        # Every core changed, so the push went in full after at most
        # floor(n/2) + 1 comparisons.
        assert len(compared) <= cores // 2 + 1
        self.reasons(daemon, **{FULL_NO_BASE: 1, FULL_OVER_HALF: 1})

    def test_bounced_delta_is_counted_once(self):
        daemon, hypercall, _ = build_daemon(xeon_16core())
        vms = census(44)
        daemon.replan(vms, "boot")
        hypercall.push_system_table(daemon.current_plan.table)
        daemon.replan(vms + [make_vm("vm44", 0.25, 20 * MS)], "create")
        assert daemon.delta_fallbacks == 1
        self.reasons(daemon, **{FULL_NO_BASE: 1, FULL_DELTA_BOUNCED: 1})


class TestCacheHitKeepsPlacement:
    """A table-cache hit rebound against the committed plan leaves that
    plan's cores where they were, so the push is a small delta."""

    def test_swapping_one_tenant_pushes_a_small_delta(self):
        daemon, hypercall, _ = build_daemon(xeon_16core(), cache=True)
        vms = census(44)
        boot = daemon.replan(vms, "boot")
        swapped = vms[:10] + [make_vm("new10", 0.25, 20 * MS)] + vms[11:]
        result = daemon.replan(swapped, "swap")
        assert daemon.cache.stats.hits == 1
        record = daemon.history[-1].push
        assert record.delta
        changed = changed_cores(boot, result)
        assert 1 <= len(changed) <= 2
        for cpu, core in result.table.cores.items():
            if cpu not in changed:
                assert core is boot.table.cores[cpu]
        staged = hypercall.staged_table
        assert staged.vcpu_names == result.table.vcpu_names
        assert staged.home_cores == result.table.home_cores
        for cpu, core in result.table.cores.items():
            assert staged.cores[cpu].allocations == core.allocations
        assert serialize(staged) == serialize(result.table)
        # And back: the next hit keeps this placement in turn.
        daemon.replan(vms, "swap back")
        assert daemon.cache.stats.hits == 2
        assert daemon.delta_pushes == 2
        assert daemon.full_push_reasons[FULL_NO_BASE] == daemon.full_pushes == 1
