"""Tests for table data structures: slice tables, lookups, blackout."""

import pickle
from array import array

import pytest

from repro.core.serialize import deserialize, serialize
from repro.core.table import Allocation, CoreTable, Segments, SystemTable
from repro.errors import ConfigurationError, PlanningError


def core_table(allocs, length=10_000, cpu=0):
    table = CoreTable(
        cpu=cpu,
        length_ns=length,
        allocations=[Allocation(s, e, v) for s, e, v in allocs],
    )
    table.validate_layout()
    return table


class TestAllocation:
    def test_length(self):
        assert Allocation(100, 350, "v").length == 250

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            Allocation(100, 100, "v")

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            Allocation(-1, 100, "v")


class TestLayoutValidation:
    def test_overlap_detected(self):
        table = CoreTable(
            cpu=0,
            length_ns=1_000,
            allocations=[Allocation(0, 500, "a"), Allocation(400, 800, "b")],
        )
        with pytest.raises(PlanningError):
            table.validate_layout()

    def test_allocation_beyond_table_detected(self):
        table = CoreTable(cpu=0, length_ns=1_000, allocations=[Allocation(0, 2_000, "a")])
        with pytest.raises(PlanningError):
            table.validate_layout()


class TestSliceTable:
    def test_slice_len_equals_shortest_allocation(self):
        table = core_table([(0, 1_000, "a"), (2_000, 2_500, "b"), (5_000, 9_000, "c")])
        table.build_slices()
        assert table.slice_len_ns == 500

    def test_at_most_two_allocations_per_slice(self):
        # The paper's key invariant for O(1) dispatch.
        table = core_table(
            [(0, 700, "a"), (700, 1_400, "b"), (1_500, 2_200, "c"), (2_300, 9_100, "d")]
        )
        table.build_slices()
        # The slice table is flat: first then second entry per slice.
        for first in table.slices[0::2]:
            assert first != -2  # never needs the fallback path
        # Reconstruct overlap counts independently.
        for index in range(len(table.slices) // 2):
            lo = index * table.slice_len_ns
            hi = min(lo + table.slice_len_ns, table.length_ns)
            overlapping = [
                a for a in table.allocations if a.start < hi and a.end > lo
            ]
            assert len(overlapping) <= 2

    def test_lookup_hits_correct_allocation(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        assert table.lookup(500).vcpu == "a"
        assert table.lookup(2_500).vcpu == "b"

    def test_lookup_idle_gap_returns_none(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        assert table.lookup(1_500) is None
        assert table.lookup(3_500) is None

    def test_lookup_wraps_modulo_table_length(self):
        table = core_table([(0, 1_000, "a")])
        table.build_slices()
        assert table.lookup(10_500).vcpu == "a"  # 10_500 % 10_000 = 500
        assert table.lookup(123 * 10_000 + 999).vcpu == "a"

    def test_lookup_boundary_semantics(self):
        table = core_table([(1_000, 2_000, "a")])
        table.build_slices()
        assert table.lookup(1_000).vcpu == "a"  # inclusive start
        assert table.lookup(2_000) is None  # exclusive end

    def test_lookup_matches_linear_scan_everywhere(self):
        table = core_table(
            [(0, 600, "a"), (600, 1_800, "b"), (2_500, 3_100, "c"), (4_000, 9_999, "d")]
        )
        table.build_slices()
        for t in range(0, 10_000, 37):
            expected = next(
                (a for a in table.allocations if a.start <= t < a.end), None
            )
            assert table.lookup(t) == expected

    def test_idle_core_single_slice(self):
        table = core_table([])
        table.build_slices()
        assert table.slices == array("i", [-1, -1])
        assert table.lookup(1_234) is None

    def test_min_slice_floor_falls_back_to_search(self):
        table = core_table([(0, 10, "a"), (5_000, 9_000, "b")])
        table.build_slices(min_slice_len_ns=1_000)
        assert table.lookup(5).vcpu == "a"
        assert table.lookup(6_000).vcpu == "b"
        assert table.lookup(20) is None


class TestNextBoundary:
    def test_inside_allocation_returns_its_end(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        assert table.next_boundary(500) == 1_000

    def test_in_gap_returns_next_start(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        assert table.next_boundary(1_500) == 2_000

    def test_after_last_allocation_wraps(self):
        table = core_table([(0, 1_000, "a")])
        table.build_slices()
        assert table.next_boundary(5_000) == 10_000

    def test_strictly_increasing(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        t = 0
        for _ in range(10):
            nxt = table.next_boundary(t)
            assert nxt > t
            t = nxt


class TestSystemTable:
    def _system(self):
        return SystemTable(
            length_ns=10_000,
            cores={
                0: core_table([(0, 2_500, "a"), (2_500, 5_000, "b")]),
                1: core_table([(0, 5_000, "c"), (6_000, 7_000, "a")], cpu=1),
            },
        )

    def test_vcpu_index_built(self):
        system = self._system()
        assert set(system.vcpu_names) == {"a", "b", "c"}

    def test_home_cores_ordered_by_first_allocation(self):
        system = self._system()
        assert system.home_cores["a"] == [0, 1]
        assert system.core_of("a") == 0

    def test_home_cores_one_entry_per_core(self):
        # Several allocations per core, cores supplied out of order: each
        # core appears once per vCPU, ordered by its first allocation.
        system = SystemTable(
            length_ns=10_000,
            cores={
                2: core_table(
                    [(0, 1_000, "a"), (1_000, 2_000, "b"), (4_000, 5_000, "a")],
                    cpu=2,
                ),
                0: core_table(
                    [(3_000, 4_000, "a"), (5_000, 6_000, "b"), (7_000, 8_000, "a")]
                ),
            },
        )
        assert system.vcpu_names == ["a", "b"]
        assert system.home_cores == {"a": [2, 0], "b": [2, 0]}

    def test_split_detection(self):
        system = self._system()
        assert system.is_split("a")
        assert not system.is_split("b")

    def test_allocated_ns_sums_across_cores(self):
        system = self._system()
        assert system.allocated_ns("a") == 2_500 + 1_000

    def test_utilization_of(self):
        system = self._system()
        assert system.utilization_of("b") == pytest.approx(0.25)

    def test_max_blackout_includes_wraparound(self):
        system = SystemTable(
            length_ns=10_000, cores={0: core_table([(4_000, 5_000, "x")])}
        )
        # Gap from 5_000 to 14_000 across the wrap.
        assert system.max_blackout_ns("x") == 9_000

    def test_blackout_of_unserved_vcpu_is_two_cycles(self):
        system = self._system()
        assert system.max_blackout_ns("ghost") == 2 * system.length_ns

    def test_overlapping_service_detected(self):
        system = SystemTable(
            length_ns=10_000,
            cores={
                0: core_table([(0, 2_000, "x")]),
                1: core_table([(1_000, 3_000, "x")], cpu=1),
            },
        )
        assert system.overlapping_service()
        with pytest.raises(PlanningError):
            system.validate()

    def test_validate_checks_core_lengths(self):
        bad = SystemTable(
            length_ns=10_000,
            cores={0: CoreTable(cpu=0, length_ns=5_000, allocations=[])},
        )
        with pytest.raises(PlanningError):
            bad.validate()

    def test_service_timeline_ordered(self):
        system = self._system()
        timeline = system.service_timeline("a")
        assert timeline == [(0, 2_500, 0), (6_000, 7_000, 1)]


class TestLookupMemo:
    """The per-core lookup memo must never change a lookup's answer."""

    def test_memoized_lookups_match_linear_scan(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b"), (3_000, 4_500, "a")])
        table.build_slices()
        for t in list(range(0, 30_000, 7)) + list(range(29_999, 0, -13)):
            expected = next(
                (a for a in table.allocations if a.start <= t % 10_000 < a.end),
                None,
            )
            assert table.lookup(t) == expected

    def test_memo_valid_across_floored_slow_path(self):
        # The min-slice floor forces the binary-search fallback; the memo
        # installed by a fallback lookup must stay correct.
        table = core_table([(0, 10, "a"), (5_000, 9_000, "b")])
        table.build_slices(min_slice_len_ns=1_000)
        assert table.lookup(5).vcpu == "a"
        assert table.lookup(6).vcpu == "a"  # memo hit inside [0, 10)
        assert table.lookup(20) is None  # past the memo window
        assert table.lookup(6_000).vcpu == "b"
        assert table.lookup(8_999).vcpu == "b"
        assert table.lookup(9_000) is None

    def test_next_boundary_consistent_with_memo(self):
        table = core_table([(0, 1_000, "a"), (2_000, 3_000, "b")])
        table.build_slices()
        assert table.next_boundary(500) == 1_000
        table.lookup(2_500)  # install a memo for b's slot
        assert table.next_boundary(2_500) == 3_000
        assert table.next_boundary(12_500) == 13_000  # next cycle
        assert table.next_boundary(3_000) == 10_000  # trailing idle gap

    @pytest.mark.parametrize("made", ["listed", "bound", "decoded"])
    def test_build_slices_invalidates_memo(self, made):
        # Replacing the allocations, with the same boundaries and then
        # with others, leaves no old name or geometry behind, whether the
        # table derived its columns from a list, was bound to shared ones
        # or was decoded.
        table = core_table([(0, 1_000, "a")])
        if made == "bound":
            segments, names = Segments.from_records(10_000, [(0, 1_000, "a")])
            table = CoreTable.bound(0, 10_000, segments, names)
        elif made == "decoded":
            system = SystemTable(length_ns=10_000, cores={0: table})
            table = deserialize(serialize(system)).cores[0]
        table.build_slices()
        assert table.lookup(500).vcpu == "a"
        table.allocations = [Allocation(0, 1_000, "z")]
        table.build_slices()
        assert table.lookup(500).vcpu == "z"
        table.allocations = [Allocation(0, 500, "y")]
        table.build_slices()
        assert table.next_boundary(100) == 500
        assert table.lookup(700) is None
        assert table.min_allocation_ns() == 500
        assert table.service_intervals("y") == [(0, 500)]
        assert table.service_intervals("z") == []
        system = SystemTable(length_ns=10_000, cores={0: table})
        assert system.vcpu_names == ["y"]
        decoded = deserialize(serialize(system))
        assert decoded.cores[0].allocations == [Allocation(0, 500, "y")]


class TestBoundTable:
    """``CoreTable.bound`` sets the instance attributes ``__init__`` sets
    (``allocations`` only when first read) and behaves as an
    ``__init__``-built table of the same schedule."""

    ALLOCS = [(0, 1_000, "a"), (1_500, 2_000, "b"), (2_000, 4_000, "a"), (6_000, 6_500, None)]

    def pair(self, sliced):
        built = core_table(self.ALLOCS, cpu=2)
        segments, names = Segments.from_records(10_000, self.ALLOCS)
        if sliced:
            # Another table bound to the segments derives their slices.
            CoreTable.bound(5, 10_000, segments, names).build_slices()
            built.build_slices()
        return built, CoreTable.bound(2, 10_000, segments, names)

    @pytest.mark.parametrize("sliced", [False, True])
    def test_instance_attributes_match(self, sliced):
        built, bound = self.pair(sliced)
        assert "allocations" not in vars(bound)
        assert bound.allocations == built.allocations
        assert set(vars(bound)) == set(vars(built))
        assert bound.cpu == 2 and bound.length_ns == 10_000
        assert bound.slice_len_ns == built.slice_len_ns
        assert bound.slices == built.slices

    @pytest.mark.parametrize("sliced", [False, True])
    def test_same_answers(self, sliced):
        built, bound = self.pair(sliced)
        ids = {"a": 0, "b": 1}.__getitem__
        assert [c.tolist() for c in bound.as_arrays(ids)] == [
            c.tolist() for c in built.as_arrays(ids)
        ]
        assert pickle.dumps(bound) == pickle.dumps(built)
        restored = pickle.loads(pickle.dumps(bound))
        assert restored == pickle.loads(pickle.dumps(built)) == built
        for t in list(range(0, 25_000, 250)) + [999, 1_000, 5_999, 6_499, 6_500]:
            assert bound.lookup(t) == built.lookup(t)
            assert bound.next_boundary(t) == built.next_boundary(t)
        assert bound.allocations == built.allocations

    def test_unsliced_tables_share_nothing_they_change(self):
        # Slices built on one unsliced bound table leave every other one
        # unsliced, and each derives its own slices when it needs them.
        tables = []
        for length in (10_000, 8_000):
            segments, names = Segments.from_records(length, [(0, 500, "a")])
            tables.append(CoreTable.bound(0, length, segments, names))
        first, second = tables
        first.build_slices()
        assert first.lookup(200).vcpu == "a"
        first.derive_slices([0], [500], 1_000)
        assert first.lookup(10_200).vcpu == "a"
        assert (second.slice_len_ns, second.slices, second._starts, second._bounds) == (
            0,
            array("i"),
            [],
            [],
        )
        assert second.lookup(7_900) is None
        assert second.next_boundary(7_900) == 8_000
        assert len(second.slices) == 2 * 16


class TestRelabelledSegments:
    """Two cores of one schedule under ids numbered apart."""

    def test_ids_renumbered_by_first_appearance(self):
        a = core_table([(0, 100, "x"), (200, 300, "y"), (400, 500, "x")])
        b = core_table([(0, 100, "p"), (200, 300, "q"), (400, 500, "p")])
        # Number b's ids the other way round, as the planner may.
        segments = b.segments
        swapped = Segments.from_columns(
            segments.ends, array("q", [1 - i if i >= 0 else i for i in segments.ids])
        )
        assert swapped.ids != a.segments.ids
        assert swapped.numbered_ids() == a.segments.numbered_ids()
        assert a.segments.relabels(swapped) and swapped.relabels(a.segments)
        assert a.segments.numbered_ids() is a.segments.ids  # already in order

    def test_other_schedules_are_not_relabellings(self):
        a = core_table([(0, 100, "x"), (200, 300, "y"), (400, 500, "x")])
        merged = core_table([(0, 100, "x"), (200, 300, "x"), (400, 500, "x")])
        moved = core_table([(0, 100, "x"), (200, 350, "y"), (400, 500, "x")])
        assert not a.segments.relabels(merged.segments)
        assert not a.segments.relabels(moved.segments)

    def test_same_schedule_over_ids_numbered_apart(self):
        a = core_table(
            [(0, 100, "x"), (200, 300, None), (400, 500, "y"), (600, 700, "x")]
        )
        segments = a.segments
        # Ids 0 and 2 swapped: x is id 2 and y id 0 on the other core.
        swapped = Segments.from_columns(
            segments.ends,
            array("q", [2 - i if i in (0, 2) else i for i in segments.ids]),
        )
        assert swapped.ids != segments.ids
        same = CoreTable.bound(0, a.length_ns, swapped, ["y", None, "x"])
        assert a.same_schedule(same) and same.same_schedule(a)
        renamed = CoreTable.bound(0, a.length_ns, swapped, ["x", None, "y"])
        assert not a.same_schedule(renamed)
        # An explicit idle record is not a gap.
        gapped = Segments.from_columns(
            segments.ends, array("q", [-1 if i == 1 else i for i in swapped.ids])
        )
        gap = CoreTable.bound(0, a.length_ns, gapped, ["y", None, "x"])
        assert not a.same_schedule(gap)

    def test_slot_names_follow_first_allocations(self):
        core = core_table([(0, 100, "b"), (200, 300, None), (400, 500, "a"), (600, 700, "b")])
        assert core.slot_names() == ["b", None, "a"]
        assert core.served_names() == ["b", "a"]
        assert core.served_names() is core.served_names()
        core.allocations = [Allocation(0, 100, "c")]
        assert core.served_names() == ["c"]


class TestVcpuIdIndex:
    def _system(self):
        return SystemTable(
            length_ns=10_000,
            cores={
                0: core_table([(0, 2_500, "a"), (2_500, 5_000, "b")]),
                1: core_table([(6_000, 7_000, "a")], cpu=1),
            },
        )

    def test_ids_follow_name_order(self):
        system = self._system()
        assert [system.vcpu_id(n) for n in system.vcpu_names] == list(
            range(len(system.vcpu_names))
        )

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError):
            self._system().vcpu_id("ghost")

    def test_index_rebuilt_after_names_replaced(self):
        # The deserializer assigns vcpu_names directly; the reverse map
        # must lazily follow.
        system = self._system()
        system.vcpu_names = ["x", "y", "z"]
        system._vcpu_ids = {}
        assert system.vcpu_id("z") == 2


class TestServiceIndex:
    def test_matches_per_vcpu_timelines(self):
        system = SystemTable(
            length_ns=10_000,
            cores={
                0: core_table([(0, 2_500, "a"), (2_500, 5_000, "b")]),
                1: core_table([(6_000, 7_000, "a")], cpu=1),
            },
        )
        index = system.service_index()
        assert set(index) == {"a", "b"}
        for name, timeline in index.items():
            assert timeline == system.service_timeline(name)

    def test_blackout_accepts_prebuilt_timeline(self):
        system = SystemTable(
            length_ns=10_000, cores={0: core_table([(4_000, 5_000, "x")])}
        )
        timeline = system.service_index()["x"]
        assert system.max_blackout_ns("x", timeline=timeline) == 9_000
