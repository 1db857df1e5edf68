"""Differential test of the one-pass slice-table builder.

``reference_build_slices`` is the original slice-by-slice probe: for
every slice it walks the allocations overlapping it.  The builder in
:meth:`CoreTable.build_slices` must produce exactly the same slice
geometry, entries, start index and boundary list on every valid layout,
with and without a slice-length floor (the floor is what crowds a slice
past two allocations and forces the ``(-2, -2)`` sentinel).  The builder
stores the slice table flat, as the ``'TBLO'`` slice column (an
``array('i')``, first then second entry per slice); :func:`pairs` reads
it back as the probe's ``(first, second)`` pairs.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import Allocation, CoreTable


def reference_build_slices(
    table: CoreTable, min_slice_len_ns: int = 1
) -> Tuple[int, List[Tuple[int, int]], List[int], List[int]]:
    """``(slice_len_ns, slices, _starts, _bounds)`` by probing each slice."""
    allocations = table.allocations
    lengths = [a.length for a in allocations]
    if not lengths:
        return table.length_ns, [(-1, -1)], [], [table.length_ns]
    slice_len = max(min(lengths), min_slice_len_ns)
    slice_count = -(-table.length_ns // slice_len)
    slices: List[Tuple[int, int]] = []
    alloc_index = 0
    for s in range(slice_count):
        lo = s * slice_len
        hi = min(lo + slice_len, table.length_ns)
        while alloc_index < len(allocations) and allocations[alloc_index].end <= lo:
            alloc_index += 1
        overlapping: List[int] = []
        j = alloc_index
        while j < len(allocations) and allocations[j].start < hi:
            overlapping.append(j)
            j += 1
        if len(overlapping) > 2:
            overlapping = [-2, -2]
        first = overlapping[0] if overlapping else -1
        second = overlapping[1] if len(overlapping) > 1 else -1
        slices.append((first, second))
    bounds = {a.start for a in allocations}
    bounds.update(a.end for a in allocations)
    bounds.add(table.length_ns)
    return slice_len, slices, [a.start for a in allocations], sorted(bounds)


@st.composite
def layouts(draw) -> CoreTable:
    """A valid core layout: ordered, non-overlapping, within the table."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # gap before
                st.integers(min_value=1, max_value=40),  # allocation length
                st.sampled_from(["a", "b", "c", None]),  # None: idle record
            ),
            max_size=24,
        )
    )
    allocations = []
    cursor = 0
    for gap, length, vcpu in pieces:
        start = cursor + gap
        allocations.append(Allocation(start, start + length, vcpu))
        cursor = start + length
    trailing = draw(st.integers(min_value=0 if pieces else 1, max_value=40))
    table = CoreTable(cpu=0, length_ns=cursor + trailing, allocations=allocations)
    table.validate_layout()
    return table


def pairs(slices) -> List[Tuple[int, int]]:
    """A flat int32 slice column as ``(first, second)`` pairs."""
    assert slices.typecode == "i" and len(slices) % 2 == 0
    return list(zip(slices[0::2], slices[1::2]))


def _geometry(table: CoreTable):
    return table.slice_len_ns, pairs(table.slices), table._starts, table._bounds


class TestOnePassMatchesProbe:
    @given(table=layouts())
    @settings(max_examples=400, deadline=None)
    def test_paper_rule(self, table):
        table.build_slices()
        assert _geometry(table) == reference_build_slices(table)

    @given(table=layouts(), floor=st.integers(min_value=1, max_value=120))
    @settings(max_examples=400, deadline=None)
    def test_with_floor(self, table, floor):
        table.build_slices(min_slice_len_ns=floor)
        assert _geometry(table) == reference_build_slices(table, floor)

    def test_floor_crowds_a_slice_into_the_sentinel(self):
        table = CoreTable(
            cpu=0,
            length_ns=100,
            allocations=[
                Allocation(0, 5, "a"),
                Allocation(10, 15, "b"),
                Allocation(20, 25, "c"),
                Allocation(60, 95, "a"),
            ],
        )
        table.build_slices(min_slice_len_ns=50)
        assert pairs(table.slices) == [(-2, -2), (3, -1)]
        assert _geometry(table) == reference_build_slices(table, 50)
        assert table.lookup(22).vcpu == "c"
        assert table.lookup(30) is None

    def test_boundary_slice_shared_by_two_allocations(self):
        table = CoreTable(
            cpu=0,
            length_ns=90,
            allocations=[Allocation(0, 30, "a"), Allocation(40, 70, "b")],
        )
        table.build_slices()
        assert pairs(table.slices) == [(0, -1), (1, -1), (1, -1)]
        table = CoreTable(
            cpu=0,
            length_ns=100,
            allocations=[Allocation(5, 25, "a"), Allocation(25, 60, "b")],
        )
        table.build_slices()
        assert pairs(table.slices) == [(0, -1), (0, 1), (1, -1), (-1, -1), (-1, -1)]
        assert _geometry(table) == reference_build_slices(table)
