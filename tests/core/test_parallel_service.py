"""Differential test of the restricted no-parallel-service check.

:meth:`SystemTable.parallel_service` reads only vCPUs homed on two or
more cores; :meth:`SystemTable.overlapping_service` scans every
allocation.  On tables whose per-core layouts are valid the two must
agree, and so must everything built on the restricted check:
:meth:`SystemTable.validate` and the ``'TBLO'`` decoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import deserialize, serialize
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.errors import PlanningError, TableFormatError

LENGTH = 400


@st.composite
def core_layouts(draw, cpu):
    """A valid layout on one core: ordered, non-overlapping, in the table."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # gap before
                st.integers(min_value=1, max_value=40),  # allocation length
                st.sampled_from(["a", "b", "c", "d", None]),  # None: idle
            ),
            max_size=10,
        )
    )
    allocations = []
    cursor = 0
    for gap, length, vcpu in pieces:
        start = cursor + gap
        if start + length > LENGTH:
            break
        allocations.append(Allocation(start, start + length, vcpu))
        cursor = start + length
    table = CoreTable(cpu=cpu, length_ns=LENGTH, allocations=allocations)
    table.validate_layout()
    return table


@st.composite
def systems(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    return SystemTable(
        length_ns=LENGTH,
        cores={cpu: draw(core_layouts(cpu)) for cpu in range(count)},
    )


class TestRestrictedCheckMatchesFullScan:
    @given(system=systems())
    @settings(max_examples=500, deadline=None)
    def test_parallel_service_agrees_with_overlapping_service(self, system):
        witnesses = system.overlapping_service()
        witness = system.parallel_service()
        assert (witness is not None) == bool(witnesses)
        if witness is not None:
            assert witness in witnesses
            assert system.is_split(witness[0])

    @given(system=systems())
    @settings(max_examples=300, deadline=None)
    def test_validate_and_decoder_raise_exactly_on_overlap(self, system):
        overlapping = bool(system.overlapping_service())
        payload = serialize(system)
        if overlapping:
            with pytest.raises(PlanningError, match="two cores"):
                system.validate()
            with pytest.raises(TableFormatError, match="two cores"):
                deserialize(payload)
        else:
            system.validate()
            restored = deserialize(payload)
            assert restored.vcpu_names == system.vcpu_names
            assert restored.home_cores == system.home_cores

    def test_single_home_vcpus_are_never_read(self):
        # A vCPU homed on one core cannot overlap itself on a valid
        # layout, so the check never asks for its intervals.
        system = SystemTable(
            length_ns=LENGTH,
            cores={
                0: CoreTable(cpu=0, length_ns=LENGTH, allocations=[Allocation(0, 50, "a")]),
                1: CoreTable(cpu=1, length_ns=LENGTH, allocations=[Allocation(0, 50, "b")]),
            },
        )
        asked = []
        for core in system.cores.values():
            original = core.service_intervals

            def spy(vcpu, original=original):
                asked.append(vcpu)
                return original(vcpu)

            core.service_intervals = spy
        assert system.parallel_service() is None
        assert asked == []
