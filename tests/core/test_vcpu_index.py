"""The vCPU index of a system table (``vcpu_names`` and ``home_cores``)
has one derivation, :func:`repro.core.table.vcpu_index`, which the
planner and the ``'TBLO'`` decoder share.  It must equal the reference
below: the per-core ``(first start, cpu)`` walk that
``SystemTable._rebuild_index`` derived the index by before, kept here as
the specification."""

import struct
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MS, Planner, make_vm
from repro.core.serialize import deserialize, serialize
from repro.core.table import Allocation, CoreTable, SystemTable, vcpu_index
from repro.topology import uniform

LENGTH = 10_000


def reference_index(
    cores: Dict[int, CoreTable]
) -> Tuple[List[str], Dict[str, List[int]]]:
    """Each core's served vCPUs with their first starts, walked in cpu
    order; a vCPU's home cores sorted by ``(first start, cpu)``."""
    names: List[str] = []
    homes: Dict[str, List[Tuple[int, int]]] = {}
    for cpu, table in sorted(cores.items()):
        for vcpu, start in table.served():
            entries = homes.get(vcpu)
            if entries is None:
                names.append(vcpu)
                homes[vcpu] = [(start, cpu)]
            elif entries[-1][1] != cpu:
                entries.append((start, cpu))
    return names, {
        name: [cpu for _start, cpu in sorted(entries)]
        for name, entries in homes.items()
    }


def assert_index_matches(system: SystemTable) -> None:
    expected = reference_index(system.cores)
    assert vcpu_index(system.cores) == expected
    assert (system.vcpu_names, system.home_cores) == expected
    rebuilt = SystemTable(length_ns=system.length_ns, cores=dict(system.cores))
    assert (rebuilt.vcpu_names, rebuilt.home_cores) == expected


@st.composite
def core_tables(draw):
    """A few cores in any cpu order, each a time-ordered allocation list
    over a small name pool (so vCPUs share cores and starts tie across
    cores), with explicit idle records; some cores renamed so that two
    of their ids carry one name."""
    cpus = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    cores: Dict[int, CoreTable] = {}
    for cpu in cpus:
        cuts = draw(
            st.lists(st.integers(1, LENGTH - 1), max_size=8, unique=True).map(sorted)
        )
        bounds = [0, *cuts, LENGTH]
        allocations = []
        for start, end in zip(bounds, bounds[1:]):
            vcpu = draw(st.sampled_from(["a", "b", "c", "d", None, "gap"]))
            if vcpu != "gap":
                allocations.append(Allocation(start, end, vcpu))
        table = CoreTable(cpu=cpu, length_ns=LENGTH, allocations=allocations)
        if draw(st.booleans()):
            table = table.renamed({"a": "a", "b": "a", "c": "c", "d": "b"})
        cores[cpu] = table
    return cores


@settings(max_examples=300, deadline=None)
@given(cores=core_tables())
def test_walk_equals_reference_on_any_table(cores):
    assert_index_matches(SystemTable(length_ns=LENGTH, cores=cores))


def test_ties_across_cores_order_by_cpu():
    cores = {
        3: CoreTable(3, LENGTH, [Allocation(0, 10, "a"), Allocation(20, 30, "b")]),
        1: CoreTable(1, LENGTH, [Allocation(5, 10, "b"), Allocation(40, 50, "a")]),
        2: CoreTable(2, LENGTH, [Allocation(0, 10, "a"), Allocation(10, 20, None)]),
    }
    names, homes = vcpu_index(cores)
    assert names == ["b", "a"]
    assert homes == {"b": [1, 3], "a": [2, 3, 1]}
    assert (names, homes) == reference_index(cores)


def plans():
    """Planner tables of every method and knob that shapes a core."""
    yield Planner(uniform(4)).plan(
        [make_vm(f"vm{i}", 0.25, 20 * MS) for i in range(12)]
    )
    # Three 0.6 vCPUs on two cores: C=D splits one across both.
    yield Planner(uniform(2)).plan(
        [make_vm(f"vm{i}", 0.6, 100 * MS) for i in range(3)]
    )
    # WFD and C=D both fail: a DP-WRAP cluster of cores 0 and 1.
    clustered = [(0.75, 5), (0.4, 20), (0.75, 2), (0.3, 2), (0.65, 50)]
    yield Planner(uniform(3)).plan(
        [make_vm(f"vm{i}", u, latency * MS) for i, (u, latency) in enumerate(clustered)]
    )
    yield Planner(uniform(2), peephole=True).plan(
        [make_vm(f"vm{i}", 0.3, 5 * MS) for i in range(5)]
    )
    yield Planner(uniform(3)).plan(
        [make_vm("big", 1.0, MS)] + [make_vm(f"vm{i}", 0.4, 10 * MS) for i in range(4)]
    )


def test_planner_and_decoder_tables_match_the_reference():
    split = 0
    methods = set()
    for result in plans():
        methods.add(result.stats.method)
        assert_index_matches(result.table)
        decoded = deserialize(serialize(result.table))
        assert_index_matches(decoded)
        assert decoded.vcpu_names == result.table.vcpu_names
        assert decoded.home_cores == result.table.home_cores
        split += sum(map(result.table.is_split, result.table.vcpu_names))
    assert split, "no plan split a vCPU"
    assert methods == {"partitioned", "semi-partitioned", "clustered"}


def reversed_payload(payload: bytes, system: SystemTable) -> bytes:
    """``payload`` with its per-cpu blocks in descending cpu order."""
    offset = 24 + sum(2 + len(name.encode()) for name in system.vcpu_names)
    head, blocks = payload[:offset], []
    while offset < len(payload):
        _cpu, nallocs, _slice_len, nslices, _ = struct.unpack_from(
            "<IIQII", payload, offset
        )
        size = 24 + 32 * nallocs + 8 * nslices
        blocks.append(payload[offset : offset + size])
        offset += size
    return head + b"".join(reversed(blocks))


def test_payload_listing_cpus_in_descending_order():
    layouts = {
        0: [(500, 900, "b"), (900, 1_000, None)],
        1: [(0, 400, "a"), (600, 800, "c")],
        2: [(100, 500, "b"), (500, 600, "a")],
    }
    system = SystemTable(
        length_ns=LENGTH,
        cores={
            cpu: CoreTable(cpu, LENGTH, [Allocation(*record) for record in records])
            for cpu, records in layouts.items()
        },
    )
    payload = reversed_payload(serialize(system), system)
    decoded = deserialize(payload)
    assert list(decoded.cores) == [2, 1, 0]
    assert_index_matches(decoded)
    assert decoded.vcpu_names == ["b", "a", "c"]
    assert decoded.home_cores == {"b": [2, 0], "a": [1, 2], "c": [1]}
