"""A system table built from a base plus its changed cores.

:meth:`SystemTable.patched` copies the base's vCPU index and patches it
for the replaced and incoming cores.  Whatever the cores hold (split
vCPUs, explicit idle records, names moving between cores, chained
patches), its ``vcpu_names`` and ``home_cores`` must be exactly what a
table built from the same cores derives, order included: the array
engine numbers handles by ``vcpu_names``.  A delta push stages its table
this way, so the same property is checked through the hypercall, where
the no-parallel-service check still rejects what a full push would.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import serialize, serialize_delta
from repro.core.table import Allocation, CoreTable, Segments, SystemTable
from repro.errors import TableFormatError
from repro.schedulers import TableauScheduler
from repro.xen import TableHypercall

LENGTH = 1_000
NAMES = [f"v{i}" for i in range(6)]


@st.composite
def core_tables(draw, cpu):
    """A core of up to four allocations, each a name of :data:`NAMES`
    (shared with other cores, so some vCPUs are split) or ``None`` (an
    explicit idle record)."""
    count = draw(st.integers(0, 4))
    bounds = st.integers(1, LENGTH - 1)
    points = sorted(draw(st.sets(bounds, min_size=2 * count, max_size=2 * count)))
    names = st.sampled_from(NAMES + [None])
    vcpus = draw(st.lists(names, min_size=count, max_size=count))
    allocations = [
        Allocation(start, end, vcpu)
        for start, end, vcpu in zip(points[0::2], points[1::2], vcpus)
    ]
    return CoreTable(cpu=cpu, length_ns=LENGTH, allocations=allocations)


@st.composite
def patch_chains(draw):
    """Base cores, and one to three patches of some of those cpus."""
    cpus = range(draw(st.integers(1, 5)))
    base = {cpu: draw(core_tables(cpu)) for cpu in cpus}
    patches = []
    for _ in range(draw(st.integers(1, 3))):
        changed = draw(st.sets(st.sampled_from(cpus)))
        patches.append({cpu: draw(core_tables(cpu)) for cpu in sorted(changed)})
    return base, patches, draw(st.booleans())


def assert_index_rebuilt(table):
    """``table``'s index is the one its cores derive, order included."""
    rebuilt = SystemTable(length_ns=table.length_ns, cores=dict(table.cores))
    assert table.vcpu_names == rebuilt.vcpu_names
    assert list(table.home_cores.items()) == list(rebuilt.home_cores.items())


@settings(max_examples=300, deadline=None)
@given(chain=patch_chains())
def test_patched_index_equals_the_rebuilt_one(chain):
    base_cores, patches, explicit = chain
    table = SystemTable(length_ns=LENGTH, cores=base_cores)
    if explicit:
        # An index handed in (as the planner does): what each core adds
        # to it is derived on first need.
        table = SystemTable(
            length_ns=LENGTH,
            cores=base_cores,
            vcpu_names=table.vcpu_names,
            home_cores=table.home_cores,
        )
    for changed in patches:
        patched = table.patched(changed)
        assert patched.cores == {**table.cores, **changed}
        for cpu, core in patched.cores.items():
            assert core is changed.get(cpu, table.cores[cpu])
        assert_index_rebuilt(patched)
        table = patched


def test_partitioned_patch_moves_a_name_between_cores():
    # v1 leaves cpu0 for cpu2, and cpu0 takes a new vCPU: both runs of
    # names are swapped in place, and nothing is rebuilt.
    def core(cpu, *allocs):
        return CoreTable(
            cpu=cpu,
            length_ns=LENGTH,
            allocations=[Allocation(s, e, v) for s, e, v in allocs],
        )

    base = SystemTable(
        length_ns=LENGTH,
        cores={
            0: core(0, (0, 100, "v1"), (100, 200, "v0")),
            1: core(1, (0, 300, "v2")),
            2: core(2),
        },
    )
    patched = base.patched(
        {0: core(0, (0, 200, "v4")), 2: core(2, (500, 600, "v1"))}
    )
    assert patched.vcpu_names == ["v4", "v2", "v1"]
    assert patched.home_cores == {"v4": [0], "v2": [1], "v1": [2]}
    assert patched.home_cores["v2"] is base.home_cores["v2"]
    assert_index_rebuilt(patched)


def test_replaced_core_with_a_name_on_two_ids_is_rebuilt():
    # A full push may label two of a core's ids with one name; replacing
    # that core falls back to the rebuild instead of patching.
    segments, _ids = Segments.from_records(LENGTH, [(0, 100, 0), (200, 300, 1)])
    base = SystemTable(
        length_ns=LENGTH,
        cores={
            0: CoreTable.bound(0, LENGTH, segments, ["v0", "v0"]),
            1: CoreTable(
                cpu=1, length_ns=LENGTH, allocations=[Allocation(0, 50, "v1")]
            ),
        },
    )
    assert base.vcpu_names == ["v0", "v1"]
    fresh = CoreTable(cpu=0, length_ns=LENGTH, allocations=[Allocation(0, 50, "v2")])
    patched = base.patched({0: fresh})
    assert patched.vcpu_names == ["v2", "v1"]
    assert_index_rebuilt(patched)


@settings(max_examples=150, deadline=None)
@given(chain=patch_chains())
def test_delta_push_stages_the_rebuilt_index(chain):
    # Through the hypercall: each delta is staged with the index its
    # cores derive, or rejected exactly when a vCPU would be served on
    # two cores at once.
    base_cores, patches, _explicit = chain
    table = SystemTable(length_ns=LENGTH, cores=base_cores)
    serving = SystemTable(length_ns=LENGTH, cores={})
    hypercall = TableHypercall(TableauScheduler(serving))
    try:
        hypercall.push_table(serialize(table))
    except TableFormatError:
        assert table.parallel_service() is not None
        return
    for changed in patches:
        wanted = SystemTable(length_ns=LENGTH, cores={**table.cores, **changed})
        payload = serialize_delta(wanted, sorted(changed), hypercall.delta_generation)
        staged = hypercall.staged_table
        try:
            hypercall.push_table_delta(payload)
        except TableFormatError:
            assert wanted.parallel_service() is not None
            assert hypercall.staged_table is staged
            continue
        assert wanted.parallel_service() is None
        staged = hypercall.staged_table
        assert_index_rebuilt(staged)
        assert staged.vcpu_names == wanted.vcpu_names
        for cpu, core in wanted.cores.items():
            # A delta carries explicit idle records as idle time.
            got = staged.cores[cpu].allocations
            busy = [a for a in core.allocations if a.vcpu is not None]
            assert [a for a in got if a.vcpu is not None] == busy
        table = wanted
