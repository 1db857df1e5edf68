"""Fuzz tests for the binary table decoder.

The hypercall boundary is hostile territory: dom0's planner daemon is
trusted, but the decoder must still fail cleanly (``TableFormatError``,
never a crash or a silently corrupt table) on any malformed payload.
The decoder remembers the core blocks it accepted, so each hostile
payload is also decoded against a warm cache, which must reach the same
verdict as a cold one.  Delta ('TBLD') pushes share the cache of
accepted schedules, so mutated real deltas (version 2: the string table
holds only the carried cores' names) are pushed on their base with the
cache warm and cold too.
"""

import importlib
import struct
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MS, Planner, make_vm
from repro.core.serialize import (
    _DECODED,
    _SCHEDULES,
    DELTA_SLICE_LIMIT,
    clear_decode_cache,
    deserialize,
    deserialize_delta,
    serialize,
    serialize_delta,
)
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.errors import ReproError, TableDeltaMismatchError, TableFormatError
from repro.schedulers import TableauScheduler
from repro.topology import xeon_16core
from repro.xen import PlannerDaemon, TableHypercall

# The module (``repro.core.serialize`` is also the name of its function).
codec = importlib.import_module("repro.core.serialize")


def sample_payload():
    system = SystemTable(
        length_ns=10_000,
        cores={
            0: CoreTable(
                cpu=0,
                length_ns=10_000,
                allocations=[
                    Allocation(0, 2_500, "vm0.vcpu0"),
                    Allocation(2_500, 5_000, "vm1.vcpu0"),
                ],
            )
        },
    )
    system.build_slices()
    return serialize(system)


class TestFuzzDecoder:
    @given(data=st.binary(min_size=0, max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            deserialize(data)
        except ReproError:
            pass  # clean rejection is the contract

    @given(
        position=st.integers(min_value=0, max_value=200),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption_never_crashes(self, position, value):
        payload = bytearray(sample_payload())
        position %= len(payload)
        payload[position] = value
        try:
            restored = deserialize(bytes(payload))
        except ReproError:
            return
        # If it decoded, the structural invariants must still hold (the
        # hypervisor validates before installing).
        for table in restored.cores.values():
            table.validate_layout()

    @given(cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_truncation_always_rejected_cleanly(self, cut):
        payload = sample_payload()
        cut %= len(payload)
        if cut == len(payload):
            return
        with pytest.raises(ReproError):
            deserialize(payload[:cut])

    def test_good_payload_still_accepted(self):
        restored = deserialize(sample_payload())
        assert restored.length_ns == 10_000


@lru_cache(maxsize=None)
def recurring_payload():
    """A 16-core push whose cores recur: same-shape cores, and blocks a
    warm decoder has accepted before."""
    vms = [make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(44)]
    return serialize(Planner(xeon_16core()).plan(vms).table)


def verdict(payload):
    """The decoder's error message, or what the decoded table holds."""
    try:
        table = deserialize(payload)
    except TableFormatError as error:
        return str(error)
    return (
        table.vcpu_names,
        table.home_cores,
        {
            cpu: (core.allocations, core.slice_len_ns, core.slices.tolist())
            for cpu, core in table.cores.items()
        },
        serialize(table),
    )


def warm_and_cold(payload):
    """The verdicts on ``payload`` after the clean payload was decoded,
    and with the cache cleared."""
    deserialize(recurring_payload())
    warm = verdict(payload)
    clear_decode_cache()
    return warm, verdict(payload)


def names_end(payload):
    """The offset where a 'TBLO' or 'TBLD' payload's string table ends
    (both headers are 24 bytes, with the name count at offset 16)."""
    (count,) = struct.unpack_from("<I", payload, 16)
    offset = 24
    for _ in range(count):
        offset += 2 + struct.unpack_from("<H", payload, offset)[0]
    return offset


def with_names(payload, names):
    """``payload`` with its string table replaced by ``names``; the ids
    of its records, or the handles of its columns, index the new table."""
    header = bytearray(payload[:24])
    struct.pack_into("<I", header, 16, len(names))
    table = b"".join(struct.pack("<H", len(n.encode())) + n.encode() for n in names)
    return bytes(header) + table + payload[names_end(payload) :]


#: Names a replaced string table draws from: vCPUs of the 44-VM census
#: (for a 'TBLD' case, a kept core of the base serves them), the ones a
#: delta carries, a stranger and an empty name.
NAME_POOL = (
    "vm00.vcpu0",
    "vm01.vcpu0",
    "vm10.vcpu0",
    "vm43.vcpu0",
    "new10.vcpu0",
    "vm44.vcpu0",
    "ghost",
    "",
)


class TestWarmCacheAgreesWithCold:
    @given(
        position=st.integers(min_value=0, max_value=1 << 16),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption(self, position, value):
        payload = bytearray(recurring_payload())
        position %= len(payload)
        payload[position] = value
        warm, cold = warm_and_cold(bytes(payload))
        assert warm == cold

    @given(cut=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=100, deadline=None)
    def test_truncation(self, cut):
        payload = recurring_payload()
        warm, cold = warm_and_cold(payload[: cut % len(payload)])
        assert isinstance(warm, str)
        assert warm == cold

    @given(
        keep=st.integers(min_value=40, max_value=44),
        edits=st.lists(
            st.tuples(st.integers(min_value=0, max_value=45), st.sampled_from(NAME_POOL)),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_string_table_replaced(self, keep, edits):
        # Names renamed, repeated, dropped or added: the same schedule
        # under the new names, or a typed rejection, warm and cold alike.
        # The decoded index walks the cores as the encoder's did, so it
        # lists the names in string-table order.
        clean = deserialize(recurring_payload())
        listed = clean.vcpu_names
        names = listed[:keep]
        for at, name in edits:
            if at < len(names):
                names[at] = name
            else:
                names.append(name)
        warm, cold = warm_and_cold(with_names(recurring_payload(), names))
        assert warm == cold
        if len(set(names)) < len(names):
            assert warm == "a vCPU name is listed twice in the string table"
        elif not isinstance(warm, str):
            rename = {None: None, **dict(zip(listed, names))}
            vcpu_names, _homes, cores, _bytes = warm
            assert vcpu_names == [rename[name] for name in listed]
            for cpu, (allocations, _len, _slices) in cores.items():
                assert [(a.start, a.end, a.vcpu) for a in allocations] == [
                    (a.start, a.end, rename[a.vcpu])
                    for a in clean.cores[cpu].allocations
                ]

    def test_clean_payload(self):
        warm, cold = warm_and_cold(recurring_payload())
        assert not isinstance(warm, str)
        assert warm == cold


@lru_cache(maxsize=None)
def delta_cases():
    """Real 'TBLD' pushes, each with the full payload of its base: a
    table-cache hit that swaps one tenant (one core changes), and a
    create planned from scratch (a few cores change)."""
    vms = [make_vm(f"vm{i:02d}", 0.25, 20 * MS) for i in range(44)]
    cases = []
    for cache, after in (
        (True, vms[:10] + [make_vm("new10", 0.25, 20 * MS)] + vms[11:]),
        (False, vms + [make_vm("vm44", 0.25, 20 * MS)]),
    ):
        daemon = PlannerDaemon(xeon_16core(), cache=cache)
        base = daemon.replan(vms, "boot").table
        table = daemon.replan(after, "change").table
        changed = [
            cpu
            for cpu, core in table.cores.items()
            if not core.same_schedule(base.cores[cpu])
        ]
        assert 1 <= len(changed) < len(table.cores) // 2
        # The base push is the hypercall's first: generation 1.
        cases.append((serialize(base), serialize_delta(table, changed, 1)))
    return tuple(cases)


def cache_state():
    return dict(_DECODED), dict(_SCHEDULES), codec._decoded_bytes


def delta_verdict(base_payload, payload):
    """The error on ``payload`` pushed on its base, or what the staged
    table holds; a rejected push must leave the decode cache as it was."""
    hypercall = TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))
    hypercall.push_table(base_payload)
    held = cache_state()
    try:
        hypercall.push_table_delta(payload)
    except (TableFormatError, TableDeltaMismatchError) as error:
        assert cache_state() == held
        return type(error).__name__, str(error)
    table = hypercall.staged_table
    return (
        table.vcpu_names,
        table.home_cores,
        {
            cpu: (core.allocations, core.slice_len_ns, core.slices.tolist())
            for cpu, core in table.cores.items()
        },
        serialize(table),
    )


def warm_and_cold_delta(case, payload):
    """The verdicts on ``payload`` after the clean delta was pushed, and
    with the cache cleared."""
    base_payload, clean = case
    delta_verdict(base_payload, clean)
    warm = delta_verdict(base_payload, payload)
    clear_decode_cache()
    return warm, delta_verdict(base_payload, payload)


#: 64-bit words a mutated segment column may take: an idle or a
#: negative handle, zero, small ids, and times around the table length.
COLUMN_WORDS = (-2, -1, 0, 1, 7, 50_000_000, 102_702_599, 102_702_600, 1 << 40)


def with_short_allocation(payload, span_ns):
    """``payload`` with its first core's first allocation cut to
    ``span_ns``; the segment after it takes the rest."""
    data = bytearray(payload)
    at = names_end(payload)
    _cpu, count = struct.unpack_from("<II", data, at)
    ends, handles = at + 8, at + 8 + 8 * count
    for i in range(count - 1):
        if struct.unpack_from("<q", data, handles + 8 * i)[0] >= 0:
            start = struct.unpack_from("<q", data, ends + 8 * (i - 1))[0] if i else 0
            struct.pack_into("<q", data, ends + 8 * i, start + span_ns)
            return bytes(data)
    raise AssertionError("no allocation to cut")


class TestDeltaSliceBound:
    """A delta carries no slice records, so a new schedule may not make
    the receiver derive more than ``DELTA_SLICE_LIMIT`` slice entries;
    the same table still goes through in full, slice records and all."""

    def test_one_ns_allocation_is_bounced_before_staging(self):
        base_payload, clean = delta_cases()[0]
        hypercall = TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))
        hypercall.push_table(base_payload)
        staged, generation = hypercall.staged_table, hypercall.delta_generation
        held = cache_state()
        payload = with_short_allocation(clean, 1)
        # A 102.7 ms table in 1 ns slices: ~10^8 entries if derived.
        assert deserialize_delta(payload)[0] == 102_702_600
        start = time.perf_counter()
        with pytest.raises(TableDeltaMismatchError, match="slice entries"):
            hypercall.push_table_delta(payload)
        assert time.perf_counter() - start < 0.5
        assert hypercall.staged_table is staged
        assert hypercall.delta_generation == generation
        assert cache_state() == held

    def test_a_table_past_the_limit_goes_in_full(self):
        length_ns = DELTA_SLICE_LIMIT + 1

        def table(end):
            return SystemTable(
                length_ns=length_ns,
                cores={
                    cpu: CoreTable(
                        cpu=cpu,
                        length_ns=length_ns,
                        allocations=[Allocation(0, end, f"vm{cpu}.vcpu0")],
                    )
                    for cpu in (0, 1)
                },
            )

        hypercall = TableHypercall(TableauScheduler(SystemTable(length_ns=MS, cores={})))
        hypercall.push_system_table(table(length_ns // 2))
        changed = table(1)
        with pytest.raises(TableDeltaMismatchError, match="slice entries"):
            hypercall.push_system_table_delta(
                changed, [0, 1], hypercall.delta_generation
            )
        assert not hypercall.push_system_table(changed).delta
        assert len(hypercall.staged_table.cores[1].slices) == 2 * length_ns


class TestDeltaWarmCacheAgreesWithCold:
    """Seeded mutations of real 'TBLD' payloads, pushed on their base:
    warm and cold decode caches reach the same verdict, and a rejection
    is typed and leaves the cache as it was."""

    @given(
        case=st.integers(min_value=0, max_value=1),
        position=st.integers(min_value=0, max_value=1 << 16),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_byte_corruption(self, case, position, value):
        base_payload, clean = delta_cases()[case]
        payload = bytearray(clean)
        payload[position % len(payload)] = value
        warm, cold = warm_and_cold_delta(delta_cases()[case], bytes(payload))
        assert warm == cold

    @given(
        case=st.integers(min_value=0, max_value=1),
        word=st.integers(min_value=0, max_value=1 << 16),
        value=st.sampled_from(COLUMN_WORDS),
    )
    @settings(max_examples=200, deadline=None)
    def test_column_word_replaced(self, case, word, value):
        base_payload, clean = delta_cases()[case]
        payload = bytearray(clean)
        # A word of the per-cpu headers and columns, which end the
        # payload on its 8-byte grid.
        columns = names_end(clean)
        at = len(clean) - 8 * (1 + word % ((len(clean) - columns) // 8))
        struct.pack_into("<q", payload, at, value)
        warm, cold = warm_and_cold_delta(delta_cases()[case], bytes(payload))
        assert warm == cold

    @given(
        case=st.integers(min_value=0, max_value=1),
        cut=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_truncation(self, case, cut):
        base_payload, clean = delta_cases()[case]
        warm, cold = warm_and_cold_delta(delta_cases()[case], clean[: cut % len(clean)])
        assert isinstance(warm[1], str)
        assert warm == cold

    @given(
        case=st.integers(min_value=0, max_value=1),
        names=st.lists(st.sampled_from(NAME_POOL), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_string_table_replaced(self, case, names):
        # Names moved onto a carried core from a kept one, repeated,
        # missing, or more than the handles use: staged with the index
        # its cores derive, or a typed rejection, warm and cold alike.
        payload = with_names(delta_cases()[case][1], names)
        warm, cold = warm_and_cold_delta(delta_cases()[case], payload)
        assert warm == cold
        if not isinstance(warm[1], str):
            vcpu_names, home_cores, cores, _bytes = warm
            rebuilt = SystemTable(
                length_ns=102_702_600,
                cores={
                    cpu: CoreTable(cpu=cpu, length_ns=102_702_600, allocations=allocs)
                    for cpu, (allocs, _len, _slices) in cores.items()
                },
            )
            assert vcpu_names == rebuilt.vcpu_names
            assert list(home_cores.items()) == list(rebuilt.home_cores.items())

    @pytest.mark.parametrize("case", [0, 1])
    def test_clean_delta(self, case):
        warm, cold = warm_and_cold_delta(delta_cases()[case], delta_cases()[case][1])
        assert not isinstance(warm[1], str)
        assert warm == cold
