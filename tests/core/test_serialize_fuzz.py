"""Fuzz tests for the binary table decoder.

The hypercall boundary is hostile territory: dom0's planner daemon is
trusted, but the decoder must still fail cleanly (``TableFormatError``,
never a crash or a silently corrupt table) on any malformed payload.
The decoder remembers the core blocks it accepted, so each hostile
payload is also decoded against a warm cache, which must reach the same
verdict as a cold one.  Delta ('TBLD') pushes share the cache of
accepted schedules, so mutated real deltas are pushed on their base
with the cache warm and cold too.
"""

import importlib
import struct
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MS, Planner, make_vm
from repro.core.serialize import (
    _DECODED,
    _SCHEDULES,
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


#: Slice entries past which a mutated delta is not pushed: the receiver
#: derives each changed core's slice table (length over the shortest
#: allocation), which no byte of the payload bounds.  A 1 ns allocation
#: on a 102.7 ms table is 10^8 entries, gigabytes for the test process;
#: that unbounded derivation is a known defect (ROADMAP item 4).
SLICE_ENTRY_LIMIT = 1 << 20


def unbounded_derivation(payload):
    """Whether pushing ``payload`` would derive a slice table of more
    than ``SLICE_ENTRY_LIMIT`` entries on some changed core."""
    try:
        length_ns, _names, _token, columns = deserialize_delta(payload)
    except TableFormatError:
        return False
    for ends, handles in columns.values():
        starts = [0, *ends[:-1]]
        lengths = [e - s for s, e, h in zip(starts, ends, handles) if h >= 0]
        if lengths and -(-length_ns // min(lengths)) > SLICE_ENTRY_LIMIT:
            return True
    return False


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


def names_end(payload):
    """The offset where a 'TBLD' payload's string table ends."""
    (count,) = struct.unpack_from("<I", payload, 16)
    offset = 24
    for _ in range(count):
        offset += 2 + struct.unpack_from("<H", payload, offset)[0]
    return offset


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
        assume(not unbounded_derivation(payload))
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
        assume(not unbounded_derivation(payload))
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

    @pytest.mark.parametrize("case", [0, 1])
    def test_clean_delta(self, case):
        warm, cold = warm_and_cold_delta(delta_cases()[case], delta_cases()[case][1])
        assert not isinstance(warm[1], str)
        assert warm == cold
