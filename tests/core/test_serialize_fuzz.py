"""Fuzz tests for the binary table decoder.

The hypercall boundary is hostile territory: dom0's planner daemon is
trusted, but the decoder must still fail cleanly (``TableFormatError``,
never a crash or a silently corrupt table) on any malformed payload.
The decoder remembers the core blocks it accepted, so each hostile
payload is also decoded against a warm cache, which must reach the same
verdict as a cold one.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MS, Planner, make_vm
from repro.core.serialize import clear_decode_cache, deserialize, serialize
from repro.core.table import Allocation, CoreTable, SystemTable
from repro.errors import ReproError, TableFormatError
from repro.topology import xeon_16core


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
