"""Hostile journals: every input recovers or raises a typed error.

Once opened, a journal drives :meth:`SchedulerService.recover` and
:func:`resume_service`, so its bytes reach the request path.  Two
families of input are thrown at that pipeline:

* a real journal, mutated (bytes flipped, inserted or deleted) or cut
  short — the CRC framing must heal or refuse it;
* a real journal's prefix followed by records with valid CRCs whose
  JSON this journal never writes: wrong types, missing fields, unknown
  kinds, unusable churn checkpoints, deep nesting.

Each must either recover and resume, or raise a
:class:`~repro.errors.ReproError`; any other exception fails.  Replay
simulates every nanosecond up to the latest time a journal names, so
generated times stay within about 18 simulated minutes: the point is
typed errors, not how long a journal claiming years of history takes
to replay.
"""

from __future__ import annotations

import base64
import functools
import json
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import JournalError, ReproError
from repro.service import (
    JOURNAL_VERSION,
    REQUEST_KINDS,
    ChurnConfig,
    SchedulerService,
    ServiceConfig,
    ServiceJournal,
    resume_service,
    run_service,
)
from repro.topology import uniform

DURATION_S = 5.0
DURATION_NS = int(DURATION_S * 1e9)
TOPOLOGY = uniform(8)
CONFIG = ServiceConfig(batch_window_ms=1000.0)
CHURN = ChurnConfig(seed=42, arrival_rate_per_s=6.0, target_population=10)

#: Bound on every generated integer (2^40 ns is about 18 minutes).
TIME_BOUND = 1 << 40

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def header() -> bytes:
    return struct.pack("<4sHH", b"TJNL", JOURNAL_VERSION, 0)


@functools.lru_cache(maxsize=None)
def real_journal() -> bytes:
    """The bytes of one uninterrupted journaled run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.bin"
        with ServiceJournal(path) as journal:
            run_service(
                TOPOLOGY,
                duration_s=DURATION_S,
                churn=CHURN,
                config=CONFIG,
                journal=journal,
            )
        return path.read_bytes()


@functools.lru_cache(maxsize=None)
def real_records() -> list:
    """The real journal's records as framed bytes, in order."""
    data = real_journal()
    offset = len(header())
    frames = []
    while offset < len(data):
        length, _crc = struct.unpack_from("<II", data, offset)
        end = offset + 8 + length
        frames.append(data[offset:end])
        offset = end
    return frames


@functools.lru_cache(maxsize=None)
def real_rng_blob() -> str:
    for raw in real_records():
        record = json.loads(raw[8:])
        if isinstance(record.get("churn"), dict):
            return record["churn"]["rng"]
    raise AssertionError("the real journal carries no churn checkpoint")


def recover_or_typed_error(data: bytes) -> None:
    """Open, recover and resume ``data``; only a ``ReproError`` may
    escape (and is swallowed here: it is the accepted outcome)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.bin"
        path.write_bytes(data)
        try:
            journal = ServiceJournal(path)
        except ReproError:
            return
        try:
            service = SchedulerService.recover(TOPOLOGY, journal, config=CONFIG)
            resume_service(service, DURATION_S, churn=CHURN)
        except ReproError:
            pass
        finally:
            journal.close()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-TIME_BOUND, TIME_BOUND)
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def or_junk(valid):
    return valid | json_values


rng_blobs = st.sampled_from(
    [
        "!!!notbase64",
        base64.b64encode(b"not zlib").decode(),
        base64.b64encode(zlib.compress(b"[3, 7, null]")).decode(),
        base64.b64encode(zlib.compress(b"[" * 5000)).decode(),
        base64.b64encode(zlib.compress(b" " * (1 << 17))).decode(),
    ]
) | st.builds(lambda: real_rng_blob())
checkpoints = st.fixed_dictionaries(
    {},
    optional={
        "generated": or_junk(st.integers(0, 200)),
        "births": or_junk(st.integers(0, 200)),
        "t": or_junk(st.floats().map(float.hex)),
        "rng": or_junk(rng_blobs),
    },
)
request_records = st.fixed_dictionaries(
    {"type": st.just("request")},
    optional={
        "seq": or_junk(st.integers(0, 200)),
        "kind": or_junk(st.sampled_from(REQUEST_KINDS)),
        "tenant": or_junk(st.sampled_from(["t000000", "t000001", "x"])),
        "tier": or_junk(
            st.sampled_from(["economy", "standard", "dedicated", "gold", None])
        ),
        "arrival_ns": or_junk(st.integers(0, DURATION_NS)),
        "churn": or_junk(checkpoints),
    },
)
commit_records = st.fixed_dictionaries(
    {"type": st.just("commit")},
    optional={
        "end_seq": or_junk(st.integers(0, 200)),
        "now": or_junk(st.integers(0, DURATION_NS)),
        "batch": json_values,
        "counters": json_values,
    },
)
hostile_payloads = (
    (request_records | commit_records | json_values).map(
        lambda record: json.dumps(record).encode()
    )
    | st.sampled_from([b"[" * 100_000, b"{" * 100_000, b"\xff\xfe", b""])
)


@st.composite
def mutated_journals(draw):
    data = bytearray(real_journal())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if op == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=16))
        elif op == "delete":
            del data[at : at + draw(st.integers(1, 64))]
        else:
            del data[at:]
    return bytes(data)


@st.composite
def hostile_journals(draw):
    frames = real_records()
    keep = draw(st.integers(0, len(frames)))
    hostile = draw(st.lists(hostile_payloads, min_size=1, max_size=3))
    tail = b"".join(frame(payload) for payload in hostile)
    return header() + b"".join(frames[:keep]) + tail


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@FUZZ
@given(data=mutated_journals())
def test_mutated_journal_recovers_or_raises_typed(data):
    recover_or_typed_error(data)


@FUZZ
@given(data=hostile_journals())
def test_crc_valid_hostile_records_recover_or_raise_typed(data):
    recover_or_typed_error(data)


# ----------------------------------------------------------------------
# The hostile records that escaped untyped before
# ----------------------------------------------------------------------


def write_journal(path: Path, *records: object) -> Path:
    payloads = [
        r if isinstance(r, bytes) else json.dumps(r).encode() for r in records
    ]
    path.write_bytes(header() + b"".join(frame(p) for p in payloads))
    return path


def create(seq: int, **fields: object) -> dict:
    record = {
        "type": "request",
        "seq": seq,
        "kind": "create",
        "tenant": f"t{seq:06d}",
        "tier": "economy",
        "arrival_ns": 5,
        "churn": None,
    }
    record.update(fields)
    return record


class TestTypedErrors:
    def test_deep_nesting_is_a_torn_tail(self, tmp_path):
        path = write_journal(tmp_path / "wal.bin", create(0), b"[" * 100_000)
        with ServiceJournal(path) as journal:
            assert len(journal.records) == 1
            assert journal.healed_bytes == 8 + 100_000

    @pytest.mark.parametrize(
        "record, field",
        [
            ({k: v for k, v in create(4).items() if k != "kind"}, "kind"),
            (create(4, arrival_ns="abc"), "arrival_ns"),
            (create(4, kind="reboot"), "kind"),
            (create(4, tier=["economy"]), "tier"),
        ],
    )
    def test_malformed_request_names_its_seq(self, tmp_path, record, field):
        path = write_journal(tmp_path / "wal.bin", record)
        with ServiceJournal(path) as journal:
            with pytest.raises(JournalError, match=f"seq=4: malformed {field}"):
                SchedulerService.recover(TOPOLOGY, journal, config=CONFIG)

    @pytest.mark.parametrize(
        "checkpoint",
        [
            {},
            {"rng": "!!!notbase64", "generated": 1, "births": 1, "t": "0x0.0p+0"},
            {"rng": "<real>", "generated": "1", "births": 1, "t": "0x0.0p+0"},
            {"rng": "<real>", "generated": 1, "births": 1, "t": "nan"},
        ],
    )
    def test_unusable_checkpoint_names_its_seq(self, tmp_path, checkpoint):
        if checkpoint.get("rng") == "<real>":
            checkpoint = dict(checkpoint, rng=real_rng_blob())
        path = write_journal(tmp_path / "wal.bin", create(7, churn=checkpoint))
        with ServiceJournal(path) as journal:
            service = SchedulerService.recover(TOPOLOGY, journal, config=CONFIG)
            with pytest.raises(JournalError, match="seq=7: unusable churn"):
                resume_service(service, DURATION_S, churn=CHURN)
