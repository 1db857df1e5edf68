"""The tenant WAL: framing, healing, idempotent appends
(repro.service.journal)."""

import json
import random
import struct
import zlib

import pytest

from repro.errors import JournalError
from repro.service import (
    JOURNAL_VERSION,
    KIND_CREATE,
    KIND_TEARDOWN,
    ServiceJournal,
    TenantRequest,
    decode_rng_state,
    encode_rng_state,
)

MS = 1_000_000


def request(seq: int, tenant: str = "t0", at: int = 0) -> TenantRequest:
    return TenantRequest(
        KIND_CREATE, tenant, tier="economy", arrival_ns=at, seq=seq
    )


def frame(payload: bytes) -> bytes:
    """One record as the journal frames it: length, CRC-32, payload."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class TestFraming:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = tmp_path / "wal.bin"
        with ServiceJournal(path) as journal:
            assert len(journal) == 0
        data = path.read_bytes()
        magic, version, _ = struct.unpack_from("<4sHH", data)
        assert magic == b"TJNL"
        assert version == JOURNAL_VERSION

    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.bin"
        with ServiceJournal(path) as journal:
            assert journal.append_request(request(0, "a", at=5 * MS))
            assert journal.append_request(
                TenantRequest(
                    KIND_TEARDOWN, "a", tier=None, arrival_ns=9 * MS, seq=1
                )
            )
        with ServiceJournal(path) as reopened:
            records = reopened.request_records()
            assert [r["seq"] for r in records] == [0, 1]
            first = ServiceJournal.request_from(records[0])
            assert first == request(0, "a", at=5 * MS)
            assert reopened.last_request_seq == 1
            assert reopened.horizon_ns() == 9 * MS

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"NOPE" + bytes(4))
        with pytest.raises(JournalError):
            ServiceJournal(path)

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(struct.pack("<4sHH", b"TJNL", JOURNAL_VERSION + 1, 0))
        with pytest.raises(JournalError):
            ServiceJournal(path)

    def test_truncated_header_refused(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"TJ")
        with pytest.raises(JournalError):
            ServiceJournal(path)

    def test_empty_file_gets_a_fresh_header(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"")
        with ServiceJournal(path) as journal:
            assert len(journal) == 0 and journal.healed_bytes == 0
        assert path.read_bytes() == struct.pack(
            "<4sHH", b"TJNL", JOURNAL_VERSION, 0
        )

    def test_missing_parent_directory_is_created(self, tmp_path):
        path = tmp_path / "run" / "wal.bin"
        with ServiceJournal(path) as journal:
            assert journal.append_request(request(0))
        with ServiceJournal(path) as reopened:
            assert [r["seq"] for r in reopened.request_records()] == [0]

    def test_unknown_record_type_is_kept_but_never_replayed(self, tmp_path):
        path = tmp_path / "wal.bin"
        with ServiceJournal(path) as journal:
            journal.append_request(request(0, at=3 * MS))
        with open(path, "ab") as raw:
            raw.write(frame(b'{"type": "note", "now": 99000000}'))
        with ServiceJournal(path) as reopened:
            assert reopened.healed_bytes == 0
            assert len(reopened) == 2
            assert [r["seq"] for r in reopened.request_records()] == [0]
            assert reopened.commit_records() == []
            # Replay never reaches it, so its time does not extend the
            # replay either.
            assert reopened.horizon_ns() == 3 * MS


class TestTornTailHealing:
    def _journal_with_two_records(self, path):
        with ServiceJournal(path) as journal:
            journal.append_request(request(0))
            journal.append_request(request(1, at=2 * MS))
        return path.read_bytes()

    def test_half_record_truncated(self, tmp_path):
        path = tmp_path / "wal.bin"
        intact = self._journal_with_two_records(path)
        # Tear the last record in half, as a crash mid-append would.
        torn = intact[: len(intact) - 10]
        path.write_bytes(torn)
        journal = ServiceJournal(path)
        assert journal.healed_bytes > 0
        assert [r["seq"] for r in journal.request_records()] == [0]
        # The file was truncated back to the last record boundary, and
        # the healed count is exactly what was cut.
        healed_size = len(path.read_bytes())
        assert healed_size < len(torn)
        assert journal.healed_bytes == len(torn) - healed_size
        journal.close()

    def test_corrupt_crc_drops_the_tail(self, tmp_path):
        path = tmp_path / "wal.bin"
        intact = bytearray(self._journal_with_two_records(path))
        intact[-3] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(intact))
        journal = ServiceJournal(path)
        assert journal.healed_bytes > 0
        assert [r["seq"] for r in journal.request_records()] == [0]
        journal.close()

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x05\x00\x00",  # shorter than a record header
            struct.pack("<II", (1 << 24) + 1, 0),  # length past the bound
            frame(b"\xff\xfe not json"),  # valid CRC, undecodable
            frame(b"[0, 1]"),  # valid CRC, JSON but not a record
        ],
        ids=["short-header", "oversized-length", "undecodable", "not-an-object"],
    )
    def test_unreadable_record_is_a_torn_tail(self, tmp_path, tail):
        path = tmp_path / "wal.bin"
        intact = self._journal_with_two_records(path)
        path.write_bytes(intact + tail)
        with ServiceJournal(path) as journal:
            assert journal.healed_bytes == len(tail)
            assert [r["seq"] for r in journal.request_records()] == [0, 1]
        assert path.read_bytes() == intact

    def test_intact_records_after_a_bad_one_are_dropped(self, tmp_path):
        # Appends are sequential, so nothing after the first bad record
        # was durable when the process died: the whole tail goes.
        path = tmp_path / "wal.bin"
        intact = self._journal_with_two_records(path)
        later = frame(
            json.dumps(
                {"type": "request", "seq": 2, "kind": "create",
                 "tenant": "t0", "tier": "economy", "arrival_ns": 0,
                 "churn": None},
                sort_keys=True,
            ).encode()
        )
        path.write_bytes(intact + frame(b"[]") + later)
        with ServiceJournal(path) as journal:
            assert [r["seq"] for r in journal.request_records()] == [0, 1]
            assert journal.healed_bytes == len(frame(b"[]")) + len(later)

    def test_healed_journal_accepts_new_appends(self, tmp_path):
        path = tmp_path / "wal.bin"
        intact = self._journal_with_two_records(path)
        path.write_bytes(intact[:-10])
        with ServiceJournal(path) as journal:
            assert journal.append_request(request(1, at=2 * MS))
        with ServiceJournal(path) as reopened:
            assert reopened.healed_bytes == 0
            assert [r["seq"] for r in reopened.request_records()] == [0, 1]


class TestIdempotence:
    def test_duplicate_request_seq_is_a_no_op(self, tmp_path):
        with ServiceJournal(tmp_path / "wal.bin") as journal:
            assert journal.append_request(request(0)) is True
            assert journal.append_request(request(0)) is False
            assert journal.appended == 1

    def test_commit_marker_dedup_returns_existing(self, tmp_path):
        marker = {"type": "commit", "now": 5, "end_seq": 3, "batch": 4}
        with ServiceJournal(tmp_path / "wal.bin") as journal:
            assert journal.append_commit(dict(marker)) is None
            existing = journal.append_commit(
                {"type": "commit", "now": 5, "end_seq": 3, "batch": 999}
            )
            # Returned for verification, never rewritten.
            assert existing is not None
            assert existing["batch"] == 4
            assert len(journal.commit_records()) == 1


class TestChurnCheckpoints:
    def test_rng_state_round_trips_exactly(self):
        rng = random.Random(42)
        rng.random()
        rng.gauss(0, 1)
        state = rng.getstate()
        assert decode_rng_state(encode_rng_state(state)) == state
        clone = random.Random()
        clone.setstate(decode_rng_state(encode_rng_state(state)))
        assert [clone.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]

    def test_last_churn_state_survives_reopen(self, tmp_path):
        path = tmp_path / "wal.bin"
        state = {"generated": 3, "rng": "abc"}
        with ServiceJournal(path) as journal:
            journal.append_request(request(0), churn_state={"generated": 1})
            journal.append_request(request(1), churn_state=state)
        with ServiceJournal(path) as reopened:
            assert reopened.last_churn_state == state
