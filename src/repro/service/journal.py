"""The service write-ahead log: crash-consistent tenant history.

:class:`ServiceJournal` is an append-only record of everything a
:class:`~repro.service.control.SchedulerService` needs to rebuild
itself after dying mid-run:

* **request records** — every submitted :class:`TenantRequest`
  (queries included: they consume RNG draws and move counters, so
  replay needs them), appended *before* the request takes effect (the
  WAL discipline), each carrying the churn generator's full RNG-state
  checkpoint so the post-recovery stream resumes exactly where the
  crashed one stopped;
* **commit markers** — one per committed flush window, snapshotting
  the service's running counters (daemon episode counters included) at
  the commit point; during recovery a replayed commit is verified
  against its marker, turning "deterministic replay" from an
  assumption into a checked invariant.

On-disk format: an 8-byte file header (``TJNL`` magic, ``u16``
version, ``u16`` reserved) followed by length-prefixed records —
``u32`` payload length, ``u32`` CRC-32 of the payload, then the
payload (canonical JSON, sorted keys).  Appends are flushed per
record, so the journal's durable prefix always ends on a record
boundary *except* when the process dies mid-append; :meth:`open`
detects that torn tail (bad length, bad CRC, short payload, a payload
that does not decode), truncates it, and reports the healed byte
count.  A record that passes its CRC is still not trusted: replay
rejects one whose fields this journal could not have written with
:class:`~repro.errors.JournalError`.  Idempotent appends — request
records deduplicated by ``seq``, commit markers by ``end_seq`` — make
recovery replay through the *same* journal safe: re-submitting a
journaled request is a no-op on disk (exactly-once, not
at-least-once).
"""

from __future__ import annotations

import base64
import json
import os
import reprlib
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.crashpoints import (
    CRASH_JOURNAL_TORN_APPEND,
    SimulatedCrash,
    crashpoint_fires,
)
from repro.errors import JournalError
from repro.service.requests import REQUEST_KINDS, TenantRequest

MAGIC = b"TJNL"

#: Bump when record semantics change; old journals are then refused
#: rather than misreplayed.
JOURNAL_VERSION = 1

_FILE_HEADER = struct.Struct("<4sHH")
_REC_HEADER = struct.Struct("<II")

#: Sanity bound on one record's payload; a length field beyond this is
#: torn-tail garbage, not a record.
_MAX_RECORD_BYTES = 1 << 24

#: Bound on an inflated RNG checkpoint: a Mersenne Twister state is
#: about 7 KB of JSON, so a blob inflating past this was not written by
#: :func:`encode_rng_state`.
_MAX_RNG_STATE_BYTES = 1 << 16

#: Record kinds.
REC_REQUEST = "request"
REC_COMMIT = "commit"


def encode_rng_state(state: Tuple[object, ...]) -> str:
    """Compact, exact encoding of ``random.Random.getstate()``.

    The state is JSON (ints and an optional float survive exactly),
    zlib-compressed (624 Mersenne words squeeze well), base64-armored
    so it embeds in a JSON record.  No pickle: a journal must stay
    loadable by code that does not trust its bytes.
    """
    version, internal, gauss = state
    raw = json.dumps(
        [version, list(internal), gauss], separators=(",", ":")
    ).encode("ascii")
    return base64.b64encode(zlib.compress(raw, 6)).decode("ascii")


def decode_rng_state(blob: str) -> Tuple[object, ...]:
    """Inverse of :func:`encode_rng_state`.

    A blob it did not write raises ``ValueError``, ``TypeError`` or
    ``zlib.error``, and never inflates past ``_MAX_RNG_STATE_BYTES``.
    """
    inflate = zlib.decompressobj()
    raw = inflate.decompress(
        base64.b64decode(blob.encode("ascii")), _MAX_RNG_STATE_BYTES
    )
    if inflate.unconsumed_tail:
        raise ValueError("RNG state inflates past a Mersenne state")
    version, internal, gauss = json.loads(raw)
    return (version, tuple(internal), gauss)


class ServiceJournal:
    """An append-only, CRC-checked WAL at ``path``.

    Opening an existing journal validates the header, loads every
    intact record, and truncates any torn tail in place (the healed
    byte count is kept in :attr:`healed_bytes`).  Opening a missing or
    empty file writes a fresh header.  The journal then stays open in
    append mode; every append is flushed before it returns, so the
    record is durable before its effects happen.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.records: List[Dict[str, object]] = []
        self.healed_bytes = 0
        self.appended = 0
        self._last_request_seq = -1
        self._commits: Dict[int, Dict[str, object]] = {}
        self._last_churn: Optional[Dict[str, object]] = None
        self._last_churn_seq: object = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load()
        # Append-only open: creates the file when missing, never
        # truncates an existing one (the atomic-write lint rule bans
        # mode "w" here on purpose — a journal is only ever appended).
        self._file = open(self.path, "ab")
        if self._file.tell() == 0:
            self._file.write(_FILE_HEADER.pack(MAGIC, JOURNAL_VERSION, 0))
            self._file.flush()

    # ------------------------------------------------------------------
    # Open / heal
    # ------------------------------------------------------------------

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        if not data:
            return
        if len(data) < _FILE_HEADER.size:
            raise JournalError(f"{self.path}: shorter than a journal header")
        magic, version, _reserved = _FILE_HEADER.unpack_from(data)
        if magic != MAGIC:
            raise JournalError(f"{self.path}: bad journal magic {magic!r}")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {version} != "
                f"{JOURNAL_VERSION}"
            )
        offset = _FILE_HEADER.size
        good_end = offset
        size = len(data)
        while offset + _REC_HEADER.size <= size:
            length, crc = _REC_HEADER.unpack_from(data, offset)
            start = offset + _REC_HEADER.size
            end = start + length
            if length > _MAX_RECORD_BYTES or end > size:
                break
            payload = data[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break
            try:
                record = json.loads(payload)
            except (ValueError, RecursionError):
                # Undecodable, or nested past the parser's depth.
                break
            if not isinstance(record, dict):
                break
            self._index(record)
            good_end = end
            offset = end
        if good_end < size:
            # Torn tail: everything after the last intact record is a
            # partial append from the crash; truncate so the next
            # append lands on a record boundary.
            self.healed_bytes = size - good_end
            os.truncate(self.path, good_end)

    def _index(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        kind = record.get("type")
        if kind == REC_REQUEST:
            seq = record.get("seq")
            if isinstance(seq, int) and seq > self._last_request_seq:
                self._last_request_seq = seq
            churn = record.get("churn")
            if isinstance(churn, dict):
                self._last_churn = churn
                self._last_churn_seq = seq
        elif kind == REC_COMMIT:
            end_seq = record.get("end_seq")
            if isinstance(end_seq, int):
                self._commits[end_seq] = record

    # ------------------------------------------------------------------
    # Introspection the recovery path reads
    # ------------------------------------------------------------------

    @property
    def last_request_seq(self) -> int:
        """Highest journaled request ``seq`` (-1 when none)."""
        return self._last_request_seq

    @property
    def last_churn_state(self) -> Optional[Dict[str, object]]:
        """Most recent churn-generator checkpoint, if any."""
        return self._last_churn

    @property
    def last_churn_seq(self) -> object:
        """``seq`` of the request record carrying :attr:`last_churn_state`
        (as journaled, so possibly not an int)."""
        return self._last_churn_seq

    def request_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == REC_REQUEST]

    def commit_records(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("type") == REC_COMMIT]

    def horizon_ns(self) -> int:
        """Latest simulated time any request or commit record describes —
        how far recovery must replay before live traffic may resume.
        Records of any other type are never replayed, so they do not
        stretch the replay either."""
        horizon = 0
        for record in self.records:
            kind = record.get("type")
            if kind == REC_REQUEST:
                stamp = record.get("arrival_ns")
            elif kind == REC_COMMIT:
                stamp = record.get("now")
            else:
                continue
            if isinstance(stamp, int) and stamp > horizon:
                horizon = stamp
        return horizon

    @staticmethod
    def request_from(record: Dict[str, object]) -> TenantRequest:
        """Rehydrate a journaled request record.

        Raises :class:`JournalError` naming the record's ``seq`` when a
        field is missing or of a type this journal never writes.
        """
        seq = record.get("seq")
        kind = record.get("kind")
        tenant = record.get("tenant")
        tier = record.get("tier")
        arrival_ns = record.get("arrival_ns")
        checks = (
            ("seq", type(seq) is int),
            ("kind", isinstance(kind, str) and kind in REQUEST_KINDS),
            ("tenant", isinstance(tenant, str)),
            ("tier", tier is None or isinstance(tier, str)),
            ("arrival_ns", type(arrival_ns) is int),
        )
        bad = [name for name, ok in checks if not ok]
        if bad:
            raise JournalError(
                f"request record seq={reprlib.repr(seq)}: malformed "
                f"{', '.join(bad)}"
            )
        return TenantRequest(
            kind=kind,  # type: ignore[arg-type]
            tenant=tenant,  # type: ignore[arg-type]
            tier=tier,  # type: ignore[arg-type]
            arrival_ns=arrival_ns,  # type: ignore[arg-type]
            seq=seq,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Appends (idempotent)
    # ------------------------------------------------------------------

    def append_request(
        self,
        request: TenantRequest,
        churn_state: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Journal one submitted request; ``False`` when ``seq`` is
        already durable (recovery replaying through this journal)."""
        if request.seq <= self._last_request_seq:
            return False
        record: Dict[str, object] = {
            "type": REC_REQUEST,
            "seq": request.seq,
            "kind": request.kind,
            "tenant": request.tenant,
            "tier": request.tier,
            "arrival_ns": request.arrival_ns,
            "churn": churn_state,
        }
        self._append(record)
        self._index(record)
        return True

    def append_commit(
        self, marker: Dict[str, object]
    ) -> Optional[Dict[str, object]]:
        """Journal one flush-window commit marker.

        Returns ``None`` when freshly appended; when a marker for the
        same ``end_seq`` is already durable, returns that existing
        record *without writing* — the caller compares it against the
        replayed state to verify recovery."""
        end_seq = marker["end_seq"]
        assert isinstance(end_seq, int)
        existing = self._commits.get(end_seq)
        if existing is not None:
            return existing
        self._append(marker)
        self._index(marker)
        return None

    def _append(self, record: Dict[str, object]) -> None:
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        frame = (
            _REC_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        torn_at = crashpoint_fires(CRASH_JOURNAL_TORN_APPEND)
        if torn_at is not None:
            # Die mid-append: flush a prefix of the frame so the file
            # genuinely ends in a torn record, then kill the process.
            # The record is NOT in the durable prefix — recovery must
            # regenerate it (the churn stream is deterministic), which
            # is exactly what the torn-tail sweep test proves.
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            raise SimulatedCrash(CRASH_JOURNAL_TORN_APPEND, torn_at)
        self._file.write(frame)
        self._file.flush()
        self.appended += 1

    # ------------------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "ServiceJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.records)
