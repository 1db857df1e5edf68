"""Content-addressed on-disk plan cache (the campaign engine's warm path).

Sec. 7.1 observes that tables for common configurations can be
"trivially" cached and reused.  :class:`~repro.core.cache.TableCache`
does that within one process; this module extends the idea across
processes and runs: a :class:`PlanStore` persists finished
:class:`~repro.core.planner.PlanResult` objects on disk, keyed by a
fingerprint of the *exact* planning inputs — the ordered census, the
topology and every planner knob.  Repeated densities across
benchmarks, campaign shards, and re-runs then skip table generation
entirely.

Entries are self-validating: a fixed-size header carries a magic
number, the store format version, and a SHA-256 digest of the payload.
A corrupt, truncated, or version-mismatched entry is never trusted —
``get`` reports a miss (counted in :attr:`PlanStoreStats.invalid`),
removes the bad file best-effort, and the caller regenerates.  Writes
go to a per-writer temporary file followed by an atomic ``os.replace``,
so concurrent writers on the same key cannot interleave bytes: readers
see either a complete old entry or a complete new one.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core.atomicio import atomic_write_bytes
from repro.core.params import VCpuSpec, VMSpec, flatten_vcpus
from repro.crashpoints import CRASH_PLANCACHE_PRE_RENAME

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.planner import Planner, PlanResult
    from repro.topology import Topology

#: Either shape the planner itself accepts.
Workload = Union[Sequence[VMSpec], Sequence[VCpuSpec]]


def _as_vcpus(workload: Workload) -> Sequence[VCpuSpec]:
    items = list(workload)
    if items and isinstance(items[0], VMSpec):
        return flatten_vcpus(items)  # type: ignore[arg-type]
    return items  # type: ignore[return-value]

#: On-disk entry format: magic | version u16 | reserved u16 | sha256.
MAGIC = b"TPLC"

#: Bump when the pickled payload's semantics change (e.g., PlanResult
#: grows a field whose absence would be misread); old entries are then
#: regenerated rather than trusted.  v2: the columnar planner stores
#: segment columns on each ``CoreTable`` and leaves slices lazy — v1
#: pickles lack the column attributes and would deserialize broken.
#: v3: ``CoreTable.slices`` is a flat ``array('i')``; a v2 core whose
#: slices were built holds ``(first, second)`` tuples instead.  v4: a
#: ``CoreTable`` keeps its schedule as shared ``Segments`` plus names
#: (never pickled), and shape keys hash the exact utilization float.
CACHE_VERSION = 4

_HEADER = struct.Struct("<4sHH32s")


@dataclass
class PlanStoreStats:
    """Hit/miss accounting for one :class:`PlanStore`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries rejected by validation (bad magic/version/digest,
    #: truncation, unpicklable payload) and regenerated.
    invalid: int = 0
    #: Orphaned ``*.plan.tmp.<pid>`` files reclaimed by the startup
    #: sweep — debris of writers that died between temp write and
    #: atomic rename.
    tmp_reclaimed: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "tmp_reclaimed": self.tmp_reclaimed,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class FsckReport:
    """What one :meth:`PlanStore.fsck` pass found (and repaired)."""

    #: Entry files examined.
    scanned: int = 0
    #: Entries that validated end-to-end (magic, version, digest,
    #: payload).
    valid: int = 0
    #: Entries that failed validation.
    corrupt: int = 0
    #: Corrupt entries moved to ``<root>/quarantine/`` (0 with
    #: ``repair=False``).
    quarantined: int = 0
    #: Orphaned temp files seen.
    tmp_seen: int = 0
    #: Orphaned temp files removed (0 with ``repair=False``).
    tmp_reclaimed: int = 0
    #: Total entry bytes read and verified.
    bytes_scanned: int = 0

    @property
    def clean(self) -> bool:
        """True when the store had nothing wrong (before repair)."""
        return self.corrupt == 0 and self.tmp_seen == 0

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "valid": self.valid,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "tmp_seen": self.tmp_seen,
            "tmp_reclaimed": self.tmp_reclaimed,
            "bytes_scanned": self.bytes_scanned,
            "clean": self.clean,
        }


def topology_token(topology: "Topology") -> str:
    """A canonical string identifying a topology for cache keying."""
    return (
        f"{topology.name}|{topology.sockets}x{topology.cores_per_socket}"
        f"|reserved={','.join(str(c) for c in topology.reserved_cores)}"
        f"|ghz={topology.frequency_ghz!r}"
    )


def plan_key(planner: "Planner", workload: Workload) -> str:
    """Content fingerprint of one planning request.

    Covers everything that can change the emitted table: the ordered
    vCPU census (order matters — EDF breaks ties by release sequence,
    which follows task order), the topology, and every
    planner knob the pipeline reads.  Two requests with equal keys
    produce bit-identical plans, so a stored entry may be substituted
    for a fresh ``planner.plan(...)`` call.
    """
    vcpus = _as_vcpus(workload)
    hasher = hashlib.sha256()
    hasher.update(f"store-v{CACHE_VERSION};".encode())
    hasher.update(topology_token(planner.topology).encode())
    hasher.update(
        (
            f";hp={planner.hyperperiod_ns};mp={planner.min_period_ns}"
            f";co={planner.coalesce_threshold_ns};pc={planner.min_piece_ns}"
            f";sl={planner.strict_latency};ph={planner.peephole}"
            f";sc={planner.split_compensation!r};rot={planner.rotation}"
            f";numa={planner.numa};policy={planner.policy!r};"
        ).encode()
    )
    for spec in vcpus:
        hasher.update(
            f"{spec.name},{spec.utilization!r},{spec.latency_ns},"
            f"{spec.capped},{spec.vm};".encode()
        )
    return hasher.hexdigest()


def shape_plan_key(planner: "Planner", workload: Workload) -> str:
    """Content fingerprint of a planning request's *shape*.

    Like :func:`plan_key` but keyed on the order-independent
    reservation multiset (:func:`repro.core.cache.census_signature`)
    instead of the exact named census.  Two censuses that differ only in
    VM names share a shape key, so a stored entry can be rebound
    (:func:`repro.core.cache.rebind_plan`) onto either — the on-disk
    counterpart of :class:`~repro.core.cache.TableCache`'s Sec. 7.1
    caching.  Under tenant churn exact names never repeat, which would
    make :func:`plan_key` entries write-only; shape keys are what keep
    a long-running control plane's store bounded and warm.
    """
    from repro.core.cache import census_signature

    vcpus = _as_vcpus(workload)
    hasher = hashlib.sha256()
    hasher.update(f"store-shape-v{CACHE_VERSION};".encode())
    hasher.update(topology_token(planner.topology).encode())
    hasher.update(
        (
            f";hp={planner.hyperperiod_ns};mp={planner.min_period_ns}"
            f";co={planner.coalesce_threshold_ns};pc={planner.min_piece_ns}"
            f";sl={planner.strict_latency};ph={planner.peephole}"
            f";sc={planner.split_compensation!r};rot={planner.rotation}"
            f";numa={planner.numa};policy={planner.policy!r};"
        ).encode()
    )
    for utilization, latency_ns, capped in census_signature(vcpus):
        hasher.update(f"{utilization!r},{latency_ns},{capped};".encode())
    return hasher.hexdigest()


class PlanStore:
    """A content-addressed, crash-tolerant plan cache rooted at ``root``.

    Args:
        root: Cache directory (created on first write).  Entries live
            under ``<root>/v<CACHE_VERSION>/<key[:2]>/<key>.plan``.
        version: Entry format version to read/write (tests override to
            exercise the mismatch path).
        sweep: Reclaim orphaned ``*.plan.tmp.<pid>`` files on open (a
            bounded scan — see :meth:`_sweep_orphans`).  ``fsck``
            harnesses pass ``False`` to observe debris instead of
            silently cleaning it.
    """

    #: Startup-sweep bound: opening a store must stay O(1)-ish even on
    #: a pathologically littered tree; anything beyond this many temp
    #: files is left for an explicit :meth:`fsck`.
    SWEEP_LIMIT = 256

    def __init__(
        self,
        root: Union[str, Path],
        version: int = CACHE_VERSION,
        sweep: bool = True,
    ) -> None:
        self.root = Path(root)
        self.version = version
        self.stats = PlanStoreStats()
        if sweep:
            self.stats.tmp_reclaimed = self._sweep_orphans()

    # ------------------------------------------------------------------
    # Path layout
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"v{CACHE_VERSION}" / key[:2] / f"{key}.plan"

    def __len__(self) -> int:
        base = self.root / f"v{CACHE_VERSION}"
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.plan"))

    # ------------------------------------------------------------------
    # Entry I/O
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional["PlanResult"]:
        """The stored plan for ``key``, or ``None`` (miss or invalid).

        Never raises on a bad entry: any validation failure counts as
        ``invalid``, removes the file best-effort, and reads as a miss
        so the caller transparently regenerates.
        """
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        result = self._decode(payload)
        if result is None:
            self.stats.misses += 1
            self.stats.invalid += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: "PlanResult") -> Path:
        """Persist ``result`` under ``key`` atomically; returns the path.

        Goes through :func:`repro.core.atomicio.atomic_write_bytes`
        (per-writer temp file, atomic ``os.replace``), consulting the
        ``plancache.write.pre-rename`` crashpoint in the window where a
        dying writer orphans its temp file — the debris the startup
        sweep and :meth:`fsck` exist to reclaim.
        """
        path = self.path_for(key)
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            MAGIC, self.version, 0, hashlib.sha256(body).digest()
        )
        atomic_write_bytes(
            path, header + body, crash_point=CRASH_PLANCACHE_PRE_RENAME
        )
        self.stats.stores += 1
        return path

    def _decode(self, payload: bytes) -> Optional["PlanResult"]:
        """Validate and unpickle one entry; ``None`` on any defect."""
        if len(payload) < _HEADER.size:
            return None
        magic, version, _reserved, digest = _HEADER.unpack_from(payload)
        if magic != MAGIC or version != self.version:
            return None
        body = payload[_HEADER.size :]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            result = pickle.loads(body)
        except Exception:
            # Defensive: a digest collision with garbage is effectively
            # impossible, but a payload pickled by an incompatible code
            # version can still fail to load; treat it as invalid.
            return None
        from repro.core.planner import PlanResult

        if not isinstance(result, PlanResult):
            return None
        return result

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            # Best-effort cleanup; a lingering bad entry just re-reads
            # as invalid next time.
            return

    # ------------------------------------------------------------------
    # Crash debris: orphan sweep and fsck
    # ------------------------------------------------------------------

    @staticmethod
    def _orphaned(tmp: Path) -> bool:
        """Is this ``*.plan.tmp.<pid>`` file reclaimable debris?

        Our own pid's temp files are always debris at sweep time (no
        write is in flight while the store is being *opened*).  Another
        pid's are debris once that process is gone; an unparsable
        suffix never named a live writer.  Only a live foreign pid —
        possibly mid-write — is left alone.
        """
        suffix = tmp.name.rsplit(".", 1)[-1]
        try:
            pid = int(suffix)
        except ValueError:
            return True
        if pid == os.getpid():
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # no such process: a dead writer's orphan
        except PermissionError:
            return False  # alive, just not ours to signal
        except OSError:
            return False
        return False  # alive

    def _iter_tmp_files(self, limit: Optional[int]) -> "list[Path]":
        if not self.root.is_dir():
            return []
        found = self.root.rglob("*.plan.tmp.*")
        if limit is not None:
            found = itertools.islice(found, limit)  # type: ignore[assignment]
        return sorted(found)

    def _sweep_orphans(self) -> int:
        """Reclaim orphaned temp files left by crashed writers.

        Bounded by :attr:`SWEEP_LIMIT` so opening a store stays cheap;
        a tree littered beyond the bound is an :meth:`fsck` job.
        Returns the number of files removed.
        """
        reclaimed = 0
        for tmp in self._iter_tmp_files(self.SWEEP_LIMIT):
            if self._orphaned(tmp):
                try:
                    tmp.unlink()
                except OSError:
                    continue
                reclaimed += 1
        return reclaimed

    def fsck(self, repair: bool = True) -> FsckReport:
        """Scan every entry, verify it end-to-end, repair the damage.

        * Each ``*.plan`` file is read fully and validated exactly as
          :meth:`get` would (magic, version, digest, pickle, type); a
          failing entry is **quarantined** — moved to
          ``<root>/quarantine/<name>`` — rather than deleted, so a
          corruption bug stays diagnosable.
        * Every orphaned temp file (unbounded scan, unlike the startup
          sweep) is removed.

        With ``repair=False`` nothing is touched; the report still
        counts what *would* be repaired.  Reclaimed temp files are also
        added to ``stats.tmp_reclaimed``.
        """
        report = FsckReport()
        quarantine = self.root / "quarantine"
        base = self.root / f"v{CACHE_VERSION}"
        entries = sorted(base.glob("*/*.plan")) if base.is_dir() else []
        for path in entries:
            try:
                payload = path.read_bytes()
            except OSError:
                continue
            report.scanned += 1
            report.bytes_scanned += len(payload)
            if self._decode(payload) is not None:
                report.valid += 1
                continue
            report.corrupt += 1
            if repair:
                quarantine.mkdir(parents=True, exist_ok=True)
                try:
                    path.replace(quarantine / path.name)
                except OSError:
                    continue
                report.quarantined += 1
        for tmp in self._iter_tmp_files(None):
            if not self._orphaned(tmp):
                continue
            report.tmp_seen += 1
            if repair:
                try:
                    tmp.unlink()
                except OSError:
                    continue
                report.tmp_reclaimed += 1
        self.stats.tmp_reclaimed += report.tmp_reclaimed
        return report

    # ------------------------------------------------------------------
    # The get-or-plan convenience the experiments and campaigns use
    # ------------------------------------------------------------------

    def plan(self, planner: "Planner", workload: Workload) -> "PlanResult":
        """Plan ``workload`` with ``planner``, reusing a stored result.

        On a hit the returned plan's ``stats.plan_cache_hit`` is True
        and no planner work runs; on a miss the fresh result is stored
        before being returned (with ``plan_cache_hit`` False).
        """
        vcpus = _as_vcpus(workload)
        key = plan_key(planner, vcpus)
        cached = self.get(key)
        if cached is not None:
            cached.stats.plan_cache_hit = True
            return cached
        result = planner.plan(list(vcpus))
        result.stats.plan_cache_hit = False
        self.put(key, result)
        return result

    def plan_shaped(self, planner: "Planner", workload: Workload) -> "PlanResult":
        """Plan ``workload``, reusing any stored *same-shape* result.

        Keys on :func:`shape_plan_key`, so a hit may carry different VM
        names than the request: the stored plan is rebound onto the
        requested census with
        :func:`repro.core.cache.rebind_plan` (an O(table) rename — no
        planner work).  This is the lookup long-running control planes
        use: under create/destroy churn the shape space is small and
        revisited while the name space grows without bound.
        """
        from repro.core.cache import rebind_plan

        vcpus = _as_vcpus(workload)
        key = shape_plan_key(planner, vcpus)
        cached = self.get(key)
        if cached is not None:
            result = rebind_plan(cached, vcpus)
            result.stats.plan_cache_hit = True
            return result
        result = planner.plan(list(vcpus))
        result.stats.plan_cache_hit = False
        self.put(key, result)
        return result
