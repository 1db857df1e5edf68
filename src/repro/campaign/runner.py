"""The multiprocess campaign engine.

Executes a :class:`~repro.campaign.matrix.CampaignMatrix`'s shards on a
``ProcessPoolExecutor`` with per-shard timeouts, one retry after a
worker crash, and a resumable JSONL run log.  Results are keyed by
shard id and merged back in matrix order, so the aggregate a parallel
run produces is byte-identical to a serial (``workers=1``) run — and to
a run resumed from a half-complete log.

Shard records stream to the run log as they complete (completion
order), one JSON object per line.  ``--resume`` replays the log: shards
with an ``ok`` record are skipped, everything else re-runs, and the
merged output is indistinguishable from a single uninterrupted run.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.campaign.matrix import CampaignMatrix
from repro.campaign.report import aggregate_records, campaign_report
from repro.campaign.shard import ShardSpec, run_shard


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    matrix: CampaignMatrix
    #: One record per shard, in matrix order (the deterministic merge).
    records: List[Dict[str, object]]
    #: Deterministic aggregate (see :func:`aggregate_records`).
    aggregate: Dict[str, object]
    #: Full report: aggregate + timings + cache stats (not byte-stable).
    report: Dict[str, object]
    workers: int
    wall_s: float
    #: Shards skipped because a resumed log already had their result.
    resumed: int = 0
    #: Shards retried after a worker crash.
    retried: int = 0
    failures: List[str] = field(default_factory=list)
    log_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def _failure_record(
    spec: ShardSpec, status: str, error: str
) -> Dict[str, object]:
    return {
        "shard": spec.shard_id,
        "index": spec.index,
        "status": status,
        "spec": spec.as_dict(),
        "error": error,
        "metrics": {},
        "timings": {},
        "plan_cache": None,
    }


def _write_record(log: Optional[TextIO], record: Dict[str, object]) -> None:
    if log is None:
        return
    log.write(json.dumps(record, sort_keys=True) + "\n")
    log.flush()


def load_run_log(path: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Completed (``ok``) records from a JSONL run log, keyed by shard id.

    Tolerates a truncated final line (the crash-interrupted write the
    resume path exists for); malformed lines are skipped, not fatal.
    """
    completed: Dict[str, Dict[str, object]] = {}
    log_file = Path(path)
    if not log_file.exists():
        return completed
    with open(log_file, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("status") == "ok"
                and isinstance(record.get("shard"), str)
            ):
                completed[record["shard"]] = record
    return completed


def _run_serial(
    pending: List[ShardSpec],
    log: Optional[TextIO],
) -> Tuple[Dict[str, Dict[str, object]], List[str], int]:
    """The workers<=1 path: same executor, same records, no pool."""
    results: Dict[str, Dict[str, object]] = {}
    failures: List[str] = []
    for spec in pending:
        try:
            record = run_shard(spec)
        except Exception as error:  # noqa: BLE001 - shard isolation
            record = _failure_record(
                spec, "failed", f"{type(error).__name__}: {error}"
            )
            failures.append(f"{spec.shard_id}: {record['error']}")
        results[spec.shard_id] = record
        _write_record(log, record)
    return results, failures, 0


def _run_parallel(
    pending: List[ShardSpec],
    log: Optional[TextIO],
    workers: int,
    shard_timeout_s: Optional[float],
) -> Tuple[Dict[str, Dict[str, object]], List[str], int]:
    """Pool execution with retry-once-per-shard on worker crashes.

    A crashed worker breaks the whole pool (every outstanding future
    raises ``BrokenProcessPool``); affected shards are requeued — once
    each — into a fresh pool.  Ordinary exceptions are deterministic
    shard failures and are recorded without retry.

    The timeout is a *shared deadline*: every shard of a round gets
    ``shard_timeout_s`` measured from submission, and awaiting in
    submission order charges each future only the time remaining until
    that deadline.  (The naive per-await ``result(timeout=...)`` form
    restarts the clock on every future, so one slow early shard grants
    all later shards its elapsed time — a queue of N shards could take
    N*timeout wall-clock and shards that finished long ago would still
    be reported after the stragglers.)  When the deadline expires the
    round ends the way a crash does: finished futures are harvested,
    running ones are recorded as timeouts, never-started ones are
    requeued into a fresh pool with no attempt charged, and the old
    pool is abandoned without waiting — ``future.cancel()`` cannot stop
    a running task, so blocking in the executor's ``__exit__`` (the old
    code path) would stall the whole campaign behind the very shard
    that just timed out.
    """
    results: Dict[str, Dict[str, object]] = {}
    failures: List[str] = []
    attempts: Dict[str, int] = {}
    retried = 0
    queue = list(pending)

    def consume(spec: ShardSpec, record: Dict[str, object], note: str = "") -> None:
        attempts[spec.shard_id] = attempts.get(spec.shard_id, 0) + 1
        if record["status"] != "ok":
            failures.append(note or f"{spec.shard_id}: {record['error']}")
        results[spec.shard_id] = record
        _write_record(log, record)

    while queue:
        crashed: List[ShardSpec] = []
        requeue: List[ShardSpec] = []
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            deadline = (
                time.monotonic() + shard_timeout_s
                if shard_timeout_s is not None
                else None
            )
            futures = [
                (spec, pool.submit(run_shard, spec))
                for spec in queue
            ]
            expired = False
            for pos, (spec, future) in enumerate(futures):
                if expired:
                    break
                remaining = (
                    max(0.0, deadline - time.monotonic())
                    if deadline is not None
                    else None
                )
                try:
                    record = future.result(timeout=remaining)
                except FutureTimeout:
                    expired = True
                    consume(
                        spec,
                        _failure_record(
                            spec,
                            "timeout",
                            f"shard exceeded {shard_timeout_s}s",
                        ),
                        note=f"{spec.shard_id}: timeout",
                    )
                    # Deadline sweep over everything not yet awaited:
                    # done futures are real results and must not be
                    # discarded; running ones share the blown deadline;
                    # pending ones never started, so they go back into
                    # a fresh pool without an attempt charged.
                    for later_spec, later_future in futures[pos + 1 :]:
                        if later_future.done():
                            try:
                                later_record = later_future.result()
                            except BrokenProcessPool:
                                attempts[later_spec.shard_id] = (
                                    attempts.get(later_spec.shard_id, 0) + 1
                                )
                                crashed.append(later_spec)
                                continue
                            except Exception as error:  # noqa: BLE001
                                later_record = _failure_record(
                                    later_spec,
                                    "failed",
                                    f"{type(error).__name__}: {error}",
                                )
                            consume(later_spec, later_record)
                        elif later_future.cancel():
                            requeue.append(later_spec)
                        else:
                            consume(
                                later_spec,
                                _failure_record(
                                    later_spec,
                                    "timeout",
                                    f"shard exceeded {shard_timeout_s}s",
                                ),
                                note=f"{later_spec.shard_id}: timeout",
                            )
                    continue
                except BrokenProcessPool:
                    attempts[spec.shard_id] = (
                        attempts.get(spec.shard_id, 0) + 1
                    )
                    crashed.append(spec)
                    continue
                except Exception as error:  # noqa: BLE001 - shard isolation
                    record = _failure_record(
                        spec, "failed", f"{type(error).__name__}: {error}"
                    )
                consume(spec, record)
        finally:
            # Never wait: a running shard cannot be cancelled, and the
            # next round must not queue behind it.  Workers of an
            # expired round exit on their own once their task returns.
            pool.shutdown(wait=False, cancel_futures=True)
        queue = list(requeue)
        for spec in crashed:
            if attempts[spec.shard_id] <= 1:
                retried += 1
                queue.append(spec)
            else:
                record = _failure_record(
                    spec, "crashed", "worker crashed twice; giving up"
                )
                failures.append(f"{spec.shard_id}: worker crashed twice")
                results[spec.shard_id] = record
                _write_record(log, record)
    return results, failures, retried


def run_campaign(
    matrix: CampaignMatrix,
    workers: int = 1,
    log_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shard_timeout_s: Optional[float] = None,
) -> CampaignResult:
    """Run every shard of ``matrix`` and build the deterministic merge.

    Args:
        matrix: The declarative experiment grid.
        workers: Process-pool width; ``<=1`` runs in-process (the
            reference serial path — identical records by construction).
        log_path: JSONL run log; records stream here as shards finish.
        resume: Skip shards that already have an ``ok`` record in
            ``log_path`` (new records are appended).
        shard_timeout_s: Per-shard result deadline in the parallel
            path; a shard that exceeds it is recorded as ``timeout``.
    """
    started = time.perf_counter()
    shards = matrix.expand()

    completed: Dict[str, Dict[str, object]] = {}
    if resume and log_path is not None:
        wanted = {spec.shard_id for spec in shards}
        completed = {
            shard_id: record
            for shard_id, record in load_run_log(log_path).items()
            if shard_id in wanted
        }
    pending = [spec for spec in shards if spec.shard_id not in completed]

    log: Optional[TextIO] = None
    if log_path is not None:
        log_file = Path(log_path)
        log_file.parent.mkdir(parents=True, exist_ok=True)
        if resume and log_file.exists():
            # A crash mid-write leaves a torn final line with no
            # newline; terminate it or the first appended record would
            # merge into it and be lost on the next resume.
            tail = log_file.read_bytes()[-1:]
            if tail and tail != b"\n":
                with open(log_file, "a", encoding="utf-8") as handle:
                    handle.write("\n")
        if not resume:
            # Fresh run: drop any stale log, then append — never open
            # with a truncating mode (err-nonatomic-write); the run log
            # is append-only by contract, and resume depends on that.
            log_file.unlink(missing_ok=True)
        log = open(log_file, "a", encoding="utf-8")
    try:
        if workers <= 1:
            results, failures, retried = _run_serial(pending, log)
        else:
            results, failures, retried = _run_parallel(
                pending, log, workers, shard_timeout_s
            )
    finally:
        if log is not None:
            log.close()

    merged = dict(completed)
    merged.update(results)
    # The deterministic merge: matrix order, not completion order.
    records = [merged[spec.shard_id] for spec in shards]
    wall = time.perf_counter() - started

    aggregate = aggregate_records(matrix, records)
    report = campaign_report(
        matrix,
        records,
        aggregate,
        workers=workers,
        wall_s=wall,
        resumed=len(completed),
        retried=retried,
    )
    return CampaignResult(
        matrix=matrix,
        records=records,
        aggregate=aggregate,
        report=report,
        workers=workers,
        wall_s=wall,
        resumed=len(completed),
        retried=retried,
        failures=failures,
        log_path=Path(log_path) if log_path is not None else None,
    )
