"""Named crashpoints: the process-death injection primitive.

A *crashpoint* is a named place in the control path where the process
may be killed mid-operation — after a journal append but before the
effects, between a temp-file write and its atomic rename, in the middle
of a push-retry loop.  Components declare their crashpoints here and
consult :func:`crashpoint` at the real decision point; a seeded
:class:`~repro.faults.crash.CrashPlan` armed via :func:`crashes_armed`
decides *which* consultation dies.

This module is a leaf (it imports nothing from :mod:`repro`), so even
the lowest layers — the service journal's append path — can consult
crashpoints without depending on the fault-planning layer above them.  The armed plan is duck-typed: anything with
``fires(point) -> Optional[int]`` works.

Two deliberate design points:

* :class:`SimulatedCrash` derives from :class:`BaseException`, **not**
  :class:`Exception` — a simulated ``kill -9`` must never be absorbed
  by the control plane's own error handling (``except ReproError`` in
  the replan path, ``except Exception`` in cache validation, the
  campaign runner's shard isolation).  It unwinds everything, exactly
  like process death.
* With no plan armed (the default everywhere), :func:`crashpoint` is a
  single global read and a return — the fault-free fingerprints are
  untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

#: Crashpoints in the tenant-request path of
#: :class:`repro.service.control.SchedulerService`.
CRASH_SERVICE_ADMIT = "service.admit"
CRASH_SERVICE_FLUSH_PRE_PUSH = "service.flush.pre-push"
CRASH_SERVICE_FLUSH_POST_PUSH = "service.flush.post-push"
CRASH_SERVICE_COMMIT = "service.commit"

#: Crashpoint inside :meth:`repro.service.journal.ServiceJournal.append`
#: — dies after flushing *half* a record, manufacturing a real torn
#: tail for recovery to heal.
CRASH_JOURNAL_TORN_APPEND = "service.journal.torn-append"

#: Crashpoint inside the daemon's bounded push-retry loop
#: (:meth:`repro.xen.daemon.PlannerDaemon.replan`).
CRASH_DAEMON_MID_RETRY = "daemon.replan.mid-retry"

#: Every crashpoint the shipped tree consults, in registration order.
CRASHPOINTS: Tuple[str, ...] = (
    CRASH_SERVICE_ADMIT,
    CRASH_SERVICE_FLUSH_PRE_PUSH,
    CRASH_SERVICE_FLUSH_POST_PUSH,
    CRASH_SERVICE_COMMIT,
    CRASH_JOURNAL_TORN_APPEND,
    CRASH_DAEMON_MID_RETRY,
)

_registered = set(CRASHPOINTS)


def register_crashpoint(point: str) -> str:
    """Register a private crashpoint name (experiments, tests).

    Returns the name so it can be used as a module constant:
    ``MY_POINT = register_crashpoint("experiment.step.pre-write")``.
    """
    _registered.add(point)
    return point


def known_crashpoints() -> Tuple[str, ...]:
    """All registered crashpoint names (built-in first, then sorted
    extensions)."""
    extras = sorted(_registered - set(CRASHPOINTS))
    return CRASHPOINTS + tuple(extras)


def is_registered(point: str) -> bool:
    return point in _registered


class SimulatedCrash(BaseException):
    """The process "died" at a crashpoint.

    Deliberately **not** a :class:`repro.errors.ReproError` (nor even an
    :class:`Exception`): simulated process death must unwind through
    every ``except ReproError`` / ``except Exception`` recovery path in
    the control plane, exactly as a real ``SIGKILL`` would bypass them.
    Only crash harnesses (tests, the ``serve`` CLI, the campaign
    ``crash-recovery`` probe) catch it, at their outermost boundary.
    """

    def __init__(self, point: str, call_index: int) -> None:
        super().__init__(f"simulated crash at {point} (call {call_index})")
        self.point = point
        self.call_index = call_index


#: The armed crash plan (duck-typed; ``None`` = crashes disabled).
_armed: Optional[object] = None


def arm(plan: Optional[object]) -> None:
    """Install ``plan`` as the process-wide crash plan (``None`` disarms)."""
    global _armed
    _armed = plan


def disarm() -> None:
    arm(None)


def armed_plan() -> Optional[object]:
    return _armed


@contextmanager
def crashes_armed(plan: Optional[object]) -> Iterator[Optional[object]]:
    """Arm ``plan`` for the duration of the block (``None`` is a no-op
    arming, so harnesses can wrap unconditionally); always restores the
    previously armed plan, even when a :class:`SimulatedCrash` unwinds."""
    global _armed
    previous = _armed
    _armed = plan
    try:
        yield plan
    finally:
        _armed = previous


def crashpoint(point: str) -> None:
    """Consult the armed plan at ``point``; die here if it says so.

    The fast path (no plan armed) is one global read — safe on any
    code path, including the planner's write path.
    """
    plan = _armed
    if plan is None:
        return
    index = plan.fires(point)  # type: ignore[attr-defined]
    if index is not None:
        raise SimulatedCrash(point, index)


def crashpoint_fires(point: str) -> Optional[int]:
    """Like :func:`crashpoint` but returns the firing call index instead
    of raising — for sites that must do partial damage (e.g. flush half
    a journal record) *before* dying."""
    plan = _armed
    if plan is None:
        return None
    return plan.fires(point)  # type: ignore[attr-defined]
