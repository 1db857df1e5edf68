"""Exception hierarchy shared across the Tableau reproduction.

All library errors derive from :class:`ReproError` so that callers can
catch a single base class at API boundaries while tests can assert on the
specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A user-supplied parameter is out of range or inconsistent."""


class AdmissionError(ReproError):
    """The requested VM set over-utilizes the machine (rejected up front).

    The paper treats over-utilization as a misconfiguration that the
    planner rejects before attempting table generation (Sec. 5).
    """


class LatencyInfeasibleError(ReproError):
    """No candidate period can satisfy a vCPU's latency goal.

    Raised when ``2 * (1 - U) * T > L`` for even the smallest candidate
    period (100 us), i.e., the latency goal is tighter than the dispatcher
    can enforce given scheduling-overhead-driven granularity limits.
    """


class PlanningError(ReproError):
    """Table generation failed.

    The paper's three-stage progression (partitioning, semi-partitioning,
    localized optimal scheduling) guarantees this never happens for
    feasible inputs; this error therefore indicates either an internal
    invariant violation or an infeasible input that slipped past
    admission control.
    """


class TableFormatError(ReproError):
    """A serialized scheduling table is malformed or has a bad magic/version."""


class TableDeltaMismatchError(TableFormatError):
    """A delta push does not apply to the hypervisor's staged table.

    Raised when the delta's base token names a different table
    generation than the one currently staged/serving (another push got
    in between, or no table has been pushed at all), when the delta's
    geometry (table length, core set) disagrees with the base, or when a
    changed core's new schedule would derive more slice entries than a
    delta may (``repro.core.serialize.DELTA_SLICE_LIMIT``: a full push
    carries its slice records).  The daemon treats this as a signal to
    fall back to a full-table push — unlike its parent
    :class:`TableFormatError`, it does not say the table is malformed.
    """


class TablePushError(ReproError):
    """The table-push hypercall failed before the table was staged.

    Covers transport-level failures (dom0 <-> hypervisor) and hypervisor-
    side rejections other than format validation.  A push failure never
    disturbs the currently installed table: the hypervisor keeps serving
    the last good table and the daemon may retry (Sec. 6's contract that
    a rejected census leaves running guests untouched).
    """


class JournalError(ReproError):
    """A service journal file is unusable (bad magic/version).

    Note the asymmetry with torn *tails*: a journal whose header is
    valid but whose last record is incomplete is healed silently on
    open (crash-consistent appends make that an expected state), while
    a bad header means the file was never a journal — refusing loudly
    beats replaying garbage.
    """


class RecoveryError(ReproError):
    """Journal replay diverged from the journaled history.

    Raised when a replayed flush window commits with counters different
    from the journal's commit marker — the deterministic rebuild no
    longer matches what the crashed process durably recorded, so the
    recovered state cannot be trusted.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """The runtime invariant auditor found control-plane state divergence.

    Raised (in strict mode) when the installed table, the committed
    census, and the hypercall's staged/retired accounting disagree —
    i.e., exactly the inconsistencies a failed lifecycle operation must
    never leave behind.
    """
