"""Crash → recover → resume: the full crash-consistency cycle.

Three layers on top of :meth:`~repro.service.control.SchedulerService.recover`:

* :func:`run_to_crash` — one journaled churn run that either survives
  or dies at an armed crashpoint (the :class:`SimulatedCrash` is caught
  and returned, the journal closed — the moral equivalent of the
  process being SIGKILLed with its WAL durable on disk).
* :func:`resume_service` — continue a *recovered* service to the
  original end time, rebuilding the churn generator from the journaled
  RNG checkpoint so the post-crash arrival stream is the exact
  continuation of the pre-crash one.
* :func:`crash_recover_resume` — the whole loop, with the crash plan
  staying armed throughout so multi-index plans kill the recovery too
  (double-crash); each recovery reopens the journal from disk (healing
  any torn tail) the way a restarted process would.

The acceptance property all of this exists to prove: for every
registered service crashpoint and any crash schedule that eventually
lets a run finish, the final
:func:`~repro.metrics.service.service_report_json` is **byte-identical**
to the same configuration run uninterrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union, TYPE_CHECKING

from repro.core.params import seconds_to_ns
from repro.crashpoints import SimulatedCrash, crashes_armed
from repro.errors import ReproError
from repro.service.churn import ChurnConfig, ChurnGenerator
from repro.service.control import SchedulerService, ServiceConfig
from repro.service.journal import ServiceJournal
from repro.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.faults.crash import CrashPlan


def run_to_crash(
    topology: Topology,
    duration_s: float,
    journal: Union[str, Path, ServiceJournal],
    churn: Optional[ChurnConfig] = None,
    config: Optional[ServiceConfig] = None,
    scheduler: str = "tableau",
) -> "tuple[SchedulerService, Optional[SimulatedCrash]]":
    """Run one journaled service until ``duration_s`` or the first
    armed crash, whichever comes first.

    Returns ``(service, crash)``; ``crash`` is ``None`` when the run
    survived.  On a crash the journal is closed (its durable prefix is
    on disk, exactly as a killed process would leave it) and the
    returned service is the *dead* instance — useful for asserting
    what was lost, never for continuing.
    """
    if not isinstance(journal, ServiceJournal):
        journal = ServiceJournal(journal)
    service = SchedulerService(
        topology, config=config, scheduler=scheduler, journal=journal
    )
    generator = ChurnGenerator(service, churn)
    until_ns = seconds_to_ns(duration_s)
    generator.start(until_ns)
    try:
        service.engine.run_until(until_ns)
    except SimulatedCrash as crash:
        journal.close()
        return service, crash
    return service, None


def resume_service(
    service: SchedulerService,
    duration_s: float,
    churn: Optional[ChurnConfig] = None,
) -> SchedulerService:
    """Continue a recovered service to ``duration_s`` simulated seconds.

    The churn generator is rebuilt from the journal's last RNG
    checkpoint (:attr:`SchedulerService.recovered_churn`) when one
    exists — its next draw is the first arrival the crashed run never
    journaled — or started fresh when the crash predates every durable
    request (the whole stream regenerates identically from the seed).
    """
    until_ns = seconds_to_ns(duration_s)
    state = service.recovered_churn
    if state is not None:
        generator = ChurnGenerator.resume(service, churn, state)
    else:
        generator = ChurnGenerator(service, churn)
    generator.start(until_ns)
    service.engine.run_until(until_ns)
    return service


@dataclass
class CrashRecoveryOutcome:
    """What one :func:`crash_recover_resume` cycle observed."""

    service: SchedulerService
    #: Every simulated death, in order (empty when the plan never fired).
    crashes: List[SimulatedCrash] = field(default_factory=list)
    #: Torn-tail bytes truncated across all journal reopenings.
    healed_bytes: int = 0

    @property
    def crash_count(self) -> int:
        return len(self.crashes)


def crash_recover_resume(
    topology: Topology,
    duration_s: float,
    journal_path: Union[str, Path],
    plan: "CrashPlan",
    churn: Optional[ChurnConfig] = None,
    config: Optional[ServiceConfig] = None,
    scheduler: str = "tableau",
    max_crashes: int = 8,
) -> CrashRecoveryOutcome:
    """Run a journaled service under ``plan``, recovering from every
    crash until the run completes.

    The plan stays armed for the whole cycle and its per-point counters
    persist across deaths, so a transient ``calls=(k,)`` spec fires
    once and lets the recovery finish, while ``calls=(k, m)`` or
    ``persistent_from`` schedules kill the recovery as well and are
    retried (up to ``max_crashes`` total deaths).
    """
    outcome_crashes: List[SimulatedCrash] = []
    healed = 0
    with crashes_armed(plan):
        journal = ServiceJournal(journal_path)
        service, crash = run_to_crash(
            topology,
            duration_s,
            journal,
            churn=churn,
            config=config,
            scheduler=scheduler,
        )
        while crash is not None:
            outcome_crashes.append(crash)
            if len(outcome_crashes) > max_crashes:
                raise ReproError(
                    f"crash plan still firing after {max_crashes} "
                    f"recoveries (last: {crash})"
                )
            journal = ServiceJournal(journal_path)
            healed += journal.healed_bytes
            try:
                service = SchedulerService.recover(
                    topology, journal, config=config, scheduler=scheduler
                )
                resume_service(service, duration_s, churn=churn)
                crash = None
            except SimulatedCrash as next_crash:
                journal.close()
                crash = next_crash
    if service.journal is not None:
        service.journal.close()
    return CrashRecoveryOutcome(
        service=service, crashes=outcome_crashes, healed_bytes=healed
    )


__all__ = [
    "CrashRecoveryOutcome",
    "crash_recover_resume",
    "resume_service",
    "run_to_crash",
]
