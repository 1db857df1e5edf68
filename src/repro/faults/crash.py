"""Seeded crash plans: *when* a crashpoint kills the process.

:mod:`repro.crashpoints` declares the *where* — named points in the
control path that consult :func:`repro.crashpoints.crashpoint`.  This
module supplies the *when*: a :class:`CrashPlan` rides the existing
:class:`~repro.faults.plan.FaultPlan` machinery (per-site invocation
counters, 1-based ``calls`` indices, ``persistent_from``, seeded
probabilistic firing), so crash schedules compose exactly like every
other fault in the suite and are bit-reproducible for a given seed.

A plan is armed process-wide with
:func:`repro.crashpoints.crashes_armed`::

    plan = CrashPlan.at(CRASH_SERVICE_FLUSH_POST_PUSH, call=3)
    with crashes_armed(plan):
        run_service(..., journal=journal)   # raises SimulatedCrash

Because the plan's invocation counters persist across the crash, the
*same* plan object can stay armed through recovery: a transient
``calls=(3,)`` spec has already fired, so the recovery replay — which
re-consults the same sites from the beginning — runs to completion.
Multi-index (``calls=(3, 5)``) or ``persistent_from`` specs crash the
recovery too, which is how the double-crash tests are built.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.crashpoints import (
    CRASH_JOURNAL_TORN_APPEND,
    CRASH_SERVICE_ADMIT,
    CRASH_SERVICE_COMMIT,
    CRASH_SERVICE_FLUSH_POST_PUSH,
    CRASH_SERVICE_FLUSH_PRE_PUSH,
    SimulatedCrash,
    is_registered,
    known_crashpoints,
)
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FaultSpec, InjectedFault

#: Crashpoints a journaled service run consults (the crashpoint-sweep
#: axis: every one of these must yield byte-identical recovery).
#: ``daemon.replan.mid-retry`` is absent because the service daemon has
#: no hypercall attached — it is exercised by the daemon's own tests.
SERVICE_CRASHPOINTS = (
    CRASH_SERVICE_ADMIT,
    CRASH_SERVICE_FLUSH_PRE_PUSH,
    CRASH_SERVICE_FLUSH_POST_PUSH,
    CRASH_SERVICE_COMMIT,
    CRASH_JOURNAL_TORN_APPEND,
)


class CrashPlan:
    """A seeded, deterministic schedule of simulated process deaths.

    Args:
        specs: :class:`~repro.faults.plan.FaultSpec` rules whose
            ``site`` is a registered crashpoint name.
        seed: Seed for the underlying plan's RNG (probabilistic rules).
        strict: Reject specs naming unregistered crashpoints (typo
            guard); pass ``False`` for ad-hoc private points.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        strict: bool = True,
    ) -> None:
        if strict:
            for spec in specs:
                if not is_registered(spec.site):
                    known = ", ".join(known_crashpoints())
                    raise ConfigurationError(
                        f"unknown crashpoint {spec.site!r} (known: {known})"
                    )
        self._plan = FaultPlan(specs=tuple(specs), seed=seed)

    # -- the consultation protocol (duck-typed by repro.crashpoints) ---

    def fires(self, point: str) -> Optional[int]:
        """Consult at ``point``; the 1-based call index when the process
        should die here, else ``None``.  Every call advances the
        per-point invocation counter."""
        spec = self._plan.fires(point)
        if spec is None:
            return None
        return self._plan.calls_seen(point)

    # -- introspection -------------------------------------------------

    def calls_seen(self, point: str) -> int:
        return self._plan.calls_seen(point)

    def has_point(self, point: str) -> bool:
        return self._plan.has_site(point)

    @property
    def injected(self) -> List[InjectedFault]:
        """Every crash the plan actually fired, in firing order."""
        return self._plan.injected

    @property
    def crashes_fired(self) -> int:
        return len(self._plan.injected)

    # -- convenience constructors --------------------------------------

    @classmethod
    def at(
        cls, point: str, call: int = 1, seed: int = 0, strict: bool = True
    ) -> "CrashPlan":
        """Die at the ``call``-th consultation of ``point``."""
        return cls(
            specs=[FaultSpec(site=point, calls=(call,), note="crash once")],
            seed=seed,
            strict=strict,
        )

    @classmethod
    def at_calls(
        cls,
        point: str,
        calls: Sequence[int],
        seed: int = 0,
        strict: bool = True,
    ) -> "CrashPlan":
        """Die at each listed consultation of ``point`` (double-crash
        schedules: the second index kills the recovery replay too)."""
        return cls(
            specs=[
                FaultSpec(site=point, calls=tuple(calls), note="crash series")
            ],
            seed=seed,
            strict=strict,
        )

    @classmethod
    def stochastic(
        cls, point: str, probability: float, seed: int = 0, strict: bool = True
    ) -> "CrashPlan":
        """Die at each consultation of ``point`` with seeded probability."""
        return cls(
            specs=[
                FaultSpec(
                    site=point, probability=probability, note="crash chaos"
                )
            ],
            seed=seed,
            strict=strict,
        )


def parse_crash_plan(text: str, seed: int = 0) -> CrashPlan:
    """Parse the CLI's ``--crash-plan`` syntax into a :class:`CrashPlan`.

    Comma-separated ``point[@call]`` entries; ``call`` is the 1-based
    consultation index (default 1) and a trailing ``+`` makes the rule
    persistent from that index::

        service.flush.post-push@3
        service.admit,service.journal.torn-append@2
        daemon.replan.mid-retry@1+
    """
    specs: List[FaultSpec] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, _, suffix = entry.partition("@")
        if not suffix:
            specs.append(FaultSpec(site=point, calls=(1,)))
            continue
        persistent = suffix.endswith("+")
        if persistent:
            suffix = suffix[:-1]
        try:
            call = int(suffix)
        except ValueError:
            raise ConfigurationError(
                f"bad crash-plan entry {entry!r}: expected point[@call[+]]"
            )
        if persistent:
            specs.append(FaultSpec(site=point, persistent_from=call))
        else:
            specs.append(FaultSpec(site=point, calls=(call,)))
    if not specs:
        raise ConfigurationError("empty crash plan")
    return CrashPlan(specs=specs, seed=seed)


__all__ = [
    "CrashPlan",
    "SERVICE_CRASHPOINTS",
    "SimulatedCrash",
    "parse_crash_plan",
]
