"""Shared pattern tables for the lint summary and engine.

The summary extractor (:mod:`repro.lint.flow.summary`) records every
site these tables recognise, and both the zero-hop queries and the
whole-program passes of :mod:`repro.lint.flow.engine` read them, so a
value a direct rule bans cannot launder through a helper the transitive
pass does not recognise.  This module is the single source of truth; it
deliberately imports nothing from the rest of the lint package so every
layer (and the cached summary extractor) can use it without cycles.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Packages whose code feeds scheduling decisions (the determinism and
#: taint-sink scope).  ``repro.service``'s report is byte-compared
#: across runs in CI, which makes it deterministic state too.
DETERMINISM_SCOPE = (
    "repro.sim",
    "repro.schedulers",
    "repro.core",
    "repro.faults",
    "repro.service",
)

#: ``random`` module attributes that are fine: seeded generator
#: constructors, not draws from the hidden global generator.
SEEDED_CONSTRUCTORS = {"Random", "SystemRandom"}

#: numpy.random attributes that construct explicitly seeded generators.
NUMPY_SEEDED = {"default_rng", "RandomState", "Generator", "SeedSequence"}

#: Dotted call paths that read a wall clock.
WALLCLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Wall-clock readers that return (float) seconds, not integer ns.
WALLCLOCK_FLOAT_SUFFIXES = (
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.process_time",
)

#: Function names importable from :mod:`time` that read a wall clock.
WALLCLOCK_NAMES = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
}

#: Environment probes whose value varies across hosts/processes.
ENV_SUFFIXES = (
    "os.environ",
    "os.getenv",
    "os.cpu_count",
    "os.uname",
    "sys.platform",
    "platform.system",
    "platform.machine",
    "platform.node",
    "socket.gethostname",
)

#: Identifier endings that denote a non-nanosecond time unit.
OTHER_UNIT_SUFFIXES = (
    "_ms",
    "_us",
    "_s",
    "_sec",
    "_secs",
    "_seconds",
    "_minutes",
    "_hz",
)

FLOAT_DECLARED = "float"
INT_DECLARED = "int"

#: The import layering diagram, as (importing package, forbidden import
#: prefix, why).  Imports under ``if TYPE_CHECKING:`` are exempt::
#:
#:     errors, topology          (leaves: import nothing from repro)
#:         ^
#:     core (planner, tables)    never imports sim/schedulers/xen/health
#:         ^
#:     sim (engine, machine)     never imports xen or schedulers (runtime)
#:         ^
#:     schedulers                never imports xen
#:         ^
#:     xen (daemon, toolstack)   control plane; may use core + schedulers
#:         ^
#:     faults / health / metrics / experiments
#:         ^
#:     campaign                  orchestration; nothing below imports it
FORBIDDEN_EDGES = (
    (
        "repro.schedulers",
        "repro.xen",
        "schedulers are hypervisor-agnostic policies; the xen control "
        "plane plugs into them, never the reverse",
    ),
    (
        "repro.core",
        "repro.sim",
        "the planner is a pure table compiler; it must not depend on "
        "the runtime simulator",
    ),
    (
        "repro.core",
        "repro.schedulers",
        "the planner emits tables; dispatch policy lives above it",
    ),
    (
        "repro.core",
        "repro.xen",
        "the planner must stay usable without the control plane",
    ),
    (
        "repro.core",
        "repro.health",
        "core is a leaf layer; supervision sits on top",
    ),
    (
        "repro.sim",
        "repro.xen",
        "the machine model knows schedulers only through the Scheduler "
        "interface; the xen layer is above it",
    ),
    (
        "repro.sim",
        "repro.schedulers",
        "the machine calls policy through repro.schedulers.base's "
        "interface at runtime; only annotations may name concrete "
        "schedulers (use `if TYPE_CHECKING:`)",
    ),
    (
        "repro.health",
        "repro.core.planner",
        "health talks to the planner only via PlannerDaemon so every "
        "recovery replan stays transactional and audited",
    ),
    (
        "repro.faults",
        "repro.health",
        "fault injection is consulted by the health layer, never the "
        "reverse",
    ),
    (
        "repro.core",
        "repro.campaign",
        "the campaign engine orchestrates experiments from above; the "
        "deterministic core must stay independent of it",
    ),
    (
        "repro.sim",
        "repro.campaign",
        "the machine model must not know about campaign orchestration",
    ),
    (
        "repro.schedulers",
        "repro.campaign",
        "dispatch policy must not depend on the experiment harness",
    ),
    (
        "repro.xen",
        "repro.campaign",
        "the control plane runs under campaigns, never the reverse",
    ),
    (
        "repro.experiments",
        "repro.campaign",
        "experiment drivers are the campaign engine's building blocks; "
        "importing campaign back would create a cycle",
    ),
    (
        "repro.core",
        "repro.service",
        "the planner must stay usable without the service control plane",
    ),
    (
        "repro.sim",
        "repro.service",
        "the machine model must not know about the tenant-facing "
        "service layer",
    ),
    (
        "repro.schedulers",
        "repro.service",
        "dispatch policy is below the control plane",
    ),
    (
        "repro.xen",
        "repro.service",
        "the service wraps PlannerDaemon from above; the daemon must "
        "not depend back on it",
    ),
    (
        "repro.faults",
        "repro.service",
        "fault plans are injected into the service, never imported by "
        "the fault layer",
    ),
    (
        "repro.health",
        "repro.service",
        "machine-level supervision and the tenant service are sibling "
        "consumers of the daemon",
    ),
    (
        "repro.experiments",
        "repro.service",
        "experiment drivers measure machines; the service scenario is "
        "driven from the campaign layer above",
    ),
)

#: Names that, imported from ``repro.core`` into health code, smuggle a
#: direct planner dependency past the module-level edge check
#: (``repro.health`` reaches the planner only through
#: :class:`repro.xen.daemon.PlannerDaemon`, so every recovery replan
#: stays transactional).
PLANNER_NAMES = {"Planner", "TableCache"}


def in_package(module: str, prefixes: Iterable[str]) -> bool:
    """True when ``module`` is one of ``prefixes`` or inside one."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def is_ns_name(name: Optional[str]) -> bool:
    """A nanosecond-valued identifier; ``*_per_ns`` rates (1/ns) are not."""
    if not name:
        return False
    lowered = name.lower()
    return lowered.endswith("_ns") and not lowered.endswith("_per_ns")


def matches_suffix(path: str, suffixes: Iterable[str]) -> bool:
    return any(path == s or path.endswith("." + s) for s in suffixes)


def taint_kind_of_call(path: str) -> Optional[str]:
    """Classify a dotted call path as a taint source (``None`` if not).

    Returns ``"wallclock"``, ``"rng"``, or ``"env"`` — the same split
    the ``det-*`` rules enforce locally.
    """
    if not path:
        return None
    if matches_suffix(path, WALLCLOCK_SUFFIXES):
        return "wallclock"
    parts = path.split(".")
    if (
        parts[0] == "random"
        and len(parts) == 2
        and parts[1] not in SEEDED_CONSTRUCTORS
    ):
        return "rng"
    if (
        len(parts) >= 3
        and parts[-2] == "random"
        and parts[0] in ("np", "numpy")
        and parts[-1] not in NUMPY_SEEDED
    ):
        return "rng"
    if matches_suffix(path, ENV_SUFFIXES):
        return "env"
    return None


def taint_kind_of_attr(path: str) -> Optional[str]:
    """Taint kind of a bare attribute access (``os.environ`` reads)."""
    if path and matches_suffix(path, ENV_SUFFIXES):
        return "env"
    return None
