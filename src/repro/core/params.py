"""vCPU and VM reservation parameters.

Under Tableau every vCPU is configured with a *reserved utilization* U
and a *maximum scheduling latency* L (Sec. 5).  Both may come from an
explicit SLA, a price-differentiated service tier, or a fair-share
default (``U = m / n``).  This module defines the value types the planner
consumes, plus the service-tier / fair-share helpers the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NewType, Optional, Sequence

from repro.errors import ConfigurationError

#: Integer nanoseconds on the simulated clock.  The repo-wide convention
#: (enforced by ``repro.lint``'s time-unit rules) is that clock values
#: are integers; only *measured* quantities (cost models, statistics)
#: may be floats, and must say so with an explicit ``float`` annotation.
#: ``Nanoseconds`` is a zero-cost ``NewType`` — it behaves exactly like
#: ``int`` at runtime but lets mypy track where a value is known to be a
#: nanosecond count rather than a bare integer.
Nanoseconds = NewType("Nanoseconds", int)

#: Physical core index within a :class:`repro.topology.Topology`
#: (0-based, socket-major order).
CoreId = NewType("CoreId", int)

#: Xen-style numeric domain identifier (domid 0 is dom0, the control
#: domain; guests start at 1).
DomainId = NewType("DomainId", int)

#: Convenience time-unit constants (nanoseconds).
US = Nanoseconds(1_000)
MS = Nanoseconds(1_000_000)
SEC = Nanoseconds(1_000_000_000)


def seconds_to_ns(seconds: float) -> Nanoseconds:
    """Convert a duration in (float) seconds to integer nanoseconds.

    The repo-wide exact-int boundary for wall-style durations entering
    the simulated clock: convert to ns *once*, here, and do all further
    arithmetic (spacing, splitting into parts) in integer space with
    ``//``.  Forms like ``int(duration_s * 1e9 / parts)`` perform the
    division in float space, where exactness is already lost — the
    ``time-lossy-div-ns`` lint rule flags them and points here.
    """
    if seconds < 0:
        raise ConfigurationError(f"negative duration {seconds!r}")
    return Nanoseconds(int(seconds * SEC))


@dataclass(frozen=True)
class VCpuSpec:
    """Reservation parameters for one vCPU.

    Attributes:
        name: Unique identifier (e.g. ``"vm7.vcpu0"``).
        utilization: Reserved CPU share U in (0, 1].
        latency_ns: Maximum acceptable scheduling latency L (nanoseconds).
        capped: If True the vCPU may never exceed its reservation; if
            False it is eligible for spare cycles via the second-level
            scheduler (Sec. 4).
        vm: Name of the owning VM (defaults to the vCPU name's prefix).
        needs_dedicated_core: A fully reserved vCPU (U = 1) is pinned to
            its own pCPU.  Derived at construction; equality, hashing and
            ``repr`` ignore it.
    """

    name: str
    utilization: float
    latency_ns: int
    capped: bool = False
    vm: Optional[str] = None
    needs_dedicated_core: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("vCPU name must be non-empty")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError(
                f"{self.name}: utilization {self.utilization} outside (0, 1]"
            )
        if self.latency_ns <= 0:
            raise ConfigurationError(
                f"{self.name}: latency goal must be positive, got {self.latency_ns}"
            )
        if self.vm is None:
            object.__setattr__(self, "vm", self.name.split(".")[0])
        object.__setattr__(self, "needs_dedicated_core", self.utilization >= 1.0)

    def __hash__(self) -> int:
        # Specs are hashed constantly (planner memo keys, task caches);
        # the dataclass-generated hash rebuilds a field tuple every call,
        # so compute it once and pin it on the (frozen) instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (self.name, self.utilization, self.latency_ns, self.capped, self.vm)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # String hashes differ between interpreters (PYTHONHASHSEED), so
        # the pinned hash stays behind; the copy derives its own.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class VMSpec:
    """A VM is a named group of vCPUs sharing a lifecycle.

    The planner operates on vCPUs; VM grouping matters for the control
    plane (creation/teardown triggers replanning for all of the VM's
    vCPUs at once) and for co-scheduling extensions.
    """

    name: str
    vcpus: Sequence[VCpuSpec] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("VM name must be non-empty")
        if not self.vcpus:
            raise ConfigurationError(f"VM {self.name} must have at least one vCPU")
        names = [v.name for v in self.vcpus]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"VM {self.name} has duplicate vCPU names")

    @property
    def total_utilization(self) -> float:
        return sum(v.utilization for v in self.vcpus)


#: Interning memo for :func:`make_vm` (cleared wholesale when full).
#: Specs are immutable value objects, so identical requests — the
#: steady state of a control plane that rebuilds its census on every
#: replan — can share one instance instead of re-validating and
#: re-allocating the whole VM every time.
_VM_MEMO: Dict[tuple, "VMSpec"] = {}
_VM_MEMO_SIZE = 4096


def make_vm(
    name: str,
    utilization: float,
    latency_ns: int,
    vcpu_count: int = 1,
    capped: bool = False,
) -> VMSpec:
    """Build a VM whose vCPUs all share one (U, L) configuration.

    This mirrors the paper's evaluation setup of uniform single-vCPU VMs
    (e.g., four 25%-utilization VMs per core).  Identical requests
    return a shared (immutable) instance.
    """
    key = (name, utilization, latency_ns, vcpu_count, capped)
    memo = _VM_MEMO.get(key)
    if memo is not None:
        return memo
    if vcpu_count < 1:
        raise ConfigurationError("vcpu_count must be >= 1")
    vcpus = tuple(
        VCpuSpec(
            name=f"{name}.vcpu{i}",
            utilization=utilization,
            latency_ns=latency_ns,
            capped=capped,
            vm=name,
        )
        for i in range(vcpu_count)
    )
    vm = VMSpec(name=name, vcpus=vcpus)
    if len(_VM_MEMO) >= _VM_MEMO_SIZE:
        _VM_MEMO.clear()
    _VM_MEMO[key] = vm
    return vm


def fair_share_specs(
    vm_names: Sequence[str],
    num_cores: int,
    latency_ns: int = 20 * MS,
    capped: bool = False,
) -> List[VMSpec]:
    """Fair-share provisioning: ``U = m / n`` for n single-vCPU VMs.

    The paper notes (Sec. 5, footnote) that Tableau needs no more input
    than Credit or CFS: utilizations can be derived from the core count
    and the VM census, with a default latency bound comparable to
    Credit's quantum.
    """
    n = len(vm_names)
    if n == 0:
        raise ConfigurationError("need at least one VM")
    if num_cores < 1:
        raise ConfigurationError("need at least one core")
    share = min(1.0, num_cores / n)
    return [make_vm(name, share, latency_ns, capped=capped) for name in vm_names]


@dataclass(frozen=True)
class ServiceTier:
    """A price-differentiated service tier (utilization + latency bound)."""

    name: str
    utilization: float
    latency_ns: int
    capped: bool = True


#: Illustrative tier catalogue used by examples; utilizations are chosen
#: to keep the provider's bin-packing problem simple (Sec. 5, "we expect
#: this partitioning step to succeed in most cases in practice").
DEFAULT_TIERS: Dict[str, ServiceTier] = {
    "economy": ServiceTier("economy", 0.125, 100 * MS),
    "standard": ServiceTier("standard", 0.25, 30 * MS),
    "performance": ServiceTier("performance", 0.5, 10 * MS),
    "dedicated": ServiceTier("dedicated", 1.0, 1 * MS),
}


def vms_from_tiers(
    requests: Iterable[tuple], tiers: Optional[Dict[str, ServiceTier]] = None
) -> List[VMSpec]:
    """Instantiate VMs from ``(vm_name, tier_name)`` requests."""
    catalogue = DEFAULT_TIERS if tiers is None else tiers
    vms = []
    for vm_name, tier_name in requests:
        try:
            tier = catalogue[tier_name]
        except KeyError:
            raise ConfigurationError(f"unknown service tier {tier_name!r}") from None
        vms.append(
            make_vm(vm_name, tier.utilization, tier.latency_ns, capped=tier.capped)
        )
    return vms


def flatten_vcpus(vms: Iterable[VMSpec]) -> List[VCpuSpec]:
    """Collect all vCPUs of a VM set, validating global name uniqueness.

    The names are compared in bulk, as one set; only a census with a
    duplicate is walked, to name its first duplicate in census order.
    """
    vcpus = [vcpu for vm in vms for vcpu in vm.vcpus]
    if len({vcpu.name for vcpu in vcpus}) != len(vcpus):
        seen = set()
        for vcpu in vcpus:
            if vcpu.name in seen:
                raise ConfigurationError(f"duplicate vCPU name {vcpu.name!r}")
            seen.add(vcpu.name)
    return vcpus
