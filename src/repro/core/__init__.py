"""Tableau's planner core: reservations, real-time theory, tables.

This package implements the paper's primary contribution — on-demand
generation of cyclic scheduling tables satisfying per-vCPU utilization
and scheduling-latency guarantees — together with the real-time
scheduling substrate it relies on (the role SchedCAT played for the
original prototype).

Typical use::

    from repro.core import Planner, make_vm
    from repro.topology import xeon_16core

    vms = [make_vm(f"vm{i}", utilization=0.25, latency_ns=20_000_000)
           for i in range(48)]
    result = Planner(xeon_16core()).plan(vms)
    result.table.max_blackout_ns("vm0.vcpu0")  # <= 20 ms, guaranteed
"""

from repro.core.admission import AdmissionReport, admit_or_raise, check_admission
from repro.core.affinity import CoschedulingPolicy, constrained_worst_fit
from repro.core.atomicio import atomic_write_bytes, atomic_write_text
from repro.core.cache import CacheStats, TableCache, census_signature, rebind_plan
from repro.core.edf import preemption_count, simulate_edf
from repro.core.numa import NumaReport, numa_worst_fit
from repro.core.optimal import dp_wrap_schedule, grow_cluster
from repro.core.params import (
    DEFAULT_TIERS,
    MS,
    SEC,
    US,
    CoreId,
    DomainId,
    Nanoseconds,
    ServiceTier,
    VCpuSpec,
    VMSpec,
    fair_share_specs,
    flatten_vcpus,
    make_vm,
    seconds_to_ns,
    vms_from_tiers,
)
from repro.core.partition import (
    PartitionResult,
    first_fit_decreasing,
    worst_fit_decreasing,
)
from repro.core.peephole import PeepholeReport, optimize_core
from repro.core.periods import (
    HYPERPERIOD_NS,
    MIN_PERIOD_NS,
    achievable_latency_ns,
    all_divisors,
    candidate_periods,
    max_blackout_ns,
    select_period,
)
from repro.core.planner import (
    METHOD_CLUSTERED,
    METHOD_PARTITIONED,
    METHOD_SEMI_PARTITIONED,
    CensusDelta,
    Planner,
    PlanResult,
    PlanStats,
    plan_tables,
)
from repro.core.postprocess import CoalesceReport, coalesce, idle_intervals
from repro.core.schedulability import (
    demand_bound,
    edf_schedulable,
    max_cd_piece,
    qpa_schedulable,
)
from repro.core.serialize import deserialize, serialize, table_size_bytes
from repro.core.splitting import SemiPartitionResult, semi_partition, verify_chain
from repro.core.table import (
    Allocation,
    CoreTable,
    SystemTable,
    validate_against_tasks,
)
from repro.core.tasks import PeriodicTask, vcpu_to_task, vcpus_to_tasks

__all__ = [
    "AdmissionReport",
    "CacheStats",
    "atomic_write_bytes",
    "atomic_write_text",
    "CoschedulingPolicy",
    "PeepholeReport",
    "TableCache",
    "census_signature",
    "constrained_worst_fit",
    "optimize_core",
    "rebind_plan",
    "Allocation",
    "CensusDelta",
    "CoalesceReport",
    "CoreTable",
    "DEFAULT_TIERS",
    "HYPERPERIOD_NS",
    "METHOD_CLUSTERED",
    "METHOD_PARTITIONED",
    "METHOD_SEMI_PARTITIONED",
    "MIN_PERIOD_NS",
    "MS",
    "CoreId",
    "DomainId",
    "Nanoseconds",
    "PartitionResult",
    "PeriodicTask",
    "PlanResult",
    "PlanStats",
    "Planner",
    "SEC",
    "SemiPartitionResult",
    "ServiceTier",
    "SystemTable",
    "US",
    "VCpuSpec",
    "VMSpec",
    "achievable_latency_ns",
    "admit_or_raise",
    "all_divisors",
    "candidate_periods",
    "check_admission",
    "coalesce",
    "demand_bound",
    "deserialize",
    "dp_wrap_schedule",
    "edf_schedulable",
    "fair_share_specs",
    "first_fit_decreasing",
    "flatten_vcpus",
    "grow_cluster",
    "idle_intervals",
    "make_vm",
    "max_blackout_ns",
    "max_cd_piece",
    "plan_tables",
    "preemption_count",
    "qpa_schedulable",
    "seconds_to_ns",
    "NumaReport",
    "numa_worst_fit",
    "select_period",
    "semi_partition",
    "serialize",
    "simulate_edf",
    "table_size_bytes",
    "validate_against_tasks",
    "vcpu_to_task",
    "vcpus_to_tasks",
    "verify_chain",
    "vms_from_tiers",
    "worst_fit_decreasing",
]
