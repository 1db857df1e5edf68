"""Planner scalability experiments (Figs. 3 and 4 of the paper).

Measures table-generation time and serialized table size as the number
of VMs grows, on the 48-core topology with four cores reserved for dom0
and up to four VMs per remaining core — the exact setup of Sec. 7.1.
All VMs share one of four latency goals (1, 30, 60, 100 ms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import MS, Planner, make_vm
from repro.core.edfcore import clear_shape_cache
from repro.errors import ConfigurationError
from repro.topology import Topology, xeon_48core

#: The four latency goals plotted in Figs. 3 and 4.
LATENCY_GOALS_MS = (1, 30, 60, 100)

#: Paper bounds: generation never exceeded 2 s; tables stayed under
#: 1.2 MiB (only the 1 ms curve is visibly above the rest).
PAPER_MAX_GENERATION_S = 2.0
PAPER_MAX_TABLE_MIB = 1.2


@dataclass
class ScalingPoint:
    num_vms: int
    latency_ms: int
    generation_s: float
    table_bytes: int

    @property
    def table_mib(self) -> float:
        return self.table_bytes / (1024 * 1024)


def measure_point(
    num_vms: int,
    latency_ms: int,
    topology: Optional[Topology] = None,
    repetitions: int = 1,
) -> ScalingPoint:
    """Plan one census and report (best-of-N) generation time and size.

    Every repetition plans cold: a fresh :class:`Planner` (no whole-plan
    memo) with the process-wide shape cache cleared, so each time is a
    table generation, never a cache lookup.
    """
    if repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be at least 1, not {repetitions}"
        )
    topo = topology if topology is not None else xeon_48core()
    utilization = len(topo.guest_cores) / max(num_vms, len(topo.guest_cores))
    vms = [
        make_vm(f"vm{i:03d}", min(0.25, utilization), latency_ms * MS)
        for i in range(num_vms)
    ]
    best = float("inf")
    result = None
    for _ in range(repetitions):
        clear_shape_cache()
        planner = Planner(topo)
        started = time.perf_counter()
        result = planner.plan(vms)
        best = min(best, time.perf_counter() - started)
    return ScalingPoint(
        num_vms=num_vms,
        latency_ms=latency_ms,
        generation_s=best,
        table_bytes=result.stats.table_bytes,
    )


def scaling_curve(
    latency_ms: int,
    vm_counts: Optional[Sequence[int]] = None,
    topology: Optional[Topology] = None,
    repetitions: int = 1,
) -> List[ScalingPoint]:
    """One Fig. 3/4 curve: sweep the VM count for a fixed latency goal."""
    topo = topology if topology is not None else xeon_48core()
    if vm_counts is None:
        per_core = len(topo.guest_cores)
        vm_counts = [per_core, per_core * 2, per_core * 3, per_core * 4]
    return [
        measure_point(count, latency_ms, topo, repetitions) for count in vm_counts
    ]


def full_sweep(
    topology: Optional[Topology] = None,
    vm_counts: Optional[Sequence[int]] = None,
    repetitions: int = 1,
) -> List[ScalingPoint]:
    """All four curves of Figs. 3 and 4."""
    points: List[ScalingPoint] = []
    for latency_ms in LATENCY_GOALS_MS:
        points.extend(scaling_curve(latency_ms, vm_counts, topology, repetitions))
    return points


def format_sweep(points: List[ScalingPoint]) -> str:
    lines = [f"{'VMs':>5s} {'L (ms)':>7s} {'gen (s)':>9s} {'size (MiB)':>11s}"]
    for p in sorted(points, key=lambda p: (p.latency_ms, p.num_vms)):
        lines.append(
            f"{p.num_vms:5d} {p.latency_ms:7d} {p.generation_s:9.3f} "
            f"{p.table_mib:11.3f}"
        )
    return "\n".join(lines)
