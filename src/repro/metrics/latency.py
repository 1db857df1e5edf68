"""Latency statistics: summaries, percentiles, coordinated omission.

The paper reports mean, 99th-percentile, and maximum observed latency
per configuration (Figs. 6-8), measured with wrk2, whose defining
feature is correcting for *coordinated omission* [66]: latencies are
measured against the intended (constant-rate) send schedule rather than
the actual send times, so a stalled server cannot hide queueing delay by
slowing the load generator down.

Only :func:`summarize_ns` and :func:`percentile_ns` use numpy, so they
import it when first called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

MS = 1_000_000


@dataclass(frozen=True)
class LatencySummary:
    """The latency triple the paper plots, plus sample count."""

    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float

    @property
    def mean_ms(self) -> float:
        return self.mean_ns / MS

    @property
    def p99_ms(self) -> float:
        return self.p99_ns / MS

    @property
    def max_ms(self) -> float:
        return self.max_ns / MS

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"n={self.count} mean={self.mean_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms max={self.max_ms:.2f}ms"
        )


EMPTY_SUMMARY = LatencySummary(count=0, mean_ns=0.0, p50_ns=0.0, p99_ns=0.0, max_ns=0.0)


def summarize_ns(samples: Sequence[float]) -> LatencySummary:
    """Summarize a latency sample set (empty input yields zeros)."""
    if len(samples) == 0:
        return EMPTY_SUMMARY
    import numpy as np

    data = np.asarray(samples, dtype=np.float64)
    return LatencySummary(
        count=int(data.size),
        mean_ns=float(data.mean()),
        p50_ns=float(np.percentile(data, 50)),
        p99_ns=float(np.percentile(data, 99)),
        max_ns=float(data.max()),
    )


def percentile_ns(samples: Sequence[float], percentile: float) -> float:
    if len(samples) == 0:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=np.float64), percentile))


def corrected_latencies(
    intended_times: Sequence[int],
    completion_times: Sequence[int],
) -> List[int]:
    """Coordinated-omission-corrected latencies.

    Pairs each completion with its intended send time (both sequences in
    issue order) — the wrk2 measurement model.  Responses that never
    completed are excluded; callers wanting to penalize them should cap
    the run and treat missing completions separately.
    """
    return [
        completion - intended
        for intended, completion in zip(intended_times, completion_times)
    ]


def service_gaps_ns(intervals: Sequence[tuple], wrap_ns: int = 0) -> List[int]:
    """Gaps between consecutive (start, end) service intervals.

    Used to derive scheduling-delay distributions from traced vCPU
    service timelines; with ``wrap_ns`` set, the wrap-around gap of a
    cyclic schedule is included.
    """
    ordered = sorted(intervals)
    gaps = [
        max(0, nxt[0] - cur[1]) for cur, nxt in zip(ordered, ordered[1:])
    ]
    if wrap_ns and ordered:
        gaps.append(max(0, ordered[0][0] + wrap_ns - ordered[-1][1]))
    return gaps
