"""Smoke check for the lint wall-time budget: the cache must earn its keep.

Single-run (not median) version of ``benchmarks/lint_wall.py``; the
hard bar — a warm run under half the cold wall time — holds with a
10x margin in practice, so one sample is enough even on a noisy
container.  Full medians live in ``BENCH_lint.json``; regenerate with
``PYTHONPATH=src python benchmarks/lint_wall.py``.
"""

from __future__ import annotations

import time

from conftest import publish

from lint_wall import SRC
from repro.lint import lint_paths


def timed_once(**kwargs):
    start = time.perf_counter()
    report = lint_paths([SRC], **kwargs)
    return time.perf_counter() - start, report


def test_warm_cache_under_half_cold(tmp_path):
    cache = str(tmp_path / "lint-cache.json")
    cold_s, cold = timed_once()
    timed_once(cache_path=cache)  # populate
    warm_s, warm = timed_once(cache_path=cache)

    assert cold.findings == [] and warm.findings == []
    assert warm.cache_hits == warm.files_checked
    assert warm.cache_misses == 0
    assert warm.flow_functions == cold.flow_functions
    assert warm.flow_edges == cold.flow_edges
    assert warm_s < 0.5 * cold_s, (
        f"warm lint {warm_s:.3f}s vs cold {cold_s:.3f}s — cache bar is 0.5x"
    )
    publish(
        "perf_lint_wall",
        "\n".join([
            "full lint of src/repro (every rule)",
            f"cold     {cold_s:8.3f} s  ({cold.files_checked} files, "
            f"{cold.flow_functions} functions, {cold.flow_edges} edges)",
            f"warm     {warm_s:8.3f} s  ({warm.cache_hits} cache hits)",
            f"ratio    {warm_s / cold_s:8.2f} x  (bar: < 0.50x)",
        ]),
    )
