"""Lint wall-time benchmark: cold vs warm-cache vs parallel flow runs.

The whole-program passes gate every PR in CI, so their wall time is a
budget of its own.  This script times three configurations of the full
rule set over ``src/repro``:

* **cold** — no cache: every file parsed and summarized in one walk;
* **warm** — second run against a populated content-hash cache: no file
  is parsed, the engine starts from cached summaries;
* **jobs** — cold run with extraction on a process pool.

The acceptance bar (asserted here and in CI): a warm run finishes in
under half the cold wall time.  ``calibration_s`` records the median
time of perfbench's calibration kernel on the measuring host, so walls
from different hosts can be compared as ratios.

Run directly to (re)generate ``BENCH_lint.json`` at the repo root::

    PYTHONPATH=src python benchmarks/lint_wall.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_lint.json"
SRC = str(REPO_ROOT / "src" / "repro")

RUNS = 5


def timed(label, runs=RUNS, **kwargs):
    """Median wall seconds (and the last report) for ``lint_paths``."""
    samples = []
    report = None
    for _ in range(runs):
        start = time.perf_counter()
        report = lint_paths([SRC], **kwargs)
        samples.append(time.perf_counter() - start)
    return {
        "label": label,
        "wall_s": round(statistics.median(samples), 4),
        "runs": runs,
        "files": report.files_checked,
        "findings": len(report.findings),
        "flow_functions": report.flow_functions,
        "flow_edges": report.flow_edges,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
    }


def measure():
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "lint-cache.json")
        cold = timed("cold")
        # Populate, then measure the warm steady state.
        lint_paths([SRC], cache_path=cache)
        warm = timed("warm", cache_path=cache)
        jobs = max(2, min(4, os.cpu_count() or 2))
        pooled = timed("jobs", jobs=jobs)
        pooled["jobs"] = jobs
    return cold, warm, pooled


def main():
    # benchmarks/ is on the path of a script run.
    from campaign import calibration_s

    cold, warm, pooled = measure()
    ratio = warm["wall_s"] / cold["wall_s"] if cold["wall_s"] else 0.0
    document = {
        "benchmark": "lint_wall",
        "target": SRC.replace(str(REPO_ROOT) + os.sep, ""),
        "calibration_s": round(calibration_s(), 6),
        "cold": cold,
        "warm": warm,
        "parallel": pooled,
        "warm_over_cold": round(ratio, 3),
        "bar": "warm < 0.5 * cold",
    }
    BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    if ratio >= 0.5:
        print(
            f"FAIL: warm run at {ratio:.2f}x cold — cache bar is < 0.5x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
