"""numpy is loaded by its two users only, when they first run.

The C=D demand-bound test (``repro.core.schedulability``) and the
latency summaries (``repro.metrics.latency``) import numpy inside the
functions that call it, so importing the program, serving requests and
planning partitioned tables never pay for loading it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run in a fresh interpreter: what the benchmark's workloads and
#: ``python -m repro serve`` import, then a census that cannot be
#: partitioned (three 0.6 vCPUs on two cores), so one vCPU is split.
PROBE = """
import json
import sys

import repro, repro.service, repro.xen, repro.sim, repro.schedulers
import repro.workloads, repro.metrics, repro.cli

imported = "numpy" in sys.modules
from repro.core import MS, Planner, make_vm

result = Planner(2).plan([make_vm(f"vm{i}", 0.6, 20 * MS) for i in range(3)])
print(json.dumps([imported, result.stats.method, "numpy" in sys.modules]))
"""


def test_numpy_loads_only_when_a_vcpu_is_split():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    imported, method, split = json.loads(done.stdout)
    assert not imported, "importing the program loaded numpy"
    assert method == "semi-partitioned"
    assert split, "the C=D split ran without numpy"
