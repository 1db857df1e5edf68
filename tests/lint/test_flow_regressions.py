"""Fixed-defect regressions: hot-path allocations the flow pass caught.

First run of ``flow-hot-transitive`` over the shipped tree reported
four helpers allocating per call while reachable from ``@hotpath``
roots.  Three were real defects and were rewritten as plain loops:

* ``TableauScheduler._l2_members`` — built the trailing-policy slice
  with a generator passed to ``list.extend`` on every L2 pick;
* ``Credit2Scheduler._reset_if_needed`` — ran ``all()`` over a
  generator on every credit settlement;
* ``RtdsScheduler._runqueue_census`` — ran ``sum()`` over a generator
  after every deschedule and wakeup.

The fourth (``TableauScheduler._pick_degraded``) is a deliberate
emergency fallback and is marked ``@coldpath``.  These tests pin all
four outcomes at the summary level — against the pre-fix sources,
each of the three functions shows a per-call comprehension/generator
allocation and the first three assertions fail.  A call-graph defect
that hid such an allocation is pinned the same way
(:class:`TestPackageRelativeImport`).
"""

import ast

from repro.lint import lint_paths
from repro.lint.flow import summarize_module

from tests.lint.util import REPO_ROOT

SCHEDULERS = REPO_ROOT / "src" / "repro" / "schedulers"


def summary_of(filename):
    path = SCHEDULERS / filename
    module = f"repro.schedulers.{filename[:-3]}"
    return summarize_module(module, str(path), ast.parse(path.read_text()), {})


def comprehension_allocs(summary, function):
    fn = summary.functions[function]
    return [a for a in fn.allocs if a.kind == "comprehension" and not a.in_raise]


class TestHotPathDefectsStayFixed:
    def test_tableau_l2_members(self):
        summary = summary_of("tableau.py")
        assert comprehension_allocs(summary, "TableauScheduler._l2_members") == []

    def test_credit2_reset_if_needed(self):
        summary = summary_of("credit2.py")
        assert comprehension_allocs(summary, "Credit2Scheduler._reset_if_needed") == []

    def test_rtds_runqueue_census(self):
        summary = summary_of("rtds.py")
        assert comprehension_allocs(summary, "RtdsScheduler._runqueue_census") == []

    def test_pick_degraded_is_explicitly_cold(self):
        summary = summary_of("tableau.py")
        fn = summary.functions["TableauScheduler._pick_degraded"]
        assert fn.cold, "degraded fallback must stay @coldpath, not silently hot"


class TestPackageRelativeImport:
    """``from . import helper`` in a package ``__init__`` names a sibling.

    The summary once resolved it one package too high
    (``repro.helper`` for ``repro.pkg``), so the call below had no edge
    and the allocation in the callee went unreported.
    """

    def test_hot_root_in_package_init_reaches_its_sibling(self, tmp_path):
        package = tmp_path / "repro" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from repro.hotpath import hotpath\n"
            "\n"
            "from . import helper\n"
            "\n"
            "\n"
            "@hotpath\n"
            "def run(items):\n"
            "    return helper.go(items)\n"
        )
        (package / "helper.py").write_text(
            "def go(items):\n"
            "    return [item for item in items]\n"
        )
        report = lint_paths([str(tmp_path)])
        (finding,) = report.findings
        assert finding.rule_id == "flow-hot-transitive"
        assert finding.path.endswith("helper.py") and finding.line == 2
        assert finding.trace[:2] == (
            "repro.pkg.run is @hotpath",
            f"repro.pkg.run calls repro.pkg.helper.go "
            f"({package / '__init__.py'}:8)",
        )
