"""Layering rule (lay-import): positive and negative coverage."""

import pytest

from repro.lint import lint_source

from tests.lint.util import lint_fixture, rule_ids


class TestLayeringFixtures:
    def test_scheduler_importing_xen_flagged(self):
        ids = rule_ids(lint_fixture("repro/schedulers/lay_bad.py"))
        assert ids == ["lay-import"]

    def test_scheduler_importing_core_ok(self):
        report = lint_fixture("repro/schedulers/lay_good.py")
        assert report.findings == []

    def test_else_of_type_checking_guard_flagged(self):
        report = lint_fixture("repro/schedulers/lay_else_bad.py")
        assert rule_ids(report) == ["lay-import"]
        assert report.findings[0].line == 9

    def test_health_reaching_planner_flagged(self):
        ids = rule_ids(lint_fixture("repro/health/lay_bad.py"))
        assert ids == ["lay-import", "lay-import"]


class TestLayeringEdges:
    def test_core_importing_sim_flagged(self):
        report = lint_source(
            "from repro.sim.engine import SimEngine\n", module="repro.core.m"
        )
        assert rule_ids(report) == ["lay-import"]

    def test_sim_importing_schedulers_flagged(self):
        report = lint_source(
            "import repro.schedulers.tableau\n", module="repro.sim.m"
        )
        assert rule_ids(report) == ["lay-import"]

    def test_type_checking_import_exempt(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "\n"
            "if TYPE_CHECKING:\n"
            "    from repro.schedulers.base import Scheduler\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert report.findings == []

    @pytest.mark.parametrize(
        "guard",
        ["typing.TYPE_CHECKING", "TYPE_CHECKING and not DEBUG"],
        ids=["attribute", "and"],
    )
    def test_type_checking_only_guards_exempt(self, guard):
        source = (
            "import typing\n"
            "from typing import TYPE_CHECKING\n"
            "\n"
            "DEBUG = False\n"
            f"if {guard}:\n"
            "    from repro.schedulers.base import Scheduler\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert report.findings == []

    @pytest.mark.parametrize(
        "branches",
        [
            "if TYPE_CHECKING:\n    pass\nelif DEBUG:\n",
            "if not TYPE_CHECKING:\n",
            "if TYPE_CHECKING or DEBUG:\n",
        ],
        ids=["elif", "not", "or"],
    )
    def test_run_time_branch_of_a_type_checking_test_flagged(self, branches):
        source = (
            "from typing import TYPE_CHECKING\n"
            "\n"
            "DEBUG = False\n"
            f"{branches}"
            "    from repro.schedulers.base import Scheduler\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert rule_ids(report) == ["lay-import"]
        assert report.findings[0].line == source.count("\n")

    def test_relative_import_resolved(self):
        # ``from ..xen import toolstack`` inside repro.schedulers.m is
        # still a schedulers -> xen edge.
        report = lint_source(
            "from ..xen import toolstack\n", module="repro.schedulers.m"
        )
        assert rule_ids(report) == ["lay-import"]

    def test_non_repro_module_ignored(self):
        report = lint_source(
            "from repro.xen.toolstack import Toolstack\n",
            path="examples/demo.py",
            module="examples.demo",
        )
        assert report.findings == []
