"""Determinism rule family (det-*): positive and negative coverage."""

from repro.lint import lint_source

from tests.lint.util import lint_fixture, rule_ids


class TestDeterminismFixtures:
    def test_bad_fixture_trips_every_rule(self):
        ids = rule_ids(lint_fixture("repro/sim/det_bad.py"))
        assert "det-unseeded-rng" in ids
        assert "det-wallclock" in ids
        assert "det-env-branch" in ids
        assert "det-unordered-iter" in ids

    def test_good_fixture_is_clean(self):
        report = lint_fixture("repro/sim/det_good.py")
        assert report.findings == []
        assert report.ok

    def test_scope_excludes_non_scheduling_code(self):
        bad = (lint_fixture("repro/sim/det_bad.py").files_checked, None)
        assert bad[0] == 1
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        outside = lint_source(source, path="tools/gen.py", module="repro.analysis")
        assert "det-wallclock" not in rule_ids(outside)


class TestUnseededRng:
    def test_global_draw_flagged(self):
        report = lint_source(
            "import random\nx = random.random()\n", module="repro.sim.m"
        )
        assert rule_ids(report) == ["det-unseeded-rng"]

    def test_from_import_flagged(self):
        report = lint_source(
            "from random import shuffle\n", module="repro.sim.m"
        )
        assert rule_ids(report) == ["det-unseeded-rng"]

    def test_seeded_constructor_ok(self):
        report = lint_source(
            "import random\nrng = random.Random(7)\ny = rng.random()\n",
            module="repro.sim.m",
        )
        assert report.findings == []

    def test_numpy_global_flagged_default_rng_ok(self):
        bad = lint_source(
            "import numpy as np\nx = np.random.rand()\n", module="repro.core.m"
        )
        good = lint_source(
            "import numpy as np\nr = np.random.default_rng(1)\n",
            module="repro.core.m",
        )
        assert rule_ids(bad) == ["det-unseeded-rng"]
        assert good.findings == []


class TestUnorderedIteration:
    def test_set_literal_iteration_flagged(self):
        report = lint_source(
            "for c in {1, 2, 3}:\n    print(c)\n", module="repro.schedulers.m"
        )
        assert rule_ids(report) == ["det-unordered-iter"]

    def test_tracked_set_binding_flagged(self):
        source = "cores = set()\nout = list(cores)\n"
        report = lint_source(source, module="repro.schedulers.m")
        assert rule_ids(report) == ["det-unordered-iter"]

    def test_rebound_name_not_flagged(self):
        source = "cores = set()\ncores = [1, 2]\nfor c in cores:\n    print(c)\n"
        report = lint_source(source, module="repro.schedulers.m")
        assert report.findings == []

    def test_rebinding_reads_the_set_before_rebinding(self):
        # The value is read while ``cores`` is still the set.
        source = "cores = set(xs)\ncores = list(cores)\n"
        report = lint_source(source, module="repro.sim.m")
        assert [(f.rule_id, f.line) for f in report.findings] == [
            ("det-unordered-iter", 2)
        ]

    def test_class_attribute_does_not_unmark_a_module_set(self):
        source = (
            "s = set()\nclass A:\n    s = [1]\nfor x in s:\n    print(x)\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert [(f.rule_id, f.line) for f in report.findings] == [
            ("det-unordered-iter", 4)
        ]

    def test_class_body_scope(self):
        # A class body sees the module's sets; its own bindings stay in it.
        source = (
            "s = set()\nt = [1]\nclass A:\n    for x in s:\n        print(x)\n"
            "    t = set()\nfor y in t:\n    print(y)\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert [(f.rule_id, f.line) for f in report.findings] == [
            ("det-unordered-iter", 4)
        ]

    def test_sorted_iteration_ok(self):
        report = lint_source(
            "for c in sorted({3, 1}):\n    print(c)\n", module="repro.sim.m"
        )
        assert report.findings == []

    def test_ordered_popitem_ok(self):
        report = lint_source(
            "def f(d):\n    return d.popitem(last=False)\n", module="repro.core.m"
        )
        assert report.findings == []

    def test_membership_only_set_ok(self):
        source = "seen = set()\nif 3 in seen:\n    print('dup')\n"
        report = lint_source(source, module="repro.core.m")
        assert report.findings == []
