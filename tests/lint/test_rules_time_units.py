"""Time-unit rule family (time-*): positive and negative coverage."""

import pytest

from repro.lint import lint_paths, lint_source

from tests.lint.util import lint_fixture, rule_ids


class TestTimeUnitFixtures:
    def test_bad_fixture_trips_every_rule(self):
        ids = rule_ids(lint_fixture("repro/sim/time_bad.py"))
        assert "time-float-ns" in ids
        assert "time-truediv-ns" in ids
        assert "time-unit-mismatch" in ids
        assert "time-lossy-div-ns" in ids

    def test_good_fixture_is_clean(self):
        report = lint_fixture("repro/sim/time_good.py")
        assert report.findings == []


class TestFloatNs:
    def test_float_literal_assignment_flagged(self):
        report = lint_source("delay_ns = 1.5\n", module="repro.sim.m")
        assert rule_ids(report) == ["time-float-ns"]

    def test_declared_float_annotation_exempt(self):
        report = lint_source("cost_ns: float = 1.5\n", module="repro.sim.m")
        assert report.findings == []

    def test_module_level_declaration_covers_later_assignments(self):
        source = "mean_ns: float = 0.0\n\n\ndef f(x):\n    global mean_ns\n    mean_ns = x * 0.5\n"
        report = lint_source(source, module="repro.sim.m")
        assert report.findings == []

    def test_declaration_outside_a_package_covers_its_own_file(self, tmp_path):
        # A file outside any repro tree has no module name; its own float
        # declarations exempt its names, and no other file's.
        body = "def update(x):\n    global mean_ns\n    mean_ns = x * 0.5\n"
        declared = tmp_path / "stats.py"
        declared.write_text("mean_ns: float = 0.0\n\n\n" + body)
        undeclared = tmp_path / "other.py"
        undeclared.write_text(body)
        report = lint_paths([str(tmp_path)])
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("time-float-ns", str(undeclared))
        ]

    def test_int_cast_exempt(self):
        report = lint_source("delay_ns = int(1.5 * 3)\n", module="repro.sim.m")
        assert report.findings == []

    def test_float_into_ns_keyword_flagged(self):
        report = lint_source(
            "engine.at(delay_ns=0.5)\n", module="repro.sim.m"
        )
        assert rule_ids(report) == ["time-float-ns"]

    def test_keyword_of_declared_float_parameter_exempt(self):
        source = (
            "def charge(cost_ns: float) -> None:\n"
            "    pass\n"
            "\n"
            "\n"
            "charge(cost_ns=0.5)\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert report.findings == []

    def test_rate_suffix_not_treated_as_ns(self):
        report = lint_source("bytes_per_ns = 0.8\n", module="repro.sim.m")
        assert report.findings == []


class TestTrueDivNs:
    def test_truediv_assignment_flagged(self):
        report = lint_source("period_ns = total / n\n", module="repro.core.m")
        assert rule_ids(report) == ["time-truediv-ns"]

    def test_floordiv_ok(self):
        report = lint_source("period_ns = total // n\n", module="repro.core.m")
        assert report.findings == []

    def test_int_wrapped_truediv_ok(self):
        report = lint_source(
            "period_ns = int(total / n)\n", module="repro.core.m"
        )
        assert report.findings == []


class TestLossyDivNs:
    """Products divided in float space under an int(...) cast.

    Regression coverage: the ``int(duration_s * 1e9 / parts)`` form
    (shipped in the campaign shards) passed every time rule because the
    int cast exempts ``time-truediv-ns`` — these tests fail on the
    pre-rule linter.
    """

    def test_product_divided_in_float_space_flagged(self):
        report = lint_source(
            "spacing_ns = int(duration_s * 1e9 / parts)\n",
            module="repro.sim.m",
        )
        assert rule_ids(report) == ["time-lossy-div-ns"]

    def test_flagged_even_inside_outer_call(self):
        report = lint_source(
            "spacing_ns = max(1, int(duration_s * 1e9 / parts))\n",
            module="repro.sim.m",
        )
        assert rule_ids(report) == ["time-lossy-div-ns"]

    def test_flagged_on_ns_keyword(self):
        report = lint_source(
            "probe.run(spacing_ns=int(d * 1e9 / n))\n", module="repro.sim.m"
        )
        assert rule_ids(report) == ["time-lossy-div-ns"]

    def test_plain_rate_inversion_not_flagged(self):
        # int(1e9 / rate) has no product to lose bits from; it is the
        # idiomatic rate inversion and stays exempt.
        report = lint_source(
            "gap_ns = int(1e9 / rate_per_s)\n", module="repro.sim.m"
        )
        assert report.findings == []

    def test_integer_pipeline_not_flagged(self):
        report = lint_source(
            "spacing_ns = seconds_to_ns(duration_s) // parts\n",
            module="repro.sim.m",
        )
        assert report.findings == []


class TestUnitMismatch:
    @pytest.mark.parametrize(
        "source",
        [
            "timer.arm(deadline_ns=delay_ms)\n",
            "class Timer:\n"
            "    def arm(self, engine):\n"
            "        engine.at(deadline_ns=self.period_ms)\n",
        ],
        ids=["name", "self-attribute"],
    )
    def test_ms_name_into_ns_parameter_flagged(self, source):
        report = lint_source(source, module="repro.sim.m")
        assert rule_ids(report) == ["time-unit-mismatch"]

    def test_converted_value_ok(self):
        report = lint_source(
            "timer.arm(deadline_ns=delay_ms * 1_000_000)\n",
            module="repro.sim.m",
        )
        assert report.findings == []
