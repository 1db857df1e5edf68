"""Framework behavior: suppressions, registry, driver, reporters."""

import json

import pytest

from repro.lint import (
    discover_files,
    format_human,
    format_json,
    iter_rules,
    lint_paths,
    lint_source,
    rule_ids,
)

from tests.lint.util import lint_fixture


class TestSuppressions:
    @pytest.mark.parametrize(
        "source, module",
        [
            (
                "import time\nt = time.time()  # repro: allow[det-wallclock]\n",
                "repro.sim.m",
            ),
            # A multi-line call is covered by an allow on its last line.
            (
                "import time\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return time.time(\n"
                "    )  # repro: allow[det-wallclock]\n",
                "repro.core.m",
            ),
        ],
        ids=["one-line", "multi-line-call"],
    )
    def test_trailing_allow_comment(self, source, module):
        report = lint_source(source, module=module)
        assert report.findings == []
        assert report.suppressed == 1

    def test_allow_comment_on_line_above(self):
        source = (
            "import time\n"
            "# repro: allow[det-wallclock] -- reason text is free-form\n"
            "t = time.time()\n"
        )
        report = lint_source(source, module="repro.sim.m")
        assert report.findings == []
        assert report.suppressed == 1

    def test_wrong_rule_id_does_not_silence(self):
        source = "import time\nt = time.time()  # repro: allow[det-env-branch]\n"
        report = lint_source(source, module="repro.sim.m")
        assert [f.rule_id for f in report.findings] == ["det-wallclock"]
        assert report.suppressed == 0

    def test_comma_separated_ids(self):
        report = lint_fixture("repro/sim/suppressed.py")
        assert report.findings == []
        assert report.suppressed >= 4

    def test_suppressions_do_not_fail_the_run(self):
        source = "import time\nt = time.time()  # repro: allow[det-wallclock]\n"
        report = lint_source(source, module="repro.sim.m")
        assert report.ok
        assert report.exit_code == 0


class TestRegistry:
    def test_all_families_registered(self):
        families = {rule.family for rule in iter_rules()}
        assert {
            "determinism",
            "time-units",
            "hot-path",
            "error-handling",
            "layering",
        } <= families

    def test_rule_ids_are_kebab_case(self):
        for rule_id in rule_ids():
            assert rule_id == rule_id.lower()
            assert " " not in rule_id

    def test_rule_selection(self):
        selected = list(iter_rules(["det-wallclock"]))
        assert [rule.id for rule in selected] == ["det-wallclock"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            list(iter_rules(["no-such-rule"]))


class TestDriver:
    def test_discover_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        found = discover_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in found] == ["a.py", "b.py"]

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([str(bad)])
        assert report.parse_errors == 1
        assert [f.rule_id for f in report.findings] == ["lint-parse-error"]
        assert report.exit_code != 0

    def test_findings_sorted_by_location(self):
        source = "import time\nb_ns = 1.5\nt = time.time()\n"
        report = lint_source(source, module="repro.sim.m")
        locations = [(f.line, f.col) for f in report.findings]
        assert locations == sorted(locations)


class TestReporters:
    @pytest.mark.parametrize(
        "source, location",
        [
            ("import time\nt = time.time()\n", "pkg/m.py:2:5"),
            # Every scope counts: a nested def and a lambda too.
            (
                "import time\n"
                "\n"
                "\n"
                "def outer():\n"
                "    def inner():\n"
                "        return time.time()\n"
                "\n"
                "    return inner\n",
                "pkg/m.py:6:16",
            ),
            (
                "import time\n"
                "\n"
                "stamp = lambda: time.monotonic_ns()  # noqa: E731\n",
                "pkg/m.py:3:17",
            ),
        ],
        ids=["module-level", "nested-def", "lambda"],
    )
    def test_human_format_has_location_and_rule(self, source, location):
        report = lint_source(source, path="pkg/m.py", module="repro.sim.m")
        text = format_human(report)
        assert f"{location}: det-wallclock" in text
        assert "1 finding(s)" in text

    def test_human_format_clean(self):
        report = lint_source("x = 1\n")
        assert "clean" in format_human(report)

    def test_json_format_round_trips(self):
        report = lint_source(
            "import time\nt = time.time()\n", path="pkg/m.py", module="repro.sim.m"
        )
        document = json.loads(format_json(report))
        assert document["ok"] is False
        assert document["files_checked"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "det-wallclock"
        assert finding["path"] == "pkg/m.py"
        assert finding["line"] == 2
        assert finding["col"] == 5
