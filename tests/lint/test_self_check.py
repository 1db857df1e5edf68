"""The shipped tree must be lint-clean, and the CLI must report bad code.

This is the acceptance gate for the whole pass: ``tableau-repro lint
src/repro`` exits 0 on the repository as committed, and exits non-zero
— naming the rule id and file:line — on the seeded bad fixtures.
"""

import json
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import lint_paths

from tests.lint.util import FIXTURES, REPO_ROOT

SRC = REPO_ROOT / "src" / "repro"


class TestShippedTreeIsClean:
    def test_src_repro_has_no_findings(self):
        # Full run: the direct rules, the whole-program flow passes,
        # and stale-suppression detection all at once.
        report = lint_paths([str(SRC)])
        assert report.findings == [], "\n".join(
            f"{f.location()} {f.rule_id}: {f.message}" for f in report.findings
        )
        assert report.parse_errors == 0
        assert report.files_checked > 50
        # The flow passes really ran: the project call graph is there.
        assert report.flow_functions > 500
        assert report.flow_edges > 500
        # Every shipped allow-comment still silences something.
        stale = [
            f"{site.path}:{site.line} {sorted(site.stale_ids)}"
            for site in report.suppression_sites
            if site.stale_ids
        ]
        assert stale == []

    def test_cli_exits_zero_on_shipped_tree(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "[flow:" in out


class TestCliOnBadFixtures:
    def test_nonzero_exit_with_rule_id_and_location(self, capsys):
        bad = FIXTURES / "repro" / "sim" / "det_bad.py"
        code = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert code != 0
        assert "det-wallclock" in out
        assert f"{bad}:13:" in out  # file:line of the time.time() call

    def test_json_report(self, capsys):
        bad = FIXTURES / "repro" / "sim" / "time_bad.py"
        code = main(["lint", str(bad), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code != 0
        assert document["ok"] is False
        rules = {f["rule"] for f in document["findings"]}
        assert {"time-float-ns", "time-truediv-ns", "time-unit-mismatch"} <= rules

    def test_output_file(self, tmp_path, capsys):
        bad = FIXTURES / "repro" / "schedulers" / "lay_bad.py"
        target = tmp_path / "report.json"
        code = main(["lint", str(bad), "--format", "json", "--output", str(target)])
        capsys.readouterr()
        assert code != 0
        assert json.loads(target.read_text())["findings"]

    def test_rule_filter(self, capsys):
        bad = FIXTURES / "repro" / "sim" / "det_bad.py"
        code = main(["lint", str(bad), "--rules", "det-wallclock"])
        out = capsys.readouterr().out
        assert code != 0
        assert "det-wallclock" in out
        assert "det-unseeded-rng" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "det-unseeded-rng",
            "time-float-ns",
            "hot-comprehension",
            "err-bare-except",
            "lay-import",
        ):
            assert rule_id in out


class TestExternalTools:
    """mypy/ruff run in CI; locally they are exercised when installed."""

    def test_pyproject_declares_tool_configs(self):
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert config["tool"]["mypy"]["packages"] == [
            "repro.core",
            "repro.sim",
            "repro.schedulers",
        ]
        assert config["tool"]["ruff"]["line-length"] == 88
        assert "I" in config["tool"]["ruff"]["lint"]["select"]

    @pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
    def test_ruff_clean(self):
        result = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
    def test_mypy_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
