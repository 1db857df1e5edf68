"""Incremental cache: warm runs reuse summaries without changing results.

The cache stores per-file summaries and suppression maps keyed by
content hash; the engine's queries and passes always re-run but start
from cached summaries.  The invariants: a warm run returns
byte-identical findings, with every rule or a ``--rules`` subset, an
edited file misses alone yet its effects propagate project-wide (the
engine sees the new summary, including a float declaration another
module's findings depend on), and a corrupt or version-skewed cache
file is discarded, never trusted.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.lint import lint_paths

from tests.lint.util import FIXTURES

FLOW = FIXTURES / "flow"


def as_tuples(report):
    return [
        (f.rule_id, f.path.rsplit("/repro/", 1)[-1], f.line, f.message)
        for f in report.findings
    ]


def units_tree(tmp_path):
    tree = tmp_path / "units"
    shutil.copytree(FLOW / "units_bad", tree)
    return tree


class TestWarmRuns:
    def test_cold_then_warm_identical_findings(self, tmp_path):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        cold = lint_paths([str(tree)], cache_path=str(cache))
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        assert len(cold.findings) == 2
        warm = lint_paths([str(tree)], cache_path=str(cache))
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert as_tuples(warm) == as_tuples(cold)

    def test_edit_invalidates_one_file_but_flows_everywhere(self, tmp_path):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        lint_paths([str(tree)], cache_path=str(cache))
        # Fix the float leak in the *helper* module: the sink module's
        # file is untouched (cache hit), but the flow pass must still
        # see the new summary and drop both findings.
        convert = tree / "repro" / "telemetry" / "convert.py"
        convert.write_text(
            "def smoothing():\n"
            "    return 0.25\n"
            "\n"
            "\n"
            "def scaled_budget(base_ns):\n"
            "    return int(base_ns * smoothing())\n"
        )
        warm = lint_paths([str(tree)], cache_path=str(cache))
        assert warm.cache_hits == 1 and warm.cache_misses == 1
        assert warm.findings == []

    def test_symbol_change_reclassifies_a_cached_sink(self, tmp_path):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        cold = lint_paths([str(tree)], cache_path=str(cache))
        assert len(cold.findings) == 2
        # Declare the callee's parameter float: the kwarg sink becomes
        # sanctioned, the assignment sink stays a defect.
        budget = tree / "repro" / "core" / "budget.py"
        budget.write_text(
            budget.read_text().replace("deadline_ns: int", "deadline_ns: float")
        )
        warm = lint_paths([str(tree)], cache_path=str(cache))
        messages = [f.message for f in warm.findings]
        assert len(messages) == 1 and "'slice_ns'" in messages[0]


class TestCacheRobustness:
    @pytest.mark.parametrize("version", ["cache_version", "summary_version"])
    def test_version_skew_discards_the_cache(self, tmp_path, version):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        lint_paths([str(tree)], cache_path=str(cache))
        document = json.loads(cache.read_text())
        document[version] -= 1  # e.g. a cache an older linter wrote
        cache.write_text(json.dumps(document))
        report = lint_paths([str(tree)], cache_path=str(cache))
        assert report.cache_misses == 2
        assert len(report.findings) == 2

    def test_corrupt_cache_file_is_discarded(self, tmp_path):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        cache.write_text("{not json")
        report = lint_paths([str(tree)], cache_path=str(cache))
        assert report.cache_misses == 2
        assert len(report.findings) == 2

    def test_rule_subset_runs_use_the_cache(self, tmp_path, capsys):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        subset = ["lint", str(tree), "--rules", "flow-unit-escape"]
        assert main(subset) == 1
        cold = capsys.readouterr().out.splitlines()
        assert "[cache:" not in cold[-1]
        main(subset + ["--cache", str(cache)])
        assert "[cache: 0 hit(s), 2 miss(es)]" in capsys.readouterr().out
        main(subset + ["--cache", str(cache)])
        warm = capsys.readouterr().out.splitlines()
        assert warm[-1].endswith(" [cache: 2 hit(s), 0 miss(es)]")
        assert warm[:-1] == cold[:-1]
        assert warm[-1].startswith(cold[-1])
        # A full-rule-set run reads what the subset run stored.
        full = lint_paths([str(tree)], cache_path=str(cache))
        assert full.cache_hits == 2 and full.cache_misses == 0


class TestParallelEquivalence:
    def test_jobs_pool_matches_serial(self, tmp_path):
        tree = units_tree(tmp_path)
        serial = lint_paths([str(tree)])
        pooled = lint_paths([str(tree)], jobs=2)
        assert as_tuples(pooled) == as_tuples(serial)

    def test_jobs_pool_with_cache(self, tmp_path):
        tree = units_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        cold = lint_paths([str(tree)], cache_path=str(cache), jobs=2)
        warm = lint_paths([str(tree)], cache_path=str(cache), jobs=2)
        assert warm.cache_hits == 2
        assert as_tuples(warm) == as_tuples(cold)
