"""The four interprocedural rule families against their fixture packages.

Each scenario under ``fixtures/flow/`` is a miniature package tree whose
files map into the ``repro.*`` namespace; the bad twin must fire its
family's rule with a multi-hop trace naming every call edge, and the
good twin must be clean under the *same* rules — the escape hatches
(seeded RNG, ``int()`` casts, declared-float names, ``@coldpath``,
early-exit validation) are part of the contract.
"""

from repro.lint import lint_paths
from repro.lint.flow.engine import FLOW_RULE_IDS

from tests.lint.util import FIXTURES

FLOW = FIXTURES / "flow"


def flow_lint(scenario):
    return lint_paths([str(FLOW / scenario)], rules=sorted(FLOW_RULE_IDS))


def by_rule(report):
    grouped = {}
    for finding in report.findings:
        grouped.setdefault(finding.rule_id, []).append(finding)
    return grouped


class TestTaintFlow:
    def test_bad_fires_all_three_kinds(self):
        grouped = by_rule(flow_lint("taint_bad"))
        assert set(grouped) == {
            "flow-taint-wallclock",
            "flow-taint-rng",
            "flow-taint-env",
        }

    def test_wallclock_trace_names_every_hop(self):
        (finding,) = by_rule(flow_lint("taint_bad"))["flow-taint-wallclock"]
        assert finding.path.endswith("repro/core/decide.py")
        # Source -> intermediate helper -> in-scope consumer: the trace
        # walks the laundering chain hop by hop, source first.
        assert len(finding.trace) == 3
        assert "raw_stamp" in finding.trace[0] and "time.time" in finding.trace[0]
        assert "stamp_ns" in finding.trace[1]
        assert "plan_epoch" in finding.trace[2]

    def test_env_taint_found_through_environ_get(self):
        (finding,) = by_rule(flow_lint("taint_bad"))["flow-taint-env"]
        assert "node_label" in finding.message
        assert any("os.environ" in hop for hop in finding.trace)

    def test_good_twin_is_clean(self):
        assert flow_lint("taint_good").findings == []


class TestUnitInference:
    def test_bad_fires_on_assign_and_kwarg_sinks(self):
        findings = by_rule(flow_lint("units_bad"))["flow-unit-escape"]
        sunk = {f.message.split("'")[1] for f in findings}
        assert sunk == {"slice_ns", "deadline_ns"}

    def test_trace_crosses_the_helper_boundary(self):
        findings = by_rule(flow_lint("units_bad"))["flow-unit-escape"]
        for finding in findings:
            assert len(finding.trace) == 3
            assert "smoothing" in finding.trace[0]
            assert "scaled_budget" in finding.trace[1]

    def test_int_cast_and_declared_float_are_clean(self):
        assert flow_lint("units_good").findings == []


class TestTransitiveHotPath:
    def test_alloc_two_hops_below_hotpath_root(self):
        (finding,) = by_rule(flow_lint("hot_bad"))["flow-hot-transitive"]
        # The finding lands on the allocating helper, not the root.
        assert "census" in finding.message
        assert finding.line == 13
        # Trace: root marker, then one line per call edge, then the
        # allocation site.
        assert "@hotpath" in finding.trace[0] and "drain" in finding.trace[0]
        assert "tally" in finding.trace[1]
        assert "census" in finding.trace[2]
        assert "ListComp" in finding.trace[3]

    def test_coldpath_prunes_the_walk(self):
        assert flow_lint("hot_good").findings == []


class TestCrashProtocol:
    def test_bad_fires_all_three_violations(self):
        grouped = by_rule(flow_lint("crash_bad"))
        (unjournaled,) = grouped["flow-unjournaled-effect"]
        assert "_accepted" in unjournaled.message
        assert unjournaled.line == 24
        order = grouped["flow-effect-order"]
        assert {f.line for f in order} == {33, 36}
        messages = " ".join(f.message for f in order)
        assert "after the commit marker" in messages
        assert "crashpoint" in messages

    def test_protocol_respecting_twin_is_clean(self):
        assert flow_lint("crash_good").findings == []


class TestFullRuleRuns:
    """The bad fixtures fire *only* their flow rules under the full set —
    the direct (zero-hop and AST) rules genuinely cannot see these
    defects."""

    def test_flow_rules_are_the_only_findings(self):
        for scenario, expected in [
            ("taint_bad", {"flow-taint-wallclock", "flow-taint-rng",
                           "flow-taint-env"}),
            ("units_bad", {"flow-unit-escape"}),
            ("hot_bad", {"flow-hot-transitive"}),
            ("crash_bad", {"flow-unjournaled-effect", "flow-effect-order"}),
        ]:
            report = lint_paths([str(FLOW / scenario)])
            assert {f.rule_id for f in report.findings} == expected, scenario
