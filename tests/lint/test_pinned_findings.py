"""Exact output of the err-* and det-* rules on their known-bad fixtures.

The rule-family tests check which rule ids fire; these pin every
finding's position, end line and message, so a change to how a rule
is computed cannot move or reword a finding unnoticed.
"""

import pytest

from tests.lint.util import lint_fixture

_ROLLBACK = (
    "replan() may raise, but the registry.add mutation at line 10 has no "
    "rollback handler; wrap the fallible call in try/except that restores "
    "the registry and re-raises"
)
_TRUNCATING_OPEN = (
    "open() with truncating mode {!r} can tear this file if the process "
    "dies mid-write; write through repro.core.atomicio.atomic_write_bytes/"
    "_text, or append (mode 'a') if this file is a log/journal"
)
_PATH_WRITER = (
    ".{}() truncates in place (torn file on crash); write through "
    "repro.core.atomicio.atomic_write_bytes/_text"
)

PINNED = {
    "repro/sim/det_bad.py": [
        (
            "det-unseeded-rng", 9, 11, 9,
            "call to global RNG random.random(); scheduling decisions must "
            "use a seeded random.Random instance",
        ),
        (
            "det-wallclock", 13, 11, 13,
            "wall-clock read time.time(); simulated components must take "
            "time from SimEngine.now",
        ),
        (
            "det-env-branch", 17, 7, 17,
            "environment-dependent value os.environ in scheduling code; "
            "behaviour must not vary across hosts",
        ),
        (
            "det-unordered-iter", 24, 4, 25,
            "iteration over a set has hash-dependent order; wrap in "
            "sorted(...) or use an ordered container",
        ),
        (
            "det-unordered-iter", 29, 11, 29,
            "bare dict.popitem() feeding scheduling state; pop an explicit "
            "key (or OrderedDict.popitem(last=False))",
        ),
    ],
    "repro/xen/err_bad.py": [
        ("err-registry-rollback", 11, 8, 11, _ROLLBACK),
        (
            "err-bare-except", 16, 8, 17,
            "bare except: catches everything including KeyboardInterrupt; "
            "name the exception types",
        ),
        (
            "err-swallowed-error", 22, 8, 23,
            "handler swallows ReproError without recording, re-raising, or "
            "compensating; failures must stay observable (log/append/raise)",
        ),
    ],
    "repro/service/atomic_bad.py": [
        ("err-nonatomic-write", 7, 9, 7, _TRUNCATING_OPEN.format("w")),
        ("err-nonatomic-write", 13, 13, 13, _TRUNCATING_OPEN.format("w")),
        ("err-nonatomic-write", 19, 9, 19, _TRUNCATING_OPEN.format("xb")),
        ("err-nonatomic-write", 24, 4, 24, _PATH_WRITER.format("write_bytes")),
        ("err-nonatomic-write", 28, 4, 28, _PATH_WRITER.format("write_text")),
    ],
}


@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_every_finding_is_pinned(fixture):
    report = lint_fixture(fixture)
    found = [
        (f.rule_id, f.line, f.col, f.end_line, f.message) for f in report.findings
    ]
    assert found == PINNED[fixture]
    assert report.suppressed == 0
