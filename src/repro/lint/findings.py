"""Finding and report value types for the repo linter.

A :class:`Finding` is one rule violation anchored to a file and line; a
:class:`LintReport` is the outcome of one driver run (findings plus
coverage counters).  Both are plain dataclasses so reporters can render
them as text or JSON without reaching back into the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule_id: Stable kebab-case rule identifier (e.g.
            ``det-wallclock``) — the same id used in suppression
            comments (``# repro: allow[det-wallclock]``).
        path: File the violation was found in (as given to the driver).
        line: 1-based line number of the offending node.
        col: 0-based column offset of the offending node.
        message: Human-readable explanation of what is wrong and why.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: Last physical line of the offending statement (suppression
    #: comments trailing any spanned line are honoured).
    end_line: int = 0
    #: Interprocedural evidence: one human-readable hop per element,
    #: source to sink, produced by the ``flow-*`` whole-program passes
    #: (empty for zero-hop and AST-rule findings).
    trace: Tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass(frozen=True)
class SuppressionSite:
    """One ``# repro: allow[...]`` comment and what it actually silenced.

    Attributes:
        path: File the comment lives in.
        line: 1-based line of the comment.
        rule_ids: Rule ids the comment allows, sorted.
        used_ids: The subset that silenced at least one finding in this
            run — ids outside it are *stale* (the code they excused no
            longer trips the rule).
    """

    path: str
    line: int
    rule_ids: Tuple[str, ...]
    used_ids: Tuple[str, ...]

    @property
    def stale_ids(self) -> Tuple[str, ...]:
        return tuple(r for r in self.rule_ids if r not in self.used_ids)


@dataclass
class LintReport:
    """Outcome of one lint run.

    Attributes:
        findings: Violations that were *not* suppressed, ordered by
            (path, line, rule id).
        files_checked: Number of Python files analysed.
        suppressed: Violations silenced by ``# repro: allow[...]``
            comments (counted so a report can surface suppression creep).
        parse_errors: Files that could not be parsed (each also yields a
            ``lint-parse-error`` finding).
        suppression_sites: Inventory of every allow-comment seen, with
            per-id liveness (``tableau-repro lint --list-suppressions``).
        cache_hits / cache_misses: Incremental-cache accounting (both 0
            when no cache was attached).
        flow_functions / flow_edges: Call-graph size when the flow
            passes ran (0 otherwise).
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: int = 0
    suppression_sites: List[SuppressionSite] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    flow_functions: int = 0
    flow_edges: int = 0
    #: The resolved project call graph when the flow passes ran (a
    #: :class:`repro.lint.flow.callgraph.CallGraph`; ``None`` otherwise).
    #: Untyped here so the value types stay import-free.
    callgraph: object = None

    @property
    def ok(self) -> bool:
        """True when the tree is clean (suppressions do not fail a run)."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )
