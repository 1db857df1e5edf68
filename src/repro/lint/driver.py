"""The lint driver: discover files, extract summaries, run the engine.

A run has three stages, all deterministic (files sorted, fixpoints
order-independent), shared by :func:`lint_paths` and
:func:`lint_source`:

1. **Extract** — every file is parsed once and reduced to its
   cacheable products: the suppression map and the flow
   :class:`ModuleSummary`, whose one walk records every site a rule
   reads.  With a cache attached (``--cache``), files whose content
   hash matches skip this stage entirely; with ``jobs > 1`` the misses
   are extracted on a process pool.
2. **Engine** — the zero-hop queries read each summary's own sites,
   and the whole-program passes build the call graph from the
   summaries and run their fixpoints (:mod:`repro.lint.flow.engine`).
   Neither is cached; on a warm run both start from cached summaries,
   so no file is reopened.
3. **Assemble** — findings filter through the allow-comments; which
   allow silenced what is recorded, yielding the suppression inventory
   (``--list-suppressions``) and, on full runs, ``lint-stale-allow``
   findings for allows that silenced nothing.
"""

from __future__ import annotations

import ast
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.cache import LintCache, content_hash
from repro.lint.context import (
    allow_line,
    module_name_for,
    parse_suppression_comments,
)
from repro.lint.findings import Finding, LintReport, SuppressionSite
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.engine import (
    FLOW_RULE_IDS,
    FloatDeclarations,
    FlowAnalysis,
    site_findings,
)
from repro.lint.flow.summary import ModuleSummary, summarize_module
from repro.lint.registry import iter_rules

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for name in sorted(names):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        elif path.endswith(".py"):
            found.append(path)
    return sorted(dict.fromkeys(found))


@dataclass
class _FileRecord:
    path: str
    digest: str = ""
    module: str = ""
    summary: Optional[ModuleSummary] = None
    suppressions: Dict[int, Set[str]] = dc_field(default_factory=dict)
    parse_error: Optional[dict] = None

    def extract(self, source: str, module: Optional[str] = None) -> None:
        """Parse once and summarize the tree."""
        try:
            tree = ast.parse(source, filename=self.path)
        except SyntaxError as error:
            self.parse_error = {
                "line": error.lineno or 0,
                "col": (error.offset or 1) - 1,
                "message": f"file does not parse: {error.msg}",
            }
            return
        self.module = module_name_for(self.path) if module is None else module
        self.suppressions = parse_suppression_comments(source)
        self.summary = summarize_module(
            self.module, self.path, tree, self.suppressions
        )

    def to_entry(self) -> dict:
        """The cacheable products (the cache entry and pool result)."""
        entry: dict = {"hash": self.digest, "module": self.module}
        if self.parse_error is not None:
            entry["parse_error"] = self.parse_error
            return entry
        assert self.summary is not None
        entry["summary"] = self.summary.to_dict()
        entry["suppressions"] = {
            str(line): sorted(ids) for line, ids in self.suppressions.items()
        }
        return entry

    def hydrate(self, entry: dict) -> None:
        self.module = entry["module"]
        if entry.get("parse_error") is not None:
            self.parse_error = entry["parse_error"]
            return
        self.summary = ModuleSummary.from_dict(entry["summary"])
        self.suppressions = {
            int(line): set(ids) for line, ids in entry["suppressions"].items()
        }


def _extract_worker(path: str) -> dict:
    """Process-pool worker (module level for pickling)."""
    record = _FileRecord(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        record.extract(handle.read())
    return record.to_entry()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[str]] = None,
    *,
    cache_path: Optional[str] = None,
    jobs: int = 1,
) -> LintReport:
    """Lint every Python file under ``paths`` with the selected rules.

    ``cache_path`` attaches the incremental cache, whatever the rules:
    its entries are per-file summaries and suppression maps, which no
    rule selection changes.  Stale allows are reported on full-rule-set
    runs only.  ``jobs > 1`` extracts cache misses on a process pool.
    """
    files = discover_files(paths)
    selected = {rule.id for rule in iter_rules(rules)}
    full_run = rules is None
    cache = LintCache.load(cache_path) if cache_path else None

    records: List[_FileRecord] = []
    misses: List[Tuple[_FileRecord, bytes]] = []
    for path in files:
        with open(path, "rb") as handle:
            data = handle.read()
        record = _FileRecord(path=path, digest=content_hash(data))
        entry = cache.lookup(path, record.digest) if cache is not None else None
        if entry is not None:
            record.hydrate(entry)
        else:
            misses.append((record, data))
        records.append(record)
    if jobs > 1 and len(misses) > 1:
        tasks = [record.path for record, _ in misses]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_extract_worker, tasks, chunksize=4)
            for (record, _), result in zip(misses, results):
                record.hydrate(result)
    else:
        for record, data in misses:
            record.extract(data.decode("utf-8"))

    report = _run(records, selected, detect_stale=full_run)
    if cache is not None:
        for record, _ in misses:
            cache.store(record.path, record.to_entry())
        cache.prune(files)
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        cache.save()
    return report


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint one in-memory module (the test harness entry point).

    ``module`` overrides the dotted module name inferred from ``path``
    so fixtures can exercise package-scoped rules without living inside
    the real tree.  The stages are :func:`lint_paths`' over this one
    module (cross-module laundering needs :func:`lint_paths` over a
    package tree), except that no allow is reported stale.
    """
    selected = {rule.id for rule in iter_rules(rules)}
    record = _FileRecord(path=path)
    record.extract(source, module)
    return _run([record], selected, detect_stale=False)


def _run(
    records: Sequence[_FileRecord], selected_ids: Set[str], detect_stale: bool
) -> LintReport:
    """The engine and assembly stages over extracted records."""
    report = LintReport()
    summaries = [r.summary for r in records if r.summary is not None]
    decls = FloatDeclarations.collect(summaries)
    flow_results: Dict[str, List[Finding]] = {}
    flow_owner: Dict[str, str] = {}
    if selected_ids & FLOW_RULE_IDS:
        by_module: Dict[str, ModuleSummary] = {}
        for record in records:
            if record.summary is None or not record.module:
                continue
            if record.module in by_module:
                continue  # first sorted path wins on module collisions
            by_module[record.module] = record.summary
            flow_owner[record.module] = record.path
        graph = build_call_graph(by_module)
        flow_results = FlowAnalysis(graph, decls).run().findings
        report.flow_functions = len(graph.nodes)
        report.flow_edges = graph.edge_count()
        report.callgraph = graph

    used: Dict[str, Dict[int, Set[str]]] = {}
    for record in records:
        if record.parse_error is not None:
            report.parse_errors += 1
            report.findings.append(
                Finding(
                    rule_id="lint-parse-error",
                    path=record.path,
                    line=record.parse_error["line"],
                    col=record.parse_error["col"],
                    message=record.parse_error["message"],
                )
            )
            continue
        report.files_checked += 1
        assert record.summary is not None
        candidates = site_findings(record.summary, decls)
        if flow_owner.get(record.module) == record.path:
            candidates.extend(flow_results.get(record.module, ()))
        for finding in candidates:
            if finding.rule_id not in selected_ids:
                continue
            match_line = _match_suppression(record.suppressions, finding)
            if match_line is not None:
                report.suppressed += 1
                used.setdefault(record.path, {}).setdefault(
                    match_line, set()
                ).add(finding.rule_id)
            else:
                report.findings.append(finding)

    for record in records:
        if record.parse_error is not None:
            continue
        path_used = used.get(record.path, {})
        for line in sorted(record.suppressions):
            site = SuppressionSite(
                path=record.path,
                line=line,
                rule_ids=tuple(sorted(record.suppressions[line])),
                used_ids=tuple(sorted(path_used.get(line, ()))),
            )
            report.suppression_sites.append(site)
            if not detect_stale:
                continue
            for stale_id in site.stale_ids:
                if stale_id == "lint-stale-allow":
                    continue
                finding = Finding(
                    rule_id="lint-stale-allow",
                    path=record.path,
                    line=line,
                    col=0,
                    message=(
                        f"allow[{stale_id}] no longer suppresses any "
                        f"finding here; remove it (suppression debt hides "
                        f"real regressions)"
                    ),
                    end_line=line,
                )
                if _match_suppression(record.suppressions, finding) is not None:
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    report.findings = report.sorted_findings()
    return report


def _match_suppression(
    suppressions: Dict[int, Set[str]], finding: Finding
) -> Optional[int]:
    """The allow-comment line silencing ``finding``, or ``None``."""
    return allow_line(
        suppressions,
        (finding.rule_id,),
        finding.line,
        finding.end_line or finding.line,
    )
