"""repro.lint — repo-specific static analysis for the Tableau reproduction.

A static pass that enforces the invariants the runtime tests cannot
see until they break: determinism of everything feeding scheduling
decisions, integer-nanosecond time flow, allocation-free ``@hotpath``
functions, transactional error handling, and the import-layer diagram.
Run it as ``tableau-repro lint src/repro`` (human output) or with
``--format=json`` for the CI artifact; suppress a finding with a
``# repro: allow[rule-id]`` comment plus a justification.

Each file is parsed once and reduced, in one walk, to a summary
(:mod:`repro.lint.flow.summary`); one engine
(:mod:`repro.lint.flow.engine`) answers the ``det-*``, ``err-*``,
``hot-*``, ``time-*`` and ``lay-import`` rules as zero-hop queries
over each summary's sites, and the ``flow-*`` rules as fixpoints over
the project call graph.  The summary is the one product cached per
file (:mod:`repro.lint.cache`), and the engine's table is the one
rule table (:mod:`repro.lint.registry`).

Rule families
-------------

=============== ==================================================
``det-*``       determinism (seeded RNG, no wall clock, ordered
                iteration, no env branches)
``time-*``      integer-nanosecond flow over ``*_ns`` names
``hot-*``       allocation discipline inside ``@hotpath`` functions
``err-*``       bare excepts, swallowed errors, registry rollback,
                atomic durable writes
``lay-*``       import layering
``flow-*``      whole-program passes over the project call graph:
                taint into deterministic scope, float escapes into
                ``*_ns`` names, transitive hot-path allocation, and
                the journal/crashpoint protocol (multi-hop traces;
                see :mod:`repro.lint.flow`)
``lint-*``      meta (parse errors, stale allow-comments)
=============== ==================================================
"""

from repro.lint.cache import LintCache
from repro.lint.driver import discover_files, lint_paths, lint_source
from repro.lint.findings import Finding, LintReport, SuppressionSite
from repro.lint.registry import iter_rules, rule_ids
from repro.lint.reporters import format_human, format_json, format_suppressions

__all__ = [
    "Finding",
    "LintCache",
    "LintReport",
    "SuppressionSite",
    "discover_files",
    "format_human",
    "format_json",
    "format_suppressions",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "rule_ids",
]
