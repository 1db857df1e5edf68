"""The lint engine: zero-hop queries and whole-program fixpoints.

Every rule reads module summaries (:mod:`repro.lint.flow.summary`),
never an AST, so warm runs start from the cache without opening a
file.  :data:`RULES` lists them; the rule table
(:mod:`repro.lint.registry`) is built from it, so ``--rules``
selection, allow-comments and the reporters read one table.

Zero-hop queries (:func:`site_findings`) read one summary's own sites,
each in the packages its :data:`SITE_RULES` entry names:

``det-wallclock`` / ``det-unseeded-rng`` / ``det-env-branch``
    Wall-clock reads, global-RNG draws (and ``from time|random``
    imports of them), and environment probes in any scope of a module
    inside the deterministic packages.
``det-unordered-iter``
    Iteration over a set (a literal, ``set()``, set algebra, or a name
    the scope bound to one) and bare ``dict.popitem()``, in the same
    packages.
``err-*``
    Bare ``except:`` and handlers that swallow a ``ReproError``
    anywhere; in ``repro.xen``, a fallible control-plane call after a
    registry mutation that no re-raising ``try`` protects; in
    ``repro.service`` and ``repro.campaign``, truncating file writes.
``hot-*``
    Comprehensions, closures and lambdas, f-strings, and ``*``/``**``
    packing in the body of every ``@hotpath`` function, nested kernels
    included, and ``*args``/``**kw`` in its signature.
``time-*``
    Floats, true division and ``int(a * b / c)`` landing in a ``*_ns``
    name, unless the name (or the callee's parameter) is declared
    ``float`` somewhere in the run, and ``_ms``/``_us``/``_s`` values
    passed to a ``*_ns`` parameter.
``lay-import``
    Imports against the layer diagram (``patterns.FORBIDDEN_EDGES``),
    outside ``if TYPE_CHECKING:`` blocks.

:class:`FlowAnalysis` runs the four whole-program passes over the call
graph.  All iteration is over sorted node ids and per-function source
order, and every fixpoint records only the *first* origin it discovers
for a fact — so findings, messages, and traces are bit-identical across
runs and machines regardless of dict insertion order.

The passes:

taint (``flow-taint-wallclock`` / ``-rng`` / ``-env``)
    ``returns_taint`` fixpoint: a function returns taint when an
    unsuppressed source value may reach one of its ``return``
    statements, directly or via a call to a taint-returning function.
    A finding fires at every call site *inside the deterministic
    scope* whose callee returns taint — the ``det-*`` queries already
    cover direct sources, so the flow rules report only the laundered,
    cross-function cases, each with the full source→sink hop list.

units (``flow-unit-escape``)
    ``returns_float`` fixpoint (float literal / true division /
    ``-> float`` declaration reaching a return, transitively through
    calls); fires where such a call result lands in a ``*_ns`` name
    that was not explicitly declared a measured float.

hot paths (``flow-hot-transitive``)
    BFS from ``@hotpath`` roots (skipping ``@coldpath`` callees and
    ``raise``-statement edges) with parent pointers; allocation sites
    in reached unmarked functions fire with the root→alloc call chain.

crash protocol (``flow-unjournaled-effect`` / ``flow-effect-order``)
    In ``repro.service``: within any function that appends WAL
    records, ``self`` mutations (direct or through transitively-mutating
    method calls) and crashpoints must come after the first append;
    within any function that appends a commit marker, no mutation may
    follow the last append.  Early-exit
    blocks (validation rejections, exception handlers) are off the
    commit path and exempt.  Functions that touch no journal at all
    are out of scope — replay covers them (e.g. the flush path).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallEdge, CallGraph
from repro.lint.flow.summary import FunctionSummary, ModuleSummary
from repro.lint.patterns import (
    DETERMINISM_SCOPE,
    FLOAT_DECLARED,
    FORBIDDEN_EDGES,
    PLANNER_NAMES,
    in_package,
)

#: Modules whose journal discipline the crash-protocol passes check.
CRASH_SCOPE_PREFIXES = ("repro.service",)

#: Every rule the engine answers: id -> (family, description).
RULES: Dict[str, Tuple[str, str]] = {
    "det-unseeded-rng": (
        "determinism",
        "Scheduling code must draw randomness from an explicitly seeded "
        "random.Random (or numpy Generator), never the global RNG.",
    ),
    "det-wallclock": (
        "determinism",
        "Scheduling code runs on the simulated clock; wall-clock reads "
        "(time.time, perf_counter, datetime.now, ...) are forbidden.",
    ),
    "det-env-branch": (
        "determinism",
        "Scheduling code must not branch on the process environment "
        "(os.environ, os.cpu_count, platform, hostname).",
    ),
    "det-unordered-iter": (
        "determinism",
        "Iterating a set (hash order, varies with PYTHONHASHSEED) or "
        "popping dict items positionally must not feed scheduling "
        "decisions; iterate sorted(...) or keep a list.",
    ),
    "err-bare-except": (
        "error-handling",
        "bare `except:` catches KeyboardInterrupt/SystemExit and hides "
        "programming errors; name the exceptions.",
    ),
    "err-swallowed-error": (
        "error-handling",
        "an except handler that catches a ReproError and does nothing "
        "hides control-plane failures from the audit trail.",
    ),
    "err-registry-rollback": (
        "error-handling",
        "in repro.xen, a registry mutation followed by a fallible "
        "control-plane call needs a rollback handler (try/except that "
        "restores and re-raises).",
    ),
    "err-nonatomic-write": (
        "error-handling",
        "in the persistence-bearing packages, truncating file writes "
        "(open mode 'w'/'x', Path.write_bytes/write_text) tear durable "
        "state when the process dies mid-write; use "
        "repro.core.atomicio.atomic_write_bytes/_text (temp file + "
        "atomic os.replace).  Append-mode opens are exempt.",
    ),
    "hot-comprehension": (
        "hot-path",
        "@hotpath functions must not build comprehensions or generator "
        "expressions (a fresh object + frame per call).",
    ),
    "hot-closure": (
        "hot-path",
        "@hotpath functions must not define closures or lambdas (cell "
        "and function-object allocation per call); bind callbacks once "
        "at assembly time.",
    ),
    "hot-fstring": (
        "hot-path",
        "@hotpath functions must not assemble f-strings (per-call "
        "formatting and allocation); error paths may suppress with a "
        "justification.",
    ),
    "hot-star-args": (
        "hot-path",
        "@hotpath functions must not pack/unpack *args/**kwargs (tuple "
        "and dict allocation per call).",
    ),
    "time-float-ns": (
        "time-units",
        "Float values must not flow into *_ns names unless the name is "
        "declared float (measured quantity); clock ns are integers.",
    ),
    "time-truediv-ns": (
        "time-units",
        "True division (/) flowing into a *_ns name produces floats; "
        "use // for tick arithmetic or wrap in int(...).",
    ),
    "time-lossy-div-ns": (
        "time-units",
        "int(product / divisor) flowing into a *_ns name divides in "
        "float space before truncating; convert once (seconds_to_ns) "
        "and divide with // in integer space.",
    ),
    "time-unit-mismatch": (
        "time-units",
        "Passing a *_ms/_us/_s-suffixed value directly to a *_ns "
        "parameter is a unit mismatch (both are plain numbers to the "
        "type checker).",
    ),
    "lay-import": (
        "layering",
        "imports must respect the layer diagram (schedulers!->xen, "
        "core!->sim, health->planner only via PlannerDaemon, ...).",
    ),
    "flow-taint-wallclock": (
        "flow",
        "wall-clock reading reaches deterministic scope through calls "
        "(reported with the full source-to-sink trace)",
    ),
    "flow-taint-rng": (
        "flow",
        "unseeded RNG draw reaches deterministic scope through calls",
    ),
    "flow-taint-env": (
        "flow",
        "environment probe value reaches deterministic scope through calls",
    ),
    "flow-unit-escape": (
        "flow",
        "float-returning call result lands in an integer-nanosecond name",
    ),
    "flow-hot-transitive": (
        "flow",
        "per-call allocation in a function reachable from a @hotpath root "
        "(mark deliberate slow paths @coldpath)",
    ),
    "flow-unjournaled-effect": (
        "flow",
        "service state mutated before the covering WAL append on a commit "
        "path",
    ),
    "flow-effect-order": (
        "flow",
        "journal protocol order violated (mutation after commit marker, or "
        "crashpoint before WAL append)",
    ),
}

#: The whole-program passes' ids (they need the call graph).
FLOW_RULE_IDS = frozenset(
    rule_id for rule_id, (family, _) in RULES.items() if family == "flow"
)

#: Packages the ``err-registry-rollback`` and ``err-nonatomic-write``
#: rules read.
ROLLBACK_SCOPE = ("repro.xen",)
DURABLE_SCOPE = ("repro.service", "repro.campaign")

#: Zero-hop site kind -> (rule id, message template, package scope).
#: ``{what}`` and ``{within}`` are the site's own fields; ``{where}``
#: names the ``*_ns`` target of a value flow.  A site fires only in a
#: module inside its scope; an empty scope is every module.
SITE_RULES: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "wallclock": (
        "det-wallclock",
        "wall-clock read {what}(); simulated components must take time "
        "from SimEngine.now",
        DETERMINISM_SCOPE,
    ),
    "wallclock-import": (
        "det-wallclock",
        "importing wall-clock function(s) {what} from time into "
        "scheduling code",
        DETERMINISM_SCOPE,
    ),
    "rng": (
        "det-unseeded-rng",
        "call to global RNG {what}(); scheduling decisions must use a "
        "seeded random.Random instance",
        DETERMINISM_SCOPE,
    ),
    "numpy-rng": (
        "det-unseeded-rng",
        "call to numpy global RNG {what}(); use numpy.random.default_rng(seed)",
        DETERMINISM_SCOPE,
    ),
    "rng-import": (
        "det-unseeded-rng",
        "importing global-RNG function(s) {what} from random; construct a "
        "seeded random.Random(seed) instead",
        DETERMINISM_SCOPE,
    ),
    "env": (
        "det-env-branch",
        "environment-dependent value {what} in scheduling code; behaviour "
        "must not vary across hosts",
        DETERMINISM_SCOPE,
    ),
    "set-iteration": (
        "det-unordered-iter",
        "iteration over a set has hash-dependent order; wrap in sorted(...) "
        "or use an ordered container",
        DETERMINISM_SCOPE,
    ),
    "popitem": (
        "det-unordered-iter",
        "bare dict.popitem() feeding scheduling state; pop an explicit key "
        "(or OrderedDict.popitem(last=False))",
        DETERMINISM_SCOPE,
    ),
    "comprehension": (
        "hot-comprehension",
        "{what} inside @hotpath {within}(); hoist the allocation out of "
        "the dispatch path or use an explicit loop over a preallocated "
        "container",
        (),
    ),
    "closure": (
        "hot-closure",
        "nested function {what} inside @hotpath {within}(); bind callbacks "
        "once at assembly (see _Cpu.resched_cb) instead of per decision",
        (),
    ),
    "fstring": (
        "hot-fstring",
        "f-string inside @hotpath {within}(); format lazily or precompute "
        "the string",
        (),
    ),
    "star-signature": (
        "hot-star-args",
        "@hotpath {within}() declares {what}; hot entry points take a "
        "fixed signature",
        (),
    ),
    "star-call": (
        "hot-star-args",
        "*-unpacking in a call inside @hotpath {within}(); pass arguments "
        "positionally",
        (),
    ),
    "double-star-call": (
        "hot-star-args",
        "**-unpacking in a call inside @hotpath {within}(); pass arguments "
        "explicitly",
        (),
    ),
    "float-ns": (
        "time-float-ns",
        "float value flows into {where}; nanosecond clock values are "
        "integers — annotate ': float' if this is a measured quantity, or "
        "convert with int(...)",
        (),
    ),
    "truediv-ns": (
        "time-truediv-ns",
        "true division flows into {where}; use // (or an explicit int(...) "
        "cast) so the event clock stays integral",
        (),
    ),
    "lossy-div-ns": (
        "time-lossy-div-ns",
        "lossy float division under int(...) flows into {where}; the "
        "product exceeds float precision before the divide — convert once "
        "with repro.core.seconds_to_ns (or int multiplication) and split "
        "with //",
        (),
    ),
    "unit-mismatch": (
        "time-unit-mismatch",
        "{what} passed to nanosecond parameter {within}=; convert the unit "
        "explicitly",
        (),
    ),
    "bare-except": (
        "err-bare-except",
        "bare except: catches everything including KeyboardInterrupt; name "
        "the exception types",
        (),
    ),
    "swallowed-error": (
        "err-swallowed-error",
        "handler swallows {what} without recording, re-raising, or "
        "compensating; failures must stay observable (log/append/raise)",
        (),
    ),
    "unprotected-call": (
        "err-registry-rollback",
        "{what}() may raise, but the {within} has no rollback handler; "
        "wrap the fallible call in try/except that restores the registry "
        "and re-raises",
        ROLLBACK_SCOPE,
    ),
    "truncating-open": (
        "err-nonatomic-write",
        "open() with truncating mode {what!r} can tear this file if the "
        "process dies mid-write; write through repro.core.atomicio."
        "atomic_write_bytes/_text, or append (mode 'a') if this file is a "
        "log/journal",
        DURABLE_SCOPE,
    ),
    "path-write": (
        "err-nonatomic-write",
        ".{what}() truncates in place (torn file on crash); write through "
        "repro.core.atomicio.atomic_write_bytes/_text",
        DURABLE_SCOPE,
    ),
}

_TAINT_RULE = {
    "wallclock": "flow-taint-wallclock",
    "rng": "flow-taint-rng",
    "env": "flow-taint-env",
}


@dataclass
class FloatDeclarations:
    """Where the run declares ``*_ns`` values float (measured quantities).

    ``params`` holds ``(callable or class name, parameter)`` pairs
    declared float anywhere in the run, keyed by terminal name (no
    import resolution, which this repository does not need); ``names``
    maps a module (a file outside any ``repro`` tree, by its path) to
    its ``*_ns`` names annotated float.
    """

    params: Set[Tuple[str, str]] = field(default_factory=set)
    names: Dict[str, Set[str]] = field(default_factory=dict)

    @classmethod
    def collect(cls, summaries: Iterable[ModuleSummary]) -> "FloatDeclarations":
        decls = cls()
        for summary in summaries:
            decls.params.update((name, param) for name, param in summary.float_params)
            if summary.float_names:
                decls.names.setdefault(_owner(summary), set()).update(
                    summary.float_names
                )
        return decls

    def exempts(self, owner: str, name: str, via: str) -> bool:
        """True when a value lands in a ``*_ns`` name declared float.

        ``via`` is how it lands: ``assign`` (the ``owner`` module
        declares the name), ``kwarg:<callee>`` (the callee declares the
        parameter), or anything else, which nothing exempts.
        """
        if via == "assign":
            return name in self.names.get(owner, ())
        return via.startswith("kwarg:") and (via[len("kwarg:") :], name) in self.params


def _owner(summary: ModuleSummary) -> str:
    """Whose float declarations cover a module's names."""
    return summary.module or summary.path


#: Site kinds of values landing in ``*_ns`` names (``Site.within`` says how).
_NS_FLOWS = {"float-ns", "truediv-ns", "lossy-div-ns"}


def site_findings(summary: ModuleSummary, decls: FloatDeclarations) -> List[Finding]:
    """The zero-hop rules over one module: each site read on its own."""
    module = summary.module
    findings: List[Finding] = []
    for site in summary.sites:
        rule_id, template, scope = SITE_RULES[site.kind]
        if scope and not in_package(module, scope):
            continue
        where = ""
        if site.kind in _NS_FLOWS:
            if decls.exempts(_owner(summary), site.what, site.within):
                continue
            if site.within.startswith("kwarg:"):
                callee = site.within[len("kwarg:") :] or "call"
                where = f"argument {site.what}= of {callee}()"
            else:
                where = f"assignment to {site.what}"
        message = template.format(what=site.what, within=site.within, where=where)
        findings.append(
            Finding(rule_id, summary.path, site.line, site.col, message, site.end_line)
        )
    if module.startswith("repro"):
        findings.extend(_layering_findings(summary))
    return findings


def _layering_findings(summary: ModuleSummary) -> Iterable[Finding]:
    module = summary.module
    for site in summary.import_sites:
        if site.type_checking:
            continue
        messages = [
            f"{module} imports {site.module}, but {source} must not depend "
            f"on {forbidden}: {why}"
            for source, forbidden, why in FORBIDDEN_EDGES
            if in_package(module, (source,))
            and in_package(site.module, (forbidden,))
        ]
        if in_package(module, ("repro.health",)) and site.module == "repro.core":
            smuggled = sorted(set(site.names) & PLANNER_NAMES)
            if smuggled:
                messages.append(
                    f"{module} imports {', '.join(smuggled)} from "
                    "repro.core; health drives planning only through "
                    "repro.xen.daemon.PlannerDaemon"
                )
        for message in messages:
            yield Finding(
                "lay-import", summary.path, site.line, site.col, message,
                site.end_line,
            )


@dataclass
class _Origin:
    """Why a summary fact holds for a function.

    ``via`` is ``None`` for direct evidence (``desc``/``line`` point at
    it) and ``(callee, call_line)`` when the fact was inherited through
    a call.
    """

    desc: str
    line: int
    via: Optional[Tuple[str, int]] = None


class FlowAnalysis:
    """Run all passes; findings land in :attr:`findings` per module."""

    def __init__(
        self, graph: CallGraph, decls: Optional[FloatDeclarations] = None
    ) -> None:
        self.graph = graph
        self.decls = decls or FloatDeclarations()
        self.findings: Dict[str, List[Finding]] = {}
        #: node -> taint kind -> origin (the returns-taint fixpoint).
        self.taint_ret: Dict[str, Dict[str, _Origin]] = {}
        #: node -> origin (the returns-float fixpoint).
        self.float_ret: Dict[str, _Origin] = {}
        #: node -> origin of a (transitive) self-mutation.
        self.mutates: Dict[str, _Origin] = {}
        #: node -> (hot root, parent chain) discovery for reachability.
        self.hot_parent: Dict[str, Tuple[str, int]] = {}
        self.hot_reached: Set[str] = set()
        self._edges_by_site: Dict[str, Dict[int, List[CallEdge]]] = {}
        for node, edges in graph.edges.items():
            by_site: Dict[int, List[CallEdge]] = {}
            for edge in edges:
                by_site.setdefault(edge.call_index, []).append(edge)
            self._edges_by_site[node] = by_site

    def run(self) -> "FlowAnalysis":
        self._fix_taint_returns()
        self._fix_float_returns()
        self._fix_mutations()
        self._walk_hot()
        self._emit_taint_findings()
        self._emit_unit_findings()
        self._emit_hot_findings()
        self._emit_crash_findings()
        for module in self.findings:
            self.findings[module].sort(key=lambda f: (f.line, f.col, f.rule_id))
        return self

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _site_edges(self, node: str, call_index: int) -> List[CallEdge]:
        return self._edges_by_site.get(node, {}).get(call_index, [])

    def _fn(self, node: str) -> FunctionSummary:
        return self.graph.function(node)

    def _loc(self, node: str, line: int) -> str:
        return f"{self.graph.path_of(node)}:{line}"

    def _add(
        self,
        node: str,
        rule_id: str,
        line: int,
        col: int,
        message: str,
        trace: Tuple[str, ...],
    ) -> None:
        finding = Finding(
            rule_id, self.graph.path_of(node), line, col, message, line, trace
        )
        self.findings.setdefault(self.graph.module_of(node), []).append(finding)

    # ------------------------------------------------------------------
    # fixpoints
    # ------------------------------------------------------------------

    def _fix_taint_returns(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in sorted(self.graph.nodes):
                fn = self._fn(node)
                entry = self.taint_ret.setdefault(node, {})
                for idx in fn.returns_sources:
                    source = fn.sources[idx]
                    if source.suppressed or source.kind in entry:
                        continue
                    entry[source.kind] = _Origin(
                        desc=f"{source.what}()", line=source.line
                    )
                    changed = True
                for idx in fn.returns_calls:
                    for edge in self._site_edges(node, idx):
                        for kind in sorted(self.taint_ret.get(edge.callee, ())):
                            if kind in entry or edge.callee == node:
                                continue
                            entry[kind] = _Origin(
                                desc="", line=edge.line, via=(edge.callee, edge.line)
                            )
                            changed = True

    def _fix_float_returns(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in sorted(self.graph.nodes):
                if node in self.float_ret:
                    continue
                fn = self._fn(node)
                if fn.returns_float_direct:
                    self.float_ret[node] = _Origin(
                        desc="float literal or true division",
                        line=fn.returns_float_line or fn.line,
                    )
                    changed = True
                    continue
                if fn.ret_ann == FLOAT_DECLARED:
                    self.float_ret[node] = _Origin(
                        desc="declared '-> float'", line=fn.line
                    )
                    changed = True
                    continue
                for idx in fn.returns_calls_float:
                    for edge in self._site_edges(node, idx):
                        if edge.callee != node and edge.callee in self.float_ret:
                            self.float_ret[node] = _Origin(
                                desc="",
                                line=edge.line,
                                via=(edge.callee, edge.line),
                            )
                            changed = True
                            break
                    if node in self.float_ret:
                        break

    def _fix_mutations(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in sorted(self.graph.nodes):
                if node in self.mutates:
                    continue
                fn = self._fn(node)
                if fn.mutations:
                    first = min(fn.mutations, key=lambda m: (m.line, m.attr))
                    self.mutates[node] = _Origin(
                        desc=f"self.{first.attr}", line=first.line
                    )
                    changed = True
                    continue
                for site in fn.calls:
                    if site.kind != "self":
                        continue
                    for edge in self._site_edges(node, site.index):
                        if edge.callee != node and edge.callee in self.mutates:
                            self.mutates[node] = _Origin(
                                desc="", line=site.line, via=(edge.callee, site.line)
                            )
                            changed = True
                            break
                    if node in self.mutates:
                        break

    def _walk_hot(self) -> None:
        roots = sorted(
            node for node in self.graph.nodes if self._fn(node).hot
        )
        self.hot_reached = set(roots)
        queue = deque(roots)
        while queue:
            current = queue.popleft()
            for edge in self.graph.out_edges(current):
                if edge.in_raise or edge.callee in self.hot_reached:
                    continue
                if self._fn(edge.callee).cold:
                    continue
                self.hot_reached.add(edge.callee)
                self.hot_parent[edge.callee] = (current, edge.line)
                queue.append(edge.callee)

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------

    def _taint_trace(self, callee: str, kind: str, sink_hop: str) -> Tuple[str, ...]:
        """Source-first hop list ending at the sink call."""
        hops: List[str] = []
        current = callee
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            origin = self.taint_ret[current][kind]
            if origin.via is None:
                hops.append(
                    f"{self.graph.pretty(current)} reads {origin.desc} "
                    f"({self._loc(current, origin.line)})"
                )
                break
            nxt, line = origin.via
            hops.append(
                f"{self.graph.pretty(current)} returns value of "
                f"{self.graph.pretty(nxt)} ({self._loc(current, line)})"
            )
            current = nxt
        hops.reverse()
        hops.append(sink_hop)
        return tuple(hops)

    def _emit_taint_findings(self) -> None:
        for node in sorted(self.graph.nodes):
            module = self.graph.module_of(node)
            if not in_package(module, DETERMINISM_SCOPE):
                continue
            fn = self._fn(node)
            for site in fn.calls:
                for edge in self._site_edges(node, site.index):
                    for kind in sorted(self.taint_ret.get(edge.callee, ())):
                        sink_hop = (
                            f"{self.graph.pretty(node)} consumes it "
                            f"({self._loc(node, site.line)})"
                        )
                        trace = self._taint_trace(edge.callee, kind, sink_hop)
                        self._add(
                            node,
                            rule_id=_TAINT_RULE[kind],
                            line=site.line,
                            col=site.col,
                            message=(
                                f"call to {self.graph.pretty(edge.callee)} "
                                f"returns a {kind}-derived value inside the "
                                f"deterministic scope; the source is "
                                f"{trace[0]}"
                            ),
                            trace=trace,
                        )

    def _float_trace(self, callee: str, sink_hop: str) -> Tuple[str, ...]:
        hops: List[str] = []
        current = callee
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            origin = self.float_ret[current]
            if origin.via is None:
                hops.append(
                    f"{self.graph.pretty(current)} returns {origin.desc} "
                    f"({self._loc(current, origin.line)})"
                )
                break
            nxt, line = origin.via
            hops.append(
                f"{self.graph.pretty(current)} returns value of "
                f"{self.graph.pretty(nxt)} ({self._loc(current, line)})"
            )
            current = nxt
        hops.reverse()
        hops.append(sink_hop)
        return tuple(hops)

    def _emit_unit_findings(self) -> None:
        for node in sorted(self.graph.nodes):
            module = self.graph.module_of(node)
            fn = self._fn(node)
            for sink in fn.ns_sinks:
                if self.decls.exempts(module, sink.ns_name, sink.via):
                    continue
                for edge in self._site_edges(node, sink.call_index):
                    if edge.callee not in self.float_ret:
                        continue
                    sink_hop = (
                        f"{self.graph.pretty(node)} stores it in "
                        f"'{sink.ns_name}' ({self._loc(node, sink.line)})"
                    )
                    trace = self._float_trace(edge.callee, sink_hop)
                    self._add(
                        node,
                        rule_id="flow-unit-escape",
                        line=sink.line,
                        col=sink.col,
                        message=(
                            f"'{sink.ns_name}' is integer nanoseconds but "
                            f"receives the result of "
                            f"{self.graph.pretty(edge.callee)}, which "
                            f"returns float ({trace[0]}); cast at the "
                            f"boundary or declare the name float"
                        ),
                        trace=trace,
                    )

    def _hot_chain(self, node: str) -> Tuple[str, ...]:
        """Root-first call chain establishing hot reachability."""
        chain: List[str] = []
        current = node
        guard: Set[str] = set()
        while current in self.hot_parent and current not in guard:
            guard.add(current)
            parent, line = self.hot_parent[current]
            chain.append(
                f"{self.graph.pretty(parent)} calls "
                f"{self.graph.pretty(current)} ({self._loc(parent, line)})"
            )
            current = parent
        chain.append(f"{self.graph.pretty(current)} is @hotpath")
        chain.reverse()
        return tuple(chain)

    def _emit_hot_findings(self) -> None:
        for node in sorted(self.hot_reached):
            fn = self._fn(node)
            if fn.hot or fn.cold:
                continue
            chain = None
            for alloc in fn.allocs:
                if alloc.in_raise:
                    continue
                if chain is None:
                    chain = self._hot_chain(node)
                self._add(
                    node,
                    rule_id="flow-hot-transitive",
                    line=alloc.line,
                    col=alloc.col,
                    message=(
                        f"{alloc.detail} allocates per call, and "
                        f"{self.graph.pretty(node)} is reachable from a "
                        f"@hotpath root ({chain[0].split(' is ')[0]}); "
                        f"hoist the allocation or mark a deliberate slow "
                        f"path @coldpath"
                    ),
                    trace=chain
                    + (f"{alloc.detail} allocated at {self._loc(node, alloc.line)}",),
                )

    def _mutation_trace(self, callee: str, sink_hop: str) -> Tuple[str, ...]:
        hops: List[str] = [sink_hop]
        current = callee
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            origin = self.mutates[current]
            if origin.via is None:
                hops.append(
                    f"{self.graph.pretty(current)} mutates {origin.desc} "
                    f"({self._loc(current, origin.line)})"
                )
                break
            nxt, line = origin.via
            hops.append(
                f"{self.graph.pretty(current)} calls "
                f"{self.graph.pretty(nxt)} ({self._loc(current, line)})"
            )
            current = nxt
        return tuple(hops)

    def _emit_crash_findings(self) -> None:
        for node in sorted(self.graph.nodes):
            module = self.graph.module_of(node)
            if not in_package(module, CRASH_SCOPE_PREFIXES):
                continue
            fn = self._fn(node)
            wal_orders = [op.order for op in fn.journal_ops if op.kind == "wal"]
            marker_orders = [
                op.order for op in fn.journal_ops if op.kind == "marker"
            ]
            if wal_orders:
                self._check_wal_discipline(node, fn, min(wal_orders))
            if marker_orders:
                self._check_marker_discipline(node, fn, max(marker_orders))

    def _check_wal_discipline(
        self, node: str, fn: FunctionSummary, first_wal: int
    ) -> None:
        wal_line = next(
            op.line for op in fn.journal_ops if op.kind == "wal"
        )
        for mut in fn.mutations:
            if mut.order >= first_wal or mut.exits:
                continue
            self._add(
                node,
                rule_id="flow-unjournaled-effect",
                line=mut.line,
                col=0,
                message=(
                    f"self.{mut.attr} is mutated before the WAL append at "
                    f"line {wal_line}; a crash between them loses the "
                    f"effect without a record to replay"
                ),
                trace=(
                    f"{self.graph.pretty(node)} mutates self.{mut.attr} "
                    f"({self._loc(node, mut.line)})",
                    f"WAL append follows at {self._loc(node, wal_line)}",
                ),
            )
        for site in fn.calls:
            if site.kind != "self" or site.order >= first_wal or site.exits:
                continue
            for edge in self._site_edges(node, site.index):
                if edge.callee not in self.mutates:
                    continue
                sink_hop = (
                    f"{self.graph.pretty(node)} calls "
                    f"{self.graph.pretty(edge.callee)} before the WAL append "
                    f"({self._loc(node, site.line)})"
                )
                self._add(
                    node,
                    rule_id="flow-unjournaled-effect",
                    line=site.line,
                    col=site.col,
                    message=(
                        f"call to {self.graph.pretty(edge.callee)} mutates "
                        f"service state before the WAL append at line "
                        f"{wal_line}"
                    ),
                    trace=self._mutation_trace(edge.callee, sink_hop),
                )
        for crash in fn.crashpoints:
            if crash.order >= first_wal or crash.exits:
                continue
            self._add(
                node,
                rule_id="flow-effect-order",
                line=crash.line,
                col=0,
                message=(
                    f"crashpoint '{crash.name}' fires before the WAL "
                    f"append at line {wal_line}; recovery would find no "
                    f"record for the interrupted operation"
                ),
                trace=(
                    f"crashpoint at {self._loc(node, crash.line)}",
                    f"WAL append follows at {self._loc(node, wal_line)}",
                ),
            )

    def _check_marker_discipline(
        self, node: str, fn: FunctionSummary, last_marker: int
    ) -> None:
        marker_line = max(
            op.line for op in fn.journal_ops if op.kind == "marker"
        )
        for mut in fn.mutations:
            if mut.order <= last_marker or mut.exits:
                continue
            self._add(
                node,
                rule_id="flow-effect-order",
                line=mut.line,
                col=0,
                message=(
                    f"self.{mut.attr} is mutated after the commit marker "
                    f"append at line {marker_line}; the marker must be "
                    f"the last effect so replay sees a consistent "
                    f"snapshot"
                ),
                trace=(
                    f"commit marker appended at {self._loc(node, marker_line)}",
                    f"{self.graph.pretty(node)} then mutates self."
                    f"{mut.attr} ({self._loc(node, mut.line)})",
                ),
            )
        for site in fn.calls:
            if site.kind != "self" or site.order <= last_marker or site.exits:
                continue
            for edge in self._site_edges(node, site.index):
                if edge.callee not in self.mutates:
                    continue
                sink_hop = (
                    f"{self.graph.pretty(node)} calls "
                    f"{self.graph.pretty(edge.callee)} after the commit "
                    f"marker ({self._loc(node, site.line)})"
                )
                self._add(
                    node,
                    rule_id="flow-effect-order",
                    line=site.line,
                    col=site.col,
                    message=(
                        f"call to {self.graph.pretty(edge.callee)} mutates "
                        f"state after the commit marker append at line "
                        f"{marker_line}"
                    ),
                    trace=self._mutation_trace(edge.callee, sink_hop),
                )
