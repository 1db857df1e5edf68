"""Project call graph over module summaries.

Call sites recorded by :mod:`repro.lint.flow.summary` carry reference
structure (bare name / ``self`` method / typed receiver / dotted path /
``functools.partial`` target) but no resolution — that needs the whole
project, and happens here.  Resolution is deliberately *static and
conservative*:

* bare names resolve through the defining module's functions, then its
  imports (a name imported from a project module links to that module's
  function or class constructor);
* ``self.m(...)`` and typed-receiver calls dispatch by class-hierarchy
  analysis — an edge to the defining ancestor's implementation plus one
  to every override in a descendant of the *declared* receiver class;
* dotted calls resolve their head through imports and then take the
  longest module prefix known to the project;
* ``partial(f, ...)`` adds a deferred edge to ``f`` under the same
  rules.

Anything else (``callback()`` through a stored function value, calls
into the stdlib) resolves to nothing and simply bounds the analysis.
Unresolved *taint-relevant* facts are still caught at the source by the
zero-hop ``det-*`` queries, so the conservatism loses transitive
evidence, not soundness of the direct rules.

Node ids are ``<module>:<qualname>`` (``repro.sim.machine:Machine._do_resched``);
:func:`CallGraph.pretty` renders them dotted for human traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.flow.summary import CallSite, FunctionSummary, ModuleSummary


@dataclass(frozen=True)
class CallEdge:
    """One resolved call edge out of a function."""

    callee: str
    call_index: int
    line: int
    kind: str
    in_raise: bool = False


@dataclass
class CallGraph:
    """Resolved project call graph plus the summaries it was built from."""

    summaries: Dict[str, ModuleSummary]
    #: node id -> (module, function summary)
    nodes: Dict[str, Tuple[str, FunctionSummary]] = field(default_factory=dict)
    #: caller node id -> outgoing edges (sorted by call order).
    edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    #: callee node id -> caller node ids (derived, for reverse walks).
    callers: Dict[str, List[str]] = field(default_factory=dict)

    def function(self, node_id: str) -> FunctionSummary:
        return self.nodes[node_id][1]

    def module_of(self, node_id: str) -> str:
        return self.nodes[node_id][0]

    def path_of(self, node_id: str) -> str:
        return self.summaries[self.nodes[node_id][0]].path

    @staticmethod
    def pretty(node_id: str) -> str:
        return node_id.replace(":", ".")

    def out_edges(self, node_id: str) -> List[CallEdge]:
        return self.edges.get(node_id, [])

    def edge_count(self) -> int:
        return sum(len(e) for e in self.edges.values())

    # -- exports -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        nodes = []
        for node_id in sorted(self.nodes):
            module, fn = self.nodes[node_id]
            nodes.append(
                {
                    "id": node_id,
                    "module": module,
                    "function": fn.name,
                    "line": fn.line,
                    "hot": fn.hot,
                    "cold": fn.cold,
                }
            )
        edges = []
        for caller in sorted(self.edges):
            for edge in self.edges[caller]:
                edges.append(
                    {
                        "caller": caller,
                        "callee": edge.callee,
                        "line": edge.line,
                        "kind": edge.kind,
                    }
                )
        return {"nodes": nodes, "edges": edges}

    def to_dot(self) -> str:
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
        for node_id in sorted(self.nodes):
            _, fn = self.nodes[node_id]
            attrs = ""
            if fn.hot:
                attrs = ' style=filled fillcolor="#ffd0d0"'
            elif fn.cold:
                attrs = ' style=filled fillcolor="#d0e0ff"'
            lines.append(
                f'  "{self.pretty(node_id)}" [label="{self.pretty(node_id)}"{attrs}];'
            )
        for caller in sorted(self.edges):
            seen: Set[str] = set()
            for edge in self.edges[caller]:
                if edge.callee in seen:
                    continue
                seen.add(edge.callee)
                style = ' [style=dashed]' if edge.kind == "partial" else ""
                lines.append(
                    f'  "{self.pretty(caller)}" -> "{self.pretty(edge.callee)}"{style};'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------


class _Resolver:
    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        #: class id ("module:Class") -> ClassInfo
        self.class_ids: Dict[str, object] = {}
        #: bare class name -> class ids defining it (for unique fallback)
        self.class_names: Dict[str, List[str]] = {}
        #: class id -> resolved base class ids
        self.bases: Dict[str, List[str]] = {}
        #: class id -> direct subclass ids
        self.subclasses: Dict[str, List[str]] = {}
        for module in sorted(summaries):
            for cls_name in sorted(summaries[module].classes):
                cid = f"{module}:{cls_name}"
                self.class_ids[cid] = summaries[module].classes[cls_name]
                self.class_names.setdefault(cls_name, []).append(cid)
        for module in sorted(summaries):
            summary = summaries[module]
            for cls_name in sorted(summary.classes):
                cid = f"{module}:{cls_name}"
                resolved = []
                for base_ref in summary.classes[cls_name].bases:
                    base_id = self.resolve_class_ref(base_ref, module)
                    if base_id is not None:
                        resolved.append(base_id)
                        self.subclasses.setdefault(base_id, []).append(cid)
                self.bases[cid] = resolved

    # -- class references ----------------------------------------------

    def resolve_class_ref(self, ref: str, module: str) -> Optional[str]:
        """Resolve a textual class reference seen in ``module``."""
        if not ref:
            return None
        summary = self.summaries.get(module)
        parts = ref.split(".")
        if len(parts) == 1:
            if summary is not None and ref in summary.classes:
                return f"{module}:{ref}"
            if summary is not None and ref in summary.imports:
                return self._class_id_of_dotted(summary.imports[ref])
            candidates = self.class_names.get(ref, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        # Dotted: translate the head through imports, then treat the
        # last component as the class name.
        head = parts[0]
        if summary is not None and head in summary.imports:
            dotted = ".".join([summary.imports[head]] + parts[1:])
        else:
            dotted = ref
        return self._class_id_of_dotted(dotted)

    def _class_id_of_dotted(self, dotted: str) -> Optional[str]:
        parts = dotted.split(".")
        cls_name = parts[-1]
        mod = ".".join(parts[:-1])
        if mod and f"{mod}:{cls_name}" in self.class_ids:
            return f"{mod}:{cls_name}"
        # Re-exported name (``from repro.sim import SimEngine``): the
        # "module" path is really a package; fall back to the unique
        # definer of that class name.
        candidates = self.class_names.get(cls_name, [])
        if len(candidates) == 1:
            return candidates[0]
        # Prefer a definer whose module is inside the dotted prefix.
        scoped = [c for c in candidates if mod and c.split(":")[0].startswith(mod)]
        if len(scoped) == 1:
            return scoped[0]
        return None

    # -- hierarchy walks -----------------------------------------------

    def ancestors(self, class_id: str) -> Iterable[str]:
        """``class_id`` then its base classes, breadth-first."""
        seen: Set[str] = set()
        queue = [class_id]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            yield current
            queue.extend(self.bases.get(current, []))

    def descendants(self, class_id: str) -> Iterable[str]:
        """All transitive subclasses of ``class_id`` (exclusive)."""
        seen: Set[str] = set()
        queue = list(self.subclasses.get(class_id, []))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            yield current
            queue.extend(self.subclasses.get(current, []))

    def method_targets(self, class_id: str, method: str) -> List[str]:
        """CHA dispatch: defining-ancestor impl + descendant overrides."""
        targets: List[str] = []
        for ancestor in self.ancestors(class_id):
            node = self._method_node(ancestor, method)
            if node is not None:
                targets.append(node)
                break
        for descendant in sorted(self.descendants(class_id)):
            node = self._method_node(descendant, method)
            if node is not None and node not in targets:
                targets.append(node)
        return targets

    def _method_node(self, class_id: str, method: str) -> Optional[str]:
        module, cls_name = class_id.split(":", 1)
        summary = self.summaries.get(module)
        if summary is None:
            return None
        qual = f"{cls_name}.{method}"
        if qual in summary.functions:
            return f"{module}:{qual}"
        return None

    # -- function references -------------------------------------------

    def resolve_dotted_function(self, dotted: str) -> Optional[str]:
        """``pkg.mod.f`` / ``pkg.mod.Class`` -> function node id."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:split])
            summary = self.summaries.get(mod)
            if summary is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                name = rest[0]
                if name in summary.functions:
                    return f"{mod}:{name}"
                if name in summary.classes:
                    return self._constructor_node(f"{mod}:{name}")
            elif len(rest) == 2:
                qual = f"{rest[0]}.{rest[1]}"
                if qual in summary.functions:
                    return f"{mod}:{qual}"
            return None
        return None

    def _constructor_node(self, class_id: str) -> Optional[str]:
        for ancestor in self.ancestors(class_id):
            node = self._method_node(ancestor, "__init__")
            if node is not None:
                return node
        return None

    def resolve_name(self, name: str, module: str) -> Optional[str]:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if name in summary.functions:
            return f"{module}:{name}"
        if name in summary.classes:
            return self._constructor_node(f"{module}:{name}")
        dotted = summary.imports.get(name)
        if dotted:
            return self.resolve_dotted_function(dotted)
        return None


def _resolve_site(
    resolver: _Resolver, module: str, cls: str, site: CallSite
) -> List[str]:
    if site.kind == "name":
        target = resolver.resolve_name(site.target, module)
        return [target] if target else []
    if site.kind == "self":
        if not cls:
            return []
        return resolver.method_targets(f"{module}:{cls}", site.target)
    if site.kind == "attr":
        if not site.recv_type:
            return []
        class_id = resolver.resolve_class_ref(site.recv_type, module)
        if class_id is None:
            return []
        return resolver.method_targets(class_id, site.target)
    if site.kind == "dotted":
        parts = site.target.split(".")
        summary = resolver.summaries.get(module)
        head = parts[0]
        if summary is not None and head in summary.imports:
            dotted = ".".join([summary.imports[head]] + parts[1:])
        else:
            dotted = site.target
        target = resolver.resolve_dotted_function(dotted)
        return [target] if target else []
    if site.kind == "partial":
        if site.target.startswith("self."):
            method = site.target[len("self.") :]
            if cls and "." not in method:
                return resolver.method_targets(f"{module}:{cls}", method)
            return []
        if "." not in site.target:
            target = resolver.resolve_name(site.target, module)
            return [target] if target else []
        parts = site.target.split(".")
        summary = resolver.summaries.get(module)
        if summary is not None and parts[0] in summary.imports:
            dotted = ".".join([summary.imports[parts[0]]] + parts[1:])
        else:
            dotted = site.target
        target = resolver.resolve_dotted_function(dotted)
        return [target] if target else []
    return []


def build_call_graph(summaries: Dict[str, ModuleSummary]) -> CallGraph:
    """Resolve every recorded call site against the project."""
    graph = CallGraph(summaries=summaries)
    resolver = _Resolver(summaries)
    for module in sorted(summaries):
        for qual in sorted(summaries[module].functions):
            graph.nodes[f"{module}:{qual}"] = (
                module,
                summaries[module].functions[qual],
            )
    for module in sorted(summaries):
        summary = summaries[module]
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            caller = f"{module}:{qual}"
            out: List[CallEdge] = []
            for site in fn.calls:
                for callee in _resolve_site(resolver, module, fn.cls, site):
                    if callee not in graph.nodes:
                        continue
                    out.append(
                        CallEdge(
                            callee=callee,
                            call_index=site.index,
                            line=site.line,
                            kind=site.kind,
                            in_raise=site.in_raise,
                        )
                    )
            if out:
                graph.edges[caller] = out
                for edge in out:
                    callers = graph.callers.setdefault(edge.callee, [])
                    if caller not in callers:
                        callers.append(caller)
    return graph
