"""Per-module flow summaries: everything the lint engine reads of a module.

One :class:`ModuleSummary` reduces a module's AST to plain, JSON-round-
trippable records.  Two walks produce it:

* one breadth-first walk over every node, in every scope, records the
  sites the zero-hop rules read (wall-clock, RNG and environment
  probes; allocation constructs inside ``@hotpath`` bodies; values
  landing in ``*_ns`` names; unit-suffixed arguments to ``*_ns``
  parameters; set iteration and bare ``popitem()``; bare and
  swallowing ``except`` handlers; registry mutations a fallible call
  could strand; truncating writes), every import, and the ``*_ns``
  parameters and names declared ``float``;
* a per-function extraction records what the whole-program passes
  need: the calls each function makes (with enough reference structure
  to resolve later), taint sources, allocation sites, self-state
  mutations, journal operations, crashpoints, and a small local
  dataflow result (which calls/sources reach a ``return``, which call
  results land in ``*_ns`` names).

Summaries are *module local* by construction: nothing in here looks at
another file, which is what lets :mod:`repro.lint.cache` key them purely
on content hash and lets the driver extract them on a process pool.

The local dataflow is a token propagation over local names: every
expression is reduced to the set of {source-site, call-site, float
evidence} tokens it may carry, assignments transfer tokens to names,
and returns/sinks collect them.  It is deliberately flow-insensitive
within a function (a name's tokens accumulate over all assignments) and
does not descend into nested ``def``/``lambda`` bodies — both are the
conservative direction for taint and unit escapes, and keep extraction
to a small fixed number of passes per function.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.lint.context import allow_line
from repro.lint.patterns import (
    ENV_SUFFIXES,
    FLOAT_DECLARED,
    INT_DECLARED,
    OTHER_UNIT_SUFFIXES,
    SEEDED_CONSTRUCTORS,
    WALLCLOCK_FLOAT_SUFFIXES,
    WALLCLOCK_NAMES,
    is_ns_name,
    matches_suffix,
    taint_kind_of_attr,
    taint_kind_of_call,
)

#: Bump when the summary schema changes so stale caches self-invalidate.
SUMMARY_VERSION = 6

#: Calls that make an integer out of anything (unit-boundary casts).
_INT_CASTS = {"int", "round", "floor", "ceil"}

#: typing-module names that are containers, not receiver classes.
_TYPING_NAMES = {
    "Optional", "Union", "List", "Dict", "Tuple", "Set", "Sequence",
    "Iterable", "Iterator", "Callable", "Mapping", "Type", "FrozenSet",
    "Deque", "DefaultDict", "Any", "ClassVar", "Final", "Literal",
    "Annotated", "Awaitable", "Coroutine", "Generator", "NewType",
    "type", "list", "dict", "tuple", "set", "frozenset", "None",
    "int", "float", "str", "bytes", "bool", "object",
}

#: Journal-append method names, split by protocol role: WAL records
#: must precede the effects they cover; commit markers must follow the
#: counters they snapshot.
_JOURNAL_WAL_METHODS = {"append_request"}
_JOURNAL_MARKER_METHODS = {"append_commit"}

#: The direct rule whose allow also sanctions a taint source's flows.
_DET_RULE = {
    "wallclock": "det-wallclock",
    "rng": "det-unseeded-rng",
    "env": "det-env-branch",
}

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "appendleft",
}

#: The repo's error hierarchy (repro.errors) plus the stdlib roots a
#: handler could hide it behind (``err-swallowed-error``).
_REPRO_ERRORS = {
    "ReproError", "ConfigurationError", "SimulationError", "PlanningError",
    "AdmissionError", "TableFormatError", "TablePushError",
    "InvariantViolation", "Exception", "BaseException",
}

#: Receiver names that hold control-plane registries, the methods that
#: mutate one, and the control-plane calls documented to raise
#: ReproError subclasses (``err-registry-rollback``).
_REGISTRY_NAMES = {"registry", "_domains", "_staged", "_retired_tables"}
_REGISTRY_MUTATORS = {
    "add", "remove", "replace", "restore", "clear", "update", "pop",
    "popitem", "setdefault", "append",
}
_FALLIBLE = {
    "replan", "plan", "push_table", "push_system_table", "rotate_table",
    "create_vm", "destroy_vm", "reconfigure_vm",
}

#: ``Path`` convenience writers that truncate in place: no temp file,
#: no rename, so a crash mid-call tears the destination
#: (``err-nonatomic-write``).
_PATH_WRITERS = {"write_bytes", "write_text"}

#: Calls that iterate their first argument in its own order; sorted(),
#: len(), min(), max() and sum() are order-safe (``det-unordered-iter``).
_ITERATING_CALLS = {"list", "tuple", "iter", "enumerate"}
#: Set algebra (union, intersection, differences) stays a set.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


#: Annotation spellings that mean "integer nanoseconds on the clock".
_INT_ANNOTATIONS = {"int", "Nanoseconds"}


def annotation_category(annotation: Optional[ast.expr]) -> Optional[str]:
    """Classify an annotation as float-intent, int-intent, or unknown."""
    if annotation is None:
        return None
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # string annotations (``"float"``)
    if "float" in names:
        return FLOAT_DECLARED
    if names & _INT_ANNOTATIONS:
        return INT_DECLARED
    return None


def dotted_path(node: ast.expr) -> str:
    """Flatten ``a.b.c`` attribute chains to a dotted string ('' if not)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def has_marker(node: ast.AST, marker: str) -> bool:
    """True when a function def carries decorator ``@marker`` (bare,
    called, or attribute-qualified)."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == marker:
            return True
        if isinstance(target, ast.Attribute) and target.attr == marker:
            return True
    return False


# ----------------------------------------------------------------------
# Record types (all dict-round-trippable via dataclasses.asdict)
# ----------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``kind`` describes how the callee was named, which drives
    resolution: ``"name"`` (bare name — local function, import, or
    class constructor), ``"self"`` (``self.m(...)``), ``"attr"``
    (``recv.m(...)`` with ``recv_type`` carrying the receiver's
    declared/inferred type reference when known), ``"dotted"``
    (``pkg.mod.f(...)``), or ``"partial"`` (the target of a
    ``functools.partial`` — a deferred call edge).
    """

    index: int
    kind: str
    target: str
    recv_type: str
    line: int
    col: int
    order: int
    in_raise: bool = False
    #: The call sits in a block that exits early (raise/return/continue
    #: before the enclosing suite rejoins) — off the commit path.
    exits: bool = False
    #: The call is one of the wall-clock readers that return float
    #: seconds (feeds the unit-inference pass directly).
    returns_float_builtin: bool = False


@dataclass
class TaintSource:
    """A direct nondeterminism source (wall clock / RNG / environment)."""

    kind: str
    what: str
    line: int
    col: int
    #: An allow-comment for the matching det-* or flow-taint-* rule
    #: covers the source line: the justification sanctions every flow
    #: out of it, so the taint pass does not seed from here.
    suppressed: bool = False


@dataclass
class AllocSite:
    """A per-call allocation the hot-path rules ban."""

    kind: str
    detail: str
    line: int
    col: int
    #: Allocation feeds a ``raise`` — an error path the transitive
    #: hot-path rule treats as cold (the local ``hot-*`` rules stay
    #: strict inside directly-marked functions).
    in_raise: bool = False


@dataclass
class MutationSite:
    """A write to ``self`` state (attribute assign or mutating call)."""

    attr: str
    line: int
    order: int
    #: Mutation happens on an early-exit path (validation rejection,
    #: exception handler) — not part of the journaled commit path.
    exits: bool = False


@dataclass
class JournalOp:
    """A journal append: ``wal`` (write-ahead) or ``marker`` (commit)."""

    kind: str
    line: int
    order: int


@dataclass
class CrashSite:
    """A ``crashpoint(...)`` consultation."""

    name: str
    line: int
    order: int
    exits: bool = False


@dataclass
class NsSink:
    """A call result flowing into a ``*_ns`` name.

    ``via`` is ``"assign"`` or ``"kwarg:<callee>"``; the engine decides
    whether the call's resolved target returns float (and whether the
    name was declared a measured float, which exempts it).
    """

    call_index: int
    ns_name: str
    line: int
    col: int
    via: str


@dataclass
class Site:
    """A single-site fact one zero-hop rule reads.

    ``kind`` keys the rule and its message (``engine.SITE_RULES``).
    ``what`` names the offending thing.  ``within`` is its context: the
    enclosing ``@hotpath`` function of a ``hot-*`` site, the parameter
    a unit-suffixed value is passed to, how a value lands in a
    ``*_ns`` name (``assign``, ``annotated`` for an assignment annotated
    integer, or ``kwarg:<callee>``), or the registry mutation a
    fallible call could strand.  The position spans the offending
    node.
    """

    kind: str
    what: str
    line: int
    col: int
    end_line: int
    within: str = ""


@dataclass
class ImportSite:
    """One imported module (resolved) and the names taken from it."""

    module: str
    names: List[str]
    line: int
    col: int
    end_line: int
    #: The line sits inside an ``if TYPE_CHECKING:`` block.
    type_checking: bool = False


@dataclass
class FunctionSummary:
    """Everything the flow passes know about one function."""

    name: str
    cls: str
    line: int
    end_line: int
    hot: bool
    cold: bool
    ret_ann: str
    calls: List[CallSite] = field(default_factory=list)
    sources: List[TaintSource] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    journal_ops: List[JournalOp] = field(default_factory=list)
    crashpoints: List[CrashSite] = field(default_factory=list)
    ns_sinks: List[NsSink] = field(default_factory=list)
    #: Indexes into ``sources`` whose value may reach a ``return``.
    returns_sources: List[int] = field(default_factory=list)
    #: Indexes into ``calls`` whose result may reach a ``return``.
    returns_calls: List[int] = field(default_factory=list)
    #: Same, but as the float fixpoint sees it: an ``int()``/``round()``
    #: cast on the return path drops the call here (it launders
    #: float-ness) while ``returns_calls`` keeps it (a cast does not
    #: launder taint).
    returns_calls_float: List[int] = field(default_factory=list)
    #: A float literal or true division reaches a ``return`` directly.
    returns_float_direct: bool = False
    returns_float_line: int = 0


@dataclass
class ClassInfo:
    """Class shape for hierarchy analysis and receiver typing."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: attribute name -> raw type reference (annotation or constructor).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The flow-relevant reduction of one module."""

    module: str
    path: str
    is_package: bool = False
    #: Bound name -> dotted target, for call resolution.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Every scope's zero-hop sites, each rule's in the order it reports
    #: them.
    sites: List[Site] = field(default_factory=list)
    import_sites: List[ImportSite] = field(default_factory=list)
    #: ``[callable or class name, parameter]`` pairs of ``*_ns``
    #: parameters and dataclass fields annotated ``float``.
    float_params: List[List[str]] = field(default_factory=list)
    #: ``*_ns`` names annotated ``float`` anywhere in the module.
    float_names: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "imports": self.imports,
            "functions": {k: asdict(v) for k, v in self.functions.items()},
            "classes": {k: asdict(v) for k, v in self.classes.items()},
            "sites": [asdict(site) for site in self.sites],
            "import_sites": [asdict(site) for site in self.import_sites],
            "float_params": self.float_params,
            "float_names": self.float_names,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSummary":
        functions = {}
        for key, raw in data["functions"].items():  # type: ignore[union-attr]
            fn = FunctionSummary(
                **{
                    k: v
                    for k, v in raw.items()
                    if k
                    not in (
                        "calls", "sources", "allocs", "mutations",
                        "journal_ops", "crashpoints", "ns_sinks",
                    )
                }
            )
            fn.calls = [CallSite(**c) for c in raw["calls"]]
            fn.sources = [TaintSource(**s) for s in raw["sources"]]
            fn.allocs = [AllocSite(**a) for a in raw["allocs"]]
            fn.mutations = [MutationSite(**m) for m in raw["mutations"]]
            fn.journal_ops = [JournalOp(**j) for j in raw["journal_ops"]]
            fn.crashpoints = [CrashSite(**c) for c in raw["crashpoints"]]
            fn.ns_sinks = [NsSink(**n) for n in raw["ns_sinks"]]
            functions[key] = fn
        return cls(
            module=data["module"],  # type: ignore[arg-type]
            path=data["path"],  # type: ignore[arg-type]
            is_package=bool(data.get("is_package")),
            imports=dict(data["imports"]),  # type: ignore[arg-type]
            functions=functions,
            classes={
                k: ClassInfo(**v)
                for k, v in data["classes"].items()  # type: ignore[union-attr]
            },
            sites=[Site(**v) for v in data["sites"]],  # type: ignore[union-attr]
            import_sites=[
                ImportSite(**v) for v in data["import_sites"]  # type: ignore[union-attr]
            ],
            float_params=list(data["float_params"]),  # type: ignore[call-overload]
            float_names=list(data["float_names"]),  # type: ignore[call-overload]
        )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def summarize_module(
    module: str,
    path: str,
    tree: ast.Module,
    suppressions: Optional[Dict[int, Set[str]]] = None,
) -> ModuleSummary:
    """Reduce one parsed module to its :class:`ModuleSummary`.

    ``suppressions`` is the module's allow-comment map (line -> rule
    ids); taint sources covered by a matching allow are marked
    suppressed so the justification at the source sanctions the flow.
    """
    summary = ModuleSummary(
        module=module,
        path=path,
        is_package=path.replace("\\", "/").endswith("/__init__.py"),
    )
    suppressions = suppressions or {}
    _ModuleWalk(summary).run(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(summary, node, cls="", suppressions=suppressions)
        elif isinstance(node, ast.ClassDef):
            _add_class(summary, node, suppressions)
    return summary


# ----------------------------------------------------------------------
# Whole-module walk: zero-hop sites, imports, float declarations
# ----------------------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)
#: Last components of the environment probes: only attributes ending in
#: one of these can match :data:`ENV_SUFFIXES`.
_ENV_ATTRS = frozenset(suffix.rsplit(".", 1)[-1] for suffix in ENV_SUFFIXES)
#: Node types no rule reads, with nothing a rule reads below them: the
#: walk does not queue them.
_INERT = frozenset(
    [ast.Name, ast.Constant, ast.alias]
    + [
        kind
        for base in (
            ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop
        )
        for kind in base.__subclasses__()
    ]
)


def _site(kind: str, what: str, node: ast.AST, within: str = "") -> Site:
    line = node.lineno  # type: ignore[attr-defined]
    return Site(
        kind=kind,
        what=what,
        line=line,
        col=node.col_offset,  # type: ignore[attr-defined]
        end_line=node.end_lineno or line,  # type: ignore[attr-defined]
        within=within,
    )


#: A node's context in the walk: ``(hot, defs, scope, anchor)``.
#:
#: * ``hot``: the ``@hotpath`` functions whose body holds the node,
#:   outermost first, so a site inside a nested kernel is recorded
#:   once for every marked function around it;
#: * ``defs``: every ``def`` around it, header included, as indexes
#:   into ``_ModuleWalk.defs`` (a function's registry events are read
#:   with its nested defs');
#: * ``scope``: the set-binding scope it belongs to, an index into
#:   ``_ModuleWalk.scopes``: the module with its class bodies, or one
#:   ``def`` body; ``-1`` inside a lambda or a ``def`` header, which
#:   ``det-unordered-iter`` does not read;
#: * ``anchor``: inside a class's decorators, the class's end position
#:   (``det-unordered-iter`` reads a class's decorators after its body).
_Context = Tuple[Tuple[str, ...], Tuple[int, ...], int, Optional[Tuple[int, int]]]


class _ModuleWalk:
    """Record the zero-hop sites, imports and float declarations.

    One breadth-first walk in ``ast.walk`` order that, unlike the
    function extraction, reaches every scope: module and class bodies,
    nested ``def``\\s and lambdas.  Most sites are recorded where the
    walk meets them.  Two rules need a whole scope first, so
    :meth:`run` ends by deciding them:

    * ``det-unordered-iter`` reads a scope's statements in source
      order, tracking which names are bound to sets; the walk records
      each scope's set bindings and the expressions it iterates, keyed
      by position, and replays them in that order.  A binding is keyed
      by where its statement ends, after the value it reads; a class
      body is a scope of its own, which starts from the set names bound
      where the class statement stands;
    * ``err-registry-rollback`` reads a function's registry mutations
      and fallible calls in line order, against the spans of the
      ``try`` bodies whose handlers re-raise.  A nested def's events
      count for every def around it, and a call is reported once, by
      the innermost def that flags it.
    """

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self.sites = summary.sites
        #: Line spans of ``if TYPE_CHECKING:`` bodies.
        self.guarded: List[Tuple[int, int]] = []
        #: Per scope: ``(position, rank, names, shape, node)`` for each
        #: set binding (rank 0; ``names`` bound to ``shape``), each
        #: iterated expression that may be a set (rank 1) and each class
        #: body (rank 2; ``node`` is the body's scope).
        self.scopes: List[List[tuple]] = [[]]
        #: Per def, in walk order: its ``(line, kind, name, node)``
        #: registry events and its re-raising ``try`` body spans.
        self.defs: List[Tuple[List[tuple], List[Tuple[int, int]]]] = []
        #: ``popitem()`` sites.  They follow the set-iteration sites, so
        #: ``list(s).popitem()`` reports the iteration first.
        self.popitems: List[Site] = []

    def run(self, tree: ast.Module) -> None:
        queue: deque = deque([(tree, ((), (), 0, None))])
        while queue:
            node, context = queue.popleft()
            hot, defs, scope, anchor = context
            body = rest = context
            decorators = None
            if isinstance(node, ast.Call):
                self._call(node, context)
            elif isinstance(node, ast.Attribute):
                if node.attr in _ENV_ATTRS:
                    path = dotted_path(node)
                    if taint_kind_of_attr(path):
                        self.sites.append(_site("env", path, node))
            elif isinstance(node, _ASSIGNS):
                _assign_sites(self.summary, node)
                if isinstance(node, ast.Assign):
                    if scope >= 0:
                        self._bind(scope, node)
                    if defs:
                        self._registry_target(defs, node, node.targets)
                elif defs and isinstance(node, ast.AugAssign):
                    self._registry_target(defs, node, [node.target])
            elif isinstance(node, ast.Delete):
                if defs:
                    self._registry_target(defs, node, node.targets)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                _import_sites(self.summary, node)
            elif isinstance(node, ast.If):
                if _type_checking_only(node.test):
                    # The body only: an ``else:`` branch runs at import time.
                    last = node.body[-1]
                    self.guarded.append(
                        (node.body[0].lineno, last.end_lineno or last.lineno)
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if scope >= 0:
                    self._iterates(scope, anchor, node, node.iter)
            elif isinstance(node, ast.Try):
                if defs:
                    self._rollback_span(defs, node)
            elif isinstance(node, ast.ExceptHandler):
                self._handler(node)
            elif isinstance(node, _FUNCTIONS):
                body, rest = self._function(node, context)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign):
                        name = _terminal_name(statement.target)
                        if _float_ns(name, statement.annotation):
                            self.summary.float_params.append([node.name, name])
                end = (node.end_lineno or node.lineno, node.end_col_offset or 0)
                decorators = (hot, defs, scope, end)
                if scope >= 0:
                    self.scopes.append([])
                    own = len(self.scopes) - 1
                    start = (node.lineno, node.col_offset)
                    self.scopes[scope].append((start, 2, (), (False, ()), own))
                    body = (hot, defs, own, None)
            elif isinstance(node, ast.Lambda):
                self.sites.extend(_site("closure", "<lambda>", node, fn) for fn in hot)
                body = rest = (hot, defs, -1, anchor)
            elif isinstance(node, _COMPREHENSIONS):
                what = type(node).__name__
                self.sites.extend(_site("comprehension", what, node, fn) for fn in hot)
                if scope >= 0:
                    self._iterates(scope, anchor, node, node.generators[0].iter)
            elif hot and isinstance(node, ast.JoinedStr):
                self.sites.extend(_site("fstring", "", node, fn) for fn in hot)
            for name, value in ast.iter_fields(node):
                if name == "body":
                    inner = body
                elif name == "decorator_list" and decorators is not None:
                    inner = decorators
                else:
                    inner = rest
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST) and type(item) not in _INERT:
                            queue.append((item, inner))
                elif isinstance(value, ast.AST) and type(value) not in _INERT:
                    queue.append((value, inner))
        for record in self.summary.import_sites:
            record.type_checking = any(
                start <= record.line <= end for start, end in self.guarded
            )
        self._set_iteration_sites()
        self.sites.extend(self.popitems)
        self._rollback_sites()

    # -- node kinds ----------------------------------------------------

    def _function(
        self, node: ast.FunctionDef, context: _Context
    ) -> Tuple[_Context, _Context]:
        """A def's float parameters and hot sites; its body's and its
        header's contexts."""
        hot, defs, _, _ = context
        summary = self.summary
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if _float_ns(arg.arg, arg.annotation):
                summary.float_params.append([node.name, arg.arg])
        self.sites.extend(_site("closure", node.name, node, fn) for fn in hot)
        body_hot = hot
        if has_marker(node, "hotpath"):
            for star, arg in (("*", args.vararg), ("**", args.kwarg)):
                if arg is not None:
                    self.sites.append(
                        _site("star-signature", star + arg.arg, node, node.name)
                    )
            body_hot = hot + (node.name,)
        defs = defs + (len(self.defs),)
        self.defs.append(([], []))
        self.scopes.append([])
        return (body_hot, defs, len(self.scopes) - 1, None), (hot, defs, -1, None)

    def _call(self, node: ast.Call, context: _Context) -> None:
        hot, defs, scope, anchor = context
        func = node.func
        path = dotted_path(func)
        kind = taint_kind_of_call(path)
        if kind == "wallclock":
            self.sites.append(_site("wallclock", path, node))
        elif kind == "rng":
            global_rng = path.startswith("random.")
            self.sites.append(_site("rng" if global_rng else "numpy-rng", path, node))
        callee = _terminal_name(func) or ""
        for keyword in node.keywords:
            if keyword.arg is None or not is_ns_name(keyword.arg):
                continue
            _ns_flow_sites(
                self.summary, keyword.value, keyword.arg, f"kwarg:{callee}",
                keyword.value,
            )
            source = _terminal_name(keyword.value)
            suffix = _unit_suffix(source)
            if suffix:
                self.sites.append(
                    _site(
                        "unit-mismatch",
                        f"{source} (unit suffix {suffix!r})",
                        keyword.value,
                        keyword.arg,
                    )
                )
        for fn in hot:
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    self.sites.append(_site("star-call", "", arg, fn))
            for keyword in node.keywords:
                if keyword.arg is None:
                    self.sites.append(_site("double-star-call", "", keyword.value, fn))
        if isinstance(func, ast.Name):
            if func.id == "open":
                bad = sorted(m for m in _open_modes(node) if "w" in m or "x" in m)
                if bad:
                    self.sites.append(_site("truncating-open", bad[0], node))
            elif scope >= 0 and func.id in _ITERATING_CALLS and node.args:
                self._iterates(scope, anchor, node, node.args[0])
        elif isinstance(func, ast.Attribute):
            if func.attr in _PATH_WRITERS:
                self.sites.append(_site("path-write", func.attr, node))
            elif func.attr == "popitem" and not node.args and not node.keywords:
                self.popitems.append(_site("popitem", "", node))
        if defs:
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _REGISTRY_MUTATORS
                and _terminal_name(func.value) in _REGISTRY_NAMES
            ):
                mutated = f"{_terminal_name(func.value)}.{func.attr}"
                self._registry_event(defs, node, "mutate", mutated)
            elif callee in _FALLIBLE:
                self._registry_event(defs, node, "call", callee)

    def _handler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.sites.append(_site("bare-except", "", node))
            return
        caught = _caught_names(node.type) & _REPRO_ERRORS
        if caught and _handler_does_nothing(node.body):
            self.sites.append(_site("swallowed-error", ", ".join(sorted(caught)), node))

    # -- det-unordered-iter ----------------------------------------------

    def _bind(self, scope: int, node: ast.Assign) -> None:
        names = tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        if names:
            # Keyed by its end: ``s = list(s)`` reads ``s`` before rebinding it.
            position = (node.end_lineno or node.lineno, node.end_col_offset or 0)
            shape = _set_shape(node.value)
            self.scopes[scope].append((position, 0, names, shape, node))

    def _iterates(
        self,
        scope: int,
        anchor: Optional[Tuple[int, int]],
        node: Union[ast.stmt, ast.expr],
        iterated: ast.expr,
    ) -> None:
        shape = _set_shape(iterated)
        if shape[0] or shape[1]:
            position = anchor or (node.lineno, node.col_offset)
            self.scopes[scope].append((position, 1, (), shape, node))

    def _set_iteration_sites(self) -> None:
        """Replay each scope's bindings and iterations in source order.

        At one position a binding comes first.  A class body's scope
        comes after the scope around it (scopes are numbered as the walk
        meets them), which hands it the set names bound at the class.
        """
        inherited: Dict[int, Set[str]] = {}
        for index, events in enumerate(self.scopes):
            set_names = inherited.pop(index, set())
            for _, rank, names, shape, node in sorted(events, key=itemgetter(0, 1)):
                if rank == 0:
                    for name in names:
                        if _is_set(shape, set_names):
                            set_names.add(name)
                        else:
                            set_names.discard(name)
                elif rank == 2:
                    inherited[node] = set(set_names)
                elif _is_set(shape, set_names):
                    self.sites.append(_site("set-iteration", "", node))

    # -- err-registry-rollback -------------------------------------------

    def _registry_target(
        self, defs: Tuple[int, ...], node: ast.stmt, targets: List[ast.expr]
    ) -> None:
        for target in targets:
            inner = target.value if isinstance(target, ast.Subscript) else target
            if isinstance(inner, ast.Attribute) and inner.attr in _REGISTRY_NAMES:
                self._registry_event(defs, node, "mutate", inner.attr)
                return

    def _registry_event(
        self, defs: Tuple[int, ...], node: ast.AST, kind: str, name: str
    ) -> None:
        event = (node.lineno, kind, name, node)  # type: ignore[attr-defined]
        for index in defs:
            self.defs[index][0].append(event)

    def _rollback_span(self, defs: Tuple[int, ...], node: ast.Try) -> None:
        reraises = any(
            isinstance(child, ast.Raise)
            for handler in node.handlers
            for child in ast.walk(handler)
        )
        if reraises:
            last = node.body[-1]
            span = (node.body[0].lineno, last.end_lineno or last.lineno)
            for index in defs:
                self.defs[index][1].append(span)

    def _rollback_sites(self) -> None:
        flagged: List[Tuple[ast.AST, str, str]] = []
        for events, protected in self.defs:
            pending: Optional[Tuple[int, str]] = None
            for line, kind, name, node in sorted(events, key=itemgetter(0)):
                if any(start <= line <= end for start, end in protected):
                    continue
                if kind == "mutate":
                    pending = pending or (line, name)
                elif pending is not None:
                    mutation = f"{pending[1]} mutation at line {pending[0]}"
                    flagged.append((node, name, mutation))
        # Defs come outermost first, so a call's last report is its
        # innermost def's.
        last = {id(node): index for index, (node, _, _) in enumerate(flagged)}
        for index, (node, name, mutation) in enumerate(flagged):
            if last[id(node)] == index:
                self.sites.append(_site("unprotected-call", name, node, mutation))


#: Whether an expression is a set: always, or when one of these names
#: is bound to a set.
_SetShape = Tuple[bool, Tuple[str, ...]]


def _set_shape(node: ast.expr) -> _SetShape:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True, ()
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("set", "frozenset"), ()
    if isinstance(node, ast.Name):
        return False, (node.id,)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        left, right = _set_shape(node.left), _set_shape(node.right)
        return left[0] or right[0], left[1] + right[1]
    return False, ()


def _is_set(shape: _SetShape, set_names: Set[str]) -> bool:
    always, names = shape
    return always or any(name in set_names for name in names)


def _caught_names(node: ast.expr) -> Set[str]:
    """Every name and attribute an ``except`` clause's type mentions."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _handler_does_nothing(body: List[ast.stmt]) -> bool:
    """True when the handler neither records, raises, nor compensates."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring / ellipsis
        return False
    return True


def _open_modes(call: ast.Call) -> Set[str]:
    """Every string constant the call's mode argument could evaluate to.

    Covers a literal mode and conditional expressions over literals
    (``"a" if resume else "w"``); a fully dynamic mode yields nothing —
    the rule only flags what it can prove.
    """
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return set()
    return {
        child.value
        for child in ast.walk(mode)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _assign_sites(summary: ModuleSummary, node: ast.stmt) -> None:
    declared = None
    if isinstance(node, ast.AnnAssign):
        declared = annotation_category(node.annotation)
        if declared == FLOAT_DECLARED:
            name = _terminal_name(node.target)
            if is_ns_name(name):
                summary.float_names.append(name)  # type: ignore[arg-type]
            return
    value = node.value  # type: ignore[attr-defined]
    if value is None:
        return
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
    via = "annotated" if declared == INT_DECLARED else "assign"
    for target in targets:
        name = _ns_target_name(target)
        if name:
            _ns_flow_sites(summary, value, name, via, node)


def _ns_flow_sites(
    summary: ModuleSummary, value: ast.expr, name: str, via: str, anchor: ast.AST
) -> None:
    """The float evidence ``value`` carries into the ``*_ns`` ``name``."""
    if _is_float_expr(value):
        summary.sites.append(_site("float-ns", name, anchor, via))
    if _has_lossy_int_div(value):
        summary.sites.append(_site("lossy-div-ns", name, anchor, via))
    if _contains_truediv(value):
        summary.sites.append(_site("truediv-ns", name, anchor, via))


def _import_sites(summary: ModuleSummary, node: ast.stmt) -> None:
    line, col = node.lineno, node.col_offset
    end = node.end_lineno or line
    if isinstance(node, ast.Import):
        for alias in node.names:
            summary.import_sites.append(ImportSite(alias.name, [], line, col, end))
            if alias.asname:
                summary.imports[alias.asname] = alias.name
            else:
                # ``import a.b.c`` binds ``a``; dotted references
                # resolve through the untranslated path.
                head = alias.name.split(".")[0]
                summary.imports[head] = head
        return
    assert isinstance(node, ast.ImportFrom)
    base = _import_base(node, summary.module, summary.is_package)
    names = [alias.name for alias in node.names]
    summary.import_sites.append(ImportSite(base, names, line, col, end))
    for alias in node.names:
        if alias.name != "*":
            summary.imports[alias.asname or alias.name] = (
                f"{base}.{alias.name}" if base else alias.name
            )
    if node.module == "time":
        bad = sorted(name for name in names if name in WALLCLOCK_NAMES)
        if bad:
            summary.sites.append(_site("wallclock-import", ", ".join(bad), node))
    elif node.module == "random":
        bad = sorted(name for name in names if name not in SEEDED_CONSTRUCTORS)
        if bad:
            summary.sites.append(_site("rng-import", ", ".join(bad), node))


def _import_base(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The module a ``from ... import`` reads, relative levels resolved.

    A relative import resolves against the containing package: the
    module's own package for an ``__init__``, its parent otherwise.
    """
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    drop = node.level - 1 if is_package else node.level
    prefix = ".".join(parts[: len(parts) - drop] if drop else parts)
    return f"{prefix}.{node.module}" if node.module else prefix


def _type_checking_only(test: ast.expr) -> bool:
    """Whether ``test`` holds only under a type checker: it is
    ``TYPE_CHECKING`` itself, or an ``and`` with it as one operand.
    (``not TYPE_CHECKING`` and ``TYPE_CHECKING or ...`` hold at run
    time, so their bodies import for real.)"""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_type_checking_only(value) for value in test.values)
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _float_ns(name: Optional[str], annotation: Optional[ast.expr]) -> bool:
    return is_ns_name(name) and annotation_category(annotation) == FLOAT_DECLARED


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unit_suffix(name: Optional[str]) -> Optional[str]:
    """The non-nanosecond unit suffix ``name`` ends in, if any."""
    if name is None or is_ns_name(name):
        return None
    lowered = name.lower()
    return next((s for s in OTHER_UNIT_SUFFIXES if lowered.endswith(s)), None)


def _contains_truediv(node: ast.expr) -> bool:
    """True division anywhere in the expression, outside int casts."""
    if _is_int_cast(node):
        return False
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _contains_truediv(node.left) or _contains_truediv(node.right)
    if isinstance(node, ast.UnaryOp):
        return _contains_truediv(node.operand)
    if isinstance(node, ast.IfExp):
        return _contains_truediv(node.body) or _contains_truediv(node.orelse)
    return False


def _is_float_expr(node: ast.expr) -> bool:
    """Expression that is statically a float (literal-driven, shallow)."""
    if _is_int_cast(node):
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return _terminal_name(node.func) == "float"
    if isinstance(node, ast.UnaryOp):
        return _is_float_expr(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return False  # a truediv-ns site
        return _is_float_expr(node.left) or _is_float_expr(node.right)
    if isinstance(node, ast.IfExp):
        return _is_float_expr(node.body) or _is_float_expr(node.orelse)
    return False


def _contains_mult(node: ast.expr) -> bool:
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Mult):
            return True
        return _contains_mult(node.left) or _contains_mult(node.right)
    if isinstance(node, ast.UnaryOp):
        return _contains_mult(node.operand)
    return False


def _has_lossy_int_div(value: ast.expr) -> bool:
    """An int cast whose body true-divides a *product* anywhere in ``value``.

    The shape ``int(a * b / c)`` computes the product exactly but then
    divides it in float space, where a 64-bit float has already dropped
    low-order bits of any product above 2**53 — the ``int()`` just
    freezes the damage.  ``int(a / b)`` with no product on the left is
    left alone: that is the idiomatic exact-enough rate inversion
    (``int(1e9 / rate)``), and flagging it would make the cast exemption
    of ``time-truediv-ns`` meaningless.
    """
    for node in ast.walk(value):
        if not _is_int_cast(node):
            continue
        for inner in ast.walk(node.args[0] if node.args else node):  # type: ignore[attr-defined]
            if (
                isinstance(inner, ast.BinOp)
                and isinstance(inner.op, ast.Div)
                and _contains_mult(inner.left)
            ):
                return True
    return False


def _add_class(
    summary: ModuleSummary, node: ast.ClassDef, suppressions: Dict[int, Set[str]]
) -> None:
    info = ClassInfo(name=node.name, line=node.lineno)
    for base in node.bases:
        ref = dotted_path(base)
        if ref:
            info.bases.append(ref)
    # Shape first (methods, attribute types), then bodies: method
    # extraction types ``self.attr`` receivers through ``attr_types``,
    # so the class must be registered before any body is walked.
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods.append(statement.name)
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            ref = _annotation_ref(statement.annotation)
            if ref:
                info.attr_types[statement.target.id] = ref
    init = next(
        (
            s
            for s in node.body
            if isinstance(s, ast.FunctionDef) and s.name == "__init__"
        ),
        None,
    )
    if init is not None:
        _collect_init_attr_types(init, info)
    summary.classes[node.name] = info
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(
                summary, statement, cls=node.name, suppressions=suppressions
            )


def _collect_init_attr_types(init: ast.FunctionDef, info: ClassInfo) -> None:
    param_types: Dict[str, str] = {}
    args = list(init.args.posonlyargs) + list(init.args.args) + list(
        init.args.kwonlyargs
    )
    for arg in args:
        ref = _annotation_ref(arg.annotation)
        if ref:
            param_types[arg.arg] = ref
    for statement in _iter_statements(init.body):
        if not isinstance(statement, ast.Assign):
            continue
        for target in statement.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                ref = _value_type_ref(statement.value, param_types)
                if ref and target.attr not in info.attr_types:
                    info.attr_types[target.attr] = ref


def _value_type_ref(value: ast.expr, param_types: Dict[str, str]) -> Optional[str]:
    """Type reference of an ``__init__`` assignment RHS, if inferable."""
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.Call):
        ref = dotted_path(value.func)
        if ref and ref.split(".")[-1][:1].isupper():
            return ref
        return None
    if isinstance(value, ast.IfExp):
        # ``x if x is not None else Default()`` — either branch works;
        # prefer the constructor (it names the concrete class).
        return _value_type_ref(value.orelse, param_types) or _value_type_ref(
            value.body, param_types
        )
    return None


def _annotation_ref(annotation: Optional[ast.expr]) -> Optional[str]:
    """Extract the first class-like reference from an annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            candidate = node.value.strip()
            if candidate and candidate not in _TYPING_NAMES:
                return candidate
        ref: Optional[str] = None
        if isinstance(node, ast.Attribute):
            ref = dotted_path(node)
        elif isinstance(node, ast.Name):
            ref = node.id
        if ref and ref.split(".")[-1] not in _TYPING_NAMES:
            return ref
    return None


# ----------------------------------------------------------------------
# Function-body extraction
# ----------------------------------------------------------------------


def _suite_exits(suite: List[ast.stmt]) -> bool:
    """True when control cannot fall off the end of ``suite``."""
    return isinstance(suite[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break))


def _iter_with_exits(
    body: List[ast.stmt], exits: bool
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Source-ordered statement walk tagging early-exit blocks.

    Nested ``def``/``class`` bodies are not entered.  ``exits`` is True
    for statements in a suite that terminates with raise/return/
    continue/break (and everything it dominates) and for exception
    handlers — paths that never rejoin the enclosing fall-through flow.
    """
    for statement in body:
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield statement, exits
        for field_name, value in ast.iter_fields(statement):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield from _iter_with_exits(value, exits or _suite_exits(value))
            elif field_name == "handlers" and isinstance(value, list):
                for handler in value:
                    if isinstance(handler, ast.ExceptHandler):
                        yield from _iter_with_exits(handler.body, True)


def _iter_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Source-ordered statement walk that does not enter nested defs."""
    for statement, _ in _iter_with_exits(body, False):
        yield statement


def _walk_expr(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression without descending into lambda bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Lambda):
            yield current
            continue
        yield current
        stack.extend(reversed(list(ast.iter_child_nodes(current))))


class _FunctionExtractor:
    """Single-function extraction: call sites, sources, local dataflow."""

    def __init__(
        self,
        summary: ModuleSummary,
        node: ast.FunctionDef,
        cls: str,
        suppressions: Dict[int, Set[str]],
    ) -> None:
        self.summary = summary
        self.node = node
        self.cls = cls
        self.suppressions = suppressions
        qual = f"{cls}.{node.name}" if cls else node.name
        self.fn = FunctionSummary(
            name=qual,
            cls=cls,
            line=node.lineno,
            end_line=node.end_lineno or node.lineno,
            hot=has_marker(node, "hotpath"),
            cold=has_marker(node, "coldpath"),
            ret_ann=_return_category(node),
        )
        #: call AST node id -> call index (for token collection).
        self._call_ids: Dict[int, int] = {}
        #: source AST node id -> source index.
        self._source_ids: Dict[int, int] = {}
        self._local_types: Dict[str, str] = {}
        self._order = 0

    # -- pass 1: enumerate calls, sources, allocations, protocol ops ----

    def extract(self) -> FunctionSummary:
        self._collect_param_types()
        tagged = list(_iter_with_exits(self.node.body, False))
        for statement, exits in tagged:
            self._order += 1
            order = self._order
            in_raise = isinstance(statement, ast.Raise)
            for expr in self._statement_exprs(statement):
                for sub in _walk_expr(expr):
                    if isinstance(sub, ast.Call):
                        self._record_call(sub, order, in_raise, exits)
                    self._record_alloc(sub, in_raise)
                    self._record_attr_source(sub)
            self._record_local_type(statement)
            self._record_mutation(statement, order, exits)
        self._local_dataflow([s for s, _ in tagged])
        return self.fn

    def _statement_exprs(self, statement: ast.stmt) -> Iterator[ast.expr]:
        """Expressions owned directly by ``statement`` (not sub-stmts)."""
        for field_name, value in ast.iter_fields(statement):
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item

    def _collect_param_types(self) -> None:
        args = list(self.node.args.posonlyargs) + list(self.node.args.args) + list(
            self.node.args.kwonlyargs
        )
        for arg in args:
            ref = _annotation_ref(arg.annotation)
            if ref:
                self._local_types[arg.arg] = ref

    def _record_call(
        self, node: ast.Call, order: int, in_raise: bool, exits: bool
    ) -> None:
        func = node.func
        path = dotted_path(func)
        # Taint source?
        kind = taint_kind_of_call(path) if path else None
        if kind is not None:
            index = len(self.fn.sources)
            self.fn.sources.append(
                TaintSource(
                    kind=kind,
                    what=path,
                    line=node.lineno,
                    col=node.col_offset,
                    suppressed=self._source_suppressed(node, kind),
                )
            )
            self._source_ids[id(node)] = index
            return
        site = self._call_site_for(node, func, path, order, in_raise, exits)
        if site is not None:
            self._call_ids[id(node)] = site.index
            self.fn.calls.append(site)
            self._record_journal_op(path, order, node)
            self._record_crashpoint(node, path, order, exits)
        # functools.partial targets become deferred call edges.
        if path.split(".")[-1] == "partial" and node.args:
            target = node.args[0]
            tpath = dotted_path(target)
            if tpath:
                index = len(self.fn.calls)
                self.fn.calls.append(
                    CallSite(
                        index=index,
                        kind="partial",
                        target=tpath,
                        recv_type=self._receiver_type(target),
                        line=node.lineno,
                        col=node.col_offset,
                        order=order,
                        in_raise=in_raise,
                        exits=exits,
                    )
                )

    def _call_site_for(
        self,
        node: ast.Call,
        func: ast.expr,
        path: str,
        order: int,
        in_raise: bool,
        exits: bool,
    ) -> Optional[CallSite]:
        index = len(self.fn.calls)
        base = dict(
            index=index,
            line=node.lineno,
            col=node.col_offset,
            order=order,
            in_raise=in_raise,
            exits=exits,
            returns_float_builtin=bool(
                path and matches_suffix(path, WALLCLOCK_FLOAT_SUFFIXES)
            ),
        )
        if isinstance(func, ast.Name):
            return CallSite(kind="name", target=func.id, recv_type="", **base)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name) and recv.id == "self":
                return CallSite(
                    kind="self", target=func.attr, recv_type=self.cls, **base
                )
            recv_type = self._receiver_type(func)
            if recv_type:
                return CallSite(
                    kind="attr", target=func.attr, recv_type=recv_type, **base
                )
            if path:
                return CallSite(kind="dotted", target=path, recv_type="", **base)
            return CallSite(kind="attr", target=func.attr, recv_type="", **base)
        return None

    def _receiver_type(self, func: ast.expr) -> str:
        """Declared type of the receiver of ``recv.m`` (or '' unknown)."""
        if not isinstance(func, ast.Attribute):
            return ""
        recv = func.value
        if isinstance(recv, ast.Name):
            return self._local_types.get(recv.id, "")
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and self.cls
        ):
            info = self.summary.classes.get(self.cls)
            if info is not None:
                return info.attr_types.get(recv.attr, "")
        return ""

    def _record_local_type(self, statement: ast.stmt) -> None:
        """Track local-variable types from annotations and simple binds."""
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            ref = _annotation_ref(statement.annotation)
            if ref:
                self._local_types[statement.target.id] = ref
            return
        if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
            return
        target = statement.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = statement.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.cls
        ):
            info = self.summary.classes.get(self.cls)
            if info is not None:
                ref = info.attr_types.get(value.attr)
                if ref:
                    self._local_types[target.id] = ref
                    return
        if isinstance(value, ast.Call):
            ref = dotted_path(value.func)
            if ref and ref.split(".")[-1][:1].isupper():
                self._local_types[target.id] = ref

    def _record_alloc(self, node: ast.AST, in_raise: bool) -> None:
        kind = detail = ""
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            kind, detail = "comprehension", type(node).__name__
        elif isinstance(node, ast.Lambda):
            kind, detail = "closure", "lambda"
        elif isinstance(node, ast.JoinedStr):
            kind, detail = "fstring", "f-string"
        elif isinstance(node, ast.Starred):
            kind, detail = "star-args", "*-unpacking"
        if kind:
            self.fn.allocs.append(
                AllocSite(
                    kind=kind,
                    detail=detail,
                    line=node.lineno,  # type: ignore[attr-defined]
                    col=node.col_offset,  # type: ignore[attr-defined]
                    in_raise=in_raise,
                )
            )

    def _record_attr_source(self, node: ast.AST) -> None:
        """Bare attribute taint reads (``os.environ[...]``)."""
        if not isinstance(node, ast.Attribute):
            return
        path = dotted_path(node)
        kind = taint_kind_of_attr(path)
        if kind is None:
            return
        self.fn.sources.append(
            TaintSource(
                kind=kind,
                what=path,
                line=node.lineno,
                col=node.col_offset,
                suppressed=self._source_suppressed(node, kind),
            )
        )
        self._source_ids[id(node)] = len(self.fn.sources) - 1

    def _source_suppressed(self, node: ast.AST, kind: str) -> bool:
        line = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", line) or line
        rule_ids = (_DET_RULE[kind], f"flow-taint-{kind}")
        return allow_line(self.suppressions, rule_ids, line, end) is not None

    def _record_journal_op(self, path: str, order: int, node: ast.Call) -> None:
        terminal = path.split(".")[-1] if path else ""
        if terminal in _JOURNAL_WAL_METHODS:
            self.fn.journal_ops.append(
                JournalOp(kind="wal", line=node.lineno, order=order)
            )
        elif terminal in _JOURNAL_MARKER_METHODS:
            self.fn.journal_ops.append(
                JournalOp(kind="marker", line=node.lineno, order=order)
            )

    def _record_crashpoint(
        self, node: ast.Call, path: str, order: int, exits: bool
    ) -> None:
        if path.split(".")[-1] != "crashpoint":
            return
        name = ""
        if node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            else:
                name = dotted_path(arg) or ""
        self.fn.crashpoints.append(
            CrashSite(name=name, line=node.lineno, order=order, exits=exits)
        )

    def _record_mutation(
        self, statement: ast.stmt, order: int, exits: bool
    ) -> None:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            targets = [statement.target]
        elif isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Call
        ):
            func = statement.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                attr = _self_attr_of(func.value)
                if attr is not None:
                    self.fn.mutations.append(
                        MutationSite(
                            attr=attr,
                            line=statement.lineno,
                            order=order,
                            exits=exits,
                        )
                    )
            return
        for target in targets:
            attr = _self_attr_of(target)
            if attr is not None:
                self.fn.mutations.append(
                    MutationSite(
                        attr=attr, line=statement.lineno, order=order, exits=exits
                    )
                )

    # -- pass 2: local token dataflow ----------------------------------

    def _local_dataflow(self, statements: List[ast.stmt]) -> None:
        taint: Dict[str, Set[Tuple[str, int]]] = {}
        floaty: Dict[str, Set[Tuple[str, int]]] = {}
        # Fixpoint over the (flow-insensitive) assignment relation;
        # token sets only grow, so this terminates quickly.
        for _ in range(8):
            changed = False
            for statement in statements:
                changed |= self._flow_statement(statement, taint, floaty)
            if not changed:
                break
        for statement in statements:
            self._collect_returns(statement, taint, floaty)
            self._collect_ns_sinks(statement, floaty)

    def _expr_tokens(
        self,
        expr: ast.expr,
        env: Dict[str, Set[Tuple[str, int]]],
        float_mode: bool,
    ) -> Set[Tuple[str, int]]:
        tokens: Set[Tuple[str, int]] = set()
        if float_mode and _is_int_cast(expr):
            # An explicit integer cast launders float-ness (but a taint
            # walk never takes this branch: int(time.time()) is still
            # nondeterministic).
            return tokens
        if isinstance(expr, ast.Call):
            source = self._source_ids.get(id(expr))
            if source is not None and not float_mode:
                tokens.add(("src", source))
            call = self._call_ids.get(id(expr))
            if call is not None:
                tokens.add(("call", call))
            if float_mode:
                source = self._source_ids.get(id(expr))
                if source is not None and self.fn.sources[source].kind == "wallclock":
                    what = self.fn.sources[source].what
                    if matches_suffix(what, WALLCLOCK_FLOAT_SUFFIXES):
                        tokens.add(("floatlit", self.fn.sources[source].line))
            for child in list(expr.args) + [kw.value for kw in expr.keywords]:
                tokens |= self._expr_tokens(child, env, float_mode)
            # Attribute sources live in the receiver chain of method
            # calls (``os.environ.get(...)``); args alone miss them.
            if isinstance(expr.func, ast.Attribute):
                tokens |= self._expr_tokens(expr.func.value, env, float_mode)
            return tokens
        if isinstance(expr, ast.Attribute):
            source = self._source_ids.get(id(expr))
            if source is not None and not float_mode:
                tokens.add(("src", source))
            tokens |= self._expr_tokens(expr.value, env, float_mode)
            return tokens
        if isinstance(expr, ast.Name):
            tokens |= env.get(expr.id, set())
            return tokens
        if float_mode:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
                tokens.add(("floatlit", getattr(expr, "lineno", 0)))
                return tokens
            if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
                tokens.add(("truediv", getattr(expr, "lineno", 0)))
                tokens |= self._expr_tokens(expr.left, env, float_mode)
                tokens |= self._expr_tokens(expr.right, env, float_mode)
                return tokens
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.expr):
                tokens |= self._expr_tokens(child, env, float_mode)
            elif isinstance(child, ast.comprehension):
                tokens |= self._expr_tokens(child.iter, env, float_mode)
        return tokens

    def _flow_statement(
        self,
        statement: ast.stmt,
        taint: Dict[str, Set[Tuple[str, int]]],
        floaty: Dict[str, Set[Tuple[str, int]]],
    ) -> bool:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            value = statement.value
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            value = statement.value
            targets = [statement.target]
        if value is None:
            return False
        names: List[str] = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.extend(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
        if not names:
            return False
        changed = False
        t_tokens = self._expr_tokens(value, taint, float_mode=False)
        f_tokens = self._expr_tokens(value, floaty, float_mode=True)
        for name in names:
            before = len(taint.get(name, ())) + len(floaty.get(name, ()))
            taint.setdefault(name, set()).update(t_tokens)
            floaty.setdefault(name, set()).update(f_tokens)
            after = len(taint[name]) + len(floaty[name])
            changed |= after != before
        return changed

    def _collect_returns(
        self,
        statement: ast.stmt,
        taint: Dict[str, Set[Tuple[str, int]]],
        floaty: Dict[str, Set[Tuple[str, int]]],
    ) -> None:
        if not isinstance(statement, ast.Return) or statement.value is None:
            return
        for kind, index in sorted(
            self._expr_tokens(statement.value, taint, float_mode=False)
        ):
            if kind == "src" and index not in self.fn.returns_sources:
                self.fn.returns_sources.append(index)
            elif kind == "call" and index not in self.fn.returns_calls:
                self.fn.returns_calls.append(index)
        for kind, index in sorted(
            self._expr_tokens(statement.value, floaty, float_mode=True)
        ):
            if kind in ("floatlit", "truediv") and not self.fn.returns_float_direct:
                self.fn.returns_float_direct = True
                self.fn.returns_float_line = index or statement.lineno
            elif kind == "call" and index not in self.fn.returns_calls_float:
                self.fn.returns_calls_float.append(index)

    def _collect_ns_sinks(
        self,
        statement: ast.stmt,
        floaty: Dict[str, Set[Tuple[str, int]]],
    ) -> None:
        # Assignments to *_ns names.
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            value = statement.value
            targets = list(statement.targets)
        elif isinstance(statement, ast.AugAssign):
            value = statement.value
            targets = [statement.target]
        elif isinstance(statement, ast.AnnAssign):
            if annotation_category(statement.annotation) == FLOAT_DECLARED:
                value = None
            else:
                value = statement.value
            targets = [statement.target]
        if value is not None:
            ns_names = [n for n in map(_ns_target_name, targets) if n]
            if ns_names:
                tokens = self._expr_tokens(value, floaty, float_mode=True)
                for kind, index in sorted(tokens):
                    if kind != "call":
                        continue
                    for name in ns_names:
                        self.fn.ns_sinks.append(
                            NsSink(
                                call_index=index,
                                ns_name=name,
                                line=statement.lineno,
                                col=statement.col_offset,
                                via="assign",
                            )
                        )
        # Keyword arguments foo_ns=<call-derived expression>.
        for expr in self._statement_exprs(statement):
            for sub in _walk_expr(expr):
                if not isinstance(sub, ast.Call):
                    continue
                callee_name = _terminal_name(sub.func) or ""
                for keyword in sub.keywords:
                    if keyword.arg is None or not is_ns_name(keyword.arg):
                        continue
                    tokens = self._expr_tokens(
                        keyword.value, floaty, float_mode=True
                    )
                    for kind, index in sorted(tokens):
                        if kind == "call":
                            self.fn.ns_sinks.append(
                                NsSink(
                                    call_index=index,
                                    ns_name=keyword.arg,
                                    line=keyword.value.lineno,
                                    col=keyword.value.col_offset,
                                    via=f"kwarg:{callee_name}",
                                )
                            )


def _add_function(
    summary: ModuleSummary,
    node: ast.FunctionDef,
    cls: str,
    suppressions: Dict[int, Set[str]],
) -> None:
    extractor = _FunctionExtractor(summary, node, cls, suppressions)
    fn = extractor.extract()
    summary.functions[fn.name] = fn


def _return_category(node: ast.FunctionDef) -> str:
    return annotation_category(node.returns) or ""


def _is_int_cast(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _terminal_name(node.func) in _INT_CASTS


def _ns_target_name(target: ast.expr) -> str:
    """Assignment-target name when it is a ``*_ns`` identifier ('' if not)."""
    name = _terminal_name(target)
    return name if is_ns_name(name) else ""  # type: ignore[return-value]


def _self_attr_of(target: ast.expr) -> Optional[str]:
    """``self.attr`` (or a deeper path rooted at it) as an attr name."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    while isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr
        node = node.value
        if isinstance(node, ast.Subscript):
            node = node.value
    return None
