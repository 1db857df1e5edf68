"""Error-handling rules (``err-*``).

PR 2 made the control path transactional: a failed replan, push, or
lifecycle operation must leave the registry, the staged table, and the
daemon history exactly as they were.  These rules guard the discipline
that keeps it that way: no bare excepts, no silently swallowed
``ReproError``s, and no registry mutation that a later fallible call
could strand without a rollback handler.

The crash-consistency work extends the discipline to *durable state*:
``err-nonatomic-write`` forbids truncating writes to files in the
persistence-bearing packages — a crash mid-``open(..., "w")`` leaves a
torn file that recovery then trusts.  Durable writes go through
:func:`repro.core.atomicio.atomic_write_bytes` (temp + ``os.replace``);
append-mode opens are exempt because appending *is* their atomicity
story (the journal's CRC framing heals a torn tail).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: The repo's error hierarchy (repro.errors) plus the stdlib roots a
#: handler could hide it behind.
_REPRO_ERRORS = {
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "PlanningError",
    "AdmissionError",
    "TableFormatError",
    "TablePushError",
    "InvariantViolation",
    "Exception",
    "BaseException",
}

#: Receiver names that hold control-plane registries.
_REGISTRY_NAMES = {"registry", "_domains", "_staged", "_retired_tables"}

#: Mutating methods on a registry object.
_MUTATORS = {
    "add",
    "remove",
    "replace",
    "restore",
    "clear",
    "update",
    "pop",
    "popitem",
    "setdefault",
    "append",
}

#: Control-plane calls documented to raise ReproError subclasses.
_FALLIBLE = {
    "replan",
    "plan",
    "push_table",
    "push_system_table",
    "rotate_table",
    "create_vm",
    "destroy_vm",
    "reconfigure_vm",
}


@register
class BareExceptRule(Rule):
    id = "err-bare-except"
    family = "error-handling"
    description = (
        "bare `except:` catches KeyboardInterrupt/SystemExit and hides "
        "programming errors; name the exceptions."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: catches everything including "
                    "KeyboardInterrupt; name the exception types",
                )


@register
class SwallowedErrorRule(Rule):
    id = "err-swallowed-error"
    family = "error-handling"
    description = (
        "an except handler that catches a ReproError and does nothing "
        "hides control-plane failures from the audit trail."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _caught_names(node.type)
            if not (caught & _REPRO_ERRORS):
                continue
            if _handler_does_nothing(node.body):
                names = ", ".join(sorted(caught & _REPRO_ERRORS))
                yield self.finding(
                    ctx,
                    node,
                    f"handler swallows {names} without recording, "
                    "re-raising, or compensating; failures must stay "
                    "observable (log/append/raise)",
                )


def _caught_names(node: Optional[ast.expr]) -> Set[str]:
    if node is None:
        return set()
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
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring / ellipsis
        if isinstance(statement, (ast.Continue, ast.Break)):
            continue
        return False
    return True


@register
class RegistryRollbackRule(Rule):
    id = "err-registry-rollback"
    family = "error-handling"
    description = (
        "in repro.xen, a registry mutation followed by a fallible "
        "control-plane call needs a rollback handler (try/except that "
        "restores and re-raises)."
    )
    scope = ("repro.xen",)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: ModuleContext, function) -> Iterator[Finding]:
        protected = _protected_lines(function)
        events: List[Tuple[int, str, ast.AST, str]] = []
        for node in ast.walk(function):
            mutation = _registry_mutation(node)
            if mutation is not None:
                events.append((node.lineno, "mutate", node, mutation))
            fallible = _fallible_call(node)
            if fallible is not None:
                events.append((node.lineno, "call", node, fallible))
        events.sort(key=lambda item: item[0])
        pending: List[Tuple[int, str]] = []
        for line, kind, node, name in events:
            inside = any(start <= line <= end for start, end in protected)
            if kind == "mutate":
                if not inside:
                    pending.append((line, name))
            elif pending and not inside:
                mutated_line, mutated = pending[0]
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() may raise, but the {mutated} mutation at "
                    f"line {mutated_line} has no rollback handler; wrap "
                    "the fallible call in try/except that restores the "
                    "registry and re-raises",
                )


def _protected_lines(function) -> List[Tuple[int, int]]:
    """Line spans of try-bodies whose handlers re-raise (rollback shape)."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Try):
            continue
        reraises = any(
            any(isinstance(child, ast.Raise) for child in ast.walk(handler))
            for handler in node.handlers
        )
        if reraises and node.body:
            start = node.body[0].lineno
            end = node.body[-1].end_lineno or node.body[-1].lineno
            spans.append((start, end))
    return spans


def _registry_mutation(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        receiver = node.func.value
        name = (
            receiver.attr
            if isinstance(receiver, ast.Attribute)
            else receiver.id if isinstance(receiver, ast.Name) else None
        )
        if name in _REGISTRY_NAMES and node.func.attr in _MUTATORS:
            return f"{name}.{node.func.attr}"
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            inner = target.value if isinstance(target, ast.Subscript) else target
            if isinstance(inner, ast.Attribute) and inner.attr in _REGISTRY_NAMES:
                return inner.attr
    if isinstance(node, ast.Delete):
        for target in node.targets:
            inner = target.value if isinstance(target, ast.Subscript) else target
            if isinstance(inner, ast.Attribute) and inner.attr in _REGISTRY_NAMES:
                return inner.attr
    return None


def _fallible_call(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if name in _FALLIBLE:
            return name
    return None


#: ``Path`` convenience writers that truncate in place (no temp file,
#: no rename — a crash mid-call tears the destination).
_PATH_WRITERS = {"write_bytes", "write_text"}


@register
class NonatomicWriteRule(Rule):
    id = "err-nonatomic-write"
    family = "error-handling"
    description = (
        "in the persistence-bearing packages, truncating file writes "
        "(open mode 'w'/'x', Path.write_bytes/write_text) tear durable "
        "state when the process dies mid-write; use "
        "repro.core.atomicio.atomic_write_bytes/_text (temp file + "
        "atomic os.replace).  Append-mode opens are exempt."
    )
    scope = ("repro.service", "repro.campaign")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                modes = _open_modes(node)
                bad = sorted(m for m in modes if _truncating_mode(m))
                if bad:
                    yield self.finding(
                        ctx,
                        node,
                        f"open() with truncating mode {bad[0]!r} can tear "
                        "this file if the process dies mid-write; write "
                        "through repro.core.atomicio.atomic_write_bytes/"
                        "_text, or append (mode 'a') if this file is a "
                        "log/journal",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _PATH_WRITERS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}() truncates in place (torn file on "
                    "crash); write through repro.core.atomicio."
                    "atomic_write_bytes/_text",
                )


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


def _truncating_mode(mode: str) -> bool:
    return "w" in mode or "x" in mode
