"""Rule base class and the global rule registry.

A rule is a small object with a stable ``id``, a ``family``, and a
one-line ``description``.  Most rules are answered by the flow engine
from module summaries and register from its table
(:mod:`repro.lint.flow.rules`); the rest are AST rules with an optional
package ``scope`` and a ``check`` method yielding
:class:`~repro.lint.findings.Finding` objects for one parsed module,
registered at import time by the :func:`register` class decorator.
The driver iterates :func:`iter_rules` to select either kind.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.patterns import in_package


class Rule:
    """Base class for lint rules.

    Class attributes:
        id: Stable kebab-case identifier used in reports and in
            ``# repro: allow[...]`` suppression comments.
        family: Rule family (``determinism``, ``time-units``,
            ``hot-path``, ``error-handling``, ``layering``, ``flow``,
            ``lint``).
        description: One-line summary shown by ``lint --list-rules``.
        scope: Dotted package prefixes an AST rule applies to; empty
            means every linted module.
    """

    id: str = ""
    family: str = ""
    description: str = ""
    scope: tuple = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not self.scope or in_package(ctx.module, self.scope)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """AST rules override this; engine-answered rules yield nothing."""
        return ()

    # Convenience for subclasses -----------------------------------------

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            rule_id=self.id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            end_line=getattr(node, "end_lineno", line) or line,
        )


_REGISTRY: Dict[str, Rule] = {}


def add_rule(rule: Rule) -> Rule:
    """Add one rule instance to the registry."""
    if not rule.id:
        raise ValueError(f"rule {type(rule).__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the registry."""
    add_rule(cls())
    return cls


def iter_rules(only: Optional[Iterable[str]] = None) -> Iterator[Rule]:
    """All registered rules, or the subset named in ``only``."""
    _load_builtin_rules()
    if only is None:
        yield from (_REGISTRY[key] for key in sorted(_REGISTRY))
        return
    wanted = list(only)
    unknown = [rule_id for rule_id in wanted if rule_id not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    yield from (_REGISTRY[key] for key in sorted(wanted))


def rule_ids() -> List[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


_loaded = False


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (they register on import)."""
    global _loaded
    if not _loaded:
        _loaded = True
        import repro.lint.rules  # noqa: F401
