"""Determinism AST rule (``det-unordered-iter``).

The reproduction's headline property is bit-identical same-seed traces
(fingerprint ``eb99ea934a2278f6``).  Everything that can silently break
that — global RNG state, wall-clock reads, hash-order iteration, and
environment-dependent branches — is banned from the packages that feed
scheduling decisions: ``repro.sim``, ``repro.schedulers``,
``repro.core``, ``repro.faults``, and ``repro.service`` (whose report
is byte-compared across runs in CI).  The lint engine answers the
first three from module summaries (``det-unseeded-rng``,
``det-wallclock``, ``det-env-branch``); hash-order iteration tracks
local set bindings per scope, which a summary does not record, so it
stays an AST rule here.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.patterns import DETERMINISM_SCOPE
from repro.lint.registry import Rule, register


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Pre-order walk of one scope, not descending into nested defs."""
    stack: List[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


@register
class UnorderedIterationRule(Rule):
    id = "det-unordered-iter"
    family = "determinism"
    description = (
        "Iterating a set (hash order, varies with PYTHONHASHSEED) or "
        "popping dict items positionally must not feed scheduling "
        "decisions; iterate sorted(...) or keep a list."
    )
    scope = DETERMINISM_SCOPE

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        # Scopes are checked independently so local set bindings do not
        # leak across functions.
        yield from self._check_scope(ctx, ctx.tree.body, set())
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node.body, set())
            elif isinstance(node, ast.Call):
                # dict.popitem() pops in unspecified-intent order; the
                # ordered variants pass an explicit argument.
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popitem"
                    and not node.args
                    and not node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "bare dict.popitem() feeding scheduling state; pop an "
                        "explicit key (or OrderedDict.popitem(last=False))",
                    )

    # ------------------------------------------------------------------

    def _check_scope(
        self, ctx: ModuleContext, body: List[ast.stmt], set_names: Set[str]
    ) -> Iterator[Finding]:
        """Walk one function (or module) body tracking local set bindings."""
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if self._is_set_expr(node.value, set_names):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
            iterated = self._iterated_expr(node)
            if iterated is not None and self._is_set_expr(iterated, set_names):
                yield self.finding(
                    ctx,
                    node,
                    "iteration over a set has hash-dependent order; wrap "
                    "in sorted(...) or use an ordered container",
                )

    @staticmethod
    def _iterated_expr(node: ast.AST) -> Optional[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return node.iter
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return node.generators[0].iter
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            # Converting a set to an ordered container preserves hash
            # order; sorted()/len()/min()/max()/sum() are order-safe.
            if node.func.id in ("list", "tuple", "iter", "enumerate") and node.args:
                return node.args[0]
        return None

    @staticmethod
    def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra (union/intersection/difference) stays a set.
            return UnorderedIterationRule._is_set_expr(
                node.left, set_names
            ) or UnorderedIterationRule._is_set_expr(node.right, set_names)
        return False
