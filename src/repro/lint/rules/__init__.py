"""The AST rules; importing this package registers every rule.

Most rules are answered by the lint engine from module summaries
(:mod:`repro.lint.flow.engine`, registered by
:mod:`repro.lint.flow.rules`).  The rules here are the ones a summary
does not express: ``err-*`` (:mod:`.error_handling`) and
``det-unordered-iter`` (:mod:`.determinism`).  They run on the tree the
extraction stage already parsed, and their findings are cached by
content hash with the summary.

To add an AST rule: subclass :class:`repro.lint.registry.Rule` in the
matching family module (or a new one), decorate it with ``@register``,
and import the module here.  Give it a kebab-case ``id`` — that id is
what ``# repro: allow[...]`` suppressions and reports use — and add a
known-good/known-bad fixture pair under ``tests/lint/fixtures/``.
"""

from repro.lint.flow import rules as flow_rules  # noqa: F401  (registration)
from repro.lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    error_handling,
)

__all__ = ["determinism", "error_handling", "flow_rules"]
