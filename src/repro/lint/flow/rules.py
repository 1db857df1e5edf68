"""Registry entries for every rule the lint engine answers.

The engine (:mod:`repro.lint.flow.engine`) computes the zero-hop and
whole-program findings from module summaries; registering its ids here,
from its one :data:`~repro.lint.flow.engine.RULES` table, is what lets
``--list-rules`` document them, ``--rules`` select them, and
``# repro: allow[...]`` comments suppress them like any AST rule.
"""

from __future__ import annotations

from repro.lint.flow.engine import FLOW_RULE_IDS, RULES
from repro.lint.registry import Rule, add_rule

__all__ = ["FLOW_RULE_IDS"]


class TableRule(Rule):
    """A rule registered from a table; it has no AST check of its own."""

    def __init__(self, rule_id: str, family: str, description: str) -> None:
        self.id = rule_id
        self.family = family
        self.description = description


for _rule_id, (_family, _description) in RULES.items():
    add_rule(TableRule(_rule_id, _family, _description))

#: Driver-synthesised: an allow-comment that silences nothing.
#: Staleness is a whole-run fact (an allow is live if *any* rule's
#: finding matched it), so the driver computes it after every other
#: rule ran, and only on full runs (a ``--rules`` subset would mark
#: everything else's suppressions stale).
add_rule(
    TableRule(
        "lint-stale-allow",
        "lint",
        "# repro: allow[...] comment no longer suppresses any finding "
        "(full runs only)",
    )
)
