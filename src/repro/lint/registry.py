"""The rule table: every rule id, its family and its description.

The engine answers every rule from module summaries and lists them in
its one :data:`~repro.lint.flow.engine.RULES` table; the driver adds
``lint-stale-allow``.  :func:`iter_rules` is what ``--list-rules``
documents, ``--rules`` selects from, and ``# repro: allow[...]``
comments name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.lint.flow.engine import RULES


@dataclass(frozen=True)
class Rule:
    """One rule's table entry.

    Attributes:
        id: Stable kebab-case identifier used in reports and in
            ``# repro: allow[...]`` suppression comments.
        family: Rule family (``determinism``, ``time-units``,
            ``hot-path``, ``error-handling``, ``layering``, ``flow``,
            ``lint``).
        description: One-line summary shown by ``lint --list-rules``.
    """

    id: str
    family: str
    description: str


_TABLE: Dict[str, Rule] = {
    rule_id: Rule(rule_id, family, description)
    for rule_id, (family, description) in RULES.items()
}
#: Driver-synthesised: an allow-comment that silences nothing.
#: Staleness is a whole-run fact (an allow is live if *any* rule's
#: finding matched it), so the driver computes it after every other
#: rule ran, and only on full runs (a ``--rules`` subset would mark
#: everything else's suppressions stale).
_TABLE["lint-stale-allow"] = Rule(
    "lint-stale-allow",
    "lint",
    "# repro: allow[...] comment no longer suppresses any finding "
    "(full runs only)",
)


def iter_rules(only: Optional[Iterable[str]] = None) -> Iterator[Rule]:
    """All rules, or the subset named in ``only``, sorted by id."""
    if only is None:
        yield from (_TABLE[key] for key in sorted(_TABLE))
        return
    wanted = list(only)
    unknown = [rule_id for rule_id in wanted if rule_id not in _TABLE]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    yield from (_TABLE[key] for key in sorted(wanted))


def rule_ids() -> List[str]:
    return sorted(_TABLE)
