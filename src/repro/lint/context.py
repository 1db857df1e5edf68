"""Per-module lint context: the module name and the allow-comments.

The driver parses each file once and names its module
(:func:`module_name_for`).  This module owns the suppression protocol
(:func:`allow_line`): a violation is silenced by a
``# repro: allow[rule-id]`` comment either trailing any line of the
offending statement or on a comment line directly above it.  Multiple
ids may be listed, comma-separated::

    table = {c: t for c in cores}  # repro: allow[hot-comprehension]

    # repro: allow[det-wallclock] -- wall time feeds stats, never the clock
    started = time.perf_counter()
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


def parse_suppressions(lines: List[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line.

    Line-based fallback: matches the allow pattern anywhere on a line,
    including inside string literals.  Prefer
    :func:`parse_suppression_comments`, which tokenizes and therefore
    cannot mistake a docstring that *mentions* the syntax for a real
    suppression (the stale-allow detector made that distinction
    matter).
    """
    allowed: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        _collect_allow(text, number, allowed)
    return allowed


def parse_suppression_comments(source: str) -> Dict[int, Set[str]]:
    """Suppression map from actual ``#`` comment tokens only."""
    allowed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                _collect_allow(token.string, token.start[0], allowed)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unfinished constructs etc. — fall back to the line scan so a
        # file the AST parser accepts never loses its suppressions.
        return parse_suppressions(source.splitlines())
    return allowed


def allow_line(
    suppressions: Dict[int, Set[str]],
    rule_ids: Iterable[str],
    first: int,
    last: int,
) -> Optional[int]:
    """The allow-comment line silencing any of ``rule_ids`` on a node.

    The one suppression protocol: a comment on the line directly above
    the node (``first - 1``) or trailing any physical line it spans
    (``first..last``).  ``None`` when no allow covers it.
    """
    if not suppressions:
        return None
    for line in range(first - 1, last + 1):
        ids = suppressions.get(line)
        if ids and any(rule_id in ids for rule_id in rule_ids):
            return line
    return None


def _collect_allow(text: str, number: int, allowed: Dict[int, Set[str]]) -> None:
    match = _ALLOW_RE.search(text)
    if match is None:
        return
    ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
    if ids:
        allowed[number] = ids


def module_name_for(path: str) -> str:
    """Infer the dotted module name from a file path.

    Looks for the right-most ``repro`` path component and joins from
    there (``.../src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    package ``__init__.py`` maps to the package itself).  Files outside
    a ``repro`` tree get an empty module name, which keeps package-
    scoped rules from firing on unrelated code such as test fixtures.
    """
    parts = path.replace("\\", "/").split("/")
    try:
        start = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return ""
    dotted = parts[start:]
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)

