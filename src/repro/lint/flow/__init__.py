"""repro.lint.flow — module summaries and the engine that queries them.

Every module is reduced to a serialisable
:class:`~repro.lint.flow.summary.ModuleSummary` (cached by content hash
— see :mod:`repro.lint.cache`), and every rule is answered from
summaries alone.  Zero-hop queries read one module's own sites:
wall-clock, RNG and environment reads and set iteration (``det-*``),
bare and swallowing handlers, unprotected registry mutations and
truncating writes (``err-*``), allocation inside ``@hotpath`` bodies
(``hot-*``), float and unit-suffixed values landing in ``*_ns`` names
(``time-*``), and imports against the layer diagram
(``lay-import``).  A value laundered
through a call — a wall-clock read returned by a helper, a float
reaching nanosecond arithmetic two frames up, an allocating function
*called from* ``@hotpath`` code, an effect the journal never covered —
is invisible to them, so four interprocedural passes run over a
project-wide call graph:

``flow-taint-*``
    Wall-clock, unseeded-RNG, and environment values tracked across
    call/return boundaries into the deterministic packages, reported as
    multi-hop source→sink traces.
``flow-unit-escape``
    Integer-nanosecond typing propagated through signatures and
    returns, so a float (or true division) entering ns arithmetic
    anywhere upstream is flagged at the point it lands in a ``*_ns``
    name.
``flow-hot-transitive``
    Every function reachable from a ``@hotpath`` root inherits the
    allocation discipline; ``@coldpath`` cuts traversal at deliberate
    slow paths.
``flow-unjournaled-effect`` / ``flow-effect-order``
    The WAL protocol of the crash-consistent control plane encoded as
    checkable rules over journal appends, crashpoints, and
    state mutations in ``repro.service``.

The pipeline: :mod:`.summary` extracts the summaries; :mod:`.callgraph`
resolves call sites to a project
:class:`~repro.lint.flow.callgraph.CallGraph` (methods via
class-hierarchy analysis, ``functools.partial`` edges where the target
is nameable); :mod:`.engine` answers the zero-hop queries and runs the
fixpoints, and lists every rule in its one table
(:mod:`repro.lint.registry` reads it for selection and reporting).
"""

from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.engine import FlowAnalysis
from repro.lint.flow.summary import ModuleSummary, summarize_module

__all__ = [
    "CallGraph",
    "FlowAnalysis",
    "ModuleSummary",
    "build_call_graph",
    "summarize_module",
]
