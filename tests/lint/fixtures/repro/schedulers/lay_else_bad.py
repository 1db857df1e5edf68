"""Known-bad layering fixture: the ``else:`` of ``if TYPE_CHECKING:``
runs at import time, so its imports are real edges."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.planner import Planner  # noqa: F401
else:
    from repro.xen import toolstack  # lay-import  # noqa: F401
