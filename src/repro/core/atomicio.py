"""Atomic durable writes: the one temp-then-rename helper.

Every write to a durable path in the control plane (campaign
aggregates, service reports written by library code) must be
all-or-nothing: a reader — possibly a concurrent process, possibly the
same process after a crash-restart — must see either the complete old
bytes or the complete new bytes, never a torn mixture.  The POSIX
recipe is a per-writer temporary file in the destination directory
followed by ``os.replace``.

This module is that recipe, written once; the ``err-nonatomic-write``
lint rule forbids open-mode ``"w"``/``"x"`` writes (and
``Path.write_bytes``/``write_text``) in ``repro.service`` and
``repro.campaign`` so durable writes cannot quietly bypass it.
Append-only files (journals, run logs) are exempt: appends are their
atomicity story.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the path.

    The temp file carries the writer's pid, so concurrent writers on
    the same destination never interleave bytes; the final
    ``os.replace`` is atomic on POSIX.  A crash between the two leaves
    only a ``*.tmp.<pid>`` orphan, never a torn destination.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, target)
    return target


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Text counterpart of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))
