"""Content-hashed incremental cache for the lint driver.

One JSON document maps each linted file to everything the driver would
otherwise recompute by parsing it: the flow :class:`ModuleSummary`,
which carries every site any rule reads, and its suppression comments.
Entries are keyed by the sha256 of the file's bytes, so a
touched-but-identical file still hits and an edited file misses only
for itself.  Nothing in an entry depends on another file: the engine's
queries and passes, which do (a ``*_ns`` parameter declared float in
one module exempts a keyword argument in another), run on every run
from the summaries, so no file is opened or parsed on a warm run.

No entry depends on the rules selected either, so ``--rules`` subsets
read and fill the same cache as full-rule-set runs.

Writes are atomic (temp file + ``os.replace``) and any unreadable or
version-mismatched cache is discarded wholesale.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

from repro.lint.flow.summary import SUMMARY_VERSION

#: Bump to invalidate every existing cache (schema or rule semantics).
CACHE_VERSION = 1


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LintCache:
    """Load/store per-file lint products keyed by content hash."""

    def __init__(self, path: str, entries: Optional[Dict[str, dict]] = None):
        self.path = path
        self.entries: Dict[str, dict] = entries or {}
        self.hits = 0
        self.misses = 0
        #: An entry was stored or pruned since the load.
        self.dirty = False

    @classmethod
    def load(cls, path: str) -> "LintCache":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return cls(path)
        if (
            not isinstance(document, dict)
            or document.get("cache_version") != CACHE_VERSION
            or document.get("summary_version") != SUMMARY_VERSION
        ):
            return cls(path)
        entries = document.get("files")
        if not isinstance(entries, dict):
            return cls(path)
        return cls(path, entries)

    # ------------------------------------------------------------------

    def lookup(self, file_path: str, digest: str) -> Optional[dict]:
        """The entry for ``file_path`` if its content still matches."""
        entry = self.entries.get(file_path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, file_path: str, entry: dict) -> None:
        self.entries[file_path] = entry
        self.dirty = True

    def prune(self, keep_paths) -> None:
        """Drop entries for files no longer part of the run."""
        keep = set(keep_paths)
        for stale in [p for p in self.entries if p not in keep]:
            del self.entries[stale]
            self.dirty = True

    def save(self) -> None:
        """Write the document (atomically), unless nothing changed."""
        if not self.dirty:
            return
        document = {
            "cache_version": CACHE_VERSION,
            "summary_version": SUMMARY_VERSION,
            "files": self.entries,
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
