"""Atomic durable writes (repro.core.atomicio): temp file, then rename."""

import multiprocessing
import os

import pytest

from repro.core import atomic_write_bytes, atomic_write_text


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if ".tmp." in p.name)


class TestAtomicWrite:
    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.json"
        assert atomic_write_bytes(target, b"{}") == target
        assert target.read_bytes() == b"{}"

    def test_replaces_an_existing_file_whole(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"x" * 4096)
        atomic_write_bytes(str(target), b"short")
        assert target.read_bytes() == b"short"

    def test_leaves_no_temporary_file(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        atomic_write_text(tmp_path / "out.txt", "payload")
        assert leftovers(tmp_path) == []

    def test_text_is_encoded_as_asked(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "µs → ns")
        assert target.read_bytes() == "µs → ns".encode("utf-8")
        atomic_write_text(target, "µs", encoding="latin-1")
        assert target.read_bytes() == b"\xb5s"

    def test_failed_rename_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        # A crash between the temp write and the rename: the destination
        # still holds the complete old bytes, and only the writer's
        # *.tmp.<pid> orphan is left beside it.
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def dies(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", dies)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert leftovers(tmp_path) == [f"out.bin.tmp.{os.getpid()}"]


def _write_many(path, fill, rounds):
    for _ in range(rounds):
        atomic_write_bytes(path, fill * (1 << 16))


def test_racing_processes_leave_one_complete_payload(tmp_path):
    # Each writer has its own temp file, so readers only ever see one
    # writer's whole payload, never a mixture.
    target = tmp_path / "out.bin"
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_write_many, args=(target, fill, 20))
        for fill in (b"a", b"b", b"c")
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
    assert [writer.exitcode for writer in writers] == [0, 0, 0]
    data = target.read_bytes()
    assert len(data) == 1 << 16
    assert data in {fill * (1 << 16) for fill in (b"a", b"b", b"c")}
    assert leftovers(tmp_path) == []
