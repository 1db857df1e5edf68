"""Tests for the ``tableau-repro campaign`` subcommand."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli",
                "probe": "intrinsic",
                "schedulers": ["credit", "tableau"],
                "vm_counts": [4],
                "seeds": [42],
                "topology": "2",
                "duration_s": 0.005,
            }
        )
    )
    return str(path)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.matrix == "fig6-smoke"
        assert args.workers == 1
        assert not args.resume
        assert args.shard_timeout is None

    def test_all_flags_parse(self):
        args = build_parser().parse_args(
            [
                "campaign", "--matrix", "fig6", "--workers", "4",
                "--log", "/tmp/l.jsonl",
                "--resume", "--shard-timeout", "30",
                "--report", "/tmp/r.json", "--aggregate", "/tmp/a.json",
            ]
        )
        assert args.workers == 4 and args.resume
        assert args.shard_timeout == 30.0


class TestCommand:
    def test_runs_matrix_file_and_writes_artifacts(
        self, matrix_file, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        aggregate = tmp_path / "aggregate.json"
        log = tmp_path / "run.jsonl"
        code = main(
            [
                "campaign", "--matrix", matrix_file,
                "--workers", "2",
                "--log", str(log),
                "--report", str(report),
                "--aggregate", str(aggregate),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign cli: 2 shards" in out
        assert "plan cache" in out

        body = json.loads(report.read_text())
        assert body["workers"] == 2
        assert set(body["phase_seconds"]) == {
            "plan", "build", "simulate", "aggregate"
        }
        agg = json.loads(aggregate.read_text())
        assert agg["shards"] == 2 and agg["ok"] == 2
        assert len(log.read_text().splitlines()) == 2

    def test_worker_count_never_changes_the_aggregate(
        self, matrix_file, tmp_path, capsys
    ):
        aggregates = []
        for workers in ("1", "2"):
            aggregate = tmp_path / f"aggregate-{workers}.json"
            argv = [
                "campaign", "--matrix", matrix_file, "--workers", workers,
                "--aggregate", str(aggregate),
            ]
            assert main(argv) == 0
            aggregates.append(aggregate.read_bytes())
        assert aggregates[0] == aggregates[1]
        assert json.loads(aggregates[0])["ok"] == 2

    def test_resume_skips_completed(self, matrix_file, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        argv = [
            "campaign", "--matrix", matrix_file, "--log", str(log),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_unknown_matrix_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            main(["campaign", "--matrix", "not-a-matrix"])

    def test_builtin_smoke_matrix_runs(self, capsys):
        assert main(["campaign", "--matrix", "fig6-smoke"]) == 0
        assert "fig6" in capsys.readouterr().out
