"""Campaign determinism: parallel == serial == resumed, byte for byte.

The engine's core promise (ISSUE acceptance): a 2 x 2 x 3 campaign run
with ``--workers 4`` produces an aggregate JSON byte-identical to
``--workers 1``, and resuming a half-complete JSONL log skips the
completed shards while yielding the same final report.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignMatrix,
    aggregate_json,
    load_run_log,
    run_campaign,
)
from repro.experiments import scenarios


@pytest.fixture(scope="module")
def matrix():
    # 2 schedulers x 2 seeds x 3 presets = 12 shards, small enough to
    # run twice in the suite but wide enough to shuffle under a pool.
    return CampaignMatrix(
        name="det",
        probe="intrinsic",
        schedulers=("credit", "tableau"),
        vm_counts=(8,),
        seeds=(42, 43),
        presets=("none", "lost-ipi", "clock-skew"),
        topology="4",
        duration_s=0.02,
    )


@pytest.fixture(scope="module")
def serial(matrix, tmp_path_factory):
    td = tmp_path_factory.mktemp("serial")
    return run_campaign(matrix, workers=1, log_path=str(td / "run.jsonl"))


class TestParallelMatchesSerial:
    def test_workers4_aggregate_is_byte_identical(
        self, matrix, serial, tmp_path
    ):
        parallel = run_campaign(
            matrix, workers=4, log_path=str(tmp_path / "run.jsonl")
        )
        assert parallel.ok and serial.ok
        assert aggregate_json(parallel.aggregate) == aggregate_json(
            serial.aggregate
        )

    def test_warm_cache_changes_nothing(self, matrix, serial):
        # The serial fixture ran in this process, so its plans are in
        # the plan memo and the shape cache: a rerun is served from them.
        hits = scenarios.plan_for_cache_hits
        warm = run_campaign(matrix, workers=1)
        assert scenarios.plan_for_cache_hits > hits
        assert any(r["plan_cache"]["hit"] for r in warm.records)
        assert aggregate_json(warm.aggregate) == aggregate_json(
            serial.aggregate
        )

    def test_records_come_back_in_matrix_order(self, matrix, serial):
        assert [r["shard"] for r in serial.records] == [
            s.shard_id for s in matrix.expand()
        ]

    def test_aggregate_holds_no_wall_clock(self, serial):
        # Wall-clock and cache luck live in the report, never the
        # aggregate — that is what makes it byte-stable.
        flat = aggregate_json(serial.aggregate)
        assert "wall_s" not in flat
        assert "timings" not in flat
        assert "plan_cache" not in flat


class TestResume:
    def test_resume_skips_completed_and_matches(
        self, matrix, serial, tmp_path
    ):
        log = tmp_path / "run.jsonl"
        full = run_campaign(matrix, workers=1, log_path=str(log))
        lines = full.log_path.read_text().splitlines(keepends=True)
        assert len(lines) == 12
        # Keep half, plus a torn final line (crash mid-write).
        log.write_text("".join(lines[:6]) + lines[6][: len(lines[6]) // 2])

        resumed = run_campaign(
            matrix, workers=2, log_path=str(log), resume=True
        )
        assert resumed.resumed == 6
        assert aggregate_json(resumed.aggregate) == aggregate_json(
            serial.aggregate
        )
        # The log now holds every shard exactly once.
        assert len(load_run_log(log)) == 12

    def test_resume_of_complete_log_runs_nothing(self, matrix, tmp_path):
        log = tmp_path / "run.jsonl"
        first = run_campaign(matrix, workers=1, log_path=str(log))
        again = run_campaign(
            matrix, workers=1, log_path=str(log), resume=True
        )
        assert again.resumed == 12
        assert aggregate_json(again.aggregate) == aggregate_json(
            first.aggregate
        )

    def test_foreign_records_are_ignored(self, matrix, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text(
            json.dumps({"shard": "9999.other.v1.s1.none", "status": "ok"})
            + "\n"
        )
        result = run_campaign(
            matrix, workers=1, log_path=str(log), resume=True
        )
        assert result.resumed == 0 and result.ok

    def test_failed_records_rerun_on_resume(self, matrix, tmp_path):
        shard_id = matrix.expand()[0].shard_id
        log = tmp_path / "run.jsonl"
        log.write_text(
            json.dumps({"shard": shard_id, "status": "failed"}) + "\n"
        )
        result = run_campaign(
            matrix, workers=1, log_path=str(log), resume=True
        )
        assert result.resumed == 0
        assert result.records[0]["status"] == "ok"


class TestArrayBackend:
    """ISSUE 6: the array dispatch engine as a campaign sweep axis.

    The determinism promise must hold per backend (parallel == serial,
    byte for byte, on the array engine) *and* across backends (an array
    cell's deterministic metrics equal its object twin's).
    """

    @pytest.fixture(scope="class")
    def array_matrix(self, matrix):
        return replace(matrix, name="det-array", engines=("array",))

    def test_parallel_matches_serial_on_array_backend(self, array_matrix):
        serial = run_campaign(array_matrix, workers=1)
        parallel = run_campaign(array_matrix, workers=4)
        assert serial.ok and parallel.ok
        assert aggregate_json(parallel.aggregate) == aggregate_json(
            serial.aggregate
        )

    def test_array_cells_reproduce_object_metrics(self, matrix):
        both = replace(
            matrix, name="det-both", engines=("object", "array")
        )
        result = run_campaign(both, workers=2)
        assert result.ok
        # Engines expand innermost, so records pair up cell by cell;
        # deterministic metrics must match exactly within each pair.
        records = result.records
        assert len(records) % 2 == 0
        for obj_rec, arr_rec in zip(records[0::2], records[1::2]):
            assert obj_rec["spec"]["engine"] == "object"
            assert arr_rec["spec"]["engine"] == "array"
            # Ids share the cell key; only the index and engine token
            # differ (engine tokens are omitted for the object default).
            obj_key = obj_rec["shard"].split(".", 1)[1]
            arr_key = arr_rec["shard"].split(".", 1)[1]
            assert arr_key == obj_key + ".array"
            assert arr_rec["metrics"] == obj_rec["metrics"]
