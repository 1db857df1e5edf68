"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.vms == 48
        assert args.utilization == 0.25
        assert args.topology == "16core"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestPlanCommand:
    def test_basic_plan(self, capsys):
        assert main(["plan", "--vms", "8", "--topology", "2"]) == 0
        out = capsys.readouterr().out
        assert "method=partitioned" in out
        assert "worst blackout" in out

    def test_verbose_lists_cores(self, capsys):
        main(["plan", "--vms", "8", "--topology", "2", "--verbose"])
        out = capsys.readouterr().out
        assert "pCPU 0" in out

    def test_custom_parameters_flow_through(self, capsys):
        main(
            [
                "plan",
                "--vms",
                "4",
                "--utilization",
                "0.5",
                "--latency-ms",
                "10",
                "--topology",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "goal 10.0ms" in out


class TestDelayCommand:
    def test_intrinsic_probe_runs(self, capsys):
        assert main(["delay", "--probe", "intrinsic", "--seconds", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "tableau" in out
        assert "max" in out

    def test_ping_probe_runs(self, capsys):
        assert main(
            ["delay", "--probe", "ping", "--seconds", "0.3", "--uncapped"]
        ) == 0
        out = capsys.readouterr().out
        assert "credit2" in out  # uncapped matrix includes credit2


class TestWebCommand:
    def test_single_operating_point(self, capsys):
        assert main(["web", "--rate", "200", "--seconds", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "p99" in out


class TestScalingCommand:
    def test_runs_full_sweep(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "gen (s)" in out
        assert "176" in out


class TestServeCommand:
    ARGS = [
        "serve", "--seconds", "60", "--topology", "8",
        "--population", "12",
    ]

    def test_summary_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "service[tableau]" in out
        assert "batching:" in out
        assert "replan latency:" in out

    def test_json_report_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.ARGS + ["--report", str(first)]) == 0
        assert main(self.ARGS + ["--json", "--report", str(second)]) == 0
        stdout = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert second.read_text() in stdout  # --json prints the report

    def test_hours_flag_overrides_seconds(self, capsys):
        args = [a for a in self.ARGS if a not in ("--seconds", "60")]
        assert main(args + ["--hours", "0.01", "--arrival-rate", "2"]) == 0
        out = capsys.readouterr().out
        assert "36s simulated" in out


class TestServeCrashRecovery:
    ARGS = [
        "serve", "--seconds", "20", "--topology", "8",
        "--population", "10", "--arrival-rate", "6", "--json",
    ]

    def test_crash_then_recover_is_byte_identical(self, capsys, tmp_path):
        wal = str(tmp_path / "wal.bin")
        assert main(self.ARGS) == 0
        reference = capsys.readouterr().out

        # The armed crashpoint kills the run: exit 3, journal durable.
        code = main(
            self.ARGS
            + ["--journal", wal, "--crash-plan", "service.commit@2"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "simulated crash at service.commit" in captured.err

        assert main(self.ARGS + ["--journal", wal, "--recover"]) == 0
        assert capsys.readouterr().out == reference

    def test_populated_journal_without_recover_is_refused(
        self, capsys, tmp_path
    ):
        wal = str(tmp_path / "wal.bin")
        main(
            self.ARGS
            + ["--journal", wal, "--crash-plan", "service.admit@5"]
        )
        capsys.readouterr()
        code = main(self.ARGS + ["--journal", wal])
        captured = capsys.readouterr()
        assert code == 2
        assert "--recover" in captured.err

    def test_crash_flags_require_a_journal(self, capsys):
        assert main(self.ARGS + ["--recover"]) == 2
        assert main(self.ARGS + ["--crash-plan", "service.admit"]) == 2
        assert "require --journal" in capsys.readouterr().err
