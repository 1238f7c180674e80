"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_processors(self, capsys):
        out = _run(capsys, "list", "processors")
        assert "i7_45" in out
        assert "Nehalem" in out

    def test_benchmarks(self, capsys):
        out = _run(capsys, "list", "benchmarks")
        assert "fluidanimate" in out
        assert out.count("\n") >= 61

    def test_configurations(self, capsys):
        out = _run(capsys, "list", "configurations")
        assert out.count("\n") >= 45

    def test_experiments(self, capsys):
        out = _run(capsys, "list", "experiments")
        assert "fig12" in out
        assert "ext_thermal" in out


class TestMeasure:
    def test_stock_measurement(self, capsys):
        out = _run(capsys, "--quick", "measure", "db", "atom_45")
        assert "atom_45" in out
        assert "db" in out

    def test_configured_measurement(self, capsys):
        out = _run(
            capsys, "--quick", "measure", "xalan", "i7_45",
            "--cores", "2", "--threads", "1", "--clock", "1.6",
        )
        assert "i7_45/2C1T@1.6-TB" in out

    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["--quick", "measure", "nope", "i7_45"]) == 2
        assert capsys.readouterr().err == "error: unknown benchmark 'nope'\n"

    def test_unknown_processor_exits_2(self, capsys):
        assert main(["--quick", "measure", "xalan", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown processor 'nope'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--threads", "7"),
            ("--threads", "0"),
            ("--cores", "0"),
            ("--cores", "-2"),
            ("--clock", "0"),
            ("--clock", "-1.6"),
            ("--clock", "nan"),
            ("--clock", "inf"),
        ],
    )
    def test_bad_configuration_exits_2(self, capsys, flag, value):
        assert main(["--quick", "measure", "db", "i7_45", flag, value]) == 2
        assert f"{flag[2:]} must" in capsys.readouterr().err


class TestRobustnessFlags:
    def test_measure_under_injection_recovers(self, capsys):
        out = _run(
            capsys, "--quick", "measure", "db", "atom_45",
            "--inject", "ci", "--max-retries", "8",
        )
        assert "db" in out

    def test_bad_plan_exits_with_error(self, capsys):
        assert main(
            ["--quick", "measure", "db", "atom_45", "--inject", "/no/plan.json"]
        ) == 2
        assert "--inject" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "c.jsonl")
        first = _run(
            capsys, "--quick", "measure", "db", "atom_45",
            "--checkpoint", checkpoint,
        )
        assert main(
            ["--quick", "measure", "db", "atom_45",
             "--checkpoint", checkpoint, "--resume", checkpoint]
        ) == 0
        captured = capsys.readouterr()
        assert "resumed 1 results" in captured.err
        assert captured.out == first

    def test_resume_same_as_checkpoint_is_a_cold_start(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "fresh.jsonl")
        _run(
            capsys, "--quick", "measure", "db", "atom_45",
            "--checkpoint", checkpoint, "--resume", checkpoint,
        )

    def test_exhausted_retries_exit_cleanly(self, capsys, tmp_path):
        from repro.faults.plan import FaultPlan, FaultSpec

        plan_path = tmp_path / "always_crash.json"
        FaultPlan(
            specs=(FaultSpec(kind="invocation.crash", probability=1.0),)
        ).to_json(plan_path)
        assert main(
            ["--quick", "measure", "db", "atom_45",
             "--inject", str(plan_path), "--max-retries", "1"]
        ) == 3
        assert "measurement failed" in capsys.readouterr().err

    def test_missing_resume_file_errors(self, capsys, tmp_path):
        assert main(
            ["--quick", "measure", "db", "atom_45",
             "--resume", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "--resume" in capsys.readouterr().err

    def test_missing_checkpoint_directory_errors(self, capsys, tmp_path):
        assert main(
            ["--quick", "measure", "db", "atom_45",
             "--checkpoint", str(tmp_path / "no/such/dir/c.jsonl")]
        ) == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestOtherCommands:
    def test_experiment(self, capsys):
        out = _run(capsys, "--quick", "experiment", "table3")
        assert "Table 3" in out

    def test_extension_experiment(self, capsys):
        out = _run(capsys, "--quick", "experiment", "ext_thermal")
        assert "Thermal headroom" in out

    def test_figure(self, capsys):
        out = _run(capsys, "--quick", "figure", "fig11")
        assert "power (W)" in out

    def test_dataset(self, capsys, tmp_path):
        out_path = tmp_path / "d.csv"
        out = _run(capsys, "--quick", "dataset", str(out_path))
        assert "488 rows" in out  # 8 stock configs x 61 benchmarks
        assert out_path.exists()

    def test_bad_command_exits(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestResumeFingerprint:
    """--resume refuses checkpoints written under different run
    parameters (exit code 4 + a hint), instead of mixing datasets."""

    def _write_checkpoint(self, capsys, tmp_path, *flags) -> str:
        checkpoint = str(tmp_path / "c.jsonl")
        _run(
            capsys, "--quick", "measure", "db", "atom_45",
            "--checkpoint", checkpoint, *flags,
        )
        return checkpoint

    def test_checkpoint_writes_fingerprint_sidecar(self, capsys, tmp_path):
        from repro.core.ledger import read_checkpoint_meta

        checkpoint = self._write_checkpoint(capsys, tmp_path)
        meta = read_checkpoint_meta(checkpoint)
        assert meta is not None
        assert meta["invocation_scale"] == 0.2
        assert meta["fault_plan"] is None

    def test_plan_mismatch_exits_4_with_hint(self, capsys, tmp_path):
        checkpoint = self._write_checkpoint(capsys, tmp_path, "--inject", "ci")
        assert main(
            ["--quick", "measure", "db", "atom_45", "--resume", checkpoint]
        ) == 4
        err = capsys.readouterr().err
        assert "different run" in err
        assert "hint:" in err

    def test_scale_mismatch_exits_4(self, capsys, tmp_path):
        checkpoint = self._write_checkpoint(capsys, tmp_path)
        # Same command without --quick: invocation_scale 1.0 vs 0.2.
        assert main(["measure", "db", "atom_45", "--resume", checkpoint]) == 4
        assert "invocation_scale" in capsys.readouterr().err

    def test_matching_fingerprint_resumes(self, capsys, tmp_path):
        checkpoint = self._write_checkpoint(capsys, tmp_path, "--inject", "ci")
        assert main(
            ["--quick", "measure", "db", "atom_45",
             "--resume", checkpoint, "--inject", "ci"]
        ) == 0
        assert "resumed 1 results" in capsys.readouterr().err

    def test_checkpoint_without_sidecar_resumes_unchecked(
        self, capsys, tmp_path
    ):
        from repro.core.ledger import checkpoint_meta_path

        checkpoint = self._write_checkpoint(capsys, tmp_path)
        checkpoint_meta_path(checkpoint).unlink()  # a pre-sidecar checkpoint
        assert main(
            ["--quick", "measure", "db", "atom_45", "--resume", checkpoint]
        ) == 0
