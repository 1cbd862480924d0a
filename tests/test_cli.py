"""Tests for the command-line interface."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import ClaSSConfig, DataPolicy
from repro.cli import build_parser, main
from repro.datasets.loaders import save_dataset_csv

#: ``segment`` flag destination -> (config class, field) it populates.
SEGMENT_FLAG_FIELDS = {
    "window_size": (ClaSSConfig, "window_size"),
    "subsequence_width": (ClaSSConfig, "subsequence_width"),
    "scoring_interval": (ClaSSConfig, "scoring_interval"),
    "significance_level": (ClaSSConfig, "significance_level"),
    "backend": (ClaSSConfig, "kernel_backend"),
    "nan_policy": (DataPolicy, "nan_policy"),
    "max_gap": (DataPolicy, "max_gap"),
}

#: Deliberate CLI overrides of a config default, with the reason.
SEGMENT_DEFAULT_OVERRIDES = {
    "scoring_interval": "scoring a tenth as often keeps interactive runs quick",
}


def _field_default(config_cls, name):
    return {field.name: field.default for field in dataclasses.fields(config_cls)}[name]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_segment_defaults_match_the_config_fields(self, capsys):
        args = build_parser().parse_args(["segment"])
        for dest, (config_cls, name) in SEGMENT_FLAG_FIELDS.items():
            if dest not in SEGMENT_DEFAULT_OVERRIDES:
                assert getattr(args, dest) == _field_default(config_cls, name), dest
        # the one override differs from the config and says so in --help
        assert args.scoring_interval == 10 != _field_default(ClaSSConfig, "scoring_interval")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["segment", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(default 10, where ClaSSConfig and the paper use 1" in help_text

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "TSSB" in output and "WESAD" in output


class TestSegment:
    def test_demo_segmentation(self, capsys):
        assert main(["segment", "--demo", "--window-size", "1500", "--scoring-interval", "25"]) == 0
        output = capsys.readouterr().out
        assert "change points" in output
        assert "covering vs annotation" in output

    def test_segment_csv_file(self, tmp_path, small_dataset, capsys):
        path = save_dataset_csv(small_dataset, tmp_path / "stream.csv")
        assert (
            main(["segment", str(path), "--window-size", "1000", "--scoring-interval", "30"]) == 0
        )
        output = capsys.readouterr().out
        assert "loaded" in output

    def test_segment_plain_text_file(self, tmp_path, capsys, rng):
        values = np.concatenate(
            [
                np.sin(2 * np.pi * np.arange(600) / 20),
                np.sign(np.sin(2 * np.pi * np.arange(600) / 60)),
            ]
        ) + rng.normal(0, 0.05, 1_200)
        path = tmp_path / "values.txt"
        np.savetxt(path, values)
        assert main(["segment", str(path), "--window-size", "600", "--scoring-interval", "30"]) == 0
        assert "change points" in capsys.readouterr().out


class TestSegmentOutputAndCheckpoints:
    def _two_phase_stream(self, rng):
        values = np.concatenate(
            [np.sin(2 * np.pi * np.arange(700) / 20),
             np.sign(np.sin(2 * np.pi * np.arange(700) / 55))]
        ) + rng.normal(0, 0.05, 1_400)
        return values

    def test_json_output_emits_event_lines_and_summary(self, capsys):
        assert main([
            "segment", "--demo", "--window-size", "1500",
            "--scoring-interval", "25", "--output", "json",
        ]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "warmup"
        assert "change_point" in kinds
        assert kinds[-1] == "summary"
        assert lines[-1]["change_points"]
        assert "covering" in lines[-1]
        # progress chatter goes to stderr, stdout stays machine-readable
        assert "demo stream" in captured.err

    def test_checkpoint_resume_matches_uninterrupted_run(self, tmp_path, capsys, rng):
        values = self._two_phase_stream(rng)
        full, part1, part2 = tmp_path / "full.txt", tmp_path / "p1.txt", tmp_path / "p2.txt"
        np.savetxt(full, values)
        np.savetxt(part1, values[:800])
        np.savetxt(part2, values[800:])
        flags = ["--window-size", "600", "--scoring-interval", "20"]

        assert main(["segment", str(full), *flags]) == 0
        uninterrupted = capsys.readouterr().out

        ckpt = tmp_path / "state.ckpt"
        assert main(["segment", str(part1), *flags, "--checkpoint", str(ckpt)]) == 0
        first = capsys.readouterr().out
        assert f"checkpoint written to {ckpt}" in first
        assert ckpt.exists()

        assert main(["segment", str(part2), "--resume", str(ckpt)]) == 0
        second = capsys.readouterr().out
        assert "resumed from" in second

        def final_change_points(out):
            return [line for line in out.splitlines() if line.startswith("change points:")][-1]

        assert final_change_points(second) == final_change_points(uninterrupted)

    def test_resume_from_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        exit_code = main([
            "segment", "--demo", "--resume", str(tmp_path / "missing.ckpt"),
        ])
        assert exit_code == 2
        assert "cannot resume" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluate_small_suite(self, capsys):
        exit_code = main([
            "evaluate", "--collection", "TSSB", "--n-series", "2",
            "--length-scale", "0.2", "--window-size", "1000",
            "--scoring-interval", "40", "--methods", "ClaSS,DDM,HDDM", "--quiet",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "summary of covering" in output
        assert "mean rank" in output

    def test_evaluate_with_workers(self, capsys):
        exit_code = main([
            "evaluate", "--collection", "TSSB", "--n-series", "2",
            "--length-scale", "0.15", "--window-size", "500",
            "--scoring-interval", "40", "--methods", "ClaSS,DDM", "--workers", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "parallel grid" in output
        assert "summary of covering" in output

    def test_evaluate_rejects_non_positive_workers(self, capsys):
        exit_code = main([
            "evaluate", "--collection", "TSSB", "--n-series", "2",
            "--methods", "DDM", "--workers", "0",
        ])
        assert exit_code == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err
