"""Integration tests for the streaming evaluation runner and ablation harness."""

import numpy as np
import pytest

from repro.datasets import SegmentSpec, compose_stream, make_tssb_like
from repro.evaluation.ablation import (
    PAPER_ABLATION_GRID,
    ablation_rows,
    ablation_sample,
    run_ablation,
)
from repro.evaluation.runner import (
    ClaSSFactory,
    default_method_factories,
    run_experiment,
    run_method_on_dataset,
    stream_dataset,
)
from repro.evaluation.throughput import measure_throughput, measure_update_scaling
from repro.evaluation.reporting import (
    format_markdown_table,
    format_ranking,
    format_summary,
    format_table,
)
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def tiny_suite():
    return make_tssb_like(n_series=3, length_scale=0.25, seed=1717)


class TestRunner:
    def test_stream_dataset_collects_change_points(self, small_dataset):
        factory = ClaSSFactory(window_size=1_000, scoring_interval=30)
        segmenter = factory(small_dataset)
        cps, detection_times, elapsed = stream_dataset(segmenter, small_dataset)
        assert elapsed > 0
        assert cps.shape == detection_times.shape

    def test_factory_exposes_its_dataset_config(self, small_dataset):
        factory = ClaSSFactory(window_size=1_000, scoring_interval=30)
        config = factory.config_for(small_dataset)
        assert config.window_size <= 1_000
        assert config.scoring_interval == 30

    def test_run_method_on_dataset_record_fields(self, small_dataset):
        record = run_method_on_dataset(
            "ClaSS", ClaSSFactory(window_size=1_000, scoring_interval=30), small_dataset
        )
        assert record.method == "ClaSS"
        assert 0.0 <= record.covering <= 1.0
        assert record.n_timepoints == small_dataset.n_timepoints
        assert record.throughput > 0
        row = record.as_row()
        assert set(row) >= {"method", "dataset", "covering", "runtime_s"}

    def test_class_beats_trivial_baseline_on_clear_stream(self, small_dataset):
        record = run_method_on_dataset(
            "ClaSS", ClaSSFactory(window_size=1_000, scoring_interval=20), small_dataset
        )
        # the empty segmentation of this 3-segment stream scores ~0.33
        assert record.covering > 0.6

    def test_run_experiment_matrix_and_summaries(self, tiny_suite):
        methods = default_method_factories(
            window_size=1_000,
            scoring_interval=30,
            floss_stride=30,
            include=["ClaSS", "Window", "DDM"],
        )
        result = run_experiment(methods, tiny_suite)
        matrix, datasets, method_names = result.score_matrix()
        assert matrix.shape == (len(tiny_suite), 3)
        assert not np.isnan(matrix).any()
        summary = result.summary_by_method()
        assert set(summary) == {"ClaSS", "Window", "DDM"}
        assert result.total_runtime_by_method()["ClaSS"] > 0
        assert result.mean_throughput_by_method()["DDM"] > 0

    def test_filter_by_collection_and_method(self, tiny_suite):
        methods = default_method_factories(include=["DDM"], window_size=500)
        result = run_experiment(methods, tiny_suite)
        filtered = result.filter(collection="TSSB-like", method="DDM")
        assert len(filtered.records) == len(tiny_suite)
        assert result.filter(collection="nonexistent").records == []

    def test_empty_methods_rejected(self, tiny_suite):
        with pytest.raises(ConfigurationError):
            run_experiment({}, tiny_suite)

    def test_default_factories_cover_paper_methods(self):
        methods = default_method_factories()
        assert set(methods) == {
            "ClaSS", "FLOSS", "Window", "BOCD", "ChangeFinder", "NEWMA", "ADWIN", "DDM", "HDDM",
        }


class TestThroughputHelpers:
    def test_measure_throughput_reports_rates(self, small_dataset):
        from repro.competitors import get_competitor

        report = measure_throughput(get_competitor("DDM"), small_dataset.values, "DDM")
        assert report.n_points == small_dataset.n_timepoints
        assert report.mean_points_per_second > 0
        assert report.peak_points_per_second >= report.mean_points_per_second * 0.5
        assert "points_per_s" in report.as_row()

    def test_measure_update_scaling(self, rng):
        from repro.core.streaming_knn import StreamingKNN

        values = rng.normal(size=3_000)
        latencies = measure_update_scaling(
            lambda d: StreamingKNN(window_size=d, subsequence_width=20),
            window_sizes=[200, 800],
            values=values,
            warmup=100,
            measured_updates=100,
        )
        assert set(latencies) == {200, 800}
        assert all(v > 0 for v in latencies.values())


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}], title="demo")
        assert "demo" in text and "a" in text and "20" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_markdown_table(self):
        text = format_markdown_table([{"x": 1.23456}])
        assert text.startswith("| x |")
        assert "1.235" in text

    def test_format_ranking_and_summary(self):
        text = format_ranking([("ClaSS", 1.4), ("FLOSS", 3.2)], 0.8)
        assert "ClaSS" in text and "1.40" in text
        summary = format_summary({"ClaSS": {"mean": 0.8, "median": 0.85, "std": 0.1, "n": 5}})
        assert "80.0" in summary


class TestAblation:
    def test_paper_grid_has_all_seven_groups(self):
        assert set(PAPER_ABLATION_GRID) == {
            "window_size", "wss_method", "similarity", "k_neighbours",
            "score", "significance_level", "sample_size",
        }

    def test_ablation_sample_size(self, tiny_suite):
        sample = ablation_sample(tiny_suite, fraction=0.5)
        assert len(sample) == 2

    def test_run_ablation_over_k(self):
        specs = [
            SegmentSpec("sine", 600, {"period": 25, "noise": 0.05}),
            SegmentSpec("square", 600, {"period": 60, "noise": 0.05}),
        ]
        data = [compose_stream(specs, name=f"abl_{i}", seed=i) for i in range(2)]
        entries = run_ablation(
            "k_neighbours", [1, 3], data, window_size=600, scoring_interval=40
        )
        assert len(entries) == 2
        assert all(0.0 <= e.mean_covering <= 1.0 for e in entries)
        rows = ablation_rows(entries)
        assert rows[0]["parameter"] == "k_neighbours"
