"""Tests for the sharded multi-stream engine and the parallel channel fan-out.

The contract under test mirrors the grid executor's: sharded execution —
any shard count, in-process or on worker processes — produces outputs
bit-identical to running each stream through its own single pipeline, the
merge order is deterministic, and misuse (non-positive ``n_shards``, a
source yielding unsupported items) fails fast with a clear error.
"""

import numpy as np
import pytest

from repro.core.multivariate import MultivariateClaSS
from repro.datasets import SegmentSpec, compose_stream
from repro.streamengine import (
    ArraySource,
    MapOperator,
    Pipeline,
    Record,
    ShardedPipeline,
    run_class_pipeline,
    run_class_pipelines,
)
from repro.utils.exceptions import ConfigurationError
from repro.utils.parallel import shard_for_key

WINDOW = 500
SCORING_INTERVAL = 30
BATCH = 128


def _make_dataset(index: int):
    specs = [
        SegmentSpec("sine", 500, {"period": 20 + index, "noise": 0.05}),
        SegmentSpec("square", 500, {"period": 55 + index, "noise": 0.05}),
    ]
    return compose_stream(specs, name=f"shard_stream_{index}", seed=60 + index)


@pytest.fixture(scope="module")
def stream_suite():
    return [_make_dataset(index) for index in range(4)]


@pytest.fixture(scope="module")
def single_pipeline_baseline(stream_suite):
    return [
        run_class_pipeline(
            dataset, window_size=WINDOW, scoring_interval=SCORING_INTERVAL, batch_size=BATCH
        )
        for dataset in stream_suite
    ]


def _double(value: float) -> float:
    return 2.0 * value


def _double_chain(key: str):
    return MapOperator(_double)


class TestShardRouting:
    def test_shard_for_key_is_stable_and_in_range(self):
        for n_shards in (1, 2, 5):
            for key in ("a", "b", "stream_17"):
                shard = shard_for_key(key, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_for_key(key, n_shards)

    @pytest.mark.parametrize("n_shards", [0, -3])
    def test_non_positive_n_shards_rejected(self, n_shards):
        with pytest.raises(ConfigurationError, match="n_shards must be a positive integer"):
            ShardedPipeline(n_shards, operator_factory=_double_chain)

    def test_source_without_stream_key_rejected(self):
        sharded = ShardedPipeline(2, operator_factory=_double_chain)
        with pytest.raises(ConfigurationError, match="stream"):
            sharded.add_source([Record(0, 1.0)])

    def test_run_without_sources_rejected(self):
        sharded = ShardedPipeline(2, operator_factory=_double_chain)
        with pytest.raises(ConfigurationError, match="no sources"):
            sharded.run()


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_sharded_matches_single_pipelines(
        self, stream_suite, single_pipeline_baseline, n_shards
    ):
        results, run = run_class_pipelines(
            stream_suite,
            n_shards=n_shards,
            window_size=WINDOW,
            scoring_interval=SCORING_INTERVAL,
            batch_size=BATCH,
        )
        for expected, actual in zip(single_pipeline_baseline, results):
            assert actual.dataset == expected.dataset
            assert np.array_equal(actual.change_points, expected.change_points)
            assert np.array_equal(actual.detection_delays, expected.detection_delays)
        assert run.n_shards == n_shards
        assert run.keys == [dataset.name for dataset in stream_suite]

    def test_duplicate_dataset_names_rejected(self, stream_suite):
        duplicated = [stream_suite[0], stream_suite[0], stream_suite[1]]
        with pytest.raises(ConfigurationError, match="unique"):
            run_class_pipelines(duplicated, n_shards=2, window_size=WINDOW)

    def test_process_pool_matches_in_process(self, stream_suite, single_pipeline_baseline):
        results, run = run_class_pipelines(
            stream_suite,
            n_shards=2,
            n_workers=2,
            window_size=WINDOW,
            scoring_interval=SCORING_INTERVAL,
            batch_size=BATCH,
        )
        for expected, actual in zip(single_pipeline_baseline, results):
            assert np.array_equal(actual.change_points, expected.change_points)
        assert run.wall_seconds > 0
        assert run.shard_seconds

    def test_aggregate_metrics_sum_over_chains(self, stream_suite):
        _, run = run_class_pipelines(
            stream_suite,
            n_shards=3,
            window_size=WINDOW,
            scoring_interval=SCORING_INTERVAL,
            batch_size=BATCH,
        )
        aggregate = run.aggregate
        total_points = sum(dataset.n_timepoints for dataset in stream_suite)
        assert aggregate.n_source_records == total_points
        assert aggregate.n_source_batches == sum(
            -(-dataset.n_timepoints // BATCH) for dataset in stream_suite
        )
        assert aggregate.throughput > 0
        per_chain = [result.metrics.n_source_records for result in run.results.values()]
        assert sum(per_chain) == total_points


class TestOrderedMerge:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_merged_records_deterministic_across_shard_counts(self, n_shards):
        sharded = ShardedPipeline(n_shards, operator_factory=_double_chain)
        for index in range(3):
            sharded.add_source(ArraySource(np.arange(5, dtype=np.float64), stream=f"s{index}"))
        merged = sharded.run().merged_records()
        keys = [(record.stream, record.timestamp) for record in merged]
        assert keys == sorted(keys)
        assert len(merged) == 15
        assert [record.value for record in merged if record.stream == "s1"] == [
            0.0,
            2.0,
            4.0,
            6.0,
            8.0,
        ]

    def test_interleaved_records_routed_per_key_in_order(self):
        items = []
        for timestamp in range(6):
            stream = "even" if timestamp % 2 == 0 else "odd"
            items.append(Record(timestamp, float(timestamp), stream=stream))
        sharded = ShardedPipeline(2, operator_factory=_double_chain)
        sharded.add_records(items)
        run = sharded.run()
        assert set(run.keys) == {"even", "odd"}
        even_values = [record.value for record in run.results["even"].sink.records]
        assert even_values == [0.0, 4.0, 8.0]

    def test_interleaved_unsupported_item_rejected(self):
        sharded = ShardedPipeline(2, operator_factory=_double_chain)
        sharded.add_records([Record(0, 1.0), "not a record"])
        with pytest.raises(ConfigurationError, match="unsupported item"):
            sharded.run()


class TestPipelineSourceValidation:
    def test_unsupported_source_item_raises_clear_error(self):
        pipeline = Pipeline([Record(0, 1.0), 42], name="bad_source")
        with pytest.raises(ConfigurationError, match="unsupported item of type 'int'"):
            pipeline.run()

    def test_valid_items_still_flow(self):
        sink_values = []

        class _ListSink:
            def consume(self, record):
                sink_values.append(record.value)

        pipeline = Pipeline([Record(0, 1.0), Record(1, 2.0)])
        pipeline.add_sink(_ListSink())
        metrics = pipeline.run()
        assert metrics.n_source_records == 2
        assert sink_values == [1.0, 2.0]


class TestMultivariateParallelFanOut:
    @pytest.fixture(scope="class")
    def multivariate_stream(self):
        rng = np.random.default_rng(11)

        def channel(period):
            first = np.sin(2 * np.pi * np.arange(800) / period)
            second = 2.0 * np.sign(np.sin(2 * np.pi * np.arange(800) / (3 * period)))
            return np.concatenate([first, second]) + rng.normal(0, 0.05, 1_600)

        return np.stack([channel(20), channel(24), channel(28)], axis=1)

    @staticmethod
    def _make_ensemble():
        return MultivariateClaSS(
            n_channels=3,
            min_votes=2,
            fusion_tolerance=300,
            window_size=700,
            scoring_interval=25,
        )

    def test_parallel_channels_match_sequential(self, multivariate_stream):
        sequential = self._make_ensemble()
        sequential.process(multivariate_stream, chunk_size=128)
        parallel = self._make_ensemble()
        parallel.process(multivariate_stream, chunk_size=128, n_workers=2)

        assert np.array_equal(sequential.change_points, parallel.change_points)
        for expected, actual in zip(sequential.fused_reports, parallel.fused_reports):
            assert actual.change_point == expected.change_point
            assert actual.detected_at == expected.detected_at
            assert actual.supporting_channels == expected.supporting_channels
            assert actual.channel_change_points == expected.channel_change_points
        for expected, actual in zip(
            sequential.channel_change_points, parallel.channel_change_points
        ):
            assert np.array_equal(actual, expected)

    def test_streaming_continues_after_parallel_call(self, multivariate_stream):
        sequential = self._make_ensemble()
        parallel = self._make_ensemble()
        sequential.process(multivariate_stream, chunk_size=128)
        parallel.process(multivariate_stream, chunk_size=128, n_workers=2)
        tail = multivariate_stream[:120]
        sequential.process(tail, chunk_size=50)
        parallel.process(tail, chunk_size=50)
        assert sequential.n_seen == parallel.n_seen
        assert np.array_equal(sequential.change_points, parallel.change_points)

    def test_non_positive_workers_rejected(self, multivariate_stream):
        ensemble = self._make_ensemble()
        with pytest.raises(ConfigurationError, match="n_workers"):
            ensemble.process(multivariate_stream, n_workers=0)
