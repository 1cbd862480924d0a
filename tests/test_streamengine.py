"""Unit and integration tests for the stream-processing engine."""

import numpy as np
import pytest

from repro import api
from repro.api import ChangePointEvent
from repro.streamengine import (
    ArraySource,
    CallbackSink,
    ChangePointSink,
    ClaSSWindowOperator,
    CollectSink,
    DatasetSource,
    FilterOperator,
    MapOperator,
    Pipeline,
    Record,
    SegmentationOperator,
    SlidingWindowOperator,
    run_class_pipeline,
)
from repro.utils.exceptions import ConfigurationError


class TestSources:
    def test_array_source_emits_records_in_order(self):
        source = ArraySource(np.array([1.0, 2.0, 3.0]), stream="s")
        records = list(source)
        assert [r.value for r in records] == [1.0, 2.0, 3.0]
        assert [r.timestamp for r in records] == [0, 1, 2]
        assert len(source) == 3

    def test_dataset_source_marks_annotated_change_points(self, small_dataset):
        source = DatasetSource(small_dataset)
        records = list(source)
        flagged = [r.timestamp for r in records if r.metadata.get("is_annotated_cp")]
        assert flagged == small_dataset.change_points.tolist()


class TestOperators:
    def test_map_operator(self):
        operator = MapOperator(lambda v: 2 * v)
        out = list(operator.process(Record(0, 3.0)))
        assert out[0].value == 6.0

    def test_filter_operator(self):
        operator = FilterOperator(lambda record: record.value > 0)
        assert list(operator.process(Record(0, -1.0))) == []
        assert len(list(operator.process(Record(1, 1.0)))) == 1

    def test_sliding_window_operator_aggregates(self):
        operator = SlidingWindowOperator(window_size=3, slide=1, aggregate=np.mean)
        outputs = []
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            outputs.extend(operator.process(Record(i, value)))
        assert [o.value for o in outputs] == [pytest.approx(2.0), pytest.approx(3.0)]

    def test_segmentation_operator_emits_events(self, sine_square_stream):
        from repro.core.class_segmenter import ClaSS

        values, true_cp = sine_square_stream
        operator = SegmentationOperator(
            ClaSS(window_size=1_200, subsequence_width=25, scoring_interval=25)
        )
        events = []
        for i, value in enumerate(values):
            for out in operator.process(Record(i, float(value))):
                if isinstance(out.value, ChangePointEvent):
                    events.append(out.value)
        assert events
        assert any(abs(e.change_point - true_cp) < 200 for e in events)
        assert all(e.at >= e.change_point for e in events)

    def test_segmentation_operator_rejects_non_segmenters(self):
        with pytest.raises(TypeError, match="misses protocol members"):
            SegmentationOperator(object())


class TestSinks:
    def test_collect_sink(self):
        sink = CollectSink()
        sink.consume(Record(0, 1.0))
        assert sink.values == [1.0]

    def test_change_point_sink_ignores_plain_values(self):
        sink = ChangePointSink()
        sink.consume(Record(0, 1.0))
        sink.consume(Record(4, ChangePointEvent(at=5, change_point=3), stream="s"))
        assert sink.change_points.tolist() == [3]
        assert sink.detection_delays.tolist() == [2]

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.consume(Record(0, 1.0))
        assert sink.n_consumed == 1 and len(seen) == 1


class TestPipeline:
    def test_rejects_invalid_components(self):
        pipeline = Pipeline(ArraySource(np.zeros(5)))
        with pytest.raises(ConfigurationError):
            pipeline.add_operator(lambda r: r)
        with pytest.raises(ConfigurationError):
            pipeline.add_sink(object())

    def test_map_filter_chain(self):
        sink = CollectSink()
        pipeline = Pipeline(ArraySource(np.arange(10, dtype=float)))
        pipeline.add_operator(MapOperator(lambda v: v * 2))
        pipeline.add_operator(FilterOperator(lambda r: r.value >= 10))
        pipeline.add_sink(sink)
        metrics = pipeline.run()
        assert metrics.n_source_records == 10
        assert sink.values == [10.0, 12.0, 14.0, 16.0, 18.0]
        assert metrics.throughput > 0

    def test_operator_counts_recorded(self):
        pipeline = Pipeline(ArraySource(np.zeros(7)))
        pipeline.add_operator(MapOperator(lambda v: v))
        metrics = pipeline.run()
        assert metrics.operator_counts["map"] == 7


class TestClaSSOperator:
    def test_run_class_pipeline_detects_change_points(self, small_dataset):
        result = run_class_pipeline(small_dataset, window_size=1_000, scoring_interval=30)
        assert result.dataset == small_dataset.name
        assert result.metrics.n_source_records == small_dataset.n_timepoints
        assert result.throughput > 0
        assert result.change_points.shape == result.detection_delays.shape
        # at least one of the two annotated transitions is recovered
        assert any(
            any(abs(cp - true_cp) < 200 for true_cp in small_dataset.change_points)
            for cp in result.change_points
        )

    def test_operator_exposes_change_points(self, small_dataset):
        operator = ClaSSWindowOperator(window_size=1_000, subsequence_width=30, scoring_interval=40)
        for i, value in enumerate(small_dataset.values):
            list(operator.process(Record(i, float(value))))
        assert operator.n_processed == small_dataset.n_timepoints
        assert isinstance(operator.change_points, np.ndarray)


#: Competitor registry keys with configs sized for the mixed stream below.
COMPETITORS = {
    "floss": {"window_size": 600, "subsequence_width": 25},
    "window": {"window_size": 250},
    "bocd": {},
    "change-finder": {},
    "newma": {},
    "adwin": {},
    "ddm": {},
    "hddm": {},
}


@pytest.fixture(scope="module")
def mixed_stream():
    """Shape and mean shifts, so every competitor reports change points."""
    rng = np.random.default_rng(1234)
    t = np.arange(1_000)
    values = np.concatenate(
        [
            np.sin(2 * np.pi * t / 25),
            4 + 2 * np.sign(np.sin(2 * np.pi * t / 60)),
            1 + np.sin(2 * np.pi * t / 40),
        ]
    )
    return values + rng.normal(0, 0.1, values.shape[0])


def _run_operator(segmenter, values, batch_size):
    operator = SegmentationOperator(segmenter)
    sink = ChangePointSink()
    source = ArraySource(values, stream="mixed", batch_size=batch_size)
    Pipeline(source).add_operator(operator).add_sink(sink).run()
    return sink.records


class TestSegmentationOperatorEvents:
    @pytest.mark.parametrize("key", sorted(COMPETITORS))
    def test_batch_and_record_runs_emit_the_detector_events(self, key, mixed_stream):
        reference = api.create(key, **COMPETITORS[key])
        reference.process(mixed_stream)
        expected = [event for event in reference.events() if event.kind == "change_point"]
        assert expected

        pointwise = _run_operator(api.create(key, **COMPETITORS[key]), mixed_stream, None)
        batched = _run_operator(api.create(key, **COMPETITORS[key]), mixed_stream, 97)
        for records in (pointwise, batched):
            assert [record.value for record in records] == expected
            # stamped with the observation that triggered the detection
            assert [record.timestamp for record in records] == [e.at - 1 for e in expected]
            assert {record.stream for record in records} == {"mixed"}

    @pytest.mark.parametrize("batch_size", [None, 256])
    def test_change_points_reported_at_finalize_reach_the_sink(
        self, sine_square_stream, batch_size
    ):
        values, _ = sine_square_stream
        segmenter = api.create("clasp")
        records = _run_operator(segmenter, values, batch_size)
        change_points = [record.value.change_point for record in records]
        assert segmenter.change_points.size
        assert change_points == segmenter.change_points.tolist()
        assert {record.value.at for record in records} == {values.shape[0]}
        assert {record.timestamp for record in records} == {values.shape[0] - 1}
