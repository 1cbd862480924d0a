"""Unit tests for the competitor base interface and threshold detector."""

import pickle

import numpy as np
import pytest

from repro import api
from repro.api.events import ChangePointEvent, WarmupEvent
from repro.competitors.base import ScoreThresholdDetector, StreamSegmenter
from repro.competitors.page_hinkley import PageHinkley
from repro.utils.exceptions import ConfigurationError


class _StubSegmenter(StreamSegmenter):
    """Reports a change point at every multiple of 100 observations."""

    name = "stub"

    def _update(self, value: float) -> int | None:
        if self._n_seen % 100 == 0:
            return self._n_seen - 10
        return None


class TestStreamSegmenter:
    def test_update_counts_and_collects(self):
        segmenter = _StubSegmenter()
        segmenter.process(np.zeros(350))
        assert segmenter.n_seen == 350
        assert segmenter.change_points.tolist() == [90, 190, 290]
        assert segmenter.detection_times.tolist() == [100, 200, 300]

    def test_non_monotone_reports_are_dropped(self):
        class Backwards(StreamSegmenter):
            name = "backwards"

            def _update(self, value):
                # keeps reporting the same past location over and over
                return 50 if self._n_seen >= 60 else None

        segmenter = Backwards()
        segmenter.process(np.zeros(200))
        assert segmenter.change_points.tolist() == [50]

    def test_future_reports_are_clamped(self):
        class Future(StreamSegmenter):
            name = "future"

            def _update(self, value):
                return self._n_seen + 1_000 if self._n_seen == 10 else None

        segmenter = Future()
        segmenter.process(np.zeros(20))
        assert segmenter.change_points.tolist() == [9]

    def test_segments_property(self):
        segmenter = _StubSegmenter()
        segmenter.process(np.zeros(250))
        assert segmenter.segments == [(0, 90), (90, 190)]

    def test_reset(self):
        segmenter = _StubSegmenter()
        segmenter.process(np.zeros(150))
        segmenter.reset()
        assert segmenter.n_seen == 0
        assert segmenter.change_points.shape[0] == 0


def _many_shifts(n_regimes=400, seed=3):
    """Mean shifts of 1-4 units every 150-600 points: a detection per regime."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(150, 600, size=n_regimes)
    steps = rng.uniform(1.0, 4.0, n_regimes) * rng.choice((-1.0, 1.0), n_regimes)
    return np.repeat(np.cumsum(steps), lengths) + rng.normal(0.0, 0.5, lengths.sum())


def _built_at_once(detector):
    """The events of ``detector``'s detection lists, built in one go."""
    events = [WarmupEvent(at=0)] if detector.n_seen else []
    for change_point, detected_at, score in zip(
        detector.change_points, detector.detection_times, detector._detection_scores
    ):
        events.append(
            ChangePointEvent(at=int(detected_at), change_point=int(change_point), score=score)
        )
    return events


class TestEventBookkeeping:
    """``events()`` builds each detection's event once; the built list is derived."""

    @pytest.mark.parametrize("policy", [None, {"nan_policy": "hold-last"}])
    def test_each_detection_builds_one_event(self, monkeypatch, policy):
        values = _many_shifts()
        if policy is not None:
            for start in range(5_000, values.shape[0], 9_000):
                values[start : start + 40] = np.nan
        built = []
        init = ChangePointEvent.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChangePointEvent, "__init__", counted)
        detector = api.create("page-hinkley", {"threshold": 20.0, "data_policy": policy})
        events = list(api.stream(detector, values, chunk_size=1_024))
        detected = [event for event in events if event.kind == "change_point"]
        assert len(detected) == len(detector.change_points) >= 300
        assert len(built) == len(detected)

    def test_events_match_a_build_from_scratch(self):
        values = _many_shifts(60)
        detector = PageHinkley(threshold=20.0)
        assert detector.events() == []
        assert detector.events() is not detector.events()  # a fresh list each call
        detector.process(values[:10_000])
        early = detector.save_state()
        detector.process(values[10_000:])
        events = detector.events()
        assert len(events) > 40 and events == _built_at_once(detector)
        events.clear()
        assert detector.events() == _built_at_once(detector)

        clone = pickle.loads(pickle.dumps(detector))
        assert clone.events() == _built_at_once(detector)
        detector.load_state(early)
        assert detector.events() == _built_at_once(detector)
        assert len(detector.events()) < len(clone.events())
        detector.reset()
        assert detector.events() == []
        detector.process(values[:10_000])
        assert detector.events() == _built_at_once(detector)

    def test_wrapper_returns_only_each_calls_detections(self):
        values = _many_shifts(60)
        inner = PageHinkley(threshold=20.0)
        inner.process(values[:10_000])  # detections from before the wrapper existed
        before = len(inner.change_points)
        wrapped = api.SanitizingSegmenter(inner, api.DataPolicy(nan_policy="hold-last"))
        returned = [
            wrapped.process(values[start : start + 1_024])
            for start in range(10_000, values.shape[0], 1_024)
        ]
        assert len(inner.change_points) - before > 30
        assert np.concatenate(returned).tolist() == inner.change_points[before:].tolist()

    def test_built_events_are_never_saved(self):
        values = _many_shifts(60)
        watched, unwatched = PageHinkley(threshold=20.0), PageHinkley(threshold=20.0)
        for start in range(0, values.shape[0], 1_024):
            watched.process(values[start : start + 1_024])
            watched.events()
            unwatched.process(values[start : start + 1_024])
        assert len(watched.change_points) > 40
        assert pickle.dumps(watched.save_state()) == pickle.dumps(unwatched.save_state())
        assert pickle.dumps(watched) == pickle.dumps(unwatched)


class TestScoreThresholdDetector:
    def test_triggers_above_threshold(self):
        detector = ScoreThresholdDetector(threshold=0.5, exclusion_zone=10)
        assert not detector.check(0.4, 1)
        assert detector.check(0.6, 2)

    def test_exclusion_zone_suppresses_bursts(self):
        detector = ScoreThresholdDetector(threshold=0.5, exclusion_zone=50)
        assert detector.check(0.9, 100)
        assert not detector.check(0.9, 120)
        assert detector.check(0.9, 151)

    def test_lower_is_change_orientation(self):
        detector = ScoreThresholdDetector(threshold=0.3, exclusion_zone=0, higher_is_change=False)
        assert detector.check(0.2, 1)
        assert not detector.check(0.4, 2)

    def test_negative_exclusion_rejected(self):
        with pytest.raises(ConfigurationError):
            ScoreThresholdDetector(threshold=0.5, exclusion_zone=-1)

    def test_reset_clears_last_report(self):
        detector = ScoreThresholdDetector(threshold=0.5, exclusion_zone=100)
        assert detector.check(0.9, 10)
        detector.reset()
        assert detector.check(0.9, 20)
