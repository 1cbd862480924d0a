"""Integration tests for the ClaSS streaming segmenter (Algorithm 1).

Every test runs on both scoring paths: in-process, and with a scorer
process forked once the window is live (:mod:`repro.core.scorer_link`).
"""

import numpy as np
import pytest

from repro.core.class_segmenter import ChangePointReport, ClaSS
from repro.core.multivariate import MultivariateClaSS
from repro.utils.exceptions import ConfigurationError, ValidationError


@pytest.fixture(autouse=True, params=["in_process_scoring", "pipelined_scoring"])
def scoring_path(request):
    request.getfixturevalue(request.param)


class TestConstruction:
    def test_rejects_width_larger_than_quarter_window(self):
        with pytest.raises(ConfigurationError):
            ClaSS(window_size=100, subsequence_width=40)

    def test_retired_cross_val_keyword_is_rejected(self):
        # one scoring path: the keyword is gone, with no shim
        with pytest.raises(TypeError):
            ClaSS(cross_val_implementation="fast")

    def test_rejects_bad_score_threshold(self):
        with pytest.raises(ConfigurationError):
            ClaSS(score_threshold=1.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            ClaSS(window_size=5)


class TestDetection:
    def test_detects_shape_change(self, sine_square_stream):
        values, true_cp = sine_square_stream
        segmenter = ClaSS(
            window_size=1_500, subsequence_width=25, scoring_interval=25
        )
        detected = segmenter.process(values)
        assert detected.shape[0] >= 1
        assert any(abs(cp - true_cp) < 150 for cp in detected)

    def test_detects_frequency_change(self, frequency_shift_stream):
        values, true_cp = frequency_shift_stream
        segmenter = ClaSS(window_size=1_200, subsequence_width=20, scoring_interval=25)
        detected = segmenter.process(values)
        assert any(abs(cp - true_cp) < 150 for cp in detected)

    def test_no_false_positives_on_stationary_noise(self, stationary_noise):
        segmenter = ClaSS(window_size=1_200, subsequence_width=25, scoring_interval=25)
        assert segmenter.process(stationary_noise).shape[0] == 0

    def test_no_false_positives_on_pure_periodic_signal(self, rng):
        values = np.sin(2 * np.pi * np.arange(3_000) / 40) + rng.normal(0, 0.05, 3_000)
        segmenter = ClaSS(window_size=1_500, subsequence_width=40, scoring_interval=25)
        assert segmenter.process(values).shape[0] == 0

    def test_learns_width_automatically(self, sine_square_stream):
        values, true_cp = sine_square_stream
        segmenter = ClaSS(window_size=1_400, scoring_interval=25)
        detected = segmenter.process(values)
        assert segmenter.subsequence_width_ is not None
        assert segmenter.subsequence_width_ >= 10
        assert any(abs(cp - true_cp) < 200 for cp in detected)

    def test_multiple_change_points(self, rng):
        t = np.arange(1_200)
        values = np.concatenate(
            [
                np.sin(2 * np.pi * t / 30),
                2.0 * np.sign(np.sin(2 * np.pi * t / 75)),
                np.sin(2 * np.pi * t / 14),
            ]
        ) + rng.normal(0, 0.08, 3_600)
        segmenter = ClaSS(window_size=1_500, subsequence_width=30, scoring_interval=30)
        detected = segmenter.process(values)
        assert detected.shape[0] >= 2
        assert any(abs(cp - 1_200) < 200 for cp in detected)
        assert any(abs(cp - 2_400) < 200 for cp in detected)

    def test_detection_is_causal_and_low_latency(self, sine_square_stream):
        values, true_cp = sine_square_stream
        segmenter = ClaSS(window_size=1_500, subsequence_width=25, scoring_interval=10)
        segmenter.process(values)
        assert len(segmenter.reports) >= 1
        report = segmenter.reports[0]
        assert isinstance(report, ChangePointReport)
        assert report.detected_at > report.change_point
        # detected within a fraction of the second segment (Figure 1 behaviour)
        assert report.detection_delay < 800


class TestBehaviour:
    def test_change_points_strictly_increasing(self, rng):
        t = np.arange(900)
        values = np.concatenate(
            [np.sin(2 * np.pi * t / 25), np.sign(np.sin(2 * np.pi * t / 70)),
             np.sin(2 * np.pi * t / 12)]
        ) + rng.normal(0, 0.1, 2_700)
        segmenter = ClaSS(window_size=1_200, subsequence_width=25, scoring_interval=25)
        detected = segmenter.process(values)
        assert np.all(np.diff(detected) > 0)

    def test_segments_property(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = ClaSS(window_size=1_500, subsequence_width=25, scoring_interval=25)
        segmenter.process(values)
        segments = segmenter.segments
        assert segments[0][0] == 0
        for (start_a, end_a), (start_b, _) in zip(segments, segments[1:]):
            assert end_a == start_b

    def test_scoring_interval_reduces_work_but_keeps_detection(self, sine_square_stream):
        values, true_cp = sine_square_stream
        fine = ClaSS(window_size=1_500, subsequence_width=25, scoring_interval=5)
        coarse = ClaSS(window_size=1_500, subsequence_width=25, scoring_interval=100)
        fine_cps = fine.process(values)
        coarse_cps = coarse.process(values)
        assert any(abs(cp - true_cp) < 150 for cp in fine_cps)
        assert any(abs(cp - true_cp) < 200 for cp in coarse_cps)

    def test_last_profile_exposed(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = ClaSS(window_size=1_200, subsequence_width=25, scoring_interval=25)
        segmenter.process(values[:2_000])
        profile = segmenter.last_profile
        assert profile is not None
        assert profile.subsequence_width == 25
        dense = profile.dense()
        assert np.nanmax(dense) <= 1.0

    def test_score_now_forces_profile(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = ClaSS(window_size=1_200, subsequence_width=25, scoring_interval=10_000)
        segmenter.process(values[:1_000])
        assert segmenter.score_now() is not None

    def test_finalise_on_short_stream_without_width(self, rng):
        values = np.concatenate(
            [
                np.sin(2 * np.pi * np.arange(400) / 20),
                np.sign(np.sin(2 * np.pi * np.arange(400) / 50)),
            ]
        ) + rng.normal(0, 0.05, 800)
        segmenter = ClaSS(window_size=5_000, scoring_interval=20)
        segmenter.process(values)
        # stream shorter than the window: warm-up never finished, finalise learns w
        detected = segmenter.finalise()
        assert isinstance(detected, np.ndarray)

    def test_relearn_width_mode_runs(self, sine_square_stream):
        values, true_cp = sine_square_stream
        segmenter = ClaSS(
            window_size=1_500, subsequence_width=25, scoring_interval=50, relearn_width=True
        )
        detected = segmenter.process(values)
        assert any(abs(cp - true_cp) < 200 for cp in detected)

    def test_similarity_variants_detect_shape_change(self, sine_square_stream):
        values, true_cp = sine_square_stream
        for measure in ("euclidean", "cid"):
            segmenter = ClaSS(
                window_size=1_200, subsequence_width=25, scoring_interval=50, similarity=measure
            )
            detected = segmenter.process(values)
            assert any(abs(cp - true_cp) < 250 for cp in detected), measure

    def test_n_seen_counts_everything(self, stationary_noise):
        segmenter = ClaSS(window_size=1_000, subsequence_width=20, scoring_interval=100)
        segmenter.process(stationary_noise)
        assert segmenter.n_seen == stationary_noise.shape[0]

    def test_non_finite_value_raises_before_the_knn_mutates(self, stationary_noise):
        segmenter = ClaSS(window_size=1_000, subsequence_width=20)
        segmenter.process(stationary_noise[:1_200])
        window = segmenter._knn.window.copy()
        dirty = stationary_noise[1_200:1_700].copy()
        dirty[300] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            segmenter.process(dirty)
        # the run is validated whole: none of its values reached the k-NN
        assert segmenter.n_seen == segmenter._knn.n_seen == 1_200
        np.testing.assert_array_equal(segmenter._knn.window, window)

    def test_non_finite_value_in_the_warmup_raises_before_it_is_buffered(self, stationary_noise):
        # a learned width: the warm-up buffer must not take the NaN in
        segmenter = ClaSS(window_size=1_000)
        segmenter.process(stationary_noise[:400])
        dirty = stationary_noise[400:1_400].copy()
        dirty[100] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            segmenter.process(dirty)
        assert segmenter.n_seen == len(segmenter._prefix) == 400
        assert segmenter._knn is None
        # a clean retry finishes the warm-up as if the bad call never happened
        segmenter.process(stationary_noise[400:1_400])
        reference = ClaSS(window_size=1_000)
        reference.process(stationary_noise[:1_400])
        assert segmenter.n_seen == segmenter._knn.n_seen == reference.n_seen
        assert segmenter.subsequence_width_ == reference.subsequence_width_
        assert segmenter.warmup_end == reference.warmup_end == 1_000

    def test_non_finite_first_value_leaves_a_configured_width_segmenter_fresh(
        self, stationary_noise
    ):
        segmenter = ClaSS(window_size=1_000, subsequence_width=20)
        with pytest.raises(ConfigurationError, match="finite"):
            segmenter.update(float("nan"))
        assert segmenter.n_seen == 0 and not segmenter._prefix and segmenter._knn is None
        segmenter.process(stationary_noise[:2_000])
        assert segmenter.n_seen == segmenter._knn.n_seen == 2_000
        assert [event.kind for event in segmenter.events()][:1] == ["warmup"]

    @pytest.mark.parametrize("rows", [1, 100])
    def test_non_finite_value_in_one_channel_raises_before_any_channel_ingests(
        self, stationary_noise, rows
    ):
        segmenter = MultivariateClaSS(n_channels=3, window_size=1_000, subsequence_width=20)
        values = np.stack([stationary_noise[:1_100]] * 3, axis=1)
        segmenter.process(values[:1_000])
        dirty = values[1_000 : 1_000 + rows].copy()
        dirty[-1, 2] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            if rows == 1:
                segmenter.update(dirty[0])
            else:
                segmenter.process(dirty)
        assert [channel.n_seen for channel in segmenter.segmenters] == [1_000] * 3
        assert segmenter.n_seen == 1_000
