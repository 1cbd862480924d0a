"""Batch-vs-pointwise equivalence of the chunked ingestion engine.

The chunked ingestion contract promises that feeding a stream through the
batch APIs — ``StreamingKNN.update_many``, ``ClaSS.process(values,
chunk_size=...)``, ``StreamSegmenter.process_chunk``, the engine's record
batches — is *bit-identical* to feeding it one observation at a time, for
every configuration: all three k-NN modes, scoring intervals larger than
one, streams shorter than the warm-up window, and the concept-drift
``relearn_width`` mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.competitors import get_competitor
from repro.competitors.floss import FLOSS
from repro.core.class_segmenter import ClaSS
from repro.core.multivariate import MultivariateClaSS
from repro.core.streaming_knn import KNN_MODES, StreamingKNN
from repro.streamengine import run_class_pipeline

#: Chunkings exercised against the per-point reference; deliberately ragged
#: so chunk boundaries fall before, on and after scoring/compaction points.
CHUNKINGS = (1, 7, 256, 1000)


def stream(rng, n=2_000):
    """A two-state stream with a change point in the middle."""
    half = n // 2
    t = np.arange(half)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / 25), 2.0 * np.sign(np.sin(2 * np.pi * t / 60))]
    )
    return values + rng.normal(0.0, 0.1, 2 * half)


def feed_chunked(segmenter, values, chunk_size):
    """Drive ClaSS's batch path, accumulating each call's new detections."""
    detected = []
    for start in range(0, values.shape[0], chunk_size):
        got = segmenter.process(values[start : start + chunk_size], chunk_size=chunk_size)
        detected.extend(np.atleast_1d(got).tolist())
    return detected


class TestStreamingKNNEquivalence:
    @pytest.mark.parametrize("mode", KNN_MODES)
    @pytest.mark.parametrize("similarity", ("pearson", "euclidean", "cid"))
    def test_tables_bit_identical_for_any_chunking(self, rng, mode, similarity):
        values = stream(rng, 1_500)
        reference = StreamingKNN(
            window_size=300, subsequence_width=15, mode=mode, similarity=similarity
        )
        for value in values:
            reference.update(float(value))
        for chunk_size in CHUNKINGS:
            knn = StreamingKNN(
                window_size=300, subsequence_width=15, mode=mode, similarity=similarity
            )
            for start in range(0, values.shape[0], chunk_size):
                for _ in knn.update_many(values[start : start + chunk_size]):
                    pass
            assert np.array_equal(reference.knn_indices, knn.knn_indices)
            assert np.array_equal(reference.knn_similarities, knn.knn_similarities)
            assert np.array_equal(
                reference.last_similarity_profile, knn.last_similarity_profile
            )
            assert reference.n_seen == knn.n_seen
            assert reference.n_evicted == knn.n_evicted

    def test_ragged_mixed_chunk_sizes(self, rng):
        values = stream(rng, 1_200)
        reference = StreamingKNN(window_size=250, subsequence_width=12)
        for value in values:
            reference.update(float(value))
        knn = StreamingKNN(window_size=250, subsequence_width=12)
        position = 0
        for size in (1, 3, 499, 250, 2, 445):
            for _ in knn.update_many(values[position : position + size]):
                pass
            position += size
        assert position == values.shape[0]
        assert np.array_equal(reference.knn_indices, knn.knn_indices)
        assert np.array_equal(reference.knn_similarities, knn.knn_similarities)


class TestClaSSEquivalence:
    def reference_run(self, values, window_size=1_000, **kwargs):
        segmenter = ClaSS(window_size=window_size, **kwargs)
        detected = [
            cp for value in values if (cp := segmenter.update(float(value))) is not None
        ]
        return segmenter, detected

    def assert_identical(self, a: ClaSS, b: ClaSS):
        assert [
            (r.change_point, r.detected_at, r.score, r.p_value) for r in a.reports
        ] == [(r.change_point, r.detected_at, r.score, r.p_value) for r in b.reports]
        assert a.subsequence_width_ == b.subsequence_width_
        if a._knn is not None:
            assert np.array_equal(a._knn.knn_indices, b._knn.knn_indices)
            assert np.array_equal(a._knn.knn_similarities, b._knn.knn_similarities)

    @pytest.mark.parametrize("knn_mode", KNN_MODES)
    def test_all_knn_modes(self, rng, knn_mode):
        values = stream(rng)
        reference, detected = self.reference_run(values, scoring_interval=5, knn_mode=knn_mode)
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, scoring_interval=5, knn_mode=knn_mode)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)

    @pytest.mark.parametrize("scoring_interval", (1, 3, 25))
    def test_scoring_intervals(self, rng, scoring_interval):
        values = stream(rng)
        reference, detected = self.reference_run(values, scoring_interval=scoring_interval)
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, scoring_interval=scoring_interval)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)

    @pytest.mark.parametrize(
        "scoring_interval, similarity, knn_mode",
        [
            (10, "euclidean", "streaming"),
            (7, "cid", "streaming"),
            (13, "pearson", "fft"),
            (10, "pearson", "recompute"),
        ],
    )
    def test_scoring_intervals_other_measures_and_modes(
        self, rng, scoring_interval, similarity, knn_mode
    ):
        # chunked runs advance the k-NN a scoring interval per send(): blocks
        # for saturated numpy "streaming", per-point steps for the other modes
        config = dict(scoring_interval=scoring_interval, similarity=similarity, knn_mode=knn_mode)
        values = stream(rng)
        reference, detected = self.reference_run(values, **config)
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, **config)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)

    def test_threshold_pruned_passes(self, rng):
        # regions of over 1,024 splits: the score-threshold bound skips passes
        values = stream(rng, 3_000)
        config = dict(window_size=1_500, subsequence_width=20, scoring_interval=3)
        reference, detected = self.reference_run(values, **config)
        assert detected
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(**config)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)
            assert segmenter.current_score == reference.current_score

    def test_stream_shorter_than_warmup(self, rng):
        values = stream(rng, 600)  # warm-up needs window_size=1000 observations
        reference = ClaSS(window_size=1_000, scoring_interval=5)
        for value in values:
            assert reference.update(float(value)) is None
        reference.finalise()
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, scoring_interval=5)
            assert feed_chunked(segmenter, values, chunk_size) == []
            segmenter.finalise()
            assert segmenter.change_points.tolist() == reference.change_points.tolist()
            assert segmenter.subsequence_width_ == reference.subsequence_width_

    def test_relearn_width(self, rng):
        values = stream(rng)
        reference, detected = self.reference_run(
            values, scoring_interval=7, relearn_width=True
        )
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, scoring_interval=7, relearn_width=True)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)

    def test_explicit_subsequence_width_skips_warmup(self, rng):
        values = stream(rng)
        reference, detected = self.reference_run(
            values, scoring_interval=5, subsequence_width=20
        )
        segmenter = ClaSS(window_size=1_000, scoring_interval=5, subsequence_width=20)
        assert feed_chunked(segmenter, values, 256) == detected
        self.assert_identical(reference, segmenter)

    def test_update_is_single_element_process(self, rng):
        values = stream(rng, 1_400)
        a = ClaSS(window_size=700, scoring_interval=5)
        b = ClaSS(window_size=700, scoring_interval=5)
        for value in values:
            cp_a = a.update(float(value))
            batch = b.process(np.asarray([value]))
            cp_b = int(batch[-1]) if batch.size else None
            assert cp_a == cp_b


class TestMultivariateEquivalence:
    def test_fused_reports_identical(self, rng):
        n = 1_600
        channels = np.stack(
            [stream(rng, n), stream(rng, n), rng.normal(0.0, 1.0, n)], axis=1
        )
        kwargs = dict(
            n_channels=3,
            min_votes=2,
            fusion_tolerance=400,
            window_size=700,
            scoring_interval=5,
        )
        reference = MultivariateClaSS(**kwargs)
        for row in channels:
            reference.update(row)
        for chunk_size in (1, 128, 500):
            ensemble = MultivariateClaSS(**kwargs)
            ensemble.process(channels, chunk_size=chunk_size)
            assert np.array_equal(reference.change_points, ensemble.change_points)
            assert [
                (f.change_point, f.detected_at, tuple(f.supporting_channels))
                for f in reference.fused_reports
            ] == [
                (f.change_point, f.detected_at, tuple(f.supporting_channels))
                for f in ensemble.fused_reports
            ]


class TestCompetitorEquivalence:
    @pytest.mark.parametrize("name", ("ADWIN", "Window", "BOCD", "NEWMA"))
    def test_default_chunk_handler_matches_pointwise(self, rng, name):
        values = stream(rng, 1_500)
        reference = get_competitor(name)
        for value in values:
            reference.update(float(value))
        chunked = get_competitor(name)
        chunked.process(values, chunk_size=256)
        assert np.array_equal(reference.change_points, chunked.change_points)
        assert np.array_equal(reference.detection_times, chunked.detection_times)
        assert reference.n_seen == chunked.n_seen

    @pytest.mark.parametrize("stride", (1, 15))
    def test_floss_batched_knn_matches_pointwise(self, rng, stride):
        values = stream(rng, 2_400)
        reference = FLOSS(window_size=1_000, subsequence_width=25, stride=stride)
        for value in values:
            reference.update(float(value))
        for chunk_size in (1, 256, 1000):
            chunked = FLOSS(window_size=1_000, subsequence_width=25, stride=stride)
            chunked.process(values, chunk_size=chunk_size)
            assert np.array_equal(reference.change_points, chunked.change_points)
            assert np.array_equal(reference.detection_times, chunked.detection_times)


class TestEngineEquivalence:
    def test_batched_pipeline_emits_identical_events(self, small_dataset):
        pointwise = run_class_pipeline(small_dataset, window_size=900, scoring_interval=10)
        batched = run_class_pipeline(
            small_dataset, window_size=900, scoring_interval=10, batch_size=256
        )
        assert np.array_equal(pointwise.change_points, batched.change_points)
        assert np.array_equal(pointwise.detection_delays, batched.detection_delays)
        assert batched.metrics.n_source_records == pointwise.metrics.n_source_records
        assert batched.metrics.n_source_batches == -(-len(small_dataset.values) // 256)
        assert pointwise.metrics.n_source_batches == 0
