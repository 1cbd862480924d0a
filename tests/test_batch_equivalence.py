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

import base64
import hashlib
import pickle
import zlib

import numpy as np
import pytest

from repro.competitors import get_competitor
from repro.competitors.floss import FLOSS
from repro.competitors.page_hinkley import PageHinkley
from repro.core.class_segmenter import ClaSS
from repro.core.multivariate import MultivariateClaSS
from repro.core.streaming_knn import StreamingKNN
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


def regimes(seed, n, shortest, longest, rise=0.5):
    """Mean shifts of 1-4 units every ``shortest``-``longest`` points, noise sd 0.5.

    ``rise`` is the share of upward shifts.
    """
    rng = np.random.default_rng(seed)
    parts, level, total = [], 0.0, 0
    while total < n:
        length = int(rng.integers(shortest, longest))
        level += rng.uniform(1.0, 4.0) * (1.0 if rng.random() < rise else -1.0)
        parts.append(rng.normal(level, 0.5, length))
        total += length
    return np.concatenate(parts)[:n]


#: Page-Hinkley cases: the detector's arguments and the ``regimes`` stream.
#: Every stream has detections on the first and on the last value of a chunk
#: of 7 and of 256 points; the warm-up case's warm-up spans chunks.
PAGE_HINKLEY_CASES = {
    "two-sided": ({"threshold": 20.0}, (2, 20_000, 150, 600, 0.5)),
    "one-sided": ({"threshold": 20.0, "two_sided": False}, (5, 20_000, 150, 600, 1.0)),
    "warm-up": ({"threshold": 20.0, "min_observations": 2_000}, (216, 60_000, 2_100, 3_000, 0.5)),
}

# Recorded with the per-value Page-Hinkley test of commit 0ef3247, fed by
# ``update``: the change points, a sha256 of the detection scores'
# ``float.hex()`` joined by spaces, the final running count, ``float.hex()``
# of the final running mean, M2, up-sum and its minimum, down-sum and its
# maximum, and ``last_score``, and a sha256 of ``pickle.dumps(save_state(),
# protocol=4)``.  A reordered float operation changes them.
# fmt: off
PAGE_HINKLEY_GOLDEN = {
    "two-sided": {
        "change_points": [
            528, 797, 1003, 1323, 1568, 2025, 2317, 2782, 3254, 3817, 4083, 4239, 4580,
            5120, 5417, 6016, 6393, 6606, 6886, 7227, 7709, 8023, 8489, 9054, 9375, 9943,
            10399, 10795, 11387, 11653, 11906, 12286, 12639, 13068, 13611, 14119, 14374,
            14573, 15030, 15116, 15678, 15934, 16247, 16404, 16593, 17064, 17259, 17407,
            17774, 18264, 18821, 19413, 19780,
        ],
        "scores": "028c7ae76ef64679c497d03b8c1236d19a5e216e73faf7ff804d762635d32457",
        "count": 219,
        "final": [
            "-0x1.884c65a5b4bcdp+5", "0x1.98db5c9bedbd2p+5", "-0x1.26f5f0e8c0d51p+3",
            "-0x1.3ab680bfbb6fep+3", "-0x1.d4524837e8128p+2", "0x1.cdb4408d69a98p+0",
            "0x1.d2ff79e29b972p-2",
        ],
        "state": "7657d80a56c499d07d08fb89b3445f28f56f9580b11f07ef72a61dcc28142344",
    },
    "one-sided": {
        "change_points": [
            452, 965, 1314, 1780, 2192, 2756, 3072, 3588, 3658, 3872, 4070, 4650, 4951,
            5309, 5881, 6290, 6852, 7277, 7441, 7707, 7981, 8270, 8846, 9292, 9819, 10327,
            10776, 11253, 11676, 11958, 12449, 12990, 13581, 14093, 14593, 14847, 15099,
            15258, 15773, 16267, 16533, 17105, 17437, 17658, 18178, 18380, 18620, 18956,
            19516, 19705,
        ],
        "scores": "415a8e6172e2b9591ff5fae6ec5f0138d784ca32ab41253b85840974d654bd4e",
        "count": 294,
        "final": [
            "0x1.e697e1f44033fp+6", "0x1.2fe6fb91bd99cp+6", "-0x1.6f6905a247bcbp+3",
            "-0x1.c6202d24a0b11p+3", "-0x1.1a9c38d57ae79p+3", "0x0.0p+0",
            "0x1.157d4b3ab6413p-3",
        ],
        "state": "a359323ac590184d5992ebd5332d81b433c634728739eb3727880b70e5379c84",
    },
    "warm-up": {
        "change_points": [
            2878, 5012, 7041, 9065, 11078, 13568, 15888, 17919, 19936, 21943, 23952, 26247,
            28277, 30371, 32383, 34487, 36670, 39240, 41900, 44661, 47373, 50037, 52729,
            55077, 57127, 59155,
        ],
        "scores": "22acc8dfb288d6ccfe2b54295fdf94e94aabfd0524f2ea7c863d98d204611881",
        "count": 844,
        "final": [
            "0x1.c5ae9573c70a5p+2", "0x1.8357d9528b5dep+7", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.005055771d942p+0",
        ],
        "state": "b30b9eb8d096d045ba9b41839209139c150435b4733cce7f5347523ca4076043",
    },
}
# fmt: on

#: ``save_state()`` payloads the same per-value test wrote before the value
#: at index ``len(stream) // 2 + 3`` (pickle protocol 4, zlib, base64).
PAGE_HINKLEY_CHECKPOINTS = {
    "two-sided": (
        "eNpVkm1IU1EYx1drM9ecW65yQ6fDZk7LVCokDSWCEfJ8SaH6kIfrdnQXd+9d9yV7wdCglw+n"
        "F+lYXyot6FXyQ0YRRQYVoqBBQUZBkWTSK2pJGEQ9bgR1P/3O//+c53nu4d+2oBPMpsTXyguY"
        "tVFRJUHnbLFK46pSHI7ScHNcEWV9dSlnCyNUp2FdUTmzx4Umuioqys0xuoczi6YLOuVzLVKI"
        "TDRKZQ4ZK5iDhKOC3ERJoofGd/ACcM6HbDN8MkORBXKt8CEF0lLhtQ1u2eGDA76lw3EnvHOB"
        "yQ3BJdC2DGYzYcQD771QkQXZPtiaA0E/1OdB13IYzafMSZJbiYpMdFGiySGu+eAzw2czrLSA"
        "3wofU8CRCm9scNsOHx3wPR1OOGHcBfPcULgE2pfBz0x44oEJL1Rmgc8H23Kg0A8kD7qXwwsc"
        "4vpniBZW1OSUUNXU1vryS2urQ1WTIe+v4JUTqEx4cvtmDqHi6el+sf0GKtdKHk0WOhGetjwf"
        "+PoTYeDb/pQN67BmKGf19Z6XqEBpz8PO9ajcPGppnXAgFKZlNDZModUcu3NzZhohd9z1+8wF"
        "hN6LgftdfVizcfhz0S2CcL7OVDKSj5b/3KcOz8ZQ1fSr+rCv7ABaUz3RhzU/EGYqxq7umEUY"
        "HWy8HXuGcPTO49nyYYRTh9V+tROhrjWj7wjuPG0KLthZgn0m2+cdvld5ljJbTND05L/zUNUg"
        "nO4YOr2UWSI0pgso6Hvfhnrd+1iqHsXHiSqxCA9Vr0kGizklUSZKg0bVXcLcE2q8xoeVLQrR"
        "xAiN8CPMSuYCpHHmSebO0MWYVqwasizKTX89+5bkuTZxPMmD7YnAWUlYMWSd11QwC5GoIPPQ"
        "g3J2tzLdvYmZiVSGi5TljB1b6q0zGuYCaUhGDNfYRYkRR8/2RXf3Vw+yRQS3FCVDSsj9YyOB"
        "gz8mN2O8/rkQUVqwe3Va7ct9gcsBlkYkYXfiyv+GYRT/AVS+Wp0="
    ),
    "one-sided": (
        "eNpNkmtIk2EUx11zc8652TQr29yy0dULXehbWX1w0TxZdpMuPLxuT+6lve+79r6vlhFkVBA8"
        "ZOrT7UNfCoroRiQlhHbBdcEgCCLoHqUSBmVNQpPqbCvo+fQ7/3Oec87z8N+XeWypMSN19vLZ"
        "zLxdiUmCxpkzRqMxpTwYpsEdUUWUtYr5nFlCVKNBTYlxZosKDbQsLMo7InQ3ZyZVEzTKky2y"
        "iExUSmUO+bOYnQTDgtxASaqHyrfx2dBrgLgRSkyQMMNRC/RaIcMGmXZYZQevAwYcMNcJm/Kh"
        "uwBGC6F9CvQWgeSCiW6YVgxlHljthSMlUO2DLTMpyyPplURFJpoo0fSEuAHuG2GGCUbM0GaB"
        "uBUMNjDZIWCH6Q4YdMA8J9TlQ08BjBVCxxSIF4HsAqcbXMVQ7oEaL7SWAPhgK06Y+N8ENajE"
        "0iP8lcPeRP+epx/8lV9f3TU1ywFUZg6qoR9uVEhp/bmDG1DJPVNiH69BWPlidFKGHcGSeFb3"
        "5CHWhJfzxS1DCKuzH99ovY7w2Xogq38JQs61s3r2L4QGyf1I/Y5wWDn7sA+V4a7xCz3fnqDy"
        "5tJC16c1qJz+2ddZPRXBVcpPPjYgCO2jZb9fYs1Vz8ih8UMIW2tbfOcAYclQxYQTgwjrE1+e"
        "H/Ng8eTN5zsLb6Ey8DvefW8SKtNO9WyMX6bMGhFULf1k7q98UBWsyt75jplCNKIJKGjN7/1X"
        "CvawbC2MfxJWIiHuX7Yo7SSWJ4kyUepVGmsUkj+n8kAxVjYpRBVDNMQPMzNJOkblbGraaLom"
        "RtTymC7LotzwL2erTcfrUmEHn9OScpiZBBVd1njgJjMRiQoyTq7x9HLffh8zEmkBhivXjult"
        "07v0+qQDdUmP4BqNlOhRzFnJa3r8rZnlENxSlHQpJd9+dmek9XxzO1rqvwshpSnZPb/uo765"
        "7wjLJZKwK3Xlb8K74po/fjGq6+V/AKfMVqo="
    ),
    "warm-up": (
        "eNpVUU1oE0EUjj9J1bSatl5qQMFAqcRGqhZEIbEHu16eghJEIU43u5PsprszYXcm1UrBBqQV"
        "phLrVD1Z8GC9qBehXhQtBcFTD3pvoCcpUg+edbKrkr7T9773vvfezHd394LYGQliSg6IWIl6"
        "rs6k6PFw1aMZw8LGeJXahJ0YkmKPiRk2GPWk6KzqZTxo2WTcwbeliPpMZ1i2RnQggnyMiYRT"
        "XOxHhqWTMkbBDF8W5ABk4yB7YToJdgpG0xAZhkQWfl+AdYDlPDQKMFMCTrBIoHCdTQlitotD"
        "dS4OC71QT0IlBVoadgxDdxYio9AEeJeHhwWYLUFNqbvb1L5BvVCu5bYunmk2lmMKpB8vvRm6"
        "psDTzx9W7hUVuNw4+2SsX8v93Nh6dmn1o2KOLPbPbdQUKNcnk28NBY7OL/7YvKFA/UVkauWQ"
        "aj7e436/f0AxX7oqL2ceKBBf7xu5Oa8AZ99Gfj3HYp+j+yw8Q/6nRdTEDtMVwSab2uuDd8Re"
        "Zqk7LeqYUjt/OnRFJFybIFr0sVfTW6/xJax1qNYJinzbxKacFTHU+n5fir7QNc5sx894nBCb"
        "lP/VOq+E+dUgfSSPTQd2xZBBOWES3sdEFLlYJ2p36vqrsXOH82IXck+qdO5TZWnta5UXW35y"
        "lzvqkBpGvCq1yN8QcaTutF3ubqcT7QKTTpC2Whdy9VuBZHuB88wf4gD/Aw=="
    ),
}


def page_hinkley_outputs(detector):
    """Everything a Page-Hinkley run leaves: detections, scores, state bytes."""
    return (
        detector.change_points.tolist(),
        detector.detection_times.tolist(),
        [score.hex() for score in detector._detection_scores],
        detector.last_score.hex(),
        pickle.dumps(detector.save_state()),
    )


def page_hinkley_digest(detector):
    """A Page-Hinkley run in the form of :data:`PAGE_HINKLEY_GOLDEN`."""
    stats = detector._stats
    scores = " ".join(score.hex() for score in detector._detection_scores)
    final = (
        stats._mean,
        stats._m2,
        detector._cumulative_up,
        detector._minimum_up,
        detector._cumulative_down,
        detector._maximum_down,
        detector.last_score,
    )
    return {
        "change_points": detector.change_points.tolist(),
        "scores": hashlib.sha256(scores.encode()).hexdigest(),
        "count": stats.count,
        "final": [value.hex() for value in final],
        "state": hashlib.sha256(pickle.dumps(detector.save_state(), protocol=4)).hexdigest(),
    }


def feed_chunked(segmenter, values, chunk_size):
    """Drive ClaSS's batch path, accumulating each call's new detections."""
    detected = []
    for start in range(0, values.shape[0], chunk_size):
        got = segmenter.process(values[start : start + chunk_size], chunk_size=chunk_size)
        detected.extend(np.atleast_1d(got).tolist())
    return detected


class TestStreamingKNNEquivalence:
    @pytest.mark.parametrize("similarity", ("pearson", "euclidean", "cid"))
    def test_tables_bit_identical_for_any_chunking(self, rng, similarity):
        values = stream(rng, 1_500)
        reference = StreamingKNN(window_size=300, subsequence_width=15, similarity=similarity)
        for value in values:
            reference.update(float(value))
        for chunk_size in CHUNKINGS:
            knn = StreamingKNN(window_size=300, subsequence_width=15, similarity=similarity)
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

    @pytest.mark.parametrize("scoring_interval", (1, 3, 5, 25))
    def test_scoring_intervals(self, rng, scoring_interval):
        values = stream(rng)
        reference, detected = self.reference_run(values, scoring_interval=scoring_interval)
        for chunk_size in CHUNKINGS:
            segmenter = ClaSS(window_size=1_000, scoring_interval=scoring_interval)
            assert feed_chunked(segmenter, values, chunk_size) == detected
            self.assert_identical(reference, segmenter)

    @pytest.mark.parametrize("scoring_interval, similarity", [(10, "euclidean"), (7, "cid")])
    def test_scoring_intervals_other_measures(self, rng, scoring_interval, similarity):
        # chunked runs advance the k-NN a scoring interval per send(), in
        # blocks once the window is saturated
        config = dict(scoring_interval=scoring_interval, similarity=similarity)
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

    @pytest.mark.parametrize("case", PAGE_HINKLEY_CASES)
    def test_page_hinkley_chunks_match_update(self, case):
        kwargs, stream_args = PAGE_HINKLEY_CASES[case]
        values = regimes(*stream_args)
        reference = PageHinkley(**kwargs)
        for value in values:
            reference.update(float(value))
        times = reference.detection_times
        for size in (7, 256):  # a detection on a chunk's last and on its first value
            assert (times % size == 0).any() and (times % size == 1).any()
        expected = page_hinkley_outputs(reference)
        for chunk_size in (1, 7, 256, values.shape[0]):
            chunked = PageHinkley(**kwargs)
            chunked.process(values, chunk_size=chunk_size)
            assert page_hinkley_outputs(chunked) == expected

    @pytest.mark.parametrize("case", PAGE_HINKLEY_CASES)
    def test_page_hinkley_keeps_the_recorded_arithmetic(self, case):
        kwargs, stream_args = PAGE_HINKLEY_CASES[case]
        values = regimes(*stream_args)
        pointwise = PageHinkley(**kwargs)
        for value in values:
            pointwise.update(float(value))
        chunked = PageHinkley(**kwargs)
        chunked.process(values)
        assert page_hinkley_digest(pointwise) == PAGE_HINKLEY_GOLDEN[case]
        assert page_hinkley_digest(chunked) == PAGE_HINKLEY_GOLDEN[case]

    @pytest.mark.parametrize("case", PAGE_HINKLEY_CASES)
    def test_page_hinkley_finishes_a_recorded_checkpoint(self, case):
        kwargs, stream_args = PAGE_HINKLEY_CASES[case]
        values = regimes(*stream_args)
        recorded = zlib.decompress(base64.b64decode(PAGE_HINKLEY_CHECKPOINTS[case]))
        resumed = PageHinkley(**kwargs)
        resumed.load_state(pickle.loads(recorded))
        assert resumed.n_seen == values.shape[0] // 2 + 3
        assert pickle.dumps(resumed.save_state(), protocol=4) == recorded
        resumed.process(values[resumed.n_seen :], chunk_size=256)
        assert page_hinkley_digest(resumed) == PAGE_HINKLEY_GOLDEN[case]

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
