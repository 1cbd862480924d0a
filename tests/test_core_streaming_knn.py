"""Unit and property tests for the exact streaming k-NN (Algorithm 2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import streaming_knn
from repro.core.class_segmenter import ClaSS
from repro.core.similarity import SIMILARITY_MEASURES, pairwise_similarity_matrix
from repro.core.streaming_knn import (
    BLOCK_ROWS,
    FFT_BATCH_MIN,
    KNN_MODES,
    PADDING_INDEX,
    StreamingKNN,
    exact_knn_bruteforce,
    exclusion_radius,
)
from repro.utils.exceptions import ConfigurationError


def ingest(knn: StreamingKNN, values) -> None:
    """Drain the chunked ingestion iterator (the post-deprecation `extend`)."""
    for _ in knn.update_many(values):
        pass


class TestConstruction:
    def test_rejects_small_window(self):
        with pytest.raises(ConfigurationError):
            StreamingKNN(window_size=15, subsequence_width=10)

    def test_rejects_tiny_width(self):
        with pytest.raises(ConfigurationError):
            StreamingKNN(window_size=100, subsequence_width=1)

    def test_rejects_bad_similarity(self):
        with pytest.raises(ConfigurationError):
            StreamingKNN(window_size=100, subsequence_width=10, similarity="cosine")

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            StreamingKNN(window_size=100, subsequence_width=10, mode="gpu")

    def test_rejects_non_finite_values(self):
        knn = StreamingKNN(window_size=100, subsequence_width=10)
        with pytest.raises(ConfigurationError):
            knn.update(float("nan"))

    def test_exclusion_radius(self):
        assert exclusion_radius(10) == 15
        assert exclusion_radius(7) == 11


class TestAgainstBruteForce:
    def test_similarities_match_bruteforce_without_eviction(self, rng):
        values = rng.normal(size=260)
        w, k = 12, 3
        knn = StreamingKNN(window_size=values.shape[0], subsequence_width=w, k_neighbours=k)
        ingest(knn, values)
        _, brute_sims = exact_knn_bruteforce(values, w, k)
        stream_sims = knn.knn_similarities
        finite = np.isfinite(brute_sims) & np.isfinite(stream_sims)
        np.testing.assert_allclose(stream_sims[finite], brute_sims[finite], atol=1e-6)
        assert np.array_equal(np.isfinite(brute_sims), np.isfinite(stream_sims))

    def test_last_profile_is_exact_after_eviction(self, rng):
        values = rng.normal(size=400)
        w = 10
        knn = StreamingKNN(window_size=150, subsequence_width=w, k_neighbours=3)
        ingest(knn, values)
        expected = pairwise_similarity_matrix(knn.window, w)[-1]
        np.testing.assert_allclose(knn.last_similarity_profile, expected, atol=1e-8)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=3, max_value=10),
        k=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_matches_bruteforce(self, seed, width, k):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=40 + 10 * width)
        knn = StreamingKNN(window_size=values.shape[0], subsequence_width=width, k_neighbours=k)
        ingest(knn, values)
        _, brute_sims = exact_knn_bruteforce(values, width, k)
        stream_sims = knn.knn_similarities
        finite = np.isfinite(brute_sims) & np.isfinite(stream_sims)
        np.testing.assert_allclose(stream_sims[finite], brute_sims[finite], atol=1e-6)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_profile_exact_under_sliding(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=250)
        w = 8
        knn = StreamingKNN(window_size=90, subsequence_width=w, k_neighbours=2)
        ingest(knn, values)
        expected = pairwise_similarity_matrix(knn.window, w)[-1]
        np.testing.assert_allclose(knn.last_similarity_profile, expected, atol=1e-7)


class TestModesAgree:
    @pytest.mark.parametrize("mode", KNN_MODES)
    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_profiles_identical_across_modes(self, rng, mode, measure):
        values = rng.normal(size=300)
        w = 11
        reference = StreamingKNN(
            window_size=120, subsequence_width=w, mode="streaming", similarity=measure
        )
        other = StreamingKNN(
            window_size=120, subsequence_width=w, mode=mode, similarity=measure
        )
        for value in values:
            reference.update(float(value))
            other.update(float(value))
        np.testing.assert_allclose(
            reference.last_similarity_profile, other.last_similarity_profile, atol=1e-8
        )

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_fft_agrees_with_recompute(self, rng, measure):
        values = rng.normal(size=300)
        w = 11
        fft = StreamingKNN(window_size=120, subsequence_width=w, mode="fft", similarity=measure)
        recompute = StreamingKNN(
            window_size=120, subsequence_width=w, mode="recompute", similarity=measure
        )
        ingest(fft, values)
        ingest(recompute, values)
        np.testing.assert_allclose(
            fft.last_similarity_profile, recompute.last_similarity_profile, atol=1e-8
        )

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_fft_agrees_with_streaming_after_checkpoint_resume(self, rng, measure):
        values = rng.normal(size=480)
        w = 11
        uninterrupted = StreamingKNN(
            window_size=120, subsequence_width=w, mode="fft", similarity=measure
        )
        ingest(uninterrupted, values)
        first_half = StreamingKNN(
            window_size=120, subsequence_width=w, mode="fft", similarity=measure
        )
        ingest(first_half, values[:300])
        resumed = StreamingKNN(
            window_size=120, subsequence_width=w, mode="fft", similarity=measure
        )
        resumed.load_state_dict(first_half.state_dict())
        ingest(resumed, values[300:])
        # resume is bit-identical to never having checkpointed ...
        np.testing.assert_array_equal(
            uninterrupted.last_similarity_profile, resumed.last_similarity_profile
        )
        np.testing.assert_array_equal(uninterrupted.knn_indices, resumed.knn_indices)
        # ... and the fft profiles stay within tolerance of the exact path
        streaming = StreamingKNN(
            window_size=120, subsequence_width=w, mode="streaming", similarity=measure
        )
        ingest(streaming, values)
        np.testing.assert_allclose(
            uninterrupted.last_similarity_profile, streaming.last_similarity_profile, atol=1e-8
        )

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_fft_batch_path_matches_pointwise(self, rng, measure):
        # chunks >= FFT_BATCH_MIN in steady state take the batched transform;
        # the per-point loop is the reference — they must be bit-identical
        values = rng.normal(size=600)
        w = 11
        batched = StreamingKNN(
            window_size=120, subsequence_width=w, mode="fft", similarity=measure
        )
        pointwise = StreamingKNN(
            window_size=120, subsequence_width=w, mode="fft", similarity=measure
        )
        split = 200  # past the warm-up: every later chunk runs in steady state
        ingest(batched, values[:split])
        for start in range(split, values.shape[0], 2 * FFT_BATCH_MIN):
            ingest(batched, values[start : start + 2 * FFT_BATCH_MIN])
        for value in values:
            pointwise.update(float(value))
        np.testing.assert_array_equal(
            batched.last_similarity_profile, pointwise.last_similarity_profile
        )
        np.testing.assert_array_equal(batched.knn_indices, pointwise.knn_indices)
        np.testing.assert_array_equal(batched.knn_similarities, pointwise.knn_similarities)


class TestBookkeeping:
    def test_row_count_grows_then_saturates(self, rng):
        values = rng.normal(size=300)
        knn = StreamingKNN(window_size=100, subsequence_width=10, k_neighbours=3)
        ingest(knn, values)
        assert knn.n_subsequences == 100 - 10 + 1
        assert knn.n_buffered == 100
        assert knn.n_seen == 300

    def test_indices_shift_negative_after_eviction(self, rng):
        values = rng.normal(size=400)
        knn = StreamingKNN(window_size=120, subsequence_width=10, k_neighbours=1)
        ingest(knn, values)
        indices = knn.knn_indices
        # stale neighbours may have negative offsets; none may point past the window
        assert indices.max() < knn.n_subsequences
        assert np.any(indices < knn.n_subsequences)

    def test_exclusion_zone_respected(self, rng):
        values = rng.normal(size=220)
        w, k = 10, 2
        knn = StreamingKNN(window_size=values.shape[0], subsequence_width=w, k_neighbours=k)
        ingest(knn, values)
        excl = exclusion_radius(w)
        indices = knn.knn_indices
        rows = np.arange(indices.shape[0])
        valid = indices > PADDING_INDEX
        distances = np.abs(indices - rows[:, None])
        assert np.all(distances[valid] >= excl)

    def test_reset_clears_state(self, rng):
        knn = StreamingKNN(window_size=100, subsequence_width=10)
        ingest(knn, rng.normal(size=150))
        knn.reset()
        assert knn.n_seen == 0
        assert knn.n_subsequences == 0
        assert knn.last_similarity_profile is None
        ingest(knn, rng.normal(size=150))
        assert knn.n_subsequences > 0

    def test_constant_stream_does_not_crash(self):
        knn = StreamingKNN(window_size=80, subsequence_width=8)
        ingest(knn, np.full(200, 5.0))
        assert np.isfinite(knn.knn_similarities[np.isfinite(knn.knn_similarities)]).all()

    def test_euclidean_and_cid_similarities_are_nonpositive(self, rng):
        values = rng.normal(size=200)
        for measure in ("euclidean", "cid"):
            knn = StreamingKNN(
                window_size=100, subsequence_width=10, similarity=measure, k_neighbours=2
            )
            ingest(knn, values)
            sims = knn.knn_similarities
            assert np.all(sims[np.isfinite(sims)] <= 1e-9)


class TestChunkedIngestion:
    def test_update_many_yields_one_state_per_observation(self, rng):
        values = rng.normal(size=50)
        knn = StreamingKNN(window_size=40, subsequence_width=8)
        states = list(knn.update_many(values))
        assert len(states) == 50
        # warm-up yields False until the first subsequence exists
        assert states[:7] == [False] * 7
        assert all(states[7:])

    def test_update_many_validates_eagerly(self):
        knn = StreamingKNN(window_size=40, subsequence_width=8)
        with pytest.raises(ConfigurationError):
            knn.update_many(np.array([1.0, np.nan]))
        with pytest.raises(ConfigurationError):
            knn.update_many(np.ones((4, 2)))

    def test_intermediate_states_inspectable_between_yields(self, rng):
        values = rng.normal(size=120)
        knn = StreamingKNN(window_size=60, subsequence_width=6)
        reference = StreamingKNN(window_size=60, subsequence_width=6)
        iterator = knn.update_many(values)
        for value in values:
            next(iterator)
            reference.update(float(value))
            assert np.array_equal(knn.knn_indices, reference.knn_indices)

    def test_ring_buffer_window_matches_stream_tail(self, rng):
        # enough values to force several compactions of the backing array
        values = rng.normal(size=1_000)
        knn = StreamingKNN(window_size=90, subsequence_width=9)
        ingest(knn, values)
        np.testing.assert_array_equal(knn.window, values[-90:])
        assert knn.n_evicted == 1_000 - 90


def state_bytes(knn: StreamingKNN) -> list[bytes]:
    """The whole checkpoint payload, byte for byte (stale backing rows included).

    Pickled entry by entry: a restored array may carry an equal but distinct
    dtype object, which changes how one pickle of the whole dict memoises.
    """
    return [pickle.dumps(item) for item in knn.state_dict().items()]


def advance(steps, schedule, n: int) -> None:
    """Advance a fresh ``update_many`` generator over ``n`` values by ``schedule``.

    The first advance is a ``next()`` (one observation); then ``send(size)``
    cycles through ``schedule``, the last send cut to what is left.
    """
    next(steps)
    done = 0
    position = 1
    while position < n:
        size = min(schedule[done % len(schedule)], n - position)
        steps.send(size)
        position += size
        done += 1
    steps.close()


def pass_through(steps):
    """A ``yield from`` wrapper, the shape of a tracer around ``update_many``."""
    yield from steps


def block_values(kind: str, n: int, seed: int) -> np.ndarray:
    """Streams rich in exact similarity ties (quantised, flat, periodic) or plain noise."""
    rng = np.random.default_rng(seed)
    if kind == "quantised":
        return np.round(rng.normal(size=n) * 2.0) / 2.0
    if kind == "flat":
        values = rng.normal(size=n)
        for start in rng.integers(0, n, size=4):
            values[start : start + int(rng.integers(5, 40))] = float(rng.integers(-2, 3))
        return values
    if kind == "periodic":
        period = rng.normal(size=int(rng.integers(2, 9)))
        return np.tile(period, n // period.shape[0] + 1)[:n]
    return rng.normal(size=n)


class TestSendAndBlocks:
    """``send(n)`` advances n observations; saturated numpy blocks are bit-identical."""

    @given(
        width=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=0, max_value=60),
        k=st.integers(min_value=1, max_value=4),
        similarity=st.sampled_from(SIMILARITY_MEASURES),
        kind=st.sampled_from(("noise", "quantised", "flat", "periodic")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunks=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
        schedule=st.lists(
            st.integers(min_value=1, max_value=3 * BLOCK_ROWS), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_bit_identical_to_pointwise(
        self, width, extra, k, similarity, kind, seed, chunks, schedule
    ):
        window = 2 * width + extra
        values = block_values(kind, 4 * window + 40, seed)
        config = dict(
            window_size=window,
            subsequence_width=width,
            k_neighbours=k,
            similarity=similarity,
            kernel_backend="numpy",
        )
        reference = StreamingKNN(**config)
        sent = StreamingKNN(**config)
        position = 0
        index = 0
        # the chunks cycle until the stream (several buffer and table
        # compactions long) is consumed; states must agree after every chunk
        while position < values.shape[0]:
            chunk = values[position : position + chunks[index % len(chunks)]]
            for value in chunk:
                reference.update(float(value))
            advance(sent.update_many(chunk), schedule, chunk.shape[0])
            assert state_bytes(sent) == state_bytes(reference)
            position += chunk.shape[0]
            index += 1

    def test_blocks_run_and_span_more_than_the_exclusion_radius(self, rng, monkeypatch):
        calls = []
        block_step = StreamingKNN._block_step

        def counted(knn, steps):
            calls.append(steps)
            return block_step(knn, steps)

        monkeypatch.setattr(StreamingKNN, "_block_step", counted)
        values = block_values("quantised", 700, 3)
        config = dict(window_size=60, subsequence_width=4, kernel_backend="numpy")
        knn = StreamingKNN(**config)
        advance(knn.update_many(values), [BLOCK_ROWS + 5, 9, 2], values.shape[0])
        reference = StreamingKNN(**config)
        for value in values:
            reference.update(float(value))
        assert state_bytes(knn) == state_bytes(reference)
        assert max(calls) == BLOCK_ROWS > exclusion_radius(4)
        assert min(calls) >= 2

    @pytest.mark.parametrize("limit", (56, 57))
    def test_only_windows_up_to_the_limit_advance_in_blocks(self, monkeypatch, limit):
        calls = []
        block_step = StreamingKNN._block_step

        def counted(knn, steps):
            calls.append(steps)
            return block_step(knn, steps)

        monkeypatch.setattr(StreamingKNN, "_block_step", counted)
        monkeypatch.setattr(streaming_knn, "BLOCK_MAX_SUBSEQUENCES", limit)
        values = block_values("quantised", 300, 3)
        knn = StreamingKNN(window_size=60, subsequence_width=4, kernel_backend="numpy")
        advance(knn.update_many(values), [BLOCK_ROWS], values.shape[0])
        assert bool(calls) == (limit >= 60 - 4 + 1)

    @pytest.mark.parametrize("backend", ("numpy", "loops"))
    @pytest.mark.parametrize("mode", KNN_MODES)
    def test_send_advances_n_observations(self, rng, backend, mode):
        values = rng.normal(size=260)
        knn = StreamingKNN(window_size=40, subsequence_width=5, mode=mode, kernel_backend=backend)
        steps = knn.update_many(values)
        assert next(steps) is False  # one observation, still warming up
        assert knn.n_seen == 1
        assert steps.send(3) is False
        assert knn.n_seen == 4
        assert steps.send(FFT_BATCH_MIN + 100) is True  # across the batch-FFT sub-chunk
        assert knn.n_seen == 4 + FFT_BATCH_MIN + 100
        # the same generator stepped by next() (the whole chunk is in both
        # buffers already) reaches the same state
        reference = StreamingKNN(window_size=40, subsequence_width=5, mode=mode)
        pointwise = reference.update_many(values)
        for _ in range(knn.n_seen):
            next(pointwise)
        assert state_bytes(knn) == state_bytes(reference)
        with pytest.raises(StopIteration):
            steps.send(values.shape[0])  # past the end: the rest is ingested
        assert knn.n_seen == values.shape[0]

    def test_send_rejects_non_positive_advance(self, rng):
        knn = StreamingKNN(window_size=40, subsequence_width=5)
        steps = knn.update_many(rng.normal(size=50))
        next(steps)
        with pytest.raises(ConfigurationError):
            steps.send(0)

    @pytest.mark.parametrize("mode", KNN_MODES)
    def test_send_through_yield_from_wrapper(self, rng, mode):
        values = block_values("periodic", 500, 11) + rng.normal(0.0, 1e-3, 500)
        config = dict(window_size=70, subsequence_width=6, mode=mode, kernel_backend="numpy")
        wrapped = StreamingKNN(**config)
        advance(pass_through(wrapped.update_many(values)), [10, 1, 47], values.shape[0])
        reference = StreamingKNN(**config)
        for value in values:
            reference.update(float(value))
        assert state_bytes(wrapped) == state_bytes(reference)

    @pytest.mark.parametrize("similarity", SIMILARITY_MEASURES)
    def test_checkpoint_between_pauses_resumes_identically(self, similarity):
        values = block_values("flat", 900, 5)
        config = dict(
            window_size=80, subsequence_width=7, similarity=similarity, kernel_backend="numpy"
        )
        reference = StreamingKNN(**config)
        for value in values:
            reference.update(float(value))
        first = StreamingKNN(**config)
        steps = first.update_many(values)
        next(steps)
        for _ in range(30):
            steps.send(13)  # pause at observation 391, mid-generator
        snapshot = pickle.loads(pickle.dumps(first.state_dict()))
        steps.close()
        resumed = StreamingKNN(**config)
        resumed.load_state_dict(snapshot)
        rest = values[first.n_seen :]
        advance(resumed.update_many(rest), [13], rest.shape[0])
        assert state_bytes(resumed) == state_bytes(reference)


def snapshot(knn: StreamingKNN) -> tuple[int, np.ndarray, np.ndarray]:
    """Global id of the first row, thresholds and neighbour ids (all global), copied."""
    view = knn.region_view(0)
    return view.offset, view.thresholds.copy(), view.knn_indices.copy()


class TestThresholdsNeverFall:
    """Pinned: a row's neighbours change only by taking in the newest subsequence.

    The newest subsequence has the largest id yet and replaces a row's worst
    neighbour, so a surviving row's prediction threshold (its rank-th
    smallest neighbour id) never falls.  A pruning gate that skips the bound
    while few thresholds move would rest on this.
    """

    @given(
        backend=st.sampled_from(("numpy", "loops")),
        mode=st.sampled_from(KNN_MODES),
        k=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(("noise", "quantised", "flat", "periodic")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        schedule=st.one_of(
            st.just([1]),  # point-wise
            st.lists(st.integers(min_value=1, max_value=3 * BLOCK_ROWS), min_size=1, max_size=5),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_surviving_thresholds_never_fall(self, backend, mode, k, kind, seed, schedule):
        # several window turnovers: evictions, buffer and table compactions
        values = block_values(kind, 330, seed)
        knn = StreamingKNN(
            window_size=48, subsequence_width=4, k_neighbours=k, mode=mode, kernel_backend=backend
        )
        steps = knn.update_many(values)
        next(steps)
        offset, thresholds, neighbours = snapshot(knn)
        advances = 0
        while knn.n_seen < values.shape[0]:
            steps.send(min(schedule[advances % len(schedule)], values.shape[0] - knn.n_seen))
            advances += 1
            newest = offset + thresholds.shape[0] - 1  # the largest id so far
            next_offset, next_thresholds, next_neighbours = snapshot(knn)
            assert next_offset >= offset  # rows leave from the front only
            left = next_offset - offset
            kept = max(0, thresholds.shape[0] - left)
            assert next_offset + next_thresholds.shape[0] - 1 >= newest
            assert np.all(next_thresholds[:kept] >= thresholds[left:])
            # a surviving row's new neighbours are all newer than every earlier row
            before, after = neighbours[left:], next_neighbours[:kept]
            for row in np.flatnonzero((before != after).any(axis=1)):
                taken = np.setdiff1d(after[row], before[row])
                assert np.all(taken > newest)
            offset, thresholds, neighbours = next_offset, next_thresholds, next_neighbours
        assert knn.n_evicted > 2 * knn.n_subsequences  # the tables compacted


class TestCheckpointBytes:
    """Checkpoints carry no uninitialised memory: equal runs, equal bytes."""

    @staticmethod
    def run_after_freeing(sentinel: float, values: np.ndarray) -> bytes:
        # hand the allocator same-sized blocks full of a sentinel first: an
        # np.empty-allocated backing array would inherit their bytes
        junk = [np.full(200, sentinel) for _ in range(8)]
        del junk
        segmenter = ClaSS(window_size=100, subsequence_width=5, scoring_interval=10)
        segmenter.process(values)
        return pickle.dumps(segmenter.save_state())

    def test_identical_runs_save_identical_bytes(self, rng):
        values = rng.normal(size=150)  # leaves the backing arrays' tails unwritten
        first = self.run_after_freeing(-np.inf, values)
        second = self.run_after_freeing(0.123456789, values)
        assert first == second

    @pytest.mark.parametrize("similarity", SIMILARITY_MEASURES)
    def test_reset_knn_saves_the_bytes_of_a_fresh_one(self, rng, similarity):
        config = dict(window_size=100, subsequence_width=5, similarity=similarity)
        values = rng.normal(size=210)
        reset = StreamingKNN(**config)
        ingest(reset, values[:150])  # slides the window and compacts the buffer
        reset.reset()
        ingest(reset, values[150:])
        fresh = StreamingKNN(**config)
        ingest(fresh, values[150:])
        assert pickle.dumps(reset.state_dict()) == pickle.dumps(fresh.state_dict())

    def test_fresh_backing_arrays_are_zero(self):
        knn = StreamingKNN(window_size=50, subsequence_width=5, similarity="cid")
        state = knn.state_dict()
        for key in ("buffer", "means", "stds", "comps", "q_store"):
            assert not state[key].any(), key
