"""Unit and property tests for the exact streaming k-NN (Algorithm 2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import similarity as similarity_module
from repro.core import streaming_knn
from repro.core.class_segmenter import ClaSS
from repro.core.similarity import SIMILARITY_MEASURES, pairwise_similarity_matrix
from repro.core.streaming_knn import (
    BLOCK_ROWS,
    CHANGE_LOG_MAX,
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

    def test_retired_mode_keyword_is_rejected(self):
        # one dot-product path: the keyword is gone, with no shim
        with pytest.raises(TypeError):
            StreamingKNN(window_size=100, subsequence_width=10, mode="streaming")

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

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_last_profile_is_exact_after_eviction(self, rng, measure):
        values = rng.normal(size=400)
        w = 10
        knn = StreamingKNN(window_size=150, subsequence_width=w, k_neighbours=3, similarity=measure)
        ingest(knn, values)
        expected = pairwise_similarity_matrix(knn.window, w, measure)[-1]
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


def thresholds_by_id(knn: StreamingKNN) -> dict[int, int]:
    """Every live row's prediction threshold, keyed by its global subsequence id."""
    region = knn.region_view(0)
    return dict(enumerate(region.thresholds.tolist(), start=region.offset))


def unlogged_changes(knn: StreamingKNN, snapshot: dict[int, int]) -> tuple[set, dict]:
    """Drain the log: the changed rows it misses (None if it overflowed), and a new snapshot."""
    changed = knn.drain_changed_rows()
    now = thresholds_by_id(knn)
    if changed is None:
        return None, now
    differs = {row_id for row_id, threshold in now.items() if snapshot.get(row_id) != threshold}
    return differs - set(changed), now


class TestChangeLog:
    """A row whose threshold differs since the last drain is in the log, or the log overflowed."""

    @given(
        width=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=0, max_value=60),
        k=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(("noise", "quantised", "flat", "periodic")),
        backend=st.sampled_from(("numpy", "loops")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunks=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
        schedule=st.lists(
            st.integers(min_value=1, max_value=3 * BLOCK_ROWS), min_size=1, max_size=6
        ),
        drain_every=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_changed_row_is_logged(
        self, width, extra, k, kind, backend, seed, chunks, schedule, drain_every
    ):
        # any next()/send(n) schedule, the block path included (numpy,
        # saturated, sends of two or more), drained every few pauses
        window = 2 * width + extra
        values = block_values(kind, 4 * window + 40, seed)
        knn = StreamingKNN(window, width, k_neighbours=k, kernel_backend=backend)
        snapshot = thresholds_by_id(knn)
        position = pauses = 0
        index = 0
        while position < values.shape[0]:
            chunk = values[position : position + chunks[index % len(chunks)]]
            steps = knn.update_many(chunk)
            next(steps)
            done = 1
            while True:
                pauses += 1
                if pauses % drain_every == 0:
                    missed, snapshot = unlogged_changes(knn, snapshot)
                    assert not missed, missed
                if done == chunk.shape[0]:
                    break
                size = min(schedule[pauses % len(schedule)], chunk.shape[0] - done)
                steps.send(size)
                done += size
            steps.close()
            position += chunk.shape[0]
            index += 1
        missed, _ = unlogged_changes(knn, snapshot)
        assert not missed, missed

    @pytest.mark.parametrize("backend", ("numpy", "loops"))
    def test_point_steps_never_overflow_a_log_drained_each_step(self, rng, backend):
        knn = StreamingKNN(120, 6, kernel_backend=backend)
        assert knn.drain_changed_rows() is None  # nothing drained since the k-NN was built
        snapshot = thresholds_by_id(knn)
        logged = 0
        for value in rng.normal(size=400):
            knn.update(float(value))
            changed = list(knn._changed)
            missed, snapshot = unlogged_changes(knn, snapshot)
            assert missed == set()
            logged += len(changed)
        assert logged > 400  # the newest row and the rows it beat

    def test_overflow_restore_and_unpickle_report_none(self, rng):
        knn = StreamingKNN(3_000, 6, kernel_backend="numpy")
        ingest(knn, rng.normal(size=2_000))
        knn.drain_changed_rows()
        ingest(knn, rng.normal(size=CHANGE_LOG_MAX))  # a newest row per step alone overflows
        assert knn.drain_changed_rows() is None
        ingest(knn, rng.normal(size=3))
        assert knn.drain_changed_rows() is not None
        ingest(knn, rng.normal(size=3))
        clone = pickle.loads(pickle.dumps(knn))
        assert clone.drain_changed_rows() is None
        restored = StreamingKNN(3_000, 6)
        restored.load_state_dict(knn.state_dict())
        assert restored.drain_changed_rows() is None
        knn.reset()
        assert knn.drain_changed_rows() is None


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

        def counted(knn, steps, floored):
            calls.append(steps)
            return block_step(knn, steps, floored)

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

        def counted(knn, steps, floored):
            calls.append(steps)
            return block_step(knn, steps, floored)

        monkeypatch.setattr(StreamingKNN, "_block_step", counted)
        monkeypatch.setattr(streaming_knn, "BLOCK_MAX_SUBSEQUENCES", limit)
        values = block_values("quantised", 300, 3)
        knn = StreamingKNN(window_size=60, subsequence_width=4, kernel_backend="numpy")
        advance(knn.update_many(values), [BLOCK_ROWS], values.shape[0])
        assert bool(calls) == (limit >= 60 - 4 + 1)

    @pytest.mark.parametrize("backend", ("numpy", "loops"))
    def test_send_advances_n_observations(self, rng, backend):
        values = rng.normal(size=260)
        knn = StreamingKNN(window_size=40, subsequence_width=5, kernel_backend=backend)
        steps = knn.update_many(values)
        assert next(steps) is False  # one observation, still warming up
        assert knn.n_seen == 1
        assert steps.send(3) is False
        assert knn.n_seen == 4
        assert steps.send(132) is True
        assert knn.n_seen == 4 + 132
        # the same generator stepped by next() (the whole chunk is in both
        # buffers already) reaches the same state
        reference = StreamingKNN(window_size=40, subsequence_width=5)
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

    def test_send_through_yield_from_wrapper(self, rng):
        values = block_values("periodic", 500, 11) + rng.normal(0.0, 1e-3, 500)
        config = dict(window_size=70, subsequence_width=6, kernel_backend="numpy")
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
        k=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(("noise", "quantised", "flat", "periodic")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        schedule=st.one_of(
            st.just([1]),  # point-wise
            st.lists(st.integers(min_value=1, max_value=3 * BLOCK_ROWS), min_size=1, max_size=5),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_surviving_thresholds_never_fall(self, backend, k, kind, seed, schedule):
        # several window turnovers: evictions, buffer and table compactions
        values = block_values(kind, 330, seed)
        knn = StreamingKNN(
            window_size=48, subsequence_width=4, k_neighbours=k, kernel_backend=backend
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


def overflowing_values(seed: int) -> np.ndarray:
    """400 N(0, 1) points with points 150-169 scaled by 1e160: their stds are NaN."""
    values = np.random.default_rng(seed).normal(size=400)
    values[150:170] *= 1e160
    return values


def three_ways(config: dict, values: np.ndarray) -> list[list[bytes]]:
    """The k-NN's state bytes after each call: ``update_many`` chunks, ``send(n)``, a restore.

    The restore happens at observation 160, inside the burst of
    :func:`overflowing_values`.
    """
    runs = []
    chunked = StreamingKNN(**config)
    states = []
    for start in range(0, values.shape[0], 37):
        ingest(chunked, values[start : start + 37])
        states.append(state_bytes(chunked))
    runs.append(states)
    sent = StreamingKNN(**config)
    advance(sent.update_many(values), [13, 1, BLOCK_ROWS], values.shape[0])
    runs.append([state_bytes(sent)])
    first = StreamingKNN(**config)
    ingest(first, values[:160])
    restored = StreamingKNN(**config)
    restored.load_state_dict(pickle.loads(pickle.dumps(first.state_dict())))
    advance(restored.update_many(values[160:]), [7], values.shape[0] - 160)
    runs.append([state_bytes(restored)])
    return runs


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestZeroDenominatorScan:
    """Skipping the similarity's zero-denominator scan never changes a table byte."""

    @pytest.mark.parametrize("similarity", SIMILARITY_MEASURES)
    @pytest.mark.parametrize("kind", ("overflowing", "ordinary"))
    def test_skipping_the_scan_equals_scanning_every_step(self, monkeypatch, similarity, kind):
        values = overflowing_values(3) if kind == "overflowing" else block_values("flat", 400, 3)
        config = dict(
            window_size=200, subsequence_width=10, similarity=similarity, kernel_backend="numpy"
        )
        pearson = similarity_module.pearson_from_scaled_stats
        skipped = []

        def recording(dots, w_means, w_stds, query_mean, query_std, floored_stds=False):
            if floored_stds:  # every std the step reads, the query's too, is positive
                assert (w_stds > 0.0).all() and (np.asarray(query_std) > 0.0).all()
            skipped.append(floored_stds)
            return pearson(dots, w_means, w_stds, query_mean, query_std, floored_stds)

        def scanning(dots, w_means, w_stds, query_mean, query_std, floored_stds=False):
            return pearson(dots, w_means, w_stds, query_mean, query_std, False)

        monkeypatch.setattr(similarity_module, "pearson_from_scaled_stats", recording)
        optimised = three_ways(config, values)
        monkeypatch.setattr(similarity_module, "pearson_from_scaled_stats", scanning)
        assert three_ways(config, values) == optimised
        if kind == "ordinary":
            assert all(skipped)
        else:  # the burst's NaN stds make calls scan, the rest skip
            assert any(skipped) and not all(skipped)

    def test_overflowing_values_give_nan_stds(self):
        knn = StreamingKNN(window_size=200, subsequence_width=10)
        ingest(knn, overflowing_values(3)[:180])
        stds = knn.state_dict()["stds"][: knn.n_subsequences]
        assert np.isnan(stds).any() and (stds[:100] > 0.0).all()


def feed(knn: StreamingKNN, values: np.ndarray, chunks: list, schedule: list) -> None:
    """Feed ``values`` in chunks cycling through ``chunks``, each advanced by ``schedule``."""
    position = 0
    index = 0
    while position < values.shape[0]:
        chunk = values[position : position + chunks[index % len(chunks)]]
        advance(knn.update_many(chunk), schedule, chunk.shape[0])
        position += chunk.shape[0]
        index += 1


class TestScaledStatisticsAgainstARestore:
    """A restore rebuilds ``w·μ`` and ``w·σ`` from the saved means and stds.

    Every backend reads the same kept statistics, so comparing backends
    cannot catch a stale ``w·μ`` or ``w·σ``; a run restored at any position
    and fed the rest, whose scaled statistics start afresh, can.
    """

    @given(
        width=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=0, max_value=60),
        k=st.integers(min_value=1, max_value=4),
        similarity=st.sampled_from(SIMILARITY_MEASURES),
        backend=st.sampled_from(("numpy", "loops")),
        kind=st.sampled_from(("noise", "quantised", "flat", "periodic")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cut=st.floats(min_value=0.0, max_value=1.0),
        chunks=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
        schedule=st.lists(
            st.integers(min_value=1, max_value=3 * BLOCK_ROWS), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_restore_mid_stream_equals_the_uninterrupted_run(
        self, width, extra, k, similarity, backend, kind, seed, cut, chunks, schedule
    ):
        window = 2 * width + extra
        # several buffer and table compactions long; the cut falls anywhere,
        # in the growing window as well as the saturated one
        values = block_values(kind, 4 * window + 40, seed)
        config = dict(
            window_size=window,
            subsequence_width=width,
            k_neighbours=k,
            similarity=similarity,
            kernel_backend=backend,
        )
        uninterrupted = StreamingKNN(**config)
        feed(uninterrupted, values, chunks, schedule)
        at = int(cut * values.shape[0])
        first = StreamingKNN(**config)
        feed(first, values[:at], chunks, schedule)
        restored = StreamingKNN(**config)
        restored.load_state_dict(pickle.loads(pickle.dumps(first.state_dict())))
        feed(restored, values[at:], chunks, schedule)
        assert state_bytes(restored) == state_bytes(uninterrupted)
        unpickled = pickle.loads(pickle.dumps(first))  # rebuilds them as well
        feed(unpickled, values[at:], chunks, schedule)
        assert state_bytes(unpickled) == state_bytes(uninterrupted)

    @pytest.mark.parametrize("similarity", SIMILARITY_MEASURES)
    def test_reset_then_refeed(self, similarity):
        config = dict(window_size=60, subsequence_width=5, similarity=similarity)
        values = block_values("flat", 700, 7)
        reset = StreamingKNN(**config)
        ingest(reset, values[:400])  # compacts the buffer and the tables
        reset.reset()
        ingest(reset, values[400:550])
        payload = pickle.loads(pickle.dumps(reset.state_dict()))
        ingest(reset, values[550:])
        fresh = StreamingKNN(**config)
        ingest(fresh, values[400:])
        assert state_bytes(reset) == state_bytes(fresh)
        restored = StreamingKNN(**config)
        restored.load_state_dict(payload)
        ingest(restored, values[550:])
        assert state_bytes(restored) == state_bytes(fresh)


class TestRetiredMode:
    """States and pickles written while the ``"recompute"``/``"fft"`` modes existed."""

    @staticmethod
    def saved_with_mode(mode: str) -> tuple[StreamingKNN, dict, bytes]:
        """A k-NN, its state and its pickle, each naming ``mode`` as an older version did."""
        knn = StreamingKNN(window_size=60, subsequence_width=5)
        ingest(knn, block_values("periodic", 200, 4))
        state = knn.state_dict()
        state["config"]["mode"] = mode
        knn.mode = mode
        blob = pickle.dumps(knn)
        del knn.mode
        return knn, state, blob

    def test_streaming_mode_restores_and_unpickles_identically(self):
        knn, state, blob = self.saved_with_mode("streaming")
        values = block_values("flat", 150, 5)
        restored = StreamingKNN(window_size=60, subsequence_width=5)
        restored.load_state_dict(state)
        unpickled = pickle.loads(blob)
        assert not hasattr(unpickled, "mode")
        for resumed in (restored, unpickled):
            ingest(resumed, values)
        ingest(knn, values)
        assert state_bytes(restored) == state_bytes(knn) == state_bytes(unpickled)
        assert "mode" not in knn.state_dict()["config"]

    @pytest.mark.parametrize("mode", ("recompute", "fft", "gpu"))
    def test_other_modes_are_rejected(self, mode):
        _, state, blob = self.saved_with_mode(mode)
        fresh = StreamingKNN(window_size=60, subsequence_width=5)
        before = state_bytes(fresh)
        with pytest.raises(ConfigurationError, match="retired StreamingKNN field 'mode'"):
            fresh.load_state_dict(state)
        assert state_bytes(fresh) == before
        with pytest.raises(ConfigurationError, match="retired StreamingKNN field 'mode'"):
            pickle.loads(blob)
