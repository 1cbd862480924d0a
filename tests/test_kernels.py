"""Kernel backend registry + cross-backend bit-identity (ROADMAP item 1).

Backends are pinned bit-identical, not merely close: the loop-form kernels
(the numba compilation source, run here as the ``"loops"`` backend) must
produce byte-for-byte the same tables, profiles, scores and p-values as the
vectorised numpy reference on every knn mode, similarity measure and scoring
interval, including across checkpoint/resume.  When numba is installed the
same assertions run against the compiled backend (see the ``numba`` tests at
the bottom — skipped, not weakened, when it is absent).
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
from repro.api import ClaSSConfig, create
from repro.core.kernels import (
    KERNEL_BACKENDS,
    LoopKernels,
    NumpyKernels,
    available_backends,
    get_backend,
)
from repro.core.kernels.numpy_backend import LIST_PATCH_ROWS
from repro.core.scoring import fused_split_scores
from repro.core.similarity import (
    SIMILARITY_MEASURES,
    get_similarity_from_stats,
    pearson_from_dot_products,
    similarity_profile,
)
from repro.core.streaming_knn import PADDING_INDEX, STD_FLOOR, StreamingKNN
from repro.utils.exceptions import ConfigurationError

HAS_NUMBA = "numba" in available_backends()


def ingest(knn: StreamingKNN, values) -> None:
    for _ in knn.update_many(values):
        pass


def knn_fingerprint(knn: StreamingKNN) -> dict:
    """Every piece of k-NN state an equivalence assertion can bite on."""
    state = knn.state_dict()
    return {
        "knn_idx": state["knn_idx"],
        "knn_sim": state["knn_sim"],
        "thresholds": state["thresholds"],
        "worst_sim": state["worst_sim"],
        "profile": knn.last_similarity_profile,
    }


def assert_fingerprints_equal(left: dict, right: dict) -> None:
    for key in left:
        np.testing.assert_array_equal(left[key], right[key], err_msg=key)


def segment(values, backend, **overrides) -> object:
    config = ClaSSConfig(
        window_size=overrides.pop("window_size", 1_500),
        scoring_interval=overrides.pop("scoring_interval", 10),
        kernel_backend=backend,
        **overrides,
    )
    segmenter = create("class", config)
    segmenter.process(values)
    segmenter.finalise()
    return segmenter


class TestRegistry:
    def test_backend_names(self):
        assert KERNEL_BACKENDS == ("auto", "numpy", "numba", "loops")
        assert "numpy" in available_backends()
        assert "loops" in available_backends()

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("loops") is get_backend("loops")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("gpu")

    def test_auto_resolves_to_concrete_backend(self):
        backend = get_backend("auto")
        assert backend.name in ("numpy", "numba")

    def test_backend_types(self):
        assert isinstance(get_backend("numpy"), NumpyKernels)
        loops = get_backend("loops")
        assert isinstance(loops, LoopKernels)
        assert loops.compiled is False

    @pytest.mark.skipif(HAS_NUMBA, reason="numba installed: no fallback to exercise")
    def test_explicit_numba_without_numba_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_NUMBA_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy reference"):
            backend = get_backend("numba")
        assert backend.name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("numba").name == "numpy"  # warned once only

    def test_backends_pickle_to_the_singleton(self):
        for name in available_backends():
            backend = get_backend(name)
            assert pickle.loads(pickle.dumps(backend)) is backend

    def test_unknown_measure_rejected_by_every_backend(self):
        for name in available_backends():
            with pytest.raises(ConfigurationError, match="unknown similarity measure"):
                get_backend(name).similarity_kernel("cosine")

    def test_unknown_score_rejected_by_every_backend(self):
        for name in available_backends():
            with pytest.raises(ConfigurationError, match="no fused kernel for score"):
                get_backend(name).fused_split_scores(
                    np.array([3, 4], dtype=np.int64),
                    np.array([3, 4], dtype=np.int64),
                    8,
                    score="f0.5",
                )


class TestKernelLevelEquivalence:
    """Each kernel, loops vs numpy, on randomised inputs — exact equality."""

    @pytest.fixture(params=["loops", "numba"] if HAS_NUMBA else ["loops"])
    def other(self, request):
        return get_backend(request.param)

    def test_extend_shrink(self, rng, other):
        reference = get_backend("numpy")
        for m in (1, 2, 17, 64):
            partial = rng.normal(size=m)
            extend_values = rng.normal(size=m)
            shrink_values = rng.normal(size=m)
            newest, oldest = map(float, rng.normal(size=2))
            q_ref = np.full(m + 3, np.nan)
            q_other = np.full(m + 3, np.nan)
            full_ref = reference.extend_shrink(
                partial.copy(), extend_values, newest, shrink_values, oldest, q_ref
            )
            full_other = other.extend_shrink(
                partial.copy(), extend_values, newest, shrink_values, oldest, q_other
            )
            np.testing.assert_array_equal(np.asarray(full_ref), np.asarray(full_other))
            np.testing.assert_array_equal(q_ref[:m], q_other[:m])

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_similarity_profiles(self, rng, other, measure):
        reference = get_backend("numpy")
        w = 9
        for m in (1, 5, 40):
            dots = rng.normal(size=m) * w
            means = rng.normal(size=m)
            stds = np.abs(rng.normal(size=m)) + 1e-3
            comps = np.abs(rng.normal(size=m)) + 1e-3
            args = (dots, means * w, stds * w, means[-1], stds[-1], w, comps, comps[-1])
            expected = reference.similarity_kernel(measure)(*args)
            np.testing.assert_array_equal(
                expected, np.asarray(other.similarity_kernel(measure)(*args))
            )
            # every std is floored: skipping the scan changes nothing
            np.testing.assert_array_equal(
                reference.similarity_kernel(measure)(*args, True), expected
            )

    def test_similarity_ties_and_degenerate_stds(self, rng, other):
        # correlations clipped at +/-1 and the std floor path must agree too
        reference = get_backend("numpy")
        w, m = 9, 12
        means = np.zeros(m)
        stds = np.full(m, 1e-8)
        dots = np.concatenate([np.full(m // 2, 1e6), np.full(m - m // 2, -1e6)])
        for measure in SIMILARITY_MEASURES:
            args = (dots, means * w, stds * w, means[-1], stds[-1], w, np.full(m, 1e-8), 1e-8)
            np.testing.assert_array_equal(
                reference.similarity_kernel(measure)(*args),
                np.asarray(other.similarity_kernel(measure)(*args)),
            )

    def test_cid_requires_complexities(self, other):
        profile = other.similarity_kernel("cid")
        with pytest.raises(ConfigurationError, match="complexities"):
            profile(np.zeros(3), np.zeros(3), np.ones(3), 0.0, 1.0, 5, None, None)

    def test_topk_newest_including_ties(self, rng, other):
        reference = get_backend("numpy")
        for low, take in ((1, 1), (5, 5), (40, 7), (64, 16)):
            exact_ties = rng.choice(np.round(rng.normal(size=5), 1), size=low)
            for sims in (rng.normal(size=low + 3), np.resize(exact_ties, low + 3)):
                out = [np.full(take, -1, dtype=np.int64), np.full(take, np.nan)]
                expected = [np.full(take, -1, dtype=np.int64), np.full(take, np.nan)]
                other.topk_newest(sims, low, take, 100, out[0], out[1])
                reference.topk_newest(sims, low, take, 100, expected[0], expected[1])
                np.testing.assert_array_equal(out[0], expected[0])
                np.testing.assert_array_equal(out[1], expected[1])

    def test_rank_smallest(self, rng, other):
        reference = get_backend("numpy")
        values = rng.integers(-50, 50, size=11).astype(np.int64)
        for rank in (0, 3, 10):
            assert other.rank_smallest(values.copy(), rank) == reference.rank_smallest(
                values.copy(), rank
            )

    @pytest.mark.parametrize("n_beaten", [1, LIST_PATCH_ROWS, LIST_PATCH_ROWS + 1, 24])
    def test_insert_newest(self, rng, other, n_beaten):
        # n_beaten straddles the numpy paths' cutoff (list patch, vectorised);
        # three more rows are offered less than their worst and stay put
        reference = get_backend("numpy")
        k, n_rows = 4, n_beaten + 3
        sims = np.sort(rng.normal(size=(n_rows, k)), axis=1)[:, ::-1].copy()
        indices = rng.integers(0, 500, size=(n_rows, k)).astype(np.int64)
        worst = sims[:, -1].copy()
        thresholds = np.partition(indices, 1, axis=1)[:, 1].copy()
        candidates = worst + rng.uniform(0.01, 3.0, size=n_rows)
        candidates[n_beaten:] = worst[n_beaten:] - 1.0
        ref_state = (indices.copy(), sims.copy(), worst.copy(), thresholds.copy())
        other_state = (indices.copy(), sims.copy(), worst.copy(), thresholds.copy())
        ref_rows = reference.insert_newest(*ref_state, candidates, 999, 1)
        other_rows = other.insert_newest(*other_state, candidates, 999, 1)
        for left, right in zip(ref_state, other_state):
            np.testing.assert_array_equal(left, right)
        # the patched rows the k-NN logs: equal across backends, int64, ascending
        np.testing.assert_array_equal(ref_rows, np.arange(n_beaten))
        np.testing.assert_array_equal(other_rows, ref_rows)
        assert ref_rows.dtype == other_rows.dtype == np.int64
        assert (ref_state[0] == 999).sum() == n_beaten
        np.testing.assert_array_equal(ref_state[0][n_beaten:], indices[n_beaten:])

    @pytest.mark.parametrize("n_copies", [1, LIST_PATCH_ROWS + 1])
    def test_insert_newest_ties_and_padding(self, other, n_copies):
        # on both numpy paths: an offer equal to a stored similarity goes
        # before it, one equal to the worst is not taken, and a padded row
        # (PADDING_INDEX / -inf) fills from the front
        pad = PADDING_INDEX
        sims = np.array([[0.9, 0.5, 0.2], [0.9, 0.5, 0.2], [0.7, -np.inf, -np.inf], [-np.inf] * 3])
        indices = np.array([[10, 11, 12], [20, 21, 22], [30, pad, pad], [pad, pad, pad]])
        candidates = np.array([0.5, 0.2, 0.7, -5.0])
        expected_sims = np.array(
            [[0.9, 0.5, 0.5], [0.9, 0.5, 0.2], [0.7, 0.7, -np.inf], [-5.0, -np.inf, -np.inf]]
        )
        expected_idx = np.array([[10, 99, 11], [20, 21, 22], [99, 30, pad], [99, pad, pad]])
        sims, indices = np.tile(sims, (n_copies, 1)), np.tile(indices, (n_copies, 1))
        candidates = np.tile(candidates, n_copies)
        worst = sims[:, -1].copy()
        thresholds = np.partition(indices, 1, axis=1)[:, 1].copy()
        states, patched = [], []
        for backend in (get_backend("numpy"), other):
            state = (indices.copy(), sims.copy(), worst.copy(), thresholds.copy())
            patched.append(backend.insert_newest(*state, candidates, 99, 1))
            states.append(state)
        for left, right in zip(*states):
            np.testing.assert_array_equal(left, right)
        # an offer equal to the worst patches nothing, so row 1 is not reported
        expected_rows = (np.array([0, 2, 3]) + 4 * np.arange(n_copies)[:, None]).ravel()
        np.testing.assert_array_equal(patched[0], expected_rows)
        np.testing.assert_array_equal(patched[1], expected_rows)
        np.testing.assert_array_equal(states[0][0], np.tile(expected_idx, (n_copies, 1)))
        np.testing.assert_array_equal(states[0][1], np.tile(expected_sims, (n_copies, 1)))
        np.testing.assert_array_equal(states[0][2], states[0][1][:, -1])
        np.testing.assert_array_equal(states[0][3], np.sort(states[0][0], axis=1)[:, 1])

    @pytest.mark.parametrize("score", ["macro_f1", "accuracy"])
    def test_fused_split_scores(self, rng, other, score):
        m = 120
        pred_zero_from = np.sort(rng.integers(0, m, size=m)).astype(np.int64)
        splits = np.arange(5, m - 5, dtype=np.int64)
        expected = fused_split_scores(pred_zero_from, splits, m, score)
        got = other.fused_split_scores(pred_zero_from, splits, m, score)
        np.testing.assert_array_equal(np.asarray(got), expected)


def expression_rows(measure, dots, means, stds, query_means, query_stds, w, comps, query_comps):
    """The numpy similarity rows written as plain expressions (fresh arrays, np.clip).

    Over the raw means and stds: the nine-pass form of the kernels, which
    read the scaled ``w·μ`` and ``w·σ`` instead.
    """
    w = float(w)
    numerator = dots - w * means * query_means
    denominator = w * stds * query_stds
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = numerator / denominator
    corr = np.where(denominator > 0.0, corr, 0.0)
    corr = np.clip(corr, -1.0, 1.0)
    if measure == "pearson":
        return corr
    dist = np.sqrt(np.maximum(2.0 * w * (1.0 - np.clip(corr, -1.0, 1.0)), 0.0))
    if measure == "euclidean":
        return -dist
    ce = np.maximum(comps, 1e-8)
    ce_query = np.maximum(query_comps, 1e-8)
    return -dist * (np.maximum(ce, ce_query) / np.minimum(ce, ce_query))


def expression_extend_shrink(partial, extend_values, newest, shrink_values, oldest, q_out):
    """``extend_shrink`` written as plain expressions."""
    full = partial + extend_values * newest
    q_out[: full.shape[0]] = full - shrink_values * oldest
    return full


def expression_topk_newest(similarities, low, take, first_global, idx_out, sim_out):
    """``topk_newest`` over a copy of the candidates."""
    candidates = similarities[:low].copy()
    for slot in range(take):
        best = int(candidates.argmax())
        idx_out[slot] = best + first_global
        sim_out[slot] = candidates[best]
        candidates[best] = -np.inf


def kernel_inputs(seed: int, rows: int, m: int, w: int):
    """Profiles with floored stds, exact +/-1 correlations and clipped ones."""
    rng = np.random.default_rng(seed)
    shape = (rows, m)
    means = rng.normal(size=shape)
    stds = np.abs(rng.normal(size=shape)) + 1e-3
    stds[rng.random(shape) < 0.2] = STD_FLOOR
    comps = np.abs(rng.normal(size=shape))
    comps[rng.random(shape) < 0.2] = 0.0
    query_means = rng.normal(size=(rows, 1))
    query_stds = np.abs(rng.normal(size=(rows, 1))) + 1e-3
    query_comps = np.abs(rng.normal(size=(rows, 1)))
    dots = (rng.normal(size=shape) + w * means * query_means) * float(w)
    exact = rng.random(shape) < 0.2  # numerator equal to +/- the denominator
    means[exact] = 0.0
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    denominator = float(w) * stds * query_stds
    dots[exact] = (sign * denominator)[exact]
    clipped = rng.random(shape) < 0.2  # far beyond +/-1
    dots[clipped] = (sign * denominator * 1e3 + w * means * query_means)[clipped]
    return dots, means, stds, comps, query_means, query_stds, query_comps


class TestNumpyKernelsEqualTheirExpressions:
    """The in-place numpy kernels equal their plain expressions, element for element."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=80),
        w=st.integers(min_value=2, max_value=40),
        measure=st.sampled_from(SIMILARITY_MEASURES),
    )
    @settings(max_examples=150, deadline=None)
    def test_similarity_rows(self, seed, rows, m, w, measure):
        # the five-pass rows over the kept w·μ and w·σ equal the nine-pass
        # expression over the raw means and stds, scanned or not (every
        # std of kernel_inputs is at least STD_FLOOR)
        dots, means, stds, comps, query_means, query_stds, query_comps = kernel_inputs(
            seed, rows, m, w
        )
        w_means, w_stds = means * w, stds * w
        similarity = get_similarity_from_stats(measure)
        expected = expression_rows(
            measure, dots, means, stds, query_means, query_stds, w, comps, query_comps
        )
        for floored in (False, True):
            block = similarity(
                dots, w_means, w_stds, query_means, query_stds, w, comps, query_comps, floored
            )
            np.testing.assert_array_equal(block, expected)
        if measure == "pearson":
            assert np.isin([-1.0, 1.0], expected).any() or m * rows < 40
        for row in range(rows):  # each row of a (B, m) call equals its own 1-d call
            row_args = (dots[row], w_means[row], w_stds[row], query_means[row, 0])
            row_args += (query_stds[row, 0], w, comps[row], query_comps[row, 0])
            for floored in (False, True):
                np.testing.assert_array_equal(similarity(*row_args, floored), expected[row])
        # the per-point kernels: the numpy backend's profile over the scaled
        # statistics, and the one-off helper over the raw ones (which scales
        # them first); the query is the last offset
        query = (means[0, -1], stds[0, -1], w, comps[0], comps[0, -1])
        expected_profile = expression_rows(measure, dots[0], means[0], stds[0], *query)
        profile = get_backend("numpy").similarity_kernel(measure)
        scaled = (dots[0], w_means[0], w_stds[0], *query)
        np.testing.assert_array_equal(profile(*scaled), expected_profile)
        np.testing.assert_array_equal(profile(*scaled, True), expected_profile)
        np.testing.assert_array_equal(
            similarity_profile(measure, dots[0], means[0], stds[0], m - 1, w, comps[0]),
            expected_profile,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_denominators_correlate_zero(self, seed, m):
        rng = np.random.default_rng(seed)
        dots = rng.normal(size=m) * 10.0
        means = rng.normal(size=m)
        stds = np.abs(rng.normal(size=m))
        stds[rng.random(m) < 0.4] = 0.0  # not floored: the zero-denominator rule
        query = int(rng.integers(0, m))
        got = pearson_from_dot_products(dots, means, stds, query, 9)
        expected = expression_rows(
            "pearson", dots, means, stds, means[query], stds[query], 9, None, None
        )
        np.testing.assert_array_equal(got, expected)
        assert (got[stds == 0.0] == 0.0).all()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=80),
        aliased=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_extend_shrink(self, seed, m, aliased):
        rng = np.random.default_rng(seed)
        extend_values, shrink_values = rng.normal(size=(2, m))
        newest, oldest = map(float, rng.normal(size=2))
        store = rng.normal(size=m + 3)
        expected_store = store.copy()
        # Case B of the k-NN passes the partial products as a view of q_out
        partial = store[:m] if aliased else rng.normal(size=m)
        expected_partial = expected_store[:m] if aliased else partial.copy()
        full = get_backend("numpy").extend_shrink(
            partial, extend_values, newest, shrink_values, oldest, store
        )
        expected = expression_extend_shrink(
            expected_partial, extend_values, newest, shrink_values, oldest, expected_store
        )
        np.testing.assert_array_equal(full, expected)
        np.testing.assert_array_equal(store, expected_store)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        low=st.integers(min_value=1, max_value=60),
        take=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from(("normal", "ties", "non-finite")),
    )
    @settings(max_examples=150, deadline=None)
    def test_topk_newest_leaves_its_input_unchanged(self, seed, low, take, kind):
        rng = np.random.default_rng(seed)
        similarities = rng.normal(size=low + 4)
        if kind == "ties":
            similarities = np.round(similarities)
        elif kind == "non-finite":  # fewer finite candidates than slots
            similarities[rng.random(low + 4) < 0.5] = -np.inf
            similarities[rng.random(low + 4) < 0.1] = np.nan
        before = similarities.copy()
        out = [np.full(take, -1, dtype=np.int64), np.full(take, 7.0)]
        expected = [np.full(take, -1, dtype=np.int64), np.full(take, 7.0)]
        get_backend("numpy").topk_newest(similarities, low, take, 50, *out)
        expression_topk_newest(before.copy(), low, take, 50, *expected)
        np.testing.assert_array_equal(out[0], expected[0])
        np.testing.assert_array_equal(out[1], expected[1])
        assert similarities.tobytes() == before.tobytes()


class TestStreamingKNNBackendEquivalence:
    """End-to-end k-NN tables: every backend vs numpy, bit-identical."""

    @pytest.fixture(params=["loops", "numba"] if HAS_NUMBA else ["loops"])
    def backend(self, request):
        return request.param

    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_tables_bit_identical(self, rng, backend, measure):
        values = rng.normal(size=700).cumsum()
        kwargs = dict(window_size=300, subsequence_width=12, k_neighbours=3, similarity=measure)
        reference = StreamingKNN(kernel_backend="numpy", **kwargs)
        candidate = StreamingKNN(kernel_backend=backend, **kwargs)
        ingest(reference, values)
        ingest(candidate, values)
        assert_fingerprints_equal(knn_fingerprint(reference), knn_fingerprint(candidate))

    def test_checkpoint_crosses_backends(self, rng, backend):
        values = rng.normal(size=600).cumsum()
        kwargs = dict(window_size=250, subsequence_width=10, k_neighbours=3)
        saved = StreamingKNN(kernel_backend="numpy", **kwargs)
        ingest(saved, values[:400])
        restored = StreamingKNN(kernel_backend=backend, **kwargs)
        restored.load_state_dict(pickle.loads(pickle.dumps(saved.state_dict())))
        ingest(saved, values[400:])
        ingest(restored, values[400:])
        assert_fingerprints_equal(knn_fingerprint(saved), knn_fingerprint(restored))


class TestClaSSBackendEquivalence:
    """Detector-level results: change points, scores and p-values equal."""

    @pytest.fixture(params=["loops", "numba"] if HAS_NUMBA else ["loops"])
    def backend(self, request):
        return request.param

    @pytest.mark.parametrize("scoring_interval", [1, 25])
    def test_reports_identical(self, sine_square_stream, backend, scoring_interval):
        values, _ = sine_square_stream
        reference = segment(values, "numpy", scoring_interval=scoring_interval)
        candidate = segment(values, backend, scoring_interval=scoring_interval)
        np.testing.assert_array_equal(reference.change_points, candidate.change_points)
        assert len(reference.reports) == len(candidate.reports)
        for left, right in zip(reference.reports, candidate.reports):
            assert left.change_point == right.change_point
            assert left.score == right.score
            assert left.p_value == right.p_value

    def test_checkpoint_crosses_backends(self, sine_square_stream, backend):
        values, _ = sine_square_stream
        reference = create(
            "class", ClaSSConfig(window_size=1_500, scoring_interval=10, kernel_backend="numpy")
        )
        reference.process(values[:2_000])
        payload = pickle.loads(pickle.dumps(reference.save_state()))
        # the config travels with the payload; the restoring side may run any
        # backend — override via the restored segmenter's own config
        resumed = create(
            "class", ClaSSConfig(window_size=1_500, scoring_interval=10, kernel_backend=backend)
        )
        resumed.load_state(payload)
        reference.process(values[2_000:])
        resumed.process(values[2_000:])
        reference.finalise()
        resumed.finalise()
        np.testing.assert_array_equal(reference.change_points, resumed.change_points)

    def test_config_round_trip_preserves_backend(self):
        config = ClaSSConfig(kernel_backend="loops")
        assert ClaSSConfig.from_json(config.to_json()).kernel_backend == "loops"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            ClaSSConfig(kernel_backend="gpu").validate()


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestNumbaBackend:
    """Compiled-path smoke checks beyond the shared fixtures above."""

    def test_numba_backend_is_compiled(self):
        backend = get_backend("numba")
        assert backend.name == "numba"
        assert backend.compiled is True

    def test_auto_prefers_numba(self):
        assert get_backend("auto") is get_backend("numba")
