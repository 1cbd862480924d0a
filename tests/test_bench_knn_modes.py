"""Tests of the §4.4 k-NN ablation variants (``benchmarks/bench_knn_modes.py``).

Loaded by file path — the benchmarks directory is not a package.  The
recompute and FFT variants override only the dot-product step of
:class:`StreamingKNN`.  The runtime comparison is fair only while each
variant computes the same k-NN as the streaming update, takes its own
dot-product step on every update, and keeps the partial products that the
block path of the streaming update continues from.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.similarity import SIMILARITY_MEASURES
from repro.core.streaming_knn import BLOCK_ROWS, StreamingKNN

_SPEC = importlib.util.spec_from_file_location(
    "bench_knn_modes", Path(__file__).parent.parent / "benchmarks" / "bench_knn_modes.py"
)
bench_knn_modes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_knn_modes)

ALTERNATIVES = [name for name in bench_knn_modes.VARIANTS if name != "streaming"]
WINDOW, WIDTH = 120, 11


def build(variant: str, measure: str = "pearson") -> StreamingKNN:
    return bench_knn_modes.VARIANTS[variant](
        window_size=WINDOW, subsequence_width=WIDTH, similarity=measure, kernel_backend="numpy"
    )


def feed(knn: StreamingKNN, values: np.ndarray) -> None:
    for value in values:
        knn.update(float(value))


def assert_same_knn(actual: StreamingKNN, expected: StreamingKNN) -> None:
    np.testing.assert_allclose(
        actual.last_similarity_profile, expected.last_similarity_profile, atol=1e-8
    )
    np.testing.assert_allclose(actual.knn_similarities, expected.knn_similarities, atol=1e-8)


class TestVariants:
    def test_variants_are_the_streaming_knn_and_its_two_alternatives(self):
        assert bench_knn_modes.VARIANTS["streaming"] is StreamingKNN
        for name in ALTERNATIVES:
            variant = bench_knn_modes.VARIANTS[name]
            assert issubclass(variant, StreamingKNN)
            assert "_incremental_dot_products" in vars(variant)
        assert sorted(ALTERNATIVES) == ["fft", "recompute"]

    @pytest.mark.parametrize("variant", ALTERNATIVES)
    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_tables_match_the_streaming_update(self, rng, variant, measure):
        values = rng.normal(size=300)  # 180 evictions past the first full window
        reference, other = build("streaming", measure), build(variant, measure)
        feed(reference, values)
        feed(other, values)
        assert_same_knn(other, reference)

    @pytest.mark.parametrize("variant", ALTERNATIVES)
    def test_every_update_runs_the_variants_own_dot_products(
        self, rng, monkeypatch, variant
    ):
        values = rng.normal(size=200)
        cls = bench_knn_modes.VARIANTS[variant]
        own = cls._incremental_dot_products
        calls = []

        def counted(self, window, m, evicted):
            calls.append(m)
            return own(self, window, m, evicted)

        def streaming_update(self, window, m, evicted):
            raise AssertionError(f"the {variant} variant ran the streaming update")

        monkeypatch.setattr(cls, "_incremental_dot_products", counted)
        monkeypatch.setattr(StreamingKNN, "_incremental_dot_products", streaming_update)
        feed(build(variant), values)
        # one step per update from the first complete subsequence on
        assert len(calls) == values.shape[0] - WIDTH + 1
        assert calls[-1] == WINDOW - WIDTH + 1

    @pytest.mark.parametrize("variant", ALTERNATIVES)
    @pytest.mark.parametrize("measure", SIMILARITY_MEASURES)
    def test_block_path_continues_from_the_kept_partial_products(
        self, rng, variant, measure
    ):
        # saturated steps sent in blocks run the streaming recurrence of the
        # block path from the partial products the variant's last step kept
        values = rng.normal(size=400)
        split = 200
        reference, other = build("streaming", measure), build(variant, measure)
        feed(reference, values)
        feed(other, values[:split])
        steps = other.update_many(values[split:])
        next(steps)
        try:
            while True:
                steps.send(BLOCK_ROWS)
        except StopIteration:
            pass
        assert other.n_seen == values.shape[0]
        assert_same_knn(other, reference)
