"""Checkpoint/resume tests: bit-identical completion for every segmenter.

The contract under test (the acceptance bar of the unified API): stream half
of a series, ``save_state`` (shipping the payload through pickle, as a worker
migration would), restore into a fresh instance, stream the rest — the
resumed run must report exactly the change points, detection times, scores
and p-values of the uninterrupted run, for ClaSS (across scoring intervals),
MultivariateClaSS, the batch-ClaSP adapter and all eight competitors.
"""

import pickle

import numpy as np
import pytest

from repro import api
from repro.api.checkpoint import write_payload_file
from repro.core.streaming_knn import StreamingKNN
from repro.utils.exceptions import ConfigurationError

#: The eight competitors of the paper's evaluation plus the two registry extras.
COMPETITOR_KEYS = (
    "floss", "window", "bocd", "change-finder", "newma",
    "adwin", "ddm", "hddm", "hddm-w", "page-hinkley",
)


def _competitor_kwargs(key):
    """Stream-sized overrides for the two window-based competitors."""
    if key == "floss":
        return {"window_size": 500, "subsequence_width": 20}
    if key == "window":
        return {"window_size": 120}
    return {}


def _resume_through_pickle(segmenter):
    """Checkpoint, ship the payload through pickle, rebuild from it alone."""
    payload = pickle.loads(pickle.dumps(segmenter.save_state()))
    return api.restore(payload)


def _assert_same_outcome(uninterrupted, resumed):
    np.testing.assert_array_equal(uninterrupted.change_points, resumed.change_points)
    if hasattr(uninterrupted, "detection_times"):
        np.testing.assert_array_equal(
            uninterrupted.detection_times, resumed.detection_times
        )


@pytest.fixture(scope="module")
def checkpoint_stream():
    rng = np.random.default_rng(99)
    t = np.arange(900)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / 20), np.sign(np.sin(2 * np.pi * t / 55))]
    ) + rng.normal(0, 0.08, 1_800)
    return values


class TestCompetitorCheckpoints:
    @pytest.mark.parametrize("key", COMPETITOR_KEYS)
    def test_resume_is_bit_identical(self, key, checkpoint_stream):
        kwargs = _competitor_kwargs(key)
        uninterrupted = api.create(key, **kwargs)
        uninterrupted.process(checkpoint_stream)
        uninterrupted.finalize()

        first_half = api.create(key, **kwargs)
        first_half.process(checkpoint_stream[:1_100])
        resumed = _resume_through_pickle(first_half)
        assert resumed is not first_half
        resumed.process(checkpoint_stream[1_100:])
        resumed.finalize()
        _assert_same_outcome(uninterrupted, resumed)
        assert resumed.n_seen == checkpoint_stream.shape[0]

    @pytest.mark.parametrize("key", COMPETITOR_KEYS)
    def test_direct_pickle_of_live_segmenter_also_resumes(self, key, checkpoint_stream):
        kwargs = _competitor_kwargs(key)
        uninterrupted = api.create(key, **kwargs)
        uninterrupted.process(checkpoint_stream)

        half = api.create(key, **kwargs)
        half.process(checkpoint_stream[:1_100])
        clone = pickle.loads(pickle.dumps(half))
        clone.process(checkpoint_stream[1_100:])
        _assert_same_outcome(uninterrupted, clone)


class TestClaSSCheckpoints:
    @pytest.mark.parametrize("scoring_interval", (1, 7))
    def test_resume_is_bit_identical_across_intervals(self, scoring_interval, checkpoint_stream):
        config = api.ClaSSConfig(
            window_size=600, subsequence_width=20, scoring_interval=scoring_interval
        )
        uninterrupted = api.create("class", config)
        uninterrupted.process(checkpoint_stream)

        half = api.create("class", config)
        half.process(checkpoint_stream[:1_000])
        resumed = _resume_through_pickle(half)
        resumed.process(checkpoint_stream[1_000:])

        assert resumed.config == config
        np.testing.assert_array_equal(uninterrupted.change_points, resumed.change_points)
        assert len(uninterrupted.reports) == len(resumed.reports)
        for expected, actual in zip(uninterrupted.reports, resumed.reports):
            assert expected.change_point == actual.change_point
            assert expected.detected_at == actual.detected_at
            assert expected.score == actual.score  # bit-identical, not approx
            assert expected.p_value == actual.p_value

    def test_checkpoint_during_warmup_learns_the_same_width(self, checkpoint_stream):
        config = api.ClaSSConfig(window_size=600, scoring_interval=10)  # width learned
        uninterrupted = api.create("class", config)
        uninterrupted.process(checkpoint_stream)

        early = api.create("class", config)
        early.process(checkpoint_stream[:200])  # still buffering the prefix
        resumed = _resume_through_pickle(early)
        assert resumed.subsequence_width_ is None
        resumed.process(checkpoint_stream[200:])
        assert resumed.subsequence_width_ == uninterrupted.subsequence_width_
        np.testing.assert_array_equal(uninterrupted.change_points, resumed.change_points)

    def test_resume_preserves_significance_rng_stream(self, checkpoint_stream):
        # the p-values after resume depend on the resampling RNG continuing
        # exactly where it stopped; a reseeded RNG would diverge
        config = api.ClaSSConfig(
            window_size=600, subsequence_width=20, scoring_interval=1,
            significance_level=1e-10,
        )
        uninterrupted = api.create("class", config)
        uninterrupted.process(checkpoint_stream)
        half = api.create("class", config)
        half.process(checkpoint_stream[:1_000])
        resumed = _resume_through_pickle(half)
        resumed.process(checkpoint_stream[1_000:])
        assert [r.p_value for r in resumed.reports] == [
            r.p_value for r in uninterrupted.reports
        ]

    def test_events_survive_the_round_trip(self, checkpoint_stream):
        config = api.ClaSSConfig(window_size=600, subsequence_width=20, scoring_interval=5)
        segmenter = api.create("class", config)
        segmenter.process(checkpoint_stream)
        resumed = _resume_through_pickle(segmenter)
        assert [e.to_dict() for e in resumed.events()] == [
            e.to_dict() for e in segmenter.events()
        ]


class TestMultivariateCheckpoints:
    def test_resume_is_bit_identical(self, checkpoint_stream):
        rng = np.random.default_rng(5)
        values = np.stack(
            [checkpoint_stream, np.roll(checkpoint_stream, 4), rng.normal(size=1_800)],
            axis=1,
        )
        config = api.MultivariateClaSSConfig(
            n_channels=3,
            min_votes=2,
            fusion_tolerance=300,
            channel_weights=(1.0, 1.0, 0.0),
            class_config=api.ClaSSConfig(
                window_size=700, subsequence_width=20, scoring_interval=20
            ),
        )
        uninterrupted = api.create("multivariate-class", config)
        uninterrupted.process(values)

        half = api.create("multivariate-class", config)
        half.process(values[:1_000])
        resumed = _resume_through_pickle(half)
        resumed.process(values[1_000:])
        np.testing.assert_array_equal(uninterrupted.change_points, resumed.change_points)
        assert [f.supporting_channels for f in resumed.fused_reports] == [
            f.supporting_channels for f in uninterrupted.fused_reports
        ]


class TestBatchClaSPCheckpoints:
    def test_resume_then_finalize_matches_uninterrupted(self, checkpoint_stream):
        uninterrupted = api.create("clasp", subsequence_width=20)
        uninterrupted.process(checkpoint_stream)
        uninterrupted.finalize()

        half = api.create("clasp", subsequence_width=20)
        half.process(checkpoint_stream[:700])
        resumed = _resume_through_pickle(half)
        resumed.process(checkpoint_stream[700:])
        resumed.finalize()
        np.testing.assert_array_equal(uninterrupted.change_points, resumed.change_points)

    def test_finalized_adapter_rejects_more_data(self, checkpoint_stream):
        adapter = api.create("clasp", subsequence_width=20)
        adapter.process(checkpoint_stream)
        adapter.finalize()
        with pytest.raises(ConfigurationError, match="finalized"):
            adapter.process(checkpoint_stream[:10])


class TestCheckpointEnvelope:
    def test_save_checkpoint_load_checkpoint_round_trip(self, tmp_path, checkpoint_stream):
        segmenter = api.create("class", window_size=600, subsequence_width=20)
        segmenter.process(checkpoint_stream[:1_000])
        path = api.save_checkpoint(segmenter, tmp_path / "state.ckpt")
        resumed = api.load_checkpoint(path)
        assert resumed.n_seen == segmenter.n_seen
        resumed.process(checkpoint_stream[1_000:])
        segmenter.process(checkpoint_stream[1_000:])
        np.testing.assert_array_equal(segmenter.change_points, resumed.change_points)

    @pytest.mark.parametrize(
        "field, old",
        [
            ("cross_val_implementation", "fast"),
            ("cross_val_implementation", "naive"),
            ("knn_mode", "streaming"),
        ],
    )
    def test_checkpoint_naming_a_retired_field_resumes(
        self, tmp_path, checkpoint_stream, field, old
    ):
        config = api.ClaSSConfig(window_size=600, subsequence_width=20, scoring_interval=5)
        uninterrupted = api.create("class", config)
        uninterrupted.process(checkpoint_stream)
        half = api.create("class", config)
        half.process(checkpoint_stream[:1_000])
        payload = half.save_state()
        payload["config"][field] = old  # written before its removal
        if field == "knn_mode":
            payload["state"]["knn"]["config"]["mode"] = old  # and so was the k-NN's state
        path = write_payload_file(tmp_path / "old.ckpt", payload)
        for resumed in (api.restore(payload), api.load_checkpoint(path)):
            assert resumed.config == config
            resumed.process(checkpoint_stream[1_000:])
            assert resumed.reports == uninterrupted.reports

    def test_load_state_rejects_foreign_detector_payload(self, checkpoint_stream):
        ddm = api.create("ddm")
        ddm.process(checkpoint_stream[:100])
        payload = ddm.save_state()
        adwin = api.create("adwin")
        with pytest.raises(ConfigurationError, match="belongs to detector"):
            adwin.load_state(payload)

    def test_failed_restore_leaves_the_live_segmenter_untouched(self, checkpoint_stream):
        # a rejected payload must not corrupt the instance it was offered to:
        # validation happens before any mutation
        foreign = api.create("ddm")
        foreign.process(checkpoint_stream[:100])
        foreign_payload = foreign.save_state()

        segmenter = api.create("class", window_size=600, subsequence_width=20)
        segmenter.process(checkpoint_stream[:1_000])
        seen_before = segmenter.n_seen
        cps_before = segmenter.change_points.tolist()
        with pytest.raises(ConfigurationError):
            segmenter.load_state(foreign_payload)
        assert segmenter.n_seen == seen_before
        assert segmenter.change_points.tolist() == cps_before
        # and the stream continues exactly as if nothing happened
        reference = api.create("class", window_size=600, subsequence_width=20)
        reference.process(checkpoint_stream)
        segmenter.process(checkpoint_stream[1_000:])
        np.testing.assert_array_equal(reference.change_points, segmenter.change_points)

        ensemble = api.create(
            "multivariate-class",
            api.MultivariateClaSSConfig(
                n_channels=2,
                class_config=api.ClaSSConfig(window_size=600, subsequence_width=20),
            ),
        )
        ensemble.process(np.stack([checkpoint_stream, checkpoint_stream], axis=1)[:500])
        seen_before = ensemble.n_seen
        with pytest.raises(ConfigurationError):
            ensemble.load_state(foreign_payload)
        assert ensemble.n_seen == seen_before

    @pytest.mark.parametrize("change", ["knn-width", "knn-state-mode", "config-knn-mode"])
    def test_rejected_class_payload_leaves_the_save_state_bytes(self, checkpoint_stream, change):
        # restored into a fresh detector first: nothing of the live one moves
        segmenter = api.create("class", window_size=500, scoring_interval=10)
        segmenter.process(checkpoint_stream[:1_500])
        payload = segmenter.save_state()
        before = pickle.dumps(payload)
        if change == "knn-width":
            payload["state"]["knn"]["config"]["subsequence_width"] += 1
        elif change == "knn-state-mode":
            payload["state"]["knn"]["config"]["mode"] = "fft"
        else:
            payload["config"]["knn_mode"] = "recompute"
        with pytest.raises(ConfigurationError):
            segmenter.load_state(payload)
        with pytest.raises(ConfigurationError, match="mode" if "mode" in change else "restore"):
            api.restore(payload)
        assert pickle.dumps(segmenter.save_state()) == before
        assert segmenter.n_seen == segmenter._knn.n_seen == 1_500
        reference = api.create("class", window_size=500, scoring_interval=10)
        reference.process(checkpoint_stream)
        segmenter.process(checkpoint_stream[1_500:])
        assert segmenter.reports == reference.reports

    def test_rejected_channel_leaves_the_whole_ensemble(self, checkpoint_stream):
        config = api.MultivariateClaSSConfig(
            n_channels=2, class_config=api.ClaSSConfig(window_size=500, scoring_interval=10)
        )
        values = np.stack([checkpoint_stream, checkpoint_stream[::-1]], axis=1)
        earlier = api.create("multivariate-class", config)
        earlier.process(values[:1_200])
        payload = earlier.save_state()
        payload["state"]["channels"][1]["state"]["knn"]["config"]["k_neighbours"] = 4
        ensemble = api.create("multivariate-class", config)
        ensemble.process(values[:1_500])
        before = pickle.dumps(ensemble.save_state())
        with pytest.raises(ConfigurationError, match="cannot restore"):
            ensemble.load_state(payload)
        assert pickle.dumps(ensemble.save_state()) == before
        assert [channel.n_seen for channel in ensemble.segmenters] == [1_500, 1_500]

    def test_rejected_clasp_payload_leaves_the_adapter(self, checkpoint_stream):
        adapter = api.create("clasp", subsequence_width=20)
        adapter.process(checkpoint_stream[:300])
        before = pickle.dumps(adapter.save_state())
        payload = api.create("clasp", subsequence_width=30).save_state()
        payload["state"]["values"] = "not numbers"
        with pytest.raises(ValueError):
            adapter.load_state(payload)
        assert pickle.dumps(adapter.save_state()) == before

    @pytest.mark.parametrize("mode", ["streaming", "fft"])
    def test_floss_checkpoint_naming_a_retired_knn_mode(self, checkpoint_stream, mode):
        # FLOSS checkpoints pickle its live k-NN, which carried a mode before its removal
        kwargs = _competitor_kwargs("floss")
        uninterrupted = api.create("floss", **kwargs)
        uninterrupted.process(checkpoint_stream)
        half = api.create("floss", **kwargs)
        half.process(checkpoint_stream[:1_100])
        payload = half.save_state()
        payload["state"]["_knn"].mode = mode
        blob = pickle.dumps(payload)
        if mode != "streaming":
            with pytest.raises(ConfigurationError, match="retired StreamingKNN field 'mode'"):
                pickle.loads(blob)
            before = pickle.dumps(half.save_state())
            with pytest.raises(ConfigurationError, match="retired StreamingKNN field 'mode'"):
                half.load_state(payload)  # its copy fails before the detector is cleared
            assert pickle.dumps(half.save_state()) == before
            return
        resumed = api.restore(pickle.loads(blob))
        resumed.process(checkpoint_stream[1_100:])
        _assert_same_outcome(uninterrupted, resumed)

    def test_load_state_rejects_unknown_format(self):
        segmenter = api.create("ddm")
        with pytest.raises(ConfigurationError, match="unsupported checkpoint format"):
            segmenter.load_state({"format": "repro.checkpoint/999", "detector": "ddm", "state": {}})

    def test_restore_rejects_malformed_payload(self):
        with pytest.raises(ConfigurationError):
            api.restore({"state": {}})


class TestStreamingKNNState:
    def test_state_dict_round_trip_is_bit_identical(self, rng):
        values = rng.normal(size=700)
        uninterrupted = StreamingKNN(window_size=200, subsequence_width=10)
        for ready in uninterrupted.update_many(values):
            pass

        half = StreamingKNN(window_size=200, subsequence_width=10)
        for ready in half.update_many(values[:400]):
            pass
        state = pickle.loads(pickle.dumps(half.state_dict()))
        resumed = StreamingKNN(window_size=200, subsequence_width=10)
        resumed.load_state_dict(state)
        for ready in resumed.update_many(values[400:]):
            pass
        np.testing.assert_array_equal(uninterrupted.knn_indices, resumed.knn_indices)
        np.testing.assert_array_equal(
            uninterrupted.knn_similarities, resumed.knn_similarities
        )

    def test_load_state_dict_rejects_mismatched_configuration(self, rng):
        knn = StreamingKNN(window_size=200, subsequence_width=10)
        for ready in knn.update_many(rng.normal(size=300)):
            pass
        other = StreamingKNN(window_size=100, subsequence_width=10)
        with pytest.raises(ConfigurationError, match="cannot restore"):
            other.load_state_dict(knn.state_dict())
