"""Tests for the unified detector API: registry, typed configs, protocol."""

import pickle

import numpy as np
import pytest

from repro import api
from repro.utils.exceptions import ConfigurationError

#: Retired config fields with the values stored documents may still carry:
#: the four scoring implementations scored identically, and the k-NN
#: switches' default is the one k-NN of today.
RETIRED_VALUES = [
    ("class", "cross_val_implementation", "fast"),
    ("class", "cross_val_implementation", "vectorised"),
    ("class", "cross_val_implementation", "incremental"),
    ("class", "cross_val_implementation", "naive"),
    ("clasp", "cross_val_implementation", "fast"),
    ("clasp", "cross_val_implementation", "vectorised"),
    ("clasp", "cross_val_implementation", "incremental"),
    ("clasp", "cross_val_implementation", "naive"),
    ("class", "knn_mode", "streaming"),
    ("clasp", "knn_backend", "streaming"),
]

RETIRED_FIELDS = [
    ("class", "cross_val_implementation"),
    ("clasp", "cross_val_implementation"),
    ("class", "knn_mode"),
    ("clasp", "knn_backend"),
]


class TestRegistry:
    def test_available_covers_class_clasp_and_all_competitors(self):
        keys = set(api.available())
        assert {
            "class", "multivariate-class", "clasp",
            "floss", "window", "bocd", "change-finder", "newma",
            "adwin", "ddm", "hddm", "hddm-w", "page-hinkley",
        } <= keys

    @pytest.mark.parametrize("key", sorted(api.available()))
    def test_create_builds_protocol_conformant_detectors(self, key):
        segmenter = api.create(key)
        assert isinstance(segmenter, api.Segmenter)
        assert api.ensure_segmenter(segmenter) is segmenter

    def test_paper_spellings_are_aliases(self):
        for name in ("ClaSS", "FLOSS", "Window", "BOCD", "ChangeFinder",
                     "NEWMA", "ADWIN", "DDM", "HDDM", "PageHinkley"):
            assert api.create(name) is not None

    def test_unknown_key_is_rejected_with_candidates(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            api.create("bogus")

    def test_create_accepts_config_dict_and_overrides(self):
        segmenter = api.create("class", {"window_size": 2_000}, scoring_interval=5)
        assert segmenter.config.window_size == 2_000
        assert segmenter.config.scoring_interval == 5

    def test_create_rejects_mismatched_config_type(self):
        with pytest.raises(ConfigurationError, match="expects a ClaSSConfig"):
            api.create("class", api.FLOSSConfig())

    @pytest.mark.parametrize(
        "key, field, value",
        [
            ("class", "score_threshold", 1.5),
            # wrongly typed values fail a cast or comparison in validate
            ("class", "score_threshold", {}),
            ("class", "significance_level", "x"),
            ("class", "sample_size", "x"),
            ("multivariate-class", "min_votes", "x"),
            ("multivariate-class", "n_channels", "x"),
            ("page-hinkley", "threshold", {}),
            ("ddm", "drift_factor", "x"),
        ],
    )
    def test_create_validates_before_construction(self, key, field, value):
        with pytest.raises(ConfigurationError):
            api.create(key, **{field: value})
        with pytest.raises(ConfigurationError):
            api.create(key, {field: value})

    def test_create_rejects_unknown_override_without_a_config(self):
        with pytest.raises(ConfigurationError, match="unknown ClaSSConfig fields"):
            api.create("class", bogus=1)
        with pytest.raises(ConfigurationError, match="unknown ClaSSConfig fields"):
            api.create("class", {}, bogus=1)

    def test_register_custom_detector(self):
        spec = api.register(
            "custom-ddm", api.DDMConfig, summary="shadowed DDM for the registry test"
        )
        try:
            assert spec.key == "custom-ddm"
            segmenter = api.create("Custom_DDM", min_observations=11)
            assert segmenter.name == "DDM"
            assert segmenter.min_observations == 11
        finally:
            from repro.api import registry

            registry._REGISTRY.pop("custom-ddm", None)

    def test_key_for_config_round_trips(self):
        for key in api.available():
            assert api.key_for_config(api.config_class(key)()) == key


class TestConfigs:
    @pytest.mark.parametrize("key", sorted(api.available()))
    def test_json_round_trip_for_every_registered_config(self, key):
        config_cls = api.config_class(key)
        config = config_cls()
        assert config_cls.from_dict(config.to_dict()) == config
        assert config_cls.from_json(config.to_json()) == config
        assert config_cls.from_json(config.to_json(indent=2)) == config

    @pytest.mark.parametrize("key", sorted(api.available()))
    def test_every_config_pickles_and_validates(self, key):
        config = api.config_class(key)()
        assert pickle.loads(pickle.dumps(config)) == config
        assert config.validate() is config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown ClaSSConfig fields"):
            api.ClaSSConfig.from_dict({"window_size": 100, "typo_field": 1})

    @pytest.mark.parametrize("key, field, old", RETIRED_VALUES)
    def test_retired_field_loads_from_stored_documents(self, key, field, old):
        config_cls = api.config_class(key)
        stored = {**config_cls().to_dict(), field: old}
        assert config_cls.from_dict(stored) == config_cls()
        assert field not in api.create(key, stored).config.to_dict()

    @pytest.mark.parametrize("key, field", RETIRED_FIELDS)
    @pytest.mark.parametrize("value", ["bogus", {}, None, 1, "recompute", "fft", "bruteforce"])
    def test_retired_field_rejects_other_values(self, key, field, value):
        # the retired k-NN modes were not bit-identical to today's k-NN
        with pytest.raises(ConfigurationError, match=f"retired .* field '{field}'"):
            api.config_class(key).from_dict({field: value})
        with pytest.raises(ConfigurationError, match=f"retired .* field '{field}'"):
            api.create(key, {field: value})

    @pytest.mark.parametrize(
        "key, field, old",
        [
            ("class", "cross_val_implementation", "fast"),
            ("class", "knn_mode", "streaming"),
            ("clasp", "knn_backend", "streaming"),
        ],
    )
    def test_retired_field_has_no_keyword_shim(self, key, field, old):
        config_cls = api.config_class(key)
        with pytest.raises(TypeError):
            config_cls(**{field: old})
        with pytest.raises(ConfigurationError, match=f"unknown {config_cls.__name__} fields"):
            api.create(key, **{field: old})
        with pytest.raises(ConfigurationError, match="unknown FLOSSConfig fields"):
            api.FLOSSConfig.from_dict({field: old})

    @pytest.mark.parametrize(
        "field, old", [("cross_val_implementation", "naive"), ("knn_mode", "streaming")]
    )
    def test_retired_field_in_nested_class_config(self, field, old):
        stored = {"class_config": {"window_size": 900, field: old}}
        config = api.MultivariateClaSSConfig.from_dict(stored)
        assert config.class_config == api.ClaSSConfig(window_size=900)
        stored["class_config"][field] = "fft"
        with pytest.raises(ConfigurationError, match=f"retired ClaSSConfig field '{field}'"):
            api.MultivariateClaSSConfig.from_dict(stored)

    def test_from_json_rejects_invalid_document(self):
        with pytest.raises(ConfigurationError, match="invalid ClaSSConfig JSON"):
            api.ClaSSConfig.from_json("{not json")

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown ClaSSConfig fields"):
            api.ClaSSConfig().replace(bogus=1)

    def test_nested_multivariate_config_round_trips(self):
        config = api.MultivariateClaSSConfig(
            n_channels=3,
            min_votes=2,
            channel_weights=(1.0, 0.5, 0.0),
            class_config=api.ClaSSConfig(window_size=900, scoring_interval=10),
        )
        payload = config.to_dict()
        assert payload["class_config"]["window_size"] == 900
        assert payload["channel_weights"] == [1.0, 0.5, 0.0]
        restored = api.MultivariateClaSSConfig.from_dict(payload)
        assert restored == config
        assert isinstance(restored.class_config, api.ClaSSConfig)

    def test_validation_moved_out_of_init(self):
        # the config rejects what the detector __init__ used to reject,
        # without allocating any detector state
        with pytest.raises(ConfigurationError):
            api.ClaSSConfig(window_size=100, subsequence_width=40).validate()
        with pytest.raises(ConfigurationError):
            api.ClaSSConfig(kernel_backend="bogus").validate()
        with pytest.raises(ConfigurationError):
            api.BOCDConfig(hazard=2.0).validate()
        with pytest.raises(ConfigurationError):
            api.ADWINConfig(delta=0.0).validate()
        with pytest.raises(ConfigurationError):
            api.DDMConfig(warning_factor=5.0, drift_factor=2.0).validate()
        with pytest.raises(ConfigurationError):
            api.HDDMWConfig(lambda_=1.5).validate()
        with pytest.raises(ConfigurationError):
            api.WindowConfig(cost="bogus").validate()

    def test_config_build_equals_registry_create(self):
        config = api.ClaSSConfig(window_size=1_200, scoring_interval=25)
        built = config.build()
        created = api.create("class", config)
        assert built.config == created.config
        assert type(built) is type(created)

    def test_detector_construction_keeps_config(self, sine_square_stream):
        values, _ = sine_square_stream
        segmenter = api.create(
            "class", window_size=1_000, subsequence_width=25, scoring_interval=50
        )
        segmenter.process(values)
        assert segmenter.config.window_size == 1_000
        assert isinstance(segmenter.change_points, np.ndarray)


class TestApiSurfaceGate:
    def test_committed_surface_matches_live_surface(self):
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "check_api_surface.py"
        spec = importlib.util.spec_from_file_location("check_api_surface", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        removed, added = module.check()
        assert not removed, f"public API entries disappeared: {removed}"
        assert not added, f"public API grew without updating api_surface.txt: {added}"
