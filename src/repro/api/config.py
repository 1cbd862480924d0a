"""Frozen, declarative detector configurations (the "typed config" layer).

Every detector the registry can build is described by a frozen dataclass:

* construction parameters live in one hashable, picklable value object that
  can be logged, diffed, shipped to worker processes and embedded in
  checkpoints,
* validation lives in :meth:`SegmenterConfig.validate` — *not* in detector
  ``__init__`` bodies — so a config can be rejected before any detector
  state is allocated (e.g. when a shard spec arrives over the wire),
* :meth:`SegmenterConfig.to_dict` / :meth:`SegmenterConfig.from_dict` (and
  the ``to_json`` / ``from_json`` convenience pair) round-trip losslessly,
  which is what lets shards be constructed from JSON job specs and detectors
  be rebuilt from checkpoint payloads,
* :meth:`SegmenterConfig.build` constructs the ready-to-stream detector —
  the single construction path used by :func:`repro.api.create`.

The config classes deliberately mirror the keyword arguments of the
underlying detector constructors one-to-one, so ``SomeDetector(**config.as_kwargs())``
and ``config.build()`` are equivalent.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.kernels import KERNEL_BACKENDS
from repro.core.quality import DataPolicy, coerce_data_policy
from repro.core.scoring import SCORE_FUNCTIONS
from repro.core.significance import DEFAULT_SAMPLE_SIZE, DEFAULT_SIGNIFICANCE_LEVEL
from repro.core.similarity import SIMILARITY_MEASURES
from repro.core.window_size import WSS_METHODS
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int, check_probability


#: The ClaSP scoring switch retired from ClaSSConfig and ClaSPConfig.  Its four
#: implementations scored bit-identically, so a stored document naming any of
#: them loads as the config it describes today.
_RETIRED_SCORING = {"cross_val_implementation": ("fast", "vectorised", "incremental", "naive")}

#: The k-NN switches retired from ClaSSConfig (``knn_mode``) and ClaSPConfig
#: (``knn_backend``).  Only their default ran the streaming k-NN of today; the
#: ablation modes were not bit-identical to it, so naming one is rejected.
_RETIRED_CLASS = {**_RETIRED_SCORING, "knn_mode": ("streaming",)}
_RETIRED_CLASP = {**_RETIRED_SCORING, "knn_backend": ("streaming",)}


def _check_unit_interval(value: float, name: str) -> None:
    """Reject a score/threshold outside ``[0, 1]``.

    Deliberately not :func:`~repro.utils.validation.check_probability`: the
    historical detector ``__init__`` contract raises ConfigurationError with
    this exact message for ``score_threshold`` (pinned by the test-suite),
    while check_probability raises ValidationError.
    """
    if not 0.0 <= float(value) <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1]")


def _check_significance(significance_level: float, sample_size: int | None) -> None:
    """Shared checks of the significance-test parameters (moved out of __init__)."""
    if not 0.0 < float(significance_level) < 1.0:
        raise ConfigurationError("significance_level must lie strictly between 0 and 1")
    if sample_size is not None and int(sample_size) < 10:
        raise ConfigurationError("sample_size must be at least 10 (or None for variable)")


@dataclass(frozen=True)
class SegmenterConfig:
    """Base class of all detector configurations.

    Subclasses are frozen dataclasses whose fields mirror the keyword
    arguments of the detector they describe; ``detector`` is the registry key
    the config belongs to.  The base class carries the shared machinery:
    lossless ``to_dict``/``from_dict`` (and JSON) round-trips, field-checked
    :meth:`replace`, :meth:`validate` and the :meth:`build` construction hook,
    plus the shared keyword-only ``data_policy`` field — an optional
    :class:`repro.core.quality.DataPolicy` (also accepted as a mapping)
    that :func:`repro.api.create` turns into a sanitizing wrapper around
    the built detector.  ``data_policy=None`` (default) keeps the seed
    reject-everything behaviour and serialises to nothing.

    Example
    -------
    >>> from repro.api import ClaSSConfig
    >>> config = ClaSSConfig(window_size=500)
    >>> ClaSSConfig.from_dict(config.to_dict()) == config
    True
    """

    #: Registry key of the detector this config describes.
    detector: ClassVar[str] = ""

    #: Removed fields, each with the values that documents written before its
    #: removal may still carry; :meth:`from_dict` drops them.
    _retired: ClassVar[dict[str, tuple[str, ...]]] = {}

    #: Optional dirty-data policy shared by every detector config.  None (the
    #: default) keeps the seed reject-everything behaviour; a non-reject
    #: policy makes :func:`repro.api.create` wrap the detector in a
    #: :class:`repro.api.quality.SanitizingSegmenter`.
    data_policy: DataPolicy | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        # accept a mapping (HTTP specs, checkpoints) and validate eagerly
        object.__setattr__(self, "data_policy", coerce_data_policy(self.data_policy))

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dictionary of every field (nested configs become dicts).

        ``data_policy`` is omitted while None so default-config documents
        stay byte-identical to the seed serialisation.
        """
        payload: dict[str, Any] = {}
        for config_field in dataclasses.fields(self):
            value = getattr(self, config_field.name)
            if config_field.name == "data_policy":
                if value is None:
                    continue
                value = value.to_dict()
            elif isinstance(value, SegmenterConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[config_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SegmenterConfig":
        """Rebuild a config from :meth:`to_dict` output; unknown keys are rejected.

        A retired field is dropped when it carries one of its old values and
        rejected otherwise, so documents written before its removal still load.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{cls.__name__}.from_dict expects a mapping")
        for name, old_values in cls._retired.items():
            if name in payload:
                value = payload[name]
                if not (isinstance(value, str) and value in old_values):
                    raise ConfigurationError(
                        f"retired {cls.__name__} field {name!r} must be one of "
                        f"{list(old_values)}, got {value!r}"
                    )
                payload = {key: item for key, item in payload.items() if key != name}
        fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - set(fields_by_name))
        if unknown:
            raise ConfigurationError(f"unknown {cls.__name__} fields: {unknown}")
        kwargs: dict[str, Any] = {}
        for name, value in payload.items():
            if name == "class_config" and isinstance(value, dict):
                value = ClaSSConfig.from_dict(value)
            elif name == "data_policy" and isinstance(value, dict):
                value = DataPolicy.from_dict(value)
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the config as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "SegmenterConfig":
        """Rebuild a config from its :meth:`to_json` document."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid {cls.__name__} JSON: {error}") from error
        return cls.from_dict(payload)

    def replace(self, **overrides: Any) -> "SegmenterConfig":
        """A copy of the config with the given fields replaced."""
        unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(self)})
        if unknown:
            raise ConfigurationError(f"unknown {type(self).__name__} fields: {unknown}")
        return dataclasses.replace(self, **overrides)

    def as_kwargs(self) -> dict[str, Any]:
        """Constructor keyword arguments of the underlying detector.

        ``data_policy`` is excluded: it is applied by the registry as a
        wrapper around the built detector, not a constructor argument.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "data_policy"
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def validate(self) -> "SegmenterConfig":
        """Check the configuration; return self so calls chain."""
        return self

    def build(self):
        """Construct the ready-to-stream detector this config describes."""
        raise NotImplementedError  # pragma: no cover - abstract


@dataclass(frozen=True)
class ClaSSConfig(SegmenterConfig):
    """Configuration of :class:`repro.ClaSS` (paper §3; one field per argument).

    Parameters
    ----------
    window_size:
        Points retained in the sliding window the stream is scored over
        (paper ``w``; minimum 20).
    subsequence_width:
        Pattern width for the k-NN subsequences; ``None`` auto-estimates it
        from the warm-up prefix with ``wss_method`` (minimum 3 when set, and
        at most a quarter of ``window_size``).
    k_neighbours:
        Neighbours per subsequence in the streaming k-NN (paper ``k``).
    score:
        Cross-validation score name from ``SCORE_FUNCTIONS`` (e.g.
        ``"macro_f1"``).
    similarity:
        Subsequence similarity measure from ``SIMILARITY_MEASURES``
        (e.g. ``"pearson"``).
    significance_level:
        Change points are only reported when the permutation test's p-value
        falls below this level (strictly between 0 and 1).
    sample_size:
        Observations drawn per permutation-test sample (minimum 10), or
        ``None`` for variable-size samples.
    wss_method:
        Window-size selection method from ``WSS_METHODS`` used when
        ``subsequence_width`` is ``None`` (e.g. ``"suss"``).
    scoring_interval:
        Run the ClaSP scoring pass every this many observations (1 = every
        point, the paper's setting).
    excl_factor:
        Exclusion-zone factor: ``excl_factor * subsequence_width`` points at
        each region edge are never split candidates.
    score_threshold:
        Minimum best-split score in ``[0, 1]`` for a change-point report.
    relearn_width:
        Re-estimate the subsequence width after each detected change point.
    kernel_backend:
        Distance-kernel backend from ``KERNEL_BACKENDS`` (``"auto"`` picks
        the fastest available, e.g. the JIT backend when installed).
    random_state:
        Seed of the permutation test's generator (``None`` = nondeterministic).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when any field is out of range or names an
        unknown score/similarity/backend.

    Example
    -------
    >>> from repro.api import ClaSSConfig
    >>> ClaSSConfig(window_size=500, scoring_interval=10).validate().detector
    'class'
    """

    detector: ClassVar[str] = "class"
    _retired: ClassVar[dict[str, tuple[str, ...]]] = _RETIRED_CLASS

    window_size: int = 10_000
    subsequence_width: int | None = None
    k_neighbours: int = 3
    score: str = "macro_f1"
    similarity: str = "pearson"
    significance_level: float = DEFAULT_SIGNIFICANCE_LEVEL
    sample_size: int | None = DEFAULT_SAMPLE_SIZE
    wss_method: str = "suss"
    scoring_interval: int = 1
    excl_factor: int = 5
    score_threshold: float = 0.75
    relearn_width: bool = False
    kernel_backend: str = "auto"
    random_state: int | None = 2357

    def validate(self) -> "ClaSSConfig":
        check_positive_int(self.window_size, "window_size", minimum=20)
        if self.subsequence_width is not None:
            check_positive_int(self.subsequence_width, "subsequence_width", minimum=3)
            if self.subsequence_width > self.window_size // 4:
                raise ConfigurationError(
                    "subsequence_width must be at most a quarter of the window size"
                )
        check_positive_int(self.k_neighbours, "k_neighbours")
        if self.score not in SCORE_FUNCTIONS:
            raise ConfigurationError(
                f"unknown score {self.score!r}; expected one of {sorted(SCORE_FUNCTIONS)}"
            )
        if self.similarity not in SIMILARITY_MEASURES:
            raise ConfigurationError(
                f"unknown similarity {self.similarity!r}; expected one of {SIMILARITY_MEASURES}"
            )
        if self.wss_method not in WSS_METHODS:
            raise ConfigurationError(
                f"unknown wss_method {self.wss_method!r}; expected one of {sorted(WSS_METHODS)}"
            )
        check_positive_int(self.scoring_interval, "scoring_interval")
        check_positive_int(self.excl_factor, "excl_factor")
        _check_unit_interval(self.score_threshold, "score_threshold")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"unknown kernel backend {self.kernel_backend!r}; "
                f"expected one of {KERNEL_BACKENDS}"
            )
        _check_significance(self.significance_level, self.sample_size)
        return self

    def build(self):
        from repro.core.class_segmenter import ClaSS

        return ClaSS(**self.as_kwargs())


@dataclass(frozen=True)
class MultivariateClaSSConfig(SegmenterConfig):
    """Configuration of :class:`repro.MultivariateClaSS` (per-channel ensemble).

    Parameters
    ----------
    n_channels:
        Number of input channels; each gets its own univariate ClaSS.
    min_votes:
        Weighted votes required to report a fused change point (must be
        satisfiable by the active ``channel_weights``).
    fusion_tolerance:
        Per-channel detections within this many points of each other are
        fused into one change point (non-negative).
    channel_weights:
        Optional per-channel vote weights (one non-negative entry per
        channel); ``None`` weights every channel 1.
    class_config:
        The :class:`ClaSSConfig` every per-channel detector is built from.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when the ensemble parameters are inconsistent
        (e.g. ``min_votes`` unreachable) or the nested config is invalid.

    Example
    -------
    >>> from repro.api import ClaSSConfig, MultivariateClaSSConfig
    >>> config = MultivariateClaSSConfig(
    ...     n_channels=3, min_votes=2, class_config=ClaSSConfig(window_size=500)
    ... )
    >>> config.validate().detector
    'multivariate-class'
    """

    detector: ClassVar[str] = "multivariate-class"

    n_channels: int = 2
    min_votes: float = 2
    fusion_tolerance: int = 500
    channel_weights: tuple[float, ...] | None = None
    class_config: ClaSSConfig = field(default_factory=ClaSSConfig)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.channel_weights is not None and not isinstance(self.channel_weights, tuple):
            object.__setattr__(self, "channel_weights", tuple(self.channel_weights))

    def validate(self) -> "MultivariateClaSSConfig":
        if self.class_config.data_policy is not None:
            raise ConfigurationError(
                "data_policy belongs on the multivariate config itself, not the "
                "nested class_config"
            )
        if int(self.n_channels) < 1:
            raise ConfigurationError("n_channels must be at least 1")
        if self.fusion_tolerance < 0:
            raise ConfigurationError("fusion_tolerance must be non-negative")
        weights = self.channel_weights
        if weights is not None:
            if len(weights) != self.n_channels:
                raise ConfigurationError("channel_weights must have one entry per channel")
            if any(w < 0 for w in weights):
                raise ConfigurationError("channel_weights must be non-negative")
        else:
            weights = (1.0,) * self.n_channels
        active_weight = sum(w for w in weights if w > 0)
        if not 0 < float(self.min_votes) <= max(active_weight, 1e-12):
            raise ConfigurationError(
                f"min_votes={self.min_votes} cannot be satisfied by the active channel weights"
            )
        self.class_config.validate()
        return self

    def build(self):
        from repro.core.multivariate import MultivariateClaSS

        return MultivariateClaSS(
            n_channels=self.n_channels,
            min_votes=self.min_votes,
            fusion_tolerance=self.fusion_tolerance,
            channel_weights=None if self.channel_weights is None else list(self.channel_weights),
            **self.class_config.as_kwargs(),
        )


@dataclass(frozen=True)
class ClaSPConfig(SegmenterConfig):
    """Configuration of the batch-ClaSP streaming adapter (paper §2.2).

    The adapter buffers the stream and runs the batch segmentation on
    :meth:`~repro.api.adapters.BatchClaSPSegmenter.finalize`; the fields
    mirror :class:`repro.ClaSP`.

    Parameters
    ----------
    subsequence_width:
        Pattern width (minimum 3), or ``None`` to auto-estimate it with
        ``wss_method``.
    k_neighbours:
        Neighbours per subsequence in the k-NN.
    score:
        Cross-validation score name from ``SCORE_FUNCTIONS``.
    n_change_points:
        Stop after this many change points, or ``None`` for
        threshold-driven recursion.
    significance_level:
        Permutation-test significance level (strictly between 0 and 1).
    sample_size:
        Observations per permutation-test sample (minimum 10) or ``None``.
    wss_method:
        Window-size selection method from ``WSS_METHODS``.
    similarity:
        Subsequence similarity measure from ``SIMILARITY_MEASURES``.
    score_threshold:
        Minimum split score in ``[0, 1]`` to keep recursing.
    random_state:
        Seed of the permutation test's generator (``None`` = nondeterministic).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when any field is out of range or names an
        unknown score/similarity/backend.

    Example
    -------
    >>> from repro.api import ClaSPConfig
    >>> ClaSPConfig(n_change_points=2).validate().detector
    'clasp'
    """

    detector: ClassVar[str] = "clasp"
    _retired: ClassVar[dict[str, tuple[str, ...]]] = _RETIRED_CLASP

    subsequence_width: int | None = None
    k_neighbours: int = 3
    score: str = "macro_f1"
    n_change_points: int | None = None
    significance_level: float = 1e-15
    sample_size: int | None = 1_000
    wss_method: str = "suss"
    similarity: str = "pearson"
    score_threshold: float = 0.75
    random_state: int | None = 2357

    def validate(self) -> "ClaSPConfig":
        if self.subsequence_width is not None:
            check_positive_int(self.subsequence_width, "subsequence_width", minimum=3)
        check_positive_int(self.k_neighbours, "k_neighbours")
        if self.score not in SCORE_FUNCTIONS:
            raise ConfigurationError(
                f"unknown score {self.score!r}; expected one of {sorted(SCORE_FUNCTIONS)}"
            )
        if self.n_change_points is not None:
            check_positive_int(self.n_change_points, "n_change_points")
        if self.similarity not in SIMILARITY_MEASURES:
            raise ConfigurationError(
                f"unknown similarity {self.similarity!r}; expected one of {SIMILARITY_MEASURES}"
            )
        if self.wss_method not in WSS_METHODS:
            raise ConfigurationError(
                f"unknown wss_method {self.wss_method!r}; expected one of {sorted(WSS_METHODS)}"
            )
        _check_unit_interval(self.score_threshold, "score_threshold")
        _check_significance(self.significance_level, self.sample_size)
        return self

    def build(self):
        from repro.api.adapters import BatchClaSPSegmenter

        return BatchClaSPSegmenter(config=self)


@dataclass(frozen=True)
class CompetitorConfig(SegmenterConfig):
    """Base class of the eight competitor configurations (paper Table 2).

    ``competitor`` is the :data:`repro.competitors.COMPETITOR_REGISTRY` name
    the fields are forwarded to; :meth:`build` constructs the competitor
    through that registry.  Like every config it inherits the optional
    ``data_policy`` dirty-data field (never forwarded to the competitor —
    the registry wraps the built detector instead).

    Example
    -------
    >>> from repro.api import FLOSSConfig
    >>> FLOSSConfig().competitor
    'FLOSS'
    """

    #: Name in the competitor registry (paper spelling).
    competitor: ClassVar[str] = ""

    def build(self):
        from repro.competitors import get_competitor

        return get_competitor(self.competitor, **self.as_kwargs())


@dataclass(frozen=True)
class FLOSSConfig(CompetitorConfig):
    """Configuration of FLOSS (corrected arc curve over a streaming 1-NN).

    Parameters
    ----------
    window_size:
        Points retained in the sliding window (minimum 20).
    subsequence_width:
        Matrix-profile subsequence width (minimum 3).
    threshold:
        Report a boundary when the corrected arc curve dips below this.
    exclusion_zone:
        Points around a detection excluded from re-detection
        (non-negative; ``None`` derives it from the width).
    stride:
        Evaluate the arc curve every ``stride`` points.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when any field is out of range.

    Example
    -------
    >>> from repro.api import FLOSSConfig
    >>> FLOSSConfig(window_size=1000, subsequence_width=50).validate().detector
    'floss'
    """

    detector: ClassVar[str] = "floss"
    competitor: ClassVar[str] = "FLOSS"

    window_size: int = 10_000
    subsequence_width: int = 100
    threshold: float = 0.45
    exclusion_zone: int | None = None
    stride: int = 1

    def validate(self) -> "FLOSSConfig":
        check_positive_int(self.window_size, "window_size", minimum=20)
        check_positive_int(self.subsequence_width, "subsequence_width", minimum=3)
        check_positive_int(self.stride, "stride")
        if self.exclusion_zone is not None and int(self.exclusion_zone) < 0:
            raise ConfigurationError("exclusion_zone must be non-negative")
        return self


@dataclass(frozen=True)
class WindowConfig(CompetitorConfig):
    """Configuration of the Window segmenter (sliding two-window discrepancy).

    Parameters
    ----------
    window_size:
        Length of each of the two adjacent comparison windows (minimum 8).
    cost:
        Discrepancy cost name from ``COST_FUNCTIONS`` (e.g. ``"ar"``).
    threshold:
        Report a change point when the normalised cost gain exceeds this.
    exclusion_zone:
        Points around a detection excluded from re-detection
        (non-negative; ``None`` derives it from the window).
    stride:
        Evaluate the discrepancy every ``stride`` points.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when any field is out of range or ``cost``
        is unknown.

    Example
    -------
    >>> from repro.api import WindowConfig
    >>> WindowConfig(window_size=300, cost="ar").validate().detector
    'window'
    """

    detector: ClassVar[str] = "window"
    competitor: ClassVar[str] = "Window"

    window_size: int = 500
    cost: str = "ar"
    threshold: float = 0.2
    exclusion_zone: int | None = None
    stride: int = 1

    def validate(self) -> "WindowConfig":
        check_positive_int(self.window_size, "window_size", minimum=8)
        check_positive_int(self.stride, "stride")
        from repro.competitors.costs import COST_FUNCTIONS

        if self.cost not in COST_FUNCTIONS:
            raise ConfigurationError(
                f"unknown cost {self.cost!r}; expected one of {sorted(COST_FUNCTIONS)}"
            )
        if self.exclusion_zone is not None and int(self.exclusion_zone) < 0:
            raise ConfigurationError("exclusion_zone must be non-negative")
        return self


@dataclass(frozen=True)
class BOCDConfig(CompetitorConfig):
    """Configuration of Bayesian Online Change Point Detection.

    Parameters
    ----------
    hazard:
        Constant hazard rate: the prior probability in ``(0, 1)`` of a
        change at any step (1/expected run length).
    run_length_drop:
        Report a change point when the most probable run length drops by at
        least this many steps.
    max_run_length:
        Truncate the run-length posterior at this length (minimum 10).
    mu0:
        Prior mean of the Normal-Inverse-Gamma observation model.
    kappa0:
        Prior pseudo-count of the mean (confidence in ``mu0``).
    alpha0:
        Prior shape of the variance.
    beta0:
        Prior scale of the variance.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when ``hazard`` leaves ``(0, 1)`` or a
        run-length bound is not a positive integer.

    Example
    -------
    >>> from repro.api import BOCDConfig
    >>> BOCDConfig(hazard=1 / 100).validate().detector
    'bocd'
    """

    detector: ClassVar[str] = "bocd"
    competitor: ClassVar[str] = "BOCD"

    hazard: float = 1.0 / 250.0
    run_length_drop: int = 150
    max_run_length: int = 2_000
    mu0: float = 0.0
    kappa0: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def validate(self) -> "BOCDConfig":
        if not 0.0 < self.hazard < 1.0:
            raise ConfigurationError("hazard must lie in (0, 1)")
        check_positive_int(self.run_length_drop, "run_length_drop")
        check_positive_int(self.max_run_length, "max_run_length", minimum=10)
        return self


@dataclass(frozen=True)
class ChangeFinderConfig(CompetitorConfig):
    """Configuration of ChangeFinder (two-stage SDAR outlier scoring).

    Parameters
    ----------
    order:
        Order of the SDAR autoregressive models.
    discount:
        SDAR forgetting factor in ``(0, 1)`` (smaller = longer memory).
    smoothing:
        Width of the moving-average smoothing of the outlier scores.
    threshold:
        Report a change point when the second-stage score exceeds this.
    exclusion_zone:
        Points around a detection excluded from re-detection (non-negative).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when any field is out of range.

    Example
    -------
    >>> from repro.api import ChangeFinderConfig
    >>> ChangeFinderConfig(order=3, discount=0.02).validate().detector
    'change-finder'
    """

    detector: ClassVar[str] = "change-finder"
    competitor: ClassVar[str] = "ChangeFinder"

    order: int = 5
    discount: float = 0.01
    smoothing: int = 7
    threshold: float = 5.0
    exclusion_zone: int = 200

    def validate(self) -> "ChangeFinderConfig":
        check_positive_int(self.order, "order")
        if not 0.0 < self.discount < 1.0:
            raise ConfigurationError("discount must lie in (0, 1)")
        check_positive_int(self.smoothing, "smoothing")
        if int(self.exclusion_zone) < 0:
            raise ConfigurationError("exclusion_zone must be non-negative")
        return self


@dataclass(frozen=True)
class NEWMAConfig(CompetitorConfig):
    """Configuration of NEWMA (no-prior-knowledge EWMA with random features).

    Parameters
    ----------
    fast_forgetting:
        Forgetting factor of the fast EWMA (must exceed ``slow_forgetting``
        and be at most 1).
    slow_forgetting:
        Forgetting factor of the slow EWMA (strictly positive).
    embedding_size:
        Time-delay embedding dimension each observation is lifted to.
    n_features:
        Number of random Fourier features of the embedding.
    quantile:
        Adaptive-threshold quantile in ``[0, 1]`` over the recent statistic.
    threshold_window:
        Number of recent statistics the adaptive threshold is computed over.
    exclusion_zone:
        Points around a detection excluded from re-detection (non-negative).
    random_state:
        Seed of the random-feature generator (``None`` = nondeterministic).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when the forgetting factors are not ordered
        ``0 < slow < fast <= 1`` or any size is out of range.

    Example
    -------
    >>> from repro.api import NEWMAConfig
    >>> NEWMAConfig(fast_forgetting=0.1, slow_forgetting=0.02).validate().detector
    'newma'
    """

    detector: ClassVar[str] = "newma"
    competitor: ClassVar[str] = "NEWMA"

    fast_forgetting: float = 0.05
    slow_forgetting: float = 0.01
    embedding_size: int = 20
    n_features: int = 50
    quantile: float = 1.0
    threshold_window: int = 500
    exclusion_zone: int = 200
    random_state: int | None = 42

    def validate(self) -> "NEWMAConfig":
        if not 0.0 < self.slow_forgetting < self.fast_forgetting <= 1.0:
            raise ConfigurationError("require 0 < slow_forgetting < fast_forgetting <= 1")
        check_positive_int(self.embedding_size, "embedding_size")
        check_positive_int(self.n_features, "n_features")
        check_probability(self.quantile, "quantile")
        check_positive_int(self.threshold_window, "threshold_window")
        if int(self.exclusion_zone) < 0:
            raise ConfigurationError("exclusion_zone must be non-negative")
        return self


@dataclass(frozen=True)
class ADWINConfig(CompetitorConfig):
    """Configuration of ADWIN (adaptive windowing drift detection).

    Parameters
    ----------
    delta:
        Confidence parameter in ``(0, 1)`` of the Hoeffding cut test
        (smaller = fewer, more confident detections).
    max_buckets_per_level:
        Bucket capacity per exponential-histogram level (minimum 2).
    check_interval:
        Run the cut test every this many observations.
    min_window:
        Minimum window length before cuts are considered (minimum 4).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when ``delta`` leaves ``(0, 1)`` or a size
        is out of range.

    Example
    -------
    >>> from repro.api import ADWINConfig
    >>> ADWINConfig(delta=0.002).validate().detector
    'adwin'
    """

    detector: ClassVar[str] = "adwin"
    competitor: ClassVar[str] = "ADWIN"

    delta: float = 0.01
    max_buckets_per_level: int = 5
    check_interval: int = 32
    min_window: int = 300

    def validate(self) -> "ADWINConfig":
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        check_positive_int(self.max_buckets_per_level, "max_buckets_per_level", minimum=2)
        check_positive_int(self.check_interval, "check_interval")
        check_positive_int(self.min_window, "min_window", minimum=4)
        return self


@dataclass(frozen=True)
class DDMConfig(CompetitorConfig):
    """Configuration of DDM (drift detection over a binarised error stream).

    Parameters
    ----------
    warning_factor:
        Standard deviations above the running minimum error that raise the
        warning state.
    drift_factor:
        Standard deviations that report a drift (must exceed
        ``warning_factor``).
    min_observations:
        Observations required before the error statistics are trusted.
    predictor_order:
        Order of the autoregressive predictor whose mistakes form the
        binary error stream.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when ``drift_factor`` does not exceed
        ``warning_factor`` or a count is not a positive integer.

    Example
    -------
    >>> from repro.api import DDMConfig
    >>> DDMConfig(warning_factor=2.0, drift_factor=3.0).validate().detector
    'ddm'
    """

    detector: ClassVar[str] = "ddm"
    competitor: ClassVar[str] = "DDM"

    warning_factor: float = 2.0
    drift_factor: float = 20.0
    min_observations: int = 30
    predictor_order: int = 10

    def validate(self) -> "DDMConfig":
        if self.drift_factor <= self.warning_factor:
            raise ConfigurationError("drift_factor must exceed warning_factor")
        check_positive_int(self.min_observations, "min_observations")
        check_positive_int(self.predictor_order, "predictor_order")
        return self


@dataclass(frozen=True)
class HDDMConfig(CompetitorConfig):
    """Configuration of HDDM-A (Hoeffding-bound drift detection, averages).

    Parameters
    ----------
    drift_confidence:
        Hoeffding-bound confidence that reports a drift (must be below
        ``warning_confidence``).
    warning_confidence:
        Confidence that raises the warning state (in ``(0, 1)``).
    predictor_order:
        Order of the autoregressive predictor producing the error stream.
    value_range:
        Assumed range of the monitored values in the Hoeffding bound.
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when the confidences are not ordered
        ``0 < drift < warning < 1``.

    Example
    -------
    >>> from repro.api import HDDMConfig
    >>> HDDMConfig(drift_confidence=1e-5).validate().detector
    'hddm'
    """

    detector: ClassVar[str] = "hddm"
    competitor: ClassVar[str] = "HDDM"

    drift_confidence: float = 1e-6
    warning_confidence: float = 1e-3
    predictor_order: int = 10
    value_range: float = 6.0

    def validate(self) -> "HDDMConfig":
        if not 0.0 < self.drift_confidence < self.warning_confidence < 1.0:
            raise ConfigurationError("require 0 < drift_confidence < warning_confidence < 1")
        check_positive_int(self.predictor_order, "predictor_order")
        return self


@dataclass(frozen=True)
class HDDMWConfig(HDDMConfig):
    """Configuration of HDDM-W (the EWMA-weighted variant).

    Inherits the :class:`HDDMConfig` fields — ``drift_confidence``,
    ``warning_confidence``, ``predictor_order`` and ``value_range`` — and
    adds the EWMA weight.

    Parameters
    ----------
    ``lambda_``:
        EWMA weight in ``(0, 1)`` of the most recent error (trailing
        underscore because the bare keyword is reserved).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when ``lambda_`` leaves ``(0, 1)`` or an
        inherited confidence is out of order.

    Example
    -------
    >>> from repro.api import HDDMWConfig
    >>> HDDMWConfig(lambda_=0.1).validate().detector
    'hddm-w'
    """

    detector: ClassVar[str] = "hddm-w"
    competitor: ClassVar[str] = "HDDM-W"

    lambda_: float = 0.05

    def validate(self) -> "HDDMWConfig":
        super().validate()
        if not 0.0 < self.lambda_ < 1.0:
            raise ConfigurationError("lambda_ must lie in (0, 1)")
        return self


@dataclass(frozen=True)
class PageHinkleyConfig(CompetitorConfig):
    """Configuration of the Page-Hinkley cumulative-deviation test.

    Parameters
    ----------
    delta:
        Magnitude tolerance subtracted from each deviation before it is
        accumulated.
    threshold:
        Report a change point when the cumulative deviation exceeds this
        (strictly positive).
    min_observations:
        Observations required before the test may fire.
    two_sided:
        Track deviations in both directions (``False`` = increases only).
    data_policy:
        Optional dirty-data policy (:class:`repro.api.DataPolicy` or
        ``None``); a non-reject policy makes :func:`repro.api.create` wrap
        the detector in a sanitizing pre-pass.

    Raises
    ------
    ConfigurationError
        From :meth:`validate`, when ``threshold`` is not positive or
        ``min_observations`` is not a positive integer.

    Example
    -------
    >>> from repro.api import PageHinkleyConfig
    >>> PageHinkleyConfig(threshold=30.0).validate().detector
    'page-hinkley'
    """

    detector: ClassVar[str] = "page-hinkley"
    competitor: ClassVar[str] = "PageHinkley"

    delta: float = 0.005
    threshold: float = 50.0
    min_observations: int = 30
    two_sided: bool = True

    def validate(self) -> "PageHinkleyConfig":
        if self.threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        check_positive_int(self.min_observations, "min_observations")
        return self
