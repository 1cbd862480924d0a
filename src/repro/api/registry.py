"""String-keyed detector registry: one construction path for every layer.

``create("class", config)`` is the single way the evaluation grid, the
stream engine shards and the CLI build detectors.  Each registered detector
is described by a :class:`DetectorSpec` tying a stable string key to its
typed config class and a builder; configs are validated before construction,
so malformed JSON job specs fail fast and identically everywhere.

Keys are normalised (case-insensitive, ``_``/space become ``-``) and the
paper spellings used throughout the evaluation (``"ClaSS"``, ``"HDDM"``,
``"ChangeFinder"``, ...) resolve to the same specs, so existing call sites
migrate without renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.config import (
    ADWINConfig,
    BOCDConfig,
    ChangeFinderConfig,
    ClaSPConfig,
    ClaSSConfig,
    DDMConfig,
    FLOSSConfig,
    HDDMConfig,
    HDDMWConfig,
    MultivariateClaSSConfig,
    NEWMAConfig,
    PageHinkleyConfig,
    SegmenterConfig,
    WindowConfig,
)
from repro.utils.exceptions import ConfigurationError, ReproError


@dataclass(frozen=True)
class DetectorSpec:
    """One registered detector: key, config type, builder and a summary line.

    ``key`` is the canonical registry key, ``config_cls`` the typed config
    class validated before construction, ``builder`` the callable turning a
    validated config into a live detector, and ``summary`` a one-line
    description shown by the CLI and the generated docs.

    Example
    -------
    >>> from repro import api
    >>> api.spec("class").config_cls.__name__
    'ClaSSConfig'
    """

    key: str
    config_cls: type[SegmenterConfig]
    builder: Callable[[SegmenterConfig], object]
    summary: str


_REGISTRY: dict[str, DetectorSpec] = {}

#: Historical spellings accepted by :func:`create` (normalised form -> key).
_ALIASES = {
    "changefinder": "change-finder",
    "pagehinkley": "page-hinkley",
    "multivariateclass": "multivariate-class",
    "mclass": "multivariate-class",
    "hddm-a": "hddm",
}


def normalise_key(key: str) -> str:
    """Canonical form of a registry key (lower-case, dash-separated).

    Returns the canonical key with historical aliases resolved
    (``"HDDM-A"`` and ``"hddm_a"`` both map to ``"hddm"``); raises
    :class:`~repro.utils.exceptions.ConfigurationError` when ``key`` is not
    a string.

    Example
    -------
    >>> normalise_key("ChangeFinder")
    'change-finder'
    """
    if not isinstance(key, str):
        raise ConfigurationError(f"detector key must be a string, got {type(key).__name__}")
    normalised = key.strip().lower().replace("_", "-").replace(" ", "-")
    return _ALIASES.get(normalised, normalised)


def register(
    key: str,
    config_cls: type[SegmenterConfig],
    builder: Callable[[SegmenterConfig], object] | None = None,
    summary: str = "",
) -> DetectorSpec:
    """Register a detector under ``key`` (the extension point for user detectors).

    ``builder`` defaults to the config's own :meth:`~repro.api.config.SegmenterConfig.build`;
    re-registering an existing key replaces the spec (latest wins), which is
    how downstream code can shadow a built-in with a tuned variant.

    Parameters
    ----------
    key:
        Registry key the detector is reachable under (normalised first).
    config_cls:
        The :class:`~repro.api.config.SegmenterConfig` subclass describing
        the detector's parameters.
    builder:
        Optional callable turning a validated config into the detector.
    summary:
        One-line description shown by the CLI and the generated docs.

    Returns
    -------
    The registered :class:`DetectorSpec`.

    Raises
    ------
    ConfigurationError
        When the key is empty (after normalisation) or ``config_cls`` is
        not a ``SegmenterConfig`` subclass.

    Example
    -------
    >>> from repro.api import ClaSSConfig, register
    >>> register("my-class", ClaSSConfig, summary="tuned variant").key
    'my-class'
    """
    canonical = normalise_key(key)
    if not canonical:
        raise ConfigurationError("detector key must not be empty")
    if not (isinstance(config_cls, type) and issubclass(config_cls, SegmenterConfig)):
        raise ConfigurationError("config_cls must be a SegmenterConfig subclass")
    spec = DetectorSpec(
        key=canonical,
        config_cls=config_cls,
        builder=builder if builder is not None else (lambda config: config.build()),
        summary=summary,
    )
    _REGISTRY[canonical] = spec
    return spec


def available() -> tuple[str, ...]:
    """All registered detector keys, as a sorted tuple (the return value).

    Example
    -------
    >>> from repro import api
    >>> "class" in api.available()
    True
    """
    return tuple(sorted(_REGISTRY))


def spec(key: str) -> DetectorSpec:
    """Return the :class:`DetectorSpec` registered under ``key``.

    Raises :class:`~repro.utils.exceptions.ConfigurationError` for keys no
    detector is registered under.

    Example
    -------
    >>> from repro import api
    >>> api.spec("floss").key
    'floss'
    """
    canonical = normalise_key(key)
    if canonical not in _REGISTRY:
        raise ConfigurationError(
            f"unknown detector {key!r}; expected one of {list(available())}"
        )
    return _REGISTRY[canonical]


def config_class(key: str) -> type[SegmenterConfig]:
    """Return the typed config class of the detector registered under ``key``.

    Example
    -------
    >>> from repro import api
    >>> api.config_class("bocd").__name__
    'BOCDConfig'
    """
    return spec(key).config_cls


def create(key: str, config: SegmenterConfig | dict | None = None, **overrides):
    """Build a ready-to-stream detector from its registry key.

    Parameters
    ----------
    key:
        Registry key (``"class"``, ``"floss"``, ...); paper spellings and
        ``_``/case variants are accepted.
    config:
        A typed config instance, a :meth:`~repro.api.config.SegmenterConfig.to_dict`
        mapping, or None to start from the detector's defaults.
    ``**overrides``:
        Individual config fields replacing the corresponding entries of
        ``config`` (e.g. ``create("class", window_size=2_000)``).

    Returns
    -------
    The ready-to-stream detector (the spec's builder output); the effective
    config is validated before the detector is constructed.  When the config
    carries a sanitizing ``data_policy`` the detector is wrapped in a
    :class:`repro.api.quality.SanitizingSegmenter` applying it.

    Raises
    ------
    ConfigurationError
        For unknown keys, config instances of the wrong type, unknown
        config fields, or field values the config's ``validate`` rejects
        (wrongly typed values included).

    Example
    -------
    >>> from repro import api
    >>> segmenter = api.create("class", {"window_size": 500})
    >>> segmenter.n_seen
    0
    """
    detector_spec = spec(key)
    config_cls = detector_spec.config_cls
    try:
        if config is None:
            config = config_cls()
        elif isinstance(config, dict):
            config = config_cls.from_dict(config)
        if not isinstance(config, config_cls):
            raise ConfigurationError(
                f"detector {detector_spec.key!r} expects a {config_cls.__name__}, "
                f"got {type(config).__name__}"
            )
        effective = config.replace(**overrides) if overrides else config
        effective.validate()
    except ReproError:
        raise
    except (TypeError, ValueError) as error:
        # a wrongly typed field value fails a cast or comparison in validate
        raise ConfigurationError(f"invalid {config_cls.__name__}: {error}") from error
    segmenter = detector_spec.builder(effective)
    policy = effective.data_policy
    if policy is not None and policy.sanitizes:
        from repro.api.quality import SanitizingSegmenter

        segmenter = SanitizingSegmenter(segmenter, policy)
    return segmenter


def key_for_config(config: SegmenterConfig) -> str:
    """Return the registry key a config instance belongs to.

    Resolved through the config class's ``detector`` attribute; raises
    :class:`~repro.utils.exceptions.ConfigurationError` when the config does
    not describe a registered detector.

    Example
    -------
    >>> from repro.api import ClaSSConfig, key_for_config
    >>> key_for_config(ClaSSConfig())
    'class'
    """
    key = getattr(type(config), "detector", "")
    if not key or normalise_key(key) not in _REGISTRY:
        raise ConfigurationError(
            f"config {type(config).__name__!r} does not describe a registered detector"
        )
    return normalise_key(key)


# --------------------------------------------------------------------------- #
# built-in detectors: ClaSS, its multivariate ensemble, the batch-ClaSP
# adapter, and the paper's competitors (Table 2) plus the two extras the
# competitor registry always carried (HDDM-W, Page-Hinkley).
# --------------------------------------------------------------------------- #

register("class", ClaSSConfig, summary="ClaSS streaming segmentation (paper §3)")
register(
    "multivariate-class",
    MultivariateClaSSConfig,
    summary="per-channel ClaSS ensemble with online change point fusion (§6)",
)
register("clasp", ClaSPConfig, summary="batch ClaSP behind the streaming protocol (§2.2)")
register("floss", FLOSSConfig, summary="FLOSS corrected arc curve (Table 2)")
register("window", WindowConfig, summary="sliding two-window discrepancy (Table 2)")
register("bocd", BOCDConfig, summary="Bayesian online change point detection (Table 2)")
register("change-finder", ChangeFinderConfig, summary="two-stage SDAR outlier scoring (Table 2)")
register("newma", NEWMAConfig, summary="no-prior-knowledge EWMA (Table 2)")
register("adwin", ADWINConfig, summary="adaptive windowing (Table 2)")
register("ddm", DDMConfig, summary="drift detection method (Table 2)")
register("hddm", HDDMConfig, summary="Hoeffding-bound drift detection, averages (Table 2)")
register("hddm-w", HDDMWConfig, summary="Hoeffding-bound drift detection, EWMA variant")
register("page-hinkley", PageHinkleyConfig, summary="Page-Hinkley cumulative deviation test")
