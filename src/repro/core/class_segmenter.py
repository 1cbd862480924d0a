"""ClaSS — Classification Score Stream (paper §3, Algorithm 1).

ClaSS segments an unbounded univariate time series stream.  It maintains a
sliding window of the last ``d`` observations, keeps an exact streaming k-NN
over the window's subsequences (Algorithm 2), scores every hypothetical split
of the not-yet-segmented suffix with a self-supervised cross-validation
(Algorithm 3), and reports a change point as soon as the best split passes a
conservative rank-sum significance test (§3.3).  Only the region since the
last reported change point is scored, which keeps the model small and the
per-point cost linear in the window size.

Ingestion is *chunked*: :meth:`ClaSS.process` feeds each chunk of
observations to one batched ``update_many`` generator of the streaming k-NN
and scores between its yields, exactly at the stream positions the
point-wise path would (every ``scoring_interval`` observations) — so batched
and point-wise ingestion report identical change points.
:meth:`ClaSS.update` is the single-element case of the same implementation.

A scoring pass does only the work its threshold requires: before scoring a
region of at least :data:`PRUNE_MIN_SPLITS` splits, a cheap upper bound on
the score of every block of 16 splits is checked against
``score_threshold``.  The bound (:func:`repro.core.scoring.split_score_bound`)
reads counts at the block edges off two histograms of the region's
breakpoints, which ClaSS keeps from pass to pass
(:class:`repro.core.scoring.BreakpointHistograms`) and updates only for the
rows whose prediction threshold changed.  A pass none of whose blocks can
reach the threshold reports nothing, exactly as its full profile would.  A
pass whose bound reaches the threshold scores only the splits of the blocks
that reach it, which hold the profile's best split whenever its score
reaches the threshold.  The full profile of a gated pass is computed only
if :attr:`ClaSS.last_profile` or :attr:`ClaSS.current_score` is read.

At the paper's window sizes one stream runs on two cores: once the window
is live, a long ``process`` call forks a scorer process
(:mod:`repro.core.scorer_link`) that runs the scoring half against a
mirror of the k-NN's thresholds, while the caller's process steps the
k-NN; a short call stops it again.  Each call ends drained, so
:meth:`ClaSS.events`, the reports and :meth:`ClaSS.save_state` are
current after it, and every output is bit-identical to scoring
in-process.  Eligibility is read from the window, the call's length and
the host, never from an option.

Typical use::

    from repro import ClaSS

    segmenter = ClaSS(window_size=4_000)

    # batched (preferred): consume the stream in arrival chunks
    for chunk in sensor_chunks:          # e.g. arrays of a few hundred values
        for change_point in segmenter.process(chunk):
            print("state change at", change_point)

    # or point-wise, with identical results
    for value in sensor_stream:
        change_point = segmenter.update(value)
        if change_point is not None:
            print("state change at", change_point)
"""

from __future__ import annotations

import collections
import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core import scorer_link
from repro.core.cross_val import (
    breakpoints_from_thresholds,
    cross_val_scores_from_thresholds,
    predictions_for_split,
    valid_splits,
)
from repro.core.kernels import get_backend
from repro.core.profile import ClaSPProfile
from repro.core.scoring import BreakpointHistograms, split_score_bound
from repro.core.significance import (
    DEFAULT_SAMPLE_SIZE,
    DEFAULT_SIGNIFICANCE_LEVEL,
    ChangePointSignificanceTest,
)
from repro.core.streaming_knn import StreamingKNN, require_finite
from repro.core.window_size import learn_subsequence_width
from repro.utils.exceptions import ConfigurationError, ScorerProcessError
from repro.utils.validation import check_positive_int

#: Default sliding window size found robust across domains in the paper (§3.5).
DEFAULT_WINDOW_SIZE = 10_000

#: Default ingestion chunk size of the batch path; large enough to amortise
#: the per-chunk Python overhead, small enough to keep detection latency and
#: memory granularity negligible against the 10k default window.
DEFAULT_CHUNK_SIZE = 1_024

#: Fewest splits for which a scoring pass is first bounded against the score
#: threshold; below it the bound costs about as much as the full pass.
PRUNE_MIN_SPLITS = 1_024

#: Margin of the bound below ``score_threshold``: it covers the rounding of
#: the float scores, so a pruned pass never hides a split at the threshold.
PRUNE_MARGIN = 1e-9


def _score_deferred_pass(
    kernels, score, thresholds, offset, exclusion, **placement
) -> ClaSPProfile:
    """The full profile of a gated pass, from the thresholds the gate kept."""
    n_subsequences = thresholds.shape[0]
    splits = valid_splits(n_subsequences, exclusion)
    pred_zero_from = breakpoints_from_thresholds(thresholds, n_subsequences, offset)
    scores = kernels.fused_split_scores(pred_zero_from, splits, n_subsequences, score)
    return ClaSPProfile(scores=scores, splits=splits, **placement)


def _splits_of_blocks(first_split: np.ndarray, last_split: np.ndarray) -> np.ndarray:
    """The splits ``first_split[j] .. last_split[j]`` of every block ``j``, in order."""
    lengths = last_split - first_split + 1
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(first_split - ends + lengths, lengths)


#: The splits of a pruned pass.
_NO_SPLITS = np.empty(0, dtype=np.int64)


def capped_window_size(window_size: int, n_timepoints: int) -> int:
    """Cap a configured sliding window for a series of known length.

    The policy every per-dataset ClaSS configuration uses (evaluation
    factories, the stream-engine pipelines, the CLI): at most half the series
    length so the subsequence width can be learned before the stream ends,
    and never below 100 observations.
    """
    return int(min(window_size, max(n_timepoints // 2, 100)))


@dataclass
class ChangePointReport:
    """One reported change point together with its detection context."""

    change_point: int
    detected_at: int
    score: float
    p_value: float

    @property
    def detection_delay(self) -> int:
        """Observations that elapsed between the change point and its report."""
        return int(self.detected_at - self.change_point)


@dataclass
class SegmentationState:
    """Mutable bookkeeping shared across stream updates (internal)."""

    last_change_point_offset: int = 0
    reports: list[ChangePointReport] = field(default_factory=list)


class ClaSS:
    """Streaming time series segmentation via self-supervised classification.

    Parameters
    ----------
    window_size:
        Sliding window size ``d`` (default 10 000, the paper's robust choice).
    subsequence_width:
        Subsequence width ``w``.  When None it is learned from the first
        ``window_size`` observations with ``wss_method`` (the paper uses SuSS).
    k_neighbours:
        Neighbours of the streaming k-NN classifier (default 3).
    score:
        Classification score: ``"macro_f1"`` (default) or ``"accuracy"``.
    similarity:
        Similarity measure of the k-NN: ``"pearson"`` (default),
        ``"euclidean"`` or ``"cid"``.
    significance_level:
        Maximum rank-sum p-value for a change point to be reported
        (default 1e-50, the ablation-study choice).
    sample_size:
        Labels resampled before the significance test (default 1 000;
        ``None`` uses the variable full-label configuration).
    wss_method:
        Window-size-selection algorithm for learning ``w``.
    scoring_interval:
        Score the window every this many observations.  1 reproduces the
        paper exactly; larger values trade detection latency (bounded by the
        interval) for throughput, which matters for the pure-Python build.
    excl_factor:
        Number of subsequences excluded at both region borders when
        enumerating splits (in multiples of ``w``; default 5).  The paper's
        Algorithm 3 uses 1; a larger border stabilises the earliest
        detections when the scored region is still short.
    score_threshold:
        Minimum ClaSP score the best split must reach before the significance
        test is even applied (§2.1: "provided the score surpasses a
        predefined threshold").  Default 0.75.
    relearn_width:
        If True the subsequence width is re-learned from the evolving segment
        after every reported change point (the optional concept-drift mode of
        §3.4).
    knn_mode:
        Dot-product strategy of the streaming k-NN: ``"streaming"``,
        ``"recompute"`` or ``"fft"`` (ablation modes of §4.4).
    kernel_backend:
        Execution backend for the k-NN hot-path kernels, one of
        :data:`repro.core.kernels.KERNEL_BACKENDS`.  ``"auto"`` (default)
        uses the numba JIT kernels when numba is installed, the numpy
        reference otherwise.  Backends are bit-identical — change points,
        scores and p-values do not depend on the choice — and checkpoints
        restore across backends.
    random_state:
        Seed of the significance-test resampler.
    """

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW_SIZE,
        subsequence_width: int | None = None,
        k_neighbours: int = 3,
        score: str = "macro_f1",
        similarity: str = "pearson",
        significance_level: float = DEFAULT_SIGNIFICANCE_LEVEL,
        sample_size: int | None = DEFAULT_SAMPLE_SIZE,
        wss_method: str = "suss",
        scoring_interval: int = 1,
        excl_factor: int = 5,
        score_threshold: float = 0.75,
        relearn_width: bool = False,
        knn_mode: str = "streaming",
        kernel_backend: str = "auto",
        random_state: int | None = 2357,
    ) -> None:
        from repro.api.config import ClaSSConfig

        self._configure(
            ClaSSConfig(
                window_size=window_size,
                subsequence_width=subsequence_width,
                k_neighbours=k_neighbours,
                score=score,
                similarity=similarity,
                significance_level=significance_level,
                sample_size=sample_size,
                wss_method=wss_method,
                scoring_interval=scoring_interval,
                excl_factor=excl_factor,
                score_threshold=score_threshold,
                relearn_width=relearn_width,
                knn_mode=knn_mode,
                kernel_backend=kernel_backend,
                random_state=random_state,
            )
        )
        self._reset_runtime_state()

    @classmethod
    def from_config(cls, config) -> "ClaSS":
        """Build a ClaSS instance from a :class:`repro.api.ClaSSConfig`."""
        return cls(**config.as_kwargs())

    def _configure(self, config) -> None:
        """Adopt a validated config (all parameter validation lives there)."""
        config = config.validate()
        self.config = config
        self.window_size = int(config.window_size)
        self.subsequence_width = (
            None if config.subsequence_width is None else int(config.subsequence_width)
        )
        self.k_neighbours = int(config.k_neighbours)
        self.score = config.score
        self.similarity = config.similarity
        self.wss_method = config.wss_method
        self.scoring_interval = int(config.scoring_interval)
        self.excl_factor = int(config.excl_factor)
        self.score_threshold = float(config.score_threshold)
        self.relearn_width = bool(config.relearn_width)
        self.knn_mode = config.knn_mode
        self.kernel_backend = config.kernel_backend
        # resolve once: scoring hands the backend's fused split-score kernel
        # to the cross-validation
        self._kernels = get_backend(config.kernel_backend)
        self.significance = ChangePointSignificanceTest(
            significance_level=config.significance_level,
            sample_size=config.sample_size,
            random_state=config.random_state,
        )

    def _reset_runtime_state(self) -> None:
        """(Re-)initialise all mutable streaming state for a fresh stream."""
        self._prefix: list[float] = []
        self._knn: StreamingKNN | None = None
        self._width: int | None = self.subsequence_width
        self._n_seen = 0
        self._state = SegmentationState()
        # a ClaSPProfile, or for a gated pass a partial that computes it
        self._last_profile: ClaSPProfile | functools.partial | None = None
        self._warmup_end: int | None = None
        # the gate's histograms: derived from the k-NN, never saved
        self._histograms = BreakpointHistograms()
        # the scorer process's link while one scores this stream; a lost
        # scorer keeps the stream in-process, one lost mid-call fails it closed
        self._scorer: scorer_link.ScorerLink | None = None
        self._scorer_lost = False
        self._scorer_failure: str | None = None

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Total number of stream observations processed."""
        return self._n_seen

    @property
    def subsequence_width_(self) -> int | None:
        """The learned (or configured) subsequence width, None before warm-up."""
        return self._width

    @property
    def change_points(self) -> np.ndarray:
        """Absolute time points of every reported change point so far."""
        return np.asarray([r.change_point for r in self._state.reports], dtype=np.int64)

    @property
    def reports(self) -> list[ChangePointReport]:
        """Detailed reports (change point, detection time, score, p-value)."""
        return list(self._state.reports)

    @property
    def last_profile(self) -> ClaSPProfile | None:
        """The ClaSP of the most recent scoring pass (None before the first scoring).

        A pass the score-threshold gate pruned or scored only in part is
        scored in full here, on the first read, with the same kernel and the
        same result.  While a scorer process scores the stream, the profile
        is fetched from it with one request.
        """
        self._check_scorer()
        if self._scorer is not None:
            return self._fetch_profile()
        if isinstance(self._last_profile, functools.partial):
            self._last_profile = self._last_profile()
        return self._last_profile

    @property
    def segments(self) -> list[tuple[int, int]]:
        """Completed segments as (start, end) pairs in absolute time points."""
        points = [0, *self.change_points.tolist()]
        return [(points[i], points[i + 1]) for i in range(len(points) - 1)]

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def update(self, value: float) -> int | None:
        """Ingest one observation; return the absolute change point if one is found.

        The single-element case of :meth:`process` — both share one chunked
        ingestion implementation.
        """
        detected = self.process(np.asarray([float(value)], dtype=np.float64))
        return int(detected[-1]) if detected.size else None

    def process(self, values: np.ndarray, chunk_size: int | None = None) -> np.ndarray:
        """Stream a finite batch of values in chunks; return the CPs detected now.

        Each run of at most ``chunk_size`` values is fed to one batched
        ``update_many`` generator of the streaming k-NN, which is paused to
        score exactly at the stream positions where the point-wise path would
        score (every ``scoring_interval`` observations).  The reported change
        points are therefore identical for every chunk size, including
        ``chunk_size=1``.

        Parameters
        ----------
        values:
            1-d array of stream observations (column vectors are flattened).
        chunk_size:
            Maximum number of observations handed to the k-NN per batch call
            (default :data:`DEFAULT_CHUNK_SIZE`).

        Returns
        -------
        numpy.ndarray
            Absolute time points of the change points detected during this
            call (not the full history; see :attr:`change_points`).  The
            competitor wrappers' ``process`` keeps their seed contract and
            returns the cumulative history instead.

        Raises
        ------
        ConfigurationError
            If a value is NaN or infinite; the whole call is checked before
            any state changes, the warm-up buffer included.
        ScorerProcessError
            If the scorer process was lost.  Found dead before the call, it
            leaves the detector at its last drained state, which scores
            in-process from then on; dead during the call, it fails the
            detector closed until :meth:`load_state`.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        require_finite(values)
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        else:
            chunk_size = check_positive_int(chunk_size, "chunk_size")
        self._check_scorer()
        detected: list[int] = []
        n = values.shape[0]
        position = 0
        first_step = True
        while position < n:
            if self._knn is None:
                # warm-up: buffer until the subsequence width can be learned.
                # The whole remaining warm-up run is bulk-sliced in one go —
                # no per-point Python loop — ending at exactly the position
                # where the point-wise path would initialise.
                if self._width is None:
                    take = min(self.window_size - len(self._prefix), n - position)
                else:
                    take = 1  # width already configured: initialise immediately
                self._prefix.extend(values[position : position + take].tolist())
                self._n_seen += take
                position += take
                if self._width is None and len(self._prefix) < self.window_size:
                    continue
                self._initialise_from_prefix()
                change_point = self._maybe_score()
                if change_point is not None:
                    detected.append(change_point)
                continue
            self._choose_scoring_path(n - position, first_step)
            first_step = False
            take = min(chunk_size, n - position)
            try:
                self._ingest_and_score(values[position : position + take], detected)
            except BaseException as error:
                if self._scorer is not None:
                    self._fail_closed(error)
                raise
            position += take
        if self._scorer is not None:
            detected += self._drain()
        return np.asarray(detected, dtype=np.int64)

    def finalise(self) -> np.ndarray:
        """Flush a stream that ended before the warm-up completed.

        When the stream is shorter than ``window_size`` and no explicit
        subsequence width was given, the width is learned from whatever was
        buffered and the buffered prefix is scored once.  Returns all change
        points detected so far.
        """
        self._check_scorer()
        if self._knn is None and self._prefix:
            try:
                self._initialise_from_prefix()
                self._maybe_score(force=True)
            except (ConfigurationError, ValueError):
                pass
        return self.change_points

    def score_now(self) -> ClaSPProfile | None:
        """Force a full scoring pass outside the regular interval (for inspection)."""
        self._stop_scorer()
        if self._knn is None:
            return None
        self._maybe_score(force=True)
        return self.last_profile

    def finalize(self) -> np.ndarray:
        """Protocol spelling of :meth:`finalise`."""
        return self.finalise()

    def reset_warmup(self) -> None:
        """Drop the learned model and re-enter warm-up (data-gap recovery).

        Used by the dirty-data policy layer after a gap longer than
        ``max_gap``: the sliding-window model is considered stale, so the
        k-NN, the buffered prefix and — unless it was configured explicitly
        — the learned subsequence width are discarded and relearned from the
        observations that follow.  The stream position, the report history
        and the original warm-up event are preserved, keeping the
        :meth:`events` log append-only.
        """
        self._stop_scorer()
        self._prefix = []
        self._knn = None
        self._width = self.subsequence_width
        self._state.last_change_point_offset = 0
        self._last_profile = None
        self._histograms.reset()

    @property
    def warmup_end(self) -> int | None:
        """Stream position at which the k-NN went live (None while warming up)."""
        return self._warmup_end

    @property
    def current_score(self) -> float | None:
        """Best split score of the most recent ClaSP (None before the first scoring)."""
        profile = self.last_profile
        if profile is None or profile.is_empty:
            return None
        return float(profile.global_maximum()[1])

    def events(self) -> list:
        """Typed event history: warm-up completion plus one event per report.

        Events are ordered by stream position and the list is append-only
        over time, which is what lets :func:`repro.api.stream` emit exactly
        the new events after each chunk.
        """
        from repro.api.events import ChangePointEvent, WarmupEvent

        self._check_scorer()
        events: list = []
        if self._warmup_end is not None:
            width = None if self._width is None else int(self._width)
            events.append(WarmupEvent(at=int(self._warmup_end), subsequence_width=width))
        for report in self._state.reports:
            events.append(
                ChangePointEvent(
                    at=int(report.detected_at),
                    change_point=int(report.change_point),
                    score=float(report.score),
                    p_value=float(report.p_value),
                )
            )
        return events

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def save_state(self) -> dict:
        """Serialise the full streaming state as a picklable checkpoint payload.

        The payload embeds the config plus every piece of mutable state: the
        warm-up prefix, the learned width, the report history, the
        significance-test RNG, and the streaming k-NN's complete ring-buffer
        state (:meth:`~repro.core.streaming_knn.StreamingKNN.state_dict`).
        Restoring it (:meth:`load_state`) and finishing the stream is
        bit-identical to never having checkpointed.
        """
        from repro.api.checkpoint import state_payload

        self._check_scorer()
        state = {
            "n_seen": self._n_seen,
            "prefix": list(self._prefix),
            "width": None if self._width is None else int(self._width),
            "warmup_end": self._warmup_end,
            "last_change_point_offset": self._state.last_change_point_offset,
            "reports": [asdict(report) for report in self._state.reports],
            "rng_state": self.significance.rng_state(),
            "knn": None if self._knn is None else self._knn.state_dict(),
        }
        return state_payload(self, state, config=self.config.to_dict())

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`save_state` payload (the config travels with it)."""
        from repro.api.checkpoint import checked_state
        from repro.api.config import ClaSSConfig

        # validate everything BEFORE mutating: a rejected payload must leave
        # the live segmenter untouched
        state = checked_state(self, payload)
        config = ClaSSConfig.from_dict(payload.get("config", {})).validate()
        if self._scorer is not None:
            self._drop_scorer()
        self._configure(config)
        self._reset_runtime_state()
        self._prefix = list(state["prefix"])
        self._width = state["width"]
        self._n_seen = int(state["n_seen"])
        self._warmup_end = state["warmup_end"]
        self._state = SegmentationState(
            last_change_point_offset=int(state["last_change_point_offset"]),
            reports=[ChangePointReport(**report) for report in state["reports"]],
        )
        self.significance.set_rng_state(state["rng_state"])
        if state["knn"] is not None:
            self._knn = self._new_knn(int(self._width))
            self._knn.load_state_dict(state["knn"])

    def __getstate__(self) -> dict:
        """Pickle support: a scorer process stops first, and its link stays behind."""
        self._stop_scorer()
        state = self.__dict__.copy()
        state["_scorer"] = None
        return state

    # ------------------------------------------------------------------ #
    # the scorer process
    # ------------------------------------------------------------------ #

    def _check_scorer(self) -> None:
        """Raise :class:`ScorerProcessError` if the detector failed closed or its scorer died."""
        if self._scorer_failure is not None:
            raise ScorerProcessError(self._scorer_failure)
        if self._scorer is not None and not self._scorer.alive():
            self._drop_scorer(lost=True)
            raise ScorerProcessError(
                "the scorer process died between calls; the detector stays at its "
                "last drained state and scores in-process from now on"
            )

    def _choose_scoring_path(self, remaining: int, first_step: bool) -> None:
        """Before a chunk steps the live k-NN: fork a scorer or stop one.

        A call too short for a scorer to pay off
        (:func:`repro.core.scorer_link.pays_off`) stops a running one at its
        first chunk; any chunk that finds the stream eligible forks one (the
        window fills up mid-call).  A host that cannot fork keeps the stream
        in-process for good.
        """
        if self._scorer is not None:
            if first_step and not scorer_link.pays_off(self, remaining):
                self._stop_scorer()
        elif not self._scorer_lost and scorer_link.eligible(self, remaining):
            link = scorer_link.start(self)
            if link is None:
                self._scorer_lost = True
            else:
                self._scorer = link
                self._last_profile = None  # the scorer's from now on

    def _drain(self) -> list[int]:
        """Bring the scorer's new reports, region offset and RNG state home.

        Returns the change points it detected since the last drain.  An
        exception it raised stops it and is re-raised here.
        """
        try:
            detected, reports, offset, rng_state, error = self._scorer.request(scorer_link.DRAIN)
        except BaseException as failure:
            self._fail_closed(failure)
            raise
        self._state.reports += reports
        self._state.last_change_point_offset = offset
        self.significance.set_rng_state(rng_state)
        if error is not None:
            self._drop_scorer()
            raise error
        return detected

    def _fetch_profile(self) -> ClaSPProfile | None:
        """The scorer's last profile, with one request between calls.

        Any exception cuts the reply off, so the link is dropped as lost:
        the scoring state was drained at the last call's end, only the
        profile is gone.
        """
        try:
            return self._scorer.request(scorer_link.PROFILE)
        except BaseException:
            self._drop_scorer(lost=True)
            raise

    def _stop_scorer(self) -> None:
        """Fetch the scorer's profile, stop it and score in-process (its state is drained)."""
        self._check_scorer()
        if self._scorer is not None:
            profile = self._fetch_profile()
            self._drop_scorer()
            self._last_profile = profile

    def _drop_scorer(self, lost: bool = False, failure: str | None = None) -> None:
        """Close the scorer's link and score in-process from here.

        The histograms are derived state the scorer kept: they restart.  A
        ``lost`` scorer keeps the stream in-process for good and takes the
        last profile with it; a ``failure`` fails the detector closed until
        :meth:`load_state`.  Either way the scorer's state is not needed, so
        it is killed rather than left to score what it has queued.
        """
        self._scorer.close(kill=lost or failure is not None)
        self._scorer = None
        self._histograms.reset()
        if lost:
            self._scorer_lost = True
            self._last_profile = None
        if failure is not None:
            self._scorer_failure = failure

    def _fail_closed(self, error: BaseException) -> None:
        """Drop a scorer lost during a call and fail the detector closed.

        Its scoring state is gone, and a call cut short by any other
        exception (``KeyboardInterrupt`` say) leaves the pipes out of step
        too.  A lost scorer raises :class:`ScorerProcessError` from here;
        the caller re-raises any other exception itself.
        """
        reason = "died" if isinstance(error, ScorerProcessError) else "was cut off"
        self._drop_scorer(
            failure=(
                f"the scorer process {reason} during a call ({error!r}); the detector "
                "failed closed until load_state"
            )
        )
        if isinstance(error, ScorerProcessError):
            raise ScorerProcessError(self._scorer_failure) from error

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _initialise_from_prefix(self) -> None:
        """Learn the width (if needed), build the k-NN and replay the prefix."""
        prefix = np.asarray(self._prefix, dtype=np.float64)
        if self._width is None:
            max_width = max(3, min(len(prefix), self.window_size) // 4)
            self._width = learn_subsequence_width(
                prefix, method=self.wss_method, max_width=max_width
            )
        width = int(self._width)
        if self.window_size < 2 * width:
            raise ConfigurationError(
                f"window_size={self.window_size} too small for subsequence width {width}"
            )
        self._knn = self._new_knn(width)
        # at most window_size values: the fresh k-NN evicts none of them
        collections.deque(self._knn.update_many(prefix), maxlen=0)  # C-speed drain
        self._prefix = []
        if self._warmup_end is None:
            # a re-warm-up after reset_warmup keeps the original position so
            # the events() history stays append-only for stream consumers
            self._warmup_end = self._n_seen

    def _ingest_and_score(self, values: np.ndarray, detected: list[int]) -> None:
        """Feed a run to one k-NN generator, scoring between its yields.

        The ``update_many`` generator is advanced to each scoring boundary
        (every ``scoring_interval`` stream positions) with one ``send`` and
        paused there while the region is scored, so the run pays the
        generator's set-up once however often it is scored, and the k-NN may
        advance the observations between two pauses as one block.  A fresh
        generator's first advance is a ``next()``, one observation.
        Evictions since the last pause shift the unsegmented region left.
        When a change point makes ``relearn_width`` rebuild the k-NN, the old
        generator is closed and the rest of the run goes to the new k-NN.
        Appends the detected change points to ``detected``.  While a scorer
        process scores the stream, each pause is handed to it as a record
        instead: it slides the region and scores.
        """
        interval = self.scoring_interval
        link = self._scorer
        n = values.shape[0]
        position = 0
        while position < n:
            knn = self._knn
            evicted = knn.n_evicted
            # validates the whole rest of the run before the k-NN mutates
            steps = knn.update_many(values[position:])
            next(steps)
            ahead = 1  # observations advanced past the last pause
            while position < n and self._knn is knn:
                take = min(interval - self._n_seen % interval, n - position)
                if take > ahead:
                    steps.send(take - ahead)
                ahead = 0
                self._n_seen += take
                position += take
                if link is not None:
                    link.step(knn, self._n_seen)
                    continue
                slid = knn.n_evicted - evicted
                if slid:
                    # the window slid: the unsegmented region moved left
                    evicted += slid
                    self._state.last_change_point_offset = max(
                        0, self._state.last_change_point_offset - slid
                    )
                if self._n_seen % interval == 0:
                    change_point = self._maybe_score()
                    if change_point is not None:
                        detected.append(change_point)
            steps.close()

    def _maybe_score(self, force: bool = False) -> int | None:
        """Score the unsegmented region and report a significant change point.

        Unless ``force`` is set, a region of at least
        :data:`PRUNE_MIN_SPLITS` splits goes through the gate
        (:meth:`_gate`): if no split can reach ``score_threshold``, the pass
        reports nothing without scoring; otherwise only the splits of the
        blocks that can reach it are scored.  Either way its profile is
        deferred to the first read of :attr:`last_profile`.  A forced pass
        scores every split.
        """
        if self._knn is None or self._width is None:
            return None
        if not force and (self._n_seen % self.scoring_interval) != 0:
            return None

        width = int(self._width)
        n_subsequences = self._knn.n_subsequences
        region_start = self._state.last_change_point_offset
        region_length = n_subsequences - region_start
        exclusion = self.excl_factor * width
        if region_length < 2 * exclusion + 2:
            return None

        placement = dict(
            region_start=region_start,
            window_start_time=self._n_seen - self._knn.n_buffered,
            subsequence_width=width,
        )
        # zero-copy: the k-NN core maintains the prediction thresholds
        # incrementally, so scoring reads views of live ring buffers and
        # never materialises the (m, k) neighbour table.
        region = self._knn.region_view(region_start)
        splits = None if force else self._gate(region, exclusion, placement)
        if splits is None:
            result = cross_val_scores_from_thresholds(
                region.thresholds,
                exclusion=exclusion,
                score=self.score,
                offset=region.offset,
                kernels=self._kernels,
            )
            profile = ClaSPProfile(scores=result.scores, splits=result.splits, **placement)
            self._last_profile = profile
            if profile.is_empty:
                return None
            split, score_value = profile.global_maximum()
        elif splits.size:
            # the splits of the blocks whose bound reaches the threshold hold
            # every split of the profile's best score once that reaches it,
            # so their first best is the profile's
            m = region.thresholds.shape[0]
            pred_zero_from = breakpoints_from_thresholds(region.thresholds, m, region.offset)
            scores = self._kernels.fused_split_scores(pred_zero_from, splits, m, self.score)
            best = int(scores.argmax())
            split, score_value = int(splits[best]), float(scores[best])
        else:
            return None
        if score_value < self.score_threshold:
            return None
        # reuse the cached thresholds: the significance gate's labels are one
        # comparison, not a sort over the region's k-NN table
        y_pred = predictions_for_split(region.thresholds, split, region.offset)
        outcome = self.significance.test(y_pred, split)
        if not outcome.significant:
            return None

        change_point = placement["window_start_time"] + region_start + split
        if self._state.reports and change_point <= self._state.reports[-1].change_point:
            return None
        report = ChangePointReport(
            change_point=change_point,
            detected_at=self._n_seen,
            score=score_value,
            p_value=outcome.p_value,
        )
        self._state.reports.append(report)
        self._state.last_change_point_offset = region_start + split
        if self.relearn_width:
            self._relearn_width()
        return change_point

    def _gate(self, region, exclusion: int, placement: dict) -> np.ndarray | None:
        """The splits the pass must score exactly; None if the pass is not bounded.

        Only regions of at least :data:`PRUNE_MIN_SPLITS` splits are
        bounded.  The histograms are brought up to the region first, from
        the rows the k-NN logged as written since the last bounded pass,
        which also keeps a copy of its thresholds, and bound it block by
        block: a pass none of whose blocks reaches the threshold is pruned
        (no splits), else the splits of the blocks that reach it are
        returned.
        A gated pass leaves in ``_last_profile`` a partial that scores it in
        full from that copy on the first read of :attr:`last_profile`.
        """
        m = region.thresholds.shape[0]
        low = max(1, exclusion)  # the first and last split of valid_splits
        high = m - low
        if high - low + 1 < PRUNE_MIN_SPLITS:
            return None
        changed = self._knn.drain_changed_rows()
        thresholds = self._histograms.update(region.thresholds, region.offset, changed)
        edges = self._histograms.block_edges(low, high)
        reach = split_score_bound(*edges, m, self.score) >= self.score_threshold - PRUNE_MARGIN
        splits = _splits_of_blocks(edges[0][reach], edges[1][reach]) if reach.any() else _NO_SPLITS
        self._last_profile = functools.partial(
            _score_deferred_pass,
            self._kernels,
            self.score,
            thresholds,
            region.offset,
            exclusion,
            **placement,
        )
        return splits

    def _relearn_width(self) -> None:
        """Re-learn ``w`` from the evolving segment and rebuild the k-NN (§3.4)."""
        assert self._knn is not None
        window = self._knn.window.copy()
        region = window[self._state.last_change_point_offset :]
        if region.shape[0] < 4 * max(self._width or 10, 10):
            return
        try:
            new_width = learn_subsequence_width(
                region, method=self.wss_method, max_width=self.window_size // 4
            )
        except (ConfigurationError, ValueError):
            return
        if new_width == self._width:
            return
        self._width = int(new_width)
        self._knn = self._new_knn(self._width)
        collections.deque(self._knn.update_many(window), maxlen=0)

    def _new_knn(self, width: int) -> StreamingKNN:
        """An empty k-NN of ``width``; its subsequence ids restart, so the histograms do."""
        self._histograms.reset()
        return StreamingKNN(
            window_size=self.window_size,
            subsequence_width=width,
            k_neighbours=self.k_neighbours,
            similarity=self.similarity,
            mode=self.knn_mode,
            kernel_backend=self.kernel_backend,
        )
