"""Multivariate streaming segmentation — the paper's future-work extension (§6).

The paper's ClaSS is univariate; its conclusion names the multivariate
setting ("exploring sensor fusion and dimension selection") as future work.
This module provides a pragmatic ensemble realisation of that idea:

* one independent :class:`~repro.core.class_segmenter.ClaSS` instance per
  channel consumes the multivariate stream,
* channel-level change point reports are fused online: reports from different
  channels that fall within a tolerance window are treated as evidence for
  the same underlying state change, and a fused change point is emitted once
  at least ``min_votes`` channels agree (sensor fusion), with the location
  taken as the median of the agreeing reports,
* channels can be weighted or disabled entirely (dimension selection) via the
  ``channel_weights`` argument.

The ensemble preserves the streaming contract of the univariate algorithm —
one multivariate observation in, at most one fused change point out — and its
per-point cost is the sum of the per-channel costs, i.e. still linear in the
sliding window size.  Each per-channel segmenter scores from the prediction
thresholds its k-NN caches, consumed zero-copy by the fused score kernel.
Like the univariate ClaSS, ingestion is chunked:
:meth:`MultivariateClaSS.process` fans each chunk out column-wise to the
per-channel segmenters' batch paths and replays the fusion decisions in
detection-time order, producing exactly the row-at-a-time results at batch
throughput.

Because the per-channel segmenters share nothing until fusion, the fan-out
also parallelises: ``process(values, n_workers=...)`` streams each channel's
column as one task of :func:`repro.utils.parallel.run_ordered` (one worker
process per channel) and replays the identical fusion decisions on the
collected reports, so the parallel path is bit-identical to the sequential
one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.class_segmenter import DEFAULT_CHUNK_SIZE, ClaSS
from repro.core.streaming_knn import require_finite
from repro.utils.exceptions import ConfigurationError
from repro.utils.parallel import run_ordered


@dataclass
class ChannelReport:
    """A change point reported by one channel, kept until fusion resolves it."""

    channel: int
    change_point: int
    detected_at: int
    weight: float = 1.0


@dataclass
class FusedChangePoint:
    """A change point confirmed by the cross-channel fusion."""

    change_point: int
    detected_at: int
    supporting_channels: list[int] = field(default_factory=list)
    channel_change_points: list[int] = field(default_factory=list)

    @property
    def n_votes(self) -> int:
        """Number of channels that voted for this change point."""
        return len(self.supporting_channels)


class MultivariateClaSS:
    """Ensemble of per-channel ClaSS segmenters with online change point fusion.

    Parameters
    ----------
    n_channels:
        Number of channels of the multivariate stream.
    min_votes:
        Minimum number of (weighted) channel votes required to confirm a fused
        change point.  1 behaves like a union of the channel segmentations,
        ``n_channels`` like an intersection.
    fusion_tolerance:
        Maximum distance (in observations) between channel-level reports that
        are considered evidence for the same state change.
    channel_weights:
        Optional per-channel vote weights; 0 disables a channel entirely
        (dimension selection).  Defaults to equal weights.
    class_kwargs:
        Keyword arguments forwarded to every per-channel ClaSS instance
        (window size, subsequence width, scoring interval,
        ``kernel_backend``, ...).
    """

    def __init__(
        self,
        n_channels: int,
        min_votes: int | float = 2,
        fusion_tolerance: int = 500,
        channel_weights: list[float] | None = None,
        **class_kwargs,
    ) -> None:
        from repro.api.config import ClaSSConfig, MultivariateClaSSConfig

        self._configure(
            MultivariateClaSSConfig(
                n_channels=n_channels,
                min_votes=min_votes,
                fusion_tolerance=fusion_tolerance,
                channel_weights=None if channel_weights is None else tuple(channel_weights),
                class_config=ClaSSConfig(**class_kwargs),
            )
        )

    @classmethod
    def from_config(cls, config) -> "MultivariateClaSS":
        """Build an ensemble from a :class:`repro.api.MultivariateClaSSConfig`."""
        instance = cls.__new__(cls)
        instance._configure(config)
        return instance

    def _configure(self, config) -> None:
        """Adopt a validated config and build fresh per-channel segmenters."""
        config = config.validate()
        self.config = config
        self.n_channels = int(config.n_channels)
        self.fusion_tolerance = int(config.fusion_tolerance)
        weights = config.channel_weights
        if weights is None:
            weights = (1.0,) * self.n_channels
        self.channel_weights = [float(w) for w in weights]
        self.min_votes = float(config.min_votes)
        self.segmenters = [
            ClaSS(**config.class_config.as_kwargs()) for _ in range(self.n_channels)
        ]
        self._n_seen = 0
        self._pending: list[ChannelReport] = []
        self._fused: list[FusedChangePoint] = []

    # ------------------------------------------------------------------ #

    @property
    def n_seen(self) -> int:
        """Number of multivariate observations processed."""
        return self._n_seen

    @property
    def change_points(self) -> np.ndarray:
        """Fused change point locations reported so far."""
        return np.asarray([f.change_point for f in self._fused], dtype=np.int64)

    @property
    def fused_reports(self) -> list[FusedChangePoint]:
        """Detailed fused reports including the supporting channels."""
        return list(self._fused)

    @property
    def channel_change_points(self) -> list[np.ndarray]:
        """Raw (unfused) change points of every channel."""
        return [segmenter.change_points for segmenter in self.segmenters]

    @property
    def warmup_end(self) -> int | None:
        """Position at which every active channel finished warming up (or None)."""
        ends = [
            segmenter.warmup_end
            for segmenter, weight in zip(self.segmenters, self.channel_weights)
            if weight > 0
        ]
        if not ends or any(end is None for end in ends):
            return None
        return int(max(ends))

    def finalize(self) -> np.ndarray:
        """Flush every channel's end-of-stream state and fuse any late reports."""
        new_reports: list[ChannelReport] = []
        for channel, (segmenter, weight) in enumerate(zip(self.segmenters, self.channel_weights)):
            if weight <= 0:
                continue
            seen_before = len(segmenter.reports)
            segmenter.finalise()
            new_reports.extend(
                self._as_channel_reports(channel, weight, segmenter.reports[seen_before:])
            )
        self._replay_fusion(new_reports)
        return self.change_points

    #: British-spelling alias, matching ClaSS.
    finalise = finalize

    def events(self) -> list:
        """Typed event history: ensemble warm-up plus one event per fused report."""
        from repro.api.events import ChangePointEvent, WarmupEvent

        events: list = []
        warmup = self.warmup_end
        if warmup is not None:
            events.append(WarmupEvent(at=warmup))
        for fused in self._fused:
            events.append(
                ChangePointEvent(
                    at=int(fused.detected_at), change_point=int(fused.change_point)
                )
            )
        return events

    def save_state(self) -> dict:
        """Serialise the fusion state plus every channel's full checkpoint."""
        from repro.api.checkpoint import state_payload

        state = {
            "n_seen": self._n_seen,
            "pending": [asdict(report) for report in self._pending],
            "fused": [asdict(fused) for fused in self._fused],
            "channels": [segmenter.save_state() for segmenter in self.segmenters],
        }
        return state_payload(self, state, config=self.config.to_dict())

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`save_state` payload; resuming is bit-identical."""
        from repro.api.checkpoint import checked_state
        from repro.api.config import MultivariateClaSSConfig

        # restore into a fresh ensemble and adopt it only once every channel
        # loaded: a rejected payload must leave the live ensemble untouched
        state = checked_state(self, payload)
        restored = type(self).from_config(
            MultivariateClaSSConfig.from_dict(payload.get("config", {}))
        )
        restored._n_seen = int(state["n_seen"])
        restored._pending = [ChannelReport(**report) for report in state["pending"]]
        restored._fused = [FusedChangePoint(**fused) for fused in state["fused"]]
        for segmenter, channel_payload in zip(restored.segmenters, state["channels"]):
            segmenter.load_state(channel_payload)
        self.__dict__.update(restored.__dict__)

    # ------------------------------------------------------------------ #

    def update(self, values) -> int | None:
        """Ingest one multivariate observation; return a fused change point if confirmed.

        The single-row case of :meth:`process` — both share one chunked
        ingestion implementation.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.n_channels:
            raise ConfigurationError(
                f"expected {self.n_channels} channel values, got {values.shape[0]}"
            )
        values = values.reshape(1, -1)
        self._require_finite(values)
        fused = self._process_chunk(values, chunk_size=1)
        return fused[-1] if fused else None

    def process(
        self,
        values: np.ndarray,
        chunk_size: int | None = None,
        n_workers: int | None = None,
    ) -> np.ndarray:
        """Stream a (n_timepoints, n_channels) array; return fused change points.

        The stream is cut into chunks of ``chunk_size`` multivariate
        observations; each chunk is fanned out column-wise to the per-channel
        segmenters through their batched ``process`` path, and the channel
        reports are fused in detection-time order — exactly the fusion
        decisions the row-at-a-time path makes.

        With ``n_workers`` greater than one, each active channel's whole
        column is streamed in its own worker process instead (the channels
        share nothing until fusion); the collected reports are replayed
        through the identical fusion logic, so the results are bit-identical
        to the sequential path for every chunk size and worker count.

        Every parallel call pickles each channel's full segmenter state
        (window buffer plus k-NN tables, O(window_size) floats) to its worker
        and back, so the pool only pays off when ``values`` is long relative
        to the window — roughly one window or more per call.  For short
        chunks or frequent small calls, keep the default sequential path.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.n_channels:
            raise ConfigurationError(
                f"expected an array of shape (n, {self.n_channels}), got {values.shape}"
            )
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        elif chunk_size < 1:
            raise ConfigurationError("chunk_size must be a positive integer")
        self._require_finite(values)
        if n_workers is not None and n_workers != 1:
            self._process_parallel(values, chunk_size, n_workers)
            return self.change_points
        for start in range(0, values.shape[0], chunk_size):
            self._process_chunk(values[start : start + chunk_size], chunk_size)
        return self.change_points

    # ------------------------------------------------------------------ #

    def _require_finite(self, values: np.ndarray) -> None:
        """Check every channel that ingests ``values`` before any of them does."""
        require_finite(values[:, [weight > 0 for weight in self.channel_weights]])

    def _process_chunk(self, chunk: np.ndarray, chunk_size: int) -> list[int]:
        """Fan one chunk out to the channels and replay fusion in time order."""
        new_reports = self._collect_channel_reports(chunk, chunk_size)
        self._n_seen += chunk.shape[0]
        return self._replay_fusion(new_reports)

    def _collect_channel_reports(self, chunk: np.ndarray, chunk_size: int) -> list[ChannelReport]:
        """Feed one chunk to every active channel and gather its new reports."""
        new_reports: list[ChannelReport] = []
        for channel, (segmenter, weight) in enumerate(zip(self.segmenters, self.channel_weights)):
            if weight <= 0:
                continue
            seen_before = len(segmenter.reports)
            segmenter.process(np.ascontiguousarray(chunk[:, channel]), chunk_size=chunk_size)
            new_reports.extend(
                self._as_channel_reports(channel, weight, segmenter.reports[seen_before:])
            )
        return new_reports

    @staticmethod
    def _as_channel_reports(channel: int, weight: float, reports) -> list[ChannelReport]:
        """Wrap a channel segmenter's raw reports as weighted fusion votes."""
        return [
            ChannelReport(
                channel=channel,
                change_point=int(report.change_point),
                detected_at=int(report.detected_at),
                weight=weight,
            )
            for report in reports
        ]

    def _replay_fusion(self, new_reports: list[ChannelReport]) -> list[int]:
        """Replay fusion at each detection time, channels in index order.

        This is the order in which the row-at-a-time path would have seen the
        reports: detection times increase monotonically per channel, so
        sorting by ``(detected_at, channel)`` reproduces its decisions for
        reports gathered chunk-wise *and* for reports gathered per whole
        column by the parallel path.
        """
        new_reports.sort(key=lambda report: (report.detected_at, report.channel))
        newly_fused: list[int] = []
        index = 0
        while index < len(new_reports):
            at = new_reports[index].detected_at
            while index < len(new_reports) and new_reports[index].detected_at == at:
                self._pending.append(new_reports[index])
                index += 1
            fused = self._fuse(at=at)
            if fused is not None:
                newly_fused.append(int(fused))
        return newly_fused

    def _process_parallel(self, values: np.ndarray, chunk_size: int, n_workers: int) -> list[int]:
        """Stream every active channel's column as one :func:`run_ordered` task.

        Chunked ingestion is behaviour-identical for any call split, so each
        task consumes its whole column in one ``process`` call (cut into
        ``chunk_size`` chunks internally).  The updated segmenters are
        shipped back and reattached, keeping the ensemble's streaming state
        valid for subsequent ``update``/``process`` calls.
        """
        columns = {
            channel: np.ascontiguousarray(values[:, channel])
            for channel, weight in enumerate(self.channel_weights)
            if weight > 0
        }
        tasks = [
            (channel, self.segmenters[channel], column, chunk_size)
            for channel, column in columns.items()
        ]
        new_reports: list[ChannelReport] = []
        for channel, segmenter, seen_before in run_ordered(_stream_channel, tasks, n_workers):
            self.segmenters[channel] = segmenter
            new_reports.extend(
                self._as_channel_reports(
                    channel, self.channel_weights[channel], segmenter.reports[seen_before:]
                )
            )
        self._n_seen += values.shape[0]
        return self._replay_fusion(new_reports)

    def _fuse(self, at: int | None = None) -> int | None:
        """Resolve pending channel reports into at most one fused change point.

        ``at`` is the stream position of the fusion decision (defaults to the
        current position; the chunked path passes the detection time it is
        replaying).
        """
        if not self._pending:
            return None
        if at is None:
            at = self._n_seen

        # drop pending reports that can no longer be matched (too old) and
        # never reached the vote threshold
        horizon = at - 4 * self.fusion_tolerance
        self._pending = [r for r in self._pending if r.change_point >= horizon]
        if not self._pending:
            return None

        # group pending reports around the newest one
        newest = self._pending[-1]
        group = [
            report
            for report in self._pending
            if abs(report.change_point - newest.change_point) <= self.fusion_tolerance
        ]
        votes_by_channel: dict[int, ChannelReport] = {}
        for report in group:
            existing = votes_by_channel.get(report.channel)
            if existing is None or report.detected_at > existing.detected_at:
                votes_by_channel[report.channel] = report
        total_weight = sum(report.weight for report in votes_by_channel.values())
        if total_weight < self.min_votes:
            return None

        locations = sorted(report.change_point for report in votes_by_channel.values())
        fused_location = int(np.median(locations))
        if self._fused and fused_location <= self._fused[-1].change_point:
            # already covered by an earlier fused change point
            self._pending = [r for r in self._pending if r not in group]
            return None

        fused = FusedChangePoint(
            change_point=fused_location,
            detected_at=at,
            supporting_channels=sorted(votes_by_channel),
            channel_change_points=locations,
        )
        self._fused.append(fused)
        self._pending = [r for r in self._pending if r not in group]
        return fused.change_point


def _stream_channel(task: tuple[int, ClaSS, np.ndarray, int]) -> tuple[int, ClaSS, int]:
    """Worker entry point: stream one channel's column through its segmenter.

    Returns the channel index, the updated segmenter (shipped back to the
    parent to keep the ensemble stateful) and the report count before this
    call, so the parent can slice out exactly the new reports.
    """
    channel, segmenter, column, chunk_size = task
    seen_before = len(segmenter.reports)
    segmenter.process(column, chunk_size=chunk_size)
    return channel, segmenter, seen_before
