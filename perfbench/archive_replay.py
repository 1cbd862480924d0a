"""archive-replay: a dirty stream through ``StreamStore`` with fsync on.

The seed draws 1M points: ten regimes (lengths in opposite pairs around
100k, so every seed has the same length) whose mean steps by 2-4 units
over noise of sd 0.1, with 60 NaN runs of 1-200 points.  The stream is
ingested, segmented with page-hinkley behind a ``hold-last`` sanitizer at
the default chunk size and checkpoint cadence, then re-segmented from its
midpoint.  A run does a fixed amount of work: two segment passes, each
followed by three re-segments (about 20 s on a 2-vCPU Xeon VM).

Every chunk is timed (``common.TimedChunks``), the host's speed is sampled
every 0.1 s during the passes, and all times are in reference seconds
(``common.HostSpeed``).  ``obs_per_s`` is the stream's points over the mean
segment pass, ``resegment_s`` the median re-segment, and
``latency_p50_ms`` and ``latency_p99_ms`` are over the chunks of all
segments and re-segments.  Checks: the audit says ``identical``, and the
stored run's event log equals an in-RAM ``api.stream`` run of the same
array event for event.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

import common
import configs
from common import check

N_POINTS = 1_000_000
N_REGIMES = 10
N_NAN_RUNS = 60
STREAM = "archive"
#: Fixed work per run: this many segment passes, each followed by this many
#: midpoint re-segments (about 20 s on a 2-vCPU Xeon VM).
SEGMENT_PASSES = 2
RESEGMENTS = 3


def make_stream(seed: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.api.stream import DEFAULT_STREAM_CHUNK_SIZE as chunk_size

    rng = np.random.default_rng(seed)
    mean_length = N_POINTS // N_REGIMES
    half = rng.integers(0, mean_length * 3 // 10, size=N_REGIMES // 2)
    offsets = np.concatenate([half, -half])
    rng.shuffle(offsets)
    lengths = mean_length + offsets
    steps = rng.uniform(2.0, 4.0, N_REGIMES) * rng.choice((-1.0, 1.0), N_REGIMES)
    levels = np.cumsum(steps)
    values = np.concatenate(
        [rng.normal(level, 0.1, int(length)) for level, length in zip(levels, lengths)]
    )
    # each NaN run sits inside one chunk: resegment anchors its replay at
    # the checkpoint's sanitized position, which lags the raw row while a
    # run is pending or after a gap longer than max_gap
    chunks = rng.choice(np.arange(1, N_POINTS // chunk_size - 1), N_NAN_RUNS, replace=False)
    for chunk in chunks:
        length = int(rng.integers(1, 201))
        start = int(chunk) * chunk_size + int(rng.integers(1, chunk_size - length))
        values[start : start + length] = np.nan
    return values, np.cumsum(lengths)[:-1]


def timed_store(root):
    """A ``StreamStore`` whose replays record per-chunk spans in ``.spans``."""
    from repro.storage import StreamStore

    class TimedStore(StreamStore):
        spans: list[tuple[float, float]] = []

        def open(self, name):
            return common.TimedChunks(super().open(name), self.spans)

    return TimedStore(root, fsync=True)


def timed(operation, *args):
    """``operation(*args)`` and the span of wall time it took."""
    started = perf_counter()
    result = operation(*args)
    return result, (started, perf_counter())


def run(seed: int, seconds: float, trace: bool, recorder: common.Recorder) -> tuple[int, int]:
    from repro import api
    from repro.evaluation.covering import covering_score

    setup_s = None if trace else common.median_setup_s("archive-replay")
    values, truth = make_stream(seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_core(tracer)
        tracing.install_sanitizer(tracer)
        tracing.install_storage(tracer)

    # the traced run keeps sampling out of the spans it measures
    speed = common.HostSpeed(every_s=None if trace else common.SAMPLE_EVERY_S)
    store = timed_store(common.fresh_dir("archive-store"))
    store.ingest(STREAM, iter(np.array_split(values, 16)))
    segments, resegments, op_spans = [], [], []
    with speed:
        for _ in range(1 if trace else SEGMENT_PASSES):
            if tracer is not None:
                tracer.begin("stream.driver")
            store.spans = []
            run_record, span = timed(store.segment, STREAM, configs.ARCHIVE_DETECTOR, configs.ARCHIVE_CONFIG)
            if tracer is not None:
                tracer.end()
                tracer.counters["sanitizer.repaired_obs"] = tracer.last["sanitizer"].n_imputed
            segments.append(span)
            op_spans.append(store.spans)

            for _ in range(1 if trace else RESEGMENTS):
                store.spans = []
                audit, span = timed(store.resegment, STREAM, N_POINTS // 2)
                resegments.append(span)
                op_spans.append(store.spans)
                check(audit.identical, f"midpoint re-segment differs from the recorded run: {audit.summary()}")
                check(audit.checkpoint_used is not None, "the midpoint re-segment used no checkpoint")
    peak_rss = common.peak_rss_mb_self()

    if tracer is not None:
        tracer.enabled = False
    with store.event_log(STREAM) as log:
        stored_events = [record["event"] for record in log.iter_records()]
    detector = api.create(configs.ARCHIVE_DETECTOR, configs.ARCHIVE_CONFIG)
    in_ram = [event.to_dict() for event in api.stream(detector, values)]
    check(stored_events == in_ram, "the stored replay's events differ from the in-RAM stream")
    found = [entry["change_point"] for entry in run_record.change_points]
    check(len(found) > 0, "no change point detected on a ten-regime stream")
    chunk_ms = speed.reference_s([span for spans in op_spans for span in spans]) * 1e3
    segment_times = speed.reference_s(segments)
    resegment_times = speed.reference_s(resegments)
    attempted = len(chunk_ms) + 1  # the ingest

    if tracer is not None:
        import tracing

        tracer.dump(common.OUT / f"archive-replay-seed{seed}.spans.jsonl")
        for row in tracing.layer_metrics(tracer):
            recorder.add(*row)
        recorder.add("perfbench", "generator.lateness_ms_max", 0.0, "ms")
        recorder.add("perfbench", "generator.backlog_max", 0.0, "count")
        # untraced reference: the same segment pass again, spans off
        with speed:
            _, span = timed(store.segment, STREAM, configs.ARCHIVE_DETECTOR, configs.ARCHIVE_CONFIG)
        overhead = segment_times[0] / speed.reference_s([span])[0] - 1.0
        recorder.add("perfbench", "trace.overhead_frac", overhead, "fraction")
        recorder.add("perfbench", "fleet.inprocess_obs_per_s", 0.0, "obs/s")
        return attempted, 0

    print(
        f"archive-replay: {len(chunk_ms)} chunk latencies, "
        f"segment {', '.join(f'{x:.2f}' for x in segment_times)} s, "
        f"resegment {', '.join(f'{x:.2f}' for x in resegment_times)} s (reference seconds), "
        f"{len(speed.samples)} speed samples, {speed.median_sample_ms():.2f} ms median",
        file=sys.stderr,
    )
    recorder.add("perfbench", "setup_s", setup_s, "s")
    recorder.add("repro.storage", "obs_per_s", N_POINTS * len(segments) / segment_times.sum(), "obs/s")
    recorder.add("repro.storage", "latency_p50_ms", common.quantile(chunk_ms, 0.50), "ms")
    recorder.add("repro.storage", "latency_p99_ms", common.quantile(chunk_ms, 0.99), "ms")
    recorder.add("repro.storage", "failed_ratio", common.smoothed_failed_ratio(0, attempted), "fraction")
    recorder.add("perfbench", "peak_rss_mb", peak_rss, "MB")
    recorder.add(
        "repro.evaluation",
        "covering",
        covering_score(truth, np.asarray(found, dtype=np.int64), N_POINTS),
        "score",
    )
    recorder.add("repro.storage", "resegment_s", float(np.median(resegment_times)), "s")
    return attempted, 0
