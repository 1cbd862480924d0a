"""paper-default: one in-process ClaSS stream at the paper's defaults.

Six regimes of 7,000 points (42,000 in all; fixed states, parameters
drawn by ``random_segment_specs``) flow through ``api.stream`` in the
default 1024-point chunks: the first three quarters, then the rest, with
the detector state snapshotted in between (untimed).  The benchmark hands
the chunks over itself (``common.TimedChunks``), so each chunk is timed
from when it is asked for until the stream asks for the next: processing
plus event delivery.  The host's speed is sampled every 0.1 s during the
passes, and each chunk time is in reference seconds (``common.HostSpeed``).

Restoring the snapshot and streaming the last quarter again must emit the
same events as the first time, which checks that a repeated run of the
same input and state emits the same events; ``resegment_s`` is that
restore and re-run.  The run does a fixed amount of work, not
``--seconds`` of it (about 25 s of streaming on a 2-vCPU Xeon VM).  The
traced run adds one whole pass with spans on; its events must match as
well.

``obs_per_s`` is the stream's points over the time of its chunks.
``latency_p50_ms`` is the median of the full chunks after warm-up (chunk
rates range 700-2,700 obs/s as the window fills and empties around each
change point) and ``latency_p99_ms`` is over all chunks of the three passes.
"""

from __future__ import annotations

import pickle
import sys
from time import perf_counter

import numpy as np

import common
import configs
from common import check

#: The regimes' states, in stream order, each :data:`REGIME_LENGTH` long.
#: A fixed order and length keep the six transitions, and so the work
#: profile of the window filling and emptying, the same on every seed; the
#: seed draws the states' parameters and noise.  With states drawn per seed,
#: covering ranged 0.66-0.998; with lengths drawn per seed, the warm chunk
#: rate moved with where the change points fell.
STATES = (
    "respiration_excited",
    "ar_smooth",
    "eeg_wake",
    "strong_activity",
    "ecg_irregular",
    "eeg_deep",
)
REGIME_LENGTH = 7_000


def make_series(seed: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.datasets.synthetic import compose_stream, random_segment_specs

    rng = np.random.default_rng(seed)
    specs = random_segment_specs(len(STATES), (REGIME_LENGTH, REGIME_LENGTH), rng, STATES)
    specs.sort(key=lambda spec: STATES.index(spec.label))
    dataset = compose_stream(specs, seed=seed)
    return np.asarray(dataset.values, dtype=np.float64), np.asarray(dataset.change_points)


def stream_pass(segmenter, values) -> tuple[list[dict], list[tuple[float, float]]]:
    """Stream ``values`` through ``segmenter``: its events and chunk spans."""
    from repro import api

    feed = common.TimedChunks(values)
    events = [e.to_dict() for e in api.stream(segmenter, feed, chunk_size=configs.PAPER_CHUNK)]
    return events, feed.spans


def warm_full(offset: int, length: int, n_chunks: int, warmup_end: int) -> np.ndarray:
    """Which chunks of a pass are full and start after warm-up.

    The pass streamed ``length`` points starting at stream position ``offset``.
    """
    starts = offset + configs.PAPER_CHUNK * np.arange(n_chunks)
    return (starts >= warmup_end) & (starts + configs.PAPER_CHUNK <= offset + length)


def run(seed: int, seconds: float, trace: bool, recorder: common.Recorder) -> tuple[int, int]:
    from repro import api
    from repro.evaluation.covering import covering_score

    setup_s = None if trace else common.median_setup_s("paper-default")
    values, truth = make_series(seed)
    n = values.shape[0]
    split = (3 * n // 4) // configs.PAPER_CHUNK * configs.PAPER_CHUNK
    # the traced run keeps sampling out of the spans it measures
    speed = common.HostSpeed(every_s=None if trace else common.SAMPLE_EVERY_S)

    segmenter = api.create("class", configs.PAPER_CONFIG)
    with speed:
        first_events, first = stream_pass(segmenter, values[:split])
        snapshot = pickle.dumps(segmenter.save_state())
        second_events, second = stream_pass(segmenter, values[split:])
        started = perf_counter()
        resumed = api.restore(pickle.loads(snapshot))
        resumed_events, resumed_spans = stream_pass(resumed, values[split:])
        ended = perf_counter()
    reference = first_events + second_events
    warmup_end = segmenter.warmup_end
    check(warmup_end is not None and warmup_end < split, "ClaSS did not warm up before the snapshot")
    check(resumed_events == second_events, "re-segmenting from the snapshot emitted different events")
    found = [e["change_point"] for e in reference if e["kind"] == "change_point"]
    check(len(found) > 0, "no change point detected on a six-regime stream")
    peak_rss = common.peak_rss_mb_self()

    passes = ((first, 0, split), (second, split, n - split), (resumed_spans, split, n - split))
    chunk_s = [speed.reference_s(spans) for spans, _, _ in passes]
    pass_s = chunk_s[0].sum() + chunk_s[1].sum()
    warm = np.concatenate(
        [s[warm_full(offset, length, s.shape[0], warmup_end)] for s, (_, offset, length) in zip(chunk_s, passes)]
    )
    chunk_s = np.concatenate(chunk_s)
    attempted = chunk_s.shape[0]

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_core(tracer)
        segmenter = api.create("class", configs.PAPER_CONFIG)
        with speed:
            tracer.begin("stream.driver")
            events, traced = stream_pass(segmenter, values)
            tracer.end()
        check(events == reference, "the traced pass emitted different events")
        tracer.dump(common.OUT / f"paper-default-seed{seed}.spans.jsonl")
        for row in tracing.layer_metrics(tracer):
            recorder.add(*row)
        recorder.add("perfbench", "generator.lateness_ms_max", 0.0, "ms")
        recorder.add("perfbench", "generator.backlog_max", 0.0, "count")
        overhead = speed.reference_s(traced).sum() / pass_s - 1.0
        recorder.add("perfbench", "trace.overhead_frac", overhead, "fraction")
        recorder.add("perfbench", "fleet.inprocess_obs_per_s", 0.0, "obs/s")
        return attempted, 0

    print(
        f"paper-default: {attempted} chunk latencies, {warm.shape[0]} warm full chunks, "
        f"{len(speed.samples)} speed samples, {speed.median_sample_ms():.2f} ms median "
        f"(reference {common.REFERENCE_SPIN_S * 1e3:.1f} ms)",
        file=sys.stderr,
    )
    recorder.add("perfbench", "setup_s", setup_s, "s")
    recorder.add("repro.api.stream", "obs_per_s", n / pass_s, "obs/s")
    recorder.add("repro.api.stream", "latency_p50_ms", float(np.median(warm)) * 1e3, "ms")
    recorder.add("repro.api.stream", "latency_p99_ms", common.quantile(chunk_s * 1e3, 0.99), "ms")
    recorder.add("repro.api.stream", "failed_ratio", common.smoothed_failed_ratio(0, attempted), "fraction")
    recorder.add("perfbench", "peak_rss_mb", peak_rss, "MB")
    recorder.add(
        "repro.evaluation",
        "covering",
        covering_score(truth, np.asarray(found, dtype=np.int64), n),
        "score",
    )
    recorder.add("repro.api.checkpoint", "resegment_s", float(speed.reference_s([(started, ended)])[0]), "s")
    return attempted, 0
