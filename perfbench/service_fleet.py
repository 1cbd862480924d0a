"""service-fleet: the segmentation service under an open-loop stream fleet.

The server is a separate process (``fleet_server.py``: ``repro.cli serve``
with 2 shards and a spool, so every batch is written ahead and fsynced).
This process is the only client: one asyncio loop, two keep-alive
connections (no more than the machine has cores), 64 ClaSS streams
(``window_size=100``, ``scoring_interval=10``, ``subsequence_width=5``,
scores on) sending 50-observation batches with sequence numbers.  Stream
``i`` always uses connection ``i % 2``, which keeps each stream in order.

``--seconds`` of fixed-rate offer are cut into five stretches, each
followed by a round of moves and a burst:

* **fixed rate** - 4,000 obs/s offered on a schedule that never waits for
  the server.  Each batch's latency runs from when it was *due* to when
  its ack arrived; a batch not acked 200 counts as missing any limit.
  ``latency_p50_ms`` is the median over all of them (1,600 at 20 s).
  ``latency_p99_ms`` is the p99 of the quietest stretch (320 batches at
  20 s): on a shared 2-vCPU VM, host stalls of 20-80 ms hit about half of
  the stretches, and a pooled p99 read 13 ms or 27-64 ms by whether one
  fell in the run.
* **moves** - every stream moves to the other shard and back (``POST
  /streams/{name}/rebalance``: freeze behind queued batches, ship the
  detector state, restore it), 64 moves pipelined at a time;
  ``resegment_s`` is the median over the ten rounds of seconds per move.
* **over capacity** - 3 more batches per stream, each sent as soon as its
  connection has fewer than :data:`IN_FLIGHT_CAP` outstanding, so the
  server never idles; ``obs_per_s`` is the acked rate sustained in three
  of four windows of 32 acks (see :func:`acked_rate`).

Every time except ``setup_s`` is in reference seconds
(``common.HostSpeed``): once the fleet is up, the server process samples
the host's speed every 0.1 s (``fleet_server.py --speed-out``), and the
spans timed here are scaled by those samples (``perf_counter`` is
system-wide).  A sample stalls the server for about 4 ms; the time of a
sample inside a span is left out, but a batch that arrives during one
still waits for it, which adds about 3 ms to the p99.

Beside the writes, an operator scrapes ``/metrics`` once a second and a
consumer polls ``/events?since=`` four times a second, on the same
connections.  Checks: every stream's acked events equal an in-process
``api.stream`` run of the same acked batches (the bit-identity contract,
across the moves too); each polled event log is a prefix of the acks;
control requests, scrapes and polls answer 200.  Batches not acked 200
count in ``failed_ratio``.  The in-process run, single-threaded, is also
``fleet.inprocess_obs_per_s``.  ``covering`` is the mean over streams of
the acked change points against the generator's.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import common
import configs
from common import BenchmarkError, check
from fleet_server import SHARDS

N_STREAMS = 64
N_CONNECTIONS = min(2, os.cpu_count() or 1)
BATCH = 50
FIXED_RATE = 4_000
#: The fixed-rate phase is cut into this many stretches; after each, every
#: stream moves shard and back and an over-capacity burst follows.
STRETCHES = 5
#: Over-capacity work per stream, sent as fast as the in-flight cap allows,
#: spread evenly over the bursts.
OVER_BATCHES = 15
RATE_WINDOW = 32
IN_FLIGHT_CAP = 16
#: Regime lengths of the fleet's series.
SEGMENT_LENGTHS = (200, 400)
SCRAPE_HZ = 1.0
POLL_HZ = 4.0
SETUP_REPEATS = 3


def make_fleet(seed: int, length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stream: ``length`` points of short regimes and their change points."""
    from repro.datasets.synthetic import compose_stream, random_segment_specs

    rng = np.random.default_rng(seed)
    n_segments = length // SEGMENT_LENGTHS[0] + 1
    fleet = []
    for _ in range(N_STREAMS):
        specs = random_segment_specs(n_segments, SEGMENT_LENGTHS, rng, allow_repeats=True)
        dataset = compose_stream(specs, seed=int(rng.integers(2**31)))
        values = np.asarray(dataset.values[:length], dtype=np.float64)
        truth = np.asarray([cp for cp in dataset.change_points if cp < length])
        fleet.append((values, truth))
    return fleet


def batches_per_stream(fixed_seconds: float, traced: bool) -> int:
    fixed = int(fixed_seconds * FIXED_RATE / BATCH) // N_STREAMS + 1
    return fixed + OVER_BATCHES * (2 if traced else 1)


def stream_name(index: int) -> str:
    return f"s{index:02d}"


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
    if body:
        head += "Content-Type: application/json\r\n"
    return (head + "\r\n").encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class Request:
    """One request on a channel; ``answer`` resolves when its response is read."""

    __slots__ = ("kind", "stream", "batch", "due", "done", "status", "body", "answer")

    def __init__(self, kind: str, stream: int = -1, batch: int = -1, due: float = 0.0):
        self.kind, self.stream, self.batch, self.due = kind, stream, batch, due
        self.done = 0.0
        self.status = 0
        self.body = b""
        self.answer = asyncio.get_running_loop().create_future()


class Channel:
    """One keep-alive connection with pipelined requests, answered in order."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: collections.deque[Request] = collections.deque()
        self.finished: list[Request] = []
        self.ingest_in_flight = 0
        self.room = asyncio.Event()

    def send(self, request: Request, raw: bytes) -> None:
        self.pending.append(request)
        if request.kind == "ingest":
            self.ingest_in_flight += 1
        self.writer.write(raw)

    async def receive(self) -> None:
        while True:
            status, body = await read_response(self.reader)
            request = self.pending.popleft()
            request.done = perf_counter()
            request.status, request.body = status, body
            if request.kind == "ingest":
                self.ingest_in_flight -= 1
                self.room.set()
            self.finished.append(request)
            request.answer.set_result(None)

    async def roundtrip(self, raw: bytes) -> tuple[int, bytes]:
        request = Request("control")
        self.send(request, raw)
        await request.answer
        return request.status, request.body


class Server:
    """The service process: spawn, wait until ready, stop gracefully."""

    def __init__(self, trace_out=None, speed_out=None) -> None:
        self.spawned = perf_counter()
        self.port = free_port()
        spool = common.fresh_dir(f"spool-{self.port}")
        argv = [
            sys.executable,
            str(common.HERE / "fleet_server.py"),
            "--port",
            str(self.port),
            "--spool-dir",
            str(spool),
        ]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        if speed_out is not None:
            argv += ["--speed-out", str(speed_out)]
        self.log = open(common.WORK / f"server-{self.port}.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, stdout=self.log, stderr=subprocess.STDOUT, cwd=common.ROOT
        )

    def stop(self, timeout: float = 60.0) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode

    def log_tail(self) -> str:
        return (common.WORK / f"server-{self.port}.log").read_text(encoding="utf-8")[-3000:]


async def connect(port: int, deadline: float) -> list[Channel]:
    channels = []
    while len(channels) < N_CONNECTIONS:
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            if perf_counter() > deadline:
                raise
            await asyncio.sleep(0.01)
            continue
        channels.append(Channel(reader, writer))
    return channels


async def bring_up(server: Server) -> tuple[list[Channel], list[asyncio.Task], list[int]]:
    """Connect, wait for ``/healthz`` to answer 200, create every stream.

    Returns the channels, their reader tasks and each stream's shard.
    """
    channels = await connect(server.port, perf_counter() + 60.0)
    readers = [asyncio.create_task(channel.receive()) for channel in channels]
    status, _ = await channels[0].roundtrip(http_request("GET", "/healthz"))
    check(status == 200, f"/healthz answered {status}")
    spec = json.dumps(configs.FLEET_SPEC).encode()
    shards = []
    for index in range(N_STREAMS):
        channel = channels[index % N_CONNECTIONS]
        status, body = await channel.roundtrip(
            http_request("POST", f"/streams/{stream_name(index)}", spec)
        )
        check(status == 201, f"creating stream {index} answered {status}: {body[:200]!r}")
        shards.append(json.loads(body)["shard"])
    return channels, readers, shards


async def close(channels, readers) -> None:
    for task in readers:
        task.cancel()
    for task in readers:
        try:
            await task
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
    for channel in channels:
        channel.writer.close()
        try:
            await channel.writer.wait_closed()
        except ConnectionError:
            pass


class Fleet:
    """Open-loop schedule over the fleet; remembers every request it sent."""

    def __init__(self, series, channels) -> None:
        self.series = series
        self.channels = channels
        self.next_batch = [0] * N_STREAMS
        self.cursor = 0  # round-robin position over streams

    def _ingest(self, due: float) -> tuple[Channel, Request, bytes]:
        index = self.cursor % N_STREAMS
        batch = self.next_batch[index]
        values = self.series[index][0][batch * BATCH : (batch + 1) * BATCH]
        check(values.shape[0] == BATCH, "the generated series ran out")
        self.cursor += 1
        self.next_batch[index] = batch + 1
        body = json.dumps({"values": values.tolist(), "seq": batch}).encode()
        raw = http_request("POST", f"/streams/{stream_name(index)}/observations", body)
        return self.channels[index % N_CONNECTIONS], Request("ingest", index, batch, due), raw

    async def offer(self, rate: float, seconds: float) -> dict:
        """Offer ``rate`` obs/s for ``seconds`` on a schedule that never waits.

        Reports how late the generator sent (its own lag, not the
        server's) and the most requests outstanding at once.
        """
        interval = BATCH / rate
        start = perf_counter()
        sent: list[Request] = []
        lateness_max = backlog_max = 0.0
        for k in range(int(seconds / interval)):
            due = start + k * interval
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            channel, request, raw = self._ingest(due)
            lateness_max = max(lateness_max, perf_counter() - due)
            backlog_max = max(backlog_max, sum(len(c.pending) for c in self.channels))
            channel.send(request, raw)
            sent.append(request)
        return {
            "sent": sent,
            "lateness_ms_max": lateness_max * 1e3,
            "backlog_max": backlog_max,
        }

    async def saturate(self, batches_per_stream: int) -> list[Request]:
        """Send a fixed amount of work as fast as :data:`IN_FLIGHT_CAP` allows."""
        sent: list[Request] = []
        for _ in range(batches_per_stream * N_STREAMS):
            channel, request, raw = self._ingest(0.0)
            while channel.ingest_in_flight >= IN_FLIGHT_CAP:
                channel.room.clear()
                await channel.room.wait()
            request.due = perf_counter()
            channel.send(request, raw)
            sent.append(request)
        return sent

    async def rebalance(self, shards: list[int]) -> tuple[float, float]:
        """Move every stream to another shard, pipelined; when it started and ended.

        A move freezes the stream behind its queued batches, ships its
        detector state and restores it on the target shard.  ``shards``
        (each stream's shard) is updated.
        """
        moves = []
        started = perf_counter()
        for index in range(N_STREAMS):
            shards[index] = (shards[index] + 1) % SHARDS
            body = json.dumps({"shard": shards[index]}).encode()
            request = Request("move", index)
            raw = http_request("POST", f"/streams/{stream_name(index)}/rebalance", body)
            self.channels[index % N_CONNECTIONS].send(request, raw)
            moves.append(request)
        await asyncio.gather(*(request.answer for request in moves))
        ended = perf_counter()
        bad = [(r.stream, r.status, r.body[:200]) for r in moves if r.status != 200]
        check(not bad, f"{len(bad)} stream move(s) failed: {bad[:3]}")
        return started, ended

    async def operator(self, stop: asyncio.Event) -> None:
        """Scrape ``/metrics`` at :data:`SCRAPE_HZ` until ``stop``."""
        k = 0
        while not stop.is_set():
            request = Request("scrape", due=perf_counter())
            self.channels[k % N_CONNECTIONS].send(request, http_request("GET", "/metrics"))
            k += 1
            try:
                await asyncio.wait_for(stop.wait(), 1.0 / SCRAPE_HZ)
            except asyncio.TimeoutError:
                pass

    async def consumer(self, stop: asyncio.Event, polled: dict) -> None:
        """Poll ``/events?since=`` round-robin over the streams."""
        cursors = [0] * N_STREAMS
        k = 0
        while not stop.is_set():
            index = k % N_STREAMS
            request = Request("poll", index, due=perf_counter())
            raw = http_request("GET", f"/streams/{stream_name(index)}/events?since={cursors[index]}")
            channel = self.channels[index % N_CONNECTIONS]
            channel.send(request, raw)
            await request.answer
            if request.status == 200:
                page = json.loads(request.body)
                polled[index].extend(page["events"])
                cursors[index] = page["next"]
            k += 1
            try:
                await asyncio.wait_for(stop.wait(), 1.0 / POLL_HZ)
            except asyncio.TimeoutError:
                pass


async def drain(channels: list[Channel]) -> None:
    """Wait until every request sent so far is answered."""
    answers = [request.answer for channel in channels for request in channel.pending]
    try:
        await asyncio.wait_for(asyncio.gather(*answers), 60.0)
    except asyncio.TimeoutError:
        raise BenchmarkError("the service left requests unanswered for 60 s") from None


async def drive(server: Server, series, seconds: float, traced: bool) -> dict:
    """Bring the fleet up, run the phases, wait for every answer.

    Each of the :data:`STRETCHES` fixed-rate stretches drains, then every
    stream moves shard and an over-capacity burst (which sends each moved
    stream more batches) drains before the next stretch.  So latency,
    capacity and moves are sampled at several moments of the run.  In an
    untraced run, SIGUSR2 starts the server's host-speed sampling once the
    fleet is up.
    """
    channels, readers, shards = await bring_up(server)
    setup_s = perf_counter() - server.spawned
    fleet = Fleet(series, channels)
    result = {"setup_s": setup_s, "fixed": [], "over": [], "moves": []}
    if not traced:
        server.process.send_signal(signal.SIGUSR2)
    if traced:
        result["probe"] = [await fleet.saturate(OVER_BATCHES)]
        await drain(channels)
        server.process.send_signal(signal.SIGUSR1)
    stop = asyncio.Event()
    polled = collections.defaultdict(list)
    side = [asyncio.create_task(fleet.operator(stop)), asyncio.create_task(fleet.consumer(stop, polled))]
    for _ in range(STRETCHES):
        result["fixed"].append(await fleet.offer(FIXED_RATE, seconds / STRETCHES))
        await drain(channels)
        for _ in range(2):  # there and back
            result["moves"].append(await fleet.rebalance(shards))
        result["over"].append(await fleet.saturate(OVER_BATCHES // STRETCHES))
        await drain(channels)
    stop.set()
    for task in side:
        await task
    await drain(channels)
    result.update(
        polled=polled,
        finished=[r for channel in channels for r in channel.finished],
        peak_rss_mb=common.peak_rss_mb_pid(server.process.pid),
    )
    await close(channels, readers)
    return result


def setup_only() -> float:
    server = Server()
    try:

        async def measure():
            channels, readers, _ = await bring_up(server)
            elapsed = perf_counter() - server.spawned
            await close(channels, readers)
            return elapsed

        return asyncio.run(measure())
    finally:
        check(server.stop() == 0, f"the service did not shut down cleanly:\n{server.log_tail()}")


def acked_rate(bursts: list[list[Request]], speed: common.HostSpeed | None) -> float:
    """The acked rate sustained in three of four windows of :data:`RATE_WINDOW` acks.

    Each burst's first window (the pipeline filling) is left out.  The
    lower quartile, not the median: on a shared VM the server runs at
    about 7k or about 11k obs/s depending on the host, the share of fast
    windows changes from run to run, and the slow rate is the one nearly
    every run reaches.
    """
    windows = []
    for sent in bursts:
        acks = sorted(r.done for r in sent if r.status == 200)
        windows += [
            (acks[i], acks[i + RATE_WINDOW - 1])
            for i in range(RATE_WINDOW, len(acks) - RATE_WINDOW + 1, RATE_WINDOW)
        ]
    check(len(windows) > 0, "too few batches acked in the over-capacity bursts")
    seconds = np.diff(windows).ravel() if speed is None else speed.reference_s(windows)
    return common.quantile((RATE_WINDOW - 1) * BATCH / seconds, 0.25)


def in_process(series, acks: dict[int, dict[int, dict]]) -> tuple[float, list[str]]:
    """Replay every stream's acked batches in-process, one stream at a time.

    Only acked batches are fed, in ``seq`` order, as the service applied
    them.  Returns the streaming rate (obs/s, event comparison left out) and
    the batches whose events differ from their acks.
    """
    from repro import api

    mismatches: list[str] = []
    n_obs = 0
    elapsed = 0.0
    for index in range(N_STREAMS):
        values = series[index][0]
        segmenter = api.create("class", configs.FLEET_CONFIG)
        for seq, ack in sorted(acks[index].items()):
            chunk = values[seq * BATCH : (seq + 1) * BATCH]
            started = perf_counter()
            events = [
                event.to_dict()
                for event in api.stream(segmenter, chunk, chunk_size=BATCH, include_scores=True)
            ]
            elapsed += perf_counter() - started
            n_obs += chunk.shape[0]
            if json.dumps(events) != json.dumps(ack["events"]):
                mismatches.append(f"stream {index} batch {seq}")
    return n_obs / elapsed, mismatches


def run(seed: int, seconds: float, trace: bool, recorder: common.Recorder) -> tuple[int, int]:
    from repro.evaluation.covering import covering_score

    stages = [("start", perf_counter())]
    setup_samples = [] if trace else [setup_only() for _ in range(SETUP_REPEATS - 1)]
    stages.append(("set-up probes", perf_counter()))
    series = make_fleet(seed, BATCH * batches_per_stream(seconds, trace))
    stages.append(("inputs", perf_counter()))
    trace_out = common.WORK / "server-trace.jsonl" if trace else None
    # traced runs keep sampling out of the server's spans, and compare raw rates
    speed_out = None if trace else common.WORK / "server-speed.json"
    server = Server(trace_out, speed_out)
    try:
        outcome = asyncio.run(drive(server, series, seconds, trace))
    finally:
        stages.append(("phases", perf_counter()))
        status = server.stop()
        stages.append(("shutdown", perf_counter()))
    check(status == 0, f"the service did not shut down cleanly:\n{server.log_tail()}")
    setup_samples.append(outcome["setup_s"])
    speed = None if trace else common.HostSpeed.load(speed_out)

    ingests = [r for r in outcome["finished"] if r.kind == "ingest"]
    failed = [r for r in ingests if r.status != 200]
    others = [r for r in outcome["finished"] if r.kind in ("scrape", "poll")]
    bad = [(r.kind, r.status, r.body[:200]) for r in others if r.status != 200]
    check(not bad, f"{len(bad)} /metrics scrape(s) or /events poll(s) failed: {bad[:3]}")
    acks: dict[int, dict[int, dict]] = collections.defaultdict(dict)
    for request in ingests:
        if request.status == 200:
            ack = json.loads(request.body)
            check(ack["seq"] == request.batch, f"stream {request.stream} acked the wrong batch")
            acks[request.stream][request.batch] = ack
    inprocess_obs_per_s, mismatches = in_process(series, acks)
    stages.append(("in-process check", perf_counter()))
    print(
        "service-fleet stages: "
        + ", ".join(f"{name} {end - begin:.1f} s" for (_, begin), (name, end) in zip(stages, stages[1:])),
        file=sys.stderr,
    )
    check(not mismatches, f"acked events differ from api.stream: {mismatches[:5]}")
    for index, events in outcome["polled"].items():
        acked = [event for _, ack in sorted(acks[index].items()) for event in ack["events"]]
        check(events == acked[: len(events)], f"polled events of stream {index} are not the acked ones")

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.merge(tracing.Tracer.load_summary(trace_out))
        common.OUT.mkdir(parents=True, exist_ok=True)
        os.replace(trace_out, common.OUT / f"service-fleet-seed{seed}.spans.jsonl")
        for row in tracing.layer_metrics(tracer):
            recorder.add(*row)
        fixed = outcome["fixed"]
        lateness = max(stretch["lateness_ms_max"] for stretch in fixed)
        recorder.add("perfbench", "generator.lateness_ms_max", lateness, "ms")
        backlog = max(stretch["backlog_max"] for stretch in fixed)
        recorder.add("perfbench", "generator.backlog_max", backlog, "count")
        overhead = acked_rate(outcome["probe"], None) / acked_rate(outcome["over"], None) - 1.0
        recorder.add("perfbench", "trace.overhead_frac", overhead, "fraction")
        recorder.add("perfbench", "fleet.inprocess_obs_per_s", inprocess_obs_per_s, "obs/s")
        return len(ingests), len(failed)

    limit_ms = seconds * 1e3  # a failed batch misses any latency limit
    stretches = []
    for stretch in outcome["fixed"]:
        acked = [r.status == 200 for r in stretch["sent"]]
        spans = [(r.due, r.done if ok else r.due) for r, ok in zip(stretch["sent"], acked)]
        ms = speed.reference_s(spans) * 1e3
        stretches.append([x if ok else limit_ms for x, ok in zip(ms, acked)])
    moves_s = speed.reference_s(outcome["moves"]) / N_STREAMS
    latencies = [x for stretch in stretches for x in stretch]
    coverings = []
    for index in range(N_STREAMS):
        # score the acked prefix: a failed batch would shift later positions
        n_prefix = BATCH * next(seq for seq in itertools.count() if seq not in acks[index])
        truth = series[index][1]
        found = [
            event["change_point"]
            for _, ack in sorted(acks[index].items())
            for event in ack["events"]
            if event["kind"] == "change_point" and event["change_point"] < n_prefix
        ]
        coverings.append(
            covering_score(truth[truth < n_prefix], np.asarray(found, dtype=np.int64), n_prefix)
        )
    print(
        f"service-fleet: {len(latencies)} fixed-rate batches, {len(failed)} of {len(ingests)} "
        f"batches failed, generator late by at most "
        f"{max(s['lateness_ms_max'] for s in outcome['fixed']):.1f} ms, "
        f"outstanding at most {max(s['backlog_max'] for s in outcome['fixed']):.0f}, "
        f"reference ms per move {', '.join(f'{x * 1e3:.2f}' for x in moves_s)}, "
        f"{len(speed.samples)} speed samples, {speed.median_sample_ms():.2f} ms median",
        file=sys.stderr,
    )
    recorder.add("perfbench", "setup_s", statistics.median(setup_samples), "s")
    recorder.add("repro.service", "obs_per_s", acked_rate(outcome["over"], speed), "obs/s")
    recorder.add("repro.service", "latency_p50_ms", common.quantile(latencies, 0.50), "ms")
    # the quietest stretch: one host stall of 20-80 ms decides a pooled p99
    p99 = min(common.quantile(stretch, 0.99) for stretch in stretches)
    recorder.add("repro.service", "latency_p99_ms", p99, "ms")
    recorder.add(
        "repro.service", "failed_ratio", common.smoothed_failed_ratio(len(failed), len(ingests)), "fraction"
    )
    recorder.add("repro.service", "peak_rss_mb", outcome["peak_rss_mb"], "MB")
    recorder.add("repro.evaluation", "covering", statistics.fmean(coverings), "score")
    recorder.add("repro.service", "resegment_s", float(np.median(moves_s)), "s")
    return len(ingests), len(failed)
