"""Dirty-data chaos suite: determinism of every non-default policy.

Extends the repo's equivalence-test discipline to adversarial inputs.  A
seeded generator injects NaN runs, inf spikes, constant plateaus and long
outage gaps into a segmented base signal; each policy must then produce
**bit-identical** change points and event streams across

* chunk sizes (point-wise through one-shot ingestion),
* kernel backends (numpy vs. compiled),
* checkpoint/resume — including a checkpoint taken *inside* an open dirty
  run, where the sanitizer's pending-run counters must travel along,
* the service path vs. offline ``api.stream`` (with duplicated and stale
  batches thrown in under ``duplicate_policy="drop"``),
* storage-tier ``segment``/``resegment`` replay.

Clean data under the default ``reject`` policy stays byte-identical to the
seed behaviour — pinned by the rest of the suite, which this file never
touches.
"""

import asyncio

import numpy as np
import pytest

from repro import api
from repro.core.kernels import available_backends
from repro.utils.exceptions import ConfigurationError

HAS_NUMBA = "numba" in available_backends()

WINDOW = 300

POLICIES = [
    {"nan_policy": "skip"},
    {"nan_policy": "hold-last"},
    {"nan_policy": "linear-interp"},
    {"nan_policy": "hold-last", "max_gap": 25},
    {"nan_policy": "linear-interp", "max_gap": 25, "reset_on_gap": True},
]


def dirty_signal(seed=0, n=1_600):
    """Seeded segmented signal with injected NaN runs, inf spikes and a gap."""
    rng = np.random.default_rng(seed)
    half = n // 2
    values = np.concatenate(
        (
            np.sin(np.arange(half) / 8.0) + rng.normal(0.0, 0.05, half),
            np.sign(np.sin(np.arange(n - half) / 16.0)) + rng.normal(0.0, 0.05, n - half),
        )
    )
    values[120:126] = np.nan  # short NaN run
    values[420:423] = np.inf  # inf spike
    values[700:760] = 2.0  # constant plateau (degenerate subsequences)
    values[1_100:1_160] = np.nan  # long outage: exceeds max_gap=25
    values[n - 2] = -np.inf  # dirty tail near end of stream
    return values


def run_offline(values, policy, chunk_size, backend="numpy"):
    """Events + change points of one policy run at one chunk size."""
    segmenter = api.create(
        "class",
        {"window_size": WINDOW, "kernel_backend": backend, "data_policy": policy},
    )
    events = list(api.stream(segmenter, values, chunk_size=chunk_size))
    return (
        [event.to_dict() for event in events],
        [int(cp) for cp in segmenter.change_points],
        segmenter,
    )


# --------------------------------------------------------------------------- #
# chunk-size and backend invariance
# --------------------------------------------------------------------------- #


class TestChunkInvariance:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: "-".join(map(str, p.values())))
    def test_bit_identical_across_chunk_sizes(self, policy):
        values = dirty_signal()
        reference_events, reference_cps, _ = run_offline(values, policy, chunk_size=len(values))
        assert reference_events  # the generator must actually exercise the policy
        for chunk_size in (1, 7, 64, 1_024):
            events, cps, _ = run_offline(values, policy, chunk_size=chunk_size)
            assert events == reference_events, f"chunk_size={chunk_size}"
            assert cps == reference_cps, f"chunk_size={chunk_size}"

    def test_gap_and_quality_events_present(self):
        values = dirty_signal()
        events, _, segmenter = run_offline(
            values, {"nan_policy": "hold-last", "max_gap": 25}, chunk_size=256
        )
        kinds = [event["kind"] for event in events]
        assert "data_quality" in kinds
        assert "gap" in kinds
        counters = segmenter.quality_counters()
        assert counters["n_gaps"] == 1
        assert counters["n_skipped"] >= 60  # the long outage was not imputed
        assert counters["n_imputed"] >= 9

    def test_reset_on_gap_restarts_warmup(self):
        values = dirty_signal()
        events, _, _ = run_offline(
            values,
            {"nan_policy": "hold-last", "max_gap": 25, "reset_on_gap": True},
            chunk_size=128,
        )
        gap = next(event for event in events if event["kind"] == "gap")
        assert gap["reset"] is True

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    @pytest.mark.parametrize(
        "policy",
        [{"nan_policy": "hold-last"}, {"nan_policy": "linear-interp", "max_gap": 25}],
        ids=["hold-last", "interp-gap"],
    )
    def test_bit_identical_across_kernel_backends(self, policy):
        values = dirty_signal(seed=3)
        events_np, cps_np, _ = run_offline(values, policy, 256, backend="numpy")
        events_nb, cps_nb, _ = run_offline(values, policy, 256, backend="numba")
        assert events_np == events_nb
        assert cps_np == cps_nb


# --------------------------------------------------------------------------- #
# checkpoint / resume
# --------------------------------------------------------------------------- #


class TestCheckpointResume:
    @pytest.mark.parametrize("cut", [123, 1_130], ids=["mid-clean", "mid-open-gap-run"])
    def test_resume_is_bit_identical(self, cut):
        policy = {"nan_policy": "hold-last", "max_gap": 25}
        values = dirty_signal(seed=1)
        _, reference_cps, reference = run_offline(values, policy, chunk_size=64)
        reference_events = [event.to_dict() for event in reference.events()]

        segmenter = api.create(
            "class",
            {"window_size": WINDOW, "kernel_backend": "numpy", "data_policy": policy},
        )
        list(api.stream(segmenter, values[:cut], chunk_size=64))
        resumed = api.restore(segmenter.save_state())
        assert resumed.quality_counters() == segmenter.quality_counters()
        list(api.stream(resumed, values[cut:], chunk_size=64))
        assert [event.to_dict() for event in resumed.events()] == reference_events
        assert [int(cp) for cp in resumed.change_points] == reference_cps

    def test_checkpoint_config_round_trips_the_policy(self):
        policy = {"nan_policy": "skip", "duplicate_policy": "drop"}
        segmenter = api.create("class", {"window_size": WINDOW, "data_policy": policy})
        payload = segmenter.save_state()
        assert payload["config"]["data_policy"]["nan_policy"] == "skip"
        resumed = api.restore(payload)
        assert resumed.policy.nan_policy == "skip"
        assert resumed.policy.duplicate_policy == "drop"


# --------------------------------------------------------------------------- #
# service vs. offline (plus duplicate/stale batches)
# --------------------------------------------------------------------------- #


class TestServiceEquivalence:
    def test_service_matches_offline_with_duplicates_and_stale_batches(self):
        from repro.service.routes import ServiceRoutes
        from repro.service.streams import StreamRegistry
        from repro.service.workers import WorkerPool

        policy = {"nan_policy": "hold-last", "max_gap": 25, "duplicate_policy": "drop"}
        values = dirty_signal(seed=2)
        batch = 200
        batches = [values[i : i + batch] for i in range(0, len(values), batch)]

        async def scenario():
            registry = StreamRegistry(n_shards=2)
            pool = WorkerPool(2)
            pool.start()
            routes = ServiceRoutes(registry, pool)
            stream = registry.create_stream(
                "chaos", {"config": {"window_size": WINDOW}, "data_policy": policy}
            )
            for seq, chunk in enumerate(batches):
                doc = {"values": chunk.tolist(), "seq": seq}
                await routes.ingest(stream, doc)
                if seq == 2:  # duplicate of the batch just acked: replayed
                    ack = await routes.ingest(stream, doc)
                    assert ack.get("replayed") is True
                if seq == 4:  # genuinely stale batch: silently dropped
                    ack = await routes.ingest(
                        stream, {"values": batches[0].tolist(), "seq": 1}
                    )
                    assert ack.get("dropped") is True
                    assert ack["events"] == []
            _, metrics = await routes.metrics(None)
            await pool.stop()
            return stream, metrics

        stream, metrics = asyncio.run(scenario())
        _, offline_cps, offline = run_offline(values, policy, chunk_size=batch)
        assert [int(cp) for cp in stream.segmenter.change_points] == offline_cps
        service_events = [event.to_dict() for event in stream.segmenter.events()]
        assert service_events == [event.to_dict() for event in offline.events()]
        snapshot = metrics["streams"]["chaos"]
        assert snapshot["quality"] == offline.quality_counters()
        assert snapshot["n_dropped_batches"] == 1
        assert stream.metrics.n_dropped_batches == 1

    def test_dirty_batch_still_422_without_policy(self):
        from repro.service.errors import ServiceError
        from repro.service.streams import StreamRegistry

        registry = StreamRegistry(n_shards=1)
        with pytest.raises(ServiceError) as info:
            registry.parse_observations({"values": [0.0, float("nan")]})
        assert info.value.status == 422
        assert info.value.detail["first_bad_index"] == 1
        assert info.value.detail["first_bad_value"] == "nan"


# --------------------------------------------------------------------------- #
# storage tier: dirty streams in the chunk store
# --------------------------------------------------------------------------- #


class TestStorageReplay:
    def test_dirty_ingest_succeeds_but_default_segment_rejects(self, tmp_path):
        # pinned decision: the store is a faithful byte sink (ingest never
        # validates values); policies apply at replay/segmentation time
        from repro.storage import StreamStore

        store = StreamStore(tmp_path)
        store.ingest("dirty", dirty_signal(seed=4))
        # the detector checks each chunk whole before buffering any of it, so
        # the first NaN is rejected at once, not when the warm-up completes
        with pytest.raises(ConfigurationError, match="finite"):
            store.segment("dirty", "class", {"window_size": WINDOW})

    def test_policy_segment_logs_quality_events_and_resegment_replays(self, tmp_path):
        from repro.storage import StreamStore

        policy = {"nan_policy": "hold-last", "max_gap": 25}
        values = dirty_signal(seed=4)
        store = StreamStore(tmp_path)
        store.ingest("dirty", values)
        run = store.segment(
            "dirty",
            "class",
            {"window_size": WINDOW, "kernel_backend": "numpy", "data_policy": policy},
            chunk_size=256,
            checkpoint_every=500,
        )
        log = store.event_log("dirty")
        logged = [record["event"] for record in log.iter_records(0)]
        log.close()
        kinds = [event["kind"] for event in logged]
        assert "data_quality" in kinds
        assert "gap" in kinds
        _, offline_cps, offline = run_offline(values, policy, chunk_size=256)
        assert logged == [event.to_dict() for event in offline.events()]
        assert [entry["change_point"] for entry in run.change_points] == offline_cps

        # replay from the start and from a mid-stream snapshot: identical
        for from_t in (0, 600):
            audit = store.resegment("dirty", from_t, chunk_size=256)
            assert audit.to_dict()["identical"] is True
