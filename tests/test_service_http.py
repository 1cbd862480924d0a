"""HTTP-level service tests: lifecycle, typed 4xx error bodies, resilience.

The error contract (ISSUE 7 satellite): bad JSON configs, NaN/inf
observation payloads, unknown stream names and oversized batches must come
back as structured 4xx bodies — and must never crash a shard worker or the
server.  Every error case here re-checks ``/healthz`` and then performs a
successful ingest to prove the service is still fully live.
"""

import asyncio
import math

import pytest

from repro.api import ScoreEvent
from repro.service import SegmentationService, ServiceClient
from repro.service.streams import LATENCY_WINDOW, StreamMetrics, quantile

CONFIG = {"window_size": 120, "scoring_interval": 10}


def _run(coro):
    return asyncio.run(coro)


async def _with_service(fn, **kwargs):
    """Start an ephemeral service, run ``fn(client, service)``, tear down."""
    service = SegmentationService(n_shards=kwargs.pop("n_shards", 2), **kwargs)
    await service.start(port=0)
    client = await ServiceClient("127.0.0.1", service.port).connect()
    try:
        return await fn(client, service)
    finally:
        await client.close()
        await service.stop()


async def _assert_alive(client):
    """The service must still answer /healthz and ingest successfully."""
    status, body = await client.request("GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #


class TestLifecycle:
    def test_create_info_list_delete(self):
        async def scenario(client, service):
            status, body = await client.request(
                "POST", "/streams/s1", {"detector": "class", "config": CONFIG}
            )
            assert status == 201
            assert body["name"] == "s1"
            assert body["detector"] == "class"
            assert 0 <= body["shard"] < 2

            status, body = await client.request("GET", "/streams/s1")
            assert status == 200
            assert body["n_seen"] == 0
            assert body["frozen"] is False

            status, body = await client.request("GET", "/streams")
            assert status == 200
            assert [stream["name"] for stream in body["streams"]] == ["s1"]

            status, body = await client.request("DELETE", "/streams/s1")
            assert status == 200
            status, _ = await client.request("GET", "/streams/s1")
            assert status == 404

        _run(_with_service(scenario))

    def test_ingest_returns_fresh_events_and_cursor_pagination(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            values = [math.sin(i / 5.0) for i in range(150)]
            status, body = await client.request(
                "POST", "/streams/s1/observations", {"values": values}
            )
            assert status == 200
            assert body["n_seen"] == 150
            kinds = [event["kind"] for event in body["events"]]
            assert "warmup" in kinds  # window_size=120 < 150

            status, body = await client.request("GET", "/streams/s1/events?since=0")
            assert status == 200
            first_total = body["next"]
            assert len(body["events"]) == first_total >= 1

            status, body = await client.request(
                "GET", f"/streams/s1/events?since={first_total}"
            )
            assert body["events"] == []
            assert body["next"] == first_total

        _run(_with_service(scenario))

    def test_duplicate_stream_is_409(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/dup", {"config": CONFIG})
            status, body = await client.request("POST", "/streams/dup", {"config": CONFIG})
            assert status == 409
            assert body["error"]["code"] == "stream-exists"
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_healthz_and_metrics_shapes(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/m1", {"config": CONFIG})
            await client.request(
                "POST", "/streams/m1/observations", {"values": [0.1] * 130}
            )
            status, body = await client.request("GET", "/metrics")
            assert status == 200
            assert body["n_streams"] == 1
            assert body["total_observations"] == 130
            stream = body["streams"]["m1"]
            assert stream["n_observations"] == 130
            assert stream["event_counts"].get("warmup") == 1
            assert stream["event_latency_p50_ms"] is not None
            assert stream["event_latency_p99_ms"] >= stream["event_latency_p50_ms"]
            assert len(body["workers"]) == 2

        _run(_with_service(scenario))

    def test_latency_reservoir_keeps_the_newest_window(self):
        metrics = StreamMetrics()
        n = LATENCY_WINDOW + 1_000
        for index in range(n):
            metrics.record(1, [ScoreEvent(at=index, score=0.0)], float(index))
        newest = [float(index) for index in range(n - LATENCY_WINDOW, n)]
        assert list(metrics.latencies) == newest
        snapshot = metrics.snapshot()
        assert snapshot["event_latency_p50_ms"] == round(quantile(newest, 0.50) * 1e3, 3)
        assert snapshot["event_latency_p99_ms"] == round(quantile(newest, 0.99) * 1e3, 3)
        assert snapshot["n_events"] == n


# --------------------------------------------------------------------------- #
# malformed input -> typed 4xx, never a crash
# --------------------------------------------------------------------------- #


class TestMalformedInput:
    def test_bad_json_config_body(self):
        async def scenario(client, service):
            # raw request with a non-JSON body
            client._writer.write(
                b"POST /streams/bad HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
            )
            await client._writer.drain()
            status, body = await client._read_response()
            assert status == 400
            assert body["error"]["code"] == "bad-json"
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_config_rejected_by_registry_validation(self):
        async def scenario(client, service):
            status, body = await client.request(
                "POST", "/streams/bad", {"config": {"window_size": -5}}
            )
            assert status == 400
            assert body["error"]["code"] == "bad-config"
            assert "window_size" in body["error"]["message"]

            status, body = await client.request(
                "POST", "/streams/bad", {"detector": "no-such-detector"}
            )
            assert status == 400
            assert body["error"]["code"] == "bad-config"

            # wrongly typed values, and values the retired fields never had
            # (the retired k-NN modes were not bit-identical to today's k-NN)
            for detector, config in [
                ("class", {"score_threshold": {}}),
                ("class", {"significance_level": "x"}),
                ("class", {"sample_size": "x"}),
                ("class", {"cross_val_implementation": "bogus"}),
                ("class", {"cross_val_implementation": {}}),
                ("class", {"knn_mode": "fft"}),
                ("class", {"knn_mode": "recompute"}),
                ("clasp", {"knn_backend": "bruteforce"}),
                ("multivariate-class", {"min_votes": "x"}),
                ("page-hinkley", {"threshold": {}}),
            ]:
                status, body = await client.request(
                    "POST", "/streams/bad", {"detector": detector, "config": config}
                )
                assert status == 400, (detector, config, body)
                assert body["error"]["code"] == "bad-config"
                (field,) = config
                if field in ("knn_mode", "knn_backend"):
                    assert f"field {field!r} must be one of" in body["error"]["message"]
            await _assert_alive(client)

        _run(_with_service(scenario))

    @pytest.mark.parametrize(
        "field, old", [("cross_val_implementation", "naive"), ("knn_mode", "streaming")]
    )
    def test_spec_with_a_retired_field_is_accepted(self, field, old):
        # specs written while the field existed still create their stream
        async def scenario(client, service):
            config = {**CONFIG, field: old}
            status, body = await client.request("POST", "/streams/old", {"config": config})
            assert status == 201
            status, body = await client.request(
                "POST", "/streams/old/observations", {"values": [0.1] * 50}
            )
            assert status == 200
            assert body["n_seen"] == 50

        _run(_with_service(scenario))

    def test_unknown_config_field_is_rejected(self):
        async def scenario(client, service):
            status, body = await client.request(
                "POST", "/streams/bad", {"config": {"window_sizzle": 100}}
            )
            assert status == 400
            assert body["error"]["code"] == "bad-config"

        _run(_with_service(scenario))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_observations_are_422(self, bad):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1, bad, 0.3]}
            )
            assert status == 422
            assert body["error"]["code"] == "non-finite-observations"
            assert body["error"]["detail"]["first_bad_index"] == 1
            # the detector saw nothing
            status, info = await client.request("GET", "/streams/s1")
            assert info["n_seen"] == 0
            await _assert_alive(client)
            status, _ = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1, 0.2]}
            )
            assert status == 200

        _run(_with_service(scenario))

    def test_non_numeric_observations_are_422(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request(
                "POST", "/streams/s1/observations", {"values": ["a", "b"]}
            )
            assert status == 422
            assert body["error"]["code"] == "bad-observations"
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_unknown_stream_is_404(self):
        async def scenario(client, service):
            for method, path in [
                ("POST", "/streams/ghost/observations"),
                ("GET", "/streams/ghost/events"),
                ("POST", "/streams/ghost/freeze"),
                ("DELETE", "/streams/ghost"),
            ]:
                status, body = await client.request(
                    method, path, {"values": [1.0]} if method == "POST" else None
                )
                assert status == 404, path
                assert body["error"]["code"] == "unknown-stream"
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_oversized_batch_is_413(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.0] * 201}
            )
            assert status == 413
            assert body["error"]["code"] == "oversized-batch"
            assert body["error"]["detail"]["max_batch"] == 200
            status, info = await client.request("GET", "/streams/s1")
            assert info["n_seen"] == 0
            await _assert_alive(client)

        _run(_with_service(scenario, max_batch=200))

    def test_bad_stream_name_is_400(self):
        async def scenario(client, service):
            status, body = await client.request("POST", "/streams/bad!name", {})
            assert status == 400
            assert body["error"]["code"] == "bad-stream-name"

        _run(_with_service(scenario))

    def test_unknown_route_and_method(self):
        async def scenario(client, service):
            status, body = await client.request("GET", "/nope")
            assert status == 404
            assert body["error"]["code"] == "unknown-route"
            status, body = await client.request("DELETE", "/healthz")
            assert status == 405
            assert body["error"]["code"] == "method-not-allowed"
            assert body["error"]["detail"]["allowed"] == ["GET"]

        _run(_with_service(scenario))

    def test_missing_values_key_is_400(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request(
                "POST", "/streams/s1/observations", {"observations": [1.0]}
            )
            assert status == 400
            assert body["error"]["code"] == "bad-request"

        _run(_with_service(scenario))


# --------------------------------------------------------------------------- #
# freeze / resume error paths
# --------------------------------------------------------------------------- #


class TestFreezeResume:
    def test_frozen_stream_rejects_observations_then_resumes(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            await client.request("POST", "/streams/s1/observations", {"values": [0.1] * 50})
            status, body = await client.request("POST", "/streams/s1/freeze")
            assert status == 200
            assert body["frozen"] is True

            status, body = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1]}
            )
            assert status == 409
            assert body["error"]["code"] == "stream-frozen"

            status, body = await client.request("POST", "/streams/s1/freeze")
            assert status == 409  # double freeze

            status, body = await client.request("POST", "/streams/s1/resume")
            assert status == 200
            assert body["n_seen"] == 50
            status, _ = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1]}
            )
            assert status == 200

        _run(_with_service(scenario))

    def test_resume_without_freeze_is_409(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request("POST", "/streams/s1/resume")
            assert status == 409
            assert body["error"]["code"] == "not-frozen"

        _run(_with_service(scenario))

    def test_rebalance_validates_target_shard(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            status, body = await client.request("POST", "/streams/s1/rebalance", {"shard": 99})
            assert status == 400
            status, body = await client.request("POST", "/streams/s1/rebalance", {})
            assert status == 400
            status, info = await client.request("GET", "/streams/s1")
            status, body = await client.request(
                "POST", "/streams/s1/rebalance", {"shard": info["shard"]}
            )
            assert status == 409
            assert body["error"]["code"] == "same-shard"

        _run(_with_service(scenario))


# --------------------------------------------------------------------------- #
# WebSocket error containment
# --------------------------------------------------------------------------- #


class TestWebSocketErrors:
    def test_ws_upgrade_on_unknown_stream_is_404(self):
        async def scenario(client, service):
            from repro.service.protocol import ProtocolError

            with pytest.raises(ProtocolError, match="unknown-stream"):
                await client.open_websocket("/streams/ghost/ws")
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_ws_bad_frames_get_typed_errors_and_session_survives(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            session = await client.open_websocket("/streams/s1/ws")

            await session.send_json({"values": [1.0, float("nan")]})
            message = await session.recv_json()
            assert message["kind"] == "error"
            assert message["code"] == "non-finite-observations"

            await session.send_json({"wrong": "shape"})
            message = await session.recv_json()
            assert message["kind"] == "error"
            assert message["code"] == "bad-request"

            # the session still ingests fine after both errors
            await session.send_json({"values": [0.5, 0.6]})
            message = await session.recv_json()
            assert message["kind"] == "ack"
            assert message["n_seen"] == 2

            await session.close()
            await _assert_alive(client)

        _run(_with_service(scenario))

    def test_ws_replays_history_and_pushes_live_events(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1] * 130}
            )
            session = await client.open_websocket("/streams/s1/ws?since=0")
            replayed = await session.recv_json()
            assert replayed["kind"] == "warmup"  # history replay

            # a live event pushed by a *different* connection reaches the socket
            await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1] * 10}
            )
            await session.send_json({"values": [0.2]})
            message = await session.recv_json()
            assert message["kind"] in ("ack", "score", "change_point")
            await session.close()

        _run(_with_service(scenario))


# --------------------------------------------------------------------------- #
# client retry policy + typed 5xx surfacing
# --------------------------------------------------------------------------- #


class TestClientRetriesAndTypedUnavailable:
    def test_503_surfaces_as_typed_error_with_parsed_retry_after(self):
        """A 5xx never comes back as a bare ``(status, body)`` tuple: the
        client raises :class:`ServiceUnavailableError` carrying the parsed
        body and the ``Retry-After`` header."""
        from repro.service import RetryPolicy, ServiceUnavailableError

        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            service.routes.draining = True  # every ingest now answers 503
            impatient = await ServiceClient(
                "127.0.0.1", service.port, retry=RetryPolicy(retries=0)
            ).connect()
            try:
                with pytest.raises(ServiceUnavailableError) as caught:
                    await impatient.request(
                        "POST", "/streams/s1/observations", {"values": [0.1]}
                    )
            finally:
                await impatient.close()
            error = caught.value
            assert error.status == 503
            assert error.code == "shutting-down"
            assert error.retry_after == 1.0  # parsed from the Retry-After header
            assert error.body["error"]["code"] == "shutting-down"
            assert impatient.last_headers["retry-after"] == "1"
            service.routes.draining = False
            status, _ = await client.request(
                "POST", "/streams/s1/observations", {"values": [0.1]}
            )
            assert status == 200  # the service itself was never unhealthy

        _run(_with_service(scenario))

    def test_retries_ride_out_a_transient_503(self):
        from repro.service import RetryPolicy

        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            service.routes.draining = True

            async def recover():
                await asyncio.sleep(0.1)
                service.routes.draining = False

            recovery = asyncio.create_task(recover())
            patient = await ServiceClient(
                "127.0.0.1", service.port,
                retry=RetryPolicy(retries=5, backoff=0.05, jitter=0.0),
            ).connect()
            try:
                status, body = await patient.request(
                    "POST", "/streams/s1/observations", {"values": [0.1]}
                )
                assert status == 200
                assert patient.n_retries >= 1
            finally:
                await recovery
                await patient.close()

        _run(_with_service(scenario))

    def test_dropped_keep_alive_connection_is_retried_transparently(self):
        async def scenario(client, service):
            await client.request("POST", "/streams/s1", {"config": CONFIG})
            # simulate the server (or a proxy) dropping the idle keep-alive
            # socket between requests: the client reconnects and retries
            client._writer.close()
            status, body = await client.request("GET", "/streams/s1")
            assert status == 200
            assert body["name"] == "s1"

        _run(_with_service(scenario))

    def test_retry_policy_validation_and_backoff_math(self):
        from repro.service import RetryPolicy
        from repro.utils.exceptions import ConfigurationError

        for bad in (
            dict(retries=-1),
            dict(backoff=-0.1),
            dict(jitter=1.5),
            dict(connect_timeout=0),
            dict(read_timeout=-2),
        ):
            with pytest.raises(ConfigurationError):
                RetryPolicy(**bad).validate()

        policy = RetryPolicy(backoff=0.1, max_backoff=0.4, jitter=0.0)
        assert policy.delay(0, retry_after=None) == pytest.approx(0.1)
        assert policy.delay(1, retry_after=None) == pytest.approx(0.2)
        assert policy.delay(5, retry_after=None) == pytest.approx(0.4)  # capped
        # a server-provided Retry-After floors the computed delay
        assert policy.delay(0, retry_after=0.3) == pytest.approx(0.3)
        jittered = RetryPolicy(backoff=0.1, jitter=0.2).delay(0, retry_after=None)
        assert 0.1 <= jittered <= 0.1 * 1.2 + 1e-9
