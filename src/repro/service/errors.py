"""Typed service errors: every client failure becomes a structured 4xx body.

The service's error contract (pinned by ``tests/test_service_http.py``): a
malformed request — bad JSON, a config the registry rejects, non-finite
observation payloads, an unknown stream name, an oversized batch — never
crashes a shard worker or the connection handler.  It is reported as a
:class:`ServiceError` carrying an HTTP status plus a machine-readable body::

    {"error": {"code": "non-finite-observations", "message": "...", ...}}

``code`` is a stable kebab-case identifier clients can dispatch on;
``message`` is human-readable; optional ``detail`` carries structured
context (e.g. the offending field).

Example
-------
>>> error = ServiceError(404, "unknown-stream", "no stream named 'x'")
>>> error.body()["error"]["code"]
'unknown-stream'
"""

from __future__ import annotations

from typing import Any

#: HTTP reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    426: "Upgrade Required",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceError(Exception):
    """A client-visible service failure with an HTTP status and typed body.

    Parameters
    ----------
    status:
        HTTP status code of the response (4xx for client errors).
    code:
        Stable kebab-case error identifier (``"bad-json"``,
        ``"unknown-stream"``, ``"non-finite-observations"``, ...).
    message:
        Human-readable one-line description.
    detail:
        Optional JSON-safe structured context attached to the body.
    retry_after:
        Optional seconds after which a retry is reasonable; rendered as a
        ``Retry-After`` header (used by the 503 shedding/crash responses and
        honoured by :class:`~repro.service.client.ServiceClient`).

    Raises
    ------
    Nothing itself — it *is* the exception the routes raise; the server
    converts it into the HTTP response.

    Example
    -------
    >>> raise ServiceError(413, "oversized-batch", "batch exceeds limit")
    Traceback (most recent call last):
    ...
    repro.service.errors.ServiceError: [413 oversized-batch] batch exceeds limit
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        detail: Any = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)
        self.detail = detail
        self.retry_after = retry_after

    def body(self) -> dict[str, Any]:
        """The JSON-safe response body: ``{"error": {...}}``.

        Returns
        -------
        dict
            Mapping with a single ``"error"`` entry holding ``code``,
            ``message`` and — when provided — ``detail``.
        """
        payload: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail is not None:
            payload["detail"] = self.detail
        if self.retry_after is not None:
            # also in the body so WebSocket error frames (no headers) carry it
            payload["retry_after"] = self.retry_after
        return {"error": payload}


def bad_json(context: str, error: Exception) -> ServiceError:
    """A 400 for a body that is not valid JSON.

    Parameters
    ----------
    context:
        What was being parsed (shows up in the message).
    error:
        The underlying ``json.JSONDecodeError`` (stringified into detail).

    Returns
    -------
    ServiceError
        Status 400 with code ``"bad-json"``.

    Example
    -------
    >>> bad_json("stream config", ValueError("boom")).status
    400
    """
    return ServiceError(400, "bad-json", f"{context} is not valid JSON", detail=str(error))


def unknown_stream(name: str) -> ServiceError:
    """A 404 for a stream name the registry does not know.

    Parameters
    ----------
    name:
        The requested stream name.

    Returns
    -------
    ServiceError
        Status 404 with code ``"unknown-stream"``.

    Example
    -------
    >>> unknown_stream("nope").body()["error"]["code"]
    'unknown-stream'
    """
    return ServiceError(404, "unknown-stream", f"no stream named {name!r}")


def unrecoverable_stream(stream) -> ServiceError:
    """A 409 for a stream whose crash recovery failed (not retryable).

    Parameters
    ----------
    stream:
        The :class:`~repro.service.streams.StreamState`; its ``failed``
        reason becomes the error's detail.

    Returns
    -------
    ServiceError
        Status 409 with code ``"stream-unrecoverable"``: a retry cannot
        succeed, so clients must not retry it (unlike a 503).  ``DELETE``
        the stream and create it anew.
    """
    return ServiceError(
        409,
        "stream-unrecoverable",
        f"stream {stream.name!r} could not be recovered after a worker crash; delete it",
        detail={"reason": stream.failed},
    )
