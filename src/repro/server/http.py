"""Minimal HTTP/1.1 primitives over :mod:`asyncio` streams.

The serving frontend deliberately speaks a small, dependency-free subset of
HTTP/1.1 — enough for JSON request/response endpoints, server-sent-event
streaming, and the error surface a production gateway needs (structured JSON
error bodies, 413 on oversized payloads, 429 with ``Retry-After``).  Parsing
is strict about the few things that matter (a request line, CRLF-terminated
headers, ``Content-Length``-framed bodies) and rejects everything else with
a clean :class:`HttpError` instead of a traceback.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "response_bytes",
    "json_response",
    "error_response",
    "sse_headers",
    "sse_event",
    "STATUS_REASONS",
]

STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_HEADER_BYTES = 16384
"""Request line + headers larger than this are refused (431-ish, sent as 400)."""


class HttpError(Exception):
    """A request the server refuses; carries everything needed to answer it.

    ``status``/``code``/``message`` become the structured JSON error body
    (``{"error": {"code": ..., "message": ...}}``); ``headers`` lets a raiser
    attach response headers (``Retry-After`` on a 429, ``Allow`` on a 405).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: dict[str, str] | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    """Header names lower-cased; last occurrence wins."""
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless the client asked to close."""
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict:
        """The body parsed as a JSON object; :class:`HttpError` 400 otherwise."""
        if not self.body:
            raise HttpError(400, "invalid_json", "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, "invalid_json", f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(
                400, "invalid_json", f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF (no bytes).

    Raises :class:`HttpError` for an unparseable request line or target,
    malformed framing (any ``Transfer-Encoding``, more than one
    ``Content-Length``, or one that is not plain ASCII digits), missing
    ``Content-Length`` on a body-bearing method, or a body beyond
    ``max_body_bytes`` (413 — the body is not read in that case, so the
    connection must close afterwards).  A body cut short by EOF raises
    :class:`asyncio.IncompleteReadError`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "malformed_request", "connection closed mid-headers")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "headers_too_large", f"headers exceed {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "headers_too_large", f"headers exceed {MAX_HEADER_BYTES} bytes")
    try:
        request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed_request", "unparseable request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "malformed_request", f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "malformed_request", f"malformed header line {line!r}")
        name = name.strip().lower()
        # the body must be framed one way only: a proxy that reads another
        # framing than ours would take the rest of the bytes for a new request
        if name == "content-length" and name in headers:
            raise HttpError(400, "malformed_request", "more than one Content-Length header")
        headers[name] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(400, "malformed_request", "Transfer-Encoding is not supported; send Content-Length")
    try:
        parts = urlsplit(target)
    except ValueError:  # e.g. an unbalanced or invalid bracketed host
        raise HttpError(400, "malformed_request", f"unparseable request target {target!r}")
    query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
    body = b""
    if "content-length" in headers:
        raw_length = headers["content-length"]
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, "malformed_request", f"Content-Length {raw_length!r} is not a decimal number")
        length = int(raw_length)
        if length > max_body_bytes:
            raise HttpError(
                413,
                "body_too_large",
                f"request body of {length} bytes exceeds the {max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length)
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, "length_required", f"{method} requests must send Content-Length")
    return HttpRequest(
        method=method.upper(),
        path=unquote(parts.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
    close: bool = False,
) -> bytes:
    """Serialize one complete (``Content-Length``-framed) response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int, payload: dict, headers: dict[str, str] | None = None, close: bool = False
) -> bytes:
    return response_bytes(
        status, (json.dumps(payload) + "\n").encode(), headers=headers, close=close
    )


def error_response(error: HttpError, close: bool = False) -> bytes:
    """The structured JSON error body every refusal shares."""
    return json_response(
        error.status,
        {"error": {"code": error.code, "message": error.message, "status": error.status}},
        headers=error.headers,
        close=close,
    )


def sse_headers(headers: dict[str, str] | None = None) -> bytes:
    """The header block opening a server-sent-events stream.

    The stream is framed by connection close (no ``Content-Length``), so the
    response always carries ``Connection: close``.
    """
    lines = [
        "HTTP/1.1 200 OK",
        "Content-Type: text/event-stream",
        "Cache-Control: no-cache",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def sse_event(data: dict | str) -> bytes:
    """One ``data:`` event frame."""
    text = data if isinstance(data, str) else json.dumps(data)
    return f"data: {text}\n\n".encode()
