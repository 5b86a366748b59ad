"""A minimal asyncio client for the serving frontend.

Used by the network soak test, the workload engine's HTTP transport, and
``examples/http_client.py``.  It speaks exactly the subset of HTTP/1.1 the
server does — ``Content-Length``-framed JSON exchanges and connection-close
server-sent-event streams — and exposes the disconnect path explicitly:
:meth:`SSEStream.abort` drops the TCP connection mid-stream, which the
server must translate into a request cancellation.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = ["HttpResponse", "SSEStream", "ServerClient"]

_MAX_LINE = 1 << 20


@dataclass
class HttpResponse:
    """One complete (non-streaming) HTTP response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        return json.loads(self.body)


async def _read_head(reader: asyncio.StreamReader) -> tuple[int, dict[str, str]]:
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
    status = int(status_line.split(" ", 2)[1])
    headers: dict[str, str] = {}
    for line in header_lines:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return status, headers


def _request_bytes(method: str, path: str, host: str, body: bytes | None) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


class SSEStream:
    """An open server-sent-events response.

    Iterate :meth:`events` for decoded JSON payloads (the ``[DONE]`` sentinel
    is consumed, not yielded).  :meth:`abort` closes the socket immediately —
    the *client disconnect* the server detects and turns into a cancel.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        status: int,
        headers: dict[str, str],
    ):
        self.reader = reader
        self.writer = writer
        self.status = status
        self.headers = headers
        self.done = False
        """True once the ``[DONE]`` sentinel arrived (a complete stream)."""

    @property
    def request_id(self) -> int | None:
        raw = self.headers.get("x-request-id")
        return int(raw) if raw is not None else None

    async def events(self):
        """Yield each event's decoded JSON payload until ``[DONE]`` or EOF."""
        try:
            while True:
                try:
                    line = await self.reader.readline()
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if not line:
                    return  # EOF without [DONE]: an aborted/cancelled stream
                line = line.strip()
                if not line.startswith(b"data: "):
                    continue
                payload = line[len(b"data: "):]
                if payload == b"[DONE]":
                    self.done = True
                    return
                yield json.loads(payload)
        finally:
            if self.done:
                await self.close()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def abort(self) -> None:
        """Drop the connection without reading the rest of the stream."""
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class ServerClient:
    """One-connection-per-call client for :class:`~repro.server.AlayaDBServer`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port, limit=_MAX_LINE)

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> HttpResponse:
        """One complete JSON round trip (non-streaming endpoints)."""
        reader, writer = await self._connect()
        try:
            body = None if payload is None else json.dumps(payload).encode()
            writer.write(_request_bytes(method, path, self.host, body))
            await writer.drain()
            status, headers = await _read_head(reader)
            length = int(headers.get("content-length", 0))
            response_body = await reader.readexactly(length) if length else b""
            return HttpResponse(status=status, headers=headers, body=response_body)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def completion(self, **fields) -> HttpResponse:
        """Non-streaming ``POST /v1/completions``."""
        return await self.request("POST", "/v1/completions", dict(fields, stream=False))

    async def stream_completion(self, **fields) -> SSEStream:
        """Streaming ``POST /v1/completions``; returns the open stream.

        The caller should check ``stream.status`` — a refusal (400/429/503)
        arrives as a plain JSON response on the same connection, which
        :meth:`collect_stream` reads into the single returned event.
        """
        reader, writer = await self._connect()
        body = json.dumps(dict(fields, stream=True)).encode()
        writer.write(_request_bytes("POST", "/v1/completions", self.host, body))
        await writer.drain()
        status, headers = await _read_head(reader)
        return SSEStream(reader, writer, status, headers)

    async def collect_stream(self, **fields) -> tuple[SSEStream, list[dict]]:
        """Open a stream and read it to completion; returns (stream, events)."""
        stream = await self.stream_completion(**fields)
        if stream.status != 200:
            length = int(stream.headers.get("content-length", 0))
            error_body = await stream.reader.readexactly(length) if length else b""
            await stream.close()
            return stream, [json.loads(error_body)] if error_body else []
        events = [event async for event in stream.events()]
        return stream, events

    async def cancel(self, request_id: int) -> HttpResponse:
        return await self.request("DELETE", f"/v1/requests/{request_id}")

    async def stats(self) -> dict:
        return (await self.request("GET", "/v1/stats")).json()

    async def health(self) -> dict:
        return (await self.request("GET", "/v1/health")).json()
