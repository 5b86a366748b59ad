"""Request framing in ``read_request``: a body is framed by exactly one
plain-digits ``Content-Length`` and nothing else.

Any other reading of the framing headers lets the bytes after a request be
taken for a second request (request smuggling behind a proxy that frames the
body differently), so every ambiguous case is a 400 and the connection
closes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.server import AlayaDBServer
from repro.server.http import HttpError, read_request


def _parse(raw: bytes, max_body_bytes: int = 1024):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes)

    return asyncio.run(scenario())


def _refused(raw: bytes) -> HttpError:
    with pytest.raises(HttpError) as caught:
        _parse(raw)
    assert caught.value.status == 400
    assert caught.value.code == "malformed_request"
    return caught.value


def test_content_length_frames_the_body():
    request = _parse(b"POST /v1/completions HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET")
    assert request.body == b"abc"


def test_transfer_encoding_is_refused():
    _refused(
        b"POST /v1/completions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 0\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n"
    )


@pytest.mark.parametrize("value", ["1_0", "+3", "-1", "3 3", "0x3"])
def test_content_length_must_be_ascii_digits(value):
    raw = b"POST /v1/completions HTTP/1.1\r\nContent-Length: " + value.encode() + b"\r\n\r\n0123456789"
    _refused(raw)


def test_conflicting_content_lengths_are_refused():
    _refused(
        b"POST /v1/completions HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\n"
        b"ABCGET /v1/stats HTTP/1.1\r\n\r\n"
    )


def test_smuggled_request_is_never_served():
    """Over the wire: the bytes after a Transfer-Encoding request get one
    400 and a closed connection, not a second response."""

    async def scenario():
        service = InferenceService(TransformerModel(ModelConfig.tiny()), AlayaDBConfig(http_port=0))
        server = AlayaDBServer(service)
        await server.start()
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(
            b"POST /v1/completions HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Length: 0\r\n\r\nGET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        await writer.drain()
        answer = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        await server.shutdown()
        return answer

    answer = asyncio.run(scenario())
    assert answer.startswith(b"HTTP/1.1 400 ")
    assert answer.count(b"HTTP/1.1 ") == 1
