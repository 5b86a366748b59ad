"""Hostile input to ``read_request``: whatever bytes arrive, in whatever
pieces, parsing ends in a request, a clean ``None`` at EOF, an
:class:`HttpError` (answered with a 4xx and a close), or
:class:`asyncio.IncompleteReadError` (a body cut short; the connection
handler closes it).  Nothing else may escape into the connection handler.
"""

from __future__ import annotations

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.server import AlayaDBServer
from repro.server.http import MAX_HEADER_BYTES, HttpError, HttpRequest, read_request

MAX_BODY = 1024
STREAM_LIMIT = 2**16  # asyncio's default, which the server's listener uses


def _request(method: str, target: str, headers: dict[str, str] | None = None, body: bytes = b"") -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: t", *(f"{k}: {v}" for k, v in (headers or {}).items())]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


VALID = [
    _request("GET", "/v1/stats"),
    _request("POST", "/v1/completions", {"Content-Type": "application/json"}, b'{"prompt": "hi", "max_new_tokens": 1}'),
    _request("DELETE", "/v1/requests/3?reason=client&x=1", {"Connection": "close"}),
    _request("GET", "/v1/requests/%E2%9C%93/status?q=%ff"),
]


async def _parse_all(chunks: list[bytes], max_body_bytes: int = MAX_BODY):
    """Feed ``chunks`` one event-loop turn apart (a client's split writes)
    and parse requests until EOF or the first refusal.  Returns the parsed
    requests and the refusal (``None`` after a clean EOF)."""
    reader = asyncio.StreamReader(limit=STREAM_LIMIT)

    async def feed():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.create_task(feed())
    parsed = []
    refusal = None
    try:
        while (request := await read_request(reader, max_body_bytes)) is not None:
            parsed.append(request)
    except (HttpError, asyncio.IncompleteReadError) as exc:
        refusal = exc
    await feeder
    return parsed, refusal


def parse_all(chunks: list[bytes], max_body_bytes: int = MAX_BODY):
    return asyncio.run(_parse_all(chunks, max_body_bytes))


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({c % (len(data) + 1) for c in cuts})
    return [data[a:b] for a, b in zip([0, *points], [*points, len(data)])]


@st.composite
def mutated(draw) -> bytes:
    """A valid request (or two, pipelined) after a few byte-level edits."""
    data = bytearray(b"".join(draw(st.lists(st.sampled_from(VALID), min_size=1, max_size=2))))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "insert", "delete", "duplicate"]))
        if edit == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif edit == "duplicate":
            span = bytes(data[at : at + draw(st.integers(1, 16))])
            data[at:at] = span
    return bytes(data)


@settings(deadline=None, max_examples=300)
@given(data=mutated(), cuts=st.lists(st.integers(0, 4096), max_size=6))
@example(data=b"GET //[x HTTP/1.1\r\n\r\n", cuts=[])
@example(data=b"GET http://[zz]/ HTTP/1.1\r\n\r\n", cuts=[])
@example(data=b"POST /v1/completions HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", cuts=[])
def test_mutated_requests_end_in_a_request_or_a_refusal(data, cuts):
    parsed, refusal = parse_all(_split(data, cuts))
    if isinstance(refusal, HttpError):
        assert 400 <= refusal.status < 500
    assert all(isinstance(request, HttpRequest) for request in parsed)


def test_unparseable_target_is_refused():
    """Regression: ``urlsplit`` raised ``ValueError`` on an unbalanced or
    invalid bracketed host, which escaped the connection handler."""
    for target in ("//[x", "http://[zz]/", "//[::1"):
        parsed, refusal = parse_all([f"GET {target} HTTP/1.1\r\n\r\n".encode()])
        assert parsed == []
        assert isinstance(refusal, HttpError)
        assert (refusal.status, refusal.code) == (400, "malformed_request")


@settings(deadline=None, max_examples=100)
@given(
    requests=st.lists(st.sampled_from(VALID), min_size=1, max_size=4),
    cuts=st.lists(st.integers(0, 4096), max_size=12),
)
def test_split_and_pipelined_valid_requests_parse_identically(requests, cuts):
    """However a pipelined stream is cut into reads, every request in it is
    parsed exactly as if it had arrived alone and whole."""
    whole = [parse_all([raw])[0][0] for raw in requests]
    parsed, refusal = parse_all(_split(b"".join(requests), cuts))
    assert refusal is None
    assert parsed == whole


@settings(deadline=None, max_examples=30)
@given(
    size=st.one_of(
        st.integers(MAX_HEADER_BYTES - 64, MAX_HEADER_BYTES + 64),
        st.integers(STREAM_LIMIT - 64, STREAM_LIMIT + 64),
        st.integers(STREAM_LIMIT, 4 * STREAM_LIMIT),
    ),
    cuts=st.lists(st.integers(0, 4 * STREAM_LIMIT), max_size=4),
)
def test_oversized_headers_are_refused(size, cuts):
    raw = _request("GET", "/v1/stats", {"X-Pad": "a" * size})
    parsed, refusal = parse_all(_split(raw, cuts))
    if len(raw) > MAX_HEADER_BYTES:
        assert parsed == []
        assert isinstance(refusal, HttpError)
        assert (refusal.status, refusal.code) == (400, "headers_too_large")
    else:
        assert len(parsed) == 1 and refusal is None


@settings(deadline=None, max_examples=100)
@given(
    path=st.binary(min_size=1, max_size=64).filter(
        lambda b: not any(c in b for c in b" \r\n?#")
    ),
    body=st.binary(max_size=256),
)
def test_invalid_utf8_in_path_and_body(path, body):
    """Non-UTF-8 bytes in the target (raw or percent-encoded) and in the body
    parse; the body arrives byte for byte, and JSON decoding is the
    handler's 400, not the parser's crash."""
    escaped = "".join(f"%{b:02X}" for b in path)
    for target in (b"/" + path, b"/" + escaped.encode()):
        raw = b"POST " + target + b" HTTP/1.1\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        parsed, refusal = parse_all([raw])
        if refusal is not None:
            assert isinstance(refusal, HttpError) and refusal.status == 400
            continue
        (request,) = parsed
        assert request.body == body
        try:
            request.json()
        except HttpError as exc:
            assert exc.status == 400


def test_server_keeps_serving_after_garbage_connections():
    """Over the wire: a burst of garbage connections each get a 4xx or a
    close, and a valid request on a fresh connection is then served 200."""
    garbage = [
        b"\x00\xff\xfe garbage \r\n\r\n",
        b"GET //[x HTTP/1.1\r\n\r\n",
        b"GET / SPDY/3\r\n\r\n",
        b"POST /v1/completions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"prompt\"",
        b"POST /v1/completions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        _request("GET", "/v1/stats", {"X-Pad": "a" * (MAX_HEADER_BYTES + 1)}),
        b"GET /v1/stats HTTP/1.1\r\nno colon here\r\n\r\n",
        b"\r\n\r\n",
        b"half a request line",
    ]

    async def scenario():
        service = InferenceService(TransformerModel(ModelConfig.tiny()), AlayaDBConfig(http_port=0))
        server = AlayaDBServer(service)
        await server.start()
        answers = []
        for raw in garbage:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(raw)
            writer.write_eof()
            await writer.drain()
            try:
                answers.append(await asyncio.wait_for(reader.read(), timeout=10))
            except ConnectionResetError:  # closed with our unread bytes pending
                answers.append(b"")
            writer.close()
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(_request("GET", "/v1/stats", {"Connection": "close"}))
        await writer.drain()
        valid = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        client_errors = server.stats.client_errors
        await server.shutdown()
        return answers, valid, client_errors

    answers, valid, client_errors = asyncio.run(scenario())
    for answer in answers:
        assert answer == b"" or answer.startswith(b"HTTP/1.1 4")
    assert sum(answer.startswith(b"HTTP/1.1 400 ") for answer in answers) >= 6
    assert client_errors >= 6
    assert valid.startswith(b"HTTP/1.1 200 ")
