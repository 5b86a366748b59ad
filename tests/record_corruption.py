"""Damaged context-database records (test helper).

Each corruption takes a valid record (``repro.storage.record.pack`` output)
and returns a blob a reader must refuse.  The layout is decoded here from
the documented format — prefix ``<8sIIQ`` (magic, version, header length,
record length), JSON header, data at a 64-byte boundary, CRC32 trailer — and
not through the codec, so the helper checks the format as written down."""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np

PREFIX = struct.Struct("<8sIIQ")


def _data_start(header_length: int) -> int:
    return -(-(PREFIX.size + header_length) // 64) * 64


def split(blob: bytes) -> tuple[dict, bytes]:
    """``(header, data)`` of a record: the parsed JSON header and the data section."""
    _, _, header_length, _ = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size : PREFIX.size + header_length])
    return header, blob[_data_start(header_length) : -4]


def frame(header: dict, data: bytes, version: int) -> bytes:
    """Encode ``header`` and ``data`` as a well-formed record with a valid CRC."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    start = _data_start(len(encoded))
    total = start + len(data) + 4
    body = PREFIX.pack(b"ALAYAREC", version, len(encoded), total) + encoded
    body += bytes(start - len(body)) + data
    return body + struct.pack("<I", zlib.crc32(body))


def truncated_in_header(blob: bytes) -> bytes:
    _, _, header_length, _ = PREFIX.unpack_from(blob)
    return blob[: PREFIX.size + header_length // 2]


def truncated_in_body(blob: bytes) -> bytes:
    _, _, header_length, _ = PREFIX.unpack_from(blob)
    start = _data_start(header_length)
    return blob[: start + (len(blob) - start) // 2]


def flipped_payload_byte(blob: bytes) -> bytes:
    _, _, header_length, _ = PREFIX.unpack_from(blob)
    position = _data_start(header_length) + 1
    return blob[:position] + bytes([blob[position] ^ 0xFF]) + blob[position + 1 :]


def offset_past_end(blob: bytes) -> bytes:
    """A CRC-valid record whose first array starts beyond the end of the data."""
    version = PREFIX.unpack_from(blob)[1]
    header, data = split(blob)
    header["arrays"][0]["offset"] = len(data) + 64
    return frame(header, data, version)


def version_one_npz(blob: bytes) -> bytes:
    """What a version-1 store wrote: a zlib-compressed ``.npz`` archive."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, tokens=np.arange(4, dtype=np.int64))
    return buffer.getvalue()


CORRUPTIONS = {
    "truncated_in_header": truncated_in_header,
    "truncated_in_body": truncated_in_body,
    "flipped_payload_byte": flipped_payload_byte,
    "offset_past_end": offset_past_end,
    "version_one_npz": version_one_npz,
}
