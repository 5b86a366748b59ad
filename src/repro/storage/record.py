"""The context database's one on-disk record format: raw, checksummed arrays.

Every object the store persists — a KV snapshot, a context's index blob, a
standalone index file — is one record::

    prefix   magic b"ALAYAREC" | version u32 | header length u32 | record length u64
    header   JSON: {"kind", "meta", "arrays": [{"name", "dtype", "shape", "offset"}]}
    padding  to a 64-byte boundary
    data     each array's raw bytes at a 64-byte-aligned ``offset`` from here
    crc32    u32 over everything before it

All integers are little-endian and every ``dtype`` names its byte order
(``"<f4"``), so a record reads the same on any host.  There is no
compression: float32 KV does not compress, and ``zlib`` over it cost more
than everything else a persist or reload does.

:func:`unpack` checks the magic, version, kind, length, CRC and array bounds
before it trusts a byte, and returns read-only ``np.frombuffer`` views over
the blob it was given — loading copies nothing.  Every failure is a
:class:`~repro.errors.ContextLoadError` naming the source.  A version-1
record (a zip-based ``.npz``) is recognised by its magic and rejected by
version: no reader for it is kept.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Mapping

import numpy as np

from ..errors import ContextLoadError

__all__ = ["MAGIC", "pack", "unpack"]

MAGIC = b"ALAYAREC"
_PREFIX = struct.Struct("<8sIIQ")
_CRC = struct.Struct("<I")
_ALIGN = 64
_NPZ_MAGIC = b"PK\x03\x04"


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def pack(kind: str, version: int, meta: dict, arrays: Mapping[str, np.ndarray]) -> bytes:
    """Encode ``arrays`` plus the JSON-able ``meta`` as one record."""
    layout = []
    payload: list[tuple[int, np.ndarray]] = []
    end = 0
    for name, array in arrays.items():
        array = np.asarray(array)
        if not array.flags.c_contiguous:
            array = array.copy(order="C")
        if array.dtype.hasobject:
            raise TypeError(f"array {name!r} has dtype {array.dtype}; records hold raw numbers only")
        offset = _aligned(end)
        layout.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape), "offset": offset}
        )
        payload.append((offset, array.reshape(-1).view(np.uint8)))
        end = offset + array.nbytes
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": layout}, separators=(",", ":")
    ).encode("utf-8")
    data_start = _aligned(_PREFIX.size + len(header))
    total = data_start + end + _CRC.size

    parts = [
        _PREFIX.pack(MAGIC, version, len(header), total),
        header,
        bytes(data_start - _PREFIX.size - len(header)),
    ]
    position = 0
    for offset, raw in payload:
        parts.append(bytes(offset - position))
        parts.append(raw)
        position = offset + raw.nbytes
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def unpack(
    data: bytes, source: str, kind: str, version: int
) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a :func:`pack` record into ``(meta, arrays)``.

    The arrays are read-only views over ``data``; they keep it alive.
    """
    if data[: len(_NPZ_MAGIC)] == _NPZ_MAGIC:
        raise ContextLoadError(
            f"{source} is a format-version-1 .npz record; this build reads version {version}"
        )
    if len(data) < _PREFIX.size + _CRC.size:
        raise ContextLoadError(f"{source} is truncated ({len(data)} bytes)")
    magic, found_version, header_length, total = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise ContextLoadError(f"{source} is not a context-database record (bad magic)")
    if found_version != version:
        raise ContextLoadError(
            f"{source}: format version {found_version} is not supported "
            f"(this build reads version {version})"
        )
    if total != len(data):
        raise ContextLoadError(
            f"{source} is truncated or overlong: {len(data)} bytes, the record says {total}"
        )
    body_end = total - _CRC.size
    (stored_crc,) = _CRC.unpack_from(data, body_end)
    if zlib.crc32(memoryview(data)[:body_end]) != stored_crc:
        raise ContextLoadError(f"{source} is corrupted (CRC mismatch)")

    header_end = _PREFIX.size + header_length
    data_start = _aligned(header_end)
    try:
        if data_start > body_end:
            raise ValueError(f"header of {header_length} bytes overruns the record")
        header = json.loads(bytes(data[_PREFIX.size : header_end]).decode("utf-8"))
        if header["kind"] != kind:
            raise ContextLoadError(f"{source} holds a {header['kind']!r} record, not {kind!r}")
        arrays: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(extent) for extent in entry["shape"])
            offset = data_start + int(entry["offset"])
            if dtype.hasobject or any(extent < 0 for extent in shape):
                raise ValueError(f"array {entry['name']!r}: bad dtype or shape")
            count = math.prod(shape)
            if offset < data_start or offset + count * dtype.itemsize > body_end:
                raise ValueError(f"array {entry['name']!r} lies outside the record")
            array = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
            array.flags.writeable = False
            arrays[entry["name"]] = array
        return header["meta"], arrays
    except ContextLoadError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ContextLoadError(f"{source} has a malformed header: {exc!r}") from exc
