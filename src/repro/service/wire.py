"""The binary grid wire format shared by the HTTP endpoint and the client.

JSON works for small grids, but a 1024² float64 grid rendered as nested
JSON lists is ~19 MB of text (and a giant intermediate string on both
sides).  The ``application/x-repro-grids`` body avoids that entirely:

.. code-block:: text

    magic   b"RPG1"                      (4 bytes)
    hlen    little-endian uint32          (4 bytes)
    header  UTF-8 JSON of hlen bytes      (request/response metadata +
                                           per-grid {"shape", "dtype"})
    grids   raw little-endian buffers, concatenated in header order

The header carries everything the JSON wire form does *except* the grids
(``benchmark``/``program``, ``size_env``, ``priority``, ``deadline_ms``,
``steps``, …) so the two content types are interchangeable; only the grid
payload changes representation.  The encoder pads the header with trailing
spaces so the first grid starts 8-byte aligned (still valid JSON, still
RPG1).  Encoders yield the raw array buffers as memoryviews: the client
uploads the prefix and each buffer as they are under one
``Content-Length``, and the server writes a reply the same way, so neither
side ever materialises the full body as one string or list.
:func:`iter_chunks` cuts the same pieces into bounded ``bytes`` chunks for
a chunked upload, which the server still accepts.

**End-to-end payload integrity**: every grid descriptor carries a
``sha256`` of its raw little-endian bytes, computed at encode time and
verified at decode time on *both* sides of the wire (server decoding an
upload, client decoding a download).  A flipped bit anywhere between the
two ``hashlib`` calls — a proxy mangling a body, a truncated buffer that
still happens to parse, injected corruption — surfaces as a structured
:class:`WireFormatError` instead of silently executing (or returning) a
corrupted grid.  The same framing backs durable-job checkpoints on disk
(:mod:`repro.service.jobs`), so storage corruption is caught by the same
checksums: a checkpoint takes its descriptors from :func:`describe_grids`,
signs them (with its metadata) under one root hash and frames them with
:func:`frame_prefix`, so no grid byte is hashed twice.  Decoding hashes
each grid in place, as a slice of the received buffer.  A writable payload
(the ``bytearray`` a body was received into) then yields each grid as a
*view* of that buffer when the view is aligned and native-endian; any
other payload (``bytes``, a misaligned or big-endian grid) costs one copy
into a writable array.  The digest a decode verified stays known for that
array object (:func:`verified_sha256`), so a durable job framing the
grids it was just sent hashes none of them again; a job records its
result file's digest the same way (:func:`remember_sha256`), and the
reply that serves that result reuses it.  The
``wire.payload_corrupt`` fault point (:mod:`repro.faults`) flips one byte
of the first grid *after* the checksums are computed, which is how tests
and chaos drills prove the detection path end to end.
"""

from __future__ import annotations

import hashlib
import json
import struct
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults as _faults
from ..telemetry import registry as _telemetry

MAGIC = b"RPG1"

_CHECKSUM_FAILURES_TOTAL = _telemetry.counter(
    "repro_wire_checksum_failures_total",
    "Grid payloads rejected at decode because a per-buffer sha256 "
    "did not match.",
)

#: Content type of the binary grid body (requests and responses).
CONTENT_TYPE_GRIDS = "application/x-repro-grids"
#: Content type of the JSON body (the TCP wire form, over HTTP).
CONTENT_TYPE_JSON = "application/json"

#: Default chunk size for chunked uploads / streamed downloads.
DEFAULT_CHUNK_BYTES = 256 * 1024


class WireFormatError(ValueError):
    """A binary grid payload did not parse."""


#: The sha256 each decoded grid was verified against (or a framer computed
#: for it), by ``id`` of the array object; an entry leaves when its array
#: is freed.
_VERIFIED: Dict[int, str] = {}


def remember_sha256(grid: np.ndarray, digest: str) -> None:
    """Record ``digest`` as the sha256 of exactly this array object's
    bytes, for :func:`verified_sha256` to return until it is freed."""
    _VERIFIED[id(grid)] = digest
    weakref.finalize(grid, _VERIFIED.pop, id(grid), None)


def verified_sha256(grid: np.ndarray) -> Optional[str]:
    """The sha256 this process verified (a decode) or computed and recorded
    (:func:`remember_sha256`) for exactly this array object, or ``None``.
    It describes the bytes as they were then: an array written since no
    longer matches it, and a receiver that checks fails closed."""
    return _VERIFIED.get(id(grid))


def describe_grids(
    grids: Sequence[np.ndarray], reuse_verified: bool = False,
) -> Tuple[List[Dict[str, object]], List[memoryview]]:
    """The header descriptors and raw buffers of ``grids``, hashed once.

    Each descriptor is ``{"shape", "dtype", "sha256"}``; each buffer is the
    grid's little-endian contiguous bytes, *not copied* when the array
    already is little-endian contiguous.  ``reuse_verified`` takes a
    grid's sha256 from :func:`verified_sha256` when this process already
    has it, instead of hashing the same bytes again.  A digest gone stale
    (the grid written since) fails the frame's check where it is read,
    never passes wrong bytes; callers ask for reuse where nothing writes
    the grid (a received submission, a frozen job result).
    A framer that signs the descriptors (durable-job checkpoints) calls
    this and :func:`frame_prefix` directly; :func:`encode_grid_payload` is
    the two composed.
    """
    descriptors: List[Dict[str, object]] = []
    buffers: List[memoryview] = []
    for grid in grids:
        known = verified_sha256(grid) if reuse_verified else None
        array = np.ascontiguousarray(grid)
        if array.dtype.byteorder == ">":  # normalise to little-endian
            array = array.astype(array.dtype.newbyteorder("<"))
        buffer = memoryview(array).cast("B")
        descriptors.append({
            "shape": list(array.shape),
            "dtype": array.dtype.str.lstrip("<=|"),
            "sha256": known or hashlib.sha256(buffer).hexdigest(),
        })
        buffers.append(buffer)
    if _faults.ARMED and buffers and _faults.should_fail("wire.payload_corrupt"):
        # Flip one byte of the first grid *after* its checksum was taken,
        # so the decoder's verification must catch it.
        corrupted = bytearray(buffers[0])
        corrupted[0] ^= 0xFF
        buffers[0] = memoryview(bytes(corrupted))
    return descriptors, buffers


def frame_prefix(meta: Dict[str, object],
                 descriptors: List[Dict[str, object]]) -> bytes:
    """``MAGIC + hlen + header`` for ``meta`` plus the grid descriptors,
    the header padded with spaces to a multiple of 8 bytes so the grids
    that follow start aligned."""
    header = dict(meta)
    header["grids"] = descriptors
    header_bytes = json.dumps(header).encode("utf-8")
    header_bytes += b" " * (-(8 + len(header_bytes)) % 8)
    return MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes


def encode_grid_payload(
    meta: Dict[str, object], grids: Sequence[np.ndarray],
    reuse_verified: bool = False,
) -> Tuple[bytes, List[memoryview]]:
    """Frame ``meta`` + ``grids`` as (prefix bytes, raw grid buffers).

    Callers concatenate (or chunk-stream) the prefix followed by each
    buffer in order.  ``reuse_verified`` is :func:`describe_grids`'s.
    """
    descriptors, buffers = describe_grids(grids, reuse_verified)
    return frame_prefix(meta, descriptors), buffers


def payload_length(prefix: bytes, buffers: Sequence[memoryview]) -> int:
    """Total body size in bytes (for ``Content-Length``)."""
    return len(prefix) + sum(buffer.nbytes for buffer in buffers)


def iter_chunks(prefix: bytes, buffers: Sequence[memoryview],
                chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> Iterator[bytes]:
    """Yield the framed payload as chunks of at most ``chunk_bytes``.

    Each yielded chunk is a plain ``bytes`` slice: the form a chunked
    upload sends (a 1024² grid in ~32 pieces, never joined into one
    object).  The client itself uploads the pieces whole under one
    ``Content-Length``.
    """
    chunk_bytes = max(1, int(chunk_bytes))
    pieces: Iterable[memoryview] = [memoryview(prefix), *buffers]
    for piece in pieces:
        for start in range(0, piece.nbytes, chunk_bytes):
            yield bytes(piece[start:start + chunk_bytes])


def decode_grid_header(data: bytes) -> Tuple[Dict[str, object], int]:
    """Parse the framed header; returns (header dict, body offset)."""
    if len(data) < 8 or data[:4] != MAGIC:
        raise WireFormatError("not a repro grid payload (bad magic)")
    (header_length,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + header_length:
        raise WireFormatError("truncated grid payload header")
    try:
        header = json.loads(data[8:8 + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"grid payload header is not JSON: {error}")
    if not isinstance(header, dict):
        raise WireFormatError("grid payload header must be a JSON object")
    return header, 8 + header_length


def decode_grid_payload(
    data,
) -> Tuple[Dict[str, object], List[np.ndarray]]:
    """Decode a full framed payload (``bytes`` or ``bytearray``) into
    (meta, writable grids).

    Each checksum is taken over the received bytes in place.  A grid of a
    writable ``data`` that lies aligned and native-endian in it is returned
    as a view of ``data``, with no copy; any other grid is copied once into
    a writable array.  Never a textual intermediate.
    """
    header, offset = decode_grid_header(data)
    view = memoryview(data)  # slices of it are hashed in place, not copied
    grids: List[np.ndarray] = []
    for index, descriptor in enumerate(header.get("grids") or []):
        shape = tuple(int(extent) for extent in descriptor["shape"])
        # Rebuilt from its string, the dtype is numpy's canonical object,
        # so ``np.asarray(grid, np.float64)`` keeps this very array.
        dtype = np.dtype(
            np.dtype(str(descriptor["dtype"])).newbyteorder("<").str)
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(data):
            raise WireFormatError("truncated grid payload body")
        expected: Optional[str] = descriptor.get("sha256")
        if expected is not None:
            actual = hashlib.sha256(view[offset:offset + nbytes]).hexdigest()
            if actual != str(expected):
                _CHECKSUM_FAILURES_TOTAL.inc()
                raise WireFormatError(
                    f"grid {index} checksum mismatch: payload corrupted in "
                    f"transit or at rest (expected sha256 {expected}, "
                    f"got {actual})"
                )
        grid = np.frombuffer(data, dtype=dtype, count=count,
                             offset=offset).reshape(shape)
        if not (grid.flags.writeable and grid.flags.aligned
                and dtype.isnative):
            grid = grid.astype(np.dtype(dtype.newbyteorder("=").str))
        if expected is not None:
            remember_sha256(grid, actual)
        grids.append(grid)
        offset += nbytes
    if offset != len(data):
        raise WireFormatError(
            f"grid payload has {len(data) - offset} trailing bytes"
        )
    meta = {key: value for key, value in header.items() if key != "grids"}
    return meta, grids


__all__ = [
    "CONTENT_TYPE_GRIDS",
    "CONTENT_TYPE_JSON",
    "DEFAULT_CHUNK_BYTES",
    "MAGIC",
    "WireFormatError",
    "decode_grid_header",
    "decode_grid_payload",
    "describe_grids",
    "encode_grid_payload",
    "frame_prefix",
    "iter_chunks",
    "payload_length",
    "remember_sha256",
    "verified_sha256",
]
