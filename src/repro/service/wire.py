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
each grid in place, as a slice of the received buffer, once every grid's
span is known to lie inside it.  Encoding and decoding alike hash a
frame's grids on two threads when at least two grids need hashing, the
caller may run on two CPUs, and each of the two byte-balanced shares holds
:data:`PARALLEL_SHARE_MIN_BYTES` or more: the caller hashes one share and
one helper thread, started on first use and started afresh in a forked
child, hashes the other.  Digests, and the grid a mismatch is reported
for (the first in header order), are those of one thread hashing in
order.  A writable payload
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
import os
import queue
import struct
import threading
import weakref
from concurrent.futures import Future
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults as _faults
from ..telemetry import registry as _telemetry
from .placement import OffCallerCpu, usable_cpus

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


#: The fewest bytes each of a frame's two hashing shares must hold before
#: a second thread hashes one of them.  On a 2-vCPU Xeon SHA-256 runs at
#: about 1.1 GB/s (a 2 MiB grid in 1.8 ms) and waking the helper after an
#: idle gap costs about 0.15 ms: two 128 KiB grids hashed 1.2× slower on
#: two threads, two of 256 KiB 0.92× the serial time, two of 2 MiB 0.57×.
PARALLEL_SHARE_MIN_BYTES = 256 * 1024


class _Hasher:
    """One daemon thread that hashes the buffers a caller hands it.

    Woken on its caller's CPU, busy hashing its own share, the helper
    would run both shares at half speed: each hand-off first pins it off
    that CPU (:class:`~repro.service.placement.OffCallerCpu`).
    """

    def __init__(self) -> None:
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name="repro-wire-sha256")
        self.thread.start()
        self._placement = OffCallerCpu(self.thread)

    def _serve(self) -> None:
        while True:
            buffers, future = self._tasks.get()
            try:
                digests = [hashlib.sha256(buffer).hexdigest()
                           for buffer in buffers]
            except Exception as error:  # noqa: BLE001 - raised by the caller
                digests = error
            # Let go of the frame before its caller wakes: a received body
            # kept alive here would make the next one land in fresh pages.
            del buffers
            if isinstance(digests, Exception):
                future.set_exception(digests)
            else:
                future.set_result(digests)

    def submit(self, buffers: List[memoryview], cpus: set) -> Future:
        """Hash ``buffers`` on the helper, pinned to ``cpus`` less the
        caller's current CPU."""
        future: Future = Future()
        with self._lock:
            self._placement.pin(cpus)
            self._tasks.put((buffers, future))
        return future


_HASHER: Optional[_Hasher] = None
_HASHER_LOCK = threading.Lock()


def _hasher() -> _Hasher:
    """The process's helper, started on first use."""
    global _HASHER
    with _HASHER_LOCK:
        if _HASHER is None:
            _HASHER = _Hasher()
        return _HASHER


def _forget_hasher() -> None:
    """In a forked child: the parent's helper thread does not exist here,
    so the next frame that needs one starts its own."""
    global _HASHER, _HASHER_LOCK
    _HASHER = None
    _HASHER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_hasher)


def _sha256_all(buffers: Sequence[memoryview]) -> List[str]:
    """The sha256 hex digest of each buffer, in order, each byte hashed
    once.

    The buffers split into two shares balanced by bytes, largest first.
    When each share holds at least :data:`PARALLEL_SHARE_MIN_BYTES` and
    the caller may run on two CPUs, the helper thread hashes the lighter
    share while the caller hashes the other; otherwise the caller hashes
    them all.
    """
    shares: Tuple[List[int], List[int]] = ([], [])
    loads = [0, 0]
    for index in sorted(range(len(buffers)),
                        key=lambda index: -buffers[index].nbytes):
        lighter = int(loads[1] < loads[0])
        shares[lighter].append(index)
        loads[lighter] += buffers[index].nbytes
    mine, theirs = shares if loads[1] <= loads[0] else shares[::-1]
    cpus = (usable_cpus() if len(buffers) >= 2
            and min(loads) >= PARALLEL_SHARE_MIN_BYTES else set())
    if len(cpus) < 2:
        return [hashlib.sha256(buffer).hexdigest() for buffer in buffers]
    future = _hasher().submit([buffers[index] for index in theirs], cpus)
    digests = {index: hashlib.sha256(buffers[index]).hexdigest()
               for index in mine}
    digests.update(zip(theirs, future.result()))
    return [digests[index] for index in range(len(buffers))]


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
    unknown: List[int] = []
    for grid in grids:
        known = verified_sha256(grid) if reuse_verified else None
        array = np.ascontiguousarray(grid)
        if array.dtype.byteorder == ">":  # normalise to little-endian
            array = array.astype(array.dtype.newbyteorder("<"))
        if known is None:
            unknown.append(len(buffers))
        descriptors.append({
            "shape": list(array.shape),
            "dtype": array.dtype.str.lstrip("<=|"),
            "sha256": known,
        })
        buffers.append(memoryview(array).cast("B"))
    digests = _sha256_all([buffers[index] for index in unknown])
    for index, digest in zip(unknown, digests):
        descriptors[index]["sha256"] = digest
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
    spans = []  # (shape, dtype, count, offset) per grid
    checked: Dict[int, Tuple[str, memoryview]] = {}  # index: (sha256, bytes)
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
        if descriptor.get("sha256") is not None:
            checked[index] = (str(descriptor["sha256"]),
                              view[offset:offset + nbytes])
        spans.append((shape, dtype, count, offset))
        offset += nbytes
    # Every span lies inside the body before any byte is hashed; the first
    # mismatching grid in header order is the one reported.
    actual = dict(zip(checked, _sha256_all(
        [piece for _expected, piece in checked.values()])))
    for index, (expected, _piece) in checked.items():
        if actual[index] != expected:
            _CHECKSUM_FAILURES_TOTAL.inc()
            raise WireFormatError(
                f"grid {index} checksum mismatch: payload corrupted in "
                f"transit or at rest (expected sha256 {expected}, "
                f"got {actual[index]})"
            )
    if offset != len(data):
        raise WireFormatError(
            f"grid payload has {len(data) - offset} trailing bytes"
        )
    grids: List[np.ndarray] = []
    for index, (shape, dtype, count, start) in enumerate(spans):
        grid = np.frombuffer(data, dtype=dtype, count=count,
                             offset=start).reshape(shape)
        if not (grid.flags.writeable and grid.flags.aligned
                and dtype.isnative):
            grid = grid.astype(np.dtype(dtype.newbyteorder("=").str))
        if index in actual:
            remember_sha256(grid, actual[index])
        grids.append(grid)
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
