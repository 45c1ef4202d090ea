"""RPG1 hashing on two threads: what it computes is what serial hashing
computes, refusals name the same grid, and the helper thread stays one
thread, starts only when a frame needs it and survives a fork."""

import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.service import placement, wire
from repro.service.wire import (
    MAGIC,
    WireFormatError,
    decode_grid_payload,
    describe_grids,
    encode_grid_payload,
    frame_prefix,
    verified_sha256,
)

TWO_CPUS = len(placement.usable_cpus()) >= 2
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS,
                                    reason="needs two usable CPUs")


def _serial_descriptor(grid: np.ndarray) -> dict:
    """What one thread hashing the grid's little-endian bytes describes."""
    array = np.ascontiguousarray(grid)
    array = array.astype(array.dtype.newbyteorder("<"))
    return {"shape": list(array.shape),
            "dtype": array.dtype.str.lstrip("<=|"),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest()}


def _grids(count: int):
    """``count`` grids of mixed sizes and dtypes, the first two above the
    share threshold; one big-endian and one a non-contiguous slice."""
    rng = np.random.default_rng(count)
    grids = [
        rng.random((512, 512)),                            # 2 MiB
        rng.random((400, 300)).astype(">f8"),              # big-endian
        rng.integers(0, 1 << 30, (96, 40), dtype=np.int32),
        rng.random((64, 128, 8)).astype(np.float32)[:, ::2],
    ]
    return grids[:count]


def _body(descriptors, buffers, misalign: int = 0) -> bytearray:
    """An RPG1 body whose grids start ``misalign`` bytes past alignment."""
    if not misalign:
        return bytearray(frame_prefix({}, descriptors) + b"".join(buffers))
    header = json.dumps({"grids": descriptors}).encode()
    header += b" " * ((-(8 + len(header)) + misalign) % 8)
    return bytearray(MAGIC + struct.pack("<I", len(header)) + header
                     + b"".join(buffers))


def _flip(body: bytearray, descriptors, index: int) -> bytearray:
    """``body`` with the first byte of grid ``index`` flipped."""
    (hlen,) = struct.unpack("<I", body[4:8])
    offset = 8 + hlen + sum(
        int(np.prod(d["shape"])) * np.dtype(d["dtype"]).itemsize
        for d in descriptors[:index])
    flipped = bytearray(body)
    flipped[offset] ^= 0xFF
    return flipped


@pytest.fixture
def handoffs(monkeypatch):
    """Every list of buffers handed to the helper thread, in order."""
    seen = []
    submit = wire._Hasher.submit

    def spy(self, buffers, cpus):
        seen.append([buffer.nbytes for buffer in buffers])
        return submit(self, buffers, cpus)

    monkeypatch.setattr(wire._Hasher, "submit", spy)
    return seen


class TestSameBytesAsSerial:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("threshold", [0, wire.PARALLEL_SHARE_MIN_BYTES])
    def test_descriptors_and_frame_match_serial_hashing(
            self, count, threshold, monkeypatch, handoffs):
        monkeypatch.setattr(wire, "PARALLEL_SHARE_MIN_BYTES", threshold)
        grids = _grids(count)
        expected = [_serial_descriptor(grid) for grid in grids]
        descriptors, buffers = describe_grids(grids)
        assert descriptors == expected
        meta = {"benchmark": "hotspot2d", "steps": 3}
        prefix, _buffers = encode_grid_payload(meta, grids)
        assert prefix == frame_prefix(meta, expected)
        assert [bytes(buffer) for buffer in buffers] == [
            np.ascontiguousarray(grid).astype(grid.dtype.newbyteorder("<"))
            .tobytes() for grid in grids]
        if count >= 2 and TWO_CPUS:
            assert handoffs  # the second thread did hash a share

    @pytest.mark.parametrize("misalign", [0, 1, 4])
    @pytest.mark.parametrize("threshold", [0, wire.PARALLEL_SHARE_MIN_BYTES])
    def test_decode_verifies_every_grid_on_each_copy_path(
            self, misalign, threshold, monkeypatch):
        monkeypatch.setattr(wire, "PARALLEL_SHARE_MIN_BYTES", threshold)
        grids = _grids(4)
        descriptors, buffers = describe_grids(grids)
        for body in (_body(descriptors, buffers, misalign),
                     bytes(_body(descriptors, buffers, misalign))):
            _meta, decoded = decode_grid_payload(body)
            for original, grid, descriptor in zip(grids, decoded,
                                                  descriptors):
                assert grid.flags.writeable and grid.dtype.isnative
                assert np.array_equal(grid, original)
                assert verified_sha256(grid) == descriptor["sha256"]

    def test_reused_digests_are_not_hashed_again(self, monkeypatch):
        monkeypatch.setattr(wire, "PARALLEL_SHARE_MIN_BYTES", 0)
        grids = _grids(3)
        descriptors, buffers = describe_grids(grids)
        _meta, decoded = decode_grid_payload(_body(descriptors, buffers))
        hashed = []
        real = wire._sha256_all
        monkeypatch.setattr(wire, "_sha256_all", lambda pieces: (
            hashed.append(len(pieces)) or real(pieces)))
        fresh = np.ones((4, 4))
        again, _ = describe_grids([*decoded, fresh], reuse_verified=True)
        assert again == [*descriptors, _serial_descriptor(fresh)]
        assert hashed == [1]


class TestRefusals:
    def _two_grid_body(self):
        descriptors, buffers = describe_grids(_grids(2))
        return descriptors, _body(descriptors, buffers)

    def test_a_flipped_byte_in_grid_1_names_grid_1_and_counts_once(self):
        descriptors, body = self._two_grid_body()
        before = wire._CHECKSUM_FAILURES_TOTAL.value
        with pytest.raises(WireFormatError,
                           match=r"^grid 1 checksum mismatch: payload "
                                 r"corrupted in transit or at rest \(expected "
                                 rf"sha256 {descriptors[1]['sha256']}, got "):
            decode_grid_payload(_flip(body, descriptors, 1))
        assert wire._CHECKSUM_FAILURES_TOTAL.value == before + 1

    def test_with_grids_0_and_1_flipped_grid_0_is_named(self):
        descriptors, body = self._two_grid_body()
        both = _flip(_flip(body, descriptors, 0), descriptors, 1)
        before = wire._CHECKSUM_FAILURES_TOTAL.value
        with pytest.raises(WireFormatError, match=r"^grid 0 checksum"):
            decode_grid_payload(both)
        assert wire._CHECKSUM_FAILURES_TOTAL.value == before + 1

    def test_spans_are_checked_before_any_hashing(self, monkeypatch):
        descriptors, body = self._two_grid_body()

        def no_hashing(_pieces):
            raise AssertionError("hashed a frame whose spans overrun it")

        monkeypatch.setattr(wire, "_sha256_all", no_hashing)
        with pytest.raises(WireFormatError, match="truncated grid payload body"):
            decode_grid_payload(body[:-3])
        # Grid 0 corrupt too: the overrun is still what is reported.
        with pytest.raises(WireFormatError, match="truncated grid payload body"):
            decode_grid_payload(_flip(body, descriptors, 0)[:-3])
        overrun = [dict(descriptors[0], shape=[513, 512]), descriptors[1]]
        (hlen,) = struct.unpack("<I", body[4:8])
        with pytest.raises(WireFormatError, match="truncated grid payload body"):
            decode_grid_payload(_body(overrun, [body[8 + hlen:]]))

    def test_payload_corrupt_flip_lands_after_every_digest(self):
        from repro import faults
        grids = _grids(2)
        faults.arm("wire.payload_corrupt")
        try:
            descriptors, buffers = describe_grids(grids)
        finally:
            faults.disarm()
        assert descriptors == [_serial_descriptor(grid) for grid in grids]
        with pytest.raises(WireFormatError, match=r"^grid 0 checksum"):
            decode_grid_payload(_body(descriptors, buffers))


class TestHelperThread:
    def test_importing_the_service_and_client_starts_no_thread(self):
        src = str(Path(wire.__file__).parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
        done = subprocess.run(
            [sys.executable, "-c", "import threading, repro.service, "
             "repro.client; print(threading.active_count())"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.split() == ["1"]

    def test_frames_under_the_threshold_never_reach_the_helper(
            self, monkeypatch):
        def no_helper():
            raise AssertionError("a small frame reached the helper")

        monkeypatch.setattr(wire, "_hasher", no_helper)
        rng = np.random.default_rng(0)
        half = wire.PARALLEL_SHARE_MIN_BYTES // 8
        for grids in ([rng.random((48, 48)), rng.random((48, 48))],
                      [rng.random(half - 1), rng.random(half - 1)],
                      [rng.random(4 * half), rng.random(half - 1)],
                      [rng.random(4 * half)]):
            prefix, buffers = encode_grid_payload({}, grids)
            _meta, decoded = decode_grid_payload(
                bytearray(prefix + b"".join(buffers)))
            assert all(np.array_equal(a, b) for a, b in zip(grids, decoded))

    @needs_two_cpus
    def test_the_helper_stays_one_thread(self, handoffs):
        rng = np.random.default_rng(1)
        half = wire.PARALLEL_SHARE_MIN_BYTES // 8
        grids = [rng.random(half), rng.random(half)]
        for _ in range(200):
            prefix, buffers = encode_grid_payload({}, grids)
            decode_grid_payload(bytearray(prefix + b"".join(buffers)))
        helpers = [thread for thread in threading.enumerate()
                   if thread.name == "repro-wire-sha256"]
        assert helpers == [wire._HASHER.thread]
        assert helpers[0].daemon
        assert len(handoffs) == 400

    @needs_two_cpus
    def test_the_idle_helper_holds_no_frame(self, handoffs):
        # A received body the helper kept alive would pin 4 MB per 512²
        # upload, and the next body would land in never-touched pages.
        rng = np.random.default_rng(4)
        grids = [rng.random((512, 512)), rng.random((512, 512))]
        alive = [weakref.ref(grid) for grid in grids]
        describe_grids(grids)
        assert handoffs
        del grids
        gc.collect()
        assert [ref() for ref in alive] == [None, None]

    @needs_two_cpus
    def test_the_helper_is_pinned_off_the_callers_cpu(self, handoffs):
        # Woken on its busy caller's CPU, the helper would hash at half
        # speed beside it.
        rng = np.random.default_rng(5)
        describe_grids([rng.random((512, 512)), rng.random((512, 512))])
        assert handoffs
        if placement.current_cpu() is None:
            pytest.skip("the C library has no sched_getcpu")
        pinned = os.sched_getaffinity(wire._HASHER.thread.native_id)
        assert len(pinned) == len(placement.usable_cpus()) - 1

    @needs_two_cpus
    def test_concurrent_callers_each_get_their_own_digests(self, monkeypatch):
        monkeypatch.setattr(wire, "PARALLEL_SHARE_MIN_BYTES", 0)
        rng = np.random.default_rng(2)
        frames = [[memoryview(rng.random(n + k)).cast("B")
                   for k in range(3)] for n in (100, 3000, 20000, 70000)]
        expected = [[hashlib.sha256(b).hexdigest() for b in frame]
                    for frame in frames]
        wrong = []

        def caller(which):
            for _ in range(50):
                if wire._sha256_all(frames[which]) != expected[which]:
                    wrong.append(which)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i % 4,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @needs_two_cpus
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_hashes_a_two_grid_frame(self, handoffs):
        rng = np.random.default_rng(3)
        grids = [rng.random((512, 512)), rng.random((512, 512))]
        encode_grid_payload({}, grids)  # the parent's helper has run
        parent_helper = wire._HASHER
        assert handoffs and parent_helper.thread.is_alive()
        with warnings.catch_warnings():  # fork of a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            status = 1
            try:
                prefix, buffers = encode_grid_payload({}, grids)
                _meta, decoded = decode_grid_payload(
                    bytearray(prefix + b"".join(buffers)))
                fresh = wire._HASHER
                if (all(np.array_equal(a, b) for a, b in zip(grids, decoded))
                        and fresh is not parent_helper
                        and fresh.thread.is_alive()):
                    status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung hashing a frame")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
