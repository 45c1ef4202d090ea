"""Durable jobs: checkpointed execution, crash recovery, payload integrity.

The load-bearing property: a job that crashes mid-trajectory and resumes
from its checkpoint produces a final grid **bit-identical** to the
uninterrupted run — for every suite app, for float64 and float32 client
inputs, and for checkpoint segments of 1 step, 7 steps, and the whole
trajectory.  Around it: the checkpoint pipeline's ordering (a helper
thread persists segment k while segment k+1 computes), the layout (every
input once in ``inputs.rpg`` as the step-0 state, carried slots per
checkpoint, none behind the result, ``job.json`` at submit and at the end),
the root-hashed frame and its negatives, corrupt-checkpoint and
``inputs.rpg`` recovery, every older layout failing closed, idempotent
re-submission, retention bounds, wire-level payload integrity, the result
hashed once, and the sync path's between-segment deadline shedding.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults, helpers
from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.plan import (ExecutionPlan, iterate_generic,
                                iterate_state_generic)
from repro.service import jobs as jobs_module
from repro.service import ops
from repro.service import wire as wire_module
from repro.backend.plan import normalize_carry
from repro.service.executor import run_trajectory
from repro.service.http import encode_reply
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    JOB_CANCELLED,
    Job,
    JobError,
    JobIntegrityError,
    JobManager,
    JobNotFound,
    _frame,
    _hash_ahead,
    _root_hash,
    _unframe,
)
from repro.service.ops import Reply, dispatch
from repro.service.registry import DigestRouter
from repro.service.requests import (BAD_REQUEST, DEADLINE_EXCEEDED,
                                    NOT_FOUND, UNAVAILABLE, ExecutionRequest)
from repro.service.server import ServiceClient, StencilService
from repro.service.wire import (
    CONTENT_TYPE_GRIDS,
    WireFormatError,
    decode_grid_header,
    decode_grid_payload,
    encode_grid_payload,
    frame_prefix,
    verified_sha256,
)

STEPS = 9
SEGMENTS = (1, 7, STEPS)


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def backend():
    """One backend for the module: each app's plan compiles exactly once."""
    return NumpyBackend()


def _shape_for(key: str):
    bench = get_benchmark(key)
    return (13, 11) if bench.ndims == 2 else (5, 7, 9)


def _request_for(key: str, dtype, steps: int = STEPS) -> ExecutionRequest:
    bench = get_benchmark(key)
    inputs = [np.asarray(grid, dtype=dtype)
              for grid in bench.make_inputs(_shape_for(key), 3)]
    return ExecutionRequest(inputs=inputs, benchmark=key, steps=steps)


def _reference(key: str, dtype, steps: int = STEPS) -> np.ndarray:
    """The uninterrupted run on the service's float64 view of the inputs."""
    bench = get_benchmark(key)
    inputs = [np.asarray(np.asarray(grid, dtype=dtype), dtype=np.float64)
              for grid in bench.make_inputs(_shape_for(key), 3)]
    return np.asarray(bench.iterate(inputs, steps), dtype=np.float64)


def _joined(prefix: bytes, buffers) -> bytes:
    """A framed payload as the one ``bytes`` a file or socket would hold."""
    return prefix + b"".join(bytes(buffer) for buffer in buffers)


def _buffer_of(grid: np.ndarray):
    """The object whose memory ``grid`` is a view of."""
    while isinstance(grid, np.ndarray):
        grid = grid.base
    return grid.obj if isinstance(grid, memoryview) else grid


def _crash_at(backend, job_dir, key: str, segment: int, at: int = 1):
    """Submit ``key`` and let ``job.crash_after_checkpoint:at=`` abandon the
    worker; returns the crashed manager and the job descriptor."""
    faults.arm(f"job.crash_after_checkpoint:at={at}")
    crashed = JobManager(backend, job_dir=str(job_dir),
                         checkpoint_every=segment)
    job = crashed.submit(_request_for(key, np.float64))
    _wait_for_worker_death(crashed)
    faults.disarm()
    return crashed, job


def _killed_after_submit(backend, job_dir, key: str = "hotspot2d"):
    """Submit ``key`` to a manager whose worker never starts: the job dir
    as a ``kill -9`` right after the submit answered leaves it."""
    killed = JobManager(backend, job_dir=str(job_dir), checkpoint_every=4)
    killed._ensure_worker = lambda: None
    job = killed.submit(_request_for(key, np.float64))
    killed.close()
    return job


def _recover_and_finish(backend, job_dir, job, segment: int) -> JobManager:
    """A fresh manager on ``job_dir`` that resumed ``job`` to completion."""
    recovered = JobManager(backend, job_dir=str(job_dir),
                           checkpoint_every=segment)
    assert recovered.recover() == 1
    final = recovered.wait(job["job_id"], timeout_s=30.0)
    assert (final["status"], final["resumes"]) == (COMPLETED, 1)
    return recovered


def _edit_header(data: bytes, edit) -> bytes:
    """``data`` with ``edit(header)`` applied and the prefix re-framed."""
    header, offset = decode_grid_header(data)
    edit(header)
    descriptors = header.pop("grids")
    return frame_prefix(header, descriptors) + data[offset:]


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _flip_descriptor_sha(header) -> None:
    sha = header["grids"][0]["sha256"]
    header["grids"][0]["sha256"] = ("1" if sha[0] == "0" else "0") + sha[1:]


def _drop_descriptor_sha(header) -> None:
    """Unsign one grid and re-sign the root over what is left, so only the
    "every descriptor carries a sha256" requirement can reject it."""
    del header["grids"][0]["sha256"]
    meta = {key: value for key, value in header.items()
            if key not in ("grids", "root_sha256")}
    header["root_sha256"] = _root_hash(meta, header["grids"])


#: name -> (framed bytes -> tampered bytes): every way a checkpoint can rot.
TAMPERINGS = {
    "meta": lambda data: _edit_header(
        data, lambda header: header.update(step=header["step"] + 1)),
    # Reversed extents keep the byte count, so only the root can notice.
    "descriptor-shape": lambda data: _edit_header(
        data, lambda header: header["grids"][0].update(
            shape=header["grids"][0]["shape"][::-1])),
    "descriptor-dtype": lambda data: _edit_header(
        data, lambda header: header["grids"][0].update(dtype="f9")),
    "descriptor-sha256": lambda data: _edit_header(data, _flip_descriptor_sha),
    "descriptor-sha256-removed": lambda data: _edit_header(
        data, _drop_descriptor_sha),
    "root-removed": lambda data: _edit_header(
        data, lambda header: header.pop("root_sha256")),
    "data": _flip_last_byte,
    "truncated": lambda data: data[:-1],
    "trailing-bytes": lambda data: data + b"\0",
}


def _rot(tampering):
    """Apply a :data:`TAMPERINGS` entry to a file in place."""
    def apply(path, _other) -> None:
        tampered = tampering(path.read_bytes())
        with pytest.raises(JobIntegrityError):
            _unframe(tampered)
        path.write_bytes(tampered)
    return apply


#: name -> (inputs.rpg, another job's valid inputs.rpg) -> None: every way
#: the one file all of a job's checkpoints need can rot, go, or be swapped.
INPUT_TAMPERINGS = {
    **{name: _rot(tampering) for name, tampering in TAMPERINGS.items()},
    "meta": _rot(lambda data: _edit_header(
        data, lambda header: header.update(slots=[0]))),
    "missing": lambda path, _other: path.unlink(),
    # Same benchmark, same seed: byte-identical grids, only the job differs.
    "swapped": lambda path, other: path.write_bytes(other.read_bytes()),
}


#: older layout -> what the failed job's error names.
OLDER_LAYOUTS = {
    "pre-root-hash": "no valid checkpoint survived",
    "full-state": "inputs.rpg",
    "full-state-beside-inputs": "does not sign the static inputs",
    "step0-checkpoint": "inputs.rpg",
}


def _older_layout_dir(backend, job_dir, layout: str) -> str:
    """A Hotspot2D job directory as an older layout left it mid-run;
    returns the job id.

    ``pre-root-hash``: checkpoints under one ``sha256`` over the canonical
    meta and every grid byte.  ``full-state``: every slot in every
    checkpoint (step 0 included), no ``static`` list and no inputs.rpg;
    ``full-state-beside-inputs`` adds today's inputs.rpg, so only the
    missing list can reject it.  ``step0-checkpoint``: an inputs.rpg of the
    static slot only, beside checkpoints (step 0 included) of the carried
    one.
    """
    if layout == "pre-root-hash":
        # Two checkpoints, as the older layout kept after its first
        # boundary (one at step 0): inputs.rpg is no fallback then.
        crashed, job = _crash_at(backend, job_dir, "hotspot2d", segment=4,
                                 at=2)
        crashed.close()
        for path in (job_dir / job["job_id"]).glob("ckpt-*.rpg"):
            meta, grids, _descriptors = _unframe(path.read_bytes())
            digest = hashlib.sha256(
                json.dumps(meta, sort_keys=True).encode("utf-8"))
            for grid in grids:
                digest.update(np.ascontiguousarray(grid).tobytes())
            path.write_bytes(_joined(*encode_grid_payload(
                {**meta, "sha256": digest.hexdigest()}, grids)))
        return job["job_id"]
    request = _request_for("hotspot2d", np.float64)
    route = DigestRouter().plan_for("hotspot2d")
    states = {}
    run_trajectory(
        backend, route.program, request.inputs, 5, route.carry, None, True,
        segment=4, boundary=lambda done, state: states.__setitem__(
            done, [np.array(grid) for grid in state]))
    job = Job(job_id="0123456789abcdef", job_key=layout,
              benchmark="hotspot2d", steps=STEPS, checkpoint_every=4,
              num_inputs=len(request.inputs), digest=route.digest,
              status="running", completed_steps=4)
    directory = job_dir / job.job_id
    directory.mkdir()
    (directory / "job.json").write_text(json.dumps(job.manifest()))
    meta = {"job_id": job.job_id, "steps": STEPS, "digest": route.digest,
            "benchmark": "hotspot2d"}
    if layout != "full-state":
        slots = [1] if layout == "step0-checkpoint" else [0, 1]
        prefix, buffers, descriptors = _frame(
            {**meta, "slots": slots},
            [request.inputs[slot] for slot in slots])
        (directory / "inputs.rpg").write_bytes(_joined(prefix, buffers))
    for step, state in sorted(states.items()):
        framed = {**meta, "step": step}
        if layout == "step0-checkpoint":  # the carried slot, signing power
            framed["static"] = [{"slot": 1, **descriptors[0]}]
            state = state[:1]
        (directory / f"ckpt-{step:08d}.rpg").write_bytes(
            _joined(*_frame(framed, state)[:2]))
    return job.job_id


def _wait_for_worker_death(manager: JobManager, timeout_s: float = 30.0):
    """Block until the injected crash has abandoned the worker thread."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        worker = manager._worker
        if worker is not None and not worker.is_alive():
            return
        time.sleep(0.005)
    raise AssertionError("worker never hit the injected crash")


class TestResumeBitIdentity:
    """The tentpole property, across the whole suite."""

    @pytest.mark.parametrize("segment", SEGMENTS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_crash_resume_is_bit_identical_to_uninterrupted(
            self, key, dtype, segment, backend, tmp_path):
        expected = _reference(key, dtype)

        faults.arm("job.crash_after_checkpoint:at=1")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=segment)
        job = crashed.submit(_request_for(key, dtype))
        _wait_for_worker_death(crashed)
        faults.disarm()

        # On-disk state is exactly what kill -9 leaves: manifest still
        # "running", newest checkpoint at the first segment boundary — or,
        # when that boundary is the last, result.rpg landed behind step 0.
        interrupted = crashed.status(job["job_id"])
        assert interrupted["status"] == "running"
        assert interrupted["completed_steps"] == (
            segment if segment < STEPS else 0)

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=segment)
        assert recovered.recover() == 1
        final = recovered.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == COMPLETED
        assert final["resumes"] == 1
        _descriptor, result = recovered.result(job["job_id"])
        assert result.dtype == expected.dtype
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        recovered.close()
        crashed.close()


class TestTrajectoryRunner:
    """The one segment loop under both the sync path and durable jobs."""

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("segment", [None, 1, 7])
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_any_segmentation_is_bit_identical_to_the_generic_loop(
            self, key, segment, use_plans, backend):
        bench = get_benchmark(key)
        program, carry = bench.build_program(), bench.carry_spec()
        inputs = bench.make_inputs(_shape_for(key), 3)
        expected = iterate_generic(backend, program, inputs, STEPS,
                                   carry=carry)
        boundaries = []
        out, done, stopped, timings = run_trajectory(
            backend, program, inputs, STEPS, carry, None, use_plans,
            segment=segment,
            boundary=lambda done, state: boundaries.append(done))
        assert (done, stopped, timings) == (STEPS, None, {})
        assert out.tobytes() == expected.tobytes()
        # Before every segment; none after the last, whose state nobody
        # reads (it copies out only its output).
        assert boundaries == list(range(0, STEPS, segment or STEPS))

    @pytest.mark.parametrize("segment", [1, 4])
    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_a_foreign_bind_between_segments_is_bit_identical(
            self, key, segment, backend, monkeypatch):
        # At every boundary another caller runs the trajectory's plan on
        # other inputs, overwriting its live binding: the next segment
        # must bind the copied state instead of continuing (Hotspot2D's
        # static power, Acoustic's rotating carry, and every other app).
        bench = get_benchmark(key)
        program, carry = bench.build_program(), bench.carry_spec()
        inputs = bench.make_inputs(_shape_for(key), 3)
        other = bench.make_inputs(_shape_for(key), 4)
        plan = backend.plan(program, inputs)
        binds = []
        bind = ExecutionPlan._bind
        monkeypatch.setattr(ExecutionPlan, "_bind", lambda self, grids: (
            binds.append(self is plan), bind(self, grids)))

        def foreign(done, state):
            if done:
                _out, expected = iterate_state_generic(
                    backend, program, inputs, done, carry=carry)
                assert [grid.tobytes() for grid in state] == \
                    [grid.tobytes() for grid in expected]
                plan.run(other)
            return None

        out, done, stopped, timings = run_trajectory(
            backend, program, inputs, STEPS, carry, None, True,
            segment=segment, boundary=foreign)
        assert (done, stopped, timings) == (STEPS, None, {})
        assert out.tobytes() == iterate_generic(
            backend, program, inputs, STEPS, carry=carry).tobytes()
        # The first bind, then per boundary the foreign run's and the
        # re-bind of the copied state.
        boundaries = len(range(segment, STEPS, segment))
        assert binds == [True] * (1 + 2 * boundaries)

    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_an_undisturbed_trajectory_loads_its_inputs_once(
            self, key, backend, monkeypatch):
        bench = get_benchmark(key)
        program, carry = bench.build_program(), bench.carry_spec()
        inputs = bench.make_inputs(_shape_for(key), 3)
        loads = []
        load = ExecutionPlan._load
        monkeypatch.setattr(
            ExecutionPlan, "_load", lambda self, destinations, grids: (
                loads.append(len(grids)), load(self, destinations, grids)))
        segments = []
        out, done, _stopped, _timings = run_trajectory(
            backend, program, inputs, 8, carry, None, True, segment=2,
            boundary=lambda done, state: segments.append(done))
        assert (segments, done) == ([0, 2, 4, 6], 8)
        assert loads == [len(inputs)]
        assert out.tobytes() == iterate_generic(
            backend, program, inputs, 8, carry=carry).tobytes()

    @pytest.mark.parametrize("use_plans", [True, False])
    def test_boundary_stop_returns_exactly_the_completed_segments(
            self, use_plans, backend):
        bench = get_benchmark("hotspot2d")
        program, carry = bench.build_program(), bench.carry_spec()
        inputs = bench.make_inputs(_shape_for("hotspot2d"), 3)
        segment, k = 2, 3
        out, done, stopped, _timings = run_trajectory(
            backend, program, inputs, STEPS, carry, None, use_plans,
            segment=segment,
            boundary=lambda done, state: "stop" if done >= k * segment
            else None)
        assert (done, stopped) == (k * segment, "stop")
        assert out.tobytes() == iterate_generic(
            backend, program, inputs, k * segment, carry=carry).tobytes()

    def test_capture_failure_falls_back_once_and_reports_it(self, backend):
        bench = get_benchmark("stencil2d")
        program = bench.build_program()
        inputs = bench.make_inputs((9, 14), 3)  # a shape with no cached plan
        expected = iterate_generic(backend, program, inputs, STEPS)
        faults.arm("plan.capture_fail")
        out, done, stopped, timings = run_trajectory(
            backend, program, inputs, STEPS, None, None, True, segment=2)
        assert (done, stopped) == (STEPS, None)
        assert timings == {"plan_fallback": True}
        assert faults.hits("plan.capture_fail") == 1  # not once per segment
        assert out.tobytes() == expected.tobytes()


class TestCheckpointIntegrity:
    def test_corrupt_newest_checkpoint_falls_back_to_previous(
            self, backend, tmp_path):
        expected = _reference("hotspot2d", np.float64)
        # Checkpoints land at steps 4 and 8; the crash right after the
        # second leaves it, corrupt, newest on disk beside a valid step 4.
        faults.arm("job.checkpoint_corrupt:at=2,"
                   "job.crash_after_checkpoint:at=2")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        job = crashed.submit(_request_for("hotspot2d", np.float64))
        _wait_for_worker_death(crashed)
        faults.disarm()

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 1
        assert recovered.stats()["corrupt_checkpoints"] == 1
        final = recovered.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == COMPLETED
        _descriptor, result = recovered.result(job["job_id"])
        assert result.tobytes() == expected.tobytes()
        recovered.close()
        crashed.close()

    def test_no_valid_checkpoint_fails_instead_of_silent_rerun(
            self, backend, tmp_path):
        # Every checkpoint corrupted: recovery must refuse, loudly.
        faults.arm("job.checkpoint_corrupt,job.crash_after_checkpoint:at=2")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = crashed.submit(_request_for("stencil2d", np.float64))
        _wait_for_worker_death(crashed)
        faults.disarm()

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=2)
        assert recovered.recover() == 0
        final = recovered.status(job["job_id"])
        assert final["status"] == FAILED
        assert "no valid checkpoint" in final["error"]
        assert recovered.stats()["corrupt_checkpoints"] >= 2
        with pytest.raises(JobError):
            recovered.result(job["job_id"])
        recovered.close()
        crashed.close()

    def test_two_corrupt_newest_checkpoints_fail_beside_valid_inputs(
            self, backend, tmp_path):
        # Checkpoints at 2, 4, 6: the crash after 6 leaves 4 and 6, both
        # corrupt.  inputs.rpg is valid, but the step-0 state it holds is
        # not where this job stood: recovery must refuse, not re-run.
        faults.arm("job.checkpoint_corrupt:at=2:times=2,"
                   "job.crash_after_checkpoint:at=3")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = crashed.submit(_request_for("stencil2d", np.float64))
        _wait_for_worker_death(crashed)
        faults.disarm()
        crashed.close()
        directory = tmp_path / job["job_id"]
        assert [path.name for path in sorted(directory.glob("ckpt-*"))] == [
            "ckpt-00000004.rpg", "ckpt-00000006.rpg"]
        _unframe((directory / "inputs.rpg").read_bytes())

        for attempt in range(2):
            recovered = JobManager(backend, job_dir=str(tmp_path),
                                   checkpoint_every=2)
            assert recovered.recover() == 0
            final = recovered.status(job["job_id"])
            assert (final["status"], final["resumes"]) == (FAILED, 0)
            assert "no valid checkpoint survived" in final["error"]
            assert recovered.stats()["corrupt_checkpoints"] == 2
            assert recovered._worker is None  # nothing was re-run
            recovered.close()
            # The corrupt files stay: a crash before the failed manifest
            # landed finds the same two at the next start, never fewer.
            assert len(list(directory.glob("ckpt-*"))) == 2
            manifest = json.loads((directory / "job.json").read_text())
            (directory / "job.json").write_text(
                json.dumps({**manifest, "status": "queued", "error": None}))

    def test_frame_rejects_tampered_metadata_and_data(self):
        grids = [np.arange(12, dtype=np.float64).reshape(3, 4)]
        data = _joined(*_frame({"job_id": "j1", "step": 7}, grids)[:2])
        meta, decoded, _descriptors = _unframe(data)
        assert meta["step"] == 7
        assert decoded[0].tobytes() == grids[0].tobytes()
        flipped = bytearray(data)
        flipped[-1] ^= 0xFF  # grid byte
        with pytest.raises(JobIntegrityError):
            _unframe(bytes(flipped))
        with pytest.raises(JobIntegrityError):
            _unframe(data.replace(b'"step": 7', b'"step": 8'))

    # Jacobi2D-5pt has no static slot, and its checkpoints still need
    # inputs.rpg: recovery has one path.
    @pytest.mark.parametrize("tampering,key", [
        pytest.param(name, "hotspot2d", id=name)
        for name in sorted(TAMPERINGS)
        + [f"inputs-{name}" for name in sorted(INPUT_TAMPERINGS)]
    ] + [pytest.param("inputs-missing", "jacobi2d5pt",
                      id="inputs-missing-jacobi2d5pt")])
    def test_every_tampering_is_rejected_and_counted_at_recovery(
            self, tampering, key, backend, tmp_path):
        crashed, job = _crash_at(backend, tmp_path, key, segment=4)
        crashed.close()
        directory = tmp_path / job["job_id"]
        newest = sorted(directory.glob("ckpt-*.rpg"))[-1]
        assert _unframe(newest.read_bytes())[0]["step"] == 4
        counter = "repro_job_corrupt_checkpoints_total"
        if tampering in TAMPERINGS:
            expected = _reference(key, np.float64)
            tampered = TAMPERINGS[tampering](newest.read_bytes())
            with pytest.raises(JobIntegrityError):
                _unframe(tampered)
            newest.write_bytes(tampered)

            recovered = _recover_and_finish(backend, tmp_path, job, segment=4)
            assert recovered.stats()["corrupt_checkpoints"] == 1
            assert recovered.metrics.snapshot()[counter]["value"] == 1
            for path in directory.glob("ckpt-*.rpg"):  # the rot is gone
                _unframe(path.read_bytes())
            _descriptor, result = recovered.result(job["job_id"])
            assert result.tobytes() == expected.tobytes()
            recovered.close()
            return

        # inputs.rpg: every checkpoint needs it, so no fallback can help.
        other = JobManager(backend, job_dir=str(tmp_path / "other"))
        sibling = other.submit(_request_for(key, np.float64))
        other.wait(sibling["job_id"], timeout_s=30.0)
        other.close()
        INPUT_TAMPERINGS[tampering[len("inputs-"):]](
            directory / "inputs.rpg",
            tmp_path / "other" / sibling["job_id"] / "inputs.rpg")
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 0
        final = recovered.status(job["job_id"])
        # 0: job.json is not rewritten per checkpoint, and the failed
        # recovery never got as far as the step-4 checkpoint's state.
        assert (final["status"], final["resumes"],
                final["completed_steps"]) == (FAILED, 0, 0)
        assert "inputs.rpg" in final["error"]
        assert "refusing to silently re-run" in final["error"]
        assert recovered.stats()["corrupt_checkpoints"] == 1
        assert recovered.metrics.snapshot()[counter]["value"] == 1
        assert recovered._worker is None  # nothing was re-run
        with pytest.raises(JobError, match="not completed"):
            recovered.result(job["job_id"])
        recovered.close()

    @pytest.mark.parametrize("tampering", sorted(INPUT_TAMPERINGS))
    def test_inputs_tampering_with_no_checkpoint_fails_closed(
            self, tampering, backend, tmp_path):
        """inputs.rpg is the step-0 state: rotten, missing or another
        job's, it fails the job even where no checkpoint exists yet."""
        job = _killed_after_submit(backend, tmp_path)
        directory = tmp_path / job["job_id"]
        assert sorted(path.name for path in directory.iterdir()) == [
            "inputs.rpg", "job.json"]
        sibling = _killed_after_submit(backend, tmp_path / "other")
        INPUT_TAMPERINGS[tampering](
            directory / "inputs.rpg",
            tmp_path / "other" / sibling["job_id"] / "inputs.rpg")
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 0
        final = recovered.status(job["job_id"])
        assert (final["status"], final["resumes"],
                final["completed_steps"]) == (FAILED, 0, 0)
        assert "inputs.rpg" in final["error"]
        assert "refusing to silently re-run" in final["error"]
        assert recovered.stats()["corrupt_checkpoints"] == 1
        assert recovered._worker is None  # nothing was re-run
        recovered.close()

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_crash_before_the_first_checkpoint_resumes_from_inputs(
            self, key, backend, tmp_path):
        expected = _reference(key, np.float64)
        job = _killed_after_submit(backend, tmp_path, key)
        directory = tmp_path / job["job_id"]
        meta, grids, _descriptors = _unframe(
            (directory / "inputs.rpg").read_bytes())
        assert meta["slots"] == list(range(len(grids)))
        recovered = _recover_and_finish(backend, tmp_path, job, segment=4)
        assert recovered.stats()["corrupt_checkpoints"] == 0
        _descriptor, result = recovered.result(job["job_id"])
        assert result.tobytes() == expected.tobytes()
        recovered.close()

    def test_a_resumed_state_is_views_of_the_files_it_was_read_from(
            self, backend, tmp_path):
        """Each file is read once into one buffer and every grid is a view
        of it: the carried slot of the checkpoint's, the static one of
        inputs.rpg's."""
        crashed, job = _crash_at(backend, tmp_path, "hotspot2d", segment=4)
        crashed.close()
        directory = tmp_path / job["job_id"]
        record = Job.from_manifest(
            json.loads((directory / "job.json").read_text(encoding="utf-8")))
        step, state, _held = JobManager(
            backend, job_dir=str(tmp_path))._load_latest_checkpoint(record)
        assert step == 4
        buffers = [_buffer_of(grid) for grid in state]
        assert all(isinstance(buffer, bytearray) for buffer in buffers)
        assert [len(buffer) for buffer in buffers] == [
            (directory / "ckpt-00000004.rpg").stat().st_size,  # temp
            (directory / "inputs.rpg").stat().st_size]         # power

    @pytest.mark.parametrize("layout", sorted(OLDER_LAYOUTS))
    def test_a_job_dir_of_an_older_layout_fails_closed(
            self, layout, backend, tmp_path):
        """Recovery reads one layout: a directory an older one wrote is a
        failed job, counted like corruption and never re-run."""
        job_id = _older_layout_dir(backend, tmp_path, layout)
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 0
        final = recovered.status(job_id)
        assert (final["status"], final["resumes"]) == (FAILED, 0)
        assert OLDER_LAYOUTS[layout] in final["error"]
        assert "refusing to silently re-run" in final["error"]
        assert recovered.stats()["corrupt_checkpoints"] >= 1
        assert recovered._worker is None  # nothing was re-run
        recovered.close()

    def test_a_manifest_missing_any_field_is_skipped(
            self, backend, tmp_path):
        """job.json carries every field manifest() writes; one without a
        field is no job of this layout, and recovery leaves it alone."""
        resumed = _killed_after_submit(backend, tmp_path)
        skipped = _killed_after_submit(backend, tmp_path)
        path = tmp_path / skipped["job_id"] / "job.json"
        manifest = json.loads(path.read_text())
        for field in sorted(manifest):
            path.write_text(json.dumps(
                {key: value for key, value in manifest.items()
                 if key != field}))
            recovered = JobManager(backend, job_dir=str(tmp_path),
                                   checkpoint_every=4)
            recovered._ensure_worker = lambda: None
            assert recovered.recover() == 1, field
            with pytest.raises(JobNotFound):
                recovered.status(skipped["job_id"])
            recovered.close()
        # Each pass above resumed the intact job (and persisted that).
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 1
        final = recovered.wait(resumed["job_id"], timeout_s=30.0)
        assert (final["status"], final["resumes"]) == (
            COMPLETED, len(manifest) + 1)
        _descriptor, result = recovered.result(resumed["job_id"])
        assert result.tobytes() == \
            _reference("hotspot2d", np.float64).tobytes()
        recovered.close()

    def test_recovery_removes_a_write_the_crash_cut_short(
            self, backend, tmp_path):
        expected = _reference("hotspot2d", np.float64)
        crashed, job = _crash_at(backend, tmp_path, "hotspot2d", segment=4)
        crashed.close()
        directory = tmp_path / job["job_id"]
        newest = sorted(directory.glob("ckpt-*.rpg"))[-1]
        torn = directory / "ckpt-00000008.rpg.tmp"
        torn.write_bytes(newest.read_bytes()[:100])  # kill -9 mid-write
        recovered = _recover_and_finish(backend, tmp_path, job, segment=4)
        assert recovered.stats()["corrupt_checkpoints"] == 0
        assert not list(directory.glob("*.tmp"))
        _descriptor, result = recovered.result(job["job_id"])
        assert result.tobytes() == expected.tobytes()
        recovered.close()


def _record_writes(monkeypatch):
    """``[(file name, grids framed)]`` of every job file written from now
    on, in write order (the manifest frames none)."""
    writes = []
    real_write = jobs_module._atomic_write

    def recording(path, *pieces):
        writes.append((path.name, len(pieces) - 1))  # prefix + grids
        real_write(path, *pieces)

    monkeypatch.setattr(jobs_module, "_atomic_write", recording)
    return writes


class TestCheckpointLayout:
    """Every slot once in inputs.rpg, carried slots per checkpoint, no
    checkpoint behind the result, and job.json at submit and at the end."""

    def test_hotspot2d_512_writes_power_once_and_no_final_checkpoint(
            self, backend, tmp_path, monkeypatch):
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((512, 512), 0)
        writes = _record_writes(monkeypatch)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=8)
        job = manager.submit(ExecutionRequest(
            inputs=inputs, benchmark="hotspot2d", steps=32))
        final = manager.wait(job["job_id"], timeout_s=60.0)
        _descriptor, result = manager.result(job["job_id"])
        manager.close()
        assert (final["status"], final["completed_steps"]) == (COMPLETED, 32)
        assert result.tobytes() == np.asarray(
            bench.iterate(inputs, 32), dtype=np.float64).tobytes()
        assert writes == [("inputs.rpg", 2), ("job.json", 0),
                          ("ckpt-00000008.rpg", 1), ("ckpt-00000016.rpg", 1),
                          ("ckpt-00000024.rpg", 1), ("result.rpg", 1),
                          ("job.json", 0)]

        directory = tmp_path / job["job_id"]
        assert json.loads((directory / "job.json").read_text())[
            "completed_steps"] == 32
        assert len(list(directory.glob("inputs*"))) == 1
        inputs_meta, (temp, power), (_temp, power_descriptor) = _unframe(
            (directory / "inputs.rpg").read_bytes())
        assert inputs_meta["slots"] == [0, 1]
        assert temp.tobytes() == np.asarray(inputs[0], np.float64).tobytes()
        assert power.tobytes() == np.asarray(inputs[1], np.float64).tobytes()
        checkpoints = sorted(directory.glob("ckpt-*.rpg"))
        assert [path.name for path in checkpoints] == [
            "ckpt-00000016.rpg", "ckpt-00000024.rpg"]
        for path in checkpoints:
            meta, grids, _descriptors = _unframe(path.read_bytes())
            assert [grid.shape for grid in grids] == [(512, 512)]
            assert meta["static"] == [{"slot": 1, **power_descriptor}]

    @pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
    def test_every_app_checkpoints_only_its_carried_slots(
            self, key, backend, tmp_path, monkeypatch):
        carry = get_benchmark(key).carry_spec()
        static = [slot for slot, entry in enumerate(carry) if entry is None]
        writes = _record_writes(monkeypatch)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        job = manager.submit(_request_for(key, np.float64))
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()
        carried = len(carry) - len(static)
        assert writes == [
            ("inputs.rpg", len(carry)), ("job.json", 0),
            ("ckpt-00000004.rpg", carried), ("ckpt-00000008.rpg", carried),
            ("result.rpg", 1), ("job.json", 0)]
        directory = tmp_path / job["job_id"]
        meta, _grids, _descriptors = _unframe((directory / "ckpt-00000008.rpg").read_bytes())
        assert [descriptor["slot"] for descriptor in meta["static"]] == static

    def test_submit_fsyncs_the_job_dir_before_it_answers(
            self, backend, tmp_path, monkeypatch):
        """The new job's entry in job_dir is durable only once job_dir
        itself is fsynced, after the job's first file landed."""
        synced = []
        real_fsync = jobs_module.os.fsync

        def recording(fd):
            synced.append(jobs_module.os.readlink(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        monkeypatch.setattr(jobs_module.os, "fsync", recording)
        manager = JobManager(backend, job_dir=str(tmp_path))
        manager._ensure_worker = lambda: None  # only the submit's fsyncs
        job = manager.submit(_request_for("hotspot2d", np.float64))
        answered = list(synced)
        manager.close()
        directory = str(tmp_path / job["job_id"])
        assert answered.index(str(tmp_path)) > answered.index(
            f"{directory}/inputs.rpg.tmp")
        assert answered.count(str(tmp_path)) == 1


def _hold_checkpoint_writes(monkeypatch):
    """Hold every post-submit checkpoint write open until released.

    Returns ``(entered, release)``: ``entered`` is set once the writer is
    inside ``_atomic_write`` for a ``ckpt-`` file, and the write goes
    through only after ``release`` is set.
    """
    entered, release = threading.Event(), threading.Event()
    real_write = jobs_module._atomic_write

    def held_write(path, *pieces):
        if path.name.startswith("ckpt-"):
            entered.set()
            assert release.wait(timeout=30.0)
        real_write(path, *pieces)

    monkeypatch.setattr(jobs_module, "_atomic_write", held_write)
    return entered, release


class TestCheckpointPipeline:
    """Segment k's checkpoint is written while segment k+1 computes: what
    must hold about order, failure, latency and memory."""

    @pytest.mark.parametrize("segment,at", [
        (segment, at) for segment in (1, 3, STEPS)
        for at in range(1, -(-STEPS // segment) + 1)])  # every boundary
    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_crash_after_any_checkpoint_resumes_bit_identically(
            self, key, segment, at, backend, tmp_path):
        expected = _reference(key, np.float64)
        crashed, job = _crash_at(backend, tmp_path, key, segment, at=at)
        crashed.close()
        # job.json is as submitted: recovery reads the step from the
        # newest checkpoint, or inputs.rpg (step 0) before there is one.
        # The last boundary writes result.rpg and no checkpoint, so a crash
        # there leaves the previous boundary as the newest durable step.
        last = at * segment >= STEPS
        directory = tmp_path / job["job_id"]
        manifest = json.loads((directory / "job.json").read_text())
        checkpoints = sorted(directory.glob("ckpt-*.rpg"))
        durable = (_unframe(checkpoints[-1].read_bytes())[0]["step"]
                   if checkpoints else 0)
        assert (manifest["status"], manifest["completed_steps"]) == (
            "queued", 0)
        assert durable == (at - last) * segment
        assert (directory / "result.rpg").exists() == last
        assert not list(directory.glob("*.tmp"))

        recovered = _recover_and_finish(backend, tmp_path, job, segment)
        _descriptor, result = recovered.result(job["job_id"])
        assert result.tobytes() == expected.tobytes()
        recovered.close()

    def test_writer_failure_fails_the_job_not_the_manager(
            self, backend, tmp_path, monkeypatch):
        real_write = jobs_module._atomic_write
        checkpoints = []

        def failing_write(path, *pieces):
            if path.name.startswith("ckpt-"):
                checkpoints.append(path.name)
                if len(checkpoints) == 1:
                    raise OSError(28, "No space left on device")
            real_write(path, *pieces)

        monkeypatch.setattr(jobs_module, "_atomic_write", failing_write)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = manager.submit(_request_for("hotspot2d", np.float64))
        final = manager.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == FAILED
        assert "OSError" in final["error"]
        assert "No space left on device" in final["error"]
        assert final["completed_steps"] == 0  # nothing past step 0 was durable
        directory = tmp_path / job["job_id"]
        assert list(directory.glob("ckpt-*")) == []
        assert _unframe((directory / "inputs.rpg").read_bytes())[
            0]["slots"] == [0, 1]

        healthy = manager.submit(_request_for("hotspot2d", np.float64))
        assert manager.wait(healthy["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        _descriptor, result = manager.result(healthy["job_id"])
        assert result.tobytes() == _reference("hotspot2d",
                                              np.float64).tobytes()
        manager.close()

    def test_status_does_not_wait_behind_a_checkpoint_write(
            self, backend, tmp_path, monkeypatch):
        entered, release = _hold_checkpoint_writes(monkeypatch)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = manager.submit(_request_for("hotspot2d", np.float64))
        assert entered.wait(timeout=30.0)
        started = time.perf_counter()
        status = manager.status(job["job_id"])
        elapsed = time.perf_counter() - started
        release.set()
        assert elapsed < 0.05
        # The held checkpoint is not durable yet, so it is not reported.
        assert (status["status"], status["completed_steps"]) == ("running", 0)
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()

    @pytest.mark.parametrize("how", ["cancel", "deadline"])
    def test_stop_with_a_checkpoint_in_flight_drains_the_writer(
            self, how, backend, tmp_path, monkeypatch):
        entered, release = _hold_checkpoint_writes(monkeypatch)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = manager.submit(
            _request_for("hotspot2d", np.float64, steps=1000))
        assert entered.wait(timeout=30.0)
        if how == "cancel":
            manager.cancel(job["job_id"])
        else:
            manager._get(job["job_id"]).deadline_at = time.time() - 1.0
        release.set()
        final = manager.wait(job["job_id"], timeout_s=30.0)
        if how == "cancel":
            assert final["status"] == JOB_CANCELLED
        else:
            assert (final["status"], final["code"]) == (FAILED,
                                                        DEADLINE_EXCEEDED)
        # Drained before the status flipped: nothing is in flight, and the
        # steps the job reports are the steps its newest checkpoint holds.
        assert manager._pending is None
        newest = sorted((tmp_path / job["job_id"]).glob("ckpt-*.rpg"))[-1]
        assert _unframe(newest.read_bytes())[0]["step"] == \
            final["completed_steps"] > 0
        worker = manager._worker
        manager.close()
        assert not worker.is_alive()

    def test_close_mid_segment_lands_the_stopping_checkpoint(
            self, backend, tmp_path):
        # close() that does not wait: the worker still hands off the
        # checkpoint of the boundary it stops at, that write lands, and
        # the worker exits; recovery resumes from that checkpoint.
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=2)
        job = manager.submit(
            _request_for("hotspot2d", np.float64, steps=10 ** 6))
        deadline = time.monotonic() + 30
        while manager.status(job["job_id"])["completed_steps"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        worker = manager._worker
        manager.close(timeout_s=0)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert manager._pending is None
        stopped_at = manager.status(job["job_id"])["completed_steps"]
        newest = sorted((tmp_path / job["job_id"]).glob("ckpt-*.rpg"))[-1]
        assert _unframe(newest.read_bytes())[0]["step"] == stopped_at > 0

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=2)
        assert recovered.recover() == 1
        resumed = recovered.status(job["job_id"])
        assert resumed["resumes"] == 1
        assert resumed["completed_steps"] >= stopped_at
        recovered.close(timeout_s=10.0)

    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_at_most_two_carry_states_are_alive(self, key, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=1)
        handed_off, alive = [], []
        write_checkpoint = manager._write_checkpoint

        def count_alive() -> None:
            alive.append(sum(any(ref() is not None for ref in refs)
                             for refs in handed_off))

        # Counted over carried slots: a static slot is the submitted array
        # itself, alive as long as the request is.
        spec = normalize_carry(DigestRouter().plan_for(key).carry,
                               len(_request_for(key, np.float64).inputs))

        def watched(job, step, state):
            handed_off.append([weakref.ref(grid) for grid, entry
                               in zip(state, spec) if entry is not None])
            count_alive()
            write_checkpoint(job, step, state)
            count_alive()

        manager._write_checkpoint = watched
        job = manager.submit(_request_for(key, np.float64))
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()
        assert len(handed_off) == STEPS - 1  # none behind the result
        # The state being written and the one the next segment produced.
        assert 1 <= max(alive) <= 2
        count_alive()  # after completion only the result's grid survives
        assert alive[-1] <= 1


    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_static_slots_are_the_submitted_arrays(self, key, backend):
        # A boundary copies only the carried slots, read-only; a static
        # slot is never copied, so what job.state and the writer hold of
        # it is the submitted grid itself.
        manager = JobManager(backend, checkpoint_every=2)
        request = _request_for(key, np.float64)
        spec = normalize_carry(DigestRouter().plan_for(key).carry,
                               len(request.inputs))
        handed_off = []
        write_checkpoint = manager._write_checkpoint

        def watched(job, step, state):
            handed_off.append((state, job.state))
            write_checkpoint(job, step, state)

        manager._write_checkpoint = watched
        job = manager.submit(request)
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()
        assert len(handed_off) == (STEPS - 1) // 2
        assert None in spec
        for state, kept in handed_off:
            assert kept is state
            for slot, entry in enumerate(spec):
                if entry is None:
                    assert state[slot] is request.inputs[slot]
                else:
                    assert not state[slot].flags.writeable

    def test_wait_histogram_and_stats_show_the_writer(self, backend, tmp_path):
        histogram = "repro_job_checkpoint_wait_seconds"
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=1)
        job = manager.submit(_request_for("hotspot2d", np.float64))
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        stats = manager.stats()
        manager.close()
        # One wait per boundary and one before the status flips; one
        # persist per boundary but the last (result.rpg is the final
        # state); inputs.rpg at submit is no checkpoint.
        assert manager.metrics.snapshot()[histogram]["count"] == STEPS + 1
        assert stats["checkpoints_written"] == STEPS - 1
        assert stats["checkpoint_s"] > 0.0
        assert stats["checkpoint_wait_s"] > 0.0


def _boundary_state(backend, key: str, job: Job):
    """The read-only boundary state after 2 steps of ``key``, whose static
    slots ``job`` records (as :meth:`JobManager._run_job` does)."""
    request = _request_for(key, np.float64)
    route = DigestRouter().plan_for(key)
    states = []
    run_trajectory(backend, route.program, request.inputs, 4, route.carry,
                   None, True, segment=2,
                   boundary=lambda done, state: states.append(state)
                   if done else None)
    spec = normalize_carry(route.carry, len(request.inputs))
    job.digest, job.num_inputs = route.digest, len(request.inputs)
    job.static = [{"slot": slot, "shape": [1], "dtype": "float64",
                   "sha256": "0" * 64}
                  for slot, entry in enumerate(spec) if entry is None]
    return states[0]


def _fresh(grids):
    """Read-only copies of ``grids``: array objects no digest is known for."""
    copies = [np.array(grid) for grid in grids]
    for copy in copies:
        copy.flags.writeable = False
    return copies


def _count_hashed(monkeypatch):
    """The byte count of every buffer the wire hashes from now on."""
    hashed = []
    sha256_all = wire_module._sha256_all

    def counting(buffers):
        hashed.extend(buffer.nbytes for buffer in buffers)
        return sha256_all(buffers)

    monkeypatch.setattr(wire_module, "_sha256_all", counting)
    return hashed


class TestWorkerFraming:
    """A checkpoint or result the worker hashes while the writer is busy is
    the file the writer would have framed, byte for byte."""

    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_a_checkpoint_hashed_ahead_is_byte_identical(
            self, key, backend, tmp_path, monkeypatch):
        job = Job(job_id="0123456789abcdef", job_key="k", benchmark=key,
                  steps=STEPS, checkpoint_every=2, num_inputs=0)
        state = _boundary_state(backend, key, job)
        assert job.static  # both apps keep a static slot out of the frame
        files = {}
        for where in ("writer", "worker"):
            manager = JobManager(backend, job_dir=str(tmp_path / where))
            fresh = _fresh(state)
            if where == "worker":
                _hash_ahead(manager._carried(job, fresh))
            hashed = _count_hashed(monkeypatch)
            manager._persist_checkpoint(job, 2, fresh)
            monkeypatch.undo()
            manager.close()
            carried = manager._carried(job, fresh)
            assert hashed == ([] if where == "worker"
                              else [grid.nbytes for grid in carried])
            files[where] = (tmp_path / where / job.job_id
                            / "ckpt-00000002.rpg").read_bytes()
        assert files["worker"] == files["writer"]
        meta, grids, descriptors = _unframe(files["worker"])
        assert (meta["step"], meta["static"]) == (2, job.static)
        assert [grid.tobytes() for grid in grids] == [
            grid.tobytes() for grid in manager._carried(job, state)]
        assert [descriptor["sha256"] for descriptor in descriptors] == [
            hashlib.sha256(grid.tobytes()).hexdigest() for grid in grids]

    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d"])
    def test_a_result_hashed_ahead_is_byte_identical(
            self, key, backend, tmp_path, monkeypatch):
        job = Job(job_id="0123456789abcdef", job_key="k", benchmark=key,
                  steps=STEPS, checkpoint_every=2, num_inputs=0)
        (result,) = _fresh([_reference(key, np.float64)])
        files = {}
        for where in ("writer", "worker"):
            manager = JobManager(backend, job_dir=str(tmp_path / where))
            (fresh,) = _fresh([result])
            if where == "worker":
                _hash_ahead([fresh])
            hashed = _count_hashed(monkeypatch)
            manager._persist_result(job, fresh)
            monkeypatch.undo()
            manager.close()
            assert hashed == ([] if where == "worker" else [result.nbytes])
            files[where] = (tmp_path / where / job.job_id
                            / "result.rpg").read_bytes()
        assert files["worker"] == files["writer"]
        _meta, _grids, (descriptor,) = _unframe(files["worker"])
        assert verified_sha256(fresh) == descriptor["sha256"] == (
            hashlib.sha256(result.tobytes()).hexdigest())

    def test_a_writable_grid_is_left_for_the_framer(self):
        frozen, writable = _fresh([np.arange(6.0), np.arange(7.0)])
        writable.flags.writeable = True
        _hash_ahead([frozen, writable])
        assert verified_sha256(frozen) == hashlib.sha256(
            frozen.tobytes()).hexdigest()
        assert verified_sha256(writable) is None

    def test_a_busy_writer_gets_hashed_checkpoints_and_corruption_still_falls_back(
            self, backend, tmp_path, monkeypatch):
        """Every checkpoint write takes 50 ms, so the worker finds the
        writer busy at each boundary and hashes ahead; the corrupt flip
        still lands after the checksums, and recovery falls back."""
        expected = _reference("hotspot2d", np.float64)
        real_write = jobs_module._atomic_write

        def slow_write(path, *pieces):
            if path.name.startswith("ckpt-"):
                time.sleep(0.05)
            real_write(path, *pieces)

        ahead = []
        real_ahead = jobs_module._hash_ahead

        def recording(grids):
            ahead.append((threading.current_thread().name,
                          [grid.shape for grid in grids]))
            real_ahead(grids)

        monkeypatch.setattr(jobs_module, "_atomic_write", slow_write)
        monkeypatch.setattr(jobs_module, "_hash_ahead", recording)
        # Checkpoints at steps 4 and 8: the boundary at 8 finds step 4's
        # write running; the crash right after the corrupt step 8 lands.
        faults.arm("job.checkpoint_corrupt:at=2,"
                   "job.crash_after_checkpoint:at=2")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        job = crashed.submit(_request_for("hotspot2d", np.float64))
        _wait_for_worker_death(crashed)
        faults.disarm()
        crashed.close()
        # Step 8's carried grid (step 4's write still running) and the
        # result, both before the drain that re-raises the crash.
        assert ahead == [("repro-jobs", [(13, 11)])] * 2

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 1
        assert recovered.stats()["corrupt_checkpoints"] == 1
        final = recovered.wait(job["job_id"], timeout_s=30.0)
        assert (final["status"], final["resumes"]) == (COMPLETED, 1)
        _descriptor, result = recovered.result(job["job_id"])
        assert result.tobytes() == expected.tobytes()
        recovered.close()
        # Resumed from step 4, the job hands step 8 to an idle writer,
        # which hashes it: the worker hashes only its result ahead.
        assert ahead[2:] == [("repro-jobs", [(13, 11)])]


@pytest.mark.skipif(len(helpers.usable_cpus()) < 2,
                    reason="needs two usable CPUs")
class TestWriterPlacement:
    def test_the_writer_is_pinned_off_the_workers_cpu_at_every_hand_off(
            self, backend, tmp_path, monkeypatch):
        """Woken on the worker's CPU, the helper writing a checkpoint would
        share it with the next segment.  A newly spawned helper is pinned
        too."""
        if helpers.current_cpu() is None:
            pytest.skip("the C library has no sched_getcpu")
        usable = helpers.usable_cpus()
        hand_offs = []
        submit = helpers.HelperPool.submit

        def watched(self, fn, *args):
            if getattr(fn, "__name__", None) != "_write_checkpoint":
                return submit(self, fn, *args)
            seen = {}

            def write(*args):
                seen.update(thread=threading.current_thread(),
                            pinned=os.sched_getaffinity(0))
                return fn(*args)

            before = helpers.current_cpu()
            future = submit(self, write, *args)
            if helpers.current_cpu() == before:  # not migrated meanwhile
                hand_offs.append((before, seen))
            return future

        monkeypatch.setattr(helpers.HelperPool, "submit", watched)
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=1)
        pools = []
        for _round in range(2):
            pools.append(helpers.HelperPool())  # its helpers spawn afresh
            monkeypatch.setattr(helpers, "_POOL", pools[-1])
            start = len(hand_offs)
            job = manager.submit(_request_for("hotspot2d", np.float64))
            assert manager.wait(job["job_id"],
                                timeout_s=30.0)["status"] == COMPLETED
            mine = hand_offs[start:]
            assert len(mine) >= (STEPS - 1) // 2
            for cpu, seen in mine:
                assert seen["thread"].name.startswith("repro-helper-")
                assert seen["pinned"] == usable - {cpu}
        manager.close()
        assert pools[0]._threads >= 1 and pools[1]._threads >= 1


class TestIdempotency:
    def test_double_submit_returns_the_same_job(self, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path))
        first = manager.submit(_request_for("heat", np.float64),
                               job_key="k-1")
        again = manager.submit(_request_for("heat", np.float64),
                               job_key="k-1")
        assert again["job_id"] == first["job_id"]
        assert manager.stats()["jobs"] != {}
        manager.wait(first["job_id"], timeout_s=30.0)
        manager.close()

    def test_submit_after_restart_dedups_from_disk(self, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path))
        first = manager.submit(_request_for("heat", np.float64),
                               job_key="k-2")
        manager.wait(first["job_id"], timeout_s=30.0)
        manager.close()

        restarted = JobManager(backend, job_dir=str(tmp_path))
        restarted.recover()
        again = restarted.submit(_request_for("heat", np.float64),
                                 job_key="k-2")
        assert again["job_id"] == first["job_id"]
        assert again["status"] == COMPLETED
        restarted.close()

    def test_program_carrying_requests_are_rejected(self, backend):
        manager = JobManager(backend)
        bench = get_benchmark("stencil2d")
        request = ExecutionRequest.for_program(
            bench.build_program(), bench.make_inputs((13, 11), 0))
        with pytest.raises(JobError, match="benchmark-keyed"):
            manager.submit(request)
        manager.close()


class TestSubmitOutsideTheLock:
    """A submit writes its job's files without the manager lock: other jobs'
    queries answer meanwhile, and its key stays reserved."""

    @staticmethod
    def _held_inputs_write(monkeypatch):
        writing, release = threading.Event(), threading.Event()
        real_write = jobs_module._atomic_write

        def held(path, *pieces):
            if path.name == "inputs.rpg":
                writing.set()
                assert release.wait(30.0)
            real_write(path, *pieces)

        monkeypatch.setattr(jobs_module, "_atomic_write", held)
        return writing, release

    def test_a_status_answers_while_a_submit_writes_its_inputs(
            self, backend, tmp_path, monkeypatch):
        manager = JobManager(backend, job_dir=str(tmp_path))
        other = manager.submit(_request_for("heat", np.float64))
        writing, release = self._held_inputs_write(monkeypatch)
        with ThreadPoolExecutor(3) as pool:
            try:
                first = pool.submit(manager.submit,
                                    _request_for("heat", np.float64),
                                    job_key="held")
                assert writing.wait(10.0)
                status = pool.submit(manager.status, other["job_id"])
                assert status.result(timeout=5.0)["job_id"] == \
                    other["job_id"]
                # The same key answers only once the files are durable.
                again = pool.submit(manager.submit,
                                    _request_for("heat", np.float64),
                                    job_key="held")
                time.sleep(0.05)
                assert not again.done()
            finally:
                release.set()
            first, again = first.result(30.0), again.result(30.0)
        assert again["job_id"] == first["job_id"]
        assert manager.wait(first["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()
        assert manager.stats()["jobs"] == {COMPLETED: 2}
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [other["job_id"], first["job_id"]])

    def test_a_failed_submit_releases_its_key(
            self, backend, tmp_path, monkeypatch):
        real_write = jobs_module._atomic_write
        failures = []

        def failing_once(path, *pieces):
            if path.name == "inputs.rpg" and not failures:
                failures.append(path)
                raise OSError(28, "No space left on device")
            real_write(path, *pieces)

        monkeypatch.setattr(jobs_module, "_atomic_write", failing_once)
        manager = JobManager(backend, job_dir=str(tmp_path))
        with pytest.raises(OSError, match="No space left"):
            manager.submit(_request_for("heat", np.float64), job_key="k")
        assert manager.stats()["jobs"] == {}
        job = manager.submit(_request_for("heat", np.float64), job_key="k")
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        manager.close()


class TestSubmitFields:
    """``job_submit``'s ``checkpoint_every`` is absent or an integer >= 1
    (JSON or decimal text, like ``trace``'s ``limit``)."""

    @staticmethod
    def _submit(**fields):
        async def main():
            service = StencilService()
            async with service:
                reply = await dispatch(service, "job_submit", {
                    "benchmark": "heat", "shape": [8, 8, 8], "steps": 2,
                    **fields})
                for job in service.jobs.list_jobs():
                    service.jobs.wait(job["job_id"], timeout_s=30.0)
                return reply.meta
        return asyncio.run(main())

    @pytest.mark.parametrize("every", [0, -3, 2.7, True, "0", "2.7"],
                             ids=["0", "-3", "2.7", "true", "text-0",
                                  "text-2.7"])
    def test_anything_but_a_positive_integer_is_a_bad_request(self, every):
        meta = self._submit(checkpoint_every=every)
        assert (meta["ok"], meta["code"]) == (False, BAD_REQUEST), meta
        assert "checkpoint_every must be an integer >= 1" in meta["error"]

    @pytest.mark.parametrize("every, kept", [(None, 16), (3, 3), ("4", 4)])
    def test_absent_is_the_server_default_and_an_integer_is_kept(
            self, every, kept):
        fields = {} if every is None else {"checkpoint_every": every}
        meta = self._submit(**fields)
        assert meta["ok"], meta
        assert meta["job"]["checkpoint_every"] == kept

    def test_the_manager_refuses_an_explicit_zero(self, backend):
        manager = JobManager(backend)
        with pytest.raises(JobError, match="checkpoint_every"):
            manager.submit(_request_for("heat", np.float64),
                           checkpoint_every=0)
        manager.close()


class TestLifecycle:
    def test_deadline_sheds_between_segments_with_structured_code(
            self, backend):
        manager = JobManager(backend, checkpoint_every=1)
        request = _request_for("stencil2d", np.float64, steps=50)
        request.deadline_ms = 0.001  # expired by the first boundary check
        job = manager.submit(request)
        final = manager.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == FAILED
        assert final["code"] == DEADLINE_EXCEEDED
        assert "deadline exceeded after" in final["error"]
        manager.close()

    def test_cancel_takes_effect_and_result_is_refused(self, backend):
        manager = JobManager(backend, checkpoint_every=1)
        job = manager.submit(_request_for("heat", np.float64, steps=100000))
        manager.cancel(job["job_id"])
        final = manager.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == JOB_CANCELLED
        with pytest.raises(JobError, match="not completed"):
            manager.result(job["job_id"])
        manager.close()

    def test_close_fails_a_running_memory_only_job_unavailable(
            self, backend):
        # No job dir to resume from: the drain stops the job at its next
        # boundary and says why, as a stopping service fails its queue.
        manager = JobManager(backend, checkpoint_every=1)
        job = manager.submit(_request_for("heat", np.float64, steps=10 ** 9))
        deadline = time.monotonic() + 30
        while manager.status(job["job_id"])["completed_steps"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        worker = manager._worker
        manager.close()
        assert not worker.is_alive()
        final = manager.status(job["job_id"])
        assert (final["status"], final["code"], final["error"]) == (
            FAILED, UNAVAILABLE, "service stopped")

    def test_close_fails_a_queued_memory_only_job_unavailable(
            self, backend):
        # Nothing resumes a memory-only job still queued behind the
        # running one either: it fails as that one does.
        manager = JobManager(backend, checkpoint_every=1)
        running, queued = (
            manager.submit(_request_for("heat", np.float64, steps=10 ** 9))
            for _ in range(2))
        deadline = time.monotonic() + 30
        while manager.status(running["job_id"])["completed_steps"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert manager.status(queued["job_id"])["status"] == "queued"
        manager.close()
        for job in (running, queued):
            final = manager.status(job["job_id"])
            assert (final["status"], final["code"], final["error"]) == (
                FAILED, UNAVAILABLE, "service stopped")
        assert not manager._queue

    @pytest.mark.parametrize("durable", [False, True])
    def test_a_submit_after_close_is_refused_before_any_file(
            self, durable, backend, tmp_path):
        # No worker runs a job accepted after close: a memory-only one
        # would read queued forever.
        manager = JobManager(backend,
                             job_dir=str(tmp_path) if durable else None)
        manager.close()
        with pytest.raises(JobError, match="closed"):
            manager.submit(_request_for("heat", np.float64))
        assert manager.list_jobs() == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["acoustic", "hotspot2d", "jacobi2d5pt"])
    def test_close_leaves_durable_jobs_that_recover_finishes_bit_identically(
            self, key, backend, tmp_path, monkeypatch):
        """The running job stops at its first boundary past step 0 once
        close has begun, the queued one stays queued, and both job.json
        files still read queued for the next recover()."""
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        held = threading.Event()
        real_run = jobs_module.run_trajectory

        def held_run(*args, boundary, **kwargs):
            def holding(done, state):
                if done and not held.is_set():
                    held.set()
                    deadline = time.monotonic() + 30
                    while not manager._closed:
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                return boundary(done, state)
            return real_run(*args, boundary=holding, **kwargs)

        monkeypatch.setattr(jobs_module, "run_trajectory", held_run)
        running, queued = (manager.submit(_request_for(key, np.float64))
                           for _ in range(2))
        assert held.wait(timeout=30.0)
        worker = manager._worker
        manager.close()
        assert not worker.is_alive()
        for job in (running, queued):
            manifest = json.loads(
                (tmp_path / job["job_id"] / "job.json").read_text())
            assert manifest["status"] == "queued"
        newest = sorted((tmp_path / running["job_id"]).glob("ckpt-*.rpg"))
        assert _unframe(newest[-1].read_bytes())[0]["step"] == 4
        assert not list((tmp_path / queued["job_id"]).glob("ckpt-*.rpg"))

        expected = _reference(key, np.float64)
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 2
        for job in (running, queued):
            final = recovered.wait(job["job_id"], timeout_s=30.0)
            assert (final["status"], final["resumes"]) == (COMPLETED, 1)
            _descriptor, result = recovered.result(job["job_id"])
            assert result.tobytes() == expected.tobytes()
        recovered.close()

    def test_unknown_job_raises_not_found(self, backend):
        manager = JobManager(backend)
        with pytest.raises(JobNotFound):
            manager.status("nope")
        manager.close()


class TestRetention:
    def test_ttl_purges_terminal_jobs_from_memory_and_disk(
            self, backend, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "JOB_TTL_S", 0.05)
        manager = JobManager(backend, job_dir=str(tmp_path))
        job = manager.submit(_request_for("heat", np.float64))
        manager.wait(job["job_id"], timeout_s=30.0)
        job_path = tmp_path / job["job_id"]
        assert job_path.is_dir()
        time.sleep(0.1)
        manager.list_jobs()  # any query sweeps
        with pytest.raises(JobNotFound):
            manager.status(job["job_id"])
        assert not job_path.exists()
        manager.close()

    def test_max_resident_evicts_to_disk_and_reloads_bit_identically(
            self, backend, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_RESIDENT_RESULTS", 2)
        expected = _reference("heat", np.float64)
        manager = JobManager(backend, job_dir=str(tmp_path))
        jobs = []
        for index in range(4):
            job = manager.submit(_request_for("heat", np.float64),
                                 job_key=f"resident-{index}")
            manager.wait(job["job_id"], timeout_s=30.0)
            jobs.append(job)
        stats = manager.stats()
        assert stats["results_evicted"] >= 2
        assert stats["resident_results"] <= 2
        # The evicted results are still served — reloaded and re-validated
        # from their result file.
        for job in jobs:
            _descriptor, result = manager.result(job["job_id"])
            assert result.tobytes() == expected.tobytes()
        manager.close()

    def test_terminal_jobs_release_their_carry_state(
            self, backend, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_RESIDENT_RESULTS", 1)
        expected = _reference("hotspot2d", np.float64)
        manager = JobManager(backend, job_dir=str(tmp_path))
        jobs = []
        for _ in range(5):
            job = manager.submit(_request_for("hotspot2d", np.float64))
            assert manager.wait(job["job_id"],
                                timeout_s=30.0)["status"] == COMPLETED
            jobs.append(job)
        cancelled = manager.submit(
            _request_for("hotspot2d", np.float64, steps=100000))
        manager.cancel(cancelled["job_id"])
        manager.wait(cancelled["job_id"], timeout_s=30.0)
        # MAX_RESIDENT_RESULTS bounds what completed jobs hold: one result,
        # no state.
        assert manager.stats()["resident_results"] == 1
        assert [record.state for record in manager._jobs.values()] == [None] * 6
        _descriptor, result = manager.result(jobs[0]["job_id"])  # evicted
        assert result.tobytes() == expected.tobytes()
        assert manager.stats()["resident_results"] == 1
        manager.close()

    @staticmethod
    def _resident(manager: JobManager) -> float:
        return manager.metrics.snapshot()[
            "repro_jobs_resident_results"]["value"]

    def _completed(self, manager: JobManager, key: str = "hotspot2d"):
        job = manager.submit(_request_for(key, np.float64))
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        return job["job_id"]

    def test_a_served_durable_result_leaves_memory(self, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path))
        job_id = self._completed(manager)
        assert self._resident(manager) == 1
        _descriptor, first = manager.result(job_id)
        assert self._resident(manager) == 0
        # result.rpg is its only home now: the next fetch reloads it, one
        # read-only view of the file's buffer, bit-identical to the first.
        _descriptor, second = manager.result(job_id)
        assert second is not first
        assert second.tobytes() == first.tobytes() == _reference(
            "hotspot2d", np.float64).tobytes()
        assert not second.flags.writeable
        buffer = _buffer_of(second)
        assert isinstance(buffer, bytearray)
        assert len(buffer) == (tmp_path / job_id / "result.rpg").stat().st_size
        assert verified_sha256(second) == hashlib.sha256(
            second.tobytes()).hexdigest()
        assert self._resident(manager) == 0
        assert manager.stats()["results_evicted"] == 0
        manager.close()

    def test_a_byte_flipped_after_the_first_fetch_fails_the_second(
            self, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path))
        job_id = self._completed(manager)
        manager.result(job_id)
        path = tmp_path / job_id / "result.rpg"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JobIntegrityError, match="checksum"):
            manager.result(job_id)
        manager.close()

    def test_a_memory_only_manager_serves_a_result_twice(self, backend):
        manager = JobManager(backend)
        job_id = self._completed(manager)
        _descriptor, first = manager.result(job_id)
        _descriptor, second = manager.result(job_id)
        assert second is first
        assert self._resident(manager) == 1
        manager.close()

    def test_memory_only_eviction_takes_served_results_first(
            self, backend, monkeypatch):
        """An older unserved result outlives a newer served one: memory is
        a memory-only manager's only home for either."""
        monkeypatch.setattr(jobs_module, "MAX_RESIDENT_RESULTS", 2)
        manager = JobManager(backend)
        unserved = self._completed(manager)
        served = self._completed(manager)
        manager.result(served)
        newest = self._completed(manager)  # three results, bound two
        assert manager.stats()["results_evicted"] == 1
        for job_id in (unserved, newest):
            _descriptor, result = manager.result(job_id)
            assert result.tobytes() == _reference(
                "hotspot2d", np.float64).tobytes()
        with pytest.raises(JobError, match="no longer resident"):
            manager.result(served)
        manager.close()

    def test_a_refetch_reads_its_file_outside_the_manager_lock(
            self, backend, tmp_path, monkeypatch):
        """While one fetch reads ``result.rpg``, another job's status
        answers: the read does not hold the lock every job op takes."""
        manager = JobManager(backend, job_dir=str(tmp_path))
        fetched, other = self._completed(manager), self._completed(manager)
        manager.result(fetched)  # the next fetch reloads result.rpg
        reading, release = threading.Event(), threading.Event()
        read_file = jobs_module._read_file

        def parked(path):
            reading.set()
            release.wait(30.0)
            return read_file(path)

        monkeypatch.setattr(jobs_module, "_read_file", parked)
        with ThreadPoolExecutor(2) as pool:
            try:
                refetch = pool.submit(manager.result, fetched)
                assert reading.wait(10.0)
                status = pool.submit(manager.status, other)
                assert status.result(timeout=5.0)["status"] == COMPLETED
            finally:
                release.set()
            _descriptor, result = refetch.result(timeout=30.0)
        assert result.tobytes() == _reference(
            "hotspot2d", np.float64).tobytes()
        manager.close()

    def test_a_result_the_sweep_removed_mid_fetch_is_not_found(
            self, backend, tmp_path, monkeypatch):
        manager = JobManager(backend, job_dir=str(tmp_path))
        job_id = self._completed(manager)
        manager.result(job_id)
        read_file = jobs_module._read_file

        def swept_first(path):
            monkeypatch.setattr(jobs_module, "JOB_TTL_S", 0.0)
            manager._sweep()
            return read_file(path)

        monkeypatch.setattr(jobs_module, "_read_file", swept_first)
        with pytest.raises(JobNotFound, match=job_id):
            manager.result(job_id)
        assert not (tmp_path / job_id).exists()
        manager.close()


class TestWireIntegrity:
    def test_payload_roundtrip_carries_and_validates_checksums(self):
        rng = np.random.default_rng(11)
        grids = [rng.random((5, 7)),
                 rng.random((3, 4)).astype(np.float32)]
        body = _joined(*encode_grid_payload({"benchmark": "x"}, grids))
        meta, decoded = decode_grid_payload(body)
        assert meta == {"benchmark": "x"}
        for original, copy in zip(grids, decoded):
            assert copy.dtype == original.dtype
            assert copy.tobytes() == original.tobytes()

    def test_flipped_grid_byte_is_detected_at_decode(self):
        grids = [np.arange(20, dtype=np.float64).reshape(4, 5)]
        body = _joined(*encode_grid_payload({}, grids))
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            decode_grid_payload(_flip_last_byte(body))

    def test_wire_payload_corrupt_fault_is_caught_by_the_receiver(self):
        faults.arm("wire.payload_corrupt")
        grids = [np.ones((3, 3), dtype=np.float64)]
        body = _joined(*encode_grid_payload({}, grids))
        faults.disarm()
        with pytest.raises(WireFormatError, match="corrupted in transit"):
            decode_grid_payload(body)

    def test_the_transport_fault_leaves_job_files_intact(
            self, backend, tmp_path):
        # The flip belongs to what the transports send: a durable job
        # framing its own files with the fault armed writes them whole.
        faults.arm("wire.payload_corrupt")
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=1)
        job = manager.submit(_request_for("hotspot2d", np.float64, steps=4))
        final = manager.wait(job["job_id"], timeout_s=30.0)
        manager.close()
        faults.disarm()
        assert final["status"] == COMPLETED
        directory = tmp_path / job["job_id"]
        files = sorted(path.name for path in directory.glob("*.rpg"))
        assert files == ["ckpt-00000002.rpg", "ckpt-00000003.rpg",
                         "inputs.rpg", "result.rpg"]
        for name in files:
            _unframe((directory / name).read_bytes())
        fresh = JobManager(backend, job_dir=str(tmp_path))
        assert fresh.recover() == 0
        _descriptor, result = fresh.result(job["job_id"])
        assert result.tobytes() == _reference("hotspot2d", np.float64,
                                              steps=4).tobytes()
        fresh.close()


def _received(request: ExecutionRequest) -> ExecutionRequest:
    """``request`` as the server rebuilds it from an RPG1 upload: its grids
    are views of the received body, each verified by the wire decoder."""
    body = bytearray(_joined(*encode_grid_payload(request.wire_meta(),
                                                  request.inputs)))
    return ExecutionRequest.from_wire(*decode_grid_payload(body))


class TestReceivedGrids:
    """A submission frames the grids it received under the sha256 the
    decoder verified, and a grid changed since then fails closed."""

    def test_submit_hashes_no_received_byte_again(
            self, backend, tmp_path, monkeypatch):
        request = _received(_request_for("hotspot2d", np.float64))
        submitter = threading.get_ident()
        hashed = []

        def sha256(data=b""):
            if threading.get_ident() == submitter:
                hashed.append(memoryview(data).nbytes)
            return hashlib.sha256(data)

        monkeypatch.setattr(wire_module, "hashlib",
                            SimpleNamespace(sha256=sha256))
        manager = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        job = manager.submit(request)
        monkeypatch.undo()
        assert hashed == []
        final = manager.wait(job["job_id"], timeout_s=30.0)
        assert final["status"] == COMPLETED
        directory = tmp_path / job["job_id"]
        _meta, _grids, held = _unframe(
            (directory / "inputs.rpg").read_bytes())
        assert [d["sha256"] for d in held] == [
            verified_sha256(grid) for grid in request.inputs]
        _descriptor, result = manager.result(job["job_id"])
        assert result.tobytes() == _reference(
            "hotspot2d", np.float64).tobytes()
        manager.close()

    @pytest.mark.parametrize("change", [
        "static grid written in memory", "carried grid written in memory",
        "inputs.rpg edited"])
    def test_a_grid_changed_since_receipt_fails_recovery_closed(
            self, change, backend, tmp_path):
        request = _received(_request_for("hotspot2d", np.float64))
        if change.endswith("in memory"):
            request.inputs[0 if change.startswith("carried") else 1][0, 0] += 1
        # The carried grid's only durable copy is inputs.rpg: a segment of
        # the whole trajectory crashes right after result.rpg, behind it.
        segment = STEPS if change.startswith("carried") else 4
        faults.arm("job.crash_after_checkpoint:at=1")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=segment)
        job = crashed.submit(request)
        _wait_for_worker_death(crashed)
        faults.disarm()
        crashed.close()
        inputs = tmp_path / job["job_id"] / "inputs.rpg"
        if change == "inputs.rpg edited":
            inputs.write_bytes(_flip_last_byte(inputs.read_bytes()))
        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=segment)
        assert recovered.recover() == 0
        final = recovered.status(job["job_id"])
        assert final["status"] == FAILED
        assert "refusing to silently re-run" in final["error"]
        assert recovered.stats()["corrupt_checkpoints"] == 1
        assert recovered._worker is None  # nothing was re-run
        recovered.close()


class TestResultHashedOnce:
    @pytest.mark.parametrize("job_dir", [True, False])
    def test_the_reply_reuses_the_result_files_digest(
            self, job_dir, backend, tmp_path, monkeypatch):
        """result.rpg's sha256 is the job_result reply's; a memory-only
        manager hashes the result once, at reply time."""
        request = _received(_request_for("hotspot2d", np.float64))
        hashed = []

        def sha256(data=b""):
            hashed.append(memoryview(data).nbytes)
            return hashlib.sha256(data)

        monkeypatch.setattr(wire_module, "hashlib",
                            SimpleNamespace(sha256=sha256))
        # One segment: no checkpoint, so the only grid hashes are the
        # result's (the received inputs are framed under their digests).
        manager = JobManager(backend, job_dir=str(tmp_path) if job_dir
                             else None, checkpoint_every=STEPS)
        job = manager.submit(request)
        assert manager.wait(job["job_id"],
                            timeout_s=30.0)["status"] == COMPLETED
        descriptor, result = manager.result(job["job_id"])
        _type, prefix, buffers = encode_reply(
            Reply({"ok": True, "job": descriptor}, result),
            CONTENT_TYPE_GRIDS)
        monkeypatch.undo()
        manager.close()
        assert hashed == [result.nbytes]
        assert not result.flags.writeable
        (sent,) = decode_grid_header(prefix)[0]["grids"]
        assert sent["sha256"] == hashlib.sha256(result.tobytes()).hexdigest()
        if job_dir:
            _meta, _grids, (stored,) = _unframe(
                (tmp_path / job["job_id"] / "result.rpg").read_bytes())
            assert sent["sha256"] == stored["sha256"]
        _meta, (received,) = decode_grid_payload(_joined(prefix, buffers))
        assert received.tobytes() == _reference(
            "hotspot2d", np.float64).tobytes()


class TestSyncPathDeadline:
    def test_multistep_request_is_shed_between_segments(self):
        # A trajectory long enough that the deadline expires mid-run: the
        # sync path must stop at a segment boundary with a structured
        # DeadlineExceeded, not run the remaining steps to completion.
        service = StencilService(batch_window=0.001, checkpoint_every=8)
        with ServiceClient(service) as client:
            request = ExecutionRequest.for_benchmark(
                "heat", shape=(16, 16, 16), steps=50_000, deadline_ms=40.0)
            response = client.execute(request, raise_on_error=False)
        assert response.shed
        assert response.code == DEADLINE_EXCEEDED
        assert "mid-trajectory" in response.error

    def test_multistep_without_deadline_still_completes(self):
        service = StencilService(batch_window=0.001, checkpoint_every=4)
        bench = get_benchmark("hotspot2d")
        inputs = bench.make_inputs((13, 11), seed=2)
        expected = np.asarray(bench.iterate(inputs, 11), dtype=np.float64)
        with ServiceClient(service) as client:
            response = client.execute(ExecutionRequest(
                inputs=[np.array(grid) for grid in inputs],
                benchmark="hotspot2d", steps=11))
        assert response.ok
        assert response.result.tobytes() == expected.tobytes()


def _hold_jobs(service) -> threading.Event:
    """Make the service's job worker hold each job (queued, then running)
    until the returned event is set."""
    release = threading.Event()
    run_job = service.jobs._run_job
    service.jobs._run_job = lambda job: (release.wait(30.0), run_job(job))
    return release


def _with_held_jobs(body, executor_workers: int = 2) -> None:
    """Run ``body(service, release)`` on a started in-process service on a
    default executor of ``executor_workers`` threads, its jobs held
    (:func:`_hold_jobs`).  Every job still pending at the end is
    cancelled first."""
    async def main():
        loop = asyncio.get_running_loop()
        loop.set_default_executor(ThreadPoolExecutor(executor_workers))
        service = StencilService(batch_window=0.001, checkpoint_every=1)
        release = _hold_jobs(service)
        async with service:
            try:
                await body(service, release)
            finally:
                for job in service.jobs.list_jobs():
                    service.jobs.cancel(job["job_id"])
                release.set()

    asyncio.run(main())


def _status_wait(service, job_id: str, wait_ms) -> "asyncio.Future":
    return asyncio.ensure_future(dispatch(
        service, "job_status", {"job_id": job_id, "wait_ms": wait_ms}))


class TestStatusWait:
    """``job_status`` with ``wait_ms``: answered as soon as the job ends,
    by an event-loop future that holds no executor thread."""

    def test_a_wait_is_answered_when_the_job_ends(self):
        async def body(service, release):
            job = service.jobs.submit(_request_for("hotspot2d", np.float64))
            waiting = _status_wait(service, job["job_id"], 30_000)
            await asyncio.sleep(0.1)
            assert not waiting.done()
            started = time.monotonic()
            release.set()
            reply = await asyncio.wait_for(waiting, 10.0)
            assert time.monotonic() - started < 5.0  # not the 30 s
            assert reply.meta["ok"], reply.meta
            assert reply.meta["job"]["status"] == COMPLETED
            assert reply.meta["job"]["completed_steps"] == STEPS
            # An ended job answers at once, whatever the wait.
            reply = await asyncio.wait_for(
                _status_wait(service, job["job_id"], 30_000), 5.0)
            assert reply.meta["job"]["status"] == COMPLETED
            assert service.jobs._waits == {}

        _with_held_jobs(body)

    def test_waits_beyond_the_executor_let_an_execute_through(self):
        # Eight waits on a two-thread executor: a wait that held a thread
        # would starve the execute's off-loop request decoding.
        async def body(service, release):
            job = service.jobs.submit(
                _request_for("heat", np.float64, steps=100_000))
            waits = [_status_wait(service, job["job_id"], 20_000)
                     for _ in range(8)]
            await asyncio.sleep(0.1)
            reply = await asyncio.wait_for(dispatch(
                service, "execute",
                {"benchmark": "stencil2d", "shape": [16, 16]}), 5.0)
            assert reply.meta["ok"], reply.meta
            assert not any(wait.done() for wait in waits)
            # A cancel ends the job: every wait is answered with it.
            service.jobs.cancel(job["job_id"])
            release.set()
            replies = await asyncio.wait_for(asyncio.gather(*waits), 10.0)
            assert {reply.meta["job"]["status"] for reply in replies} == {
                JOB_CANCELLED}

        _with_held_jobs(body, executor_workers=2)

    @pytest.mark.parametrize("wait_ms", [
        "abc", -1, "-1", "nan", "inf", "1e400", float("nan"), float("inf"),
        10 ** 400, True, [5]], ids=[
        "text", "negative", "negative-text", "nan-text", "inf-text",
        "1e400-text", "nan", "inf", "10**400", "true", "list"])
    def test_a_malformed_wait_is_a_bad_request(self, wait_ms):
        async def body(service, release):
            job = service.jobs.submit(_request_for("heat", np.float64))
            reply = await asyncio.wait_for(
                _status_wait(service, job["job_id"], wait_ms), 5.0)
            assert reply.meta["ok"] is False
            assert reply.meta["code"] == BAD_REQUEST, reply.meta
            assert "wait_ms" in reply.meta["error"]

        _with_held_jobs(body)

    def test_a_huge_wait_is_clamped(self, monkeypatch):
        assert ops._wait_s(10 ** 12) == ops._wait_s("1e12") == \
            ops.MAX_WAIT_MS / 1e3
        monkeypatch.setattr(ops, "MAX_WAIT_MS", 50.0)

        async def body(service, release):
            job = service.jobs.submit(_request_for("heat", np.float64))
            started = time.monotonic()
            reply = await asyncio.wait_for(
                _status_wait(service, job["job_id"], 10 ** 12), 5.0)
            assert time.monotonic() - started < 2.0
            assert reply.meta["job"]["status"] in ("queued", "running")

        _with_held_jobs(body)

    def test_an_unknown_id_is_not_found_at_once(self):
        async def body(service, release):
            reply = await asyncio.wait_for(
                _status_wait(service, "nope", 30_000), 1.0)
            assert (reply.meta["ok"], reply.meta["code"]) == (False,
                                                              NOT_FOUND)

        _with_held_jobs(body)

    def test_stopping_the_service_answers_a_pending_wait(self):
        async def main():
            service = StencilService(batch_window=0.001, checkpoint_every=1)
            release = _hold_jobs(service)
            await service.start()
            job = service.jobs.submit(
                _request_for("heat", np.float64, steps=100_000))
            waiting = _status_wait(service, job["job_id"], 30_000)
            await asyncio.sleep(0.1)
            stopping = asyncio.ensure_future(service.stop())
            try:
                reply = await asyncio.wait_for(waiting, 5.0)
                assert reply.meta["job"]["status"] in ("queued", "running")
                # A wait that arrives after the stop began is answered at
                # once too.
                reply = await asyncio.wait_for(
                    _status_wait(service, job["job_id"], 30_000), 1.0)
                assert reply.meta["ok"], reply.meta
            finally:
                service.jobs.cancel(job["job_id"])
                release.set()
                await stopping

        asyncio.run(main())


class TestServiceJobsSection:
    def test_stats_expose_the_job_manager(self, tmp_path):
        service = StencilService(job_dir=str(tmp_path), checkpoint_every=4)
        with ServiceClient(service) as client:
            stats = client.stats()
        section = stats["service"]["jobs"]
        assert section["checkpoint_every"] == 4
        assert section["job_dir"] == str(tmp_path)
