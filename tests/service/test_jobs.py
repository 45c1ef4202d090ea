"""Durable jobs: checkpointed execution, crash recovery, payload integrity.

The load-bearing property: a job that crashes mid-trajectory and resumes
from its checkpoint produces a final grid **bit-identical** to the
uninterrupted run — for every suite app, for float64 and float32 client
inputs, and for checkpoint segments of 1 step, 7 steps, and the whole
trajectory.  Around it: corrupt-checkpoint fallback, idempotent
re-submission, retention bounds, wire-level payload integrity, and the
sync path's between-segment deadline shedding.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import faults
from repro.apps.suite import ALL_BENCHMARKS, get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.plan import iterate_generic
from repro.service.executor import run_trajectory
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    JOB_CANCELLED,
    JobError,
    JobIntegrityError,
    JobManager,
    JobNotFound,
    _frame,
    _unframe,
)
from repro.service.requests import DEADLINE_EXCEEDED, ExecutionRequest
from repro.service.server import ServiceClient, StencilService
from repro.service.wire import (
    WireFormatError,
    decode_grid_payload,
    encode_grid_payload,
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
        # "running", newest checkpoint at the first segment boundary.
        interrupted = crashed.status(job["job_id"])
        assert interrupted["status"] == "running"
        assert 0 < interrupted["completed_steps"] <= STEPS

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
        stride = segment or STEPS
        assert boundaries == sorted({*range(0, STEPS, stride), STEPS})

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
        # Hit 1 of checkpoint_corrupt is the step-0 checkpoint written at
        # submit; hit 2 is the first segment's — the one the crash leaves
        # newest on disk.
        faults.arm("job.checkpoint_corrupt:at=2,"
                   "job.crash_after_checkpoint:at=1")
        crashed = JobManager(backend, job_dir=str(tmp_path),
                             checkpoint_every=4)
        job = crashed.submit(_request_for("hotspot2d", np.float64))
        _wait_for_worker_death(crashed)
        faults.disarm()

        recovered = JobManager(backend, job_dir=str(tmp_path),
                               checkpoint_every=4)
        assert recovered.recover() == 1
        assert recovered.corrupt_checkpoints == 1
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
        assert recovered.corrupt_checkpoints >= 2
        with pytest.raises(JobError):
            recovered.result(job["job_id"])
        recovered.close()
        crashed.close()

    def test_frame_rejects_tampered_metadata_and_data(self):
        grids = [np.arange(12, dtype=np.float64).reshape(3, 4)]
        data = _frame({"job_id": "j1", "step": 7}, grids)
        meta, decoded = _unframe(data)
        assert meta["step"] == 7
        assert decoded[0].tobytes() == grids[0].tobytes()
        flipped = bytearray(data)
        flipped[-1] ^= 0xFF  # grid byte
        with pytest.raises(JobIntegrityError):
            _unframe(bytes(flipped))
        with pytest.raises(JobIntegrityError):
            _unframe(data.replace(b'"step": 7', b'"step": 8'))


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

    def test_unknown_job_raises_not_found(self, backend):
        manager = JobManager(backend)
        with pytest.raises(JobNotFound):
            manager.status("nope")
        manager.close()


class TestRetention:
    def test_ttl_purges_terminal_jobs_from_memory_and_disk(
            self, backend, tmp_path):
        manager = JobManager(backend, job_dir=str(tmp_path), job_ttl_s=0.05)
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
            self, backend, tmp_path):
        expected = _reference("heat", np.float64)
        manager = JobManager(backend, job_dir=str(tmp_path), max_resident=2)
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


class TestWireIntegrity:
    def test_payload_roundtrip_carries_and_validates_checksums(self):
        rng = np.random.default_rng(11)
        grids = [rng.random((5, 7)),
                 rng.random((3, 4)).astype(np.float32)]
        prefix, buffers = encode_grid_payload({"benchmark": "x"}, grids)
        body = prefix + b"".join(bytes(buffer) for buffer in buffers)
        meta, decoded = decode_grid_payload(body)
        assert meta == {"benchmark": "x"}
        for original, copy in zip(grids, decoded):
            assert copy.dtype == original.dtype
            assert copy.tobytes() == original.tobytes()

    def test_flipped_grid_byte_is_detected_at_decode(self):
        grids = [np.arange(20, dtype=np.float64).reshape(4, 5)]
        prefix, buffers = encode_grid_payload({}, grids)
        body = bytearray(prefix + b"".join(bytes(b) for b in buffers))
        body[-1] ^= 0x01
        with pytest.raises(WireFormatError, match="checksum mismatch"):
            decode_grid_payload(bytes(body))

    def test_wire_payload_corrupt_fault_is_caught_by_the_receiver(self):
        faults.arm("wire.payload_corrupt")
        grids = [np.ones((3, 3), dtype=np.float64)]
        prefix, buffers = encode_grid_payload({}, grids)
        faults.disarm()
        body = prefix + b"".join(bytes(buffer) for buffer in buffers)
        with pytest.raises(WireFormatError, match="corrupted in transit"):
            decode_grid_payload(body)


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


class TestServiceJobsSection:
    def test_stats_expose_the_job_manager(self, tmp_path):
        service = StencilService(job_dir=str(tmp_path), checkpoint_every=4)
        with ServiceClient(service) as client:
            stats = client.stats()
        section = stats["service"]["jobs"]
        assert section["checkpoint_every"] == 4
        assert section["job_dir"] == str(tmp_path)
