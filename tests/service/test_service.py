"""The execution service: batching, bit-identity, stats, TCP endpoint."""

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps.suite import execution_requests, get_benchmark
from repro.backend.base import NumpyBackend
from repro.backend.numpy_backend import compile_program
from repro.rewriting.strategies import NAIVE, lower_program
from repro.service import (
    ExecutionRequest,
    ServiceClient,
    StencilService,
    serve_tcp,
)
from repro.service.loadgen import build_requests
from repro.service.requests import DEADLINE_EXCEEDED


def make_client(**kwargs) -> ServiceClient:
    kwargs.setdefault("batch_window", 0.05)
    return ServiceClient(StencilService(**kwargs))


class TestBatchedKernel:
    @pytest.mark.parametrize("key", ["stencil2d", "hotspot2d", "jacobi3d7pt"])
    def test_run_batched_bit_identical(self, key):
        benchmark = get_benchmark(key)
        shape = (12, 10) if benchmark.ndims == 2 else (6, 7, 8)
        kernel = compile_program(
            lower_program(benchmark.build_program(), NAIVE).program
        )
        singles = [benchmark.make_inputs(shape, seed) for seed in range(6)]
        stacked = [
            np.stack([inputs[i] for inputs in singles])
            for i in range(len(singles[0]))
        ]
        swept = kernel.run_batched(stacked)
        for index, inputs in enumerate(singles):
            np.testing.assert_array_equal(swept[index], kernel(inputs))

    def test_batch_extent_mismatch_raises(self):
        from repro.backend.numpy_backend import ExecutionError

        benchmark = get_benchmark("hotspot2d")
        kernel = compile_program(
            lower_program(benchmark.build_program(), NAIVE).program
        )
        grids = benchmark.make_inputs((8, 8), 0)
        with pytest.raises(ExecutionError):
            kernel.run_batched(
                [np.stack([grids[0]] * 3), np.stack([grids[1]] * 2)]
            )


class TestServiceBatching:
    def test_identical_requests_form_one_batch_one_compile(self):
        with make_client() as client:
            requests = build_requests("stencil2d", 32, shape=(13, 11),
                                      identical=True, return_result=True)
            responses = client.execute_many(requests)
            stats = client.stats()
        assert all(response.ok for response in responses)
        assert all(response.batch_size == 32 for response in responses)
        assert all(response.batched for response in responses)
        service = stats["service"]
        assert service["requests_served"] == 32
        assert service["batches_formed"] < service["requests_served"]
        assert stats["compilation_cache"]["misses"] == 1

    def test_batched_result_matches_single_request(self):
        request = ExecutionRequest.for_benchmark("stencil2d", shape=(13, 11),
                                                 seed=5)
        with make_client() as client:
            solo = client.execute(request)
        with make_client() as client:
            copies = [
                ExecutionRequest(
                    inputs=[np.array(g) for g in request.inputs],
                    benchmark="stencil2d",
                )
                for _ in range(8)
            ]
            batched = client.execute_many(copies)
        for response in batched:
            assert response.batched
            np.testing.assert_array_equal(response.result, solo.result)

    def test_crosscheck_mode_accepts_batched_execution(self):
        with make_client(crosscheck=True) as client:
            requests = build_requests("jacobi2d5pt", 6, shape=(9, 8),
                                      identical=False, return_result=True)
            responses = client.execute_many(requests)
            stats = client.stats()
        assert all(response.ok for response in responses)
        assert stats["service"]["crosschecks_passed"] >= 6
        reference = get_benchmark("jacobi2d5pt").run_reference(
            requests[0].inputs
        )
        np.testing.assert_allclose(responses[0].result, reference,
                                   rtol=1e-6, atol=1e-9)

    def test_mixed_shapes_batch_separately_and_stay_correct(self):
        with make_client() as client:
            small = build_requests("stencil2d", 4, shape=(9, 8),
                                   identical=True, return_result=True)
            large = build_requests("stencil2d", 4, shape=(13, 11),
                                   identical=True, return_result=True)
            responses = client.execute_many(small + large)
        for response, request in zip(responses, small + large):
            assert response.ok
            assert response.result.shape == request.inputs[0].shape
            reference = get_benchmark("stencil2d").run_reference(request.inputs)
            np.testing.assert_allclose(response.result, reference, rtol=1e-6)

    def test_serialized_program_request_shares_the_hot_batch(self):
        benchmark = get_benchmark("stencil2d")
        program = benchmark.build_program()
        inputs = benchmark.make_inputs((9, 8), 11)
        with make_client() as client:
            by_name = [
                ExecutionRequest(
                    inputs=[np.array(g) for g in inputs],
                    benchmark="stencil2d",
                )
                for _ in range(3)
            ]
            by_program = ExecutionRequest.for_program(
                program, [np.array(g) for g in inputs]
            )
            responses = client.execute_many(by_name + [by_program])
            stats = client.stats()
        digests = {response.digest for response in responses}
        assert len(digests) == 1  # program request routed to the same digest
        assert all(response.batch_size == 4 for response in responses)
        assert stats["compilation_cache"]["misses"] == 1

    def test_bad_request_is_answered_in_band(self):
        with make_client() as client:
            good = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            bad = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            bad.benchmark = "no_such_benchmark"
            responses = client.execute_many([good, bad],
                                            raise_on_error=False)
        assert responses[0].ok
        assert not responses[1].ok and "no_such_benchmark" in responses[1].error

    def test_cancelled_submit_does_not_kill_the_batcher(self):
        async def scenario():
            service = StencilService(batch_window=0.1)
            await service.start()
            request = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            # A same-digest partner queued first keeps the window open (a
            # lone request would dispatch at once).
            partner = asyncio.ensure_future(service.submit(
                ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))))
            with pytest.raises(asyncio.TimeoutError):
                # The caller gives up mid-window, cancelling its future.
                await asyncio.wait_for(service.submit(request), 0.01)
            assert (await partner).ok
            # The serving loop must survive and answer later requests.
            response = await asyncio.wait_for(
                service.submit(
                    ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
                ),
                10,
            )
            assert response.ok
            await service.stop()

        asyncio.run(scenario())

    def test_stop_fails_pending_requests_in_band(self):
        async def scenario():
            service = StencilService(batch_window=30.0)  # never flushes
            await service.start()
            # Two same-digest requests: a lone one would dispatch at once.
            submitted = [asyncio.ensure_future(service.submit(
                ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))))
                for _ in range(2)]
            await asyncio.sleep(0.05)  # admitted, sitting in the batch window
            await service.stop()
            for response in await asyncio.wait_for(
                    asyncio.gather(*submitted), 5):
                assert not response.ok and "stopped" in response.error

        asyncio.run(scenario())

    def test_suite_request_helper_drives_the_service(self):
        requests = execution_requests(["stencil2d", "jacobi2d5pt"], copies=2)
        assert len(requests) == 4
        with make_client() as client:
            responses = client.execute_many(requests)
        assert all(response.ok for response in responses)


class TestLoneRequest:
    """A request with no partner queued or in flight skips the window."""

    @staticmethod
    def _request():
        return ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))

    def test_lone_request_does_not_wait_out_the_window(self):
        with make_client(batch_window=0.5) as client:
            assert client.execute(self._request()).ok  # compiles the plan
            started = time.perf_counter()
            response = client.execute(self._request())
            elapsed = time.perf_counter() - started
        assert response.ok and response.batch_size == 1
        assert elapsed < 0.25

    def test_gathered_wave_still_forms_one_batch(self):
        with make_client(batch_window=0.05, max_batch=64) as client:
            responses = client.execute_many(
                [self._request() for _ in range(16)])
            stats = client.stats()
        assert [response.batch_size for response in responses] == [16] * 16
        assert stats["service"]["batches_formed"] == 1

    def test_arrivals_during_a_batch_still_batch_together(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = StencilService(batch_window=0.05)
            await service.start()
            entered, release = threading.Event(), threading.Event()
            compute = service._compute_groups

            def held(groups):
                entered.set()
                release.wait(10)
                return compute(groups)

            service._compute_groups = held
            first = asyncio.ensure_future(service.submit(self._request()))
            assert await loop.run_in_executor(None, entered.wait, 10)
            later = [asyncio.ensure_future(service.submit(self._request()))
                     for _ in range(2)]
            await asyncio.sleep(0.02)  # both queued behind the running one
            service._compute_groups = compute
            release.set()
            responses = await asyncio.gather(first, *later)
            await service.stop()
            return [response.batch_size for response in responses]

        assert asyncio.run(scenario()) == [1, 2, 2]


class _CountingExecutor(ThreadPoolExecutor):
    """The loop's default executor, recording each submission's callable."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.calls: list = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append(getattr(fn, "__name__", repr(fn)))
        return super().submit(fn, *args, **kwargs)


def _mixed_wave(shape=(24, 24)):
    """8 Hotspot2D, 4 Stencil2D and 4 Jacobi2D-5pt requests: three digests."""
    return [
        ExecutionRequest.for_benchmark(key, shape=shape, seed=seed)
        for key, count in (("hotspot2d", 8), ("stencil2d", 4),
                           ("jacobi2d5pt", 4))
        for seed in range(count)
    ]


def _serve(requests, compute=None, **kwargs):
    """Serve ``requests`` concurrently on a fresh loop whose default
    executor counts submissions.  ``compute(group, real)`` stands in for
    ``_compute_group`` when given.  Returns the responses, the submissions
    made while serving them, the requests of each group that reached
    compute, and the stats."""
    computed = []

    async def scenario():
        executor = _CountingExecutor()
        asyncio.get_running_loop().set_default_executor(executor)
        service = StencilService(**kwargs)
        await service.start()
        real = service._compute_group

        def compute_group(group):
            computed.append([item.request for item in group])
            return real(group) if compute is None else compute(group, real)

        service._compute_group = compute_group
        executor.calls.clear()
        responses = await asyncio.gather(
            *[service.submit(request) for request in requests])
        calls, stats = list(executor.calls), service.stats()
        await service.stop()
        return responses, calls, stats

    responses, calls, stats = asyncio.run(scenario())
    return responses, calls, computed, stats


def _alone(request):
    program = get_benchmark(request.benchmark).build_program()
    return NumpyBackend().run(program, request.inputs)


class TestOneHopPerMicroBatch:
    def test_three_digest_wave_is_one_executor_submission(self):
        wave = _mixed_wave()
        responses, calls, computed, stats = _serve(wave, batch_window=0.05)
        assert calls == ["_compute_groups"]
        assert sorted(len(group) for group in computed) == [4, 4, 8]
        assert stats["service"]["batches_formed"] == 3
        assert stats["compilation_cache"]["misses"] == 3
        for request, response in zip(wave, responses):
            assert response.ok
            assert response.batch_size == (8 if request.benchmark ==
                                           "hotspot2d" else 4)
            assert np.array_equal(response.result, _alone(request))

    def test_failing_group_fails_only_its_own_requests_and_breaker(self):
        def compute(group, real):
            if group[0].route.benchmark == "stencil2d":
                raise RuntimeError("sweep exploded")
            return real(group)

        wave = _mixed_wave()
        responses, calls, computed, stats = _serve(
            wave, compute=compute, batch_window=0.05)
        assert calls == ["_compute_groups"] and len(computed) == 3
        failed = set()
        for request, response in zip(wave, responses):
            if request.benchmark == "stencil2d":
                assert not response.ok
                assert "RuntimeError: sweep exploded" in response.error
                failed.add(response.digest)
            else:
                assert response.ok
                assert np.array_equal(response.result, _alone(request))
        (digest,) = failed
        breakers = stats["service"]["breakers"]["digests"]
        assert list(breakers) == [digest[:16]]
        assert breakers[digest[:16]]["failures"] == 1
        assert stats["service"]["request_errors"] == 4
        assert stats["service"]["requests_served"] == 12

    def test_request_expired_in_the_queue_is_shed_before_dispatch(self):
        stale = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8),
                                               deadline_ms=20.0)
        fresh = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8),
                                               seed=1)
        # The 200 ms window outlives the stale request's deadline.
        responses, calls, computed, stats = _serve(
            [stale, fresh], batch_window=0.2)
        assert responses[0].code == DEADLINE_EXCEEDED
        assert responses[1].ok and responses[1].batch_size == 1
        assert calls == ["_compute_groups"]
        assert computed == [[fresh]]
        assert sum(stats["service"]["admission"]["sheds"].values()) == 1


class TestTcpEndpoint:
    def test_execute_and_stats_over_tcp(self):
        started = threading.Event()
        port_holder = {}

        def serve():
            async def main():
                service = StencilService(batch_window=0.01)
                async with service:
                    server = await serve_tcp(service, "127.0.0.1", 0)
                    port_holder["port"] = server.sockets[0].getsockname()[1]
                    async with server:
                        started.set()
                        await port_holder["stop"]
                    # Let the per-connection handler task finish cleanly
                    # before the loop is torn down.
                    await asyncio.sleep(0.05)

            loop = asyncio.new_event_loop()
            port_holder["loop"] = loop
            port_holder["stop"] = loop.create_future()
            loop.run_until_complete(main())
            loop.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with socket.create_connection(
                ("127.0.0.1", port_holder["port"]), timeout=10
            ) as conn:
                stream = conn.makefile("rw", encoding="utf-8")
                stream.write(json.dumps({
                    "id": 1, "benchmark": "stencil2d",
                    "shape": [9, 8], "seed": 3, "return_result": True,
                }) + "\n")
                stream.flush()
                replies = [json.loads(stream.readline())]
                # Responses are pipelined/out-of-order, so fetch the stats
                # only after the execute op was answered.
                stream.write(json.dumps({"id": 2, "op": "stats"}) + "\n")
                stream.flush()
                replies.append(json.loads(stream.readline()))
                stream.close()  # drops the makefile dup so the server sees EOF
            by_id = {reply["id"]: reply for reply in replies}
            assert by_id[1]["ok"] and by_id[1]["benchmark"] == "stencil2d"
            reference = get_benchmark("stencil2d").run_reference(
                get_benchmark("stencil2d").make_inputs((9, 8), 3)
            )
            np.testing.assert_allclose(np.asarray(by_id[1]["result"]),
                                       reference, rtol=1e-6)
            assert by_id[2]["ok"]
            assert by_id[2]["stats"]["service"]["requests_served"] == 1
        finally:
            port_holder["loop"].call_soon_threadsafe(
                port_holder["stop"].set_result, None
            )
            thread.join(timeout=10)
