"""The execution service: batching, bit-identity, stats, TCP endpoint."""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.apps.suite import execution_requests, get_benchmark
from repro.backend.numpy_backend import compile_program
from repro.rewriting.strategies import NAIVE, lower_program
from repro.service import (
    ExecutionRequest,
    ServiceClient,
    StencilService,
    serve_tcp,
)
from repro.service.loadgen import build_requests


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
            with pytest.raises(asyncio.TimeoutError):
                # The caller gives up mid-window, cancelling its future.
                await asyncio.wait_for(service.submit(request), 0.01)
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
            request = ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            submitted = asyncio.ensure_future(service.submit(request))
            await asyncio.sleep(0.05)  # admitted, sitting in the batch window
            await service.stop()
            response = await asyncio.wait_for(submitted, 5)
            assert not response.ok and "stopped" in response.error

        asyncio.run(scenario())

    def test_suite_request_helper_drives_the_service(self):
        requests = execution_requests(["stencil2d", "jacobi2d5pt"], copies=2)
        assert len(requests) == 4
        with make_client() as client:
            responses = client.execute_many(requests)
        assert all(response.ok for response in responses)


class TestBackgroundTune:
    def test_cold_benchmark_enqueues_one_background_tune(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr("repro.service.server.TUNE_BUDGET", 4)
        store_path = str(tmp_path / "tuned.sqlite")
        service = StencilService(store=store_path, auto_tune=True,
                                 batch_window=0.01)
        with ServiceClient(service) as client:
            first = client.execute(
                ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            )
            assert first.plan_source == "default"
            # close() stops the service, which awaits the background tune.
        assert service.background_tunes == 1
        # The registry was refreshed: a fresh service over the same store
        # now serves the tuned variant.
        follow_up = StencilService(store=store_path, batch_window=0.01)
        with ServiceClient(follow_up) as client:
            response = client.execute(
                ExecutionRequest.for_benchmark("stencil2d", shape=(9, 8))
            )
        assert response.plan_source in ("tuned", "fallback")


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
