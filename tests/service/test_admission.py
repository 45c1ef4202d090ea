"""Admission control: priorities, deadlines, backpressure, drain, TCP bounds."""

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ExecutionRequest, ServiceClient, StencilService
from repro.service.requests import (
    ADMISSION_REJECTED,
    DEADLINE_EXCEEDED,
    REQUEST_TOO_LARGE,
    UNAUTHORIZED,
)
from repro.service.server import _PriorityQueues, serve_tcp


def _request(priority="normal", deadline_ms=None, seed=0):
    return ExecutionRequest.for_benchmark(
        "stencil2d", shape=(8, 8), seed=seed, return_result=False,
        priority=priority, deadline_ms=deadline_ms,
    )


class TestPriorityQueues:
    def test_drain_order_high_before_normal_before_batch(self):
        async def run():
            queues = _PriorityQueues()
            service = StencilService()
            order = ["batch", "high", "normal", "batch", "high"]
            for index, priority in enumerate(order):
                pending = service._admit(_request(priority=priority))
                pending.request.size_env["i"] = index  # tag for identity
                queues.put(pending)
            drained = []
            while not queues.empty():
                drained.append(queues.get_nowait().priority)
            return drained

        assert asyncio.run(run()) == ["high", "high", "normal", "batch",
                                      "batch"]

    def test_evict_below_picks_lowest_priority_oldest_first(self):
        async def run():
            queues = _PriorityQueues()
            service = StencilService()
            first_batch = service._admit(_request(priority="batch", seed=1))
            second_batch = service._admit(_request(priority="batch", seed=2))
            normal = service._admit(_request(priority="normal"))
            for item in (normal, first_batch, second_batch):
                queues.put(item)
            victim = queues.evict_below("high")
            assert victim is first_batch  # lowest lane, oldest entry
            assert queues.evict_below("high") is second_batch
            assert queues.evict_below("high") is normal
            assert queues.evict_below("high") is None
            # normal arrivals may only evict batch work
            queues.put(service._admit(_request(priority="normal")))
            assert queues.evict_below("normal") is None
            # and batch arrivals evict nothing
            assert queues.evict_below("batch") is None

        asyncio.run(run())


class TestAdmissionControl:
    """White-box admission checks: no batcher running, nothing drains."""

    @staticmethod
    def _frozen_service(**kwargs):
        service = StencilService(**kwargs)
        service._queues = _PriorityQueues()  # admission without a drain loop
        return service

    @settings(max_examples=25, deadline=None)
    @given(
        fill=st.lists(st.sampled_from(["normal", "batch"]), min_size=0,
                      max_size=8),
        high_count=st.integers(min_value=1, max_value=6),
        depth=st.integers(min_value=1, max_value=6),
    )
    def test_saturated_queue_never_denies_high_while_lower_queued(
            self, fill, high_count, depth):
        """Property (i): high is shed/rejected only once no lower-priority
        work remains queued — a full queue evicts batch/normal instead."""

        async def run():
            service = self._frozen_service(max_queue_depth=depth)
            for index, priority in enumerate(fill):
                pending = service._admit(_request(priority=priority,
                                                  seed=index))
                if service._admission_control(pending) is None:
                    service._queues.put(pending)
            for index in range(high_count):
                lower_queued = (service._queues.depth("normal")
                                + service._queues.depth("batch"))
                pending = service._admit(_request(priority="high",
                                                  seed=100 + index))
                rejection = service._admission_control(pending)
                if rejection is not None:
                    # A high-priority denial is legal only with no
                    # lower-priority work left to evict.
                    assert lower_queued == 0, (
                        f"high rejected while {lower_queued} lower-priority "
                        f"requests were queued"
                    )
                    assert rejection.rejected
                    assert rejection.retry_after_ms is not None
                else:
                    service._queues.put(pending)
            assert service.sheds["high"] == 0

        asyncio.run(run())

    def test_queue_full_rejects_equal_priority_with_retry_hint(self):
        async def run():
            service = self._frozen_service(max_queue_depth=2)
            for seed in range(2):
                pending = service._admit(_request(seed=seed))
                assert service._admission_control(pending) is None
                service._queues.put(pending)
            overflow = service._admit(_request(seed=9))
            rejection = service._admission_control(overflow)
            assert rejection is not None and rejection.rejected
            assert rejection.code == ADMISSION_REJECTED
            assert rejection.retry_after_ms > 0
            assert service.rejects == {"queue_full": 1}

        asyncio.run(run())

    def test_eviction_answers_the_victim_not_the_arrival(self):
        async def run():
            service = self._frozen_service(max_queue_depth=1)
            victim = service._admit(_request(priority="batch"))
            assert service._admission_control(victim) is None
            service._queues.put(victim)
            arrival = service._admit(_request(priority="high"))
            assert service._admission_control(arrival) is None  # admitted
            assert victim.future.done()
            evicted = victim.future.result()
            assert evicted.rejected and "evicted" in evicted.error
            assert service.rejects == {"evicted": 1}

        asyncio.run(run())

    def test_dead_on_arrival_deadline_is_shed_not_queued(self):
        async def run():
            service = self._frozen_service()
            pending = service._admit(_request(deadline_ms=0.0001))
            await asyncio.sleep(0.001)
            shed = service._admission_control(pending)
            assert shed is not None and shed.shed
            assert shed.code == DEADLINE_EXCEEDED
            assert service._queues.empty()
            assert service.sheds["normal"] == 1

        asyncio.run(run())


class TestDeadlinesEndToEnd:
    @settings(max_examples=10, deadline=None)
    @given(
        pattern=st.lists(st.booleans(), min_size=1, max_size=6),
    )
    def test_expired_requests_are_never_executed(self, pattern):
        """Property (ii): a shed response implies the request did not run —
        requests_served counts exactly the ok responses."""
        requests = [
            _request(deadline_ms=0.0001 if expired else None, seed=index)
            for index, expired in enumerate(pattern)
        ]
        with ServiceClient(StencilService(batch_window=0.01)) as client:
            responses = client.execute_many(requests, raise_on_error=False)
            stats = client.stats()
        served = stats["service"]["requests_served"]
        assert served == sum(1 for response in responses if response.ok)
        for expired, response in zip(pattern, responses):
            if expired:
                assert response.shed
                assert response.code == DEADLINE_EXCEEDED
                assert response.result is None
            else:
                assert response.ok

    def test_shed_response_carries_structured_form(self):
        with ServiceClient(StencilService(batch_window=0.01)) as client:
            response = client.execute(_request(deadline_ms=0.0001),
                                      raise_on_error=False)
        assert response.shed and not response.ok
        assert response.code == DEADLINE_EXCEEDED
        assert "deadline" in response.error

    def test_mixed_saturation_serves_high_within_tail_bound(self):
        """The acceptance shape: saturating mixed stream with deadlines —
        batch work is pushed back while every high request is served, with
        its p99 within 2x of the unloaded p99."""
        from repro.service.loadgen import run_mixed_loadgen

        report = run_mixed_loadgen(
            benchmark="stencil2d", requests=48,
            mix={"high": 1, "normal": 4, "batch": 3},
            shape=(8, 8), deadline_ms=5_000.0, window_ms=10.0, max_batch=4,
            max_queue_depth=10,
        )
        high = report["per_priority"]["high"]
        assert high["shed"] == 0 and high["rejected"] == 0
        assert high["served"] == high["requests"]
        assert report["sheds_total"] + report["rejects_total"] > 0, (
            "the run did not saturate admission at all"
        )
        batch = report["per_priority"]["batch"]
        assert batch["shed"] + batch["rejected"] > 0
        assert report["high_p99_ratio"] is not None
        assert report["high_p99_ratio"] <= 2.0


class TestDrainShedding:
    def test_shed_queued_answers_everything_in_band(self):
        async def run():
            service = StencilService()
            service._queues = _PriorityQueues()
            queued = []
            for priority in ("high", "normal", "batch"):
                pending = service._admit(_request(priority=priority))
                service._queues.put(pending)
                queued.append(pending)
            shed = service.shed_queued("shutdown drain deadline reached")
            assert shed == 3
            for pending in queued:
                response = pending.future.result()
                assert response.code == DEADLINE_EXCEEDED
                assert "drain" in response.error
            assert service._queues.empty()

        asyncio.run(run())


class TestTcpBoundsAndAuth:
    @staticmethod
    async def _roundtrip_lines(port, lines):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        for line in lines:
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                break
            replies.append(json.loads(raw))
        writer.close()
        return replies

    def test_oversized_line_gets_in_band_error(self):
        async def run():
            async with StencilService(batch_window=0.01) as service:
                server = await serve_tcp(service, "127.0.0.1", 0,
                                         max_request_bytes=4096)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    huge = (b'{"benchmark": "stencil2d", "pad": "'
                            + b"x" * 8192 + b'"}\n')
                    replies = await self._roundtrip_lines(port, [huge])
            assert len(replies) == 1
            assert replies[0]["ok"] is False
            assert replies[0]["code"] == REQUEST_TOO_LARGE

        asyncio.run(run())

    def test_auth_key_required_and_ping_exempt(self):
        async def run():
            async with StencilService(batch_window=0.01) as service:
                server = await serve_tcp(service, "127.0.0.1", 0,
                                         auth_key="sekrit")
                port = server.sockets[0].getsockname()[1]
                async with server:
                    wire = ExecutionRequest.for_benchmark(
                        "stencil2d", shape=(8, 8), return_result=False
                    ).to_wire()
                    unauthed = dict(wire)
                    authed = dict(wire, auth="sekrit")
                    replies = await self._roundtrip_lines(port, [
                        (json.dumps({"op": "ping"}) + "\n").encode(),
                        (json.dumps(unauthed) + "\n").encode(),
                        (json.dumps(authed) + "\n").encode(),
                    ])
            ping, denied, accepted = replies
            assert ping["ok"] and ping["pong"]
            assert denied["ok"] is False
            assert denied["code"] == UNAUTHORIZED
            assert accepted["ok"] is True

        asyncio.run(run())


class TestAdmissionStats:
    def test_admission_section_in_service_stats(self):
        with ServiceClient(StencilService(max_queue_depth=4)) as client:
            client.execute(_request())
            stats = client.stats()
        admission = stats["service"]["admission"]
        assert admission["max_queue_depth"] == 4
        assert set(admission["queue_depth"]) == {"high", "normal", "batch"}
        assert admission["sheds"] == {"high": 0, "normal": 0, "batch": 0}
        assert admission["rejects"] == {}
