"""The client library: retry semantics, config, auth, pooling."""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    ClientConfig,
    RetryPolicy,
    StencilClient,
    TcpTransport,
    Transport,
    TransportError,
    attach_auth,
    auth_headers,
)
from repro.service import ExecutionRequest, ExecutionResponse


def _response(**overrides):
    fields = dict(result=None, benchmark="stencil2d", digest="d",
                  batch_size=1, latency_s=0.001)
    fields.update(overrides)
    return ExecutionResponse(**fields)


class ScriptedTransport(Transport):
    """Raises the scripted errors in order, then succeeds."""

    def __init__(self, failures):
        self.failures = list(failures)
        self.attempts = 0

    def submit(self, request, timeout_s):
        self.attempts += 1
        if self.failures:
            raise self.failures.pop(0)
        return _response()

    def close(self):
        pass


class FixedRandom:
    def random(self):
        return 0.0


def _client(transport, retries=2):
    config = ClientConfig(retry=RetryPolicy(
        retries=retries, backoff_base_s=0.0, backoff_max_s=0.0))
    return StencilClient(config, transport=transport, rng=FixedRandom())


def _request():
    return ExecutionRequest.for_benchmark("stencil2d", shape=(6, 6),
                                          return_result=False)


class TestRetrySemantics:
    def test_retries_connect_class_failures_until_success(self):
        transport = ScriptedTransport([
            TransportError("connect refused", retryable=True),
            TransportError("timed out before response", retryable=True),
        ])
        client = _client(transport, retries=2)
        response = client.execute(_request())
        assert response.ok
        assert transport.attempts == 3
        assert client.retries_attempted == 2

    def test_never_retries_after_a_response_byte(self):
        """Property (iv): a non-retryable failure is surfaced immediately."""
        transport = ScriptedTransport([
            TransportError("connection lost mid-response", retryable=False),
        ])
        client = _client(transport, retries=5)
        with pytest.raises(TransportError):
            client.execute(_request())
        assert transport.attempts == 1
        assert client.retries_attempted == 0

    def test_retry_budget_is_bounded(self):
        transport = ScriptedTransport([
            TransportError("connect refused", retryable=True)
            for _ in range(10)
        ])
        client = _client(transport, retries=2)
        with pytest.raises(TransportError):
            client.execute(_request())
        assert transport.attempts == 3  # 1 try + 2 retries, never more

    @settings(max_examples=30, deadline=None)
    @given(script=st.lists(st.booleans(), min_size=0, max_size=6),
           retries=st.integers(min_value=0, max_value=4))
    def test_attempt_accounting_for_any_failure_script(self, script, retries):
        """For any sequence of retryable/final failures: one extra attempt
        per leading retryable failure (within budget), none after a final
        failure."""
        failures = [TransportError("e", retryable=flag) for flag in script]
        transport = ScriptedTransport(failures)
        client = _client(transport, retries=retries)
        leading_retryable = 0
        for flag in script:
            if not flag:
                break
            leading_retryable += 1
        try:
            response = client.execute(_request())
            succeeded = True
        except TransportError:
            succeeded = False
        if leading_retryable == len(script) and leading_retryable <= retries:
            assert succeeded
            assert transport.attempts == len(script) + 1
        elif leading_retryable >= retries:
            # Budget exhausted among the retryable prefix.
            assert not succeeded
            assert transport.attempts == retries + 1
        else:
            # A final failure inside the budget stops everything.
            assert not succeeded
            assert transport.attempts == leading_retryable + 1

    def test_connect_refused_is_retryable_for_real_sockets(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        transport = TcpTransport("127.0.0.1", free_port)
        with pytest.raises(TransportError) as excinfo:
            transport.submit(_request(), timeout_s=2.0)
        assert excinfo.value.retryable
        transport.close()

    def test_close_before_any_byte_is_retryable(self):
        """A server that accepts and drops the socket never sent a byte —
        the request provably did not execute, so the failure is retryable."""
        accepted = threading.Event()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def drop_first_connection():
            conn, _ = listener.accept()
            conn.close()
            accepted.set()

        thread = threading.Thread(target=drop_first_connection, daemon=True)
        thread.start()
        transport = TcpTransport("127.0.0.1", port)
        try:
            with pytest.raises(TransportError) as excinfo:
                transport.submit(_request(), timeout_s=2.0)
            assert excinfo.value.retryable
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5)


class ScriptedCalls(Transport):
    """A fake at the ``call`` primitive: scripted errors / replies in
    order, then an ok reply shaped for whichever op asks."""

    OK = {"execute": _response().wire_meta(),
          "job_status": {"ok": True, "job": {"job_id": "j", "status": "running"}}}

    def __init__(self, script):
        self.script = list(script)
        self.attempts = 0
        self.timeouts = []

    def call(self, op, meta, grids, timeout_s):
        self.attempts += 1
        self.timeouts.append(timeout_s)
        outcome = self.script.pop(0) if self.script else dict(self.OK[op])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, []

    def close(self):
        pass


#: The two kinds of logical call the one retry loop serves.
KINDS = {
    "execute": lambda client, **kw: client.execute(_request(), **kw),
    "job": lambda client, **kw: client.job_status("j", **kw),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestOneRetryLoop:
    """execute and the job ops share one loop: same budget, same deadline
    clipping; they differ only in what an in-band rejection means."""

    def test_retryable_failures_replay_within_budget(self, kind):
        flaky = [TransportError("connect refused", retryable=True)] * 2
        transport = ScriptedCalls(flaky)
        client = _client(transport, retries=2)
        KINDS[kind](client)
        assert (transport.attempts, client.retries_attempted) == (3, 2)
        transport = ScriptedCalls(flaky * 5)
        with pytest.raises(TransportError):
            KINDS[kind](_client(transport, retries=2))
        assert transport.attempts == 3  # 1 try + 2 retries, never more

    def test_final_failures_are_never_replayed(self, kind):
        transport = ScriptedCalls(
            [TransportError("lost mid-response", retryable=False)])
        client = _client(transport, retries=5)
        with pytest.raises(TransportError):
            KINDS[kind](client)
        assert (transport.attempts, client.retries_attempted) == (1, 0)

    def test_backoff_and_attempts_are_clipped_to_the_call_deadline(
            self, kind, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        config = ClientConfig(retry=RetryPolicy(
            retries=1, backoff_base_s=30.0, backoff_max_s=30.0))
        transport = ScriptedCalls(
            [TransportError("connect refused", retryable=True)])
        client = StencilClient(config, transport=transport, rng=FixedRandom())
        KINDS[kind](client, timeout_s=0.5)
        assert len(sleeps) == 1 and 0 < sleeps[0] <= 0.5
        assert all(0 < timeout <= 0.5 for timeout in transport.timeouts)

    def test_in_band_rejection(self, kind, monkeypatch):
        """A rejected execute provably never ran, so it is replayed after
        the server's hint; a refused job op surfaces at once, with its
        code — the caller decides."""
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        rejection = _rejection(retry_after_ms=20.0).wire_meta()
        transport = ScriptedCalls([rejection])
        client = _client(transport, retries=2)
        if kind == "execute":
            assert KINDS[kind](client).ok
            assert (transport.attempts, sleeps) == (2, [pytest.approx(0.02)])
        else:
            with pytest.raises(TransportError) as excinfo:
                KINDS[kind](client)
            assert excinfo.value.code == rejection["code"]
            assert not excinfo.value.retryable
            assert (transport.attempts, sleeps) == (1, [])


class RespondingTransport(Transport):
    """Returns the scripted responses in order (the last one repeats)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.attempts = 0

    def submit(self, request, timeout_s):
        self.attempts += 1
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]

    def close(self):
        pass


def _rejection(retry_after_ms=20.0):
    from repro.service.requests import ADMISSION_REJECTED

    return _response(error="admission rejected", code=ADMISSION_REJECTED,
                     retry_after_ms=retry_after_ms)


class TestAdmissionRetry:
    """429-style rejections are retried honouring ``retry_after_ms``."""

    def test_rejection_is_retried_until_admitted(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        transport = RespondingTransport([_rejection(retry_after_ms=20.0),
                                         _response()])
        client = _client(transport, retries=2)
        response = client.execute(_request())
        assert response.ok
        assert transport.attempts == 2
        assert client.retries_attempted == 1
        # Zero-backoff policy: the wait is exactly the server's hint.
        assert sleeps == [pytest.approx(0.02)]

    def test_wait_is_the_larger_of_hint_and_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        config = ClientConfig(retry=RetryPolicy(
            retries=1, backoff_base_s=0.5, backoff_max_s=0.5))
        transport = RespondingTransport([_rejection(retry_after_ms=20.0),
                                         _response()])
        client = StencilClient(config, transport=transport, rng=FixedRandom())
        assert client.execute(_request()).ok
        assert sleeps == [pytest.approx(0.5)]  # backoff dominates the hint

    def test_exhausted_retries_return_the_rejection_not_raise(self,
                                                              monkeypatch):
        monkeypatch.setattr("repro.client.client.time.sleep", lambda s: None)
        transport = RespondingTransport([_rejection()])
        client = _client(transport, retries=2)
        response = client.execute(_request())
        assert response.rejected
        assert transport.attempts == 3  # 1 try + 2 retries, never more

    def test_hint_past_the_call_deadline_returns_immediately(self,
                                                             monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        transport = RespondingTransport([_rejection(retry_after_ms=60_000.0)])
        client = _client(transport, retries=3)
        response = client.execute(_request(), timeout_s=0.5)
        assert response.rejected
        assert transport.attempts == 1  # a doomed retry is never attempted
        assert sleeps == []


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(retries=5, backoff_base_s=0.1, backoff_max_s=0.5)
        bare = [policy.delay_s(attempt, jitter=0.0) for attempt in range(5)]
        assert bare == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_extends_but_never_shrinks(self):
        policy = RetryPolicy(backoff_base_s=0.1)
        assert policy.delay_s(0, jitter=0.99) == pytest.approx(0.199)
        assert policy.delay_s(0, jitter=0.0) == pytest.approx(0.1)


class TestConfigAndAuth:
    def test_unknown_transport_is_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(transport="carrier-pigeon")

    def test_config_or_overrides_not_both(self):
        with pytest.raises(ValueError):
            StencilClient(ClientConfig(), port=1234)

    def test_overrides_build_a_config(self):
        client = StencilClient(transport=ScriptedTransport([]), port=9999,
                               timeout_s=2.5)
        assert client.config.port == 9999
        assert client.config.timeout_s == 2.5

    def test_execute_benchmark_sets_priority_and_deadline_on_the_request(
            self):
        class Capture(ScriptedTransport):
            def submit(self, request, timeout_s):
                self.sent.append((request.priority, request.deadline_ms))
                return super().submit(request, timeout_s)

        transport = Capture([])
        transport.sent = []
        client = StencilClient(ClientConfig(), transport=transport)
        client.execute_benchmark("stencil2d", shape=(6, 6))
        client.execute_benchmark("stencil2d", shape=(6, 6), priority="high",
                                 deadline_ms=50)
        assert transport.sent == [("normal", None), ("high", 50.0)]

    def test_calls_leave_the_callers_request_unchanged(self):
        class Capture(ScriptedTransport):
            def __init__(self):
                super().__init__([])
                self.sent = []

            def submit(self, request, timeout_s):
                self.sent.append((request.steps, request.deadline_ms))
                return super().submit(request, timeout_s)

        transport = Capture()
        client = StencilClient(ClientConfig(), transport=transport)
        request = _request()
        request.deadline_ms = 75.0
        client.iterate(request, 16)
        client.execute(request)
        assert transport.sent == [(16, 75.0), (1, 75.0)]
        assert (request.steps, request.deadline_ms) == (1, 75.0)
        with pytest.raises(ValueError):
            client.iterate(request, 0)

    def test_auth_helpers(self):
        assert auth_headers("k") == {"Authorization": "Bearer k"}
        assert auth_headers(None) == {}
        message = {"benchmark": "stencil2d"}
        assert attach_auth(dict(message), None) == message
        stamped = attach_auth(dict(message), "k")
        assert stamped["auth"] == "k"
