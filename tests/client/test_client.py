"""The client library: retry semantics, config, auth, pooling."""

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    ClientConfig,
    StencilClient,
    TcpTransport,
    Transport,
    TransportError,
    attach_auth,
    auth_headers,
)
from repro.client import client as client_module
from repro.service import ExecutionRequest, ExecutionResponse


def _response(**overrides):
    fields = dict(result=None, benchmark="stencil2d", digest="d",
                  batch_size=1, latency_s=0.001)
    fields.update(overrides)
    return ExecutionResponse(**fields)


class ScriptedTransport(Transport):
    """A fake at the ``call`` primitive: the scripted errors and replies
    (an :class:`ExecutionResponse` stands for its wire form) in order,
    then an ok reply shaped for whichever op asks."""

    OK = {"execute": _response().wire_meta(),
          "ping": {"ok": True, "pong": True},
          "stats": {"ok": True, "stats": {"service": {}}},
          "job_status": {"ok": True, "job": {"job_id": "j", "status": "running"}}}

    def __init__(self, script=()):
        self.script = list(script)
        self.sent = []  # (op, meta) of every attempt
        self.timeouts = []

    @property
    def attempts(self):
        return len(self.sent)

    def call(self, op, meta, grids, timeout_s):
        self.sent.append((op, meta))
        self.timeouts.append(timeout_s)
        outcome = self.script.pop(0) if self.script else dict(self.OK[op])
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, ExecutionResponse):
            outcome = outcome.wire_meta()
        return outcome, []

    def close(self):
        pass


class FixedRandom:
    def random(self):
        return 0.0


def _policy(monkeypatch, retries, base_s=0.0, max_s=0.0):
    """Set the retry constants for one test."""
    monkeypatch.setattr(client_module, "RETRIES", retries)
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", base_s)
    monkeypatch.setattr(client_module, "BACKOFF_MAX_S", max_s)


def _client(transport, monkeypatch, retries=2):
    """A client with a ``retries`` budget and zero backoff."""
    _policy(monkeypatch, retries)
    return StencilClient(ClientConfig(), transport=transport,
                         rng=FixedRandom())


def _request():
    return ExecutionRequest.for_benchmark("stencil2d", shape=(6, 6),
                                          return_result=False)


class TestRetrySemantics:
    def test_retries_connect_class_failures_until_success(self, monkeypatch):
        transport = ScriptedTransport([
            TransportError("connect refused", retryable=True),
            TransportError("timed out before response", retryable=True),
        ])
        client = _client(transport, monkeypatch, retries=2)
        response = client.execute(_request())
        assert response.ok
        assert transport.attempts == 3
        assert client.retries_attempted == 2

    def test_never_retries_after_a_response_byte(self, monkeypatch):
        """Property (iv): a non-retryable failure is surfaced immediately."""
        transport = ScriptedTransport([
            TransportError("connection lost mid-response", retryable=False),
        ])
        client = _client(transport, monkeypatch, retries=5)
        with pytest.raises(TransportError):
            client.execute(_request())
        assert transport.attempts == 1
        assert client.retries_attempted == 0

    def test_retry_budget_is_bounded(self, monkeypatch):
        transport = ScriptedTransport([
            TransportError("connect refused", retryable=True)
            for _ in range(10)
        ])
        client = _client(transport, monkeypatch, retries=2)
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
        leading_retryable = 0
        for flag in script:
            if not flag:
                break
            leading_retryable += 1
        with pytest.MonkeyPatch.context() as monkeypatch:
            client = _client(transport, monkeypatch, retries=retries)
            try:
                client.execute(_request())
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
            transport.call("execute", _request().wire_meta(), None, 2.0)
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
                transport.call("execute", _request().wire_meta(), None, 2.0)
            assert excinfo.value.retryable
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5)


#: The kinds of logical call the one retry loop serves.
KINDS = {
    "execute": lambda client, **kw: client.execute(_request(), **kw),
    "job": lambda client, **kw: client.job_status("j", **kw),
    "stats": lambda client, **kw: client.stats(**kw),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestOneRetryLoop:
    """execute, stats and the job ops share one loop: same budget, same
    deadline clipping; they differ only in what an in-band rejection
    means."""

    def test_retryable_failures_replay_within_budget(self, kind, monkeypatch):
        flaky = [TransportError("connect refused", retryable=True)] * 2
        transport = ScriptedTransport(flaky)
        client = _client(transport, monkeypatch, retries=2)
        KINDS[kind](client)
        assert (transport.attempts, client.retries_attempted) == (3, 2)
        transport = ScriptedTransport(flaky * 5)
        with pytest.raises(TransportError):
            KINDS[kind](_client(transport, monkeypatch, retries=2))
        assert transport.attempts == 3  # 1 try + 2 retries, never more

    def test_final_failures_are_never_replayed(self, kind, monkeypatch):
        transport = ScriptedTransport(
            [TransportError("lost mid-response", retryable=False)])
        client = _client(transport, monkeypatch, retries=5)
        with pytest.raises(TransportError):
            KINDS[kind](client)
        assert (transport.attempts, client.retries_attempted) == (1, 0)

    def test_backoff_and_attempts_are_clipped_to_the_call_deadline(
            self, kind, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        _policy(monkeypatch, retries=1, base_s=30.0, max_s=30.0)
        transport = ScriptedTransport(
            [TransportError("connect refused", retryable=True)])
        client = StencilClient(ClientConfig(), transport=transport,
                               rng=FixedRandom())
        KINDS[kind](client, timeout_s=0.5)
        assert len(sleeps) == 1 and 0 < sleeps[0] <= 0.5
        assert all(0 < timeout <= 0.5 for timeout in transport.timeouts)

    def test_in_band_rejection(self, kind, monkeypatch):
        """A rejected execute provably never ran, so it is replayed after
        the server's hint; any other refused op surfaces at once, with
        its code — the caller decides."""
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        rejection = _rejection(retry_after_ms=20.0).wire_meta()
        transport = ScriptedTransport([rejection])
        client = _client(transport, monkeypatch, retries=2)
        if kind == "execute":
            assert KINDS[kind](client).ok
            assert (transport.attempts, sleeps) == (2, [pytest.approx(0.02)])
        else:
            with pytest.raises(TransportError) as excinfo:
                KINDS[kind](client)
            assert excinfo.value.code == rejection["code"]
            assert not excinfo.value.retryable
            assert (transport.attempts, sleeps) == (1, [])


def test_ping_is_one_attempt(monkeypatch):
    """A readiness probe reports the server as it is now: a refused
    connection raises at once instead of waiting out the backoff."""
    transport = ScriptedTransport(
        [TransportError("connect refused", retryable=True)])
    client = _client(transport, monkeypatch, retries=2)
    with pytest.raises(TransportError):
        client.ping()
    assert (transport.attempts, client.retries_attempted) == (1, 0)
    assert client.ping()


def _rejection(retry_after_ms=20.0):
    from repro.service.requests import ADMISSION_REJECTED

    return _response(error="admission rejected", code=ADMISSION_REJECTED,
                     retry_after_ms=retry_after_ms)


class TestAdmissionRetry:
    """429-style rejections are retried honouring ``retry_after_ms``."""

    def test_rejection_is_retried_until_admitted(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        transport = ScriptedTransport([_rejection(retry_after_ms=20.0)])
        client = _client(transport, monkeypatch, retries=2)
        response = client.execute(_request())
        assert response.ok
        assert transport.attempts == 2
        assert client.retries_attempted == 1
        # Zero backoff: the wait is exactly the server's hint.
        assert sleeps == [pytest.approx(0.02)]

    def test_wait_is_the_larger_of_hint_and_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        _policy(monkeypatch, retries=1, base_s=0.5, max_s=0.5)
        transport = ScriptedTransport([_rejection(retry_after_ms=20.0)])
        client = StencilClient(ClientConfig(), transport=transport,
                               rng=FixedRandom())
        assert client.execute(_request()).ok
        assert sleeps == [pytest.approx(0.5)]  # backoff dominates the hint

    def test_exhausted_retries_return_the_rejection_not_raise(self,
                                                              monkeypatch):
        monkeypatch.setattr("repro.client.client.time.sleep", lambda s: None)
        transport = ScriptedTransport([_rejection()] * 4)
        client = _client(transport, monkeypatch, retries=2)
        response = client.execute(_request())
        assert response.rejected
        assert transport.attempts == 3  # 1 try + 2 retries, never more

    def test_hint_past_the_call_deadline_returns_immediately(self,
                                                             monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.client.client.time.sleep", sleeps.append)
        transport = ScriptedTransport([_rejection(retry_after_ms=60_000.0)])
        client = _client(transport, monkeypatch, retries=3)
        response = client.execute(_request(), timeout_s=0.5)
        assert response.rejected
        assert transport.attempts == 1  # a doomed retry is never attempted
        assert sleeps == []


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self, monkeypatch):
        _policy(monkeypatch, retries=5, base_s=0.1, max_s=0.5)
        bare = [client_module.backoff_s(attempt, jitter=0.0)
                for attempt in range(5)]
        assert bare == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_extends_but_never_shrinks(self, monkeypatch):
        _policy(monkeypatch, retries=2, base_s=0.1, max_s=2.0)
        assert client_module.backoff_s(0, jitter=0.99) == pytest.approx(0.199)
        assert client_module.backoff_s(0, jitter=0.0) == pytest.approx(0.1)


class TestConfigAndAuth:
    def test_unknown_transport_is_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(transport="carrier-pigeon")

    def test_no_config_means_the_default_config(self):
        client = StencilClient(transport=ScriptedTransport())
        assert client.config == ClientConfig()

    def test_execute_benchmark_sets_priority_and_deadline_on_the_request(
            self):
        transport = ScriptedTransport()
        client = StencilClient(ClientConfig(), transport=transport)
        client.execute_benchmark("stencil2d", shape=(6, 6))
        client.execute_benchmark("stencil2d", shape=(6, 6), priority="high",
                                 deadline_ms=50)
        assert [(meta.get("priority", "normal"), meta.get("deadline_ms"))
                for _op, meta in transport.sent] == [("normal", None),
                                                     ("high", 50.0)]

    def test_calls_leave_the_callers_request_unchanged(self):
        transport = ScriptedTransport()
        client = StencilClient(ClientConfig(), transport=transport)
        request = _request()
        request.deadline_ms = 75.0
        client.iterate(request, 16)
        client.execute(request)
        assert [(meta.get("steps", 1), meta.get("deadline_ms"))
                for _op, meta in transport.sent] == [(16, 75.0), (1, 75.0)]
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
