"""Tests for the resilience fabric: retries, breakers, degraded reads,
deadlines, hedging, admission control, and client reconnect."""

import socket
import threading

import numpy as np
import pytest

from fault_store import FaultyFragmentStore
from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever
from repro.service.server import (
    OverloadedResponse,
    RetrievalServer,
    ServiceClient,
)
from repro.service.service import OverloadedError, RetrievalService
from repro.storage.archive import Archive
from repro.storage.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DegradedError,
    FaultStoreError,
    ResilientStore,
    RetryPolicy,
    TokenBucket,
    is_transient,
)
from repro.storage.remote import HTTPFragmentServer, HTTPFragmentStore
from repro.storage.store import FragmentStore, open_store
from repro.storage.tiered import TieredStore
from test_service import archive_into, make_fields


class FakeClock:
    """Deterministic, manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def no_sleep_policy(**kwargs):
    """A RetryPolicy that records its sleeps instead of waiting."""
    sleeps = []
    kwargs.setdefault("jitter", 0.0)
    policy = RetryPolicy(sleep=sleeps.append, **kwargs)
    return policy, sleeps


class TestTaxonomy:
    def test_transient_vs_permanent(self):
        assert is_transient(ConnectionError("reset"))
        assert is_transient(FaultStoreError("injected"))
        assert is_transient(TimeoutError("slow"))
        assert not is_transient(KeyError("missing"))
        assert not is_transient(ValueError("bad request"))
        # an open breaker must not be retried into
        assert not is_transient(CircuitOpenError("backend", 1.0))


class TestRetryPolicy:
    def test_schedule_is_capped_exponential(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.4
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_scales_delay_down_only(self):
        policy = RetryPolicy(attempts=2, base_delay=1.0, jitter=0.5)
        for _ in range(50):
            delay = policy.backoff(0)
            assert 0.5 <= delay <= 1.0

    def test_transient_failures_retried_then_succeed(self):
        policy, sleeps = no_sleep_policy(attempts=3, base_delay=0.1)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise FaultStoreError("not yet")
            return "payload"

        assert policy.run(flaky) == "payload"
        assert len(calls) == 3
        assert sleeps == [0.1, 0.2]

    def test_permanent_error_not_retried(self):
        policy, sleeps = no_sleep_policy(attempts=5)

        def wrong():
            raise KeyError("no such fragment")

        with pytest.raises(KeyError):
            policy.run(wrong)
        assert sleeps == []

    def test_gives_up_after_attempts(self):
        policy, sleeps = no_sleep_policy(attempts=3, base_delay=0.01)

        def dead():
            raise FaultStoreError("still down")

        with pytest.raises(FaultStoreError):
            policy.run(dead)
        assert len(sleeps) == 2  # attempts - 1 backoffs

    def test_circuit_open_error_fails_fast(self):
        policy, sleeps = no_sleep_policy(attempts=5)

        def rejected():
            raise CircuitOpenError("backend", 2.0)

        with pytest.raises(CircuitOpenError):
            policy.run(rejected)
        assert sleeps == []


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.before_call()  # still admitted

    def test_trips_open_and_rejects(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        with pytest.raises(CircuitOpenError) as err:
            breaker.before_call()
        assert 0 < err.value.retry_after_s <= 5.0
        assert breaker.rejections == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        breaker.before_call()  # admitted as the probe
        assert breaker.state == "half_open"
        assert breaker.probes == 1
        # a second caller while the probe is in flight is rejected
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.closes == 1

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.before_call()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.retry_after_s() == pytest.approx(5.0)
        with pytest.raises(CircuitOpenError):
            breaker.before_call()


def seeded_store(**payloads):
    store = FragmentStore()
    for segment, payload in payloads.items():
        store.put("v", segment, payload)
    return store


class TestResilientStore:
    def test_absorbs_transient_faults(self):
        faulty = FaultyFragmentStore(seeded_store(s0=b"abc"))
        policy, sleeps = no_sleep_policy(attempts=3, base_delay=0.01)
        store = ResilientStore(faulty, retry=policy)
        faulty.fail_next(2)
        assert store.get("v", "s0") == b"abc"
        stats = store.resilience()
        assert stats.attempts == 3
        assert stats.failures == 2
        assert stats.retries == 2
        assert stats.giveups == 0
        assert len(sleeps) == 2

    def test_gives_up_when_budget_exhausted(self):
        faulty = FaultyFragmentStore(seeded_store(s0=b"abc"))
        policy, _ = no_sleep_policy(attempts=2, base_delay=0.01)
        store = ResilientStore(faulty, retry=policy)
        faulty.fail_next(2)
        with pytest.raises(FaultStoreError):
            store.get("v", "s0")
        assert store.resilience().giveups == 1
        # the store healed; the next call works and counters move on
        assert store.get("v", "s0") == b"abc"

    def test_keyerror_is_not_retried(self):
        faulty = FaultyFragmentStore(seeded_store(s0=b"abc"))
        policy, sleeps = no_sleep_policy(attempts=5)
        store = ResilientStore(faulty, retry=policy)
        with pytest.raises(KeyError):
            store.get("v", "nope")
        assert sleeps == []
        assert store.resilience().attempts == 1

    def test_breaker_trips_and_fails_fast(self):
        clock = FakeClock()
        faulty = FaultyFragmentStore(seeded_store(s0=b"abc"))
        policy, _ = no_sleep_policy(attempts=1)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=9.0, clock=clock)
        store = ResilientStore(faulty, retry=policy, breaker=breaker)
        faulty.fail_next(2)
        for _ in range(2):
            with pytest.raises(FaultStoreError):
                store.get("v", "s0")
        assert breaker.state == "open"
        # the inner (now healthy) store is not even consulted
        with pytest.raises(CircuitOpenError):
            store.get("v", "s0")
        assert faulty.transient_faults == 2
        stats = store.resilience()
        assert stats.breaker_is_open == 1
        assert stats.breaker_state == "open"
        # after the cooldown the probe goes through and re-closes
        clock.advance(9.0)
        assert store.get("v", "s0") == b"abc"
        assert breaker.state == "closed"

    def test_get_many_retried_as_a_batch(self):
        faulty = FaultyFragmentStore(seeded_store(s0=b"abc", s1=b"defg"))
        policy, _ = no_sleep_policy(attempts=2, base_delay=0.01)
        store = ResilientStore(faulty, retry=policy)
        faulty.fail_next(1)
        out = store.get_many([("v", "s0"), ("v", "s1")])
        assert out == {("v", "s0"): b"abc", ("v", "s1"): b"defg"}
        assert store.bytes_read == 7

    def test_url_resilience_targets_the_slow_tier(self):
        tiered = open_store("tiered://?slow=memory://&retries=2")
        assert isinstance(tiered, TieredStore)
        assert isinstance(tiered.slow, ResilientStore)
        assert tiered.slow.retry.attempts == 2 and tiered.slow.breaker is None
        assert type(open_store("tiered://?slow=memory://").slow) is FragmentStore
        with HTTPFragmentServer(seeded_store(s0=b"abc")) as server:
            plain = open_store(server.url)
            wrapped = open_store(server.url + "?retries=4&breaker=5")
            assert type(plain) is HTTPFragmentStore
            assert isinstance(wrapped, ResilientStore)
            assert wrapped.retry.attempts == 4
            assert wrapped.breaker.failure_threshold == 5
            assert wrapped.get("v", "s0") == b"abc"
            plain.close()
            wrapped.close()


class TestDegradedTieredReads:
    def make_tiered(self, **fault_kwargs):
        slow_inner = seeded_store(cold=b"slow-only")
        faulty = FaultyFragmentStore(slow_inner, **fault_kwargs)
        tiered = TieredStore(FragmentStore(), faulty)
        # write-through put makes the fragment fast-tier resident while
        # the backend is still healthy
        tiered.put("v", "fast", b"resident")
        return tiered, faulty

    def test_resident_served_while_slow_tier_down(self):
        tiered, faulty = self.make_tiered()
        faulty.fail_next(10**6)
        assert tiered.get("v", "fast") == b"resident"

    def test_missing_fragment_raises_typed_degraded_error(self):
        tiered, faulty = self.make_tiered()
        faulty.fail_next(10**6)
        with pytest.raises(DegradedError) as err:
            tiered.get("v", "cold")
        assert err.value.missing == [("v", "cold")]
        assert "unavailable" in str(err.value)
        assert tiered.stats().degraded_batches == 1

    def test_get_many_degrades_only_on_slow_failure(self):
        tiered, faulty = self.make_tiered()
        faulty.fail_next(10**6)
        with pytest.raises(DegradedError):
            tiered.get_many([("v", "fast"), ("v", "cold")])
        # a purely fast-resident batch is untouched by the outage
        assert tiered.get_many([("v", "fast")]) == {("v", "fast"): b"resident"}

    def test_open_breaker_degrades_without_touching_backend(self):
        tiered, faulty = self.make_tiered()
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0, clock=clock)
        policy, _ = no_sleep_policy(attempts=1)
        tiered.slow = ResilientStore(tiered.slow, retry=policy, breaker=breaker)
        faulty.fail_next(1)
        with pytest.raises(DegradedError):
            tiered.get("v", "cold")
        touched = faulty.transient_faults
        with pytest.raises(DegradedError):  # breaker open: fail fast
            tiered.get("v", "cold")
        assert faulty.transient_faults == touched
        assert tiered.resilience().breaker_is_open == 1

    def test_permanent_errors_pass_through_untyped(self):
        tiered, _ = self.make_tiered()
        with pytest.raises(KeyError):
            tiered.get("v", "never-archived")
        assert tiered.stats().degraded_batches == 0


@pytest.fixture(scope="module")
def small_setup():
    fields = make_fields(n=1200, seed=3)
    store = FragmentStore()
    archive_into(store, fields)
    qoi = total_velocity()
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    qrange = float(truth.max() - truth.min())
    ranges = {k: float(v.max() - v.min()) for k, v in fields.items()}
    return fields, store, qoi, truth, qrange, ranges


def copy_store(store, into=None):
    copy = FragmentStore() if into is None else into
    for var, seg in store.keys():
        copy.put(var, seg, store._data[(var, seg)])
    return copy


def retrieve_over(store, setup, tolerance=1e-4, **retrieve_kwargs):
    fields, _, qoi, _, qrange, ranges = setup
    archive = Archive(store)
    loaded = {name: archive.load(name) for name in fields}
    retriever = QoIRetriever(loaded, ranges)
    request = QoIRequest("VTOT", qoi, tolerance, qrange)
    return retriever.retrieve([request], **retrieve_kwargs)


class TestDeadlineRetrieval:
    def test_deadline_returns_degraded_best_bounds(self, small_setup):
        _, store, qoi, truth, qrange, _ = small_setup
        result = retrieve_over(
            copy_store(store), small_setup, tolerance=1e-7, deadline_s=0.0
        )
        assert result.degraded
        assert "deadline" in result.degraded_reason
        assert result.rounds >= 1  # the first round always runs
        # the degraded answer is still a *valid* bound
        est = result.estimated_errors["VTOT"]
        assert np.isfinite(est)
        rec = qoi.value({k: (v, 0.0) for k, v in result.data.items()})
        assert np.max(np.abs(rec - truth)) <= est * (1 + 1e-9)

    def test_no_deadline_same_request_completes(self, small_setup):
        _, store, _, _, _, _ = small_setup
        result = retrieve_over(copy_store(store), small_setup, tolerance=1e-4)
        assert result.all_satisfied
        assert not result.degraded
        assert result.degraded_reason is None

    def test_generous_deadline_is_not_degraded(self, small_setup):
        _, store, _, _, _, _ = small_setup
        result = retrieve_over(
            copy_store(store), small_setup, tolerance=1e-4, deadline_s=60.0
        )
        assert result.all_satisfied
        assert not result.degraded


class TestRetrievalUnderFaults:
    def test_ten_percent_faults_bit_identical_and_invisible(self, small_setup):
        _, store, _, _, _, _ = small_setup
        clean = retrieve_over(copy_store(store), small_setup, tolerance=1e-5)

        faulty = FaultyFragmentStore(
            copy_store(store), fault_rate=0.10, seed=7
        )
        resilient = ResilientStore(
            faulty,
            retry=RetryPolicy(attempts=6, base_delay=0.001, max_delay=0.01),
        )
        fault_result = retrieve_over(resilient, small_setup, tolerance=1e-5)

        assert faulty.transient_faults > 0  # chaos actually happened
        assert resilient.resilience().giveups == 0  # nothing client-visible
        assert not fault_result.degraded
        assert fault_result.all_satisfied == clean.all_satisfied
        assert fault_result.estimated_errors == clean.estimated_errors
        for name, data in clean.data.items():
            assert np.array_equal(fault_result.data[name], data)

    def test_transient_slow_tier_fault_is_absorbed_degradation_free(
        self, small_setup
    ):
        _, store, _, _, _, _ = small_setup
        faulty = FaultyFragmentStore(copy_store(store))
        policy, _ = no_sleep_policy(attempts=3, base_delay=0.001)
        tiered = TieredStore(FragmentStore(), ResilientStore(faulty, retry=policy))
        faulty.fail_next(2)
        result = retrieve_over(tiered, small_setup, tolerance=1e-4)
        assert result.all_satisfied
        assert not result.degraded


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)
        clock.advance(wait)
        assert bucket.try_acquire() == 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)

    def test_burst_below_one_token_is_rejected(self):
        # a bucket capped below one token can never be acquired: at the
        # parent TokenBucket(5, 0.5).try_acquire() quoted 0.1 s forever,
        # so such a service shed every request
        with pytest.raises(ValueError):
            TokenBucket(rate=5.0, burst=0.5)
        with pytest.raises(ValueError):
            RetrievalService(FragmentStore(), client_rate=5.0, client_burst=0.5)
        service = RetrievalService(FragmentStore(), client_rate=0.5)
        assert service.client_burst == 1.0  # the default never dips below one

    def test_an_empty_bucket_sheds_without_waiting(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == pytest.approx(0.1)  # empty: shed, not wait


@pytest.fixture(scope="module")
def service_setup():
    fields = make_fields(n=1200, seed=3)
    store = FragmentStore()
    archive_into(store, fields)
    qoi = total_velocity()
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    qrange = float(truth.max() - truth.min())
    return fields, store, qoi, truth, qrange


def fresh_service(service_setup, **kwargs):
    _, store, _, _, _ = service_setup
    return RetrievalService(copy_store(store), **kwargs)


class TestAdmissionControl:
    def request(self, service_setup, tolerance=1e-3):
        _, _, qoi, _, qrange = service_setup
        return [QoIRequest("VTOT", qoi, tolerance, qrange)]

    def test_inflight_budget_sheds_and_releases(self, service_setup):
        service = fresh_service(service_setup, max_inflight=1)
        service._admit("a")
        with pytest.raises(OverloadedError) as err:
            service._admit("b")
        assert err.value.reason == "inflight"
        assert err.value.retry_after_ms >= 50.0
        service._release()
        service._admit("b")  # slot is back
        service._release()
        stats = service.stats()
        assert stats.requests_admitted == 2
        assert stats.requests_shed == 1
        assert stats.requests_inflight == 0

    def test_low_priority_shed_before_budget_exhausted(self, service_setup):
        service = fresh_service(service_setup, max_inflight=4)
        for client in "abc":
            service._admit(client)
        # 3/4 slots taken is past the 0.75 watermark: background work sheds
        with pytest.raises(OverloadedError):
            service._admit("d", priority=-1)
        service._admit("d", priority=0)  # normal traffic still fits

    def test_client_rate_bucket_sheds_with_hint(self, service_setup):
        service = fresh_service(
            service_setup, client_rate=5.0, client_burst=1.0
        )
        service._admit("chatty")
        with pytest.raises(OverloadedError) as err:
            service._admit("chatty")
        assert err.value.reason == "rate"
        assert err.value.retry_after_ms > 0
        # another client has its own bucket
        service._admit("quiet")

    def test_shed_request_leaves_session_state_clean(self, service_setup):
        service = fresh_service(service_setup, max_inflight=0)
        session = service.open_session("c1")
        with pytest.raises(OverloadedError):
            session.retrieve(self.request(service_setup))
        stats = service.stats()
        assert stats.requests_inflight == 0
        assert stats.sessions_active == 1
        # lift the limit: the same session works, nothing was corrupted
        service.max_inflight = None
        result = session.retrieve(self.request(service_setup))
        assert result.all_satisfied
        assert service.stats().requests_admitted == 1
        session.close()

    def test_degraded_requests_counted_with_worst_ratio(self, service_setup):
        service = fresh_service(service_setup)
        with service.open_session("slowpoke") as session:
            result = session.retrieve(
                self.request(service_setup, tolerance=1e-8), deadline_ms=0.0
            )
        assert result.degraded
        stats = service.stats()
        assert stats.requests_degraded == 1
        assert stats.worst_degraded_ratio > 1.0


class TestServerResilience:
    @pytest.fixture()
    def serve(self, service_setup):
        def start(**kwargs):
            service = fresh_service(service_setup, **kwargs)
            server = RetrievalServer(service, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            self._cleanup.append((server, service))
            return server

        self._cleanup = []
        yield start
        for server, service in self._cleanup:
            server.shutdown()
            server.server_close()
            service.close()

    FIELDS = ["velocity_x", "velocity_y", "velocity_z"]

    def test_shed_response_is_explicit_with_retry_hint(
        self, service_setup, serve
    ):
        _, _, _, _, qrange = service_setup
        server = serve(max_inflight=0)
        host, port = server.address
        with ServiceClient(host, port) as client:
            with pytest.raises(OverloadedResponse) as err:
                client.retrieve("vtot", self.FIELDS, 1e-3, qrange)
            assert err.value.retry_after_ms >= 50.0
            assert err.value.reason == "inflight"
            # the connection (and server) survive the shed
            assert client.stats()["requests_shed"] == 1
            assert client.stats()["requests_inflight"] == 0

    def test_client_honors_retry_after_and_succeeds(
        self, service_setup, serve
    ):
        _, _, _, _, qrange = service_setup
        server = serve(client_rate=50.0, client_burst=1.0)
        host, port = server.address
        with ServiceClient(host, port, overload_retries=3) as client:
            first = client.retrieve("vtot", self.FIELDS, 1e-3, qrange)
            # the bucket is empty now; the client backs off and re-issues
            second = client.retrieve("vtot", self.FIELDS, 1e-3, qrange)
        assert first["satisfied"] and second["satisfied"]

    def test_degraded_response_over_the_wire(self, service_setup, serve):
        _, _, _, _, qrange = service_setup
        server = serve()
        host, port = server.address
        with ServiceClient(host, port) as client:
            response = client.retrieve(
                "vtot", self.FIELDS, 1e-8, qrange, deadline_ms=0.0
            )
        assert response["degraded"]
        assert "deadline" in response["degraded_reason"]
        assert np.isfinite(response["estimated_error"])

    def test_dropped_tcp_connection_is_redialed(self, service_setup, serve):
        server = serve()
        host, port = server.address
        client = ServiceClient(host, port)
        try:
            assert client.info()
            # simulate the network dropping the TCP stream under us
            client._sock.shutdown(socket.SHUT_RDWR)
            assert client.info()  # transparently re-dialed and re-issued
            assert client.reconnects == 1
        finally:
            client.close()

    def test_priority_field_sheds_background_first(self, service_setup, serve):
        _, _, _, _, qrange = service_setup
        server = serve(max_inflight=1)
        host, port = server.address
        # budget 1 -> low-priority watermark floor is still 1 slot, so a
        # lone background request is admitted when the server is idle
        with ServiceClient(host, port) as client:
            response = client.retrieve(
                "vtot", self.FIELDS, 1e-3, qrange, priority=-1
            )
        assert response["satisfied"]
