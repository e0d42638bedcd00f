"""Retries, circuit breakers, and degraded reads for fragment stores.

A remote tier fails in two very different ways.  *Transient* faults —
connection resets, timeouts, HTTP 5xx answers, injected
:class:`FaultStoreError` chaos — heal themselves and are worth retrying
with backoff.  *Permanent* faults — ``KeyError`` for a fragment that is
not archived, ``TypeError``/``ValueError`` for a malformed request — will
fail identically forever and must surface immediately.  This module
encodes that taxonomy once (:func:`is_transient`) and builds the three
resilience primitives on top of it:

* :class:`RetryPolicy` — capped exponential backoff with jitter around
  any callable, retrying only transient faults.  The sleep function and
  jitter RNG are injectable so tests run instantly and deterministically.
* :class:`CircuitBreaker` — a per-backend closed → open → half-open
  state machine.  After ``failure_threshold`` *consecutive* transient
  failures the breaker opens and callers fail fast with
  :class:`CircuitOpenError` (carrying ``retry_after_s``) instead of
  stacking timeouts onto a dead backend; after ``cooldown`` seconds a
  single probe call is let through, and its outcome re-closes or
  re-opens the circuit.
* :class:`ResilientStore` — a wrapper store applying both to every
  operation of any inner :class:`~repro.storage.store.FragmentStore`.
  All fragment operations are safe to retry: reads are pure, ``put`` of
  the same payload is idempotent (last-write-wins), and a ``delete``
  retried across an ambiguous failure at worst reports ``KeyError`` for
  work already done.

The taxonomy is what makes *degraded* reads possible one layer up:
:class:`~repro.storage.tiered.TieredStore` converts an exhausted retry
budget or an open breaker on its slow tier into a typed
:class:`DegradedError` naming exactly the keys it could not serve, while
fast-tier-resident fragments keep flowing — the storage half of the
progressive degraded-answer story (``docs/resilience.md``).
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass

from repro.storage.store import FragmentStore, StoreWrapper

__all__ = [
    "FaultStoreError",
    "CircuitOpenError",
    "DegradedError",
    "PERMANENT_ERRORS",
    "is_transient",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientStore",
    "TokenBucket",
    "policy_from_params",
]


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second, ``burst`` capacity.

    :meth:`try_acquire` never waits — it takes a token and returns
    ``0.0``, or takes nothing and returns the seconds until one will
    exist, the natural ``retry_after`` of a shed response: the service's
    front door keeps one bucket per client.

    *burst* defaults to ``max(1, rate)`` and must be at least one token:
    a bucket capped below one can never be acquired (``try_acquire``
    would quote a ``retry_after`` that never comes true).  *clock* is
    injectable for deterministic tests.
    """

    def __init__(self, rate: float, burst: float | None = None, clock=time.monotonic):
        self.rate = float(rate)
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        self.burst = max(1.0, self.rate) if burst is None else float(burst)
        if self.burst < 1.0:
            raise ValueError("burst must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._stamp = clock()

    def try_acquire(self) -> float:
        """Take one token (return 0.0) or return seconds until one exists."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens < 1.0:
                return (1.0 - self._tokens) / self.rate
            self._tokens -= 1.0
            return 0.0


class FaultStoreError(ConnectionError):
    """An injected transient store fault (chaos tests, fault harness).

    Subclasses ``ConnectionError`` so the production taxonomy treats it
    exactly like a real broken backend: transient, retryable, counted
    against the circuit breaker.
    """


class CircuitOpenError(ConnectionError):
    """Fail-fast rejection because a backend's circuit breaker is open.

    Deliberately **not** transient for :class:`RetryPolicy` — retrying
    into an open breaker would just burn the backoff budget; callers
    should degrade or surface the outage.  ``retry_after_s`` says when
    the breaker will next allow a probe.
    """

    def __init__(self, backend: str, retry_after_s: float):
        super().__init__(
            f"circuit breaker open for {backend} "
            f"(retry after {retry_after_s:.3f}s)"
        )
        #: Name of the backend whose breaker rejected the call.
        self.backend = str(backend)
        #: Seconds until the breaker will admit a probe call.
        self.retry_after_s = float(retry_after_s)


class DegradedError(RuntimeError):
    """A read could not be served in full while a backend is unavailable.

    Raised by :class:`~repro.storage.tiered.TieredStore` when fragments
    resident in a healthy fast tier can still be served but the listed
    ``missing`` keys live only behind a failed/open slow tier.  Callers
    that can live with looser bounds (the progressive retrieval loop)
    catch this and return a degraded answer; everyone else sees a typed
    error naming exactly what is unavailable and why.
    """

    def __init__(self, missing, reason: str):
        missing = [tuple(k) for k in missing]
        super().__init__(
            f"{len(missing)} fragment(s) unavailable ({reason}): "
            f"{missing[:4]}{'...' if len(missing) > 4 else ''}"
        )
        #: The ``(variable, segment)`` keys that could not be served.
        self.missing = missing
        #: Human-readable cause (e.g. the stringified backend error).
        self.reason = str(reason)


#: Errors that will fail identically on retry: wrong request, not a sick
#: backend.  They never trip a breaker and are never retried.
PERMANENT_ERRORS = (KeyError, TypeError, ValueError)

#: Errors worth retrying: socket/OS failures (``ConnectionError`` —
#: including :class:`FaultStoreError` — and timeouts are ``OSError``
#: subclasses) and HTTP protocol breakage.  HTTP 5xx answers surface as
#: ``ConnectionError`` from the remote store client, so they are covered.
TRANSIENT_ERRORS = (OSError, http.client.HTTPException)


def is_transient(exc: BaseException) -> bool:
    """Whether *exc* is worth retrying per the store fault taxonomy."""
    if isinstance(exc, (CircuitOpenError,) + PERMANENT_ERRORS):
        return False
    return isinstance(exc, TRANSIENT_ERRORS)


class RetryPolicy:
    """Capped exponential backoff with jitter for transient store faults.

    Attempt ``i`` (zero-based) failing transiently sleeps
    ``min(max_delay, base_delay * multiplier**i)`` scaled down by up to
    ``jitter`` (uniformly), then retries — up to ``attempts`` total
    tries.  Permanent errors and :class:`CircuitOpenError` propagate
    immediately.  *sleep* and *rng* are injectable so tests can assert
    exact schedules without waiting.

    Parameters
    ----------
    attempts:
        Total tries per call (1 = no retries).
    base_delay / multiplier / max_delay:
        The capped exponential schedule, in seconds.
    jitter:
        Fraction of the delay randomized away (0 = deterministic,
        0.5 = sleep between 50% and 100% of the scheduled delay).
    sleep / rng:
        Injection points for tests (default real ``time.sleep`` and a
        private ``random.Random``).
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        self.attempts = int(attempts)
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.sleep = sleep
        self.rng = rng if rng is not None else random.Random()

    def schedule(self) -> list:
        """The un-jittered backoff delays, one per possible retry."""
        return [
            min(self.max_delay, self.base_delay * self.multiplier**i)
            for i in range(self.attempts - 1)
        ]

    def backoff(self, retry: int) -> float:
        """Jittered sleep before re-attempt number *retry* (zero-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**retry)
        return delay * (1.0 - self.jitter * self.rng.random())

    def run(self, fn, breaker: "CircuitBreaker | None" = None, observer=None):
        """Call *fn* under this policy (and *breaker*, when given).

        *observer*, when given, is called with one of ``"attempt"``,
        ``"failure"``, ``"retry"``, ``"giveup"`` as events happen — the
        hook :class:`ResilientStore` uses for lock-protected counters.
        Transient errors are retried on the backoff schedule; permanent
        errors, :class:`CircuitOpenError`, and the final transient
        failure propagate.
        """

        def note(event: str) -> None:
            if observer is not None:
                observer(event)

        for attempt in range(self.attempts):
            if breaker is not None:
                breaker.before_call()
            note("attempt")
            try:
                result = fn()
            except Exception as exc:
                if not is_transient(exc):
                    raise
                if breaker is not None:
                    breaker.record_failure()
                note("failure")
                if attempt + 1 >= self.attempts:
                    note("giveup")
                    raise
                note("retry")
                self.sleep(self.backoff(attempt))
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
        raise AssertionError("unreachable")


class CircuitBreaker:
    """Per-backend closed → open → half-open circuit breaker.

    ``failure_threshold`` *consecutive* transient failures open the
    circuit; while open, :meth:`before_call` rejects immediately with
    :class:`CircuitOpenError` instead of letting callers stack timeouts
    onto a dead backend.  After ``cooldown`` seconds the next caller is
    admitted as a single half-open *probe*; its success re-closes the
    circuit, its failure re-opens it for another cooldown.  Thread-safe;
    *clock* is injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 5.0,
        clock=time.monotonic,
        name: str = "backend",
    ):
        self.failure_threshold = int(failure_threshold)
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.cooldown = float(cooldown)
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.clock = clock
        self.name = str(name)
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: closed→open transitions (including probe failures re-opening).
        self.opens = 0
        #: half-open→closed transitions (successful probes).
        self.closes = 0
        #: Probe calls admitted while half-open.
        self.probes = 0
        #: Calls rejected fast because the circuit was open.
        self.rejections = 0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state

    def before_call(self) -> None:
        """Gate one call: no-op when closed, else admit a probe or reject.

        Raises :class:`CircuitOpenError` (with the remaining cooldown as
        ``retry_after_s``) when the circuit is open or another probe is
        already in flight.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return
            now = self.clock()
            if self._state == self.OPEN:
                remaining = self.cooldown - (now - self._opened_at)
                if remaining > 0:
                    self.rejections += 1
                    raise CircuitOpenError(self.name, remaining)
                self._state = self.HALF_OPEN
                self._probe_inflight = True
                self.probes += 1
                return
            # half-open: one probe at a time decides the circuit's fate
            if self._probe_inflight:
                self.rejections += 1
                raise CircuitOpenError(self.name, self.cooldown)
            self._probe_inflight = True
            self.probes += 1

    def record_success(self) -> None:
        """Report a successful call: closes the circuit, resets failures."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_inflight = False
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self.closes += 1

    def record_failure(self) -> None:
        """Report a transient failure: may trip the circuit open.

        A failed half-open probe re-opens immediately; in the closed
        state the circuit opens after ``failure_threshold`` consecutive
        failures.
        """
        with self._lock:
            self._consecutive_failures += 1
            tripped = (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            )
            self._probe_inflight = False
            if tripped and self._state != self.OPEN:
                self._state = self.OPEN
                self.opens += 1
            if tripped:
                self._opened_at = self.clock()

    def retry_after_s(self) -> float:
        """Seconds until the breaker would next admit a probe (0 if now)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.cooldown - (self.clock() - self._opened_at))


@dataclass
class ResilienceStats:
    """Counters of one :class:`ResilientStore` (all numeric → /metrics).

    ``breaker_state`` is the human-readable duplicate of
    ``breaker_is_open`` — the Prometheus exporter drops string fields, so
    the numeric flag is what alerting keys on.
    """

    #: Store calls attempted (first tries and retries both count).
    attempts: int = 0
    #: Transient failures observed across all attempts.
    failures: int = 0
    #: Re-attempts issued after a transient failure.
    retries: int = 0
    #: Calls that exhausted the retry budget and surfaced their error.
    giveups: int = 0
    #: 1 while the breaker is open or half-open, else 0.
    breaker_is_open: int = 0
    #: closed→open breaker transitions.
    breaker_opens: int = 0
    #: half-open→closed breaker transitions.
    breaker_closes: int = 0
    #: Probe calls admitted while half-open.
    breaker_probes: int = 0
    #: Calls rejected fast because the breaker was open.
    breaker_rejections: int = 0
    #: Breaker state name (``closed`` when no breaker is configured).
    breaker_state: str = "closed"

    def merge(self, other: "ResilienceStats") -> "ResilienceStats":
        """Fold *other*'s counters into this one; returns ``self``.

        Counter fields sum; the breaker flags report the *worst* member
        (any open breaker marks the merged state open, half-open beats
        closed) — so a cluster store can aggregate per-node wrappers
        into one snapshot without hiding a single dead node.
        """
        rank = {
            CircuitBreaker.CLOSED: 0,
            CircuitBreaker.HALF_OPEN: 1,
            CircuitBreaker.OPEN: 2,
        }
        for fname in self.__dataclass_fields__:
            if fname in ("breaker_is_open", "breaker_state"):
                continue
            setattr(self, fname, getattr(self, fname) + getattr(other, fname))
        self.breaker_is_open = max(self.breaker_is_open, other.breaker_is_open)
        if rank.get(other.breaker_state, 0) > rank.get(self.breaker_state, 0):
            self.breaker_state = other.breaker_state
        return self


class ResilientStore(StoreWrapper):
    """Retry + circuit-breaker wrapper around any fragment store.

    Every call forwarded to the backend — the two primitives, index
    queries (remote stores do I/O there), compaction — runs under
    *retry* (a :class:`RetryPolicy`) and, when given, *breaker* (a
    shared :class:`CircuitBreaker` gating the whole backend); only
    ``close`` is never retried.  Counters mirror the wrapped traffic
    like every :class:`~repro.storage.store.StoreWrapper`, and
    :meth:`resilience` snapshots the retry/breaker counters for
    ``ServiceStats`` and the metrics exporter.

    Retry safety: fragment reads are pure; puts rewrite identical
    payloads (idempotent); a tombstone replayed across an ambiguous
    failure can report ``KeyError`` for work the first attempt already
    did, which a caller that shrinks its tombstone list and retries
    (``Archive.commit``) absorbs.

    A store URL configures this wrapper: ``http://…?retries=4&breaker=5``
    wraps the client, ``tiered://…?slow=…&retries=…`` wraps the slow
    tier (keeping degraded reads), and a ``cluster://`` URL wraps each
    of its nodes (:func:`policy_from_params`).
    """

    def __init__(
        self,
        inner: FragmentStore,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        super().__init__(inner)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        self._events = dict.fromkeys(("attempt", "failure", "retry", "giveup"), 0)

    def _note(self, event: str) -> None:
        with self._stats_lock:
            self._events[event] += 1

    def _forward(self, fn, *args):
        return self.retry.run(
            lambda: fn(*args), breaker=self.breaker, observer=self._note
        )

    def resilience(self) -> ResilienceStats:
        """Snapshot the retry and breaker counters of this wrapper."""
        with self._stats_lock:
            stats = ResilienceStats(
                attempts=self._events["attempt"],
                failures=self._events["failure"],
                retries=self._events["retry"],
                giveups=self._events["giveup"],
            )
        breaker = self.breaker
        if breaker is not None:
            state = breaker.state
            stats.breaker_state = state
            stats.breaker_is_open = int(state != CircuitBreaker.CLOSED)
            stats.breaker_opens = breaker.opens
            stats.breaker_closes = breaker.closes
            stats.breaker_probes = breaker.probes
            stats.breaker_rejections = breaker.rejections
        return stats


#: The URL query keys :func:`policy_from_params` reads.
POLICY_KEYS = ("retries", "retry_base", "retry_max", "breaker", "cooldown")


def policy_from_params(params: dict, prefix: str = ""):
    """Build ``(RetryPolicy | None, CircuitBreaker | None)`` from URL params.

    Recognized keys (:data:`POLICY_KEYS`, optionally prefixed, e.g.
    ``slow_retries``): ``retries`` (total attempts), ``retry_base`` /
    ``retry_max`` (backoff window, seconds), ``breaker``
    (consecutive-failure threshold), ``cooldown`` (breaker cooldown,
    seconds).  Returns ``(None, None)`` when no resilience keys are
    present, so URL grammars can stay zero-cost by default.
    """

    def value(key):
        return params.get(prefix + key)

    retry = None
    if value("retries") is not None or value("retry_base") is not None:
        retry = RetryPolicy(
            attempts=int(value("retries") or 3),
            base_delay=float(value("retry_base") or 0.05),
            max_delay=float(value("retry_max") or 2.0),
        )
    breaker = None
    if value("breaker") is not None:
        breaker = CircuitBreaker(
            failure_threshold=int(value("breaker")),
            cooldown=float(value("cooldown") or 5.0),
        )
    return retry, breaker

