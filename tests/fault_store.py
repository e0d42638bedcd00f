"""Fault-injection harness for the durability test suite.

Two independent instruments:

* :class:`CrashSchedule` — a hook for
  :func:`repro.storage.wal.set_crash_hook` that records every named
  kill point the WAL commit protocol announces and raises
  :class:`SimulatedCrash` at a chosen visit.  The property tests first
  *trace* an operation (no kill) to learn its schedule, then replay it
  dying at each (or a randomly drawn) step — every protocol step
  becomes a reachable crash site.  :func:`inject` installs/restores the
  process-wide hook; :func:`crash_everywhere` enumerates one run per
  kill site.

* :class:`FaultyFragmentStore` — a wrapping store misbehaving on
  command, for layers *above* the WAL: die after N mutating operations
  (``fail_after``), tear the failing batch by writing only a prefix of
  it (``torn_writes``), truncate read payloads (``short_reads``) the
  way a half-transferred object does, fail the next N reads
  *transiently* (``fail_next`` — raises
  :class:`~repro.storage.resilience.FaultStoreError`, the retryable
  kind, then recovers), drop reads at a seeded ``fault_rate``, or add
  ``latency_s`` of per-read delay (straggler/hedging experiments).

Both are deterministic: the same schedule produces the same failure,
which is what lets hypothesis shrink a failing crash schedule to its
minimal counterexample.
"""

from __future__ import annotations

import contextlib
import random
import time

from repro.storage import wal
from repro.storage.resilience import FaultStoreError
from repro.storage.store import FragmentStore, StoreWrapper


class SimulatedCrash(RuntimeError):
    """The injected process-kill stand-in.

    Raised by :class:`CrashSchedule` at its scheduled kill point and by
    :class:`FaultyFragmentStore` when its operation budget runs out.
    Tests catch exactly this type, so a real bug raising anything else
    still fails loudly.
    """


class CrashSchedule:
    """Record WAL kill-point visits; die at visit *kill_at* (0-based).

    With ``kill_at=None`` the schedule only traces — run the operation
    once to learn ``trace`` (the ordered kill-point names it visits),
    then replay with ``kill_at`` drawn from ``range(len(trace))``.
    """

    def __init__(self, kill_at: int | None = None):
        self.kill_at = kill_at
        self.trace: list = []

    def __call__(self, point: str) -> None:
        visit = len(self.trace)
        self.trace.append(point)
        if self.kill_at is not None and visit == self.kill_at:
            raise SimulatedCrash(f"killed at {point!r} (visit {visit})")


@contextlib.contextmanager
def inject(hook):
    """Install *hook* as the WAL crash hook for the ``with`` body."""
    previous = wal.set_crash_hook(hook)
    try:
        yield hook
    finally:
        wal.set_crash_hook(previous)


def trace(operation) -> list:
    """Run *operation* () once, returning the kill points it visits."""
    schedule = CrashSchedule()
    with inject(schedule):
        operation()
    return schedule.trace


def crash_everywhere(make_operation) -> int:
    """Run ``make_operation()()`` dying at every reachable kill point.

    *make_operation* must return a fresh operation callable per run
    (each run starts from a clean state).  The first run traces; each
    subsequent run kills at the next visit index and must raise
    :class:`SimulatedCrash`.  Returns the number of crash runs; the
    caller verifies recovery after each via the operation's own state.
    """
    points = trace(make_operation())
    for kill_at in range(len(points)):
        schedule = CrashSchedule(kill_at=kill_at)
        operation = make_operation()
        with inject(schedule):
            try:
                operation()
            except SimulatedCrash:
                pass
            else:
                raise AssertionError(
                    f"kill at visit {kill_at} ({points[kill_at]!r}) did not fire"
                )
    return len(points)


class FaultyFragmentStore(StoreWrapper):
    """A wrapping store that fails deterministically on command.

    Parameters
    ----------
    inner:
        The real store every successful operation reaches.
    fail_after:
        Mutating operations to allow — a ``transact`` spends one for its
        put batch and one per delete, so ``put`` / ``put_many`` /
        ``delete`` each cost one; the next one raises
        :class:`SimulatedCrash`.  ``None`` never fails.
    torn_writes:
        When the failing operation is a put batch, first write the
        first half of its batch through — a torn batched write, the
        exact anomaly the WAL exists to mask.  (Without it the failing
        operation aborts cleanly before touching the inner store.)
    short_reads:
        Truncate every ``get``/``get_many`` payload to this many bytes,
        modelling a half-transferred object; decode layers must detect
        the damage rather than return wrong data.
    fault_rate:
        Probability (seeded via *seed*) that any read raises
        :class:`~repro.storage.resilience.FaultStoreError` — the
        *transient* failure the resilience layer retries; the next
        attempt sees a healthy store.
    latency_s:
        Sleep this long before serving each read — a uniformly slow
        backend for deadline and straggler-hedging tests.
    """

    def __init__(
        self,
        inner: FragmentStore,
        fail_after: int | None = None,
        torn_writes: bool = False,
        short_reads: int | None = None,
        fault_rate: float = 0.0,
        seed: int = 0,
        latency_s: float = 0.0,
    ):
        super().__init__(inner)
        self.fail_after = fail_after
        self.torn_writes = bool(torn_writes)
        self.short_reads = short_reads
        self.fault_rate = float(fault_rate)
        self.latency_s = float(latency_s)
        self._rng = random.Random(seed)
        #: Mutating operations the wrapper has let through.
        self.mutations = 0
        #: Transient faults raised (``fail_next`` plus ``fault_rate``).
        self.transient_faults = 0
        self._fail_next = 0

    def fail_next(self, count: int) -> None:
        """Make the next *count* reads fail transiently, then recover.

        Each failing read raises
        :class:`~repro.storage.resilience.FaultStoreError` (a
        ``ConnectionError``, so the retry taxonomy classes it
        transient); read ``count + 1`` succeeds — the deterministic
        shape for asserting "a retry policy with enough attempts
        absorbs this, one with fewer does not".
        """
        self._fail_next = int(count)

    def _flake(self) -> None:
        """Raise the transient fault if one is scheduled or drawn."""
        if self.latency_s > 0.0:
            time.sleep(self.latency_s)
        if self._fail_next > 0:
            self._fail_next -= 1
            self.transient_faults += 1
            raise FaultStoreError("injected transient fault (fail_next)")
        if self.fault_rate > 0.0 and self._rng.random() < self.fault_rate:
            self.transient_faults += 1
            raise FaultStoreError("injected transient fault (fault_rate)")

    def _spend(self, batch=None) -> None:
        """Consume one mutation from the budget; die when exhausted."""
        if self.fail_after is not None and self.mutations >= self.fail_after:
            if self.torn_writes and batch:
                # the first half only; a singleton has no prefix to tear
                self.inner.put_many(batch[: len(batch) // 2])
            raise SimulatedCrash(
                f"store failed after {self.mutations} mutating operation(s)"
            )
        self.mutations += 1

    def _maim(self, payload: bytes) -> bytes:
        """Apply the short-read truncation, if configured."""
        if self.short_reads is not None:
            return payload[: self.short_reads]
        return payload

    def transact(self, puts, deletes=()) -> None:
        """Write the batch, then each delete, spending the failure budget.

        One unit for the put batch (torn on exhaustion when configured)
        and one per delete, each checked just before it reaches the
        inner store.
        """
        batch = self._check_batch(puts)
        if batch:
            self._spend(batch=batch)
            self.inner.put_many(batch)
        for variable, segment in deletes:
            self._spend()
            self.inner.delete(variable, segment)

    def get_many(self, keys) -> dict:
        """Read a batch (transient faults and truncation apply)."""
        self._flake()
        return {k: self._maim(p) for k, p in self.inner.get_many(keys).items()}
