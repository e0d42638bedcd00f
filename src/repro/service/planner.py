"""Cross-request query planning and round-merged fetch scheduling.

The storage layers already dedup *bytes* across concurrent clients (the
shared single-flight :class:`~repro.storage.cache.FragmentCache`, the
per-variable claim registry of
:class:`~repro.storage.archive.FragmentSource`), but every
:class:`~repro.service.service.ClientSession` still *plans* alone: it
re-loads its own representation, re-runs Algorithm 3's estimation
seeding, re-computes ``plan_segments`` per round, and drives its own
fetch round trips.  With N clients asking overlapping tolerance ladders
that is N planning passes and up to N store round trips per round for
one round's worth of work — and round trips, not bytes, dominate
cold-remote wall time.

This module moves the dedup one layer up, from bytes to plans and
rounds:

* :class:`QueryPlanner` — a generation-aware **plan cache**.  Archived
  representations memoize on ``(variable, generation)`` with
  single-flight loading, so N sessions opening one variable cost one
  archive load (and one PMGARD plan-table build) instead of N — and a
  session opening several variables loads only its misses, as one
  batched archive open (:meth:`QueryPlanner.load_many`).
  Estimation seeds (Algorithm 3) memoize on their exact inputs, and
  ``plan_segments`` results memoize on
  ``(variable, generation, reader state token, exact error bound)`` —
  the *exact* ``eb`` float, never a quantized rung, which is what keeps
  memoized plans bit-identical to per-session planning.  Every memo
  invalidates on the per-variable generation bump a live ingest makes.
* :class:`FetchScheduler` — **cross-request round merging**.  Sessions
  submit whole round plans; a dedicated scheduler thread drains the
  queue each tick, merges every concurrent round, claims segments
  atomically through the shared fragment sources (dropping duplicates),
  and issues ONE coalesced ``get_many`` per backing store — per shard
  on a cluster backend, whose ``get_many`` fans out internally.
  Results are demultiplexed to the waiting sessions as their stores
  complete.  This extends single-flight from per-key to whole rounds:
  rounds that queue while a fetch (or a
  :class:`~repro.storage.resilience.TokenBucket` wait) is in flight
  accumulate and merge into the next tick for free.

Sessions widen a fetching round with the fragments the next round is
predicted to need (see :mod:`repro.core.pipeline`); the widening arrives
here as part of the round's own plan, so it is merged, deduplicated and
budgeted exactly like the rest of the round.

Bit-identity: planning is read-only (``plan_segments`` computes from
metadata, never mutates), merged fetches only *warm* sources and the
shared cache (``absorb`` is idempotent, decode consumes exactly what its
own plan demands), and memo keys capture the full reader state — so a
service with the planner on returns byte-for-byte the results of one
with it off, which ``tests/test_service_planner.py`` asserts.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.core.estimators import seed_bounds

#: Bound on memoized plans / estimation seeds: reader state tokens advance
#: monotonically per session generation, so old entries go cold — an LRU
#: keeps a long-lived service's memo from growing without bound.
MAX_PLAN_MEMO = 4096

#: How long a scheduling tick holds its first round for concurrent rounds
#: to join before dispatching.  Concurrent sessions' rounds are never
#: perfectly aligned; a hold of roughly one fast-store round trip lets
#: unaligned rounds coalesce into one ``get_many`` instead of each paying
#: its own — the difference between ~1.5x and >2x trip reduction on an
#: 8-client overlapping workload.  A solo session pays at most this much
#: extra latency per round, negligible against any remote store hop.
DEFAULT_COALESCE_WINDOW_S = 0.002


def _freeze(segments):
    """Immutable memo form of a ``plan_segments`` result."""
    return None if segments is None else tuple(segments)


@dataclass
class PlannerStats:
    """Counters of one service's planner + scheduler (all numeric → /metrics).

    The plan-cache pair counts memo lookups (``plan_segments`` and
    estimation-seed computations together); ``representations_shared`` /
    ``representations_loaded`` split variable opens into memo hits and
    actual archive loads.  ``merged_rounds`` counts round fetches that
    rode along in another round's scheduling tick (0 when every tick
    carried one round); ``deduped_fragments`` counts segments dropped at
    merge time because a concurrent request already claimed them.
    ``coalesced_round_trips`` is the store ``get_many`` calls the
    scheduler actually issued across ``scheduler_ticks`` ticks.  The
    ``slow_tier_throttle_*`` triple mirrors the service's
    :class:`~repro.storage.resilience.TokenBucket` (zeros when no budget
    is configured).
    """

    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    representations_shared: int = 0
    representations_loaded: int = 0
    merged_rounds: int = 0
    scheduler_ticks: int = 0
    coalesced_round_trips: int = 0
    deduped_fragments: int = 0
    slow_tier_trips_budgeted: int = 0
    slow_tier_throttle_waits: int = 0
    slow_tier_throttle_wait_seconds: float = 0.0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of plan lookups served from the memo."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class QueryPlanner:
    """Generation-aware shared plan cache for one retrieval service.

    Thread-safe; one instance is shared by every
    :class:`~repro.service.service.ClientSession` of a service.  Memo
    *computation* runs outside the lock (plans are pure functions of
    reader metadata), so a cache miss never serializes other sessions'
    lookups; representation loads are single-flight (concurrent opens of
    the same variable wait on one archive load).
    """

    def __init__(self, max_plan_memo: int = MAX_PLAN_MEMO):
        self.max_plan_memo = int(max_plan_memo)
        self._lock = threading.Lock()
        self._reps: dict = {}  # (variable, generation) -> Refactored
        self._rep_flights: dict = {}  # key -> Event set when its load lands
        self._plans: OrderedDict = OrderedDict()  # plan memo (LRU)
        self._plan_flights: dict = {}  # key -> Event (in-flight computation)
        self._seeds: OrderedDict = OrderedDict()  # Algorithm 3 seed memo (LRU)
        self._seed_flights: dict = {}
        self._stats = PlannerStats()

    def _count(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self._stats, field, getattr(self._stats, field) + n)

    # -- representation cache --------------------------------------------------

    def load(self, variable: str, generation: int, loader):
        """Memoized, single-flight archive load of one variable.

        The one-variable form of :meth:`load_many`; *loader* is a
        zero-argument callable producing the representation.
        """
        return self.load_many(
            {variable: generation}, lambda names: {variable: loader()}
        )[variable]

    def load_many(self, generations: dict, loader) -> dict:
        """Memoized, single-flight archive load of several variables.

        *generations* maps variable to generation; *loader* takes the
        list of variables this call must actually load — the memo
        misses no other session is already loading — and returns
        ``{variable: Refactored}`` for them, so a session's misses open
        as ONE batched archive load.  A representation loads at most
        once per ``(variable, generation)`` however many sessions open
        it concurrently; variables another session is loading are
        awaited, after this call's own batch.  Sharing the
        representation across sessions is safe: fragment payloads and
        streams are read-only after construction, reader state lives in
        each session's own readers, and the lazily-memoized extras
        (PMGARD plan table, PSZ3 lossless payload) are idempotent to
        racing builders.
        """
        out: dict = {}
        while len(out) < len(generations):
            owned: dict = {}  # key -> the flight this call registered
            awaited = []
            with self._lock:
                for variable, generation in generations.items():
                    if variable in out:
                        continue
                    key = (variable, int(generation))
                    rep = self._reps.get(key)
                    if rep is not None:
                        self._stats.representations_shared += 1
                        out[variable] = rep
                    elif key in self._rep_flights:
                        awaited.append(self._rep_flights[key])
                    else:
                        owned[key] = self._rep_flights[key] = threading.Event()
            reps: dict = {}
            try:
                if owned:
                    loaded = loader([variable for variable, _ in owned])
                    reps = {key: loaded[key[0]] for key in owned}
            finally:
                with self._lock:
                    for key, flight in owned.items():
                        # an invalidate may have raced the load (it drops
                        # the flight entry): serve this caller, but only
                        # memoize when the generation is still current
                        if self._rep_flights.get(key) is flight:
                            del self._rep_flights[key]
                            if key in reps:
                                self._reps[key] = reps[key]
                    self._stats.representations_loaded += len(reps)
                for flight in owned.values():
                    flight.set()
            out.update((key[0], rep) for key, rep in reps.items())
            for flight in awaited:
                flight.wait()  # another session's load; then re-check
        return out

    # -- plan memo -------------------------------------------------------------

    def plan_segments(self, reader, variable: str, generation: int, eb: float):
        """Memoized :meth:`~repro.compressors.base.ProgressiveReader.plan_segments`.

        The key is ``(variable, generation, reader.plan_token(), eb)``
        with the **exact** ``eb`` float — identical ladders produce
        identical bounds through the deterministic Algorithm 3/4
        arithmetic, so exact keys hit across sessions while never
        aliasing two genuinely different plans (which would break
        bit-identity).  Readers without a state token
        (``plan_token() is None``) are planned directly, uncached.
        """
        token = reader.plan_token()
        if token is None:
            return reader.plan_segments(eb)
        key = (variable, int(generation), token, float(eb))
        cached = self._memoized(
            self._plans, self._plan_flights, key,
            lambda: _freeze(reader.plan_segments(eb)),
        )
        return None if cached is None else list(cached)

    def seed_bounds(self, value_ranges, incidence, tolerances):
        """Memoized Algorithm 3 estimation seeding (vectorized).

        Arguments are the (hashable) tuple forms of
        :func:`repro.core.estimators.seed_bounds` inputs; the value
        ranges are part of the key, so a live ingest changing a range
        can never serve stale seeds.  Counted with the plan-cache pair —
        seeds are the estimation half of the plan cache.
        """
        key = (tuple(value_ranges), tuple(incidence), tuple(tolerances))
        return self._memoized(
            self._seeds, self._seed_flights, key,
            lambda: tuple(
                float(s)
                for s in seed_bounds(
                    list(key[0]), [list(r) for r in key[1]], list(key[2])
                )
            ),
        )

    def _memoized(self, memo: OrderedDict, flights: dict, key, compute):
        """Single-flight LRU memoization shared by plans and seeds.

        Concurrent sessions missing on the same key produce ONE
        computation and ONE counted miss — the literal "one planning
        pass" contract ``tests/test_service_planner.py`` asserts by
        counter equality.  A racing :meth:`invalidate` removes the
        flight entry, so the computed value is served to waiters but
        never memoized stale.
        """
        while True:
            with self._lock:
                if key in memo:
                    memo.move_to_end(key)
                    self._stats.plan_cache_hits += 1
                    return memo[key]
                flight = flights.get(key)
                if flight is None:
                    flight = threading.Event()
                    flights[key] = flight
                    break  # this thread owns the computation
            flight.wait()  # then re-check the memo
        try:
            value = compute()  # pure; computed unlocked
        except BaseException:
            with self._lock:
                flights.pop(key, None)
            flight.set()
            raise
        with self._lock:
            self._stats.plan_cache_misses += 1
            if flights.pop(key, None) is not None:
                memo[key] = value
                while len(memo) > self.max_plan_memo:
                    memo.popitem(last=False)
        flight.set()
        return value

    # -- staleness -------------------------------------------------------------

    def invalidate(self, variable: str) -> None:
        """Drop every memo of one variable (its generation just bumped).

        Called by the service's live-ingest path next to
        :meth:`~repro.storage.archive.Archive.invalidate_source`:
        memoized representations would keep serving the superseded
        fragments to new sessions, and memoized plans name segments of
        the old layout.  In-flight loads of the variable are left to
        land (their waiters get a usable representation) but are never
        memoized afterwards.
        """
        with self._lock:
            for key in [k for k in self._reps if k[0] == variable]:
                del self._reps[key]
            for key in [k for k in self._rep_flights if k[0] == variable]:
                del self._rep_flights[key]
            for key in [k for k in self._plans if k[0] == variable]:
                del self._plans[key]
            for key in [k for k in self._plan_flights if k[0] == variable]:
                del self._plan_flights[key]

    def stats(self) -> PlannerStats:
        """Snapshot of the planner/scheduler counters."""
        with self._lock:
            from dataclasses import replace

            return replace(self._stats)


class _FetchRequest:
    """One session's round fetch awaiting the scheduler."""

    __slots__ = ("plans", "event", "fetched", "error", "pending_stores")

    def __init__(self, plans):
        self.plans = plans  # [(FragmentSource, [segment, ...]), ...]
        self.event = threading.Event()
        self.fetched = 0
        self.error: BaseException | None = None
        self.pending_stores: set = set()  # store ids still owing this request


class FetchScheduler:
    """Merge concurrent sessions' round fetches into coalesced store passes.

    Sessions call :meth:`fetch` (blocking) from their pipeline's fetch
    workers; a dedicated daemon thread drains the whole queue each tick,
    so rounds that arrive while a fetch is in flight — or while a
    :class:`~repro.storage.resilience.TokenBucket` gates the slow tier —
    accumulate and merge into the next tick without any added idle
    latency.  Per tick the merged plan is claimed atomically through the
    shared :class:`~repro.storage.archive.FragmentSource` registry
    (cross-request duplicates drop here) and fetched with one
    ``get_many`` per backing store; a cluster store's ``get_many`` fans
    out per shard internally, with replica failover, so a merged round
    spanning a dead node still completes.

    Failure semantics mirror :func:`~repro.storage.archive.prefetch_plans`:
    a store error releases every still-claimed segment (its fragments
    become refetchable immediately) and surfaces to exactly the
    requests whose plans touched an unserved store;
    requests fully served by earlier stores in the same tick succeed.
    """

    def __init__(
        self, planner: QueryPlanner,
        coalesce_window_s: float = DEFAULT_COALESCE_WINDOW_S,
    ):
        self._planner = planner
        self._window = max(0.0, float(coalesce_window_s))
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- session-facing entry points ------------------------------------------

    def fetch(self, plans) -> int:
        """Submit one round's plan; block until its fragments land.

        *plans* is the ``[(source, segments), ...]`` round plan.
        Returns the number of fragments fetched *for this request* (its
        claimed share of the merged fetch).  Store errors propagate to
        the caller exactly as a private fetch's would.
        """
        plans = [
            (source, list(segments)) for source, segments in plans if segments
        ]
        if not plans:
            return 0
        request = _FetchRequest(plans)
        with self._cv:
            if self._closed:
                raise RuntimeError("fetch scheduler is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-scheduler", daemon=True
                )
                self._thread.start()
            self._queue.append(request)
            self._cv.notify()
        request.event.wait()
        if request.error is not None:
            raise request.error
        return request.fetched

    def fetch_speculative(self, plans) -> int:
        """Alias of :meth:`fetch`, kept for callers that wrap it by name.

        Speculation now travels inside the round's own plan (see
        :mod:`repro.core.pipeline`); nothing in the program calls this.
        """
        return self.fetch(plans)

    # -- the scheduling tick ---------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                if self._window > 0.0 and not self._closed:
                    # hold the tick open briefly so concurrent sessions'
                    # unaligned rounds land in this batch, not the next
                    deadline = time.monotonic() + self._window
                    while not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._cv.wait(timeout=remaining)
                batch = list(self._queue)
                self._queue.clear()
            try:
                self._dispatch(batch)
            finally:
                for request in batch:
                    request.event.set()  # no waiter may hang, whatever happened

    def _dispatch(self, batch) -> None:
        planner = self._planner
        with planner._lock:
            planner._stats.scheduler_ticks += 1
            planner._stats.merged_rounds += max(0, len(batch) - 1)
        deduped = 0
        # claim in arrival order: the first round to plan a segment fetches
        # it, later rounds ride along (their decode awaits the absorb)
        by_store: dict = {}
        for request in batch:
            for source, segments in request.plans:
                wanted = source.claim(segments)
                deduped += len(segments) - len(wanted)
                if wanted:
                    sid = id(source.store)
                    request.pending_stores.add(sid)
                    by_store.setdefault(sid, (source.store, []))[1].append(
                        (request, source, wanted)
                    )
        if deduped:
            planner._count("deduped_fragments", deduped)
        outstanding = list(by_store.items())
        while outstanding:
            sid, (store, entries) = outstanding[0]
            try:
                payloads = store.get_many(
                    [(source.variable, seg) for _, source, segs in entries for seg in segs]
                )
            except BaseException as exc:
                # release every still-claimed segment — this store's and
                # every unfetched one's — and attribute the error to the
                # requests an unserved store was owing
                for _, (_, failed_entries) in outstanding:
                    for request, source, segs in failed_entries:
                        source.release(segs)
                        request.error = exc
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                return
            per_source: dict = {}
            for request, source, segs in entries:
                request.fetched += len(segs)
                bucket = per_source.setdefault(id(source), (source, {}))[1]
                for seg in segs:
                    bucket[seg] = payloads[(source.variable, seg)]
            for source, arrived in per_source.values():
                source.absorb(arrived)
            for request, _, _ in entries:
                request.pending_stores.discard(sid)
            planner._count("coalesced_round_trips")
            outstanding.pop(0)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting fetches; drain the queue and join the thread.

        Queued requests still run (their sessions are blocked on them);
        requests submitted after close fail fast.  Idempotent.
        """
        with self._cv:
            self._closed = True
            thread = self._thread
            self._cv.notify_all()
        if thread is not None:
            thread.join(timeout=30.0)
