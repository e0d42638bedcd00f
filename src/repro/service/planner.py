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
  memoized plans bit-identical to per-session planning.  An *answer
  memo* shares the expensive half too: decoded reader states, keyed on
  ``(variable, generation, state token)`` and adopted by a reader
  instead of decoding, and QoI verdicts (largest bound, worst points)
  keyed on the QoI and the states it reads.  Every memo invalidates on
  the per-variable generation bump a live ingest makes.
* :class:`FetchScheduler` — **cross-request round merging**.  Sessions
  submit whole round plans; a scheduler thread drains the queue each
  tick and runs the merged plan through the read path's one fetch
  routine, :func:`~repro.storage.archive.prefetch_plans`: duplicates
  drop at the shared fragment sources' claims, and each backing store
  gets ONE coalesced ``get_many`` (per shard on a cluster backend).
  Rounds that queue while a fetch is in flight merge into the next tick
  for free.

Sessions widen a fetching round with the fragments the next round is
predicted to need (see :mod:`repro.core.pipeline`); the widening arrives
here as part of the round's own plan, so it is merged and deduplicated
exactly like the rest of the round.

Bit-identity: planning is read-only (``plan_segments`` computes from
metadata, never mutates), merged fetches only *warm* sources and the
shared cache (``absorb`` is idempotent, decode consumes exactly what its
own plan demands), and memo keys capture the full reader state — so a
service session returns byte-for-byte what a library
:class:`~repro.core.retrieval.QoIRetriever` session over the same
archive returns, which ``tests/test_service_planner.py`` asserts.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.core.estimators import seed_bounds
from repro.storage.archive import prefetch_plans
from repro.storage.cache import DEFAULT_CACHE_BYTES

#: Bound on memoized plans / estimation seeds: reader state tokens advance
#: monotonically per session generation, so old entries go cold — an LRU
#: keeps a long-lived service's memo from growing without bound.
MAX_PLAN_MEMO = 4096

#: How long a scheduling tick holds its first round for concurrent rounds
#: to join before dispatching; a constant, no caller tunes it.
#: Concurrent sessions' rounds are never perfectly aligned; a hold of
#: roughly one fast-store round trip lets unaligned rounds coalesce into
#: one ``get_many`` instead of each paying its own — the difference
#: between ~1.5x and >2x trip reduction on an 8-client overlapping
#: workload.  A solo session pays at most this much extra latency per
#: round, negligible against any remote store hop.
DEFAULT_COALESCE_WINDOW_S = 0.002


#: Share of a service's cache budget its answer memo (decoded reader
#: states and QoI verdicts) takes: ``cache bytes // ANSWER_SHARE``.  At
#: the default 256 MiB that is 16 MiB; three (16, 48, 48) variables at
#: four states each over three timesteps hold about 10.6 MB.
ANSWER_SHARE = 16

#: The answer memo's byte budget at the default cache budget.
DEFAULT_ANSWER_BYTES = DEFAULT_CACHE_BYTES // ANSWER_SHARE

#: Bytes charged per memoized verdict on top of its worst points.
_VERDICT_OVERHEAD = 64


def _freeze(segments):
    """Immutable memo form of a ``plan_segments`` result."""
    return None if segments is None else tuple(segments)


def _read_only(array) -> np.ndarray:
    """A private, read-only copy of *array* for the answer memo."""
    array = np.array(array, copy=True)
    array.flags.writeable = False
    return array


class _Flight:
    """One answer being computed; sessions missing on its key wait here."""

    __slots__ = ("done", "value")

    def __init__(self):
        self.done = threading.Event()
        self.value = None  # the memo form, set when the computation succeeded


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
    scheduler actually issued across ``scheduler_ticks`` ticks.
    ``states_shared`` counts reader requests answered by
    adopting another session's decoded state, and ``verdicts_shared``
    QoI estimates answered from another session's verdict (memo hits and
    waits on an in-flight computation alike).
    """

    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    representations_shared: int = 0
    representations_loaded: int = 0
    states_shared: int = 0
    verdicts_shared: int = 0
    merged_rounds: int = 0
    scheduler_ticks: int = 0
    coalesced_round_trips: int = 0
    deduped_fragments: int = 0

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

    def __init__(
        self, max_plan_memo: int = MAX_PLAN_MEMO,
        answer_bytes: int = DEFAULT_ANSWER_BYTES,
    ):
        self.max_plan_memo = int(max_plan_memo)
        self.answer_bytes = max(0, int(answer_bytes))
        self._lock = threading.Lock()
        self._reps: dict = {}  # (variable, generation) -> Refactored
        self._rep_flights: dict = {}  # key -> Event set when its load lands
        self._plans: OrderedDict = OrderedDict()  # plan memo (LRU)
        self._plan_flights: dict = {}  # key -> Event (in-flight computation)
        self._seeds: OrderedDict = OrderedDict()  # Algorithm 3 seed memo (LRU)
        self._seed_flights: dict = {}
        # answer memo: key -> (value, bytes, variables), LRU under answer_bytes
        self._answers: OrderedDict = OrderedDict()
        self._answers_held = 0
        self._answer_flights: dict = {}  # key -> (_Flight, variables)
        self._answers_seen: OrderedDict = OrderedDict()  # computed once: key -> variables
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

    # -- answer memo -----------------------------------------------------------

    def request(self, reader, state: tuple, eb: float):
        """``reader.request(eb)``, sharing decoded states across sessions.

        *state* is ``(variable, generation, reader.state_after(eb))``.
        A reader state is a pure function of ``(variable, generation,
        planes per level)`` and decode is bit-identical however the
        planes arrived, so a reader whose request would land on a state
        another session already decoded adopts that reconstruction
        (:meth:`~repro.compressors.base.ProgressiveReader.adopt`) and
        decodes nothing; concurrent sessions heading for the same state
        decode it once.  A request that does not move the reader, and
        any request on a zero-byte memo, is the plain request.
        """
        if not self.answer_bytes or state[2] == reader.plan_token():
            return reader.request(eb)
        value, shared = self._answer(
            ("state",) + tuple(state), (state[0],),
            lambda: reader.request(eb),
            lambda rec: (_read_only(rec), rec.nbytes),
            "states_shared",
        )
        return reader.adopt(eb, value.copy()) if shared else value

    def verdict(self, key, variables, estimate) -> tuple:
        """Memoized ``(estimate, worst points)`` of one QoI on shared states.

        *key* must identify every input of the estimate: the QoI's
        structural key, its region, and per variable the
        ``(variable, generation, state token)`` its reconstruction was
        decoded at.  Every session of a service applies the same zero
        masks to a variable, so that fixes the values and the bounds the
        QoI is evaluated on.  *estimate* computes the verdict on a miss.
        """
        if not self.answer_bytes:
            return estimate()
        value, _ = self._answer(
            ("verdict",) + tuple(key), tuple(variables), estimate,
            lambda v: (
                (v[0], _read_only(v[1])), v[1].nbytes + _VERDICT_OVERHEAD
            ),
            "verdicts_shared",
        )
        return value

    def _answer(self, key, variables, compute, freeze, shared_field: str):
        """Single-flight lookup of one answer: ``(value, shared?)``.

        A hit, or a wait on another session's computation, returns the
        memo form (read-only) with ``True``; otherwise this thread runs
        *compute* and returns its own result with ``False``.  Only an
        answer computed a second time is memoized: a state or verdict
        nobody asks for again (a timestep read once) never takes memo
        bytes.  A racing :meth:`invalidate` drops the flight, so a stale
        answer is handed to its waiters but never memoized.
        """
        while True:
            with self._lock:
                hit = self._answers.get(key)
                if hit is not None:
                    self._answers.move_to_end(key)
                    setattr(self._stats, shared_field, getattr(self._stats, shared_field) + 1)
                    return hit[0], True
                entry = self._answer_flights.get(key)
                if entry is None:
                    flight = _Flight()
                    self._answer_flights[key] = (flight, variables)
                    break
            flight = entry[0]
            flight.done.wait()
            if flight.value is not None:
                self._count(shared_field)
                return flight.value, True
            # the computation failed: compute it here, or join a retry
        try:
            value = compute()
            frozen, nbytes = freeze(value)
        except BaseException:
            with self._lock:
                if self._answer_flights.get(key, (None,))[0] is flight:
                    del self._answer_flights[key]
            flight.done.set()
            raise
        flight.value = frozen
        with self._lock:
            if self._answer_flights.get(key, (None,))[0] is flight:
                del self._answer_flights[key]
                self._keep(key, frozen, nbytes, variables)
        flight.done.set()
        return value, False

    def _keep(self, key, frozen, nbytes: int, variables) -> None:
        # caller holds self._lock
        seen = self._answers_seen
        if seen.pop(key, None) is None:
            seen[key] = variables
            while len(seen) > self.max_plan_memo:
                seen.popitem(last=False)
            return
        if nbytes > self.answer_bytes:
            return
        self._answers[key] = (frozen, nbytes, variables)
        self._answers_held += nbytes
        while self._answers_held > self.answer_bytes:
            _, (_, dropped, _) = self._answers.popitem(last=False)
            self._answers_held -= dropped

    # -- staleness -------------------------------------------------------------

    def invalidate(self, variable: str) -> None:
        """Drop every memo of one variable (its generation just bumped).

        Called by the service's live-ingest path next to
        :meth:`~repro.storage.archive.Archive.invalidate_source`:
        memoized representations would keep serving the superseded
        fragments to new sessions, and memoized plans name segments of
        the old layout.  Shared reader states and every verdict computed
        on one of them go too.  In-flight loads and answers of the
        variable are left to land (their waiters get a usable value) but
        are never memoized afterwards.
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
            for key, (_, nbytes, variables) in list(self._answers.items()):
                if variable in variables:
                    del self._answers[key]
                    self._answers_held -= nbytes
            flights = self._answer_flights
            for key in [k for k, (_, names) in flights.items() if variable in names]:
                del flights[key]
            seen = self._answers_seen
            for key in [k for k, names in seen.items() if variable in names]:
                del seen[key]

    def stats(self) -> PlannerStats:
        """Snapshot of the planner/scheduler counters."""
        with self._lock:
            from dataclasses import replace

            return replace(self._stats)


class _FetchRequest:
    """One session's round fetch awaiting the scheduler."""

    __slots__ = ("plans", "event", "fetched", "error")

    def __init__(self, plans):
        self.plans = plans  # [(FragmentSource, [segment, ...]), ...]
        self.event = threading.Event()
        self.fetched = 0
        self.error: BaseException | None = None


class FetchScheduler:
    """Merge concurrent sessions' round fetches into coalesced store passes.

    Sessions call :meth:`fetch` (blocking) from their retrieval threads;
    a dedicated daemon thread drains the whole queue each tick, so rounds
    that arrive while a fetch is in flight merge into the next tick
    without any added idle latency.  Each tick first holds the queue
    open for :data:`DEFAULT_COALESCE_WINDOW_S` so unaligned rounds join
    it.  A tick is one :func:`~repro.storage.archive.prefetch_plans`
    pass over the merged plan: cross-request duplicates drop at the
    shared :class:`~repro.storage.archive.FragmentSource` claims, and
    each backing store gets one ``get_many`` (a cluster store fans it
    out per shard, with replica failover).  A store error releases every
    still-claimed segment and surfaces to exactly the requests that
    claimed a segment which did not arrive.
    """

    def __init__(self, planner: QueryPlanner):
        self._planner = planner
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
        """Alias of :meth:`fetch`; nothing calls it, the benchmark's tracer wraps it."""
        return self.fetch(plans)

    # -- the scheduling tick ---------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                # hold the tick open briefly so concurrent sessions'
                # unaligned rounds land in this batch, not the next
                deadline = time.monotonic() + DEFAULT_COALESCE_WINDOW_S
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
        # one prefetch_plans pass over the merged plan, claimed in arrival
        # order: the first round to plan a segment fetches it, later rounds
        # ride along (their decode awaits the absorb)
        claims: list = []
        error = None
        try:
            prefetch_plans([plan for request in batch for plan in request.plans], claims)
        except BaseException as exc:
            error = exc
        # demultiplex: a request owns what it claimed and fails iff some of
        # that did not arrive; a store whose claims all arrived was one trip
        owned = iter(claims)
        served: dict = {}  # store id -> every segment claimed from it arrived
        deduped = 0
        for request in batch:
            for source, segments in request.plans:
                claimed = next(owned, [])
                arrived = sum(map(source.fetched, claimed))
                deduped += len(segments) - len(claimed)
                request.fetched += arrived
                if arrived < len(claimed):
                    request.error = error
                if claimed:
                    sid = id(source.store)
                    served[sid] = served.get(sid, True) and arrived == len(claimed)
        with self._planner._lock:
            stats = self._planner._stats
            stats.scheduler_ticks += 1
            stats.merged_rounds += len(batch) - 1
            stats.deduped_fragments += deduped
            stats.coalesced_round_trips += sum(served.values())
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            raise error

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
