"""Multi-client retrieval service over one fragment archive.

The seed model of the repo is one analyst driving one
:class:`~repro.core.retrieval.RetrievalSession`.  A data service has a
different shape: one archive, many concurrent clients, and heavily
overlapping fragment demand (every client's Algorithm 2 loop starts from
the same coarse levels).  :class:`RetrievalService` multiplexes client
sessions over a single archive behind a shared
:class:`~repro.storage.cache.FragmentCache`, so a fragment read from the
store for one client is served from memory to every other.

Layering::

    ClientSession  (one per client; per-client reader state)
        └── RetrievalService  (shared; value ranges, accounting)
              ├── QueryPlanner  (shared plans, decoded states, verdicts)
              └── Archive over CachingFragmentStore
                    ├── FragmentCache   (shared LRU, byte budget)
                    └── FragmentStore   (on-disk / remote / in-memory)

Each :class:`ClientSession` keeps the full incremental economics of
:class:`~repro.core.retrieval.RetrievalSession` — successive, tighter
requests from the same client only move incremental fragments — while the
cache collapses the *cross-client* redundancy that sessions alone cannot
see.  ``ClientSession.retrieve`` is self-contained per client and
fetches each round inline on its own thread; the state shared between
threads — the cache, the fragment sources' claims, the planner's memos
and the service counters — is lock-protected, so sessions may run on
concurrent threads.

Under heavy traffic the service applies *admission control* rather than
unbounded queueing: a bounded in-flight budget (``max_inflight``),
per-client :class:`~repro.storage.resilience.TokenBucket` rate limits,
and per-request priorities —
a request that cannot be admitted is shed immediately with
:class:`OverloadedError` carrying a ``retry_after_ms`` hint, leaving no
server-side state behind.  Admitted requests may still come back
*degraded* (deadline hit, store down — see
:class:`~repro.core.retrieval.RetrievalResult`); every outcome —
admitted, shed, degraded — is counted in :class:`ServiceStats`, so
overload is always an explicit, observable contract, never a hang.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field

from repro.core.assigner import DEFAULT_REDUCTION_FACTOR
from repro.core.ingest import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_INGEST_WORKERS,
    IngestConfig,
    IngestPipeline,
    IngestReport,
    update_manifest,
)
from repro.core.retrieval import QoIRetriever, RetrievalResult, RetrievalSession
from repro.storage.archive import Archive
from repro.storage.cache import CacheStats, CachingFragmentStore, DEFAULT_CACHE_BYTES, FragmentCache
from repro.storage.cluster import ClusterFragmentStore, ClusterStats
from repro.service.planner import ANSWER_SHARE, PlannerStats, QueryPlanner
from repro.storage.metadata import MANIFEST_SEGMENT, MANIFEST_VARIABLE, DatasetManifest
from repro.storage.resilience import ResilienceStats, TokenBucket
from repro.storage.store import FragmentStore, open_store
from repro.storage.tiered import TieredStore, TierStats
from repro.storage.wal import CompactionReport, DurabilityStats
from repro.utils.fragment_keys import timestep_variable

# Fraction of the in-flight budget low-priority requests may fill: above
# this watermark ``priority < 0`` work is shed so headroom remains for
# normal traffic even before the budget is exhausted.
LOW_PRIORITY_WATERMARK = 0.75

# Floor on the retry-after hint handed to shed clients, so a freshly
# started service (no latency history yet) still spreads retries out.
MIN_RETRY_AFTER_MS = 50.0


class OverloadedError(RuntimeError):
    """A request was shed by admission control instead of queued.

    Raised *before* any per-request state is created, so a shed request
    leaves the service exactly as it found it.  ``retry_after_ms`` is the
    server's backoff hint — an EWMA of recent retrieval wall time — and
    ``reason`` says which limit fired (``"inflight"`` budget or per-client
    ``"rate"`` bucket).
    """

    def __init__(self, reason: str, retry_after_ms: float):
        super().__init__(f"overloaded ({reason}); retry after {retry_after_ms:.0f} ms")
        self.reason = reason
        self.retry_after_ms = float(retry_after_ms)


@dataclass
class ServiceStats:
    """Aggregate accounting of one :class:`RetrievalService`.

    ``tiers`` carries the per-tier counters
    (:class:`~repro.storage.tiered.TierStats`) when the backing store is
    a :class:`~repro.storage.tiered.TieredStore`, else ``None``.  The
    ``store_puts`` / ``store_bytes_written`` / ``store_put_round_trips``
    triple mirrors the read-side store counters for the write path
    (live ingestion through :meth:`RetrievalService.ingest`).
    ``durability`` carries the backing store's WAL/compaction counters
    (:class:`~repro.storage.wal.DurabilityStats`; all zeros on backends
    without a commit log).  ``io_wait_seconds`` / ``compute_seconds`` /
    ``retrieval_rounds`` aggregate the compute-vs-I/O wall-time split
    every client retrieval books on its
    :class:`~repro.utils.timing.Stopwatch` (``"decode"`` / ``"fetch"``).

    The admission-control triple makes every overload outcome visible:
    ``requests_admitted`` / ``requests_shed`` / ``requests_degraded``
    partition traffic into the three explicit contracts (served at full
    tolerance, rejected with a retry hint, served with looser-but-valid
    bounds).  ``requests_inflight`` is the instantaneous concurrency, and
    ``worst_degraded_ratio`` is the largest achieved-error /
    requested-tolerance ratio any degraded request returned (1.0 would
    mean it met tolerance after all).  ``resilience`` carries the backing
    store's retry/breaker counters when it is resilience-wrapped — for a
    cluster backend these are the per-node wrappers *merged*, so a
    single dead node still flips ``breaker_is_open``.  ``cluster``
    carries the scale-out fabric's aggregate and per-node counters
    (requests, bytes, read and write failovers) when the backing
    store is a :class:`~repro.storage.cluster.ClusterFragmentStore`.
    ``planner`` carries the counters of the service's planner
    (:class:`~repro.service.planner.PlannerStats`).
    """

    sessions_opened: int
    sessions_active: int
    variables_loaded: int
    store_reads: int
    store_bytes_read: int
    store_round_trips: int
    cache: CacheStats
    tiers: TierStats | None = None
    store_puts: int = 0
    store_bytes_written: int = 0
    store_put_round_trips: int = 0
    variables_ingested: int = 0
    durability: DurabilityStats | None = None
    io_wait_seconds: float = 0.0
    compute_seconds: float = 0.0
    retrieval_rounds: int = 0
    requests_admitted: int = 0
    requests_shed: int = 0
    requests_degraded: int = 0
    requests_inflight: int = 0
    worst_degraded_ratio: float = 0.0
    resilience: ResilienceStats | None = None
    cluster: ClusterStats | None = None
    planner: PlannerStats = field(default_factory=PlannerStats)

    def payload(self) -> dict:
        """The snapshot as plain data, with the derived hit rates added.

        What the ``stats`` op answers and ``/metrics`` renders:
        ``cache.hit_rate`` and ``planner.plan_cache_hit_rate`` join the
        dataclass fields.
        """
        payload = asdict(self)
        payload["cache"]["hit_rate"] = self.cache.hit_rate
        payload["planner"]["plan_cache_hit_rate"] = self.planner.plan_cache_hit_rate
        return payload


class RetrievalService:
    """Serve QoI-preserved retrieval to many clients from one archive.

    Parameters
    ----------
    store:
        The backing fragment store (any :class:`FragmentStore`).  If it
        holds a dataset manifest at the reserved key, value ranges are
        loaded from it automatically.
    value_ranges:
        Extra/override ``{variable: max - min}`` entries (Algorithm 3's
        input) for archives without a manifest.
    cache_bytes:
        The service's memory budget.  ``1 /``
        :data:`~repro.service.planner.ANSWER_SHARE` of it goes to the
        planner's answer memo (decoded reader states and QoI verdicts)
        and the rest to the shared fragment cache.
    reduction_factor:
        Algorithm 4's ``c`` every client session retrieves with.
    max_inflight:
        Bound on concurrently-executing retrievals.  ``None`` (default)
        disables admission control entirely; with a bound, a request
        that would exceed it is shed with :class:`OverloadedError`
        instead of queued, and low-priority requests are shed earlier
        (at ``LOW_PRIORITY_WATERMARK`` of the budget).
    client_rate / client_burst:
        Per-client :class:`~repro.storage.resilience.TokenBucket`
        parameters (requests/second and burst size, at least 1).
        ``client_rate=None`` (default) disables per-client rate limiting.

    Every service runs one cross-request
    :class:`~repro.service.planner.QueryPlanner`: concurrent sessions
    share one plan cache and one answer memo (a warm re-read adopts
    decoded states and estimates instead of recomputing them).  Each
    session fetches its own rounds inline, one coalesced store round
    trip per fetching round, and applies the §V-A zero mask its
    variables were archived with.  After :meth:`close` the service
    refuses every request with ``RuntimeError``.
    """

    def __init__(
        self,
        store: FragmentStore,
        value_ranges: dict | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        reduction_factor: float = DEFAULT_REDUCTION_FACTOR,
        max_inflight: int | None = None,
        client_rate: float | None = None,
        client_burst: float | None = None,
    ):
        self._inner = store
        # the planner's answer memo is carved out of the cache budget
        answer_bytes = int(cache_bytes) // ANSWER_SHARE
        self.cache = FragmentCache(int(cache_bytes) - answer_bytes)
        self.store = CachingFragmentStore(store, self.cache)
        self.archive = Archive(self.store)
        self.reduction_factor = float(reduction_factor)
        self.manifest: DatasetManifest | None = None
        self._ranges: dict = {}
        if store.has(MANIFEST_VARIABLE, MANIFEST_SEGMENT):
            self.manifest = DatasetManifest.load_from(self.store)
            self._ranges.update(self.manifest.value_ranges())
        if value_ranges:
            self._ranges.update({k: float(v) for k, v in value_ranges.items()})
        self._lock = threading.Lock()
        self._ingest_lock = threading.Lock()  # one ingest mutates at a time
        self._generations: dict = {}  # variable -> live-ingest version
        self._sessions_opened = 0
        self._sessions_active = 0
        self._variables_loaded = 0
        self._variables_ingested = 0
        self._io_wait_seconds = 0.0
        self._compute_seconds = 0.0
        self._retrieval_rounds = 0
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.client_rate = self.client_burst = None
        if client_rate is not None:
            # built once to validate the pair here, not on the first request
            limits = TokenBucket(client_rate, client_burst)
            self.client_rate, self.client_burst = limits.rate, limits.burst
        self._buckets: dict = {}  # client_id -> TokenBucket
        self._inflight = 0
        self._requests_admitted = 0
        self._requests_shed = 0
        self._requests_degraded = 0
        self._worst_degraded_ratio = 0.0
        self._latency_ewma_s = 0.0  # recent retrieval wall time
        self.planner = QueryPlanner(answer_bytes=answer_bytes)
        self._closed = False

    @classmethod
    def open(cls, archive_dir: str, **kwargs) -> "RetrievalService":
        """Open a service over an archive directory or store URL.

        *archive_dir* accepts everything :func:`open_store` does — a
        plain directory or a ``file://``/``sharded://``/``http://``/
        ``tiered://``/``cluster://`` URL.
        """
        return cls(open_store(archive_dir), **kwargs)

    def variables(self) -> list:
        """Names of the variables this service can retrieve."""
        if self.manifest is not None:
            # under the lock: a live ingest mutates the manifest dict,
            # and iterating it concurrently would raise
            with self._lock:
                return sorted(self.manifest.variables)
        return self.archive.variables()

    def variable_generation(self, variable: str) -> int:
        """Monotonic per-variable version, bumped by every live ingest.

        Client sessions compare this against the generation they loaded
        a variable at, so a replaced variable is re-resolved (fresh
        representation, reset reader state) on the session's next
        retrieve instead of mixing superseded fragments forever.
        """
        with self._lock:
            return self._generations.get(variable, 0)

    def value_range(self, variable: str) -> float:
        """Algorithm 3's per-variable range; KeyError with guidance if unknown."""
        if variable not in self._ranges:
            raise KeyError(
                f"no value range for variable {variable!r}; known: "
                f"{sorted(self._ranges)} (archive a manifest or pass value_ranges)"
            )
        return self._ranges[variable]

    def load_variables(self, variables) -> dict:
        """Open several archived variables as one batch; ``{name: Refactored}``.

        Loads are lazy: fragments move only when a client's retrieval
        plan demands them, and the whole batch costs the archive's one
        open round trip (see
        :meth:`~repro.storage.archive.Archive.load_dataset`) instead of
        one per variable.  Loads memoize in the planner on
        ``(variable, generation)`` with single-flight, so N concurrent
        sessions opening the same variables cost one batched archive
        load, and a session whose variables are partly memoized loads
        only its misses.
        """
        names = list(variables)
        with self._lock:
            self._variables_loaded += len(names)
            generations = {name: self._generations.get(name, 0) for name in names}
        return self.planner.load_many(generations, self.archive.load_dataset)

    def ingest(
        self,
        variables: dict,
        method: str = "pmgard_hb",
        workers: int | None = None,
        flush_bytes: int | None = None,
        timestep: int | None = None,
    ) -> IngestReport:
        """Absorb new or updated variables into the live archive.

        Runs the streaming ingestion engine
        (:class:`~repro.core.ingest.IngestPipeline`) against the
        service's caching store, so every batched write invalidates the
        shared cache's stale entries — a replaced variable can never be
        served from cache memory after this call returns.  The dataset
        manifest, the service's value ranges, and the per-variable
        generations are updated: new sessions see the new data
        immediately, and existing sessions re-resolve a replaced
        variable (fresh representation, reset reader state) at their
        *next* retrieve.  The one unguarded window is a retrieval
        actively decoding a variable while this call replaces it — that
        retrieval may fail or mix representations; *appending* new
        variables or timesteps (the continuous-update scenario) is
        always safe for concurrent readers.

        *variables* maps names to arrays; *method* selects the
        progressive compressor; *timestep* appends each variable under
        its :func:`~repro.utils.fragment_keys.timestep_variable`
        qualified name.  Concurrent ingests serialize on a lock (client
        retrievals are never blocked).  Returns the engine's
        :class:`~repro.core.ingest.IngestReport`.  When the engine
        raises, the error propagates after every variable of the call
        is re-resolved as above (a flush may have committed before the
        failure); the manifest and value ranges keep their old entries.
        """
        from repro.compressors.base import make_refactorer

        self._check_open()
        config = IngestConfig(
            workers=DEFAULT_INGEST_WORKERS if workers is None else int(workers),
            flush_bytes=(
                DEFAULT_FLUSH_BYTES if flush_bytes is None else int(flush_bytes)
            ),
        )
        refactorer = make_refactorer(method)
        names = [
            timestep_variable(name, timestep) if timestep is not None else name
            for name in variables
        ]
        with self._ingest_lock:
            try:
                report = IngestPipeline(self.store, config).ingest(
                    variables, refactorer, timestep=timestep
                )
                with self._lock:
                    if self.manifest is None:
                        self.manifest = DatasetManifest(dataset="live")
                    update_manifest(
                        self.manifest, self.store, variables, method, report,
                        timestep=timestep,
                    )
                    for archived in names:
                        self._ranges[archived] = (
                            self.manifest.variables[archived].value_range
                        )
                    self._variables_ingested += len(names)
            finally:
                # a flush that committed before a failure replaced payloads
                # too: on every exit drop the memoized fragment source (it
                # would pair superseded indexes with the new payloads) and
                # every planner memo, and bump the generation so open
                # sessions re-resolve
                with self._lock:
                    for archived in names:
                        self.archive.invalidate_source(archived)
                        self.planner.invalidate(archived)
                        self._generations[archived] = (
                            self._generations.get(archived, 0) + 1
                        )
            self.manifest.save_to(self.store)
        return report

    def open_session(self, client_id: str | None = None) -> "ClientSession":
        """Open an independent client session (safe to use on its own thread)."""
        with self._lock:
            self._check_open()
            self._sessions_opened += 1
            self._sessions_active += 1
            if client_id is None:
                client_id = f"client-{self._sessions_opened}"
        return ClientSession(self, client_id)

    def _session_closed(self) -> None:
        with self._lock:
            self._sessions_active -= 1

    def _retry_after_ms(self) -> float:
        # caller holds self._lock
        return max(MIN_RETRY_AFTER_MS, self._latency_ewma_s * 1000.0)

    def _admit(self, client_id: str, priority: int = 0) -> None:
        """Admit one request or shed it with :class:`OverloadedError`.

        Checks the per-client token bucket first (cheapest to refuse),
        then the in-flight budget; ``priority < 0`` requests are shed
        once the budget is ``LOW_PRIORITY_WATERMARK`` full.  On success
        the in-flight count is taken — the caller must pair this with
        :meth:`_release` (try/finally).  A shed request mutates nothing
        but the shed counter.
        """
        with self._lock:
            if self.client_rate is not None:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = TokenBucket(self.client_rate, self.client_burst)
                    self._buckets[client_id] = bucket
                wait = bucket.try_acquire()
                if wait > 0.0:
                    self._requests_shed += 1
                    raise OverloadedError("rate", max(MIN_RETRY_AFTER_MS, wait * 1000.0))
            if self.max_inflight is not None:
                budget = self.max_inflight
                if priority < 0:
                    budget = max(1, int(budget * LOW_PRIORITY_WATERMARK))
                if self._inflight >= budget:
                    self._requests_shed += 1
                    raise OverloadedError("inflight", self._retry_after_ms())
            self._inflight += 1
            self._requests_admitted += 1

    def _release(self) -> None:
        """Return one admitted request's in-flight slot."""
        with self._lock:
            self._inflight -= 1

    def _record_retrieval(self, result, tolerance_ratio: float = 0.0) -> None:
        """Fold one client retrieval's wall-time split into the counters.

        *tolerance_ratio* is the worst achieved-error / requested-
        tolerance ratio across the request batch — meaningful (and > 1)
        only when the result is degraded.
        """
        with self._lock:
            self._io_wait_seconds += result.stopwatch.get("fetch")
            self._compute_seconds += result.stopwatch.get("decode")
            self._retrieval_rounds += result.rounds
            if getattr(result, "degraded", False):
                self._requests_degraded += 1
                self._worst_degraded_ratio = max(
                    self._worst_degraded_ratio, float(tolerance_ratio)
                )
            wall = result.stopwatch.total()
            if wall > 0.0:
                if self._latency_ewma_s == 0.0:
                    self._latency_ewma_s = wall
                else:
                    self._latency_ewma_s += 0.2 * (wall - self._latency_ewma_s)

    def compact(self) -> CompactionReport:
        """Compact the backing store's commit log, reclaiming dead bytes.

        Safe to call while clients retrieve and ingests run — the disk
        stores compact under their write locks, and a read that loses a
        file to the compaction looks its keys up again.  Returns the store's
        :class:`~repro.storage.wal.CompactionReport` (all zeros on
        backends without a commit log).
        """
        return self._inner.compact()

    def close(self) -> None:
        """Refuse every further request, then close the backing store.

        Idempotent.  After it, :meth:`open_session`, :meth:`ingest` and an open session's
        ``retrieve`` raise ``RuntimeError`` before admission and before
        any store access — a request the memos or the cache could
        answer is refused too.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._inner.close()

    def _check_open(self) -> None:
        """Raise ``RuntimeError`` once :meth:`close` has run."""
        if self._closed:
            raise RuntimeError("retrieval service is closed")

    def stats(self) -> ServiceStats:
        """Snapshot of session, store, cache, tier, and cluster accounting."""
        tiers: TierStats | None = None
        if isinstance(self._inner, TieredStore):
            tiers = self._inner.stats()
        cluster: ClusterStats | None = None
        if isinstance(self._inner, ClusterFragmentStore):
            cluster = self._inner.stats()
        resilience_of = getattr(self._inner, "resilience", None)
        resilience = resilience_of() if callable(resilience_of) else None
        with self._lock:
            return ServiceStats(
                sessions_opened=self._sessions_opened,
                sessions_active=self._sessions_active,
                variables_loaded=self._variables_loaded,
                store_reads=self._inner.reads,
                store_bytes_read=self._inner.bytes_read,
                store_round_trips=self._inner.round_trips,
                cache=self.cache.stats(),
                tiers=tiers,
                store_puts=self._inner.puts,
                store_bytes_written=self._inner.bytes_written,
                store_put_round_trips=self._inner.put_round_trips,
                variables_ingested=self._variables_ingested,
                durability=self._inner.durability(),
                io_wait_seconds=self._io_wait_seconds,
                compute_seconds=self._compute_seconds,
                retrieval_rounds=self._retrieval_rounds,
                requests_admitted=self._requests_admitted,
                requests_shed=self._requests_shed,
                requests_degraded=self._requests_degraded,
                requests_inflight=self._inflight,
                worst_degraded_ratio=self._worst_degraded_ratio,
                resilience=resilience,
                cluster=cluster,
                planner=self.planner.stats(),
            )


class ClientSession:
    """One client's stateful view of a :class:`RetrievalService`.

    Wraps a :class:`~repro.core.retrieval.RetrievalSession`, resolving the
    variables each request needs lazily through the service (and therefore
    through the shared cache).  Successive ``retrieve`` calls reuse this
    client's readers, so tightening a tolerance only moves incremental
    fragments — the single-analyst economy — while the shared cache keeps
    *other* clients from re-reading what this one already pulled from the
    store.
    """

    def __init__(self, service: RetrievalService, client_id: str):
        self.client_id = client_id
        self._service = service
        self._retriever = QoIRetriever(
            {}, {}, reduction_factor=service.reduction_factor
        )
        self._session = RetrievalSession(self._retriever)
        self._generations: dict = {}  # variable -> generation loaded at
        # share the service planner's memos; the retriever's generation
        # map aliases ours so _ensure_variables keeps the planner's memo
        # keys current for free
        self._retriever.planner = service.planner
        self._retriever.plan_generations = self._generations
        self._closed = False

    def _ensure_variables(self, requests) -> None:
        involved = set().union(*(r.qoi.variables() for r in requests))
        stale = {}  # name -> (generation, value range) to (re)load at
        for name in sorted(involved):
            generation = self._service.variable_generation(name)
            if (
                name not in self._retriever._refactored
                or self._generations.get(name) != generation
            ):
                stale[name] = (generation, self._service.value_range(name))
        if not stale:
            return
        # one batched open for everything this request newly touches
        loaded = self._service.load_variables(list(stale))
        for name, (generation, value_range) in stale.items():
            self._retriever.add_variable(name, loaded[name], value_range)
            if name in self._generations:
                # a live ingest replaced this variable since it was
                # loaded: the old reader decodes superseded fragments,
                # so this session's state for it starts from scratch
                self._session.reset_variable(name)
            self._generations[name] = generation

    def retrieve(
        self,
        requests,
        max_rounds: int = 100,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> RetrievalResult:
        """Run the QoI-preserved retrieval loop for this client.

        A closed service refuses the request with ``RuntimeError``.
        The request then passes the service's admission control
        (:meth:`RetrievalService._admit`) — it may be shed with
        :class:`OverloadedError` before touching any session state.
        ``priority < 0`` marks the request sheddable-first;
        ``deadline_ms`` bounds the retrieval's wall time, after which the
        best bounds achieved so far are returned with
        ``result.degraded`` set (see
        :meth:`~repro.core.retrieval.RetrievalSession.retrieve`).
        """
        if self._closed:
            raise RuntimeError(f"session {self.client_id!r} is closed")
        self._service._check_open()
        requests = list(requests)
        if not requests:
            raise ValueError("at least one QoIRequest is required")
        self._service._admit(self.client_id, priority=priority)
        try:
            self._ensure_variables(requests)
            result = self._session.retrieve(
                requests,
                max_rounds=max_rounds,
                deadline_s=None if deadline_ms is None else float(deadline_ms) / 1000.0,
            )
        finally:
            self._service._release()
        ratio = 0.0
        if result.degraded:
            for req in requests:
                est = result.estimated_errors.get(req.name)
                if est is not None and req.absolute_tolerance > 0:
                    ratio = max(ratio, float(est) / req.absolute_tolerance)
        self._service._record_retrieval(result, tolerance_ratio=ratio)
        return result

    def bytes_retrieved(self, variable: str | None = None) -> int:
        """Cumulative bytes this client's readers have consumed."""
        return self._session.bytes_retrieved(variable)

    def close(self) -> None:
        """Mark the session closed (idempotent; further retrieves fail)."""
        if not self._closed:
            self._closed = True
            self._service._session_closed()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
