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
        └── RetrievalService  (shared; value ranges, masks, accounting)
              └── Archive over CachingFragmentStore
                    ├── FragmentCache   (shared LRU, byte budget)
                    └── FragmentStore   (disk / sharded / in-memory)

Each :class:`ClientSession` keeps the full incremental economics of
:class:`~repro.core.retrieval.RetrievalSession` — successive, tighter
requests from the same client only move incremental fragments — while the
cache collapses the *cross-client* redundancy that sessions alone cannot
see.  ``ClientSession.retrieve`` is self-contained per client; the only
state shared between threads is the lock-protected cache and the service
counters, so sessions may run on concurrent threads.

Under heavy traffic the service applies *admission control* rather than
unbounded queueing: a bounded in-flight budget (``max_inflight``),
per-client :class:`~repro.storage.resilience.TokenBucket` rate limits,
and per-request priorities —
a request that cannot be admitted is shed immediately with
:class:`OverloadedError` carrying a ``retry_after_ms`` hint, leaving no
server-side state behind.  Admitted requests may still come back
*degraded* (deadline hit, slow tier down — see
:class:`~repro.core.retrieval.RetrievalResult`); every outcome —
admitted, shed, degraded — is counted in :class:`ServiceStats`, so
overload is always an explicit, observable contract, never a hang.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.assigner import DEFAULT_REDUCTION_FACTOR
from repro.core.ingest import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_INGEST_WORKERS,
    IngestConfig,
    IngestPipeline,
    IngestReport,
    update_manifest,
)
from repro.core.pipeline import DEFAULT_MAX_WORKERS, DEFAULT_PIPELINE_DEPTH, PipelineConfig
from repro.core.retrieval import QoIRetriever, RetrievalResult, RetrievalSession
from repro.storage.archive import Archive
from repro.storage.cache import CacheStats, CachingFragmentStore, DEFAULT_CACHE_BYTES, FragmentCache
from repro.storage.cluster import ClusterFragmentStore, ClusterStats
from repro.service.planner import FetchScheduler, PlannerStats, QueryPlanner
from repro.storage.metadata import MANIFEST_SEGMENT, MANIFEST_VARIABLE, DatasetManifest
from repro.storage.resilience import ResilienceStats, TokenBucket
from repro.storage.store import FragmentStore, open_directory_store, open_store
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
    ``retrieval_rounds`` aggregate the per-round compute-vs-I/O
    wall-time split every client retrieval records (see
    :meth:`~repro.core.pipeline.FetchPipeline.record_round`), and
    ``executor`` carries the kernel executor's task/fallback counters
    (:class:`~repro.parallel.executor.ExecutorStats`) when the service
    runs one.

    The admission-control triple makes every overload outcome visible:
    ``requests_admitted`` / ``requests_shed`` / ``requests_degraded``
    partition traffic into the three explicit contracts (served at full
    tolerance, rejected with a retry hint, served with looser-but-valid
    bounds).  ``requests_inflight`` is the instantaneous concurrency,
    ``hedged_fetches`` counts duplicated straggler reads, and
    ``worst_degraded_ratio`` is the largest achieved-error /
    requested-tolerance ratio any degraded request returned (1.0 would
    mean it met tolerance after all).  ``resilience`` carries the backing
    store's retry/breaker counters when it is resilience-wrapped — for a
    cluster backend these are the per-node wrappers *merged*, so a
    single dead node still flips ``breaker_is_open``.  ``cluster``
    carries the scale-out fabric's aggregate and per-node counters
    (requests, bytes, failovers, rebalanced fragments) when the backing
    store is a :class:`~repro.storage.cluster.ClusterFragmentStore`.
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
    executor: "ExecutorStats | None" = None
    requests_admitted: int = 0
    requests_shed: int = 0
    requests_degraded: int = 0
    requests_inflight: int = 0
    hedged_fetches: int = 0
    worst_degraded_ratio: float = 0.0
    resilience: ResilienceStats | None = None
    cluster: ClusterStats | None = None
    planner: PlannerStats | None = None


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
    masks:
        Optional ``{variable: ZeroMask}`` applied in every client session
        (§V-A).
    cache / cache_bytes:
        Share an existing :class:`FragmentCache` across services, or size
        a private one.
    pipeline_depth / max_workers:
        Fetch/decode pipeline knobs every client session retrieves with
        (see :class:`~repro.core.pipeline.PipelineConfig`).  Sessions
        plan each round's fragment set up front and pull it through the
        shared cache with single-flight *batched* loads, so concurrent
        clients' overlapping rounds coalesce into shared store passes.
    lazy_loading:
        Load archived variables lazily (the default): opening a request's
        variables costs two small store round trips in all and fragments
        move only when a client's retrieval plan demands them.  Set False to restore the
        eager fetch-everything-at-load behavior.
    executor / workers:
        Kernel executor every client session decodes through — an
        instance, a backend name (``"serial"``/``"thread"``/
        ``"process"``), or None to follow the ``REPRO_EXECUTOR``
        environment default.  With the process backend the service's
        fragment cache is arena-backed: payloads land in shared-memory
        slabs on fetch and decode workers read them in place, so cross-
        client cache hits *and* kernel inputs are zero-copy.
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
    hedge_delay_s:
        Straggler hedging delay for every client session's fetch
        pipeline (see :class:`~repro.core.pipeline.PipelineConfig`).
    shared_planner:
        Run the cross-request :class:`~repro.service.planner.QueryPlanner`
        and :class:`~repro.service.planner.FetchScheduler` (the default):
        concurrent sessions share one plan cache, and their fetch rounds
        merge into one coalesced store round trip per tick.  Results are
        bit-identical either way; set False to restore fully independent
        per-session planning.
    coalesce_ms:
        How long a scheduling tick holds its first round open for
        concurrent rounds to join (``None`` follows
        :data:`~repro.service.planner.DEFAULT_COALESCE_WINDOW_S`).
        Size it to roughly one fast-store round trip: larger windows
        merge unaligned rounds harder at the cost of that much added
        per-round latency for a solo client.
    slow_trip_rate / slow_trip_burst:
        Budget slow-tier round trips (tiered backend's capacity tier,
        cluster shard fan-outs) to *rate* trips/second with *burst*
        headroom via a blocking :class:`~repro.storage.resilience.TokenBucket`.
        Over-budget rounds *wait* (they are admitted work), and queued
        rounds keep merging in the scheduler while they do.  ``None``
        (default) disables budgeting.
    """

    def __init__(
        self,
        store: FragmentStore,
        value_ranges: dict | None = None,
        masks: dict | None = None,
        cache: FragmentCache | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        reduction_factor: float = DEFAULT_REDUCTION_FACTOR,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        max_workers: int = DEFAULT_MAX_WORKERS,
        lazy_loading: bool = True,
        executor=None,
        workers: int | None = None,
        max_inflight: int | None = None,
        client_rate: float | None = None,
        client_burst: float | None = None,
        hedge_delay_s: float | None = None,
        shared_planner: bool = True,
        coalesce_ms: float | None = None,
        slow_trip_rate: float | None = None,
        slow_trip_burst: float | None = None,
    ):
        from repro.parallel.executor import make_executor

        self._inner = store
        self.executor = make_executor(executor, workers=workers)
        arena = getattr(self.executor, "arena", None)
        self.cache = (
            cache if cache is not None else FragmentCache(cache_bytes, arena=arena)
        )
        self.store = CachingFragmentStore(store, self.cache)
        self.archive = Archive(self.store)
        self.reduction_factor = float(reduction_factor)
        self.pipeline = PipelineConfig(
            pipeline_depth=int(pipeline_depth),
            max_workers=int(max_workers),
            hedge_delay_s=None if hedge_delay_s is None else float(hedge_delay_s),
        )
        self.lazy_loading = bool(lazy_loading)
        self._masks = dict(masks or {})
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
        self._hedged_fetches = 0
        self._worst_degraded_ratio = 0.0
        self._latency_ewma_s = 0.0  # recent retrieval wall time
        self.planner = QueryPlanner() if shared_planner else None
        self.scheduler = None
        if shared_planner:
            scheduler_kwargs = {}
            if coalesce_ms is not None:
                scheduler_kwargs["coalesce_window_s"] = float(coalesce_ms) / 1000.0
            self.scheduler = FetchScheduler(self.planner, **scheduler_kwargs)
        self.trip_budget = None
        if slow_trip_rate is not None:
            self.trip_budget = TokenBucket(float(slow_trip_rate), slow_trip_burst)
            self._install_trip_budget(store)

    def _install_trip_budget(self, store) -> None:
        """Hand the service's trip budget to the layer that spends it.

        :class:`~repro.storage.tiered.TieredStore` (slow-tier gets) and
        :class:`~repro.storage.cluster.ClusterFragmentStore` (per-shard
        fan-outs) expose ``trip_budget``; every
        :class:`~repro.storage.store.StoreWrapper` forwards the attribute
        down its ``inner`` chain, so setting it on the outermost store
        reaches them through resilience wrappers and the like.  A cluster
        of tiered nodes budgets at the cluster layer only; node-local
        tiers are behind the network hop.
        """
        if hasattr(store, "trip_budget"):
            store.trip_budget = self.trip_budget

    @classmethod
    def open(
        cls, archive_dir: str, sharded: bool | None = None, **kwargs
    ) -> "RetrievalService":
        """Open a service over an archive directory or store URL.

        *archive_dir* accepts everything :func:`open_store` does —
        a plain directory (``sharded=None`` auto-detects the layout from
        the persisted index the sharded layout leaves behind)
        or a ``file://``/``sharded://``/``http://``/``tiered://``/
        ``cluster://`` URL.  A tiered backend's transfer thread is
        started so promotion runs for the life of the service; a cluster
        backend's rebalancer thread likewise, so membership changes
        migrate in the background.
        """
        if sharded is None:
            store = open_store(archive_dir)
        else:
            store = open_directory_store(archive_dir, sharded=sharded)
        if isinstance(store, TieredStore):
            store.start_transfer()
        if isinstance(store, ClusterFragmentStore):
            store.start_rebalancer()
        return cls(store, **kwargs)

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

    def load_refactored(self, variable: str, lazy: bool | None = None):
        """Load one archived variable through the shared cache.

        ``lazy=None`` follows the service's ``lazy_loading`` default and
        is the one-variable form of :meth:`load_variables`; an explicit
        *lazy* override bypasses the planner memo (it changes the load
        shape).
        """
        if lazy is None:
            return self.load_variables([variable])[variable]
        with self._lock:
            self._variables_loaded += 1
        return self.archive.load(variable, lazy=lazy)

    def load_variables(self, variables) -> dict:
        """Open several archived variables as one batch; ``{name: Refactored}``.

        The whole batch costs the archive's two open round trips (see
        :meth:`~repro.storage.archive.Archive.load_dataset`) instead of
        two per variable.  With the shared planner on, loads memoize on
        ``(variable, generation)`` with single-flight, so N concurrent
        sessions opening the same variables cost one batched archive
        load, and a session whose variables are partly memoized loads
        only its misses.
        """
        names = list(variables)
        with self._lock:
            self._variables_loaded += len(names)
            generations = {name: self._generations.get(name, 0) for name in names}

        def loader(misses):
            return self.archive.load_dataset(misses, lazy=self.lazy_loading)

        if self.planner is not None:
            return self.planner.load_many(generations, loader)
        return loader(names)

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
        :class:`~repro.core.ingest.IngestReport`.
        """
        from repro.compressors.base import make_refactorer

        config = IngestConfig(
            workers=DEFAULT_INGEST_WORKERS if workers is None else int(workers),
            flush_bytes=(
                DEFAULT_FLUSH_BYTES if flush_bytes is None else int(flush_bytes)
            ),
        )
        refactorer = make_refactorer(method)
        with self._ingest_lock:
            report = IngestPipeline(self.store, config, executor=self.executor).ingest(
                variables, refactorer, timestep=timestep
            )
            with self._lock:
                if self.manifest is None:
                    self.manifest = DatasetManifest(dataset="live")
                update_manifest(
                    self.manifest, self.store, variables, method, report,
                    timestep=timestep,
                )
                for name in variables:
                    archived = (
                        timestep_variable(name, timestep)
                        if timestep is not None
                        else name
                    )
                    # the memoized fragment source would serve superseded
                    # payloads to later lazy loads — drop it, and every
                    # planner memo (representation, plans, seeds) with it
                    self.archive.invalidate_source(archived)
                    if self.planner is not None:
                        self.planner.invalidate(archived)
                    self._ranges[archived] = (
                        self.manifest.variables[archived].value_range
                    )
                    self._generations[archived] = (
                        self._generations.get(archived, 0) + 1
                    )
                    self._variables_ingested += 1
            self.manifest.save_to(self.store)
        return report

    def open_session(self, client_id: str | None = None) -> "ClientSession":
        """Open an independent client session (safe to use on its own thread)."""
        with self._lock:
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
            self._hedged_fetches += getattr(result, "hedged_fetches", 0)
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
        stores compact under their write locks and readers never touch
        dead files.  Returns the store's
        :class:`~repro.storage.wal.CompactionReport` (all zeros on
        backends without a commit log).
        """
        return self._inner.compact()

    def close(self) -> None:
        """Close the backing store (flushes and stops a tiered backend).

        The kernel executor is *not* closed here: string-spec executors
        are process-wide shared instances (released atexit), and an
        instance passed in belongs to its caller.
        """
        if self.scheduler is not None:
            self.scheduler.close()
        self._inner.close()

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
        planner_stats = self.planner.stats() if self.planner is not None else None
        if self.trip_budget is not None:
            if planner_stats is None:
                planner_stats = PlannerStats()
            budget = self.trip_budget.snapshot()
            planner_stats.slow_tier_trips_budgeted = budget["acquires"]
            planner_stats.slow_tier_throttle_waits = budget["waits"]
            planner_stats.slow_tier_throttle_wait_seconds = budget["wait_seconds"]
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
                executor=(
                    self.executor.stats() if self.executor is not None else None
                ),
                requests_admitted=self._requests_admitted,
                requests_shed=self._requests_shed,
                requests_degraded=self._requests_degraded,
                requests_inflight=self._inflight,
                hedged_fetches=self._hedged_fetches,
                worst_degraded_ratio=self._worst_degraded_ratio,
                resilience=resilience,
                cluster=cluster,
                planner=planner_stats,
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
            {}, {},
            reduction_factor=service.reduction_factor,
            pipeline_depth=service.pipeline.pipeline_depth,
            max_workers=service.pipeline.max_workers,
            hedge_delay_s=service.pipeline.hedge_delay_s,
            executor=service.executor,
        )
        self._session = RetrievalSession(self._retriever)
        self._generations: dict = {}  # variable -> generation loaded at
        if service.planner is not None:
            # share the service planner's memos and route this session's
            # fetch rounds through the merging scheduler; the retriever's
            # generation map aliases ours so _ensure_variables keeps the
            # planner's memo keys current for free
            self._retriever.planner = service.planner
            self._retriever.fetch_sink = service.scheduler
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
            self._retriever.add_variable(
                name, loaded[name], value_range, mask=self._service._masks.get(name)
            )
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

        The request first passes the service's admission control
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
