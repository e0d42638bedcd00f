"""Tiered storage fabric: fast tier over slow tier with async promotion.

The SC24 deployment story keeps the full progressive archive on a
cheap-but-slow tier (object store, tape-fronted PFS, another site) while
the hot fragment prefix — the coarse levels every retrieval touches —
lives on fast storage near the analysts.  :class:`TieredStore` is that
composition as one :class:`~repro.storage.store.FragmentStore`:

* **Reads go fast-tier-first.**  ``get_many`` serves fast-tier
  residents locally; the misses of a batch move in **one** coalesced
  slow-tier ``get_many`` — so the pipelined retrieval engine's per-round
  batches cost one slow round trip however many fragments they span.
* **Writes are write-through or write-back.**  Write-through puts land
  on both tiers (the slow tier is durable immediately); write-back puts
  land on the fast tier only and are flushed to the slow tier
  asynchronously (:meth:`TieredStore.flush` or the transfer thread).
* **A background :class:`TransferManager` rebalances.**  Fragments
  served from the slow tier accumulate access counts/recency (the same
  read accounting every store already keeps); the manager *promotes* the
  hot ones into the fast tier in coalesced batches and *demotes* the
  coldest residents when the fast tier exceeds its byte budget (flushing
  dirty write-back data first, then ``delete`` — never dropping the only
  copy).  When tombstoned debt across the tiers crosses a threshold, a
  cycle also runs a background :meth:`TieredStore.compact`, reclaiming
  the dead bytes the WAL-backed tier stores defer (``docs/durability.md``).

Promotion and demotion are invisible to correctness: a demotion racing a
read simply falls back to the slow tier, and every fragment is always
durably held by at least one tier.  Per-tier counters
(:class:`TierStats`) surface through ``RetrievalService.stats`` and the
``repro stats`` CLI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.storage.resilience import (
    CircuitOpenError,
    DegradedError,
    ResilienceStats,
    ResilientStore,
    is_transient,
    policy_from_params,
)
from repro.storage.store import (
    FragmentStore,
    open_store,
    parse_bytes,
    split_store_url,
    _split_query,
)
from repro.storage.wal import CompactionReport, DurabilityStats

#: Slow-tier accesses after which a fragment is a promotion candidate.
DEFAULT_PROMOTE_AFTER = 1

#: Default background transfer cycle period (seconds).
DEFAULT_TRANSFER_INTERVAL = 2.0

#: Dead (tombstoned) bytes across the tiers at which a transfer cycle
#: triggers a background compaction of the tier stores.
DEFAULT_COMPACT_DEAD_BYTES = 64 << 20

#: Byte bound of one coalesced write-back flush batch: keeps a huge
#: dirty set (a large write-back ingest) from materializing in memory
#: as one oversized slow-tier request.
FLUSH_CHUNK_BYTES = 32 << 20


@dataclass
class TierStats:
    """Per-tier accounting of one :class:`TieredStore`.

    ``fast_hits``/``slow_hits`` count *fragments served* per tier (a
    batched read contributes per fragment); the ``*_round_trips`` fields
    mirror each tier store's own round-trip counters so the coalescing
    is visible.  Promotion/demotion totals come from the transfer
    machinery, wherever it ran (background thread or ``run_once``).
    """

    fast_hits: int = 0
    slow_hits: int = 0
    fast_bytes_served: int = 0
    slow_bytes_served: int = 0
    fast_round_trips: int = 0
    slow_round_trips: int = 0
    promotions: int = 0
    promoted_bytes: int = 0
    demotions: int = 0
    demoted_bytes: int = 0
    writebacks_flushed: int = 0
    fast_resident_bytes: int = 0
    fast_budget_bytes: int = 0
    dirty_fragments: int = 0
    transfer_cycles: int = 0
    #: Read batches answered partially/not at all because the slow tier
    #: was unavailable (each raised a typed ``DegradedError``).
    degraded_batches: int = 0


class TieredStore(FragmentStore):
    """Fast tier composed over a slow tier behind one store interface.

    Parameters
    ----------
    fast / slow:
        Any two :class:`FragmentStore` backends.  The slow tier is
        treated as the archive of record; the fast tier as a bounded
        working set (typically local disk or memory in front of an
        :class:`~repro.storage.remote.HTTPFragmentStore` or
        :class:`~repro.storage.remote.KeyValueFragmentStore`).
    fast_budget_bytes:
        Byte budget of the fast tier (``None`` = unbounded).  Enforced
        by demotion during transfer cycles, not synchronously on put —
        the budget is a target the manager converges to.
    policy:
        ``"write-through"`` (puts land on both tiers; default) or
        ``"write-back"`` (puts land fast and are flushed by transfer
        cycles / :meth:`flush`).
    promote_after:
        Slow-tier accesses after which a fragment qualifies for
        promotion (1 = promote anything touched since the last cycle).
    transfer_interval:
        Period of the background transfer thread.  The thread is not
        started in ``__init__`` — call :meth:`start_transfer`, or drive
        cycles synchronously with :meth:`TransferManager.run_once` (what
        the benchmarks do for determinism).

    The store's own ``reads``/``bytes_read``/``round_trips`` counters
    record *client-visible* traffic (one round trip per ``get``/
    ``get_many`` call, like :class:`CachingFragmentStore`); the split
    between tiers lives in :meth:`stats`.
    """

    def __init__(
        self,
        fast: FragmentStore,
        slow: FragmentStore,
        fast_budget_bytes: int | None = None,
        policy: str = "write-through",
        promote_after: int = DEFAULT_PROMOTE_AFTER,
        transfer_interval: float = DEFAULT_TRANSFER_INTERVAL,
        compact_dead_bytes: int | None = DEFAULT_COMPACT_DEAD_BYTES,
    ):
        super().__init__()
        if policy not in ("write-through", "write-back"):
            raise ValueError(f"unknown put policy {policy!r}")
        if promote_after < 1:
            raise ValueError("promote_after must be >= 1")
        self.fast = fast
        self.slow = slow
        self.policy = policy
        self.fast_budget_bytes = (
            None if fast_budget_bytes is None else int(fast_budget_bytes)
        )
        self.promote_after = int(promote_after)
        # serializes client mutations (transact) with each
        # demotion victim's read-put-delete sequence: without it a
        # write-back put landing between demote's fast.get and its
        # fast.delete would lose the newer payload silently.  Lock
        # ordering is strict: _mutate_lock before _tier_lock, and
        # neither is ever taken while holding the other in reverse.
        self._mutate_lock = threading.RLock()
        self._tier_lock = threading.RLock()
        self._resident: set = set(fast.keys())  # keys served by the fast tier
        self._dirty: set = set()  # write-back keys the slow tier lacks
        self._dirty_epoch: dict = {}  # key -> version; bumped per dirtying put
        self._access: dict = {}  # key -> [slow-tier hits since promotion, tick]
        self._tick = 0  # monotonic access clock (recency for demotion)
        self._last_touch: dict = {}  # key -> tick of last client read
        self._tstats = TierStats(
            fast_budget_bytes=self.fast_budget_bytes or 0,
        )
        #: Optional :class:`~repro.storage.resilience.TokenBucket` gating
        #: client-visible slow-tier round trips (the service installs
        #: one when ``slow_trip_rate`` is configured).  Background
        #: transfer traffic is deliberately exempt — throttling
        #: promotion would starve the mechanism that *reduces* slow
        #: trips — and hedged duplicate reads bypass the store entirely.
        self.trip_budget = None
        self.transfer = TransferManager(
            self,
            interval=float(transfer_interval),
            compact_dead_bytes=compact_dead_bytes,
        )
        # the union index: slow tier first, fast-tier-only keys (write-back
        # survivors, pre-seeded fast tiers) on top
        for variable, segment in slow.keys():
            self._record_put(variable, segment, slow.size_of(variable, segment))
        for variable, segment in fast.keys():
            if (variable, segment) not in self._sizes:
                self._record_put(variable, segment, fast.size_of(variable, segment))
                self._dirty.add((variable, segment))  # only copy is fast-side

    # -- URL form --------------------------------------------------------------

    @classmethod
    def from_url(cls, url: str) -> "TieredStore":
        """Open from a ``tiered://FAST_DIR?slow=URL[&...]`` URL.

        The path names the fast-tier directory (layout auto-detected;
        empty path = in-memory fast tier) and the query configures the
        composition: ``slow=`` (required; any ``open_store`` URL —
        percent-encode it if it carries its own query), ``fast=`` (a
        store URL overriding the path), ``budget=`` (bytes, binary
        suffixes allowed), ``policy=``, ``promote_after=``,
        ``interval=`` (seconds; ``start=1`` launches the background
        thread immediately), ``fsync=`` (WAL discipline of the fast-tier
        directory), and ``compact_dead=`` (dead-byte threshold of
        background compaction; ``0`` disables it).  The resilience keys
        of :func:`~repro.storage.resilience.policy_from_params`
        (``retries``/``retry_base``/``retry_max``/``breaker``/
        ``cooldown``) wrap the **slow tier** in a
        :class:`~repro.storage.resilience.ResilientStore`, enabling
        degraded reads while that backend is down.
        """
        scheme, rest = split_store_url(url)
        if scheme != "tiered":
            raise ValueError(f"not a tiered:// store URL: {url!r}")
        path, params = _split_query(rest)
        if "slow" not in params:
            raise ValueError(f"tiered:// URL needs a slow= backend: {url!r}")
        slow = open_store(params["slow"])
        retry, breaker = policy_from_params(params)
        if retry is not None or breaker is not None:
            if breaker is not None:
                breaker.name = params["slow"]
            slow = ResilientStore(slow, retry=retry, breaker=breaker)
        if "fast" in params:
            fast = open_store(params["fast"])
        elif path:
            fast = open_store(f"file://{path}?fsync={params.get('fsync', 'commit')}")
        else:
            fast = FragmentStore()
        budget = params.get("budget")
        compact_dead: int | None = parse_bytes(
            params.get("compact_dead", DEFAULT_COMPACT_DEAD_BYTES)
        )
        if compact_dead == 0:
            compact_dead = None
        store = cls(
            fast,
            slow,
            fast_budget_bytes=None if budget is None else parse_bytes(budget),
            policy=params.get("policy", "write-through"),
            promote_after=int(params.get("promote_after", DEFAULT_PROMOTE_AFTER)),
            transfer_interval=float(
                params.get("interval", DEFAULT_TRANSFER_INTERVAL)
            ),
            compact_dead_bytes=compact_dead,
        )
        if params.get("start", "0") not in ("0", "", "false"):
            store.start_transfer()
        return store

    # -- reads -----------------------------------------------------------------

    def _degrade(self, keys, exc: BaseException) -> None:
        """Convert a slow-tier outage into a typed :class:`DegradedError`.

        Transient backend failures (exhausted retries, timeouts) and an
        open circuit breaker become a ``DegradedError`` naming exactly
        the *keys* the fast tier could not cover — the caller knows what
        it *did* get served and what is temporarily unavailable.
        Permanent errors (``KeyError`` for unarchived fragments) return
        unchanged so the caller's ``raise`` surfaces them as-is.
        """
        if not (is_transient(exc) or isinstance(exc, CircuitOpenError)):
            return
        with self._tier_lock:
            self._tstats.degraded_batches += 1
        raise DegradedError(keys, reason=f"slow tier unavailable: {exc}") from exc

    def _note_fast(self, keys, nbytes: int) -> None:
        with self._tier_lock:
            self._tick += 1
            for key in keys:
                self._last_touch[key] = self._tick
            self._tstats.fast_hits += len(keys)
            self._tstats.fast_bytes_served += nbytes

    def _note_slow(self, keys, nbytes: int) -> None:
        with self._tier_lock:
            self._tick += 1
            for key in keys:
                self._last_touch[key] = self._tick
                entry = self._access.get(key)
                if entry is None:
                    self._access[key] = [1, self._tick]
                else:
                    entry[0] += 1
                    entry[1] = self._tick
            self._tstats.slow_hits += len(keys)
            self._tstats.slow_bytes_served += nbytes

    def get_many(self, keys) -> dict:
        """Serve a batch: fast residents locally, all misses in one
        coalesced slow-tier round trip.

        While the slow tier is unavailable (transient failure after
        retries, or its circuit breaker open), batches fully covered by
        the fast tier still succeed — *degraded mode*; batches needing
        the slow tier raise :class:`DegradedError` (see :meth:`_degrade`)
        naming exactly the keys that could not be served.
        """
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        missing = [k for k in keys if k not in self._sizes]
        if missing:
            raise KeyError(missing)
        with self._tier_lock:
            fast_keys = [k for k in keys if k in self._resident]
        fast_set = set(fast_keys)
        slow_keys = [k for k in keys if k not in fast_set]
        out: dict = {}
        if fast_keys:
            try:
                out.update(self.fast.get_many(fast_keys))
            except (KeyError, OSError):
                # a demotion raced the residency snapshot: retry the whole
                # fast subset from the slow tier (still one round trip)
                slow_keys = [k for k in keys if k not in out]
            else:
                self._note_fast(fast_keys, sum(len(out[k]) for k in fast_keys))
        if slow_keys:
            if self.trip_budget is not None:
                self.trip_budget.acquire()
            try:
                served = self.slow.get_many(slow_keys)
            except Exception as exc:
                self._degrade(slow_keys, exc)
                raise
            out.update(served)
            self._note_slow(slow_keys, sum(len(p) for p in served.values()))
        out = {k: out[k] for k in keys}
        self._count_reads(out)
        return out

    # -- writes ----------------------------------------------------------------

    def transact(self, puts, deletes=()) -> None:
        """Store a batch under the write policy, then delete, batched per tier.

        The batch lands on the fast tier with one ``put_many``;
        write-through forwards the same batch to the slow tier with one
        more (the durable copy still exists before this call returns),
        while write-back marks every key dirty in one bookkeeping pass
        and leaves the slow-tier copy to :meth:`flush` / the transfer
        thread — so an ingestion flush costs one round trip per tier it
        must touch *now*, never one per fragment.  Each *deletes* key is
        then removed from every tier holding it.  Everything runs under
        one mutation-lock hold, so tier bookkeeping stays consistent
        against concurrent demotions; per-tier WAL atomicity is that of
        the underlying stores' own operations (the slow tier sees one
        ``put_many`` record plus one tombstone record per delete).
        """
        batch = self._check_batch(puts)
        with self._mutate_lock:  # never interleaves with a demotion victim
            if batch:
                self.fast.put_many(batch)
                if self.policy == "write-through":
                    self.slow.put_many(batch)
                keys = [(v, s) for v, s, _ in batch]
                with self._tier_lock:
                    self._resident.update(keys)
                    if self.policy == "write-back":
                        self._dirty.update(keys)
                        for key in keys:
                            self._dirty_epoch[key] = self._dirty_epoch.get(key, 0) + 1
                with self._stats_lock:
                    for variable, segment, payload in batch:
                        self._record_put(variable, segment, len(payload))
                self._count_writes(batch)
            for variable, segment in deletes:
                key = (variable, segment)
                if key not in self._sizes:
                    raise KeyError(key)
                with self._tier_lock:
                    resident = key in self._resident
                    self._resident.discard(key)
                    self._dirty.discard(key)
                    self._dirty_epoch.pop(key, None)
                    self._access.pop(key, None)
                    self._last_touch.pop(key, None)
                if resident:
                    try:
                        self.fast.delete(variable, segment)
                    except KeyError:
                        pass
                try:
                    self.slow.delete(variable, segment)
                except KeyError:
                    pass  # write-back key never flushed
                with self._stats_lock:
                    self._record_delete(variable, segment)

    def flush(self) -> int:
        """Push every dirty write-back fragment to the slow tier.

        The dirty set moves in coalesced slow-tier ``put_many`` batches
        of at most :data:`FLUSH_CHUNK_BYTES` — an ingestion burst of
        write-back puts costs a handful of slow round trips to drain,
        not one per fragment, without ever materializing an unbounded
        dirty set in memory.  A fragment re-put while its batch was in
        flight keeps its dirty mark (per-key epochs detect the newer
        payload), so the next cycle ships the newer bytes — a
        write-back copy is never silently dropped.  Returns the number
        of fragments flushed.  Safe to call any time; the transfer
        thread calls it once per cycle.
        """
        with self._tier_lock:
            dirty = list(self._dirty)
        flushed = 0
        chunk: list = []  # (key, payload, epoch at staging time)
        chunk_bytes = 0

        def drain() -> None:
            nonlocal flushed, chunk_bytes
            if not chunk:
                return
            self.slow.put_many([(v, s, p) for (v, s), p, _ in chunk])
            undo = []
            with self._tier_lock:
                for key, _, epoch in chunk:
                    if key not in self._sizes:
                        undo.append(key)  # a delete raced the batch put:
                        continue          # the written copy must not survive
                    if self._dirty_epoch.get(key, 0) == epoch:
                        self._dirty.discard(key)
                        self._tstats.writebacks_flushed += 1
                        flushed += 1
                    # else: re-dirtied mid-flight; the mark stays and the
                    # next cycle ships the newer payload
            for key in undo:
                try:
                    self.slow.delete(*key)
                except KeyError:
                    pass
            chunk.clear()
            chunk_bytes = 0

        for key in dirty:
            with self._tier_lock:
                if key not in self._sizes or key not in self._dirty:
                    continue  # deleted (or flushed elsewhere) since the snapshot
                # capture the epoch *before* reading the payload: a put
                # landing in between bumps it, so the stale read below can
                # never clear the newer payload's dirty mark
                epoch = self._dirty_epoch.get(key, 0)
            try:
                payload = self.fast.get(*key)
            except (KeyError, OSError):
                continue  # deleted concurrently
            chunk.append((key, payload, epoch))
            chunk_bytes += len(payload)
            if chunk_bytes >= FLUSH_CHUNK_BYTES:
                drain()
        drain()
        return flushed

    # -- transfer machinery ----------------------------------------------------

    def promotion_candidates(self) -> list:
        """Non-resident keys hot enough to promote, hottest first.

        Hotness orders by slow-tier access count then recency; the
        access tallies reset when a key is promoted, so a later demotion
        requires fresh traffic to earn the fast tier back.
        """
        with self._tier_lock:
            ranked = sorted(
                (
                    (count, tick, key)
                    for key, (count, tick) in self._access.items()
                    if count >= self.promote_after and key not in self._resident
                ),
                reverse=True,
            )
        return [key for _, _, key in ranked]

    def promote(self, keys) -> int:
        """Copy *keys* from the slow tier into the fast tier (one batch).

        Reads move in a single coalesced slow-tier ``get_many``; keys
        that vanished concurrently are skipped.  Returns the number of
        fragments promoted.  Respects the byte budget: promotion stops
        once the fast tier would exceed it (the coldest data should be
        demoted first, not displaced by marginally warmer data).
        """
        keys = [k for k in keys if k in self._sizes and k not in self._resident]
        if not keys:
            return 0
        budget = self.fast_budget_bytes
        if budget is not None:
            room = budget - self.fast.nbytes()
            kept = []
            for key in keys:
                size = self._sizes.get(key, 0)
                if size <= room:
                    kept.append(key)
                    room -= size
            keys = kept
            if not keys:
                return 0
        try:
            payloads = self.slow.get_many(keys)
        except KeyError as exc:
            gone = set(exc.args[0]) if exc.args else set()
            keys = [k for k in keys if k not in gone]
            if not keys:
                return 0
            payloads = self.slow.get_many(keys)
        promoted = 0
        for key in keys:
            payload = payloads[key]
            with self._tier_lock:
                live = key in self._sizes
            if not live:
                continue  # deleted since the candidate scan
            self.fast.put(key[0], key[1], payload)
            with self._tier_lock:
                if key not in self._sizes:
                    pass  # a delete raced the put; undo below, outside the lock
                else:
                    self._resident.add(key)
                    self._access.pop(key, None)  # earned its seat; reset the tally
                    self._tstats.promotions += 1
                    self._tstats.promoted_bytes += len(payload)
                    promoted += 1
                    continue
            try:
                self.fast.delete(*key)  # orphan copy of a deleted fragment
            except KeyError:
                pass
        return promoted

    def demote(self, max_bytes: int | None = None) -> int:
        """Evict the coldest fast-tier residents down to the byte budget.

        *max_bytes* overrides the configured budget for this call.  A
        dirty fragment is flushed to the slow tier before its fast copy
        is deleted, so demotion never drops the only copy.  Returns the
        number of fragments demoted.
        """
        budget = self.fast_budget_bytes if max_bytes is None else int(max_bytes)
        if budget is None:
            return 0
        demoted = 0
        while self.fast.nbytes() > budget:
            # each victim's read-put-delete runs under the mutation lock:
            # a concurrent write-back put cannot land a newer payload
            # between the fast-tier read and the fast-tier delete (the
            # lost-update race the PR-5 tiering pass documented), and a
            # concurrent delete cannot resurrect via the slow-tier put
            with self._mutate_lock:
                with self._tier_lock:
                    if not self._resident:
                        break
                    victim = min(
                        self._resident, key=lambda k: self._last_touch.get(k, 0)
                    )
                    dirty = victim in self._dirty
                if dirty:
                    try:
                        payload = self.fast.get(*victim)
                    except (KeyError, OSError):
                        payload = None
                    if payload is not None:
                        self.slow.put(victim[0], victim[1], payload)
                try:
                    self.fast.delete(*victim)
                except KeyError:
                    pass
                with self._tier_lock:
                    self._resident.discard(victim)
                    self._dirty.discard(victim)
                    self._tstats.demotions += 1
                    self._tstats.demoted_bytes += self._sizes.get(victim, 0)
            demoted += 1
        return demoted

    # -- durability ------------------------------------------------------------

    def compact(self) -> "CompactionReport":
        """Compact both tiers; returns the merged reclaim report.

        Dirty write-backs are flushed first (compaction must never run
        ahead of durability), then each tier compacts itself — on the
        WAL-backed disk stores that rewrites the index log to live
        entries and unlinks tombstoned payload files.  Safe concurrent
        with readers and ingest: each tier's compact holds only that
        tier's writer lock.
        """
        if self.policy == "write-back":
            self.flush()
        report = self.fast.compact()
        report.merge(self.slow.compact())
        return report

    def durability(self) -> "DurabilityStats":
        """Merged durability counters of both tiers."""
        return self.fast.durability().merge(self.slow.durability())

    # -- introspection ---------------------------------------------------------

    def stats(self) -> TierStats:
        """Snapshot of the per-tier counters (includes tier round trips)."""
        with self._tier_lock:
            snapshot = replace(
                self._tstats,
                fast_round_trips=self.fast.round_trips,
                slow_round_trips=self.slow.round_trips,
                fast_resident_bytes=self.fast.nbytes(),
                fast_budget_bytes=self.fast_budget_bytes or 0,
                dirty_fragments=len(self._dirty),
            )
        return snapshot

    def resilience(self) -> "ResilienceStats":
        """Retry/breaker counters of the slow tier's resilience wrapper.

        All-zero (closed breaker, no retries) when the slow tier is not
        wrapped in a :class:`~repro.storage.resilience.ResilientStore` —
        the shape stays stable so stats consumers need no branching.
        """
        resilience = getattr(self.slow, "resilience", None)
        if resilience is None:
            return ResilienceStats()
        return resilience()

    def resident(self, variable: str, segment: str) -> bool:
        """Whether a fragment currently lives in the fast tier."""
        with self._tier_lock:
            return (variable, segment) in self._resident

    # -- lifecycle -------------------------------------------------------------

    def start_transfer(self) -> "TransferManager":
        """Start the background promotion/demotion thread (idempotent)."""
        self.transfer.start()
        return self.transfer

    def close(self) -> None:
        """Stop the transfer thread, flush write-backs, close the tiers."""
        self.transfer.stop()
        self.flush()
        self.fast.close()
        self.slow.close()


class TransferManager:
    """Background promotion/demotion/compaction loop of one :class:`TieredStore`.

    One cycle (:meth:`run_once`) flushes dirty write-backs, promotes the
    current hot set in one coalesced slow-tier batch, demotes down to
    the byte budget, and — when the tiers' tombstoned debt exceeds
    ``compact_dead_bytes`` — compacts the tier stores to reclaim it.
    :meth:`start` runs cycles on a daemon thread every *interval*
    seconds; benchmarks and tests call :meth:`run_once` directly so tier
    movement is deterministic.
    """

    def __init__(
        self,
        store: TieredStore,
        interval: float = DEFAULT_TRANSFER_INTERVAL,
        compact_dead_bytes: int | None = DEFAULT_COMPACT_DEAD_BYTES,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.store = store
        self.interval = float(interval)
        #: Dead-byte threshold that triggers a background compaction per
        #: cycle (``None`` disables background compaction entirely).
        self.compact_dead_bytes = (
            None if compact_dead_bytes is None else int(compact_dead_bytes)
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def run_once(self) -> dict:
        """One synchronous transfer cycle; returns what moved."""
        flushed = self.store.flush()
        promoted = self.store.promote(self.store.promotion_candidates())
        demoted = self.store.demote()
        reclaimed = 0
        if (
            self.compact_dead_bytes is not None
            and self.store.durability().dead_bytes >= self.compact_dead_bytes
        ):
            reclaimed = self.store.compact().reclaimed_bytes
        with self.store._tier_lock:
            self.store._tstats.transfer_cycles += 1
        return {
            "flushed": flushed,
            "promoted": promoted,
            "demoted": demoted,
            "reclaimed_bytes": reclaimed,
        }

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:
                # a failed cycle (slow tier briefly unreachable) must not
                # kill rebalancing; the next cycle retries everything
                continue

    def start(self) -> None:
        """Launch the cycle thread (idempotent)."""
        if not self.running:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-tier-transfer", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Signal the thread to exit and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
