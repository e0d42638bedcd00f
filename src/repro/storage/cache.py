"""Shared fragment cache: the storage half of multi-client retrieval.

Progressive retrieval only pays for *incremental* fragments — but the
seed model pays that price per analyst.  When many clients work against
one archive, most of their fragment reads overlap (everyone starts from
the coarse levels), so a shared, byte-budgeted LRU cache in front of the
store turns N clients' disk traffic into roughly one client's worth.
:class:`FragmentCache` is that cache; :class:`CachingFragmentStore`
adapts it to the :class:`~repro.storage.store.FragmentStore` interface so
the archive layer (and everything above it) needs no changes.

Misses are *single-flight per key*: the first client to miss a fragment
claims it and loads outside the cache lock; concurrent clients wanting
the same fragment wait on that load, while hits and misses on *other*
keys proceed unblocked.  One fragment is therefore read from the store
at most once however many clients race for it, and a slow store tier
never serializes unrelated cache traffic.

:meth:`FragmentCache.get_many` extends single-flight to whole *batches*:
the keys a caller claims are loaded with one ``store.get_many`` round
trip, keys other callers are already loading are awaited and absorbed —
so the retrieval engine's per-round fragment sets coalesce across
concurrent clients into shared batched store passes.

Waiters *pin* the keys they wait on: an entry another caller just loaded
cannot be evicted (however tight the byte budget) until every waiter has
picked it up, so an eviction racing a claimed batch never turns one
store read into several.  Pins are reference counts, balanced in
``finally`` blocks — they can never go negative and never outlive the
request that took them — and eviction simply skips pinned entries (the
budget may be exceeded transiently by at most the pinned bytes).

Writes invalidate.  ``put``/``put_many``/``delete`` through
:class:`CachingFragmentStore` drop the cached entry for every written
key, and :meth:`FragmentCache.invalidate` also covers loads *in flight*:
a fragment overwritten while another thread is still reading the old
payload from the store is marked stale, and the landing payload is
served to that reader but never cached — so a re-saved variable can
never pin its old bytes into the cache, however the write races the
read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.storage.store import FragmentStore, StoreWrapper

#: Default cache budget: 256 MiB, plenty for the laptop-scale archives the
#: benchmarks generate while still small enough to exercise eviction.
DEFAULT_CACHE_BYTES = 256 << 20


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`FragmentCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_from_cache: int = 0
    bytes_from_store: int = 0
    current_bytes: int = 0
    capacity_bytes: int = 0

    @property
    def requests(self) -> int:
        """Total fragment requests (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of fragment requests served without touching the store."""
        return self.hits / self.requests if self.requests else 0.0


class FragmentCache:
    """Thread-safe LRU cache of fragment payloads with a byte budget.

    Keys are ``(variable, segment)`` pairs; values are the fragment
    payloads.  Payloads larger than the whole budget are served but never
    cached (they would evict everything for a single entry).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._inflight: dict = {}  # key -> Event set when its load finishes
        self._pins: dict = {}  # key -> waiter refcount; pinned entries dodge eviction
        self._stale: set = set()  # in-flight keys invalidated by a write
        self._stats = CacheStats(capacity_bytes=self.capacity_bytes)

    # -- pinning (all callers hold self._lock) ---------------------------------

    def _pin(self, key) -> None:
        self._pins[key] = self._pins.get(key, 0) + 1

    def _unpin(self, key) -> None:
        count = self._pins.pop(key, 0)
        if count > 1:
            self._pins[key] = count - 1
        elif count < 1:
            raise AssertionError(f"unbalanced unpin of {key!r}")

    def __contains__(self, key) -> bool:
        with self._lock:
            return tuple(key) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_load(self, variable: str, segment: str, loader) -> bytes:
        """Return the cached payload, or load, cache, and return it.

        *loader* is a zero-argument callable hitting the backing store.
        It runs *outside* the cache lock; concurrent requests for the
        same key wait for the one in-flight load instead of re-reading
        the store, and requests for other keys are never blocked.
        """
        key = (variable, segment)
        pinned = False
        while True:
            with self._lock:
                if pinned:
                    self._unpin(key)
                    pinned = False
                if key in self._entries:
                    entry = self._entries.pop(key)
                    self._entries[key] = entry  # move to MRU position
                    self._stats.hits += 1
                    self._stats.bytes_from_cache += len(entry)
                    return entry
                flight = self._inflight.get(key)
                if flight is None:
                    flight = threading.Event()
                    self._inflight[key] = flight
                    break  # this thread owns the load
                # pin before waiting: once the in-flight load lands, its
                # entry must survive eviction until this thread's re-check
                self._pin(key)
                pinned = True
            # another thread is loading this key; wait, then re-check (the
            # entry may also be oversized or invalidated, in which case we
            # retry as the loader ourselves)
            flight.wait()
        try:
            payload = loader()
        except BaseException:
            with self._lock:
                del self._inflight[key]
                self._stale.discard(key)
            flight.set()
            raise
        with self._lock:
            self._stats.misses += 1
            self._stats.bytes_from_store += len(payload)
            # a write that raced this load marked the key stale: serve the
            # payload to this caller but never cache it (the next request
            # re-reads the store and sees the overwritten bytes)
            if len(payload) <= self.capacity_bytes and key not in self._stale:
                self._entries[key] = payload
                self._stats.current_bytes += len(payload)
                self._evict_to_budget()
            self._stale.discard(key)
            del self._inflight[key]
        flight.set()
        return payload

    def get_many(self, keys, loader_many) -> dict:
        """Batched :meth:`get_or_load`: one store round trip for all misses.

        *keys* is an iterable of ``(variable, segment)`` pairs and
        *loader_many* a callable mapping a list of keys to a ``{key:
        payload}`` dict (typically ``store.get_many``); the result maps
        each deduplicated key to its payload in request order.  Hits are served
        from the cache; the misses this caller *claims* are loaded with a
        single *loader_many* call outside the lock, so a retrieval
        round's fragment set costs one coalesced store pass however many
        fragments it spans.  Keys another caller is already loading are
        not re-requested — the batch waits for those flights and absorbs
        their results — so concurrent clients with overlapping batches
        share loads single-flight per key, exactly like ``get_or_load``.
        """
        keys = pending = list(dict.fromkeys((v, s) for v, s in keys))
        out: dict = {}
        pinned: set = set()  # keys this caller pinned while waiting on flights
        try:
            while pending:
                owned: list = []
                waits: list = []
                with self._lock:
                    for key in pending:
                        if key in pinned:
                            # the wait is over; release the pin inside the
                            # same lock hold that serves (or reclaims) the
                            # key, so eviction cannot slip in between
                            self._unpin(key)
                            pinned.discard(key)
                        if key in self._entries:
                            entry = self._entries.pop(key)
                            self._entries[key] = entry  # move to MRU position
                            self._stats.hits += 1
                            self._stats.bytes_from_cache += len(entry)
                            out[key] = entry
                        elif key in self._inflight:
                            waits.append((key, self._inflight[key]))
                            self._pin(key)  # the landing entry must outlive the wait
                            pinned.add(key)
                        else:
                            flight = threading.Event()
                            self._inflight[key] = flight
                            owned.append((key, flight))
                if owned:
                    # whatever happens — loader failure, a partial result
                    # dict — every claimed flight must be released and
                    # signalled, or waiters block forever
                    try:
                        loaded = loader_many([k for k, _ in owned])
                        with self._lock:
                            for key, flight in owned:
                                payload = out[key] = loaded[key]
                                self._stats.misses += 1
                                self._stats.bytes_from_store += len(payload)
                                # stale = overwritten while in flight: serve
                                # but never cache (see get_or_load)
                                if (
                                    len(payload) <= self.capacity_bytes
                                    and key not in self._stale
                                ):
                                    self._entries[key] = payload
                                    self._stats.current_bytes += len(payload)
                            self._evict_to_budget()
                    finally:
                        with self._lock:
                            for key, _ in owned:
                                self._inflight.pop(key, None)
                                self._stale.discard(key)
                        for _, flight in owned:
                            flight.set()
                for _, flight in waits:
                    flight.wait()
                # waited keys re-check the cache on the next pass; an entry
                # that was invalidated or oversized is retried as an owned
                # load, mirroring the get_or_load loop
                pending = [key for key, _ in waits]
        finally:
            if pinned:
                # loader blew up mid-batch: drop the leftover pins or the
                # waited entries would dodge eviction forever
                with self._lock:
                    for key in pinned:
                        self._unpin(key)
        return {key: out[key] for key in keys}  # request order, hits and loads alike

    def _evict_to_budget(self) -> None:
        """Evict LRU-first down to the byte budget, skipping pinned keys.

        A pinned entry has waiters between its load and their pickup;
        evicting it would silently re-issue the store read the pin
        exists to save.  When everything resident is pinned the budget
        is exceeded transiently — the next unpinned insert re-converges.
        """
        while self._stats.current_bytes > self.capacity_bytes:
            victim = next(
                (k for k in self._entries if not self._pins.get(k)), None
            )
            if victim is None:
                break  # every resident entry is pinned right now
            self._stats.current_bytes -= len(self._entries.pop(victim))
            self._stats.evictions += 1

    def invalidate(self, variable: str, segment: str) -> None:
        """Drop one entry after its fragment was overwritten or deleted.

        Covers loads in flight too: a concurrent reader that already
        started loading the old payload will receive it (its read began
        before the write) but the payload is never cached, so no later
        request can observe the superseded bytes.
        """
        with self._lock:
            self._invalidate_locked((variable, segment))

    def invalidate_many(self, keys) -> None:
        """Batched :meth:`invalidate` (one lock hold for a whole write batch)."""
        with self._lock:
            for variable, segment in keys:
                self._invalidate_locked((variable, segment))

    def _invalidate_locked(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._stats.current_bytes -= len(entry)
        if key in self._inflight:
            self._stale.add(key)

    def clear(self) -> None:
        """Drop every entry (counters other than residency are kept)."""
        with self._lock:
            self._entries.clear()
            self._stats.current_bytes = 0

    def stats(self) -> CacheStats:
        """Snapshot of the accounting counters."""
        with self._lock:
            return replace(self._stats)


class CachingFragmentStore(StoreWrapper):
    """Read-through :class:`StoreWrapper` over a shared cache.

    Reads serve from *cache*, falling back to *inner* exactly once per
    fragment; writes go through to *inner* and invalidate.  Several
    adapters may share one cache, and one adapter may serve many
    concurrent clients — the cache is the only shared mutable state and
    it is lock-protected.
    """

    def __init__(self, inner: FragmentStore, cache: FragmentCache):
        super().__init__(inner)
        self.cache = cache

    def transact(self, puts, deletes=()) -> None:
        """Write through to the inner store, invalidating every touched key.

        Invalidation (one batched cache pass over written and deleted
        keys) runs after the inner write and also marks loads in flight,
        so a re-saved fragment can never serve its old payload from the
        cache (see :meth:`FragmentCache.invalidate`).
        """
        batch, _ = self._check_batch(puts)
        doomed = list(deletes)
        self.inner.transact(batch, doomed)
        self.cache.invalidate_many([(v, s) for v, s, _ in batch] + doomed)
        if batch:
            self._count_writes(batch)

    def get(self, variable: str, segment: str) -> bytes:
        """Read one fragment through the cache (at most one inner read).

        Not derived from :meth:`get_many`: this is the cache-hit path
        every decoder's ``FragmentSource.get`` lands on.
        """
        payload = self.cache.get_or_load(
            variable, segment, lambda: self.inner.get(variable, segment)
        )
        self._count_reads({(variable, segment): payload})
        return payload

    def get_many(self, keys) -> dict:
        """Batched read-through: one inner round trip for the batch's misses."""
        out = self.cache.get_many(keys, self.inner.get_many)
        self._count_reads(out)
        return out
