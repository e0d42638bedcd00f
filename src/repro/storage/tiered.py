"""Tiered storage fabric: a write-through fast tier over a slow tier.

The SC24 deployment story keeps the full progressive archive on a
cheap-but-slow tier (object store, tape-fronted PFS, another site) with
a fast copy near the analysts.  :class:`TieredStore` is that
composition as one :class:`~repro.storage.store.FragmentStore`:

* **Reads go fast-tier-first.**  ``get_many`` serves fast-tier
  residents locally; the misses of a batch move in **one** coalesced
  slow-tier ``get_many`` — so the pipelined retrieval engine's per-round
  batches cost one slow round trip however many fragments they span.
* **Writes are write-through.**  Every put lands on both tiers before
  the call returns, so the slow tier is always the durable archive of
  record and the fast tier holds what was written through it.
* **Reads never move data between tiers.**  The store runs no thread
  and copies nothing in the background: the hot set of a retrieval
  service lives in its byte-budgeted
  :class:`~repro.storage.cache.FragmentCache`, which sits in front of
  this store and already keeps every fragment the slow tier served.

When the slow tier is down, fast-tier residents are still served and
the rest of a batch raises a typed
:class:`~repro.storage.resilience.DegradedError`.  Per-tier counters
(:class:`TierStats`) surface through ``RetrievalService.stats`` and the
``repro stats`` CLI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.storage.resilience import (
    POLICY_KEYS,
    CircuitOpenError,
    DegradedError,
    ResilienceStats,
    ResilientStore,
    is_transient,
    policy_from_params,
)
from repro.storage.store import (
    FragmentStore,
    _parse_store_url,
    open_store,
)
from repro.storage.wal import CompactionReport, DurabilityStats


@dataclass
class TierStats:
    """Per-tier accounting of one :class:`TieredStore`.

    ``fast_hits``/``slow_hits`` count *fragments served* per tier (a
    batched read contributes per fragment); the ``*_round_trips`` fields
    mirror each tier store's own round-trip counters so the coalescing
    is visible, and ``fast_resident_bytes`` is the fast tier's size.
    """

    fast_hits: int = 0
    slow_hits: int = 0
    fast_bytes_served: int = 0
    slow_bytes_served: int = 0
    fast_round_trips: int = 0
    slow_round_trips: int = 0
    fast_resident_bytes: int = 0
    #: Read batches answered partially/not at all because the slow tier
    #: was unavailable (each raised a typed ``DegradedError``).
    degraded_batches: int = 0


class TieredStore(FragmentStore):
    """Fast tier composed over a slow tier behind one store interface.

    Parameters
    ----------
    fast / slow:
        Any two :class:`FragmentStore` backends.  The slow tier is the
        archive of record (typically an
        :class:`~repro.storage.remote.HTTPFragmentStore` or a cluster);
        the fast tier holds the fragments written through this store
        (typically local disk or memory).

    The store's own ``reads``/``bytes_read``/``round_trips`` counters
    record *client-visible* traffic (one round trip per ``get``/
    ``get_many`` call, like :class:`CachingFragmentStore`); the split
    between tiers lives in :meth:`stats`.
    """

    def __init__(self, fast: FragmentStore, slow: FragmentStore):
        super().__init__()
        self.fast = fast
        self.slow = slow
        # serializes client mutations: without it two writers of one key
        # can land their payloads on the tiers in opposite orders, and a
        # delete can interleave with a put so one tier keeps the key
        self._mutate_lock = threading.RLock()
        self._tstats = TierStats()
        # the union index: slow tier first, fast-tier-only keys (a
        # pre-seeded fast tier, or one whose slow copy never landed) on top
        for variable, segment in slow.keys():
            self._record_put(variable, segment, slow.size_of(variable, segment))
        for variable, segment in fast.keys():
            if (variable, segment) not in self._sizes:
                self._record_put(variable, segment, fast.size_of(variable, segment))

    # -- URL form --------------------------------------------------------------

    @classmethod
    def from_url(cls, url: str) -> "TieredStore":
        """Open from a ``tiered://FAST_DIR?slow=URL[&...]`` URL.

        The path names the fast-tier directory (layout auto-detected;
        empty path = in-memory fast tier) and the query configures the
        composition: ``slow=`` (required; any ``open_store`` URL —
        percent-encode it if it carries its own query), ``fast=`` (a
        store URL overriding the path), and ``fsync=`` (WAL discipline
        of the fast-tier directory).  The resilience keys of
        :func:`~repro.storage.resilience.policy_from_params`
        (``retries``/``retry_base``/``retry_max``/``breaker``/
        ``cooldown``) wrap the **slow tier** in a
        :class:`~repro.storage.resilience.ResilientStore`, enabling
        degraded reads while that backend is down.  Any other key
        raises ``ValueError`` naming it.
        """
        path, params = _parse_store_url(
            url, "tiered", {"slow", "fast", "fsync", *POLICY_KEYS}
        )
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
        return cls(fast, slow)

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
        with self._stats_lock:
            self._tstats.degraded_batches += 1
        raise DegradedError(keys, reason=f"slow tier unavailable: {exc}") from exc

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
        fast_keys = [k for k in keys if self.fast.has(*k)]
        out: dict = {}
        if fast_keys:
            try:
                out.update(self.fast.get_many(fast_keys))
            except (KeyError, OSError):
                # a fast-tier read failed (a concurrent delete, a lost
                # file): serve the whole batch from the slow tier instead
                pass
            else:
                with self._stats_lock:
                    self._tstats.fast_hits += len(fast_keys)
                    self._tstats.fast_bytes_served += sum(len(p) for p in out.values())
        slow_keys = [k for k in keys if k not in out]
        if slow_keys:
            try:
                served = self.slow.get_many(slow_keys)
            except Exception as exc:
                self._degrade(slow_keys, exc)
                raise
            out.update(served)
            with self._stats_lock:
                self._tstats.slow_hits += len(slow_keys)
                self._tstats.slow_bytes_served += sum(len(p) for p in served.values())
        out = {k: out[k] for k in keys}
        self._count_reads(out)
        return out

    # -- writes ----------------------------------------------------------------

    def transact(self, puts, deletes=()) -> None:
        """Commit a batch on both tiers: one ``transact`` per tier.

        The whole transaction is checked against the union index
        (:meth:`_check_batch`) first.  Then the fast tier and the slow
        tier each receive one ``transact`` carrying every put and the
        tombstones of the keys that tier holds, so the durable copy
        exists before this call returns, an ingestion flush costs one
        round trip per tier, and each tier applies its share of the
        commit atomically (one WAL record on a disk tier).  Everything
        runs under one mutation-lock hold, so concurrent writers of one
        key leave both tiers agreeing.
        """
        with self._mutate_lock:
            batch, doomed = self._check_batch(puts, deletes)
            for tier in (self.fast, self.slow):
                held = [key for key in doomed if tier.has(*key)]
                if batch or held:
                    tier.transact(batch, held)
            with self._stats_lock:
                for variable, segment, payload in batch:
                    self._record_put(variable, segment, len(payload))
                for key in doomed:
                    self._record_delete(*key)
            if batch:
                self._count_writes(batch)

    # -- durability ------------------------------------------------------------

    def compact(self) -> "CompactionReport":
        """Compact both tiers; returns the merged reclaim report.

        On the WAL-backed disk stores that rewrites each tier's index log
        to live entries and unlinks tombstoned payload files.  Safe
        concurrent with readers and ingest: each tier's compact holds
        only that tier's writer lock.
        """
        report = self.fast.compact()
        report.merge(self.slow.compact())
        return report

    def durability(self) -> "DurabilityStats":
        """Merged durability counters of both tiers."""
        return self.fast.durability().merge(self.slow.durability())

    # -- introspection ---------------------------------------------------------

    def stats(self) -> TierStats:
        """Snapshot of the per-tier counters (includes tier round trips)."""
        with self._stats_lock:
            return replace(
                self._tstats,
                fast_round_trips=self.fast.round_trips,
                slow_round_trips=self.slow.round_trips,
                fast_resident_bytes=self.fast.nbytes(),
            )

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
        return self.fast.has(variable, segment)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close both tiers."""
        self.fast.close()
        self.slow.close()
