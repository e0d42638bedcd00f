"""Fetch/decode pipeline of the batched progressive-retrieval engine.

The QoI retrieval loop (Algorithm 2) alternates between *fetching*
fragments and *computing* on them (decode, reconstruct, estimate).  Behind
a link the cost of that loop is its number of *serial* store round trips,
so this module spends as few as the plan allows:

* :meth:`FetchPipeline.submit_round` turns a round's fragment set into a
  handful of byte-balanced batches, each fetched with one coalesced
  ``store.get_many`` on a worker thread — the batches of a round travel
  in parallel, so a fetching round costs one serial trip.  The decode
  stage consumes batches in *completion* order
  (:meth:`FetchPipeline.iter_groups`), so variable A decodes while
  variable B's fragments are still in flight.
* Speculation rides that same trip.  When a round has anything to
  fetch, the retrieval loop widens every involved variable's entry to
  the plan at ``eb / c**pipeline_depth`` — what the variable would need
  if Algorithm 4 tightened its bound ``pipeline_depth`` more steps — so a
  next round tightened by one step finds everything already arrived and
  costs no trip at all.  A variable's planned and widened segments stay
  in that variable's one entry, hence one batch: decode never waits on
  a claim held by another batch of its own round.

Nothing is fetched outside a round's own batches, so no fetch outlives
``retrieve()`` (:meth:`FetchPipeline.close` only joins hedged-over
stragglers): a retrieval's fetched-fragment set is **deterministic** by
construction, and identical re-runs against a warm shared cache add zero
store traffic.

Widening is invisible to correctness: it only warms the per-variable
fragment memos (and, behind a service, the shared cache), while decode
consumes exactly what the plan demands — so pipelined retrieval is
bit-identical to serial retrieval, with the store traffic reshaped into
few large round trips instead of many small ones.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro.storage.archive import prefetch_plans


def hedge_plans(plans) -> int:
    """Duplicate-fetch *plans* regardless of in-flight claims.

    The hedged twin of :func:`~repro.storage.archive.prefetch_plans`:
    where that claims segments atomically so cooperating prefetches
    never read a fragment twice, this *deliberately* re-reads segments a
    straggling batch has claimed but not delivered — the point of a
    hedge is racing the straggler, not queueing behind it.  Segments
    that already arrived are still skipped, results land via the same
    idempotent ``absorb``, and no claims are taken or released, so the
    straggler's own bookkeeping is untouched whichever fetch wins.
    Returns the number of fragments fetched.
    """
    by_store: dict = {}
    for source, segments in plans:
        wanted = source.unarrived(segments)
        if wanted:
            by_store.setdefault(id(source.store), (source.store, []))[1].extend(
                (source, seg) for seg in wanted
            )
    fetched = 0
    for store, entries in by_store.values():
        payloads = store.get_many([(src.variable, seg) for src, seg in entries])
        per_source: dict = {}
        for src, seg in entries:
            per_source.setdefault(id(src), (src, {}))[1][seg] = payloads[
                (src.variable, seg)
            ]
        for src, batch in per_source.values():
            src.absorb(batch)
            fetched += len(batch)
    return fetched

#: Default number of Algorithm 4 ``c``-steps a fetching round is widened by.
DEFAULT_PIPELINE_DEPTH = 1

#: Default width of the fetch stage's thread pool.
DEFAULT_MAX_WORKERS = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs of the retrieval fetch/decode pipeline.

    ``pipeline_depth`` is how many Algorithm 4 reduction steps ahead a
    fetching round's batches are widened (0 fetches exactly the round's
    plan; fetches are still planned and coalesced per round).
    ``max_workers`` sizes the fetch thread pool (0 disables threading
    entirely — planned batches are fetched synchronously, which still
    coalesces store round trips).  ``hedge_delay_s``, when set, bounds
    how long the decode stage waits on a round's *last* straggling batch
    before duplicating its fetch inline (see
    :meth:`FetchPipeline.iter_groups`); ``None`` disables hedging.
    """

    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH
    max_workers: int = DEFAULT_MAX_WORKERS
    hedge_delay_s: float | None = None

    def __post_init__(self):
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be >= 0")
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ValueError("hedge_delay_s must be positive (or None)")


class FetchPipeline:
    """Drives batched fragment fetches for one retrieval call.

    Created per ``retrieve`` invocation (thread pools are cheap next to a
    retrieval) and closed in a ``finally``; all public methods are called
    from the retrieval thread only, while the pool threads touch nothing
    but :func:`~repro.storage.archive.prefetch_plans` (whose fragment
    sources are lock-protected).  Every fetch belongs to a round
    (:meth:`submit_round`) and is awaited by that round's
    :meth:`iter_groups`, so :meth:`close` finds at most hedged-over
    stragglers to join.
    """

    def __init__(self, config: PipelineConfig, sink=None):
        self.config = config
        #: Optional *round sink* — an object with ``fetch(plans) -> int``
        #: (the service layer's
        #: :class:`~repro.service.planner.FetchScheduler`).  With a sink,
        #: each round's whole plan is handed over as ONE request instead
        #: of byte-balanced private batches: the sink merges concurrent
        #: sessions' rounds, dedups them, and coalesces the store round
        #: trips itself.  Hedging still fetches directly (a hedge exists
        #: to race a straggling fetch, not to queue behind it).
        self._sink = sink
        self._pool = (
            ThreadPoolExecutor(
                max_workers=config.max_workers,
                thread_name_prefix="repro-fetch",
            )
            if config.max_workers > 0
            else None
        )
        self._orphans: list = []  # straggler futures superseded by a hedge
        self._closed = False
        #: Fragments fetched ahead of decode (accounting for benchmarks).
        self.fragments_prefetched = 0
        #: Straggler batches whose fetch was duplicated inline (hedged).
        self.hedged_fetches = 0
        #: Wall seconds the decode stage spent *waiting* on fetches.
        self.io_wait_seconds = 0.0
        #: Wall seconds the decode stage spent computing (decode+reconstruct).
        self.compute_seconds = 0.0
        #: Per-round ``{"io_wait_s", "compute_s"}`` breakdown, in round order.
        self.round_breakdown: list = []

    def record_round(self, io_wait_s: float, compute_s: float) -> None:
        """Record one round's compute-vs-I/O wall-time split.

        Called by the retrieval loop after each round: *io_wait_s* is the
        time the loop blocked on fetches (submission, waiting for
        ``get_many`` batches to land, and waiting out another session's
        claim on a planned segment), *compute_s* the time spent in
        reader decode.  This is what makes "retrieval is
        compute-bound" a measured fact in ``repro stats`` rather than an
        inference from speedup parity.
        """
        self.io_wait_seconds += float(io_wait_s)
        self.compute_seconds += float(compute_s)
        self.round_breakdown.append(
            {"io_wait_s": float(io_wait_s), "compute_s": float(compute_s)}
        )

    # -- round fetches --------------------------------------------------------

    def submit_round(self, entries) -> list:
        """Dispatch one round's planned fetches; returns decode groups.

        *entries* is a list of ``(key, source, segments)`` triples — one
        per variable, carrying everything of that variable this round
        moves (its plan plus any widening), so a variable never spans
        two batches.  *key* names the variable for the decode stage, or
        is None for a variable that only rides along (widened, nothing
        to decode this round).  Entries are packed into at most
        ``max_workers`` byte-balanced batches (planned bytes come from
        the store index, so packing never touches payloads), each batch
        becoming one coalesced ``get_many``.  The return value is a list
        of ``(keys, future, plans)`` groups for :meth:`iter_groups`;
        with threading disabled the fetch happens inline and the groups
        carry ``None`` futures.

        Segments a previous round (or another client sharing the
        source) already fetched are dropped here, on the calling thread
        — a fully warmed plan costs no pool dispatch at all.
        """
        entries = [
            (key, source, source.missing(segments))
            for key, source, segments in entries
        ]
        entries = [e for e in entries if e[2]]
        if not entries:
            return []
        plans_of = lambda chunk: [(source, segments) for _, source, segments in chunk]  # noqa: E731
        keys_of = lambda chunk: [key for key, _, _ in chunk if key is not None]  # noqa: E731
        if self._sink is not None:
            # round sink: the whole round is one request — no byte-split,
            # the scheduler merges it with other sessions' concurrent
            # rounds and coalesces per backing store itself
            plans = plans_of(entries)
            if self._pool is None:
                self.fragments_prefetched += self._sink.fetch(plans)
                return [(keys_of(entries), None, plans)]
            return [(keys_of(entries), self._pool.submit(self._sink.fetch, plans), plans)]
        if self._pool is None:
            prefetch_plans(plans_of(entries))
            return [(keys_of(entries), None, plans_of(entries))]
        width = min(self.config.max_workers, len(entries))
        bins = [[] for _ in range(width)]
        sizes = [0] * width
        sized = sorted(
            (
                (sum(source.size_of(s) for s in segments), key, source, segments)
                for key, source, segments in entries
            ),
            key=lambda e: -e[0],
        )
        for nbytes, key, source, segments in sized:
            slot = sizes.index(min(sizes))
            bins[slot].append((key, source, segments))
            sizes[slot] += nbytes
        groups = []
        for chunk in bins:
            if not chunk:
                continue
            future = self._pool.submit(prefetch_plans, plans_of(chunk))
            groups.append((keys_of(chunk), future, plans_of(chunk)))
        return groups

    def iter_groups(self, groups):
        """Yield each group's keys as its fetch completes (decode order).

        With ``hedge_delay_s`` configured, the round's **last** pending
        batch is only waited on that long; if it is still in flight (a
        straggling backend — one slow replica, a stalled socket), its
        plan is fetched again *inline* on the decode thread and decode
        proceeds from the hedge.  The duplicate read is correctness-free
        (:meth:`~repro.storage.archive.FragmentSource.absorb` is
        idempotent) and, through a tiered/cached store, is exactly the
        "second replica" race the tail-latency literature hedges
        against; the superseded future is drained at :meth:`close`.  A
        hedge that fails simply resumes waiting on the original.
        """
        pending = {group[1]: group for group in groups if group[1] is not None}
        for keys, future, _ in groups:
            if future is None:
                yield keys
        while pending:
            hedge = self.config.hedge_delay_s
            timeout = hedge if (hedge is not None and len(pending) == 1) else None
            done, _ = wait(list(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                # the last batch is straggling: duplicate its fetch inline
                future, (keys, _, plans) = next(iter(pending.items()))
                try:
                    self.fragments_prefetched += hedge_plans(plans)
                except Exception:
                    continue  # hedge lost too; keep waiting on the original
                self.hedged_fetches += 1
                self._orphans.append(future)
                del pending[future]
                yield keys
                continue
            for future in done:
                keys = pending.pop(future)[0]
                self.fragments_prefetched += future.result()
                yield keys

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Join hedged-over stragglers and release the pool.

        Every round's batches were awaited by :meth:`iter_groups`, so
        the only fetches that can still be running are stragglers a
        hedge superseded.  Their segments were served by the hedge, so a
        late failure here is outcome-free and swallowed.
        """
        if self._closed:
            return
        self._closed = True
        for future in self._orphans:
            try:
                self.fragments_prefetched += future.result()
            except Exception:
                pass
        self._orphans.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "FetchPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def pipeline_sources(refactored: dict) -> dict:
    """Extract the archive fragment sources of lazily loaded variables.

    Maps variable name to its
    :class:`~repro.storage.archive.FragmentSource` for every variable
    that has one; eagerly loaded (or purely in-memory) representations
    are absent, and the engine simply decodes them without prefetch.
    """
    sources = {}
    for name, ref in refactored.items():
        source = getattr(ref, "fragment_source", None)
        if source is not None:
            sources[name] = source
    return sources
