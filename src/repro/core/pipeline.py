"""Fetch/decode pipeline of the batched progressive-retrieval engine.

The QoI retrieval loop (Algorithm 2) alternates between *fetching*
fragments and *computing* on them.  Behind a link its cost is the number
of *serial* store round trips, so a round's whole fragment set moves
through one routine, :func:`~repro.storage.archive.prefetch_plans`
(claim, one coalesced ``get_many`` per store, absorb, release on
failure), reached one way per caller of :meth:`FetchPipeline.submit_round`:

* with a *round sink* (the service's
  :class:`~repro.service.planner.FetchScheduler`) the round is one
  request, handed over inline on the retrieval thread; the sink merges
  it with other sessions' rounds;
* without one, it is split into a few byte-balanced batches fetched in
  parallel on a small pool, and decode consumes them in completion order
  (:meth:`FetchPipeline.iter_groups`) — still one serial trip a round.

Speculation rides that same trip: a fetching round widens every involved
variable's entry to its plan at ``eb / c**pipeline_depth``, so a next
round tightened by one Algorithm 4 step finds everything arrived and
costs no trip.  Every fetch belongs to a round and is awaited by it, so
the fetched-fragment set is **deterministic**, and since decode consumes
exactly what its plan demands, pipelined retrieval is bit-identical to
serial retrieval.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

from repro.storage.archive import prefetch_plans

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
    ``max_workers`` sizes the fetch thread pool of a pipeline without a
    round sink (0 disables threading entirely — planned batches are
    fetched synchronously, which still coalesces store round trips).
    """

    pipeline_depth: int = DEFAULT_PIPELINE_DEPTH
    max_workers: int = DEFAULT_MAX_WORKERS

    def __post_init__(self):
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be >= 0")
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")


class FetchPipeline:
    """Drives batched fragment fetches for one retrieval call.

    Created per ``retrieve`` call and closed in a ``finally``; its methods
    run on the retrieval thread, and pool threads run nothing but
    :func:`~repro.storage.archive.prefetch_plans` (whose fragment sources
    are lock-protected).  Every fetch belongs to a round
    (:meth:`submit_round`) and is awaited by its :meth:`iter_groups`.
    """

    def __init__(self, config: PipelineConfig, sink=None):
        self.config = config
        #: Optional *round sink* — an object with ``fetch(plans)`` (the
        #: service's :class:`~repro.service.planner.FetchScheduler`) that
        #: takes each whole round as one request and merges it with
        #: other sessions' rounds; a pipeline with a sink has no pool.
        self._sink = sink
        self._pool = (
            ThreadPoolExecutor(
                max_workers=config.max_workers,
                thread_name_prefix="repro-fetch",
            )
            if sink is None and config.max_workers > 0
            else None
        )

    # -- round fetches --------------------------------------------------------

    def submit_round(self, entries) -> list:
        """Dispatch one round's planned fetches; returns decode groups.

        *entries* is a list of ``(key, source, segments)`` triples — one
        per variable, carrying everything of that variable this round
        moves (its plan plus any widening), so a variable never spans
        two batches.  *key* names the variable for the decode stage, or
        is None for a variable that only rides along (widened, nothing
        to decode this round).  Segments already fetched or in flight
        are dropped first, so a fully warmed plan costs no fetch.  With
        a sink, or with threading disabled, the round is fetched here as
        one request; otherwise entries are packed into at most
        ``max_workers`` byte-balanced batches (sizes from the store
        index), each one ``get_many`` on the pool.  Returns the
        ``(keys, future)`` groups for :meth:`iter_groups`; an inline
        fetch's future is ``None``.
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
        if self._pool is None:
            fetch = prefetch_plans if self._sink is None else self._sink.fetch
            fetch(plans_of(entries))
            return [(keys_of(entries), None)]
        width = min(self.config.max_workers, len(entries))
        bins = [[] for _ in range(width)]
        sizes = [0] * width
        sized = sorted(
            ((sum(map(source.size_of, segments)), key, source, segments)
             for key, source, segments in entries),
            key=lambda e: -e[0],
        )
        for nbytes, key, source, segments in sized:
            slot = sizes.index(min(sizes))
            bins[slot].append((key, source, segments))
            sizes[slot] += nbytes
        return [
            (keys_of(chunk), self._pool.submit(prefetch_plans, plans_of(chunk)))
            for chunk in bins
            if chunk
        ]

    def iter_groups(self, groups):
        """Yield each group's keys as its fetch completes (decode order).

        Inline groups come first; pool batches follow in completion
        order, and a batch's store error surfaces here.
        """
        pending = {}
        for keys, future in groups:
            if future is None:
                yield keys
            else:
                pending[future] = keys
        for future in as_completed(pending):
            future.result()
            yield pending[future]

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the pool, joining a batch left running by a failed sibling."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "FetchPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

