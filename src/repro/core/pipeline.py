"""Fetch stage of the batched progressive-retrieval engine.

The QoI retrieval loop (Algorithm 2) alternates between *fetching*
fragments and *computing* on them.  Behind a link its cost is the number
of *serial* store round trips, so a round's whole fragment set moves in
one call of the read path's one fetch routine,
:func:`~repro.storage.archive.prefetch_plans` (claim, one coalesced
``get_many`` per store, absorb, release on failure), inline on the
retrieval thread.  A library session and a service session fetch the
same way; concurrent sessions share work through the fragment sources'
claims, the shared cache's single-flight and the service planner's
memos, never through a fetch thread.

Speculation rides that same trip: a fetching round widens every involved
variable's entry to its plan at ``eb / c**pipeline_depth``, so a next
round tightened by one Algorithm 4 step finds everything arrived and
costs no trip.  Every fetch belongs to a round and completes before the
round decodes, so the fetched-fragment set is **deterministic**, and
since decode consumes exactly what its plan demands, pipelined retrieval
is bit-identical to serial retrieval.
"""

from __future__ import annotations

from repro.storage.archive import prefetch_plans

#: Default number of Algorithm 4 ``c``-steps a fetching round is widened by.
DEFAULT_PIPELINE_DEPTH = 1


class FetchPipeline:
    """The fetch stage of one retrieval call's round loop.

    Stateless: :meth:`submit_round` fetches a round inline and
    :meth:`iter_groups` hands its decode keys back.  The split into two
    calls, and the no-op :meth:`close`, remain because the end-to-end
    benchmark's tracer wraps these names to time the fetch stage.
    """

    def submit_round(self, entries) -> list:
        """Fetch one round's planned segments; returns its decode groups.

        *entries* is a list of ``(key, source, segments)`` triples — one
        per variable, carrying everything of that variable this round
        moves (its plan plus any widening).  *key* names the variable
        for the decode stage, or is None for a variable that only rides
        along (widened, nothing to decode this round).  Segments already
        fetched or in flight are dropped first, so a fully warmed plan
        costs no fetch; the rest is one
        :func:`~repro.storage.archive.prefetch_plans` call, whose store
        errors propagate.  Returns ``[keys]`` — one group holding every
        key to decode — or ``[]`` when nothing was missing.
        """
        entries = [
            (key, source, source.missing(segments))
            for key, source, segments in entries
        ]
        entries = [e for e in entries if e[2]]
        if not entries:
            return []
        prefetch_plans([(source, segments) for _, source, segments in entries])
        return [[key for key, _, _ in entries if key is not None]]

    def iter_groups(self, groups):
        """Yield each group's keys (their fragments have all arrived)."""
        yield from groups

    def close(self) -> None:
        """Nothing to release: the pipeline holds no thread or pool."""
