"""Streaming ingestion engine: the write-side mirror of the fetch pipeline.

The paper's progressive workflow has two halves: *refactor* data into
prioritized fragments at generation time, then *retrieve* them
incrementally at analysis time.  :mod:`repro.core.pipeline` makes the
retrieval half pay one coalesced store round trip per round; this module
batches ingestion likewise, which run naively is a strictly serial loop —
refactor one variable, then block on one ``store.put`` per fragment.

:class:`IngestPipeline` breaks that alternation:

* **transform+encode workers** refactor variables in parallel on a
  thread pool (the transform and entropy-coding kernels release the GIL
  in NumPy/zlib), and finished variables are consumed in *completion*
  order — variable A's fragments flush while variable B is still
  encoding;
* **byte-balanced coalesced flushes** buffer the encoded variables and
  write them with one :meth:`~repro.storage.archive.Archive.commit` per
  ``flush_bytes`` of payload — one write round trip (and, on the disk
  stores, one WAL commit record) per batch instead of one per fragment.
  Flushes end on variable boundaries, so each batch carries whole
  variables and a crash mid-ingest leaves every variable either fully
  old or fully new (see ``docs/durability.md``);
* **incremental updates**: ingesting into a non-empty archive never
  rewrites fragments of untouched variables.  Re-ingesting an existing
  variable supersedes it — the segments of the old representation the
  new one does not overwrite are tombstoned in the same commit as the
  new fragments — and ``timestep`` appends each variable under a
  :func:`~repro.utils.fragment_keys.timestep_variable` qualified name,
  the continuously-updated-archive scenario (simulation steps arriving
  while analysts retrieve).

The archive the parallel path produces is **bit-identical** to the
serial ``refactor_dataset`` + ``Archive.save`` path: both commit exactly
the :func:`~repro.storage.archive.encode_fragments` enumeration, each
variable's segments land in canonical order (a flush preserves buffer
order), and every variable's index segment follows its payload
fragments.  Parallelism reshapes the write traffic — it never changes
the bytes.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.core.masking import refactor_masked
from repro.storage.archive import Archive, encode_fragments
from repro.utils.fragment_keys import timestep_variable

#: Default width of the transform+encode worker pool.
DEFAULT_INGEST_WORKERS = 4

#: Default flush threshold: buffered fragment bytes per coalesced
#: commit.  Large enough to amortize a remote round trip,
#: small enough that flushing overlaps encoding instead of trailing it.
DEFAULT_FLUSH_BYTES = 4 << 20


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs of the streaming ingestion engine.

    ``workers`` sizes the transform+encode thread pool (0 encodes
    synchronously on the calling thread — flushes are still coalesced,
    which is what keeps the knob orthogonal to batching).
    ``flush_bytes`` is the byte-balance target of each coalesced
    commit; flushes always end on a variable boundary (the
    per-variable atomicity guarantee), so a variable larger than the
    target makes one oversized batch rather than splitting.
    """

    workers: int = DEFAULT_INGEST_WORKERS
    flush_bytes: int = DEFAULT_FLUSH_BYTES

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.flush_bytes < 1:
            raise ValueError("flush_bytes must be >= 1")


@dataclass
class IngestReport:
    """Outcome and accounting of one :meth:`IngestPipeline.ingest` call."""

    #: Archive variable names written, in ingest (dict) order.
    variables: list = field(default_factory=list)
    #: Fragments written (index segments included).
    fragments: int = 0
    #: Payload bytes written.
    bytes_written: int = 0
    #: Coalesced commits issued (the write round trips the engine
    #: itself cost; the store's ``put_round_trips`` agrees).
    flushes: int = 0
    #: Superseded segments of re-ingested variables, tombstoned by the
    #: commits that wrote their replacements.
    superseded: int = 0
    #: Archived size per variable (``Refactored.total_bytes``; what the
    #: dataset manifest records).
    archived_bytes: dict = field(default_factory=dict)
    #: Wall-clock seconds of the whole ingest.
    seconds: float = 0.0
    #: Summed per-variable refactor+encode seconds (exceeds ``seconds``
    #: when workers overlap — the parallelism actually achieved).
    encode_seconds: float = 0.0
    #: Seconds the calling thread spent inside the flush commits.
    flush_seconds: float = 0.0


class IngestPipeline:
    """Parallel refactor→encode→batched-put write path over one store.

    Created per ingest call site (thread pools are cheap next to an
    ingest); one instance may run many :meth:`ingest` calls
    sequentially.  Each flush is one
    :meth:`~repro.storage.archive.Archive.commit` of whole variables, so
    the engine issues exactly one ``transact`` per flush and no other
    write.  The store may be any
    :class:`~repro.storage.store.FragmentStore` — behind a
    :class:`~repro.storage.cache.CachingFragmentStore` the batched
    writes invalidate stale cache entries, and on a
    :class:`~repro.storage.tiered.TieredStore` each flush lands with one
    ``transact`` per tier.
    """

    def __init__(self, store, config: IngestConfig | None = None):
        self.store = store
        self.config = config or IngestConfig()
        self.archive = Archive(store)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _encode(refactorer, name: str, data):
        """One worker task: refactor + enumerate one variable's fragments."""
        start = time.perf_counter()
        refactored = refactor_masked(refactorer, data)
        fragments, index = encode_fragments(refactored)
        return (
            name,
            int(refactored.total_bytes),
            fragments,
            index,
            time.perf_counter() - start,
        )

    def ingest(self, variables: dict, refactorer, timestep: int | None = None) -> IngestReport:
        """Refactor and archive *variables*, overlapping encode with I/O.

        Parameters
        ----------
        variables:
            ``{name: ndarray}`` of the data to ingest.
        refactorer:
            The :class:`~repro.compressors.base.Refactorer` to apply
            (shared across workers; refactorers are stateless).
        timestep:
            When given, each variable is archived under its
            :func:`~repro.utils.fragment_keys.timestep_variable`
            qualified name — appending a simulation step to a live
            archive without touching earlier steps.

        Returns an :class:`IngestReport`.  On failure the archive may
        hold a partial update, but only at variable granularity: each
        coalesced flush is one commit of whole variables (a variable's
        fragments, its index segment and the tombstones of its
        superseded segments always share one ``transact``), and on the
        WAL-backed disk stores a commit is a single log record — so a
        process killed anywhere during the ingest leaves every variable
        loading bit-identically to its old or its new representation,
        never a torn mix; re-running the ingest is always a safe repair.
        """
        config = self.config
        if timestep is not None:
            named = {
                timestep_variable(name, timestep): data
                for name, data in variables.items()
            }
        else:
            named = dict(variables)
        report = IngestReport(variables=list(named))
        t0 = time.perf_counter()
        entries: list = []
        buffered = 0

        def flush() -> None:
            nonlocal buffered
            if not entries:
                return
            start = time.perf_counter()
            report.superseded += self.archive.commit(entries)
            report.flush_seconds += time.perf_counter() - start
            report.flushes += 1
            report.fragments += sum(len(fragments) + 1 for _, fragments, _ in entries)
            report.bytes_written += buffered
            entries.clear()
            buffered = 0

        def emit(name, fragments, index) -> None:
            # the flush decision only after the whole variable (index
            # included) is buffered: every commit holds whole variables,
            # so on a WAL-backed store each variable lands atomically (a
            # crash leaves it entirely old or entirely new).  A variable
            # larger than flush_bytes makes one oversized batch rather
            # than splitting.
            nonlocal buffered
            entries.append((name, fragments, index))
            buffered += sum(len(payload) for _, payload in fragments)
            buffered += len(json.dumps(index).encode())
            if buffered >= config.flush_bytes:
                flush()

        def consume(outcome) -> None:
            name, total_bytes, fragments, index, encode_s = outcome
            report.encode_seconds += encode_s
            report.archived_bytes[name] = total_bytes
            emit(name, fragments, index)

        if config.workers > 0 and len(named) > 1:
            width = min(config.workers, len(named))
            with ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-ingest"
            ) as pool:
                pending = {
                    pool.submit(self._encode, refactorer, name, data)
                    for name, data in named.items()
                }
                # flush stage (this thread) overlaps the encode stage
                # (pool threads): finished variables stream out in
                # completion order while the rest are still encoding
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        consume(future.result())
        else:
            for name, data in named.items():
                consume(self._encode(refactorer, name, data))
        flush()
        report.seconds = time.perf_counter() - t0
        return report


def update_manifest(
    manifest,
    store,
    variables: dict,
    method: str,
    report: IngestReport,
    timestep: int | None = None,
) -> None:
    """Fold one ingest's variables into a dataset manifest.

    The shared bookkeeping every ingest surface (CLI, service,
    block-parallel driver) performs after the engine returns: each
    original array in *variables* is recorded under its archived name —
    :func:`~repro.utils.fragment_keys.timestep_variable` qualified when
    *timestep* is given — with the archived size from
    ``report.archived_bytes`` and the segment inventory from *store*.
    The caller saves the manifest (``manifest.save_to(store)``) when
    every update is in.
    """
    from repro.storage.metadata import VariableMetadata

    for name, data in variables.items():
        archived = (
            timestep_variable(name, timestep) if timestep is not None else name
        )
        manifest.add(
            VariableMetadata.from_array(
                archived, data, method, report.archived_bytes[archived],
                segments=store.segments(archived),
            )
        )


def ingest_dataset(
    store,
    variables: dict,
    refactorer,
    workers: int = DEFAULT_INGEST_WORKERS,
    flush_bytes: int = DEFAULT_FLUSH_BYTES,
    timestep: int | None = None,
) -> IngestReport:
    """One-call streaming ingest (the write-side ``refactor_dataset``).

    Equivalent to ``IngestPipeline(store, IngestConfig(workers,
    flush_bytes)).ingest(variables, refactorer, timestep=timestep)`` —
    and bit-identical, archive-wise, to the serial
    :func:`~repro.core.retrieval.refactor_dataset` +
    :meth:`~repro.storage.archive.Archive.save` loop it replaces.
    """
    config = IngestConfig(workers=int(workers), flush_bytes=int(flush_bytes))
    return IngestPipeline(store, config).ingest(
        variables, refactorer, timestep=timestep
    )
