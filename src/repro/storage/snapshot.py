"""Archive snapshot/restore: copy a fragment store between two URLs.

``repro snapshot SRC DST`` (and the :func:`snapshot_store` function
behind it) copies every fragment of one :func:`~repro.storage.store.open_store`
URL into another — any scheme to any scheme, so a flat directory can be
snapshotted into a sharded layout, a tiered fabric into a plain backup
directory, or a remote HTTP store pulled down locally.  ``repro
restore`` is the same copy run the other way, with ``delete_extra=True``
by default so the destination converges to exactly the snapshot's
contents.

Properties the copy gives you:

* **Batched**: fragments move in :meth:`get_many`/``put_many`` batches
  bounded by ``chunk_bytes``, so a snapshot costs round trips
  proportional to its size over the chunk, never one per fragment.
* **Crash-safe on WAL destinations**: each batch lands as one commit
  record on the on-disk stores, so an interrupted snapshot leaves the
  destination with whole batches only — re-running the snapshot is
  always a safe repair (copying is idempotent).
* **Verified**: ``verify=True`` re-reads the destination after the copy
  and compares every payload byte-for-byte, which is what makes
  ``snapshot`` trustworthy as a backup primitive.

The report (:class:`SnapshotReport`) is what the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.store import FragmentStore, open_store, transact_dropping_vanished

#: Default payload bytes per copy batch: large enough to amortize a
#: remote round trip, small enough to bound peak memory.
DEFAULT_CHUNK_BYTES = 32 << 20


@dataclass
class SnapshotReport:
    """Outcome of one :func:`snapshot_store` / :func:`restore_store` call."""

    #: Fragments copied into the destination.
    fragments: int = 0
    #: Payload bytes copied.
    bytes_copied: int = 0
    #: Batches (``get_many`` + ``put_many`` pairs) the copy used.
    batches: int = 0
    #: Fragments already identical at the destination and skipped
    #: (same size; payloads are not pre-read unless verifying).
    skipped: int = 0
    #: Extra destination fragments deleted (``delete_extra=True``).
    deleted: int = 0
    #: Fragments re-read and compared byte-for-byte after the copy.
    verified: int = 0
    #: Keys whose post-copy verification failed (empty = success).
    mismatched: list = field(default_factory=list)


def _copy(src: FragmentStore, dst: FragmentStore, chunk_bytes: int,
          skip_same_size: bool) -> SnapshotReport:
    report = SnapshotReport()
    pending: list = []
    pending_bytes = 0

    def drain() -> None:
        nonlocal pending_bytes
        if not pending:
            return
        payloads = src.get_many(pending)
        dst.put_many([(v, s, payloads[(v, s)]) for v, s in pending])
        report.batches += 1
        report.fragments += len(pending)
        report.bytes_copied += sum(len(p) for p in payloads.values())
        pending.clear()
        pending_bytes = 0

    for variable, segment in src.keys():
        size = src.size_of(variable, segment)
        if (
            skip_same_size
            and dst.has(variable, segment)
            and dst.size_of(variable, segment) == size
        ):
            report.skipped += 1
            continue
        pending.append((variable, segment))
        pending_bytes += size
        if pending_bytes >= chunk_bytes:
            drain()
    drain()
    return report


def _verify(src: FragmentStore, dst: FragmentStore, chunk_bytes: int,
            report: SnapshotReport) -> None:
    pending: list = []
    pending_bytes = 0

    def drain() -> None:
        nonlocal pending_bytes
        if not pending:
            return
        want = src.get_many(pending)
        got = dst.get_many(pending)
        for key in pending:
            report.verified += 1
            if want[key] != got[key]:
                report.mismatched.append(key)
        pending.clear()
        pending_bytes = 0

    for key in src.keys():
        pending.append(key)
        pending_bytes += src.size_of(*key)
        if pending_bytes >= chunk_bytes:
            drain()
    drain()


def snapshot_store(
    src_url: str,
    dst_url: str,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    delete_extra: bool = False,
    verify: bool = True,
    skip_same_size: bool = False,
) -> SnapshotReport:
    """Copy every fragment of *src_url* into *dst_url*.

    Both arguments are ``open_store`` URLs (any scheme).  Fragments move
    in batches of about *chunk_bytes* payload — one ``get_many`` plus
    one ``put_many`` per batch, which on the WAL-backed disk stores
    makes every batch one crash-atomic commit.  With *delete_extra* the
    destination's fragments absent from the source are tombstoned after
    the copy, in one ``transact`` (one commit, one request on a remote
    destination), converging the destination to the source's exact key
    set.  With *skip_same_size* fragments whose
    destination copy already has the source's size are not re-copied —
    the cheap resume heuristic for re-running an interrupted snapshot
    (sizes match ≠ bytes match; keep ``verify=True`` when it matters).
    *verify* re-reads everything from both sides afterwards and records
    byte-for-byte mismatches in the report.

    Raises ``ValueError`` when verification finds mismatched payloads.
    """
    src = open_store(src_url)
    dst = open_store(dst_url)
    try:
        report = _copy(src, dst, int(chunk_bytes), bool(skip_same_size))
        if delete_extra:
            src_keys = set(src.keys())
            extras = [key for key in dst.keys() if key not in src_keys]
            if extras:
                report.deleted = len(transact_dropping_vanished(dst, [], extras))
        if verify:
            _verify(src, dst, int(chunk_bytes), report)
            if report.mismatched:
                raise ValueError(
                    f"snapshot verification failed for {len(report.mismatched)} "
                    f"fragment(s), e.g. {report.mismatched[:3]}"
                )
        return report
    finally:
        dst.close()
        src.close()


def restore_store(
    snapshot_url: str,
    dst_url: str,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    verify: bool = True,
) -> SnapshotReport:
    """Restore *dst_url* to exactly the contents of *snapshot_url*.

    :func:`snapshot_store` with the roles reversed and
    ``delete_extra=True``: fragments the destination holds that the
    snapshot does not are removed, so after a verified restore the
    destination's key set and payloads equal the snapshot's.
    """
    return snapshot_store(
        snapshot_url,
        dst_url,
        chunk_bytes=chunk_bytes,
        delete_extra=True,
        verify=verify,
    )
