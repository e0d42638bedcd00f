"""Write-ahead commit log: crash atomicity for the on-disk fragment store.

The disk store's index log (``.repro-index.jsonl`` flat /
``index.jsonl`` sharded) is a WAL, and every write follows one protocol:

1. **Pack.**  The batch's payloads land back to back in one new *pack*
   file named by the transaction id (:func:`pack_name`), created
   exclusively, so no live byte is ever overwritten and no concurrent
   reader can see a half-written payload under a live name.  Under
   ``fsync="always"`` the pack is fsync'd before step 2.
2. **Commit.**  One log record carries the whole batch's index entries:
   ``{"txn": N, "commit": [entry, ...]}``, each put entry naming its
   pack, ``offset`` and ``nbytes``.  This single fsync'd append is the
   atomicity point — before it the batch does not exist, after it the
   batch is durable.

Recovery on reopen replays the log (tolerating a torn final line, which
is truncated away — an append can only tear at the tail) and then
resolves what the log does not index: a pack no replayed entry names
belongs to a transaction that never committed (or to one a compaction
already moved every live fragment out of) and is discarded.  Any kill
point therefore lands the store on exactly the pre- or post-state of
the interrupted batch, which ``tests/test_failure_injection.py``
asserts over randomized crash schedules via :func:`crash_point` hooks
placed through the protocol.

Deletes and overwrites only append records — the superseded bytes stay
on disk as dead bytes until :meth:`~repro.storage.store.FragmentStore.compact`
reclaims them: it rewrites the live fragments of partly dead packs into
one new pack, rewrites the log to its live entries
(:meth:`CommitLog.rewrite`, itself atomic) and unlinks every file left
without a live fragment.  :class:`CompactionReport` is the accounting
every ``compact`` implementation returns.

Parent-format archives (one payload file per fragment, entries without
an ``offset``) replay unchanged: such an entry is a one-fragment pack
at offset 0.  Those writers staged each payload as ``<final>.stg<txn>``
and renamed it live after the commit record, so recovery still
publishes a staged file whose transaction committed and is its path's
latest writer, and discards any other.  Entry-per-line logs without
transaction framing replay too: a line without a ``commit`` key is one
committed entry.

fsync discipline (the ``fsync`` constructor/URL parameter):

* ``"commit"`` (default) — fsync the log on every commit record.  Full
  atomicity across process kill; an OS crash can lose the very last
  packed payloads but never tear a batch.
* ``"always"`` — additionally fsync every pack before its commit
  record, surviving OS/power loss at higher write cost.
* ``"off"`` — flush without fsync; atomic across process kill only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: Marker splicing a parent-format staged file's name: ``<final>.stg<txn>``.
STAGED_MARKER = ".stg"

#: Suffix of a pack file, the one payload file of a transaction.
PACK_SUFFIX = ".pack"

#: Accepted values of the ``fsync`` knob, strictest first.
FSYNC_MODES = ("always", "commit", "off")

#: Index entries per record when :meth:`CommitLog.rewrite` chunks a
#: compacted log (bounds the longest line a replay must parse).
REWRITE_CHUNK = 512

_crash_hook = None


def set_crash_hook(hook):
    """Install *hook* as the process-wide crash-injection hook.

    *hook* is ``callable(point_name)`` or ``None`` to clear.  The fault
    tests install a hook that raises after a scheduled number of
    :func:`crash_point` visits, simulating a process kill at that exact
    protocol step.  Returns the previously installed hook so callers
    can restore it.
    """
    global _crash_hook
    previous = _crash_hook
    _crash_hook = hook
    return previous


def crash_point(name: str) -> None:
    """Announce a named kill point of the commit protocol.

    A no-op unless a hook is installed (production never pays more than
    one ``is None`` check).  Hooks raise to simulate dying here.
    """
    if _crash_hook is not None:
        _crash_hook(name)


def pack_name(txn: int) -> str:
    """The file name of transaction *txn*'s pack."""
    return f"{txn:06d}{PACK_SUFFIX}"


def is_pack(name: str) -> bool:
    """Whether file *name* is a pack's (``<digits>.pack``)."""
    return name.endswith(PACK_SUFFIX) and name[: -len(PACK_SUFFIX)].isdigit()


def write_pack(path: str, payloads, fsync: bool = False) -> list:
    """Write *payloads* back to back into a new pack file at *path*.

    The file is created exclusively (``FileExistsError`` if the name is
    taken), so a pack never replaces bytes anything may still read.
    Returns each payload's offset.  With *fsync* the pack is durable
    before this returns.
    """
    offsets = []
    offset = 0
    with open(path, "xb") as fh:
        for payload in payloads:
            crash_point("pack.write")
            fh.write(payload)
            offsets.append(offset)
            offset += len(payload)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    crash_point("pack.written")
    return offsets


def split_staged(name: str):
    """Split a staged file name into ``(final_name, txn)``; else ``None``."""
    head, sep, tail = name.rpartition(STAGED_MARKER)
    if not sep or not head or not tail.isdigit():
        return None
    return head, int(tail)


def discard(path: str) -> None:
    """Best-effort removal of an abandoned staged file or pack."""
    try:
        os.remove(path)
    except OSError:
        pass


@dataclass
class CompactionReport:
    """Outcome of one ``compact()`` call (summable across tiers).

    ``removed_files`` counts the dead fragments whose bytes left the
    disk (one per unlinked file in the parent one-file-per-fragment
    format) and ``reclaimed_bytes`` those bytes; log shrinkage is
    visible separately as ``log_bytes_before`` vs ``log_bytes_after``.  Stores without tombstone debt return an
    all-zero report with ``compactions=0`` (the call is a no-op there).
    """

    compactions: int = 0
    removed_files: int = 0
    reclaimed_bytes: int = 0
    log_bytes_before: int = 0
    log_bytes_after: int = 0
    live_fragments: int = 0

    def merge(self, other: "CompactionReport") -> "CompactionReport":
        """Fold *other* into this report (tiered stores sum per tier)."""
        self.compactions += other.compactions
        self.removed_files += other.removed_files
        self.reclaimed_bytes += other.reclaimed_bytes
        self.log_bytes_before += other.log_bytes_before
        self.log_bytes_after += other.log_bytes_after
        self.live_fragments += other.live_fragments
        return self


@dataclass
class DurabilityStats:
    """Durability counters of one store handle (``repro stats``/metrics).

    ``wal_commits``/``wal_entries`` count this handle's appended commit
    records and index entries; ``tombstones``/``dead_bytes`` describe
    the reclaimable debt compaction would collect *right now* (dead
    fragments and their bytes); ``compactions``/``reclaimed_bytes``
    total what compaction has collected through this handle.
    """

    wal_commits: int = 0
    wal_entries: int = 0
    log_bytes: int = 0
    tombstones: int = 0
    dead_bytes: int = 0
    compactions: int = 0
    reclaimed_bytes: int = 0

    def merge(self, other: "DurabilityStats") -> "DurabilityStats":
        """Fold *other* in (tiered stores aggregate their tiers)."""
        for key in self.__dataclass_fields__:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        return self


class CommitLog:
    """Append-only transaction log of one on-disk fragment store.

    One instance owns one log file.  :meth:`replay` parses it into
    ``(txn, entries)`` records — legacy entry-per-line logs come back
    as single-entry records with ``txn=None`` — truncating a torn final
    line when the file is writable.  :meth:`reserve` hands out the next
    transaction id (pack names need it before the commit record),
    :meth:`append` writes one fsync'd commit record, and
    :meth:`rewrite` atomically replaces the whole log with a compacted
    entry set.
    """

    def __init__(self, path: str, fsync: str = "commit"):
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"unknown fsync mode {fsync!r} (known: {', '.join(FSYNC_MODES)})"
            )
        self.path = path
        self.fsync = fsync
        #: Next transaction id handed out by :meth:`reserve`.
        self.next_txn = 1
        #: Ids of every committed transaction seen or written.
        self.committed: set = set()
        #: Commit records appended through this handle.
        self.commits = 0
        #: Index entries appended through this handle.
        self.entries_appended = 0

    # -- fsync discipline ------------------------------------------------------

    @property
    def fsync_payloads(self) -> bool:
        """Whether packs must fsync before their commit record."""
        return self.fsync == "always"

    @property
    def fsync_commits(self) -> bool:
        """Whether commit records (and rewrites) fsync."""
        return self.fsync != "off"

    # -- introspection ---------------------------------------------------------

    def exists(self) -> bool:
        """Whether the log file is present on disk."""
        return os.path.isfile(self.path)

    def nbytes(self) -> int:
        """Current size of the log file (0 when absent)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # -- replay ----------------------------------------------------------------

    def replay(self) -> list:
        """Parse the log into ordered ``(txn, [entry, ...])`` records.

        Tolerates exactly one torn line — the last, which a killed
        append can leave behind — by discarding it (and truncating the
        file when writable, so later appends don't chase garbage).  A
        malformed line anywhere else is corruption and raises
        ``ValueError``.  Side effects: ``committed`` and ``next_txn``
        reflect everything replayed.
        """
        records: list = []
        if not os.path.isfile(self.path):
            return records
        with open(self.path, "rb") as fh:
            raw = fh.read()
        offset = 0
        torn_at = None
        for line in raw.split(b"\n"):
            stripped = line.strip()
            if stripped:
                try:
                    obj = json.loads(stripped)
                except ValueError:
                    torn_at = offset
                    break
                if isinstance(obj, dict) and "commit" in obj:
                    txn = int(obj.get("txn", 0))
                    records.append((txn, list(obj["commit"])))
                    self.committed.add(txn)
                    self.next_txn = max(self.next_txn, txn + 1)
                else:
                    records.append((None, [obj]))
            offset += len(line) + 1
        if torn_at is not None:
            tail = raw[torn_at:]
            if b"\n" in tail.rstrip(b"\n"):
                raise ValueError(
                    f"corrupt commit log {self.path!r}: unparseable record "
                    f"before the final line"
                )
            try:  # drop the torn append so the log is clean for new commits
                with open(self.path, "ab") as fh:
                    fh.truncate(torn_at)
            except OSError:
                pass  # read-only mount: replay still ignores the torn tail
        return records

    # -- writes ----------------------------------------------------------------

    def reserve(self) -> int:
        """Claim the next transaction id (monotonic per handle)."""
        txn = self.next_txn
        self.next_txn = txn + 1
        return txn

    def append(self, entries, txn: int | None = None) -> int:
        """Append one commit record carrying *entries*; returns its txn.

        The append is flushed (and fsync'd under the ``commit`` /
        ``always`` disciplines) before returning — when this method
        returns, the transaction is durable and recovery will index its
        pack.
        """
        if txn is None:
            txn = self.reserve()
        entries = list(entries)
        record = json.dumps({"txn": txn, "commit": entries})
        crash_point("wal.append")
        with open(self.path, "a") as fh:
            fh.write(record + "\n")
            fh.flush()
            if self.fsync_commits:
                os.fsync(fh.fileno())
        crash_point("wal.committed")
        self.committed.add(txn)
        self.commits += 1
        self.entries_appended += len(entries)
        return txn

    def rewrite(self, entries) -> None:
        """Atomically replace the log with a compacted *entries* set.

        Entries are framed into committed records of at most
        :data:`REWRITE_CHUNK` each, written to a sibling temp file,
        fsync'd, and ``os.replace``d over the log — a crash leaves
        either the old full log or the new compacted one, never a mix.
        """
        entries = list(entries)
        tmp = f"{self.path}.rw.{os.getpid()}"
        with open(tmp, "w") as fh:
            for start in range(0, len(entries), REWRITE_CHUNK):
                chunk = entries[start:start + REWRITE_CHUNK]
                txn = self.reserve()
                fh.write(json.dumps({"txn": txn, "commit": chunk}) + "\n")
                self.committed.add(txn)
            fh.flush()
            if self.fsync_commits:
                os.fsync(fh.fileno())
        crash_point("wal.rewrite")
        os.replace(tmp, self.path)
        crash_point("wal.rewritten")
