"""Keyed fragment stores.

Progressive fragments are opaque byte strings addressed by
``(variable, segment)`` keys.  A store implements two primitives —
:meth:`FragmentStore.get_many` (fetch a batch in one round trip) and
:meth:`FragmentStore.transact` (commit a batch of puts plus deletes) —
and the base class derives ``get``/``put``/``put_many``/``delete`` from
them, so every backend answers all six data-path calls with the same
accounting.  :class:`FragmentStore` itself is the in-memory store (unit
tests, ``memory://``, the default tiered fast tier);
:class:`ShardedDiskStore` and its flat-layout form
:class:`DiskFragmentStore` are the one WAL-backed on-disk store (one
pack file per commit, read by offset, so partial retrieval maps to
partial reads);
:class:`StoreWrapper` is the base of every store that decorates another.

Every store counts the fragments it serves (``reads`` / ``bytes_read``)
and the *round trips* they cost (``round_trips``): one per ``get_many``
however many fragments the batch holds, so a ``get`` is one trip for one
fragment.  The pipelined retrieval engine exists to shrink the trip
count without changing the fragment traffic, hence two counters.
Writes mirror that (``puts`` / ``bytes_written`` / ``put_round_trips``):
one write trip per ``transact`` that carries puts — the economy the
streaming ingestion engine (:mod:`repro.core.ingest`) exploits.  Byte
totals and per-variable segment lists are maintained incrementally —
``nbytes``/``segments``/``size_of`` never rescan the index, which keeps
them safe to call on retrieval hot paths.

The on-disk store is crash-atomic: every write is one record of the
commit log of :mod:`repro.storage.wal`, so a process killed at any point
leaves a reopened store on exactly the pre- or post-state of the
interrupted batch; deletes only tombstone, and
:meth:`FragmentStore.compact` reclaims the dead payload bytes.
``docs/durability.md`` specifies the full protocol.

:func:`open_store` is the one entry point deployments need: it accepts a
plain directory path or a store URL (``file://``, ``sharded://``,
``memory://``, ``http://``, ``tiered://``, ``cluster://`` — see
``docs/storage.md``) and returns the right backend, auto-detecting
on-disk layouts.  On-disk URLs accept ``?fsync=always|commit|off`` to
pick the WAL's fsync discipline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading

from repro.storage import wal
from repro.storage.wal import CommitLog, CompactionReport, DurabilityStats, crash_point

#: Commit log of the flat layout (:class:`DiskFragmentStore`).
DISK_INDEX_LOG = ".repro-index.jsonl"

#: Commit log of the sharded layout (:class:`ShardedDiskStore`).
SHARD_INDEX_LOG = "index.jsonl"

#: Layout marker written once per on-disk store so :func:`open_store` can
#: identify (and correctly parameterize) the layout that wrote the
#: directory without guessing from its contents.
LAYOUT_MARKER = ".repro-store.json"


def _read_layout_marker(archive_dir: str) -> dict | None:
    path = os.path.join(archive_dir, LAYOUT_MARKER)
    if not os.path.isfile(path):
        return None
    try:
        with open(path) as fh:
            marker = json.load(fh)
    except (OSError, ValueError):
        return None
    return marker if isinstance(marker, dict) else None


_URL_RE = re.compile(r"^([a-z][a-z0-9+.-]*)://(.*)$", re.IGNORECASE)

#: Suffix multipliers accepted by byte-size URL parameters (binary units).
_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def split_store_url(url: str) -> tuple:
    """Split a store URL into ``(scheme, rest)``; plain paths get ``None``.

    ``rest`` is everything after ``scheme://`` with no further parsing —
    each scheme interprets its own path/query grammar.  Windows-style
    drive letters never match (schemes must be at least two characters).
    """
    match = _URL_RE.match(url)
    if match is None or len(match.group(1)) < 2:
        return None, url
    return match.group(1).lower(), match.group(2)


def parse_bytes(text: str) -> int:
    """Parse a byte count with an optional binary suffix (``64M``, ``2g``)."""
    text = str(text).strip()
    if text and text[-1].lower() in _SIZE_SUFFIXES:
        return int(float(text[:-1]) * _SIZE_SUFFIXES[text[-1].lower()])
    return int(text)


def _split_query(rest: str) -> tuple:
    """Split ``path?k=v&...`` into ``(path, {k: v})`` (last value wins)."""
    from urllib.parse import parse_qsl

    path, _, query = rest.partition("?")
    return path, dict(parse_qsl(query, keep_blank_values=True))


def open_directory_store(
    archive_dir: str, fsync: str = "commit", sharded: bool | None = None
) -> "FragmentStore":
    """Open an on-disk archive directory in its flat or sharded layout.

    With ``sharded=None`` the layout is detected: a directory is sharded
    when it holds the persisted shard index or a :data:`LAYOUT_MARKER`
    saying so (the marker, written on first ``put``, also restores the
    fan-out width, which filenames alone cannot); anything else is flat.
    The shard index outranks the marker, so a directory that somehow
    carries both layouts still opens the way pre-marker revisions did.
    ``sharded=True``/``False`` names the layout instead (a caller
    creating an archive).  *fsync* picks the commit log's discipline.
    """
    if sharded is None:
        marker = _read_layout_marker(archive_dir)
        sharded = os.path.isfile(os.path.join(archive_dir, SHARD_INDEX_LOG)) or (
            marker is not None and marker.get("layout") == "sharded"
        )
    store_cls = ShardedDiskStore if sharded else DiskFragmentStore
    return store_cls(archive_dir, fsync=fsync)


def open_store(url: str) -> "FragmentStore":
    """Open a fragment store from a directory path or a store URL.

    Accepted forms (the full grammar lives in ``docs/storage.md``):

    * a plain path or ``file://PATH`` — on-disk archive directory with
      layout auto-detection (:func:`open_directory_store`),
    * ``sharded://PATH[?fanout=N]`` — explicitly sharded layout,
    * ``memory://`` — a fresh, empty in-process store (never persists),
    * ``http://HOST:PORT`` — client for a running
      :class:`~repro.storage.remote.HTTPFragmentServer`,
    * ``tiered://FAST_DIR?slow=URL[&...]`` — a
      :class:`~repro.storage.tiered.TieredStore` composing a fast tier
      over any slow backend (itself an ``open_store`` URL),
    * ``cluster://HOST:PORT,HOST:PORT,...[?replicas=K&vnodes=V&...]`` —
      a :class:`~repro.storage.cluster.ClusterFragmentStore` sharding
      and replicating one namespace over N fragment servers (see
      ``docs/cluster.md`` for the grammar).

    On-disk schemes accept ``fsync=always|commit|off`` as a query
    parameter (plain paths take the default discipline).

    Raises ``ValueError`` for an unknown scheme or malformed URL.
    """
    scheme, rest = split_store_url(url)
    if scheme is None:
        return open_directory_store(rest)
    if scheme == "file":
        path, params = _split_query(rest)
        return open_directory_store(path, fsync=params.get("fsync", "commit"))
    if scheme == "memory":
        return FragmentStore()
    if scheme == "sharded":
        path, params = _split_query(rest)
        if not path:
            raise ValueError(f"sharded:// URL needs a directory path: {url!r}")
        return ShardedDiskStore(
            path,
            fanout=int(params.get("fanout", 256)),
            fsync=params.get("fsync", "commit"),
        )
    if scheme == "http":
        from repro.storage.remote import HTTPFragmentStore

        return HTTPFragmentStore.from_url(url)
    if scheme == "tiered":
        from repro.storage.tiered import TieredStore

        return TieredStore.from_url(url)
    if scheme == "cluster":
        from repro.storage.cluster import ClusterFragmentStore

        return ClusterFragmentStore.from_url(url)
    raise ValueError(
        f"unknown store URL scheme {scheme!r} in {url!r} "
        f"(known: file, sharded, memory, http, tiered, cluster)"
    )


class FragmentStore:
    """In-memory fragment store, and the base of every other backend.

    A backend implements the two primitives :meth:`get_many` and
    :meth:`transact`; ``get``/``put``/``put_many``/``delete`` are derived
    from them here and carry the same accounting on every store (a
    subclass overrides a derived method only where it is measurably hot
    or does what a batch cannot).  Subclasses that keep a local index
    snapshot reuse ``_record_put``/``_record_delete`` and inherit the
    index queries below.
    """

    def __init__(self):
        self._data: dict = {}
        #: Number of fragments served (``get`` counts one).
        self.reads = 0
        #: Total payload bytes served (the store-side traffic).
        self.bytes_read = 0
        #: Number of read requests issued: one per ``get_many`` (and so
        #: per ``get``) call, however many fragments the batch holds.
        self.round_trips = 0
        #: Number of fragments written.
        self.puts = 0
        #: Total payload bytes written (the store-side write traffic).
        self.bytes_written = 0
        #: Number of write requests issued: one per ``transact`` that
        #: carries puts (so one per ``put`` / ``put_many`` call).
        self.put_round_trips = 0
        # the store's one lock: counters and index totals are
        # read-modify-write and every store may serve concurrent clients
        self._stats_lock = threading.RLock()
        # running index totals, maintained by _record_put (satisfies
        # nbytes/segments/size_of without a full index scan per call)
        self._sizes: dict = {}  # (variable, segment) -> payload bytes
        self._var_bytes: dict = {}  # variable -> archived bytes
        self._var_segments: dict = {}  # variable -> [segment, ...] in put order
        self._total_bytes = 0

    # -- accounting -----------------------------------------------------------

    def _count_reads(self, out: dict, trips: int = 1) -> None:
        """Account the read round trip(s) that served the payloads of *out*."""
        with self._stats_lock:
            self.round_trips += trips
            self.reads += len(out)
            self.bytes_read += sum(len(payload) for payload in out.values())

    def _count_writes(self, batch: list, trips: int = 1) -> None:
        """Account the write round trip(s) that carried *batch*."""
        with self._stats_lock:
            self.put_round_trips += trips
            self.puts += len(batch)
            self.bytes_written += sum(len(payload) for _, _, payload in batch)

    @staticmethod
    def _check_batch(items) -> list:
        """Validate and materialize a batch of puts.

        *items* is an iterable of ``(variable, segment, payload)``
        triples; payload types are checked for the whole batch before
        anything is written, so a bad entry never leaves a partial batch
        behind.  Duplicate keys keep their order (last write wins, as
        with repeated ``put`` calls).
        """
        batch = []
        for variable, segment, payload in items:
            if not isinstance(payload, (bytes, bytearray)):
                raise TypeError("fragment payload must be bytes")
            batch.append((variable, segment, bytes(payload)))
        return batch

    def _record_put(self, variable: str, segment: str, nbytes: int) -> None:
        """Fold one archived fragment into the running index totals."""
        key = (variable, segment)
        old = self._sizes.get(key)
        if old is None:
            self._var_segments.setdefault(variable, []).append(segment)
        else:
            self._total_bytes -= old
            self._var_bytes[variable] -= old
        self._sizes[key] = int(nbytes)
        self._total_bytes += int(nbytes)
        self._var_bytes[variable] = self._var_bytes.get(variable, 0) + int(nbytes)

    def _record_delete(self, variable: str, segment: str) -> None:
        """Drop one fragment from the running index totals."""
        nbytes = self._sizes.pop((variable, segment))
        self._total_bytes -= nbytes
        self._var_bytes[variable] -= nbytes
        segments = self._var_segments[variable]
        segments.remove(segment)
        if not segments:
            del self._var_segments[variable]
            del self._var_bytes[variable]

    # -- the two primitives ----------------------------------------------------

    def get_many(self, keys) -> dict:
        """Fetch a batch of fragments in one store round trip.

        *keys* is an iterable of ``(variable, segment)`` pairs; the result
        maps each (deduplicated) key to its payload, in request order.
        All keys are checked against the index in a single pass before
        any payload is read, so a missing key raises ``KeyError`` (listing
        every missing key) without serving a partial batch.  Accounting:
        one ``round_trips``, one ``reads`` per fragment.
        """
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        with self._stats_lock:  # a snapshot no concurrent transact can tear
            missing = [k for k in keys if k not in self._data]
            if missing:
                raise KeyError(missing)
            out = {key: self._data[key] for key in keys}
        self._count_reads(out)
        return out

    def transact(self, puts, deletes=()) -> None:
        """Apply a batch of puts and then deletes as one transaction.

        *puts* is an iterable of ``(variable, segment, payload)`` triples,
        written in order (duplicate keys: last write wins) and accounted
        as one write round trip; *deletes* is an iterable of ``(variable,
        segment)`` keys, which must exist (``KeyError``) and must not
        collide with the batch's keys.  On the WAL-backed disk store the
        whole transaction is a single fsync'd commit record, so a crash
        leaves either none or all of it — this is what makes
        ``Archive.save`` (new fragments in, superseded segments out)
        atomic.  Stores without cross-key atomicity (this in-memory one,
        the remote and composite backends) apply one batched put trip,
        then the deletes.
        """
        batch = self._check_batch(puts)
        with self._stats_lock:  # payloads and totals move together
            for variable, segment, payload in batch:
                self._data[(variable, segment)] = payload
                self._record_put(variable, segment, len(payload))
            if batch:
                self._count_writes(batch)
            for variable, segment in deletes:
                if (variable, segment) not in self._sizes:
                    raise KeyError((variable, segment))
                self._data.pop((variable, segment), None)
                self._record_delete(variable, segment)

    # -- derived from the primitives -------------------------------------------

    def get(self, variable: str, segment: str) -> bytes:
        """Fetch one fragment (a singleton ``get_many``); KeyError when absent."""
        key = (variable, segment)
        try:
            return self.get_many([key])[key]
        except KeyError:
            raise KeyError(key) from None

    def put(self, variable: str, segment: str, payload: bytes) -> None:
        """Archive one fragment: a singleton batch, one write round trip."""
        self.transact([(variable, segment, payload)])

    def put_many(self, items) -> None:
        """Archive a batch in one write round trip (a ``transact`` of puts)."""
        self.transact(items)

    def delete(self, variable: str, segment: str) -> None:
        """Remove one fragment (a ``transact`` of one delete); KeyError when absent."""
        self.transact((), [(variable, segment)])

    # -- index ----------------------------------------------------------------

    def has(self, variable: str, segment: str) -> bool:
        """Whether a fragment is archived (index-only; no payload read)."""
        return (variable, segment) in self._sizes

    def keys(self) -> list:
        """All archived ``(variable, segment)`` keys, insertion-ordered."""
        return list(self._sizes)

    def variables(self) -> list:
        """Archived variable names, first-put order."""
        return list(self._var_segments)

    def segments(self, variable: str) -> list:
        """Segment names archived for *variable*, insertion-ordered."""
        return list(self._var_segments.get(variable, ()))

    def size_of(self, variable: str, segment: str) -> int:
        """Payload size of one archived fragment without reading it."""
        return self._sizes[(variable, segment)]

    def nbytes(self, variable: str | None = None) -> int:
        """Total archived bytes (optionally for a single variable)."""
        with self._stats_lock:  # never a total caught mid-overwrite
            if variable is None:
                return self._total_bytes
            return self._var_bytes.get(variable, 0)

    # -- durability ------------------------------------------------------------

    def compact(self) -> CompactionReport:
        """Reclaim tombstoned bytes; returns what was collected.

        The in-memory store has nothing to reclaim (deletes free payloads
        immediately), so this base implementation is a zero no-op report.
        The on-disk store repacks the live fragments of partly dead
        packs, rewrites its commit log to its live entries and unlinks
        the files left without a live fragment; composite stores
        (tiered, cluster) merge per-backend reports and wrappers forward.
        """
        return CompactionReport()

    def durability(self) -> DurabilityStats:
        """Durability counters of this handle (WAL traffic, dead bytes).

        All-zero for backends without a commit log; the on-disk store
        reports real counters and composite stores aggregate them.
        """
        return DurabilityStats()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (no-op for local stores).

        Remote clients close their connections and composite stores
        close their backends here; callers may always call it.
        """

    def __enter__(self) -> "FragmentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _forwarded(name: str):
    def method(self, *args):
        return self._forward(getattr(self.inner, name), *args)

    method.__name__ = name
    method.__doc__ = f"``inner.{name}(...)``, through :meth:`StoreWrapper._forward`."
    return method


class StoreWrapper(FragmentStore):
    """Base of every store that decorates another one, *inner*.

    A wrapper's own counters are uniformly *client-visible* — the
    requests issued to it, however they were served — while ``inner``'s
    keep the backend truth.  The two primitives forward by default, and
    ``has``/``keys``/``variables``/``segments``/``size_of``/``nbytes``/
    ``compact``/``durability``/``refresh`` always do, each through
    :meth:`_forward` — so a subclass adds its behaviour in one place
    (:class:`~repro.storage.resilience.ResilientStore` retries there)
    and otherwise overrides only the primitives it changes.
    """

    has, keys, variables, segments, size_of, nbytes, compact, durability = map(
        _forwarded,
        ("has", "keys", "variables", "segments", "size_of", "nbytes", "compact", "durability"),
    )

    def __init__(self, inner: FragmentStore):
        super().__init__()
        self.inner = inner

    def _forward(self, fn, *args):
        """Call one bound method of *inner* (the hook subclasses override)."""
        return fn(*args)

    def get_many(self, keys) -> dict:
        """Fetch the batch from *inner* in one call."""
        out = self._forward(self.inner.get_many, list(keys))
        self._count_reads(out)
        return out

    def transact(self, puts, deletes=()) -> None:
        """Hand the whole transaction to *inner* in one call, keeping its atomicity."""
        batch = self._check_batch(puts)
        self._forward(self.inner.transact, batch, list(deletes))
        if batch:
            self._count_writes(batch)

    def refresh(self) -> None:
        """Re-pull the inner store's index snapshot, where it keeps one."""
        refresh = getattr(self.inner, "refresh", None)
        if refresh is not None:
            self._forward(refresh)

    def close(self) -> None:
        """Close the inner store (directly: closing is best effort)."""
        self.inner.close()


class ShortReadError(ValueError):
    """A payload file holds fewer bytes than an index entry places in it.

    Raised by the disk store's reads for a truncated pack or an entry
    pointing past the end of its file; it names the key and the file,
    and no short payload is ever returned.
    """


class _ShardedLayout:
    """Packs hashed by transaction id into ``fanout`` shard directories.

    A pack lives at ``<shard>/<txn>.pack``, so no single directory grows
    with the archive (what object stores and parallel file systems
    want).  Parent-format archives hold one ``<shard>/<var>__<seg>__
    <digest>.bin`` file per fragment; those entries replay as
    one-fragment packs.
    """

    log_name = SHARD_INDEX_LOG
    field = "path"  # the log-entry field naming a fragment's file

    def __init__(self, fanout: int):
        self.fanout = fanout
        self.marker = {"layout": "sharded", "fanout": fanout}

    def pack(self, txn: int) -> str:
        """Relative path of transaction *txn*'s pack."""
        digest = hashlib.sha1(str(txn).encode()).hexdigest()
        shard = f"{int(digest[:8], 16) % self.fanout:03x}"
        return os.path.join(shard, wal.pack_name(txn))

    def dirs(self, root: str) -> list:
        """The shard directories (relative, with trailing separator)."""
        try:
            return sorted(e.name + os.sep for e in os.scandir(root) if e.is_dir())
        except OSError:
            return []

    recover = staticmethod(lambda rel: None)  # no key survives without the log


class _FlatLayout:
    """``<txn>.pack`` directly under the root, beside the log.

    Parent-format archives hold one ``<var>__<seg>.bin`` file per
    fragment there.
    """

    log_name = DISK_INDEX_LOG
    field = "file"
    marker = {"layout": "flat"}

    pack = staticmethod(wal.pack_name)

    def dirs(self, root: str) -> list:
        """The root itself: payloads sit beside the log and the marker."""
        return [""]

    def recover(self, name: str):
        """Key of a payload file in a directory written before the key log.

        Sanitization is idempotent, so lookups on the recovered keys
        resolve to the same files.
        """
        if "__" not in name:
            return None
        return tuple(name[:-4].split("__", 1))


class ShardedDiskStore(FragmentStore):
    """The WAL-backed on-disk store, in its fan-out layout.

    Each transaction's payloads go into one pack file, and an
    append-only commit log records every fragment's pack, offset and
    size; a reopen replays the log, so a restarted service immediately
    serves everything archived before.  Writes are crash-atomic
    (:meth:`transact`); deletes and overwrites leave dead bytes, which
    :meth:`compact` reclaims.  Where the packs and the log live is the
    *layout*: here packs are hashed into ``fanout`` subdirectories;
    :class:`DiskFragmentStore` is the same store over one flat
    directory.

    The layout marker records the fan-out width; when reopening a
    directory whose marker disagrees with the *fanout* argument, the
    marker wins, so every handle places packs by the same rule.
    """

    def __init__(self, root: str, fanout: int = 256, fsync: str = "commit"):
        marker = _read_layout_marker(root)
        if marker is not None and marker.get("layout") == "sharded":
            fanout = int(marker.get("fanout", fanout))
        if fanout < 1:  # validate the *effective* width, marker included
            raise ValueError("fanout must be >= 1")
        self.fanout = int(fanout)
        self._open(root, _ShardedLayout(self.fanout), fsync)

    def _open(self, root: str, layout, fsync: str) -> None:
        FragmentStore.__init__(self)
        self.root = root
        self._layout = layout
        # the reader lock: index, file tables and counters
        self._lock = self._stats_lock
        # serializes writers (packs and log appends land in one order)
        # without making readers — who only take self._lock briefly —
        # wait behind batch file I/O
        self._write_lock = threading.Lock()
        self._index: dict = {}  # (variable, segment) -> (relpath, offset)
        self._live: dict = {}  # relpath -> live fragments in that file
        self._dead: dict = {}  # relpath -> [dead fragments, dead bytes]
        self._log = CommitLog(os.path.join(root, layout.log_name), fsync=fsync)
        self._compactions = 0
        self._reclaimed_bytes = 0
        os.makedirs(root, exist_ok=True)
        self._reindex()

    # -- the file tables (callers hold self._lock, or are opening) ---------------

    def _place(self, key, rel: str, offset: int, nbytes: int) -> None:
        """Index *key* at *offset* of *rel*; the bytes it replaces die."""
        old = self._index.get(key)
        if old is None or old[0] != rel:  # same file: a parent-format rewrite
            if old is not None:
                self._retire(old[0], self._sizes[key])
            if rel not in self._live:  # a dead parent-format file written again
                self._dead.pop(rel, None)
            self._live[rel] = self._live.get(rel, 0) + 1
        self._index[key] = (rel, offset)
        self._record_put(*key, nbytes)

    def _unplace(self, key) -> None:
        """Drop *key* from the index; its bytes become dead debt."""
        rel, _ = self._index.pop(key)
        self._retire(rel, self._sizes[key])
        self._record_delete(*key)

    def _retire(self, rel: str, nbytes: int) -> None:
        left = self._live[rel] - 1
        if left:
            self._live[rel] = left
        else:
            del self._live[rel]
        debt = self._dead.setdefault(rel, [0, 0])
        debt[0] += 1
        debt[1] += nbytes

    # -- open ------------------------------------------------------------------

    def _reindex(self) -> None:
        log_existed = self._log.exists()
        file_txn: dict = {}  # relpath -> last committed writer txn
        for txn, entries in self._log.replay():
            for entry in entries:
                key = (entry["variable"], entry["segment"])
                if entry.get("deleted"):
                    if key in self._index:
                        self._unplace(key)
                    continue
                rel = entry[self._layout.field]
                nbytes = entry.get("nbytes")
                if nbytes is None:  # log predates size tracking
                    try:
                        nbytes = os.path.getsize(os.path.join(self.root, rel))
                    except OSError:
                        # dangling entry (file cleaned up externally):
                        # keep the key indexed — size 0, unreadable on
                        # access — rather than failing the whole open
                        nbytes = 0
                self._place(key, rel, int(entry.get("offset", 0)), int(nbytes))
                file_txn[rel] = 0 if txn is None else txn
        # One pass over the payload directory names; only a file the log
        # does not account for costs a stat.  A pack no entry names never
        # committed (or a compaction moved its last live fragment away):
        # it is discarded.  A parent-format staged file is published if
        # its transaction committed and is still the path's latest
        # writer, else discarded.  Any other payload file the log does
        # not index is dead weight (an interrupted compaction), never
        # resurrected, earmarked for the next compact().  Only a
        # directory without any log is recovered from its file names,
        # where the layout can.
        seen = set()
        for rel in self._scan():
            if rel in self._live or rel in self._dead:
                seen.add(rel)
                continue
            path = os.path.join(self.root, rel)
            parsed = wal.split_staged(rel)
            if parsed is not None:
                final, txn = parsed
                if txn in self._log.committed and file_txn.get(final) == txn:
                    os.replace(path, os.path.join(self.root, final))
                    seen.add(final)
                else:
                    wal.discard(path)
                continue
            seen.add(rel)
            if wal.is_pack(os.path.basename(rel)):
                wal.discard(path)
                continue
            try:
                nbytes = os.path.getsize(path)
            except OSError:
                continue  # vanished between listing and stat
            if log_existed:
                self._dead[rel] = [1, nbytes]
            else:
                key = self._layout.recover(rel)
                if key is not None:
                    self._place(key, rel, 0, nbytes)
        for rel in [r for r in self._dead if r not in seen and r not in self._live]:
            del self._dead[rel]  # already gone from disk: nothing to reclaim

    def _scan(self):
        """Yield the relpath of every payload or staged file, path order."""
        for prefix in self._layout.dirs(self.root):
            try:
                names = sorted(os.listdir(os.path.join(self.root, prefix)))
            except OSError:
                continue
            for name in names:
                if (
                    name.endswith(".bin")
                    or wal.is_pack(name)
                    or wal.split_staged(name) is not None
                ):
                    yield prefix + name

    def _write_marker(self) -> None:
        # written on first put, never on open: opening must work on
        # read-only mounts, and an empty directory must not get pinned
        # to a layout it may never hold
        path = os.path.join(self.root, LAYOUT_MARKER)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            if not os.path.isfile(path):
                with open(tmp, "w") as fh:
                    json.dump(self._layout.marker, fh)
                os.replace(tmp, path)  # readers see none-or-whole, never partial
        except OSError:
            pass  # best-effort: open_store falls back to index heuristics

    def _entry(self, key, rel: str, offset: int, nbytes: int) -> dict:
        return {
            "variable": key[0],
            "segment": key[1],
            self._layout.field: rel,
            "offset": offset,
            "nbytes": nbytes,
        }

    def _write_pack(self, payloads: dict, fsync: bool) -> tuple:
        """Pack *payloads* (key -> bytes) into a new file under a fresh
        txn; returns ``(txn, {key: (relpath, offset)})``."""
        while True:
            txn = self._log.reserve()
            rel = self._layout.pack(txn)
            path = os.path.join(self.root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            try:
                offsets = wal.write_pack(path, payloads.values(), fsync=fsync)
            except FileExistsError:
                continue  # another handle on this directory took the txn
            return txn, {key: (rel, off) for key, off in zip(payloads, offsets)}

    # -- the two primitives ----------------------------------------------------

    def transact(self, puts, deletes=()) -> None:
        """Commit a batch of puts plus tombstones in one WAL record.

        Pack → commit: the batch's payloads (the last one per repeated
        key) go into one new pack file, then one fsync'd log append
        commits the whole batch — an entry per put naming its pack,
        offset and size, and one tombstone entry per *deletes* key.  A
        kill before the commit record leaves the store exactly as it was
        (the reopen discards the orphaned pack); a kill after it leaves
        the whole batch — never a torn mix, which is what makes an
        ``Archive.save`` replacing a variable's segment set atomic.
        Delete keys must exist and must not collide with the batch
        (ValueError); deleted and overwritten bytes stay on disk as
        dead bytes (invisible to the index) until :meth:`compact`.  The
        batch holds the writer lock but takes the reader lock only for
        the index update, so concurrent reads never stall behind the
        pack write.
        """
        batch = self._check_batch(puts)
        payloads = {(v, s): p for v, s, p in batch}  # last write wins
        doomed = list(dict.fromkeys((str(v), str(s)) for v, s in deletes))
        overlap = set(payloads) & set(doomed)
        if overlap:
            raise ValueError(f"keys both written and deleted: {sorted(overlap)}")
        with self._write_lock:
            if doomed:
                with self._lock:
                    missing = [k for k in doomed if k not in self._index]
                if missing:
                    raise KeyError(missing[0] if len(missing) == 1 else missing)
            placed: dict = {}
            if payloads:
                txn, placed = self._write_pack(payloads, self._log.fsync_payloads)
            else:
                txn = self._log.reserve()
            entries = [
                self._entry(key, rel, off, len(payloads[key]))
                for key, (rel, off) in placed.items()
            ]
            for variable, segment in doomed:
                crash_point("disk.tombstone")
                entries.append({"variable": variable, "segment": segment, "deleted": True})
            self._log.append(entries, txn=txn)  # the atomicity point
            with self._lock:
                self._write_marker()
                for key, (rel, off) in placed.items():
                    self._place(key, rel, off, len(payloads[key]))
                for key in doomed:
                    self._unplace(key)
                if batch:
                    self._count_writes(batch)

    def get_many(self, keys) -> dict:
        """Read a batch: each file opened once, its fragments ``pread``
        in offset order, adjacent ones in one call.

        A file a concurrent :meth:`compact` unlinked after this read
        looked its keys up is looked up again, once, under the reader
        lock — which holds off the next move — and read there.
        """
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        try:
            payloads = self._read(keys)
        except FileNotFoundError:
            with self._lock:
                payloads = self._read(keys)
        out = {k: payloads[k] for k in keys}
        self._count_reads(out)
        return out

    def _locate(self, keys) -> list:
        """``(relpath, offset, nbytes, key)`` per key, file and offset order."""
        with self._lock:  # single index pass resolves every key up front
            missing = [k for k in keys if k not in self._index]
            if missing:
                raise KeyError(missing)
            return sorted((*self._index[k], self._sizes[k], k) for k in keys)

    def _read(self, keys) -> dict:
        payloads = {}
        for rel, group in itertools.groupby(self._locate(keys), key=lambda loc: loc[0]):
            fd = os.open(os.path.join(self.root, rel), os.O_RDONLY)
            try:
                run: list = []
                for loc in group:
                    if run and loc[1] != run[-1][1] + run[-1][2]:
                        self._read_run(fd, rel, run, payloads)
                        run = []
                    run.append(loc)
                self._read_run(fd, rel, run, payloads)
            finally:
                os.close(fd)
        return payloads

    def _read_run(self, fd: int, rel: str, run: list, payloads: dict) -> None:
        """``pread`` adjacent fragments of one file in one call."""
        start = run[0][1]
        data = os.pread(fd, run[-1][1] + run[-1][2] - start, start)
        for _, offset, nbytes, key in run:
            lo = offset - start
            if lo + nbytes > len(data):
                raise ShortReadError(
                    f"fragment {key!r}: {os.path.join(self.root, rel)!r} holds "
                    f"{max(len(data) - lo, 0)} of its {nbytes} bytes at offset {offset}"
                )
            payloads[key] = data if len(run) == 1 else data[lo:lo + nbytes]

    # -- durability ------------------------------------------------------------

    def compact(self) -> CompactionReport:
        """Reclaim every dead byte: repack, rewrite the log, unlink.

        The live fragments of partly dead files are rewritten into one
        new pack (fsync'd unless ``fsync="off"``: its bytes are already
        durable elsewhere), the log is atomically rewritten to the live
        entries, and then every file without a live fragment is
        unlinked.  Holds the writer lock for the whole pass (writers
        queue briefly); readers are never blocked — a read that loses
        its file to the unlink re-resolves (:meth:`get_many`).  Only the
        files earmarked at delete/reopen time are touched, never the
        whole tree.  Crash-safe: a kill before the rewrite leaves the
        old log (the reopen discards the new pack); one after it leaves
        orphaned files that the reopen discards (packs) or re-earmarks
        (parent-format files).
        """
        with self._write_lock:
            report = CompactionReport(log_bytes_before=self._log.nbytes())
            with self._lock:
                dead = {rel: tuple(debt) for rel, debt in self._dead.items()}
                moving = [k for k, (rel, _) in self._index.items() if rel in dead]
            crash_point("compact.begin")
            moved: dict = {}
            if moving:  # the live fragments of partly dead files
                live = self._read(moving)
                _, moved = self._write_pack(
                    {key: live[key] for key in moving}, self._log.fsync_commits
                )
            with self._lock:
                entries = [
                    self._entry(key, *moved.get(key, loc), self._sizes[key])
                    for key, loc in self._index.items()
                ]
            self._log.rewrite(entries)
            crash_point("compact.rewritten")
            with self._lock:
                for key, (rel, off) in moved.items():
                    self._place(key, rel, off, self._sizes[key])
                for rel in dead:
                    self._dead.pop(rel, None)
            removed = reclaimed = 0
            for rel, (fragments, nbytes) in dead.items():
                try:
                    os.remove(os.path.join(self.root, rel))
                except OSError:
                    continue  # already gone; nothing reclaimed
                removed += fragments
                reclaimed += nbytes
                crash_point("compact.unlink")
            with self._lock:
                self._compactions += 1
                self._reclaimed_bytes += reclaimed
            report.compactions = 1
            report.removed_files = removed
            report.reclaimed_bytes = reclaimed
            report.log_bytes_after = self._log.nbytes()
            report.live_fragments = len(entries)
            return report

    def durability(self) -> DurabilityStats:
        """WAL and dead-byte counters of this handle."""
        with self._lock:
            return DurabilityStats(
                wal_commits=self._log.commits,
                wal_entries=self._log.entries_appended,
                log_bytes=self._log.nbytes(),
                tombstones=sum(debt[0] for debt in self._dead.values()),
                dead_bytes=sum(debt[1] for debt in self._dead.values()),
                compactions=self._compactions,
                reclaimed_bytes=self._reclaimed_bytes,
            )


class DiskFragmentStore(ShardedDiskStore):
    """The WAL-backed on-disk store over one flat directory.

    Everything :class:`ShardedDiskStore` does, with every pack directly
    under ``root`` and the key log beside them.  A directory written
    before the key log existed (one ``<var>__<seg>.bin`` file per
    fragment) is recovered from its file names.
    """

    def __init__(self, root: str, fsync: str = "commit"):
        self._open(root, _FlatLayout(), fsync)
