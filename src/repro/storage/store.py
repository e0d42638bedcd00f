"""Keyed fragment stores.

Progressive fragments are opaque byte strings addressed by
``(variable, segment)`` keys.  A store implements two primitives —
:meth:`FragmentStore.get_many` (fetch a batch in one round trip) and
:meth:`FragmentStore.transact` (commit a batch of puts plus deletes) —
and the base class derives ``get``/``put``/``put_many``/``delete`` from
them, so every backend answers all six data-path calls with the same
accounting.  :class:`FragmentStore` itself is the in-memory store (unit
tests, ``memory://``, the default tiered fast tier);
:class:`ShardedDiskStore` is the one WAL-backed on-disk store (one
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
``docs/storage.md``) and returns the right backend.  On-disk URLs
accept ``?fsync=always|commit|off`` to pick the WAL's fsync discipline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading

from repro.storage import wal
from repro.storage.wal import (
    ArchiveFormatError,
    CommitLog,
    CompactionReport,
    DurabilityStats,
    crash_point,
)

#: Commit log of the on-disk store (:class:`ShardedDiskStore`).
SHARD_INDEX_LOG = "index.jsonl"

#: Layout marker written once per on-disk store: it records the fan-out
#: width, which the pack paths alone cannot.
LAYOUT_MARKER = ".repro-store.json"


def _retired_file(name: str) -> str | None:
    """What a file at an archive's root is, if an older revision wrote it.

    The flat layout kept its log (``.repro-index.jsonl``) and packs at
    the root; before packs, every fragment was one ``.bin`` file, staged
    under a ``.stg<txn>`` name until its commit.
    """
    if name == ".repro-index.jsonl":
        return "the commit log of the flat layout"
    if name.endswith(wal.PACK_SUFFIX):
        return "a pack of the flat layout"
    if name.endswith(".bin"):
        return "a one-file-per-fragment payload"
    if ".stg" in name:
        return "a staged payload file"
    return None


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


def _parse_store_url(url: str, scheme: str, known) -> tuple:
    """Split a *scheme* URL into ``(path, {key: value})`` (last value wins).

    Raises ``ValueError`` for another scheme, and for any query key
    outside *known*, naming it and the keys the scheme accepts — a
    misspelled key must fail the open, not fall back to a default.
    """
    from urllib.parse import parse_qsl

    got, rest = split_store_url(url)
    if got != scheme:
        raise ValueError(f"not a {scheme}:// store URL: {url!r}")
    path, _, query = rest.partition("?")
    params = dict(parse_qsl(query, keep_blank_values=True))
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {scheme}:// key(s) {', '.join(unknown)} in {url!r} "
            f"(known: {', '.join(sorted(known)) or 'none'})"
        )
    return path, params


def open_store(url: str) -> "FragmentStore":
    """Open a fragment store from a directory path or a store URL.

    Accepted forms (the full grammar lives in ``docs/storage.md``):

    * a plain path, ``file://PATH`` or ``sharded://PATH[?fanout=N]`` —
      an on-disk archive directory (:class:`ShardedDiskStore`; the
      fan-out applies to a new directory, a written one keeps its own),
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

    Raises ``ValueError`` for an unknown scheme, a malformed URL, or a
    query key the scheme does not accept.
    """
    scheme, rest = split_store_url(url)
    if scheme is None:
        return ShardedDiskStore(rest)
    if scheme == "file":
        path, params = _parse_store_url(url, scheme, {"fsync"})
        return ShardedDiskStore(path, fsync=params.get("fsync", "commit"))
    if scheme == "memory":
        _parse_store_url(url, scheme, ())
        return FragmentStore()
    if scheme == "sharded":
        path, params = _parse_store_url(url, scheme, {"fanout", "fsync"})
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

    def _count_reads(self, out: dict) -> None:
        """Account the read round trip that served the payloads of *out*."""
        with self._stats_lock:
            self.round_trips += 1
            self.reads += len(out)
            self.bytes_read += sum(len(payload) for payload in out.values())

    def _count_writes(self, batch: list) -> None:
        """Account the write round trip that carried *batch*."""
        with self._stats_lock:
            self.put_round_trips += 1
            self.puts += len(batch)
            self.bytes_written += sum(len(payload) for _, _, payload in batch)

    def _check_batch(self, puts, deletes=()) -> tuple:
        """Validate a whole transaction before any of it is applied.

        Returns ``(batch, doomed)``: the materialized ``(variable,
        segment, payload)`` puts (duplicate keys keep their order: last
        write wins, as with repeated ``put`` calls) and the deduplicated
        delete keys.  A non-bytes payload is a ``TypeError``, a key both
        written and deleted a ``ValueError``, and delete keys this
        store's index lacks are all named in one ``KeyError``.  A
        wrapper passes no *deletes* (its index is ``inner``'s) and so
        checks payload types only; a store with an index calls this
        under the lock its writers hold.
        """
        batch = []
        for variable, segment, payload in puts:
            if not isinstance(payload, (bytes, bytearray)):
                raise TypeError("fragment payload must be bytes")
            batch.append((variable, segment, bytes(payload)))
        doomed = list(dict.fromkeys((v, s) for v, s in deletes))
        if doomed:
            overlap = {(v, s) for v, s, _ in batch}.intersection(doomed)
            if overlap:
                raise ValueError(f"keys both written and deleted: {sorted(overlap)}")
            missing = [key for key in doomed if key not in self._sizes]
            if missing:
                raise KeyError(missing)
        return batch, doomed

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
        collide with the batch's keys (``ValueError``).  Every store
        checks the whole transaction (:meth:`_check_batch`) before it
        applies any of it, and every composite or remote store hands
        each backend one ``transact``.  On the WAL-backed disk store the
        whole transaction is a single fsync'd commit record, so a crash
        leaves either none or all of it — this is what makes
        ``Archive.commit`` (new fragments in, superseded segments out)
        atomic.
        """
        with self._stats_lock:  # payloads and totals move together
            batch, doomed = self._check_batch(puts, deletes)
            for variable, segment, payload in batch:
                self._data[(variable, segment)] = payload
                self._record_put(variable, segment, len(payload))
            if batch:
                self._count_writes(batch)
            for key in doomed:
                del self._data[key]
                self._record_delete(*key)

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


def transact_dropping_vanished(store: FragmentStore, puts: list, deletes) -> list:
    """``store.transact(puts, deletes)``, minus tombstones another writer took.

    A ``KeyError`` after which *store* no longer holds some delete keys
    (a concurrent writer removed them first) drops those keys and
    retries; one that names nothing vanished is re-raised.  Every store
    checks a transaction before applying any of it, so a refused
    attempt leaves nothing behind.  Returns the deletes committed.
    """
    deletes = list(deletes)
    while True:
        try:
            store.transact(puts, deletes)
            return deletes
        except KeyError:
            kept = [key for key in deletes if store.has(*key)]
            if len(kept) == len(deletes):
                raise
            deletes = kept


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
        batch, _ = self._check_batch(puts)
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


class ShardedDiskStore(FragmentStore):
    """The WAL-backed on-disk store.

    Each transaction's payloads go into one pack file, hashed by its
    transaction id into one of ``fanout`` shard directories
    (``<shard>/<txn>.pack``, so no single directory grows with the
    archive), and an append-only commit log at the root records every
    fragment's pack, offset and size; a reopen replays the log, so a
    restarted service immediately serves everything archived before.
    Writes are crash-atomic (:meth:`transact`); deletes and overwrites
    leave dead bytes, which :meth:`compact` reclaims.  An open creates
    nothing: the first commit makes the root.

    The layout marker records the fan-out width; when reopening a
    directory whose marker disagrees with the *fanout* argument, the
    marker wins, so every handle places packs by the same rule.  A
    directory an older revision wrote fails the open with
    :class:`ArchiveFormatError` before anything in it is touched.
    """

    def __init__(self, root: str, fanout: int = 256, fsync: str = "commit"):
        marker = _read_layout_marker(root)
        if marker is not None:
            if marker.get("layout") != "sharded":
                raise ArchiveFormatError(
                    f"{os.path.join(root, LAYOUT_MARKER)!r} holds a "
                    f"{marker.get('layout')!r} layout marker, {wal.REARCHIVE}"
                )
            fanout = int(marker.get("fanout", fanout))
        if fanout < 1:  # validate the *effective* width, marker included
            raise ValueError("fanout must be >= 1")
        super().__init__()
        self.fanout = int(fanout)
        self.root = root
        # the reader lock: index, file tables and counters
        self._lock = self._stats_lock
        # serializes writers (packs and log appends land in one order)
        # without making readers — who only take self._lock briefly —
        # wait behind batch file I/O
        self._write_lock = threading.Lock()
        self._index: dict = {}  # (variable, segment) -> (relpath, offset)
        self._live: dict = {}  # relpath -> live fragments in that pack
        self._dead: dict = {}  # relpath -> [dead fragments, dead bytes]
        self._log = CommitLog(os.path.join(root, SHARD_INDEX_LOG), fsync=fsync)
        self._compactions = 0
        self._reclaimed_bytes = 0
        self._reindex()

    # -- the file tables (callers hold self._lock, or are opening) ---------------

    def _place(self, key, rel: str, offset: int, nbytes: int) -> None:
        """Index *key* at *offset* of *rel*; the bytes it replaces die."""
        old = self._index.get(key)
        if old is not None:
            self._retire(old[0], self._sizes[key])
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
        shards = self._shard_dirs()
        self._replay()
        # A pack no entry names never committed (or a compaction moved
        # its last live fragment away): it is discarded.  Only a pack
        # the log does not account for costs more than a name lookup.
        seen = set()
        for shard in shards:
            try:
                names = os.listdir(os.path.join(self.root, shard))
            except OSError:
                continue
            for name in names:
                if not wal.is_pack(name):
                    continue
                rel = os.path.join(shard, name)
                if rel in self._live or rel in self._dead:
                    seen.add(rel)
                else:
                    wal.discard(os.path.join(self.root, rel))
        for rel in [r for r in self._dead if r not in seen and r not in self._live]:
            del self._dead[rel]  # already gone from disk: nothing to reclaim

    def _shard_dirs(self) -> list:
        """The shard directories, from one pass over the root's entries.

        Only a name :meth:`_pack` can produce is a shard; any other
        directory is left alone.  Anything an older revision left at the
        root (see :func:`_retired_file`) fails the open with
        :class:`ArchiveFormatError`.
        """
        try:
            entries = list(os.scandir(self.root))
        except OSError:
            return []
        shards = []
        for entry in entries:
            if entry.is_dir():
                if self._is_shard(entry.name):
                    shards.append(entry.name)
                continue
            found = _retired_file(entry.name)
            if found is not None:
                raise ArchiveFormatError(
                    f"{os.path.join(self.root, entry.name)!r} holds {found}, {wal.REARCHIVE}"
                )
        return shards

    def _is_shard(self, name: str) -> bool:
        try:
            return int(name, 16) < self.fanout and name == f"{int(name, 16):03x}"
        except ValueError:
            return False

    def _replay(self) -> None:
        """Index every log entry.

        One entry per archived fragment, so an open costs what this
        loop costs.  The common entry, a first put, updates the tables
        inline; overwrites and deletes take :meth:`_place` /
        :meth:`_unplace`, and both ways leave identical tables.  A put
        entry must place its fragment by int ``offset`` and ``nbytes``,
        and the file it names must be a pack (checked once per file,
        when an entry first names it), else :class:`ArchiveFormatError`.
        """
        index, sizes, live = self._index, self._sizes, self._live
        var_segments, var_bytes = self._var_segments, self._var_bytes
        added = 0  # bytes of the fast-path puts, folded into the total at the end
        for _, entries in self._log.replay():
            for entry in entries:
                key = (entry["variable"], entry["segment"])
                if entry.get("deleted"):
                    if key in index:
                        self._unplace(key)
                    continue
                rel = entry.get("path")
                nbytes = entry.get("nbytes")
                offset = entry.get("offset")
                if type(nbytes) is not int or type(offset) is not int:
                    raise ArchiveFormatError(
                        f"{self._log.path!r} holds an entry for {key!r} without an "
                        f"int offset and nbytes, {wal.REARCHIVE}"
                    )
                count = live.get(rel)
                if count is None:
                    self._check_pack(key, rel)
                if key in index:
                    self._place(key, rel, offset, nbytes)
                    continue
                # a first put: _place, inlined
                live[rel] = 1 if count is None else count + 1
                index[key] = (rel, offset)
                sizes[key] = nbytes
                variable = key[0]
                listing = var_segments.get(variable)
                if listing is None:
                    var_segments[variable] = [key[1]]
                else:
                    listing.append(key[1])
                var_bytes[variable] = var_bytes.get(variable, 0) + nbytes
                added += nbytes
        self._total_bytes += added

    def _check_pack(self, key, rel) -> None:
        """ArchiveFormatError unless *rel*, where *key* lives, names a pack."""
        if type(rel) is not str or not wal.is_pack(os.path.basename(rel)):
            raise ArchiveFormatError(
                f"{self._log.path!r} holds an entry for {key!r} in {rel!r}, "
                f"which is not a pack, {wal.REARCHIVE}"
            )

    def _write_marker(self) -> None:
        # written on first put, never on open: opening must work on
        # read-only mounts, and an empty directory must not get pinned
        # to a layout it may never hold
        path = os.path.join(self.root, LAYOUT_MARKER)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            if not os.path.isfile(path):
                with open(tmp, "w") as fh:
                    json.dump({"layout": "sharded", "fanout": self.fanout}, fh)
                os.replace(tmp, path)  # readers see none-or-whole, never partial
        except OSError:
            pass  # best-effort: every pack is read by the path its entry logs

    def _entry(self, key, rel: str, offset: int, nbytes: int) -> dict:
        return {
            "variable": key[0],
            "segment": key[1],
            "path": rel,
            "offset": offset,
            "nbytes": nbytes,
        }

    def _pack(self, txn: int) -> str:
        """Relative path of transaction *txn*'s pack: its hashed shard."""
        digest = hashlib.sha1(str(txn).encode()).hexdigest()
        return os.path.join(f"{int(digest[:8], 16) % self.fanout:03x}", wal.pack_name(txn))

    def _write_pack(self, payloads: dict, fsync: bool) -> tuple:
        """Pack *payloads* (key -> bytes) into a new file under a fresh
        txn; returns ``(txn, {key: (relpath, offset)})``."""
        while True:
            txn = self._log.reserve()
            rel = self._pack(txn)
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
        ``Archive.commit`` replacing a variable's segment set atomic.
        The whole transaction is checked (:meth:`_check_batch`) under the
        writer lock, which every index change holds; deleted and
        overwritten bytes stay on disk as dead bytes (invisible to the
        index) until :meth:`compact`.  The batch holds the writer lock
        but takes the reader lock only for the index update, so
        concurrent reads never stall behind the pack write.
        """
        with self._write_lock:
            batch, doomed = self._check_batch(puts, deletes)
            payloads = {(v, s): p for v, s, p in batch}  # last write wins
            placed: dict = {}
            if payloads:
                txn, placed = self._write_pack(payloads, self._log.fsync_payloads)
            else:  # no pack makes the root: the log append needs it
                os.makedirs(self.root, exist_ok=True)
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

        The live fragments of partly dead packs are rewritten into one
        new pack (fsync'd unless ``fsync="off"``: its bytes are already
        durable elsewhere), the log is atomically rewritten to the live
        entries, and then every pack without a live fragment is
        unlinked.  Holds the writer lock for the whole pass (writers
        queue briefly); readers are never blocked — a read that loses
        its pack to the unlink re-resolves (:meth:`get_many`).  Only the
        packs holding dead bytes are touched, never the whole tree.
        Crash-safe: a kill before the rewrite leaves the old log (the
        reopen discards the new pack); one after it leaves orphaned
        packs, which the reopen discards.  With no dead byte it touches
        nothing and returns the all-zero report (``compactions=0``).
        """
        with self._write_lock:
            with self._lock:
                dead = {rel: tuple(debt) for rel, debt in self._dead.items()}
                moving = [k for k, (rel, _) in self._index.items() if rel in dead]
            if not dead:
                return CompactionReport()
            report = CompactionReport(log_bytes_before=self._log.nbytes())
            crash_point("compact.begin")
            moved: dict = {}
            if moving:  # the live fragments of partly dead packs
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
