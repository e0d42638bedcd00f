"""Durable archival of refactored representations (the Fig. 1 storage tier).

:class:`Archive` persists every progressive fragment of a refactored
variable as an individually addressable object in a
:class:`~repro.storage.store.FragmentStore` — one fragment per snapshot
(PSZ3/PSZ3-delta) or per level/bitplane (PMGARD) — plus a JSON index.
Partial retrieval therefore maps onto partial reads of the archival tier,
which is the deployment story behind the paper's remote-retrieval numbers.

``save()`` is incremental: it writes exactly the
:func:`encode_fragments` enumeration (the contract the streaming
ingestion engine shares — see :mod:`repro.core.ingest`), never touches
other variables, and tombstones the segments a re-saved variable no
longer holds.  It is also atomic by default: the whole enumeration plus
the index segment goes down as one ``put_many`` batch — one WAL commit
record on the disk stores — so a crash mid-save can never leave a torn
variable (``docs/durability.md``).  ``load()`` reconstructs a fully functional
:class:`Refactored` object from the store; its readers behave
identically (byte accounting included) to the ones produced directly by
the refactorers, which the round-trip tests assert.  ``lazy=True``
defers the bulk fragments — the bitplane / snapshot payloads that
dominate the archive — behind a :class:`FragmentSource`, and the open is
batched across variables: ``load_dataset(names, lazy=True)`` costs two
store round trips however many variables it names (one ``get_many`` for
every index segment, one for every PMGARD coarse/sign segment), and
fragments are fetched only when (and in whatever batches) the retrieval
engine actually needs them.  :func:`prefetch_plans` is the batch entry
point: it coalesces many variables' planned segments into one
``get_many`` per backing store.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.compressors.pmgard import PMGARDRefactored
from repro.compressors.psz3 import PSZ3Refactored
from repro.compressors.psz3_delta import PSZ3DeltaRefactored
from repro.compressors.sz3 import SZ3Blob, SZ3Compressor
from repro.core.masking import ZeroMask
from repro.encoding.bitplane import BitplaneStream
from repro.utils.fragment_keys import (
    COARSE_SEGMENT,
    INDEX_SEGMENT,
    LOSSLESS_SEGMENT,
    ZERO_MASK_SEGMENT,
    pmgard_plane_segment,
    pmgard_plane_segments,
    pmgard_signs_segment,
    snapshot_segment,
)
from repro.storage.store import FragmentStore
from repro.transforms.multilevel import MultilevelDecomposition, MultilevelTransform


class FragmentSource:
    """Lazily fetched fragment view of one archived variable.

    Readers opened over a lazily loaded variable pull payloads through
    this object.  With ``retain_payloads=True`` (raw stores) every
    fragment a prefetch delivers is memoized locally, so a batched fetch
    sticks and decode never re-reads the store.  Behind a
    :class:`~repro.storage.cache.CachingFragmentStore` the shared LRU is
    the retention layer — retaining here too would silently duplicate
    the cache and defeat its byte budget — so only the *names* of
    fetched segments are remembered (for prefetch dedup) and payloads
    are re-read through the cache.  A cache eviction between prefetch
    and decode therefore costs one extra store read, never correctness.
    """

    #: Longest a ``get`` waits for an in-flight batch before fetching the
    #: fragment itself (a correctness-safe duplicate read).
    PENDING_WAIT_SECONDS = 30.0

    def __init__(self, store: FragmentStore, variable: str, retain_payloads: bool = True):
        self.store = store
        self.variable = variable
        self._retain = bool(retain_payloads)
        self._payloads: dict = {}
        self._seen: set = set()
        self._pending: set = set()  # claimed by an in-flight batched fetch
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)

    def fetched(self, segment: str) -> bool:
        """Whether *segment* has already arrived (or been read) here."""
        with self._lock:
            return segment in self._seen

    def _await_locked(self, segments) -> None:
        # caller holds the condition; gives up after PENDING_WAIT_SECONDS
        deadline = time.monotonic() + self.PENDING_WAIT_SECONDS
        while not self._pending.isdisjoint(segments):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._arrived.wait(timeout=remaining):
                break

    def await_arrival(self, segments) -> None:
        """Block while an in-flight batch still holds any of *segments*.

        The retrieval loop calls this before decoding a variable whose
        planned segments another fetch (a concurrent session sharing
        this source) has claimed, so the wait is booked as I/O wait and
        the decode that follows is pure compute.  Returns immediately
        when nothing is pending; bounded by
        :data:`PENDING_WAIT_SECONDS`, after which :meth:`get` falls back
        to reading the store itself.
        """
        with self._arrived:
            self._await_locked(segments)

    def get(self, segment: str) -> bytes:
        """One segment's payload, awaiting an in-flight batch if cheaper.

        Falls back to a direct (correctness-safe, possibly duplicate)
        store read when the batch does not land within
        :data:`PENDING_WAIT_SECONDS`.
        """
        with self._arrived:
            # a batch already carrying this segment is cheaper to await
            # than to race with another store read
            self._await_locked((segment,))
            payload = self._payloads.get(segment)
        if payload is None:
            payload = self.store.get(self.variable, segment)
            with self._lock:
                self._seen.add(segment)
                if self._retain:
                    self._payloads[segment] = payload
        return payload

    def size_of(self, segment: str) -> int:
        """Payload size without fetching (store indexes track sizes)."""
        with self._lock:
            payload = self._payloads.get(segment)
        if payload is not None:
            return len(payload)
        return self.store.size_of(self.variable, segment)

    def handle(self, segment: str):
        """Zero-copy payload handle for *segment*, or None (no store I/O).

        Returns the memoized payload when this source retains payloads,
        or an :class:`~repro.parallel.executor.ArenaRef` when the backing
        caching store has the fragment slab-resident — the handle a
        process-backend decode worker can resolve without the bytes ever
        crossing a pipe.  None means the caller must :meth:`get`.
        """
        with self._lock:
            payload = self._payloads.get(segment)
        if payload is not None:
            return payload
        probe = getattr(self.store, "fragment_handle", None)
        if probe is not None:
            return probe(self.variable, segment)
        return None

    def absorb(self, payloads: dict) -> None:
        """Merge ``{segment: payload}`` results of a batched fetch."""
        with self._arrived:
            self._seen.update(payloads)
            self._pending.difference_update(payloads)
            if self._retain:
                self._payloads.update(payloads)
            self._arrived.notify_all()

    def missing(self, segments) -> list:
        """The subset of *segments* not fetched or in flight, in order."""
        with self._lock:
            return [
                s for s in segments
                if s not in self._seen and s not in self._pending
            ]

    def unarrived(self, segments) -> list:
        """The subset of *segments* not yet arrived, claimed or not.

        Where :meth:`missing` excludes segments an in-flight batch has
        claimed (dedup for cooperating prefetches), this keeps them — it
        is the planning view of a *hedged* fetch, which deliberately
        duplicates a straggling batch's reads rather than queueing
        behind it.
        """
        with self._lock:
            return [s for s in segments if s not in self._seen]

    def claim(self, segments) -> list:
        """Atomically claim the fetchable subset of *segments*.

        Concurrent batched fetches (two clients sharing the source, or a
        round fetch racing a hedge) would otherwise both
        pass a plain ``missing`` check and read the same fragments from
        the store twice.  Claimed segments are excluded from later
        claims until :meth:`absorb` lands them or :meth:`release` gives
        them up (failed fetch).
        """
        with self._lock:
            out = [
                s for s in segments
                if s not in self._seen and s not in self._pending
            ]
            self._pending.update(out)
            return out

    def release(self, segments) -> None:
        """Un-claim segments whose batched fetch failed."""
        with self._arrived:
            self._pending.difference_update(segments)
            self._arrived.notify_all()


def prefetch_plans(plans) -> int:
    """Fetch many variables' planned segments in one pass per store.

    *plans* is an iterable of ``(FragmentSource, [segment, ...])`` pairs.
    Segments already fetched or claimed by a concurrent batch are
    skipped (atomically, via :meth:`FragmentSource.claim` — a fragment
    is read from the store at most once however many concurrent round
    fetches plan it); the remainder are grouped by backing store and
    fetched with a single ``get_many`` each (one store round trip — and,
    behind a shared cache, one single-flight batch that concurrent
    clients' overlapping plans coalesce into).  Returns the number of
    fragments actually fetched.
    """
    by_store: dict = {}
    for source, segments in plans:
        wanted = source.claim(segments)
        if wanted:
            by_store.setdefault(id(source.store), (source.store, []))[1].extend(
                (source, seg) for seg in wanted
            )
    fetched = 0
    outstanding = list(by_store.values())
    try:
        while outstanding:
            store, entries = outstanding[0]
            payloads = store.get_many([(src.variable, seg) for src, seg in entries])
            per_source: dict = {}
            for src, seg in entries:
                per_source.setdefault(id(src), (src, {}))[1][seg] = payloads[
                    (src.variable, seg)
                ]
            for src, batch in per_source.values():
                src.absorb(batch)
                fetched += len(batch)
            outstanding.pop(0)
    except BaseException:
        # release *every* still-claimed segment — including stores whose
        # batch never ran — or they would block gets and dodge refetching
        # for the life of their sources
        for _, entries in outstanding:
            for src, seg in entries:
                src.release([seg])
        raise
    return fetched


class _LazyPlaneList:
    """Sequence of one PMGARD level's plane payloads, fetched on access."""

    def __init__(self, source: FragmentSource, names: tuple):
        self._source = source
        self._names = names

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, plane: int):
        if not 0 <= plane < len(self._names):
            raise IndexError(plane)
        return self._source.get(self._names[plane])


class _LazyBitplaneStream(BitplaneStream):
    """Archive-backed stream: plane payloads load lazily, sizes do not."""

    def __init__(self, shape, exponent, num_planes, sign_segment, source, level):
        names = pmgard_plane_segments(level, int(num_planes))
        super().__init__(
            tuple(shape),
            exponent,
            int(num_planes),
            sign_segment,
            _LazyPlaneList(source, names),
        )
        self._source = source
        self._names = names

    def segment_bytes(self, start_plane: int, stop_plane: int) -> int:
        # size queries must not pull payloads: answer from the store index
        if self.exponent is None:
            return 0
        size_of = self._source.size_of
        total = sum(size_of(name) for name in self._names[start_plane:stop_plane])
        if start_plane == 0 and stop_plane > 0:
            total += len(self.sign_segment)
        return total

    def plane_handle(self, plane: int):
        """Zero-copy handle for one plane payload (see FragmentSource.handle)."""
        return self._source.handle(self._names[plane])


class _LazyBlob:
    """Duck-typed :class:`SZ3Blob` whose payload fetches on first access."""

    def __init__(self, source: FragmentSource, segment: str):
        self._source = source
        self._segment = segment

    @property
    def payload(self) -> bytes:
        return self._source.get(self._segment)

    @property
    def nbytes(self) -> int:
        return self._source.size_of(self._segment)

    def handle(self):
        """Zero-copy payload handle, or None (see FragmentSource.handle)."""
        return self._source.handle(self._segment)


def _snapshot_fragments(refactored, kind) -> tuple:
    fragments = [
        (snapshot_segment(i), blob.payload)
        for i, blob in enumerate(refactored.blobs)
    ]
    if refactored.lossless_payload is not None:
        fragments.append((LOSSLESS_SEGMENT, refactored.lossless_bytes()))
    index = {
        "kind": kind,
        "shape": list(refactored.shape),
        "ebs": list(refactored.ebs),
        "num_snapshots": len(refactored.blobs),
        "has_lossless": refactored.lossless_payload is not None,
    }
    return fragments, index


def _pmgard_fragments(refactored) -> tuple:
    fragments = [(COARSE_SEGMENT, refactored.coarse_payload)]
    stream_meta = []
    for level, stream in enumerate(refactored.streams):
        if stream.exponent is not None:
            fragments.append((pmgard_signs_segment(level), stream.sign_segment))
            fragments.extend(
                (pmgard_plane_segment(level, p), seg)
                for p, seg in enumerate(stream.plane_segments)
            )
        stream_meta.append({
            "shape": list(stream.shape),
            "exponent": stream.exponent,
            "num_planes": stream.num_planes,
        })
    tr = refactored.transform
    index = {
        "kind": "pmgard",
        "basis": tr.basis,
        "max_levels": tr.max_levels,
        "min_size": tr.min_size,
        "backend": refactored.backend,
        "level_shapes": [list(s) for s in refactored.decomp.shapes],
        "coarse_shape": list(refactored.coarse_shape),
        "streams": stream_meta,
    }
    return fragments, index


def _small_segments(index: dict) -> list:
    """Segments a lazy open fetches eagerly, in its second trip.

    A PMGARD variable's coarse approximation and every level's signs,
    and any variable's zero mask (§V-A) when its index names one.
    """
    segments = []
    if index["kind"] == "pmgard":
        segments.append(COARSE_SEGMENT)
        segments.extend(
            pmgard_signs_segment(level)
            for level, meta in enumerate(index["streams"])
            if meta["exponent"] is not None
        )
    if index.get("zero_mask") is not None:
        segments.append(ZERO_MASK_SEGMENT)
    return segments


def encode_fragments(refactored) -> tuple:
    """Enumerate one refactored variable's archive fragments canonically.

    Returns ``(fragments, index)`` where *fragments* is the ordered list
    of ``(segment, payload)`` pairs and *index* the JSON-serializable
    variable index (the :data:`~repro.utils.fragment_keys.INDEX_SEGMENT`
    payload, not included in the list).  Both the serial
    :meth:`Archive.save` path and the parallel ingestion engine
    (:mod:`repro.core.ingest`) write exactly this enumeration, which is
    what makes their archives bit-identical by construction.  Raises
    ``TypeError`` for representations that cannot be archived.
    """
    if isinstance(refactored, PMGARDRefactored):
        fragments, index = _pmgard_fragments(refactored)
    elif isinstance(refactored, PSZ3Refactored):
        fragments, index = _snapshot_fragments(refactored, kind="psz3")
    elif isinstance(refactored, PSZ3DeltaRefactored):
        fragments, index = _snapshot_fragments(refactored, kind="psz3_delta")
    else:
        raise TypeError(f"cannot archive {type(refactored).__name__}")
    mask = refactored.zero_mask
    if mask is not None:
        # additive: a variable without exact zeros archives exactly the
        # fragments and index it always did
        fragments.append((ZERO_MASK_SEGMENT, mask.payload))
        index["zero_mask"] = list(mask.mask.shape)
    return fragments, index


class Archive:
    """Fragment-addressable archive for refactored variables."""

    def __init__(self, store: FragmentStore):
        self.store = store
        self._sources: dict = {}

    def source(self, variable: str) -> FragmentSource:
        """The (shared) fragment source of one variable."""
        source = self._sources.get(variable)
        if source is None:
            from repro.storage.cache import CachingFragmentStore

            source = self._sources[variable] = FragmentSource(
                self.store,
                variable,
                retain_payloads=not isinstance(self.store, CachingFragmentStore),
            )
        return source

    def invalidate_source(self, variable: str) -> None:
        """Drop the memoized fragment source of one rewritten variable.

        Called by :meth:`save` (and the ingestion paths) after a
        variable's fragments change on the store: a retained
        :class:`FragmentSource` memoizes payloads, so keeping it would
        serve the superseded bytes to later lazy loads.  Readers opened
        before the rewrite keep their already-fetched fragments — a
        session's view stays internally consistent — while every new
        ``load`` observes the new archive state.
        """
        self._sources.pop(variable, None)

    # -- save ----------------------------------------------------------------

    def save(self, variable: str, refactored, replace: bool = True,
             atomic: bool = True) -> dict:
        """Persist *refactored* under *variable*; returns the JSON index.

        Incremental by construction: fragments of other variables are
        never touched, so adding a variable (or a new timestep) to an
        existing archive rewrites nothing.  With ``replace=True`` (the
        default) segments left over from a previous save of the same
        variable that the new representation does not overwrite — e.g. a
        re-save with fewer snapshots or planes — are deleted afterwards,
        which appends tombstones on the disk stores so a reopened
        archive stays consistent.

        With ``atomic=True`` (the default) every fragment, the
        variable's index segment, **and** the stale-segment tombstones
        land in one :meth:`~repro.storage.store.FragmentStore.transact`
        call — on the WAL-backed disk stores a single commit record, so
        a process killed mid-save leaves a reopened archive
        bit-identical to the old version or the new one, never a torn
        mix and never with leftover superseded segments.
        ``atomic=False`` restores the serial one-``put``-per-fragment
        path (the index segment still written last, stale segments
        deleted afterwards), which the benchmarks use to measure what
        batching saves.
        """
        fragments, index = encode_fragments(refactored)
        stale: list = []
        if replace:
            keep = {segment for segment, _ in fragments}
            keep.add(INDEX_SEGMENT)
            stale = [s for s in self.store.segments(variable) if s not in keep]
        index_payload = json.dumps(index).encode()
        if atomic:
            batch = [(variable, segment, payload) for segment, payload in fragments]
            batch.append((variable, INDEX_SEGMENT, index_payload))
            while True:
                try:
                    self.store.transact(batch, [(variable, s) for s in stale])
                    break
                except KeyError:
                    # a concurrent writer superseded stale segments
                    # between listing and committing; drop the vanished
                    # ones and retry (strictly shrinking, so this ends)
                    live = set(self.store.segments(variable))
                    stale = [s for s in stale if s in live]
        else:
            for segment, payload in fragments:
                self.store.put(variable, segment, payload)
            self.store.put(variable, INDEX_SEGMENT, index_payload)
            for segment in stale:
                try:
                    self.store.delete(variable, segment)
                except KeyError:
                    pass  # a concurrent writer already superseded it
        self.invalidate_source(variable)
        return index

    # -- load ----------------------------------------------------------------

    def load(self, variable: str, lazy: bool = False):
        """Reconstruct the :class:`Refactored` archived under *variable*.

        The one-variable form of :meth:`load_dataset` (same trips, same
        laziness); open several variables through that instead, so they
        share its two batched round trips.
        """
        return self.load_dataset([variable], lazy=lazy)[variable]

    def load_dataset(self, variables, lazy: bool = False) -> dict:
        """Reload a set of archived variables, opening them as one batch.

        Every variable's index segment arrives in a single ``get_many``.
        With ``lazy=False`` every fragment is then fetched up front (one
        ``get`` each — the eager seed behavior).  With ``lazy=True`` only
        the small per-variable segments of PMGARD variables (coarse
        approximation, sign planes) follow, in a second ``get_many``
        shared by all of them, while bitplane / snapshot payloads are
        wired to a :class:`FragmentSource` and fetched on demand — a lazy
        open is two serial store round trips for the whole dataset (one
        when it holds snapshot variables only, or when the variables'
        shared sources already hold their small segments).  Each returned object
        carries its source as ``fragment_source`` so the retrieval
        engine can batch-prefetch planned fragments.
        """
        names = list(dict.fromkeys(variables))
        if not names:
            return {}
        fetched = self.store.get_many([(name, INDEX_SEGMENT) for name in names])
        # bytes() is a no-op for raw stores and materializes the (small)
        # index when an arena-backed cache serves it as a memoryview
        indexes = {
            name: json.loads(bytes(fetched[(name, INDEX_SEGMENT)]).decode())
            for name in names
        }
        if lazy:
            # mask-free snapshot datasets have nothing small to open: no trip
            prefetch_plans(
                (self.source(name), _small_segments(index))
                for name, index in indexes.items()
            )
        return {name: self._build(name, indexes[name], lazy) for name in names}

    def _build(self, variable: str, index: dict, lazy: bool):
        kind = index["kind"]
        if kind == "pmgard":
            ref = self._load_pmgard(variable, index, lazy)
        elif kind in ("psz3", "psz3_delta"):
            ref = self._load_snapshots(variable, index, kind, lazy)
        else:
            raise ValueError(f"unknown archive kind {kind!r}")
        shape = index.get("zero_mask")
        if shape is not None:
            payload = (
                self.source(variable).get(ZERO_MASK_SEGMENT) if lazy
                else self.store.get(variable, ZERO_MASK_SEGMENT)
            )
            ref.zero_mask = ZeroMask.from_payload(payload, tuple(shape), variable)
        return ref

    def _load_snapshots(self, variable, index, kind, lazy=False):
        cls = PSZ3Refactored if kind == "psz3" else PSZ3DeltaRefactored
        if not lazy:
            blobs = [
                SZ3Blob(self.store.get(variable, snapshot_segment(i)))
                for i in range(index["num_snapshots"])
            ]
            tail = (
                self.store.get(variable, LOSSLESS_SEGMENT)
                if index["has_lossless"]
                else None
            )
            return cls(
                tuple(index["shape"]), index["ebs"], blobs, tail, SZ3Compressor()
            )
        source = self.source(variable)
        blobs = [
            _LazyBlob(source, snapshot_segment(i))
            for i in range(index["num_snapshots"])
        ]
        tail = None
        tail_nbytes = None
        if index["has_lossless"]:
            tail = lambda: source.get(LOSSLESS_SEGMENT)  # noqa: E731
            tail_nbytes = source.size_of(LOSSLESS_SEGMENT)
        ref = cls(
            tuple(index["shape"]), index["ebs"], blobs, tail, SZ3Compressor(),
            lossless_nbytes=tail_nbytes,
        )
        ref.fragment_source = source
        return ref

    def _load_pmgard(self, variable, index, lazy=False):
        # lazily, the small segments — coarse approximation plus every
        # level's signs — were absorbed by load_dataset's batched round
        # trip; the (dominant) plane payloads stay behind the source
        source = self.source(variable) if lazy else None
        streams = []
        for level, meta in enumerate(index["streams"]):
            if meta["exponent"] is None:
                streams.append(
                    BitplaneStream(tuple(meta["shape"]), None, meta["num_planes"], b"", [])
                )
                continue
            if lazy:
                streams.append(
                    _LazyBitplaneStream(
                        tuple(meta["shape"]), int(meta["exponent"]),
                        meta["num_planes"], source.get(pmgard_signs_segment(level)),
                        source, level,
                    )
                )
                continue
            signs = self.store.get(variable, pmgard_signs_segment(level))
            planes = [
                self.store.get(variable, pmgard_plane_segment(level, p))
                for p in range(meta["num_planes"])
            ]
            streams.append(
                BitplaneStream(
                    tuple(meta["shape"]), int(meta["exponent"]),
                    meta["num_planes"], signs, planes,
                )
            )
        transform = MultilevelTransform(
            basis=index["basis"],
            max_levels=index["max_levels"],
            min_size=index["min_size"],
        )
        decomp = MultilevelDecomposition(
            shapes=[tuple(s) for s in index["level_shapes"]],
            coefficients=[None] * len(index["level_shapes"]),
            coarse=None,
            basis=index["basis"],
        )
        coarse = (
            source.get(COARSE_SEGMENT) if lazy
            else self.store.get(variable, COARSE_SEGMENT)
        )
        ref = PMGARDRefactored(
            decomp,
            streams,
            coarse,
            transform,
            index["backend"],
            coarse_shape=tuple(index["coarse_shape"]),
        )
        if lazy:
            ref.fragment_source = source
        return ref

    # -- bulk helpers ----------------------------------------------------------

    def save_dataset(self, refactored: dict) -> None:
        """Archive every variable of a refactored dataset."""
        for name, ref in refactored.items():
            self.save(name, ref)

    def variables(self) -> list:
        """Names of all archived variables (those with an index segment)."""
        return [
            var
            for var in self.store.variables()
            if self.store.has(var, INDEX_SEGMENT)
        ]
