"""Durable archival of refactored representations (the Fig. 1 storage tier).

:class:`Archive` persists every progressive fragment of a refactored
variable as an individually addressable object in a
:class:`~repro.storage.store.FragmentStore` — one fragment per snapshot
(PSZ3/PSZ3-delta) or per level/bitplane (PMGARD) — plus a JSON index.
Partial retrieval therefore maps onto partial reads of the archival tier,
which is the deployment story behind the paper's remote-retrieval numbers.

Writes go through one routine, :meth:`Archive.commit`: whole variables
— exactly the :func:`encode_fragments` enumeration (the contract the
streaming ingestion engine shares — see :mod:`repro.core.ingest`) plus
each index segment — and the tombstones of the segments those variables
no longer hold, in one ``transact``: one WAL commit record on the disk
stores, so a crash can never leave a torn variable
(``docs/durability.md``).  ``save()`` is one variable's commit and never
touches other variables.

Reads go through one open, :meth:`Archive.load_dataset`, which is lazy:
``load_dataset(names)`` costs one store round trip however many
variables it names (one ``get_many`` carrying every index segment and
every small segment — PMGARD coarse and signs, zero masks — found by
name in the store's local listing), while the bitplane / snapshot
payloads that dominate the archive stay behind a :class:`FragmentSource`
and are fetched only when (and in whatever batches) the retrieval engine
needs them.  The loaded readers behave identically (byte accounting
included) to the ones produced directly by the refactorers, which the
round-trip tests assert.  :func:`prefetch_plans` is the batch entry
point: it coalesces many variables' planned segments into one
``get_many`` per backing store.
"""

from __future__ import annotations

import json
import threading
import time

from repro.compressors.pmgard import PMGARDRefactored
from repro.compressors.psz3 import PSZ3Refactored
from repro.compressors.psz3_delta import PSZ3DeltaRefactored
from repro.compressors.sz3 import SZ3Compressor
from repro.core.masking import ZeroMask
from repro.encoding.bitplane import MAX_PLANES, MEASURED_PLANES, BitplaneStream
from repro.utils.fragment_keys import (
    COARSE_SEGMENT,
    INDEX_SEGMENT,
    LOSSLESS_SEGMENT,
    ZERO_MASK_SEGMENT,
    pmgard_plane_segment,
    pmgard_plane_segments,
    pmgard_signs_segment,
    small_segments_in,
    snapshot_segment,
)
from repro.storage.store import FragmentStore, transact_dropping_vanished
from repro.transforms.multilevel import MultilevelDecomposition, MultilevelTransform


class ArchiveIndexError(ValueError):
    """A variable's archived index is malformed; nothing was built from it.

    ``variable`` and ``field`` name what is wrong (``field`` is None when
    the segment is not a JSON object at all).
    """

    def __init__(self, variable: str, field: str | None, problem: str):
        self.variable, self.field = variable, field
        where = "" if field is None else f" field {field!r}"
        super().__init__(f"archive index of {variable!r}:{where} {problem}")


def _int(v, low=None, high=None) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            and (low is None or v >= low) and (high is None or v <= high))


def _shape(v) -> bool:
    return isinstance(v, list) and all(_int(n, 0) for n in v)


_STRING = (lambda v: isinstance(v, str), "a string")
_SHAPE = (_shape, "a shape")
_COUNT = (lambda v: _int(v, 0), "a count")
#: What the encoder writes: ``{field: (valid, what a valid value is)}``.
_INDEX_FIELDS = {
    "pmgard": {
        "basis": _STRING, "max_levels": (lambda v: v is None or _int(v, 0), "null or a count"),
        "min_size": _COUNT, "backend": _STRING, "coarse_shape": _SHAPE,
        "level_shapes": (lambda v: isinstance(v, list) and all(map(_shape, v)), "a list of shapes"),
        "streams": (lambda v: isinstance(v, list) and all(isinstance(m, dict) for m in v),
                    "a list of objects"),
    },
    "stream": {
        "shape": _SHAPE, "exponent": (lambda v: v is None or _int(v), "null or an integer"),
        "num_planes": (lambda v: _int(v, 1, MAX_PLANES), f"an integer in [1, {MAX_PLANES}]"),
    },
    "snapshots": {
        "shape": _SHAPE, "num_snapshots": _COUNT,
        "has_lossless": (lambda v: isinstance(v, bool), "a boolean"),
        "ebs": (lambda v: isinstance(v, list) and all(_int(e) or isinstance(e, float) for e in v),
                "a list of numbers"),
    },
}


def _window_problem(meta: dict, ndim: int):
    """What is wrong with a stream's ``window`` field, or ``None``.

    ``[start, hex]``: the measured bound's ratio bytes for planes
    ``start, start + 1, ...`` (:class:`BitplaneStream` ``window``), at
    most :data:`MEASURED_PLANES` of them, inside ``[1, P)``, none 0, on
    a level with planes of a variable whose ``kappa`` is exact
    (:meth:`MultilevelTransform.kappa_is_exact`).
    """
    window = meta["window"]
    if not (isinstance(window, list) and len(window) == 2 and _int(window[0])
            and isinstance(window[1], str)):
        return f"is {window!r}, not [a plane, a hex string]"
    start, text = window
    try:
        ratios = bytes.fromhex(text)
    except ValueError:
        return f"holds {text!r}, not a hex string"
    if meta["exponent"] is None:
        return "is set on a level archived as zero"
    if not MultilevelTransform.kappa_is_exact(ndim):
        return f"is set on a {ndim}-D variable, whose kappa holds only for 2**(e - k)"
    if not 1 <= start < meta["num_planes"]:
        return f"starts at plane {start}, outside [1, {meta['num_planes']})"
    if len(ratios) > MEASURED_PLANES or start + len(ratios) > meta["num_planes"]:
        return f"holds {len(ratios)} bytes from plane {start} of {meta['num_planes']}"
    if 0 in ratios:
        return "holds a ratio of 0"
    return None


def _amax_problem(meta: dict):
    """What is wrong with a stream's ``amax`` field, or ``None``: a level
    archived as zero records its largest magnitude, in ``(0, 2**-1000)``."""
    amax = meta["amax"]
    if not (isinstance(amax, float) and 0.0 < amax < 2.0**-1000):
        return f"is {amax!r}, not a number in (0, 2**-1000)"
    if meta["exponent"] is not None:
        return "is set on a level with planes"
    return None


def _parse_index(variable: str, payload: bytes) -> dict:
    """Decode one variable's index segment, or raise :class:`ArchiveIndexError`."""

    def check(obj, fields, prefix=""):
        for name, (valid, what) in fields.items():
            if name not in obj:
                raise ArchiveIndexError(variable, prefix + name, "is missing")
            if not valid(obj[name]):
                raise ArchiveIndexError(variable, prefix + name, f"is {obj[name]!r}, not {what}")

    try:
        index = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
        raise ArchiveIndexError(variable, None, f"is not UTF-8 JSON ({exc})") from None
    if not isinstance(index, dict):
        raise ArchiveIndexError(variable, None, f"is a JSON {type(index).__name__}, not an object")
    kind = index.get("kind")
    if kind not in ("pmgard", "psz3", "psz3_delta"):
        problem = "is missing" if "kind" not in index else f"names an unknown archive kind {kind!r}"
        raise ArchiveIndexError(variable, "kind", problem)
    if kind == "pmgard":
        check(index, _INDEX_FIELDS["pmgard"])
        ndim = len(index["level_shapes"][0]) if index["level_shapes"] else 0
        for level, meta in enumerate(index["streams"]):
            check(meta, _INDEX_FIELDS["stream"], f"streams[{level}].")
            problems = (
                ("window", _window_problem(meta, ndim) if "window" in meta else None),
                ("amax", _amax_problem(meta) if "amax" in meta else None),
            )
            for name, problem in problems:
                if problem is not None:
                    raise ArchiveIndexError(variable, f"streams[{level}].{name}", problem)
    else:
        check(index, _INDEX_FIELDS["snapshots"])
        if index["num_snapshots"] != len(index["ebs"]):
            raise ArchiveIndexError(variable, "num_snapshots", f"does not match 'ebs' ({len(index['ebs'])})")
    if index.get("zero_mask") is not None:
        check(index, {"zero_mask": _SHAPE})
    return index


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
        return self.sizes_of((segment,))[0]

    def sizes_of(self, segments) -> list:
        """Payload sizes of *segments*, in order, without fetching.

        One lock for the whole batch (a PMGARD level's planes are sized
        at once); segments not retained here are answered by the store
        index, outside the lock.
        """
        with self._lock:
            retained = [self._payloads.get(s) for s in segments]
        size_of, variable = self.store.size_of, self.variable
        return [
            size_of(variable, s) if p is None else len(p)
            for s, p in zip(segments, retained)
        ]

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

    def claim(self, segments) -> list:
        """Atomically claim the fetchable subset of *segments*.

        Concurrent batched fetches (two clients sharing the source) would
        otherwise both pass a plain ``missing`` check and read the same
        fragments from the store twice.  Claimed segments are excluded
        from later claims until :meth:`absorb` lands them or
        :meth:`release` gives them up (failed fetch).
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

    The one fetch routine of the read path: lazy opens and every
    retrieval round, library or service session, come here.
    *plans* is an iterable of ``(FragmentSource, [segment, ...])`` pairs.
    Segments already fetched or claimed by a concurrent batch are
    skipped (atomically, via :meth:`FragmentSource.claim` — a fragment
    is read from the store at most once however many concurrent round
    fetches plan it); the remainder are grouped by backing store and
    fetched with a single ``get_many`` each (one store round trip — and,
    behind a shared cache, one single-flight batch that concurrent
    clients' overlapping plans coalesce into).  A store error releases
    every still-claimed segment and propagates.  Returns the number of
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

    def __init__(self, shape, exponent, num_planes, sign_segment, source, level, window=None):
        names = pmgard_plane_segments(level, int(num_planes))
        super().__init__(
            tuple(shape),
            exponent,
            int(num_planes),
            sign_segment,
            _LazyPlaneList(source, names),
            window,
        )
        self._source = source
        self._names = names

    def plane_sizes(self) -> list:
        # size queries must not pull payloads: answer from the store index
        return self._source.sizes_of(self._names)

    def segment_bytes(self, start_plane: int, stop_plane: int) -> int:
        if self.exponent is None:
            return 0
        total = sum(self._source.sizes_of(self._names[start_plane:stop_plane]))
        if start_plane == 0 and stop_plane > 0:
            total += len(self.sign_segment)
        return total


class _LazyBlob:
    """Duck-typed :class:`~repro.compressors.sz3.SZ3Blob` whose payload fetches on first access."""

    def __init__(self, source: FragmentSource, segment: str):
        self._source = source
        self._segment = segment

    @property
    def payload(self) -> bytes:
        return self._source.get(self._segment)

    @property
    def nbytes(self) -> int:
        return self._source.size_of(self._segment)


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
        meta = {
            "shape": list(stream.shape),
            "exponent": stream.exponent,
            "num_planes": stream.num_planes,
        }
        # additive: a stream without a measured bound indexes as it always did
        if stream.window is not None:
            start, ratios = stream.window
            meta["window"] = [start, ratios.hex()]
        if stream.amax:
            meta["amax"] = stream.amax
        stream_meta.append(meta)
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
    """Segments a lazy open fetches eagerly, as its index names them.

    A PMGARD variable's coarse approximation and every level's signs,
    and any variable's zero mask (§V-A) when its index names one.  The
    open fetches them with the index, picked from the store's listing
    by :func:`~repro.utils.fragment_keys.small_segments_in`; this list
    decides what is still missing once the index has parsed.
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
    payload, not included in the list).  Both :meth:`Archive.save` and
    the parallel ingestion engine (:mod:`repro.core.ingest`) hand
    exactly this enumeration to :meth:`Archive.commit`, which is what
    makes their archives bit-identical by construction.  Raises
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
    """Fragment-addressable archive for refactored variables.

    One write routine, :meth:`commit` (whole variables plus their
    stale-segment tombstones in one transaction; :meth:`save` is one
    entry of it), and one open, :meth:`load_dataset` (lazy, one store
    round trip; :meth:`load` is its one-variable form).
    """

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

        Called by :meth:`commit` (and the service's ingest) after a
        variable's fragments change on the store: a retained
        :class:`FragmentSource` memoizes payloads, so keeping it would
        serve the superseded bytes to later lazy loads.  Readers opened
        before the rewrite keep their already-fetched fragments — a
        session's view stays internally consistent — while every new
        ``load`` observes the new archive state.
        """
        self._sources.pop(variable, None)

    # -- commit --------------------------------------------------------------

    def commit(self, entries) -> int:
        """Write whole variables and their tombstones in one transaction.

        *entries* is a list of ``(variable, fragments, index)`` triples,
        one per variable, *fragments* and *index* as
        :func:`encode_fragments` returns them.  One
        :meth:`~repro.storage.store.FragmentStore.transact` carries every
        fragment, each variable's index segment (after its fragments)
        and a tombstone for every segment a variable held that its new
        enumeration does not write, listed at commit time.  On the
        WAL-backed disk stores that is a single commit record, so a
        process killed anywhere leaves each variable bit-identical to its
        old or its new version, never a torn mix and never with leftover
        superseded segments.  A concurrent writer that superseded a
        listed segment first makes the batch raise ``KeyError``; the
        vanished segments are dropped and the batch retried.  Returns
        the number of segments tombstoned.
        """
        puts, stale = [], []
        for variable, fragments, index in entries:
            puts.extend((variable, segment, payload) for segment, payload in fragments)
            puts.append((variable, INDEX_SEGMENT, json.dumps(index).encode()))
            keep = {segment for segment, _ in fragments}
            keep.add(INDEX_SEGMENT)
            stale.extend(
                (variable, s) for s in self.store.segments(variable) if s not in keep
            )
        stale = transact_dropping_vanished(self.store, puts, stale)
        for variable, _, _ in entries:
            self.invalidate_source(variable)
        return len(stale)

    def save(self, variable: str, refactored) -> dict:
        """Persist *refactored* under *variable*; returns the JSON index.

        One :meth:`commit` entry: fragments of other variables are never
        touched, so adding a variable (or a new timestep) to an existing
        archive rewrites nothing, and segments a previous save of the
        same variable held that the new representation does not
        overwrite are tombstoned in the same transaction.
        """
        fragments, index = encode_fragments(refactored)
        self.commit([(variable, fragments, index)])
        return index

    # -- load ----------------------------------------------------------------

    def load(self, variable: str):
        """Reconstruct the :class:`Refactored` archived under *variable*.

        The one-variable form of :meth:`load_dataset` (same trip); open
        several variables through that instead, so they share it.
        """
        return self.load_dataset([variable])[variable]

    def load_dataset(self, variables, lazy: bool = True) -> dict:
        """Reopen a set of archived variables in one store round trip.

        One ``get_many`` carries every variable's index segment and the
        small segments (PMGARD coarse approximation and sign planes, any
        zero mask) that the store's local listing names; bitplane /
        snapshot payloads are wired to a :class:`FragmentSource` and
        fetched on demand.  Once the indexes parse they are the
        authority: a small segment the listing missed costs a second
        trip, and a listing naming a segment the store no longer holds
        falls back to an index-only trip plus that second one.  Each
        returned object carries its source as ``fragment_source`` so the
        retrieval engine can batch-prefetch planned fragments.

        Every index is validated before anything is built: a malformed
        one raises :class:`ArchiveIndexError`.  *lazy* is accepted for
        callers written against the former eager open; ``True`` is its
        only value.
        """
        if lazy is not True:
            raise ValueError("an archive open is always lazy; the lazy keyword accepts only True")
        names = list(dict.fromkeys(variables))
        if not names:
            return {}
        fetched = self._open_trip(names, [(name, INDEX_SEGMENT) for name in names])
        indexes = {
            name: _parse_index(name, fetched[(name, INDEX_SEGMENT)]) for name in names
        }
        # the authority: a trip only for what the listing missed
        prefetch_plans(
            (self.source(name), _small_segments(index))
            for name, index in indexes.items()
        )
        return {name: self._build(name, indexes[name]) for name in names}

    def _open_trip(self, names: list, keys: list) -> dict:
        """Fetch *keys* (the indexes) and the small segments in one trip.

        The small segments are picked by name from the store's own
        listing, which every store keeps locally, and claimed on their
        sources as :func:`prefetch_plans` claims them, so concurrent
        opens still share one read.  A listing that names a segment the
        store no longer holds (a stale mirror) makes the batch raise
        ``KeyError``: the claims are released and the indexes travel
        alone, as before.
        """
        claims = []
        for name in names:
            source = self.source(name)
            wanted = source.claim(small_segments_in(self.store.segments(name)))
            if wanted:
                claims.append((source, wanted))
        batch = keys + [(src.variable, seg) for src, wanted in claims for seg in wanted]
        try:
            fetched = self.store.get_many(batch)
        except BaseException as exc:
            for src, wanted in claims:
                src.release(wanted)
            if not claims or not isinstance(exc, KeyError):
                raise
            return self.store.get_many(keys)
        for src, wanted in claims:
            src.absorb({seg: fetched[(src.variable, seg)] for seg in wanted})
        return fetched

    def _build(self, variable: str, index: dict):
        source = self.source(variable)
        kind = index["kind"]
        if kind == "pmgard":
            ref = self._load_pmgard(variable, index, source)
        else:
            ref = self._load_snapshots(index, kind, source)
        shape = index.get("zero_mask")
        if shape is not None:
            ref.zero_mask = ZeroMask.from_payload(
                source.get(ZERO_MASK_SEGMENT), tuple(shape), variable
            )
        ref.fragment_source = source
        return ref

    @staticmethod
    def _load_snapshots(index, kind, source):
        cls = PSZ3Refactored if kind == "psz3" else PSZ3DeltaRefactored
        blobs = [
            _LazyBlob(source, snapshot_segment(i))
            for i in range(index["num_snapshots"])
        ]
        tail = None
        tail_nbytes = None
        if index["has_lossless"]:
            tail = lambda: source.get(LOSSLESS_SEGMENT)  # noqa: E731
            tail_nbytes = source.size_of(LOSSLESS_SEGMENT)
        return cls(
            tuple(index["shape"]), index["ebs"], blobs, tail, SZ3Compressor(),
            lossless_nbytes=tail_nbytes,
        )

    @staticmethod
    def _load_pmgard(variable, index, source):
        # the small segments — coarse approximation plus every level's
        # signs — were absorbed by load_dataset's batched round trip;
        # the (dominant) plane payloads stay behind the source
        streams = []
        for level, meta in enumerate(index["streams"]):
            if meta["exponent"] is None:
                streams.append(BitplaneStream(
                    tuple(meta["shape"]), None, meta["num_planes"], b"", [],
                    amax=meta.get("amax", 0.0),
                ))
                continue
            window = meta.get("window")
            if window is not None:
                window = (window[0], bytes.fromhex(window[1]))
            streams.append(
                _LazyBitplaneStream(
                    tuple(meta["shape"]), int(meta["exponent"]),
                    meta["num_planes"], source.get(pmgard_signs_segment(level)),
                    source, level, window,
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
        ref = PMGARDRefactored(
            decomp,
            streams,
            source.get(COARSE_SEGMENT),
            transform,
            index["backend"],
            coarse_shape=tuple(index["coarse_shape"]),
        )
        ref.variable = variable
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
