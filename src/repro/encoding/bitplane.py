"""Exponent-aligned fixed-point bitplane encoding.

This is the progressive-precision mechanism behind PMGARD (and, e.g., ZFP's
embedded mode): a group of coefficients is aligned to the group's largest
binary exponent, converted to fixed point, and the bits are stored one
*plane* at a time from most to least significant.  Retrieving the first
``k`` planes of a group with alignment exponent ``e`` guarantees a
coefficient error of at most ``2**(e - k)``; retrieving all ``P`` planes
leaves only the fixed-point truncation error ``2**(e - P)``.

Planes are extracted and re-assembled array-at-a-time (see
:func:`repro.utils.bits.pack_bitplanes` /
:func:`repro.utils.bits.accumulate_bitplanes`); the scalar per-plane loops
they replaced live on in :mod:`repro.encoding.reference` as the
bit-exactness oracle.

Each plane is packed with :func:`numpy.packbits` and compressed with a
lossless backend, so a plane is an independently fetchable *segment* whose
byte size feeds the bitrate accounting of the rate-distortion studies.
Low-significance planes of real data are usually indistinguishable from
noise, so each segment carries a one-byte marker and is stored raw when a
sample shows the backend cannot shrink it — the entropy stage then costs
time only where it saves bytes.

Signs are stored as one extra segment fetched together with the first
plane.  (PMGARD embeds the sign after a coefficient's first significant
bit; the separate-plane simplification changes segment sizes marginally and
error bounds not at all.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.encoding.lossless import get_backend
from repro.utils.bits import accumulate_bitplanes, element_byte_width, pack_bitplanes

#: Segment framing markers: stored raw vs. backend-compressed.
_SEG_RAW = b"\x00"
_SEG_COMPRESSED = b"\x01"
#: Segments shorter than this skip the compressibility probe entirely.
_PROBE_MIN = 4096
#: Leading bytes sampled by the probe, once a segment is long enough
#: (four probes) for a sample to be much cheaper than compressing it all;
#: shorter segments are their own probe.
_PROBE_BYTES = 4096
#: Probe ratio above which a segment is declared incompressible.
_PROBE_RATIO = 0.97


def _offload_min_elements() -> int:
    """Executor offload floor (lazy import dodges the package cycle)."""
    from repro.parallel.executor import OFFLOAD_MIN_ELEMENTS

    return OFFLOAD_MIN_ELEMENTS


def _compress_segment(backend, raw: bytes) -> bytes:
    """Frame *raw* as a segment: compressed when the backend earns its keep."""
    comp = None
    if len(raw) >= _PROBE_MIN:
        probe = raw[:_PROBE_BYTES] if len(raw) >= 4 * _PROBE_BYTES else raw
        comp_probe = backend.compress_bytes(probe)
        if len(comp_probe) > _PROBE_RATIO * len(probe):
            return _SEG_RAW + raw
        if len(probe) == len(raw):  # the probe already compressed everything
            comp = comp_probe
    if comp is None:
        comp = backend.compress_bytes(raw)
    if len(comp) + 1 >= len(raw):
        return _SEG_RAW + raw
    return _SEG_COMPRESSED + comp


def _decompress_segment(backend, segment: bytes) -> bytes:
    """Inverse of :func:`_compress_segment`."""
    if not segment:
        return b""
    marker, body = segment[:1], segment[1:]
    if marker == _SEG_RAW:
        return body
    if marker == _SEG_COMPRESSED:
        return backend.decompress_bytes(body)
    # legacy fallback: segments written before the framing marker existed
    # are whole-segment backend payloads (zlib streams start 0x?8, never
    # 0x00/0x01), so archives from older revisions stay readable
    try:
        return backend.decompress_bytes(segment)
    except Exception:
        raise ValueError(f"unknown bitplane segment marker {marker!r}") from None


@dataclass
class BitplaneStream:
    """Encoded bitplane representation of one coefficient group.

    Attributes
    ----------
    shape:
        Original coefficient-array shape.
    exponent:
        Alignment exponent ``e`` (``None`` when the group is all zeros).
    num_planes:
        Total number of encoded magnitude planes ``P``.
    sign_segment:
        Compressed packed sign bits.
    plane_segments:
        ``P`` compressed packed magnitude planes, MSB first.
    """

    shape: tuple
    exponent: int | None
    num_planes: int
    sign_segment: bytes
    plane_segments: list = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of coefficients in the group."""
        return int(np.prod(self.shape)) if self.shape else 1

    def error_bound(self, planes: int) -> float:
        """Guaranteed coefficient L-infinity bound after *planes* planes."""
        if self.exponent is None:
            return 0.0
        k = min(int(planes), self.num_planes)
        if k >= self.num_planes:
            return float(2.0 ** (self.exponent - self.num_planes))
        return float(2.0 ** (self.exponent - k))

    def segment_bytes(self, start_plane: int, stop_plane: int) -> int:
        """Byte cost of fetching planes ``[start, stop)`` (incl. signs at 0)."""
        if self.exponent is None:
            return 0
        total = sum(
            len(self.plane_segments[p])
            for p in range(start_plane, min(stop_plane, self.num_planes))
        )
        if start_plane == 0 and stop_plane > 0:
            total += len(self.sign_segment)
        return total

    @property
    def total_bytes(self) -> int:
        return self.segment_bytes(0, self.num_planes)


class BitplaneEncoder:
    """Encode/decode coefficient groups as progressive bitplanes.

    Parameters
    ----------
    num_planes:
        Fixed-point precision ``P`` (<= 62).  60 makes double data
        effectively lossless at full retrieval.
    backend:
        Lossless backend name for the per-plane payloads.
    """

    def __init__(self, num_planes: int = 32, backend: str = "zlib"):
        if not 1 <= num_planes <= 62:
            raise ValueError("num_planes must be in [1, 62]")
        self.num_planes = int(num_planes)
        self.backend = get_backend(backend)

    def encode(self, coeffs: np.ndarray) -> BitplaneStream:
        """Refactor *coeffs* into a :class:`BitplaneStream`."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        shape = coeffs.shape
        flat = coeffs.ravel()
        mags = np.abs(flat)
        amax = float(mags.max()) if flat.size else 0.0
        # groups whose largest magnitude is below 2**-1000 are archived as
        # zero: their truncation error (< 1e-301) is beyond any physically
        # meaningful tolerance, and it keeps the fixed-point scaling inside
        # the double-precision exponent range
        if amax == 0.0 or amax < 2.0**-1000:
            return BitplaneStream(shape, None, self.num_planes, b"", [])
        # exponent e with |c| < 2**e for all coefficients
        _, e = np.frexp(amax)
        e = int(e)
        P = self.num_planes
        # scale by 2**(P-e) as two in-range power-of-two factors: each
        # multiply is exact (same result as ldexp) unless the value is
        # headed below 1 ulp anyway, and it runs in-place on the |c| buffer
        half = (P - e) // 2
        mags *= 2.0**half
        mags *= 2.0 ** (P - e - half)
        fixed = mags.astype(np.uint64)  # trunc == floor: values are >= 0
        # amax*scale can land exactly on 2**P; clamp into range
        np.minimum(fixed, np.uint64((1 << P) - 1), out=fixed)
        signs = np.signbit(flat)
        backend = self.backend
        sign_segment = _compress_segment(backend, np.packbits(signs).tobytes())
        rows = pack_bitplanes(fixed, P)
        planes = [_compress_segment(backend, rows[p].tobytes()) for p in range(P)]
        return BitplaneStream(shape, e, P, sign_segment, planes)


class _PendingAdvance:
    """In-flight :meth:`BitplaneDecoder.begin_advance` state."""

    __slots__ = ("fetched", "target", "chunks")

    def __init__(self, fetched, target, chunks):
        self.fetched = fetched
        self.target = target
        self.chunks = chunks  # [(KernelTask, [plane, ...])]; empty = done inline


class BitplaneDecoder:
    """Stateful progressive decoder for one :class:`BitplaneStream`.

    Tracks how many planes have been consumed so repeated calls to
    :meth:`advance_to` only decode the *new* planes (the incremental
    property required by Definition 1 of the paper).  Magnitudes are
    held as a big-endian byte matrix so newly fetched planes merge via
    :func:`repro.utils.bits.accumulate_bitplanes` in a few vector passes.

    With an *executor* (see :mod:`repro.parallel.executor`) the per-plane
    decompress-and-accumulate runs as parallel kernel tasks: workers each
    build a partial magnitude matrix for a chunk of planes, and the
    partials OR together here — bit-identical to the serial path because
    every plane occupies a disjoint bit.  The two-phase
    :meth:`begin_advance`/:meth:`finish_advance` split lets a reader
    submit all levels' chunks before collecting any, keeping every worker
    busy across levels.
    """

    def __init__(self, stream: BitplaneStream, backend: str = "zlib"):
        self.stream = stream
        self.backend = get_backend(backend)
        self.executor = None
        self.planes_consumed = 0
        self._width = element_byte_width(stream.num_planes)
        self._mag_bytes = np.zeros((stream.size, self._width), dtype=np.uint8)
        self._signs: np.ndarray | None = None

    @property
    def _mags(self) -> np.ndarray:
        """Accumulated fixed-point magnitudes (big-endian view, no copy)."""
        return self._mag_bytes.view(f">u{self._width}").ravel()

    def use_executor(self, executor) -> None:
        """Route future plane decodes through *executor* (None = inline)."""
        self.executor = executor

    def advance_to(self, planes: int) -> int:
        """Consume planes up to *planes*; returns bytes newly fetched."""
        pending = self.begin_advance(planes)
        if pending is None:
            return 0
        return self.finish_advance(pending)

    def begin_advance(self, planes: int):
        """Start consuming planes up to *planes*; None when nothing new.

        Without an executor (or for small groups, where task overhead
        dominates) the planes are decoded here and the returned token is
        already complete; otherwise plane chunks are submitted as kernel
        tasks carrying zero-copy payload handles where the stream offers
        them.  Pass the token to :meth:`finish_advance` to merge.
        """
        stream = self.stream
        target = min(int(planes), stream.num_planes)
        if stream.exponent is None or target <= self.planes_consumed:
            return None
        fetched = stream.segment_bytes(self.planes_consumed, target)
        backend = self.backend
        if self._signs is None:
            raw = _decompress_segment(backend, stream.sign_segment)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            self._signs = bits[: stream.size].astype(bool)
        start = self.planes_consumed
        executor = self.executor
        if executor is not None and stream.size >= _offload_min_elements():
            span = list(range(start, target))
            per_task = -(-len(span) // max(1, executor.workers))
            chunks = []
            for i in range(0, len(span), per_task):
                chunk = span[i : i + per_task]
                items = [(p, self._plane_payload(p)) for p in chunk]
                task = executor.submit(
                    "bitplane_accumulate",
                    items,
                    stream.num_planes,
                    stream.size,
                    backend.name,
                )
                chunks.append((task, chunk))
            return _PendingAdvance(fetched, target, chunks)
        self._accumulate_inline(range(start, target))
        self.planes_consumed = target
        return _PendingAdvance(fetched, target, [])

    def finish_advance(self, pending) -> int:
        """Merge a :meth:`begin_advance` token; returns bytes newly fetched."""
        if pending.chunks:
            from repro.parallel.executor import ArenaLookupError, merge_magnitude_bytes

            for task, chunk in pending.chunks:
                try:
                    payload = task.result()
                except ArenaLookupError:
                    # the cache evicted a handled payload between fetch and
                    # decode: re-read through the stream (one extra store
                    # round trip, never a wrong answer) and decode inline
                    self._accumulate_inline(chunk)
                    continue
                merge_magnitude_bytes(self._mag_bytes, payload)
            self.planes_consumed = max(self.planes_consumed, pending.target)
        return pending.fetched

    def _accumulate_inline(self, planes) -> None:
        stream = self.stream
        nb = (stream.size + 7) // 8
        rows = []
        for p in planes:
            raw = _decompress_segment(self.backend, stream.plane_segments[p])
            rows.append((p, np.frombuffer(raw, dtype=np.uint8, count=nb)))
        accumulate_bitplanes(rows, stream.num_planes, self._mag_bytes)

    def _plane_payload(self, plane: int):
        """Best payload argument for a kernel: handle if available, else bytes."""
        probe = getattr(self.stream, "plane_handle", None)
        if probe is not None:
            handle = probe(plane)
            if handle is not None:
                return handle
        return self.stream.plane_segments[plane]

    def reconstruct(self) -> np.ndarray:
        """Current best reconstruction of the coefficient group."""
        stream = self.stream
        if stream.exponent is None:
            return np.zeros(stream.shape, dtype=np.float64)
        P = stream.num_planes
        k = self.planes_consumed
        mags = self._mags
        vals = mags.astype(np.float64)
        if 0 < k < P:
            # midpoint offset for coefficients already known non-zero:
            # halves the expected truncation error without weakening the
            # 2**(e-k) guarantee.
            offset = float(2 ** (P - k - 1))
            vals[mags > 0] += offset
        vals = np.ldexp(vals, stream.exponent - P)
        if self._signs is not None:
            np.negative(vals, where=self._signs, out=vals)
        return vals.reshape(stream.shape)

    @property
    def error_bound(self) -> float:
        """Guaranteed bound for the current reconstruction."""
        if self.planes_consumed == 0 and self.stream.exponent is not None:
            return float(2.0 ** self.stream.exponent)
        return self.stream.error_bound(self.planes_consumed)
