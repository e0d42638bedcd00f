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
from repro.utils.bits import (
    accumulate_bitplanes,
    element_byte_width,
    or_bit_rows,
    pack_bitplanes,
)

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
    #: Number of coefficients in the group.
    size: int = field(init=False)

    def __post_init__(self):
        self.size = int(np.prod(self.shape)) if self.shape else 1

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
        width = element_byte_width(stream.num_planes)
        self._bind(
            stream,
            backend,
            np.zeros((stream.size, width), dtype=np.uint8),
            np.zeros(stream.size, dtype=bool),
        )

    @classmethod
    def _over(cls, stream, backend, mag_bytes, signs) -> "BitplaneDecoder":
        """A decoder over storage the caller owns (views of a
        :class:`FusedBitplaneDecoder`'s buffers), allocating none."""
        decoder = cls.__new__(cls)
        decoder._bind(stream, backend, mag_bytes, signs)
        return decoder

    def _bind(self, stream, backend, mag_bytes, signs) -> None:
        self.stream = stream
        self.backend = get_backend(backend)
        self.executor = None
        self.planes_consumed = 0
        #: ``(size, width)`` big-endian magnitude bytes, ``width`` the
        #: smallest power-of-two byte count holding ``num_planes`` bits
        self._mag_bytes = mag_bytes
        self._width = mag_bytes.shape[1]
        #: all-False until the sign segment is decoded with the first plane
        self._signs = signs

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

    def _new_planes(self, planes: int):
        """The ``range`` of planes a request for *planes* has yet to decode."""
        stream = self.stream
        target = min(int(planes), stream.num_planes)
        if stream.exponent is None or target <= self.planes_consumed:
            return None
        return range(self.planes_consumed, target)

    def _offloads(self) -> bool:
        """Whether plane decode goes to the executor (task overhead
        dominates below :data:`OFFLOAD_MIN_ELEMENTS`)."""
        return (
            self.executor is not None
            and self.stream.size >= _offload_min_elements()
        )

    def begin_advance(self, planes: int):
        """Start consuming planes up to *planes*; None when nothing new.

        Without an executor (or for small groups, where task overhead
        dominates) the planes are decoded here and the returned token is
        already complete; otherwise plane chunks are submitted as kernel
        tasks carrying zero-copy payload handles where the stream offers
        them.  Pass the token to :meth:`finish_advance` to merge.
        """
        span = self._new_planes(planes)
        if span is None:
            return None
        stream = self.stream
        fetched = stream.segment_bytes(span.start, span.stop)
        if span.start == 0:
            self._signs[:] = self._decode_signs()
        if self._offloads():
            executor = self.executor
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
                    self.backend.name,
                )
                chunks.append((task, chunk))
            return _PendingAdvance(fetched, span.stop, chunks)
        self._accumulate_inline(span)
        self.planes_consumed = span.stop
        return _PendingAdvance(fetched, span.stop, [])

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

    def _decode_signs(self) -> np.ndarray:
        raw = _decompress_segment(self.backend, self.stream.sign_segment)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        return bits[: self.stream.size].astype(bool)

    def _plane_rows(self, planes) -> list:
        """``(plane, packed row)`` for each of *planes*, inflated."""
        stream = self.stream
        nb = (stream.size + 7) // 8
        rows = []
        for p in planes:
            raw = _decompress_segment(self.backend, stream.plane_segments[p])
            rows.append((p, np.frombuffer(raw, dtype=np.uint8, count=nb)))
        return rows

    def _accumulate_inline(self, planes) -> None:
        accumulate_bitplanes(
            self._plane_rows(planes), self.stream.num_planes, self._mag_bytes
        )

    def _plane_payload(self, plane: int):
        """Best payload argument for a kernel: handle if available, else bytes."""
        probe = getattr(self.stream, "plane_handle", None)
        if probe is not None:
            handle = probe(plane)
            if handle is not None:
                return handle
        return self.stream.plane_segments[plane]

    def _midpoint(self) -> float:
        """Offset added to coefficients already known non-zero: halves the
        expected truncation error without weakening the ``2**(e-k)``
        guarantee (0.0 before the first and after the last plane)."""
        P = self.stream.num_planes
        k = self.planes_consumed
        return float(2 ** (P - k - 1)) if 0 < k < P else 0.0

    def reconstruct(self) -> np.ndarray:
        """Current best reconstruction of the coefficient group."""
        stream = self.stream
        if stream.exponent is None:
            return np.zeros(stream.shape, dtype=np.float64)
        vals = _dequantize(
            self._mags,
            self._signs,
            np.full(stream.size, self._midpoint()),
            stream.exponent - stream.num_planes,
        )
        return vals.reshape(stream.shape)

    @property
    def error_bound(self) -> float:
        """Guaranteed bound for the current reconstruction."""
        if self.planes_consumed == 0 and self.stream.exponent is not None:
            return float(2.0 ** self.stream.exponent)
        return self.stream.error_bound(self.planes_consumed)


def _dequantize(mags: np.ndarray, signs: np.ndarray, midpoint: np.ndarray, scale) -> np.ndarray:
    """Fixed-point magnitudes to float64 coefficients, one pass each.

    *midpoint* holds one float64 per coefficient and is used up as
    scratch; *scale* (``exponent - P``) is a scalar for one group or a
    per-coefficient vector for several groups sharing a buffer: the
    float64 operations per element are the same either way.  The
    midpoint goes to coefficients already known non-zero, the sign bit
    is flipped where *signs* is set (so a zero becomes ``-0.0``) — both
    without ``where=`` loops, which crawl on masks as irregular as these.
    """
    vals = mags.astype(np.float64)
    np.multiply(midpoint, vals > 0.0, out=midpoint)
    vals += midpoint  # x + 0.0 is x: zeros stay untouched
    np.ldexp(vals, scale, out=vals)
    flip = midpoint.view(np.uint64)
    np.copyto(flip, signs)
    flip <<= np.uint64(63)
    bits = vals.view(np.uint64)
    bits ^= flip
    return vals


class CoefficientLayout:
    """Static geometry of several coefficient groups sharing one buffer.

    Group *l* owns the first ``streams[l].size`` rows of the slot
    ``[starts[l], starts[l] + slots[l])``; each slot is padded to a
    multiple of 8 coefficients so the packed plane rows of every group
    sit on byte boundaries of one bit-transpose pass.  Built once per
    refactored variable and shared, read-only, by its readers; it holds
    per-group numbers only, so it costs the same however large the
    variable is.
    """

    def __init__(self, streams):
        self.slots = [-(-s.size // 8) * 8 for s in streams]
        self.starts = [sum(self.slots[:l]) for l in range(len(self.slots))]
        self.total = sum(self.slots)
        self.width = element_byte_width(
            max((s.num_planes for s in streams), default=1)
        )
        #: ``exponent - P`` per group (``ldexp`` scale); padding and all-zero
        #: groups hold zero magnitudes, so 0 does for them.
        self.scales = np.array(
            [0 if s.exponent is None else s.exponent - s.num_planes for s in streams],
            dtype=np.int32,
        )


class FusedBitplaneDecoder:
    """Progressive decoder of several streams over one coefficient buffer.

    The per-stream :class:`BitplaneDecoder` s in :attr:`decoders` keep
    their public behaviour but decode into views of one ``(total, W)``
    magnitude matrix and one sign vector, so a round merges the new
    planes of every group in one bit-transpose pass per byte column and
    dequantizes the whole buffer with one pass per operation — the work
    is independent of how many groups the coefficients are split into.
    """

    def __init__(self, streams, layout: CoefficientLayout, backend: str = "zlib"):
        self.layout = layout
        self._mag_bytes = np.zeros((layout.total, layout.width), dtype=np.uint8)
        self._signs = np.zeros(layout.total, dtype=bool)
        self.decoders = []
        for stream, start in zip(streams, layout.starts):
            rows = slice(start, start + stream.size)
            # a narrower group's big-endian bytes are the low-order columns
            low = layout.width - element_byte_width(stream.num_planes)
            self.decoders.append(
                BitplaneDecoder._over(
                    stream, backend, self._mag_bytes[rows, low:], self._signs[rows]
                )
            )

    def advance_to(self, planes) -> int:
        """Consume planes up to ``planes[l]`` of every group *l*; returns
        bytes newly fetched.  Nothing is merged unless every inline
        group's new segments were fetched and inflated."""
        offloaded = []
        inline = []
        for l, (dec, k) in enumerate(zip(self.decoders, planes)):
            if dec._offloads():
                # submitted before the inline merge so workers overlap it
                pending = dec.begin_advance(k)
                if pending is not None:
                    offloaded.append((dec, pending))
            else:
                span = dec._new_planes(k)
                if span is not None:
                    inline.append((l, dec, span))
        fetched = self._advance_inline(inline) if inline else 0
        for dec, pending in offloaded:
            fetched += dec.finish_advance(pending)
        return fetched

    def _advance_inline(self, moving) -> int:
        layout = self.layout
        top = 8 * layout.width
        # byte span of the moving groups' slots (groups come in slot order)
        lo = layout.starts[moving[0][0]] // 8
        last = moving[-1][0]
        hi = (layout.starts[last] + layout.slots[last]) // 8
        fetched = 0
        signs = []
        by_col: dict = {}
        for l, dec, span in moving:
            stream = dec.stream
            fetched += stream.segment_bytes(span.start, span.stop)
            if span.start == 0:
                signs.append((dec, dec._decode_signs()))
            first = layout.starts[l] // 8 - lo
            for p, row in dec._plane_rows(span):
                bitpos = top - stream.num_planes + p
                by_col.setdefault(bitpos >> 3, []).append((bitpos & 7, first, row))
        for dec, bits in signs:
            dec._signs[:] = bits
        or_bit_rows(by_col, self._mag_bytes[8 * lo : 8 * hi])
        for _, dec, span in moving:
            dec.planes_consumed = span.stop
        return fetched

    def reconstruct(self) -> list:
        """Current coefficients of every group: views of one fresh vector."""
        layout = self.layout
        decoders = self.decoders
        vals = _dequantize(
            self._mag_bytes.view(f">u{layout.width}").ravel(),
            self._signs,
            np.repeat([dec._midpoint() for dec in decoders], layout.slots),
            np.repeat(layout.scales, layout.slots),
        )
        return [
            vals[start : start + dec.stream.size].reshape(dec.stream.shape)
            for dec, start in zip(decoders, layout.starts)
        ]
