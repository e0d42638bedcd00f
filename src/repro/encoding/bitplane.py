"""Exponent-aligned fixed-point bitplane encoding.

This is the progressive-precision mechanism behind PMGARD (and, e.g., ZFP's
embedded mode): a group of coefficients is aligned to the group's largest
binary exponent, converted to fixed point, and the bits are stored one
*plane* at a time from most to least significant.  Retrieving the first
``k`` planes of a group with alignment exponent ``e`` guarantees a
coefficient error of at most ``2**(e - k)``; retrieving all ``P`` planes
leaves only the fixed-point truncation error ``2**(e - P)``.

The encoder also measures a tighter bound for the planes where it pays
(:func:`_measured_window`): after ``0 < k < P`` planes a coefficient is
either significant (``|c| >= 2**(e - k)``), and the decoder's midpoint
leaves it within ``2**(e - k - 1)``, or it decodes to zero, and its error
is ``|c|``.  So ``b_k = max(2**(e - k - 1), M_k)``, ``M_k`` the largest
magnitude below ``2**(e - k)``, bounds every coefficient.  A stream
records ``b_k / 2**(e - k)`` rounded up to 1/256, one byte per plane,
for at most :data:`MEASURED_PLANES` planes before the plane from which
every nonzero coefficient is significant; before them the ratio is 1
and from that plane on it is exactly 1/2 (``docs/soundness.md``).

Planes are extracted and re-assembled array-at-a-time (see
:func:`repro.utils.bits.pack_bitplanes` /
:func:`repro.utils.bits.accumulate_bitplanes`); the scalar per-plane loops
they replaced live on in :mod:`repro.encoding.reference` as the
bit-exactness oracle.

Each plane is packed with :func:`numpy.packbits` and compressed with a
lossless backend, so a plane is an independently fetchable *segment* whose
byte size feeds the bitrate accounting of the rate-distortion studies.
Each segment carries a one-byte marker: compressed, or stored raw when
the backend cannot shrink it by more than that byte.  The framing rules
(:func:`_compress_segment`), in the order they are tried:

* a row of at most :data:`_RAW_MAX` (11) bytes is framed raw without a
  backend call: a zlib stream of ``n >= 1`` bytes is at least 9 bytes
  long, 10 when ``n >= 2``, so such a row never shrinks by more than the
  marker (the Huffman backend's header alone is longer, and the raw
  backend never shrinks anything) and the bytes are the ones the backend
  call would have framed;
* a row whose bit and bit-transition densities already look like coin
  flips is framed raw without a backend call (:func:`_noise_rows`) —
  low-significance planes of real data are usually indistinguishable
  from noise;
* a row of 16 KiB or more whose first 4 KiB the backend cannot shrink
  below :data:`_PROBE_RATIO` is framed raw after that one probe;
* any other row is compressed whole and kept only if smaller.

On zlib a row is compressed with run-length DEFLATE
(:meth:`~repro.encoding.lossless.ZlibBackend.compress_runs`): the rows
that compress are runs of insignificant bits — the structure EBCOT's
cleanup pass codes in run-length mode (Taubman, IEEE TIP 2000) — where
the full LZ77 search finds nothing more.  Inflate reads it as any zlib
stream, so segments written with the LZ77 search decode unchanged;
other payloads (SZ-family streams, PMGARD coarse and zero-mask
segments) keep the backend's byte coder.

Signs are stored as one extra segment fetched together with the first
plane.  (PMGARD embeds the sign after a coefficient's first significant
bit; the separate-plane simplification changes segment sizes marginally and
error bounds not at all.)
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.encoding.lossless import ZlibBackend, get_backend
from repro.utils.bits import (
    accumulate_bitplanes,
    element_byte_width,
    or_bit_rows,
    pack_bitplanes,
)

#: Segment framing markers: stored raw vs. backend-compressed.
_SEG_RAW = b"\x00"
_SEG_COMPRESSED = b"\x01"
#: Longest row framed raw without a backend call: no backend shrinks a
#: row this short by more than the marker byte (module docstring).
_RAW_MAX = 11
#: Segments shorter than this skip the compressibility probe entirely.
_PROBE_MIN = 4096
#: Leading bytes sampled by the probe, once a segment is long enough
#: (four probes) for a sample to be much cheaper than compressing it all;
#: shorter segments are their own probe.
_PROBE_BYTES = 4096
#: Probe ratio above which a segment is declared incompressible.
_PROBE_RATIO = 0.97
#: Rows shorter than this skip the noise screen: below it zlib's fixed
#: overhead, not the bits, decides whether a row shrinks.
_NOISE_MIN_BYTES = 64
#: Binary entropy (bits per bit) that both the bit density and the bit
#: transition density of a row's probe sample must reach for the row to
#: be framed raw without a backend call.
_NOISE_ENTROPY = 0.99


def _row_coder(backend):
    """The compressor of a bitplane row on *backend*: run-length DEFLATE
    on zlib, the backend's byte coder otherwise."""
    if isinstance(backend, ZlibBackend):
        return backend.compress_runs
    return backend.compress_bytes


def _compress_segment(backend, raw: bytes) -> bytes:
    """Frame *raw* as a segment: compressed when the backend earns its keep."""
    if len(raw) <= _RAW_MAX:
        return _SEG_RAW + raw
    compress = _row_coder(backend)
    comp = None
    if len(raw) >= _PROBE_MIN:
        probe = raw[:_PROBE_BYTES] if len(raw) >= 4 * _PROBE_BYTES else raw
        comp_probe = compress(probe)
        if len(comp_probe) > _PROBE_RATIO * len(probe):
            return _SEG_RAW + raw
        if len(probe) == len(raw):  # the probe already compressed everything
            comp = comp_probe
    if comp is None:
        comp = compress(raw)
    if len(comp) + 1 >= len(raw):
        return _SEG_RAW + raw
    return _SEG_COMPRESSED + comp


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """``H(p)`` in bits; 0 at ``p`` of 0 or 1."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def _noise_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows of a ``(k, m)`` uint8 matrix are noise to the backend.

    Each row is judged on the bytes the probe of :func:`_compress_segment`
    samples: its ones density *and* its density of bit transitions (bit
    ``i`` differing from bit ``i + 1``, MSB first) must both carry at
    least :data:`_NOISE_ENTROPY` bits of binary entropy.  The ones
    density alone passes spatially correlated rows — sign rows of smooth
    fields — that DEFLATE still shrinks; their runs show in the
    transitions.  A row repeating one noise block passes both tests and
    is stored raw though the backend could shrink it: lossless either
    way, and not a shape the bitplanes of smooth fields take.
    """
    k, m = rows.shape
    if m < _NOISE_MIN_BYTES:
        return np.zeros(k, dtype=bool)
    if m >= 4 * _PROBE_BYTES:
        m = _PROBE_BYTES
    # whole big-endian uint64 words, zero-padded: bit order is MSB first
    padded = np.zeros((k, -(-m // 8) * 8), dtype=np.uint8)
    padded[:, :m] = rows[:, :m]
    words = padded.view(">u8").astype(np.uint64)
    ones = np.bitwise_count(words).sum(axis=1)
    # each bit against its successor; the top bit of the next word
    # carries across word boundaries
    successor = words << np.uint64(1)
    successor[:, :-1] |= words[:, 1:] >> np.uint64(63)
    flips = np.bitwise_count(words ^ successor).sum(axis=1)
    # the last sampled bit was compared with a zero past the end
    flips -= rows[:, m - 1] & 1
    bits = 8 * m
    return (_binary_entropy(ones / bits) >= _NOISE_ENTROPY) & (
        _binary_entropy(flips / (bits - 1)) >= _NOISE_ENTROPY
    )


class CorruptSegmentError(ValueError):
    """An archived segment that does not inflate to its expected length.

    Raised for a plane or sign segment of a bitplane stream (``⌈n/8⌉``
    bytes for ``n`` coefficients) and for a PMGARD coarse segment
    (``8 × prod(shape)`` bytes): a bad marker, a body the backend cannot
    inflate, or one that inflates short or long.  Inflation stops just
    past the expected length, so an oversized body costs no more than a
    good one.  The message names the level and plane (or ``signs`` /
    ``coarse``) and the variable, where the caller knows it.
    """

    def __init__(self, problem: str, variable=None, level=None, part: str = ""):
        where = " ".join(
            bit for bit in (
                None if variable is None else f"variable {variable!r}",
                None if level is None else f"level {level}",
                part or None,
            ) if bit
        )
        super().__init__(f"corrupt segment ({where}): {problem}")


def _decompress_segment(backend, segment: bytes, expected: int | None = None) -> bytes:
    """Inverse of :func:`_compress_segment`.

    With *expected*, the result is exactly that many bytes or a
    ``ValueError`` (or ``zlib.error``) says why not; the backend stops
    inflating just past *expected*.
    """
    if not segment:
        raw = b""
    else:
        marker, body = segment[:1], segment[1:]
        if marker == _SEG_RAW:
            raw = body
        elif marker == _SEG_COMPRESSED:
            raw = backend.decompress_bytes(body, expected)
        else:
            raise ValueError(f"unknown bitplane segment marker {marker!r}")
    if expected is not None and len(raw) != expected:
        raise ValueError(f"inflates to {len(raw)} bytes, expected {expected}")
    return raw


@dataclass
class BitplaneStream:
    """Encoded bitplane representation of one coefficient group.

    Attributes
    ----------
    shape:
        Original coefficient-array shape.
    exponent:
        Alignment exponent ``e`` (``None`` when the group is archived as
        zero).
    num_planes:
        Total number of encoded magnitude planes ``P``.
    sign_segment:
        Compressed packed sign bits.
    plane_segments:
        ``P`` compressed packed magnitude planes, MSB first.
    window:
        The measured bound, ``(start, ratios)``: byte ``i`` of *ratios*
        is ``max(128, ceil(256 * M_k / 2**(e - k)))`` for plane ``k =
        start + i`` (see the module docstring); ``None`` keeps ``2**(e - k)`` for
        every plane, as streams encoded without it do.
    amax:
        Largest magnitude of a group archived as zero: 0.0 when it is all
        zeros, else below ``2**-1000``.  It is that group's bound.
    """

    shape: tuple
    exponent: int | None
    num_planes: int
    sign_segment: bytes
    plane_segments: list = field(default_factory=list)
    window: tuple | None = None
    amax: float = 0.0
    #: Number of coefficients in the group.
    size: int = field(init=False)

    def __post_init__(self):
        self.size = int(np.prod(self.shape)) if self.shape else 1

    def plane_bounds(self) -> tuple:
        """:meth:`error_bound` after ``k = 0..P`` planes (built once)."""
        bounds = self.__dict__.get("_bounds")
        if bounds is None:
            bounds = self._bounds = _plane_bounds(self.exponent, self.num_planes, self.window)
        return bounds

    def error_bound(self, planes: int) -> float:
        """Guaranteed coefficient L-infinity bound after *planes* planes.

        ``2**e`` before the first plane and ``2**(e - P)`` after the
        last; in between ``2**(e - k)``, or the measured bound where the
        stream carries one.  It never rises with *planes*.
        """
        if self.exponent is None:
            return self.amax
        return self.plane_bounds()[min(max(int(planes), 0), self.num_planes)]

    def plane_sizes(self) -> list:
        """Byte size of each plane segment, MSB first (signs excluded)."""
        return [len(p) for p in self.plane_segments]

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
        """Byte cost of every segment: all planes plus the signs."""
        return self.segment_bytes(0, self.num_planes)


#: Most bitplanes a stream can carry: the encoder's fixed-point
#: precision limit, so no archived stream holds more.
MAX_PLANES = 62
#: Most planes a stream measures its bound for: the ones just before the
#: plane from which every nonzero coefficient is significant.
MEASURED_PLANES = 8
#: Planes up to which the decoder's midpoint sum is exact in float64.
#: After ``k`` planes a magnitude holds at most ``k`` significant bits
#: and the midpoint adds one more, so up to 52 planes the sum fits a
#: 53-bit significand and the decoded error is at most ``2**(e - k - 1)``.
#: Past that it can round to even, a whole ``2**(e - k)`` away.
MIDPOINT_EXACT = 52


def _plane_bounds(exponent: int, num_planes: int, window) -> tuple:
    """``error_bound(k)`` for ``k = 0..P`` of a stream with *window*.

    The ratio to ``2**(e - k)`` is 1 before the window, ``max(q, 128) /
    256`` for its bytes ``q`` and 1/2 after it, up to
    :data:`MIDPOINT_EXACT` planes; 1 again past that and at ``k = 0``
    and ``P``.  Ratios in ``[1/2, 1]`` keep the bound from rising with
    ``k`` whatever the bytes say.  Without a window every bound is the
    exact power of two ``2**(e - k)``.
    """
    P = num_planes
    ratio = np.ones(P + 1)
    if window is not None:
        start, ratios = window
        stop = start + len(ratios)
        ratio[start:stop] = np.maximum(np.frombuffer(ratios, dtype=np.uint8), 128) / 256.0
        ratio[stop:P] = 0.5
        ratio[MIDPOINT_EXACT + 1 :] = 1.0
    # q / 256 * 2**(e - k) is exact: e >= -999 keeps it above 2**-1074
    with np.errstate(over="ignore"):
        return tuple((ratio * np.power(2.0, exponent - np.arange(P + 1.0))).tolist())


def _measured_window(mags: np.ndarray, e: int, P: int):
    """The measured bound of a group with magnitudes *mags*: ``(start,
    ratios)`` as :class:`BitplaneStream` stores it, or ``None``.

    Coefficient ``c`` is significant from plane ``e - E + 1`` on, ``E``
    its :func:`math.frexp` exponent, so every nonzero one is from the
    smallest's plane, ``settled``, on.  The window is the
    :data:`MEASURED_PLANES` planes before it (none past
    :data:`MIDPOINT_EXACT`).  Only magnitudes below its first plane's
    ``2**(e - k)`` can be any ``M_k`` in it, so they are filtered once
    and sorted, and every plane's ``M_k`` is one binary search.  A ratio
    that rounds up to 256 does not fit a byte, so the window starts after
    the last plane with one.
    """
    top = min(P, MIDPOINT_EXACT + 1)
    if top <= 1:
        return None
    smallest = float(np.min(mags, where=mags > 0.0, initial=np.inf))
    settled = e - math.frexp(smallest)[1] + 1
    stop = min(settled, top)
    start = max(1, stop - MEASURED_PLANES)
    planes = np.arange(start, stop)
    cand = np.sort(mags[mags < math.ldexp(1.0, e - start)])
    # M_k: the last candidate below 2**(e - k); k < settled leaves one
    largest = cand[np.searchsorted(cand, np.ldexp(1.0, e - planes)) - 1]
    # 256 * M_k / 2**(e - k) is a power-of-two scaling: exact, unless it
    # falls below 2**-1074 and rounds to 0; the floor of 128 is the
    # midpoint term 2**(e - k - 1), so the byte is never 0
    ratios = np.maximum(np.ceil(np.ldexp(largest, 8 - e + planes)), 128.0)
    full = np.flatnonzero(ratios >= 256.0)
    cut = int(full[-1]) + 1 if full.size else 0
    start += cut
    if start >= P:
        return None
    return start, ratios[cut:].astype(np.uint8).tobytes()


class BitplaneEncoder:
    """Encode/decode coefficient groups as progressive bitplanes.

    Parameters
    ----------
    num_planes:
        Fixed-point precision ``P`` (<= :data:`MAX_PLANES`).  60 makes
        double data effectively lossless at full retrieval.
    backend:
        Lossless backend name for the per-plane payloads.
    """

    def __init__(self, num_planes: int = 32, backend: str = "zlib"):
        if not 1 <= num_planes <= MAX_PLANES:
            raise ValueError(f"num_planes must be in [1, {MAX_PLANES}]")
        self.num_planes = int(num_planes)
        self.backend = get_backend(backend)

    def encode(self, coeffs: np.ndarray, measure: bool = True) -> BitplaneStream:
        """Refactor *coeffs* into a :class:`BitplaneStream`; with *measure*
        it carries the measured bound (:func:`_measured_window`)."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        shape = coeffs.shape
        flat = coeffs.ravel()
        mags = np.abs(flat)
        amax = float(mags.max()) if flat.size else 0.0
        # groups whose largest magnitude is below 2**-1000 are archived as
        # zero, with that magnitude as their bound: it keeps the
        # fixed-point scaling inside the double-precision exponent range
        if amax < 2.0**-1000:
            return BitplaneStream(shape, None, self.num_planes, b"", [], amax=amax)
        # exponent e with |c| < 2**e for all coefficients
        e = math.frexp(amax)[1]
        P = self.num_planes
        window = _measured_window(mags, e, P) if measure else None
        # scale by 2**(P-e) as two in-range power-of-two factors: each
        # multiply is exact (same result as ldexp) unless the value is
        # headed below 1 ulp anyway, and it runs in-place on the |c| buffer
        half = (P - e) // 2
        mags *= 2.0**half
        mags *= 2.0 ** (P - e - half)
        # |c| < 2**e, so every scaled magnitude is below 2**P; the clamp
        # only guards that, and the floats convert straight to the
        # big-endian words pack_bitplanes reads (trunc == floor: >= 0)
        np.minimum(mags, np.nextafter(2.0**P, 0.0), out=mags)
        fixed = mags.astype(f">u{element_byte_width(P)}")
        # the sign row, then the P plane rows, packed into one matrix;
        # rows the screen calls noise are framed raw without a backend call
        rows = np.empty((P + 1, (flat.size + 7) // 8), dtype=np.uint8)
        rows[0] = np.packbits(np.signbit(flat))
        pack_bitplanes(fixed, P, out=rows[1:])
        backend = self.backend
        sign_segment, *planes = [
            _SEG_RAW + row.tobytes() if noise else _compress_segment(backend, row.tobytes())
            for row, noise in zip(rows, _noise_rows(rows))
        ]
        return BitplaneStream(shape, e, P, sign_segment, planes, window)


class BitplaneDecoder:
    """Stateful progressive decoder for one :class:`BitplaneStream`.

    Tracks how many planes have been consumed so repeated calls to
    :meth:`advance_to` only decode the *new* planes (the incremental
    property required by Definition 1 of the paper).  Magnitudes are
    held as a big-endian byte matrix so newly fetched planes merge via
    :func:`repro.utils.bits.accumulate_bitplanes` in a few vector passes.
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
    def _over(cls, stream, backend, mag_bytes, signs, level, variable) -> "BitplaneDecoder":
        """A decoder over storage the caller owns (views of a
        :class:`FusedBitplaneDecoder`'s buffers), allocating none; its
        errors name *level* and *variable*."""
        decoder = cls.__new__(cls)
        decoder._bind(stream, backend, mag_bytes, signs, level, variable)
        return decoder

    def _bind(self, stream, backend, mag_bytes, signs, level=None, variable=None) -> None:
        self.stream = stream
        self.backend = get_backend(backend)
        self._where = (variable, level)
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

    def advance_to(self, planes: int) -> int:
        """Consume planes up to *planes*; returns bytes newly fetched."""
        span = self._new_planes(planes)
        if span is None:
            return 0
        fetched = self.stream.segment_bytes(span.start, span.stop)
        if span.start == 0:
            self._signs[:] = self._decode_signs()
        accumulate_bitplanes(
            self._plane_rows(span), self.stream.num_planes, self._mag_bytes
        )
        self.planes_consumed = span.stop
        return fetched

    def _new_planes(self, planes: int):
        """The ``range`` of planes a request for *planes* has yet to decode."""
        stream = self.stream
        target = min(int(planes), stream.num_planes)
        if stream.exponent is None or target <= self.planes_consumed:
            return None
        return range(self.planes_consumed, target)

    def _inflate(self, segment: bytes, part: str) -> np.ndarray:
        """One plane or sign segment as its ``⌈n/8⌉`` packed bytes, or a
        :class:`CorruptSegmentError`."""
        try:
            raw = _decompress_segment(self.backend, segment, (self.stream.size + 7) // 8)
        except (ValueError, zlib.error) as exc:
            raise CorruptSegmentError(str(exc), *self._where, part) from None
        return np.frombuffer(raw, dtype=np.uint8)

    def _decode_signs(self) -> np.ndarray:
        bits = np.unpackbits(self._inflate(self.stream.sign_segment, "signs"))
        return bits[: self.stream.size].astype(bool)

    def _plane_rows(self, planes) -> list:
        """``(plane, packed row)`` for each of *planes*, inflated."""
        segments = self.stream.plane_segments
        return [(p, self._inflate(segments[p], f"plane {p}")) for p in planes]

    def _midpoint(self) -> float:
        """Offset added to coefficients already known non-zero: it leaves
        them within ``2**(e-k-1)``, half the interval their planes pin
        down, which the measured bound relies on (0.0 before the first
        and after the last plane)."""
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

    def __init__(
        self, streams, layout: CoefficientLayout, backend: str = "zlib", variable=None
    ):
        self.layout = layout
        self._mag_bytes = np.zeros((layout.total, layout.width), dtype=np.uint8)
        self._signs = np.zeros(layout.total, dtype=bool)
        self.decoders = []
        for level, (stream, start) in enumerate(zip(streams, layout.starts)):
            rows = slice(start, start + stream.size)
            # a narrower group's big-endian bytes are the low-order columns
            low = layout.width - element_byte_width(stream.num_planes)
            self.decoders.append(
                BitplaneDecoder._over(
                    stream, backend, self._mag_bytes[rows, low:], self._signs[rows],
                    level, variable,
                )
            )

    def advance_to(self, planes) -> int:
        """Consume planes up to ``planes[l]`` of every group *l*; returns
        bytes newly fetched.  Nothing is merged unless every moving
        group's new segments were fetched and inflated."""
        moving = []
        for l, (dec, k) in enumerate(zip(self.decoders, planes)):
            span = dec._new_planes(k)
            if span is not None:
                moving.append((l, dec, span))
        if not moving:
            return 0
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
