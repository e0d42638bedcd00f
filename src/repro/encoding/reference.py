"""Scalar reference kernels: the pre-vectorization encode/decode paths.

These are faithful copies of the original per-plane / per-symbol
implementations that :mod:`repro.encoding.bitplane`,
:mod:`repro.encoding.huffman` and the PMGARD reader's per-level
reconstruct + boolean-mask recompose replaced with array-at-a-time
kernels, plus a brute-force, one-point-pair-at-a-time form of the PMGARD
plane planner's hull order and a masked-maximum-per-plane form of the
encoder's measured coefficient bound.  They are kept because the property tests
assert the vectorized kernels are **bit-exact** against them on
randomized inputs.

They are *not* wired into any production path.  Note the container
formats differ: the reference Huffman coder emits the legacy ``RHC1``
stream (no chunk index) and the reference bitplane encoder emits
unframed segments (no store-raw marker byte), so reference payloads are
only decodable by the reference decoders.  Equality is asserted on the
decoded *outputs*, which is the contract that matters.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.encoding.bitplane import (
    MIDPOINT_EXACT,
    _PROBE_MIN,
    _PROBE_RATIO,
    _SEG_COMPRESSED,
    _SEG_RAW,
    BitplaneStream,
    _decompress_segment,
    _row_coder,
)
from repro.encoding.huffman import (
    _MAX_CODE_LEN,
    _canonical_codes,
    _limited_code_lengths,
)
from repro.encoding.lossless import get_backend
from repro.transforms.interpolation import fine_node_mask, split_even_odd
from repro.transforms.l2projection import l2_correction_along_axis
from repro.utils.bits import pack_varlen_codes

_RHC1_MAGIC = b"RHC1"


# -- bitplane -----------------------------------------------------------------


def reference_bitplane_encode(
    coeffs: np.ndarray, num_planes: int = 32, backend: str = "zlib"
) -> BitplaneStream:
    """Original plane-at-a-time encoder (one shift/mask/packbits per plane)."""
    if not 1 <= num_planes <= 62:
        raise ValueError("num_planes must be in [1, 62]")
    be = get_backend(backend)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    shape = coeffs.shape
    flat = coeffs.ravel()
    amax = float(np.max(np.abs(flat))) if flat.size else 0.0
    if amax == 0.0 or amax < 2.0**-1000:
        return BitplaneStream(shape, None, num_planes, b"", [])
    _, e = np.frexp(amax)
    e = int(e)
    P = num_planes
    mags = np.floor(np.ldexp(np.abs(flat), P - e)).astype(np.uint64)
    np.minimum(mags, np.uint64((1 << P) - 1), out=mags)
    signs = np.signbit(flat)
    sign_segment = be.compress_bytes(np.packbits(signs).tobytes())
    planes = []
    for p in range(P):
        shift = np.uint64(P - 1 - p)
        bits = ((mags >> shift) & np.uint64(1)).astype(np.uint8)
        planes.append(be.compress_bytes(np.packbits(bits).tobytes()))
    return BitplaneStream(shape, e, P, sign_segment, planes)


def reference_coefficient_bounds(coeffs: np.ndarray, num_planes: int) -> list:
    """Unquantized bound after ``k = 0..P`` planes, one plane at a time.

    The naive masked maximum per plane: ``2**e`` at 0, ``2**(e - P)`` at
    ``P``, and in between ``max(2**(e - k - 1), M_k)`` with ``M_k`` the
    largest ``|c|`` below ``2**(e - k)`` — or ``2**(e - k)`` past
    :data:`~repro.encoding.bitplane.MIDPOINT_EXACT` planes, where the
    midpoint sum can round.  A stream's measured
    :meth:`~BitplaneStream.error_bound` is this rounded up to 1/256 of
    ``2**(e - k)`` inside its window, ``2**(e - k)`` before it, and equal
    to it after.  ``None`` for a group archived as zero.
    """
    mags = np.abs(np.asarray(coeffs, dtype=np.float64)).ravel()
    amax = float(mags.max()) if mags.size else 0.0
    if amax < 2.0**-1000:
        return None
    e = int(np.frexp(amax)[1])
    bounds = [2.0**e]
    for k in range(1, num_planes):
        below = mags[mags < 2.0 ** (e - k)]
        if k > MIDPOINT_EXACT:
            bounds.append(2.0 ** (e - k))
        else:
            bounds.append(max(2.0 ** (e - k - 1), float(below.max(initial=0.0))))
    bounds.append(2.0 ** (e - num_planes))
    return bounds


def reference_compress_segment(backend, raw: bytes) -> bytes:
    """Original segment framing: the probe compresses up to 64 KiB.

    For every segment shorter than 64 KiB that probe *was* the full
    compression; the production rule samples 4 KiB of segments at least
    16 KiB long instead.  The two agree byte for byte below 16 KiB, and
    above it whenever the first 4 KiB and the first 64 KiB land on the
    same side of the probe ratio.  Every row, however short, is
    compressed, by the production row coder (run-length DEFLATE on zlib):
    the oracle for the rule that frames rows too short to shrink raw
    without a call.
    """
    compress = _row_coder(backend)
    comp = None
    if len(raw) >= _PROBE_MIN:
        probe = raw[:65536]
        comp_probe = compress(probe)
        if len(comp_probe) > _PROBE_RATIO * len(probe):
            return _SEG_RAW + raw
        if len(probe) == len(raw):
            comp = comp_probe
    if comp is None:
        comp = compress(raw)
    if len(comp) + 1 >= len(raw):
        return _SEG_RAW + raw
    return _SEG_COMPRESSED + comp


class ReferenceBitplaneDecoder:
    """Original plane-at-a-time progressive decoder."""

    def __init__(self, stream: BitplaneStream, backend: str = "zlib"):
        self.stream = stream
        self.backend = get_backend(backend)
        self.planes_consumed = 0
        self._mags = np.zeros(stream.size, dtype=np.uint64)
        self._signs: np.ndarray | None = None

    def _inflate(self, segment: bytes) -> bytes:
        return self.backend.decompress_bytes(segment)

    def advance_to(self, planes: int) -> int:
        stream = self.stream
        target = min(int(planes), stream.num_planes)
        if stream.exponent is None or target <= self.planes_consumed:
            return 0
        fetched = stream.segment_bytes(self.planes_consumed, target)
        if self._signs is None:
            raw = self._inflate(stream.sign_segment)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            self._signs = bits[: stream.size].astype(bool)
        P = stream.num_planes
        for p in range(self.planes_consumed, target):
            raw = self._inflate(stream.plane_segments[p])
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: stream.size]
            self._mags |= bits.astype(np.uint64) << np.uint64(P - 1 - p)
        self.planes_consumed = target
        return fetched

    def reconstruct(self) -> np.ndarray:
        stream = self.stream
        if stream.exponent is None:
            return np.zeros(stream.shape, dtype=np.float64)
        P = stream.num_planes
        k = self.planes_consumed
        vals = self._mags.astype(np.float64)
        if 0 < k < P:
            offset = float(2 ** (P - k - 1))
            vals[self._mags > 0] += offset
        vals = np.ldexp(vals, stream.exponent - P)
        if self._signs is not None:
            np.negative(vals, where=self._signs, out=vals)
        return vals.reshape(stream.shape)

    @property
    def error_bound(self) -> float:
        if self.planes_consumed == 0 and self.stream.exponent is not None:
            return float(2.0 ** self.stream.exponent)
        return self.stream.error_bound(self.planes_consumed)


# -- PMGARD reconstruction ----------------------------------------------------


class _FramedReferenceDecoder(ReferenceBitplaneDecoder):
    """The plane-at-a-time decoder over production (marker-framed) segments."""

    def _inflate(self, segment: bytes) -> bytes:
        return _decompress_segment(self.backend, segment)


def reference_predict_along_axis(even: np.ndarray, axis: int, odd_size: int) -> np.ndarray:
    """Original odd-node prediction: clamped right-neighbour gather."""
    ce = even.shape[axis]
    index = [slice(None)] * even.ndim
    index[axis] = slice(0, odd_size)
    left = even[tuple(index)]
    right_idx = np.minimum(np.arange(1, odd_size + 1), ce - 1)
    right = np.take(even, right_idx, axis=axis)
    return 0.5 * (left + right)


def reference_recompose(decomp, coefficients, coarse) -> np.ndarray:
    """Original recomposition: a boolean fine-node mask rebuilt, counted
    and scattered through per level, then the inverse lifting."""
    a = np.array(coarse, dtype=np.float64)
    for level in range(len(decomp.shapes) - 1, -1, -1):
        shape = decomp.shapes[level]
        full = np.empty(shape, dtype=np.float64)
        full[tuple(slice(0, None, 2) for _ in shape)] = a
        mask = fine_node_mask(shape)
        coeffs = np.asarray(coefficients[level], dtype=np.float64)
        if coeffs.size != int(mask.sum()):
            raise ValueError(f"level {level}: coefficient count mismatch")
        full[mask] = coeffs
        for axis in range(full.ndim - 1, -1, -1):
            if full.shape[axis] < 2:
                continue
            even, odd = split_even_odd(full, axis)
            if decomp.basis == "orthogonal":
                even -= l2_correction_along_axis(odd, axis, even.shape[axis])
            odd += reference_predict_along_axis(even, axis, odd.shape[axis])
        a = full
    return a


def reference_pmgard_reconstruct(refactored, planes) -> np.ndarray:
    """A PMGARD variable after ``planes[l]`` planes of each level, the
    original way: one plane-at-a-time decode and one ``astype`` / midpoint
    / ``ldexp`` / sign pass per level, then :func:`reference_recompose`.

    The oracle for the reader's fused coefficient buffer — built from the
    streams alone, sharing no state and no decode code with it.
    """
    coefficients = []
    for stream, k in zip(refactored.streams, planes):
        decoder = _FramedReferenceDecoder(stream, backend=refactored.backend)
        decoder.advance_to(k)
        coefficients.append(decoder.reconstruct())
    coarse = np.frombuffer(
        zlib.decompress(refactored.coarse_payload), dtype=np.float64
    ).reshape(refactored.coarse_shape)
    return reference_recompose(refactored.decomp, coefficients, coarse)


# -- Huffman ------------------------------------------------------------------


def reference_huffman_encode(symbols: np.ndarray) -> bytes:
    """Original ``RHC1`` encoder (no chunk index in the container)."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size == 0:
        return _RHC1_MAGIC + struct.pack("<QQ", 0, 0)
    alphabet, inverse = np.unique(symbols, return_inverse=True)
    counts = np.bincount(inverse)
    lengths = _limited_code_lengths(counts, _MAX_CODE_LEN)
    codes = _canonical_codes(lengths)
    payload, nbits = pack_varlen_codes(codes[inverse], lengths[inverse])
    header = _RHC1_MAGIC + struct.pack("<QQ", symbols.size, alphabet.size)
    table = alphabet.tobytes() + lengths.astype(np.uint8).tobytes()
    return header + struct.pack("<Q", nbits) + table + payload


def reference_huffman_decode(payload: bytes) -> np.ndarray:
    """Original table-walk decoder: one NumPy dot product per symbol."""
    if payload[:4] != _RHC1_MAGIC:
        raise ValueError("bad magic in Huffman stream")
    n, asize = struct.unpack_from("<QQ", payload, 4)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    (nbits,) = struct.unpack_from("<Q", payload, 20)
    off = 28
    alphabet = np.frombuffer(payload, dtype=np.int64, count=asize, offset=off)
    off += 8 * asize
    lengths = np.frombuffer(payload, dtype=np.uint8, count=asize, offset=off).astype(np.int64)
    off += asize
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, offset=off))[:nbits]
    codes = _canonical_codes(lengths)
    maxlen = int(lengths.max())
    table_sym = np.zeros(1 << maxlen, dtype=np.int64)
    table_len = np.zeros(1 << maxlen, dtype=np.int64)
    for sym_idx in range(asize):
        L = int(lengths[sym_idx])
        base = int(codes[sym_idx]) << (maxlen - L)
        span = 1 << (maxlen - L)
        table_sym[base : base + span] = alphabet[sym_idx]
        table_len[base : base + span] = L
    padded = np.concatenate([bits, np.zeros(maxlen, dtype=np.uint8)])
    weights = (1 << np.arange(maxlen - 1, -1, -1)).astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    pos = 0
    tl = table_len
    ts = table_sym
    for i in range(n):
        window = int(padded[pos : pos + maxlen] @ weights)
        out[i] = ts[window]
        step = tl[window]
        if step == 0:
            raise ValueError("corrupt Huffman stream")
        pos += step
    if pos != nbits:
        raise ValueError("Huffman stream length mismatch")
    return out


# -- PMGARD plane planning ----------------------------------------------------


def reference_hull_steps(streams, kappa: float) -> list:
    """Brute-force hull steps, one level and one point pair at a time.

    Level *l*'s points are ``(segment_bytes(0, k), kappa *
    error_bound(k))`` for ``k = 0..P`` — the measured bound where the
    stream carries one.  ``slope(i, j)`` is the bound
    removed per byte from point *i* to a later point *j* (``inf`` when
    the bytes are equal, 0 when nothing is removed).  Point ``k > 0`` is
    a vertex when ``min_{i<k} slope(i, k) > 0`` and ``>= max_{j>k}
    slope(k, j)``; a step runs from the previous vertex (or point 0) to
    the next.  Returns ``(slope, level, planes, drop)`` tuples.
    """
    steps = []
    for level, stream in enumerate(streams):
        if stream.exponent is None:
            continue
        num = stream.num_planes
        cost = [stream.segment_bytes(0, k) for k in range(num + 1)]
        bound = [kappa * stream.error_bound(k) for k in range(num + 1)]

        def slope(i, j):
            drop = bound[i] - bound[j]
            if not drop > 0.0:
                return 0.0
            spend = cost[j] - cost[i]
            return drop / spend if spend else float("inf")

        start = 0
        for k in range(1, num + 1):
            into = min(slope(i, k) for i in range(k))
            onward = max((slope(k, j) for j in range(k + 1, num + 1)), default=0.0)
            if into > 0.0 and into >= onward:
                steps.append((slope(start, k), level, k, bound[start] - bound[k]))
                start = k
    return steps


def reference_plane_plan(streams, kappa: float, eb: float, start=None) -> list:
    """Brute-force byte-priced planner: walk the merged hull order.

    Parameters mirror the reader state: *streams* are the per-level
    :class:`BitplaneStream` objects (finest level first), *kappa* the
    per-level bound amplification, *start* the planes already consumed
    per level (defaults to all zeros).  Every level's hull steps
    (:func:`reference_hull_steps`) are sorted by descending slope, ties
    by (level, plane), and taken from the first until ``sum(kappa *
    bound_l)``, summed in level order, is ``<= eb`` (or the order runs
    out).  Returns the planned plane count per level.
    """
    planned = list(start) if start is not None else [0] * len(streams)

    def bound():
        return float(sum(kappa * s.error_bound(k) for s, k in zip(streams, planned)))

    order = sorted(reference_hull_steps(streams, kappa), key=lambda t: (-t[0], t[1], t[2]))
    for _, level, planes, _ in order:
        if bound() <= eb:
            break
        planned[level] = max(planned[level], planes)
    return planned
