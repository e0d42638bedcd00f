"""Vectorized bit-packing helpers shared by the Huffman and bitplane codecs.

Python-level bit loops are far too slow for arrays of millions of symbols,
so everything here works on whole NumPy arrays: variable-length codes are
scattered into a flat boolean bit buffer grouped by code length, and
fixed-width fields use :func:`numpy.packbits`/:func:`numpy.unpackbits`.
"""

from __future__ import annotations

import numpy as np


def pack_varlen_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack variable-length big-endian codes into a byte string.

    Parameters
    ----------
    codes:
        ``uint64`` array; element *i* holds the codeword for symbol *i* in
        its low ``lengths[i]`` bits.
    lengths:
        Bit length of each codeword (1..57).

    Returns
    -------
    (payload, nbits):
        Packed bytes (MSB-first within each byte) and the exact number of
        valid bits.

    Notes
    -----
    Vectorization strategy: compute each symbol's start offset by cumulative
    sum, then, for every *distinct* code length L (at most ~30 of them),
    expand the group's codes into an ``(n_L, L)`` bit matrix with shifts and
    scatter it into the global bit buffer with fancy indexing.  This keeps
    the Python-level loop bounded by the number of distinct lengths, not the
    number of symbols.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if lengths.size and int(lengths.min()) <= 0:
        raise ValueError("code lengths must be >= 1")
    nbits = int(lengths.sum())
    if nbits == 0:
        return b"", 0
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    bitbuf = np.zeros(nbits, dtype=np.uint8)
    for length in np.unique(lengths):
        L = int(length)
        if L <= 0:
            raise ValueError(f"invalid code length {L}")
        sel = lengths == length
        group_codes = codes[sel]
        group_offsets = offsets[sel]
        # Bit j (MSB first) of a code of length L is (code >> (L-1-j)) & 1.
        shifts = np.arange(L - 1, -1, -1, dtype=np.uint64)
        bits = (group_codes[:, None] >> shifts[None, :]) & np.uint64(1)
        positions = group_offsets[:, None] + np.arange(L, dtype=np.int64)[None, :]
        bitbuf[positions.ravel()] = bits.ravel().astype(np.uint8)
    return np.packbits(bitbuf).tobytes(), nbits


def unpack_bits(payload: bytes, nbits: int) -> np.ndarray:
    """Inverse of the packing step: bytes -> uint8 array of 0/1 bits."""
    if nbits == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits.size < nbits:
        raise ValueError("payload shorter than declared bit count")
    return bits[:nbits]


# -- bitplane kernels ---------------------------------------------------------
#
# The bitplane codec needs two bulk primitives: scatter the bits of n
# fixed-point magnitudes into P packed plane rows (encode) and gather plane
# rows back into magnitudes (decode).  Both run byte-at-a-time: a magnitude
# is viewed as its big-endian bytes, so each byte column feeds exactly 8
# planes and the per-plane work is a single uint8 mask + packbits
# (packbits treats any nonzero as a set bit, so no shift is needed).

#: Hacker's-Delight 8x8 bit-matrix transpose masks (uint64 = 8 byte lanes).
_T8_M1 = np.uint64(0x00AA00AA00AA00AA)
_T8_M2 = np.uint64(0x0000CCCC0000CCCC)
_T8_M3 = np.uint64(0x00000000F0F0F0F0)


def element_byte_width(num_planes: int) -> int:
    """Smallest power-of-two byte width holding *num_planes* bits (1/2/4/8)."""
    if num_planes <= 8:
        return 1
    if num_planes <= 16:
        return 2
    if num_planes <= 32:
        return 4
    return 8


def transpose_bit_blocks(words: np.ndarray) -> np.ndarray:
    """Transpose each uint64 element in place, viewed as an 8x8 bit matrix."""
    t = ((words >> np.uint64(7)) ^ words) & _T8_M1
    words ^= t
    words ^= t << np.uint64(7)
    t = ((words >> np.uint64(14)) ^ words) & _T8_M2
    words ^= t
    words ^= t << np.uint64(14)
    t = ((words >> np.uint64(28)) ^ words) & _T8_M3
    words ^= t
    words ^= t << np.uint64(28)
    return words


def pack_bitplanes(mags: np.ndarray, num_planes: int) -> np.ndarray:
    """Scatter uint64 magnitudes into packed bitplane rows, MSB plane first.

    Returns a ``(num_planes, ceil(n / 8))`` uint8 array; row ``p`` is
    ``packbits`` of bit ``num_planes - 1 - p`` of every magnitude —
    bit-identical to packing each plane in a Python loop, at a fraction
    of the memory traffic (one uint8 pass per plane instead of a uint64
    shift/mask/cast chain).
    """
    mags = np.ascontiguousarray(mags, dtype=np.uint64)
    n = mags.size
    P = int(num_planes)
    W = element_byte_width(P)
    cols = mags.astype(f">u{W}").view(np.uint8).reshape(n, W)
    out = np.empty((P, (n + 7) // 8), dtype=np.uint8)
    col = None
    col_idx = -1
    for p in range(P):
        bitpos = 8 * W - P + p  # bit index from the top of the W-byte word
        j = bitpos >> 3
        if j != col_idx:
            col = np.ascontiguousarray(cols[:, j])
            col_idx = j
        mask = np.uint8(1 << (7 - (bitpos & 7)))
        out[p] = np.packbits(col & mask)
    return out


def accumulate_bitplanes(rows, num_planes: int, out_bytes: np.ndarray) -> None:
    """OR packed bitplane rows into a big-endian magnitude byte matrix.

    Parameters
    ----------
    rows:
        Iterable of ``(plane_index, packed_row)`` pairs, ``packed_row``
        being the uint8 output of :func:`numpy.packbits` over that
        plane's bits (``ceil(n / 8)`` bytes).
    num_planes:
        Total plane count ``P`` of the stream.
    out_bytes:
        ``(n, element_byte_width(P))`` uint8 array holding the big-endian
        bytes of the accumulated magnitudes; updated in place.

    The planes of one byte column are gathered with an 8x8 bit-matrix
    transpose over uint64 words (8 byte lanes at a time), so the cost is
    a handful of vector passes per byte column instead of a uint64
    shift/OR chain per plane.
    """
    W = out_bytes.shape[1]
    P = int(num_planes)
    by_col: dict = {}
    for p, row in rows:
        bitpos = 8 * W - P + int(p)
        by_col.setdefault(bitpos >> 3, []).append((bitpos & 7, 0, row))
    or_bit_rows(by_col, out_bytes)


def or_bit_rows(by_col: dict, out_bytes: np.ndarray) -> None:
    """OR packed bit rows into the byte columns of *out_bytes*, in place.

    *by_col* maps a byte column ``j`` to ``(bit, first_byte, packed_row)``
    entries: ``packed_row`` holds, MSB-first, bit ``7 - bit`` of column
    ``j`` for the elements starting at ``8 * first_byte``.  Rows of
    several coefficient groups laid out back to back on 8-element
    boundaries therefore share one transpose pass per byte column, and
    that pass spans only the elements its own rows cover.
    """
    n = out_bytes.shape[0]
    for j, entries in by_col.items():
        lo = min(first for _, first, _ in entries)
        hi = max(first + row.size for _, first, row in entries)
        grp = np.zeros((8, hi - lo), dtype=np.uint8)
        for r, first, row in entries:
            grp[r, first - lo : first - lo + row.size] = row
        # little-endian word build (reversed lanes) + transpose puts element
        # i's byte at reversed position i%8 within word i//8
        words = np.ascontiguousarray(grp[::-1].T).view(np.uint64).ravel()
        transpose_bit_blocks(words)
        stop = min(8 * hi, n)
        col = words.view(np.uint8).reshape(-1, 8)[:, ::-1].reshape(-1)[: stop - 8 * lo]
        np.bitwise_or(out_bytes[8 * lo : stop, j], col, out=out_bytes[8 * lo : stop, j])


def pack_uint_field(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers of fixed bit *width* (1..64), MSB-first."""
    values = np.asarray(values, dtype=np.uint64)
    if width < 1 or width > 64:
        raise ValueError("width must be in [1, 64]")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_uint_field(payload: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uint_field`."""
    bits = unpack_bits(payload, width * count).astype(np.uint64)
    bits = bits.reshape(count, width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
