"""Mask-based outlier management (§V-A of the paper).

Nodes where, e.g., all velocity components are exactly zero (wall nodes in
the GE CFD data) make the square-root estimator of Theorem 2 arbitrarily
loose: tiny reconstructed values yield huge ``eps/sqrt(x)`` bounds even
though the true error is zero.  The paper records such points in a bitmap,
reconstructs them exactly, and excludes them from refactoring.

:class:`ZeroMask` implements the retrieval-side behaviour: masked points
are pinned to their exact (zero) value and their per-point error bound is
set to zero, so the QoI estimator sees ``eps = 0`` there and the bound
collapses to the truth.  The packed bitmap's byte cost is exposed so the
bitrate accounting can include it.

The mask is a property of the archived variable: :func:`refactor_masked`
records a variable's own exact-zero set on its ``Refactored`` object at
refactor time, the archive stores it as one small segment
(:data:`~repro.utils.fragment_keys.ZERO_MASK_SEGMENT`), and the retriever
applies whatever mask a representation carries.  No group declaration is
needed: at a wall node every velocity component carries the bit, so
Theorem 2's radicand gets ``eps = 0`` from each of them.
"""

from __future__ import annotations

import zlib

import numpy as np


class ZeroMask:
    """Bitmap of exact-zero points of a field (or shared by a group)."""

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)
        self._payload = None  # packed form, built on first use

    @classmethod
    def from_fields(cls, *fields: np.ndarray) -> "ZeroMask":
        """Mask points where *every* given field is exactly zero."""
        if not fields:
            raise ValueError("need at least one field")
        mask = np.ones(np.asarray(fields[0]).shape, dtype=bool)
        for f in fields:
            mask &= np.asarray(f) == 0.0
        return cls(mask)

    @classmethod
    def of(cls, data: np.ndarray) -> "ZeroMask | None":
        """One variable's own exact-zero set, or None when it has none.

        ``-0.0`` counts as zero (and reconstructs as ``0.0``).
        """
        mask = np.asarray(data) == 0.0
        return cls(mask) if mask.any() else None

    @property
    def payload(self) -> bytes:
        """Packed, compressed bitmap (what the archive stores)."""
        if self._payload is None:
            self._payload = zlib.compress(np.packbits(self.mask).tobytes(), 6)
        return self._payload

    @property
    def nbytes(self) -> int:
        """Transfer cost of the packed bitmap."""
        return len(self.payload)

    @property
    def count(self) -> int:
        """Number of masked points."""
        return int(self.mask.sum())

    def pin(self, reconstruction: np.ndarray) -> np.ndarray:
        """Force masked points to exact zero (in place; returns the array)."""
        reconstruction[self.mask] = 0.0
        return reconstruction

    def pointwise_eps(self, eps: float, shape: tuple) -> np.ndarray:
        """Per-point bound array: *eps* everywhere, 0 at masked points."""
        out = np.full(shape, float(eps))
        out[self.mask] = 0.0
        return out

    @classmethod
    def from_payload(cls, payload: bytes, shape: tuple, variable: str = "") -> "ZeroMask":
        """Rebuild a mask from its packed representation.

        The payload is archive bytes: anything that does not inflate to
        exactly the ``ceil(prod(shape) / 8)`` bytes of a *shape* bitmap
        raises ``ValueError`` naming *variable*.  The given payload is
        kept, so a loaded mask is never recompressed.
        """
        payload = bytes(payload)
        n = int(np.prod(shape, dtype=np.int64))
        try:
            packed = zlib.decompress(payload)
        except zlib.error as exc:
            raise ValueError(f"corrupt zero mask of variable {variable!r}: {exc}") from None
        if len(packed) != (n + 7) // 8:
            raise ValueError(
                f"corrupt zero mask of variable {variable!r}: {len(packed)} "
                f"bitmap bytes for shape {tuple(shape)}"
            )
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n)
        mask = cls(bits.astype(bool).reshape(shape))
        mask._payload = payload
        return mask


def refactor_masked(refactorer, data: np.ndarray):
    """Algorithm 1 for one variable, §V-A included.

    Refactors *data* and records its exact-zero set (None when there is
    none) as ``zero_mask`` on the returned ``Refactored`` — the one step
    both write paths (``refactor_dataset`` and the ingestion engine)
    share, so every archive carries the mask its data calls for.
    """
    refactored = refactorer.refactor(data)
    refactored.zero_mask = ZeroMask.of(data)
    return refactored
