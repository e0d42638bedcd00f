"""PSZ3-delta: progressive retrieval via residual-chain compression.

Following the framework of Magri & Lindstrom [16] as instantiated in the
paper, the variable is reduced to a chain of snapshots where snapshot *i*
compresses the *residual* between the original data and the reconstruction
from snapshots ``1..i-1``, each with a tighter bound.  Reaching bound
``eb_i`` requires all first *i* snapshots — but previously fetched ones are
reused, eliminating the redundancy of PSZ3 at the cost of a staircase in
the achievable bounds (the sudden bitrate jumps of Figs. 7–8).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compressors.base import ProgressiveReader, Refactorer
from repro.compressors.psz3 import (
    DEFAULT_RELATIVE_BOUNDS,
    SnapshotLadderRefactored,
    _value_range,
)
from repro.compressors.sz3 import SZ3Compressor
from repro.utils.fragment_keys import LOSSLESS_SEGMENT, snapshot_segment
from repro.utils.validation import as_float_array, check_error_bound


class PSZ3DeltaRefactored(SnapshotLadderRefactored):
    """Residual chain for one variable (snapshot *i* is a residual)."""

    def reader(self) -> "PSZ3DeltaReader":
        return PSZ3DeltaReader(self)


class PSZ3DeltaReader(ProgressiveReader):
    """Accumulates residual snapshots; strictly incremental."""

    def __init__(self, refactored: PSZ3DeltaRefactored):
        self._ref = refactored
        self._bytes = 0
        self._consumed = 0  # number of chain snapshots folded in
        self._lossless_used = False
        self._bound = np.inf
        self._rec = np.zeros(refactored.shape, dtype=np.float64)

    @property
    def bytes_retrieved(self) -> int:
        return self._bytes

    @property
    def current_error_bound(self) -> float:
        return self._bound

    def plan_segments(self, eb: float) -> list:
        """Archive segments ``request(eb)`` would consume (no fetching)."""
        eb = check_error_bound(eb)
        if eb >= self._bound:
            return []
        target = self._ref.select_level(eb)
        if target is None:
            return [] if self._lossless_used else [LOSSLESS_SEGMENT]
        return [snapshot_segment(i) for i in range(self._consumed, target + 1)]

    def plan_token(self) -> tuple:
        """Plan-cache state token: chain position + lossless marker + bound."""
        return (
            "psz3_delta", self._consumed, self._lossless_used, float(self._bound)
        )

    def request(self, eb: float) -> np.ndarray:
        eb = check_error_bound(eb)
        if eb >= self._bound:
            return self._rec
        target = self._ref.select_level(eb)
        if target is None:
            return self._fetch_lossless()
        ref = self._ref
        for i in range(self._consumed, target + 1):
            self._bytes += ref.blobs[i].nbytes
            self._rec += ref._compressor.decompress(ref.blobs[i])
            self._bound = ref.ebs[i]
        self._consumed = max(self._consumed, target + 1)
        return self._rec

    def _fetch_lossless(self) -> np.ndarray:
        ref = self._ref
        if not self._lossless_used:
            self._bytes += ref.lossless_nbytes()
            self._lossless_used = True
        raw = zlib.decompress(ref.lossless_bytes())
        self._rec = np.frombuffer(raw, dtype=np.float64).reshape(ref.shape).copy()
        self._bound = 0.0
        return self._rec

    def reconstruct(self) -> np.ndarray:
        return self._rec


class PSZ3DeltaRefactorer(Refactorer):
    """Refactor a variable into an SZ3 residual chain.

    Parameters mirror :class:`repro.compressors.psz3.PSZ3Refactorer`.
    """

    def __init__(
        self,
        relative_bounds=DEFAULT_RELATIVE_BOUNDS,
        lossless_tail: bool = True,
        backend: str = "zlib",
    ):
        bounds = [float(b) for b in relative_bounds]
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("relative_bounds must be positive")
        if any(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("relative_bounds must be strictly decreasing")
        self.relative_bounds = bounds
        self.lossless_tail = lossless_tail
        self._compressor = SZ3Compressor(backend=backend)

    def refactor(self, data: np.ndarray) -> PSZ3DeltaRefactored:
        data = as_float_array(data)
        vrange = _value_range(data)
        ebs = [rb * vrange for rb in self.relative_bounds]
        blobs = []
        rec = np.zeros_like(data)
        for eb in ebs:
            blob = self._compressor.compress(data - rec, eb)
            rec += self._compressor.decompress(blob)
            blobs.append(blob)
        tail = zlib.compress(data.tobytes(), 6) if self.lossless_tail else None
        return PSZ3DeltaRefactored(data.shape, ebs, blobs, tail, self._compressor)
