"""PSZ3: progressive retrieval via multiple independent snapshots.

The data is compressed several times with a ladder of decreasing error
bounds (the paper uses relative bounds ``1e-1 .. 1e-10`` by default, plus a
lossless tail so full fidelity is always reachable).  A request for bound
``eb*`` fetches the *single* coarsest snapshot satisfying it — but because
snapshots share no fragments, a sequence of progressively tighter requests
re-fetches overlapping information, which is exactly the redundancy the
paper shows in Fig. 2 (large bitrates, staircase curves).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compressors.base import ProgressiveReader, Refactored, Refactorer
from repro.compressors.sz3 import SZ3Blob, SZ3Compressor
from repro.utils.fragment_keys import LOSSLESS_SEGMENT, snapshot_segment
from repro.utils.validation import as_float_array, check_error_bound

DEFAULT_RELATIVE_BOUNDS = tuple(10.0 ** (-i) for i in range(1, 11))


def _value_range(data: np.ndarray) -> float:
    rng = float(np.max(data) - np.min(data))
    return rng if rng > 0 else 1.0


class SnapshotLadderRefactored(Refactored):
    """Shared state of the snapshot-chain compressors (PSZ3, PSZ3-delta).

    ``lossless_payload`` may be raw bytes or — for archive-backed lazy
    loads — a zero-argument callable producing them; readers go through
    :meth:`lossless_bytes` / :meth:`lossless_nbytes` so the (large) exact
    tail is only pulled from the store when a request actually needs it.
    """

    def __init__(self, shape, ebs, blobs, lossless_payload, compressor,
                 lossless_nbytes: int | None = None):
        self.shape = tuple(shape)
        self.ebs = list(ebs)  # absolute bounds, decreasing
        self.blobs = list(blobs)
        self.lossless_payload = lossless_payload
        self._compressor = compressor
        self._lossless_nbytes = lossless_nbytes

    def lossless_bytes(self) -> bytes:
        """The exact tail's payload, materializing a lazy loader once."""
        payload = self.lossless_payload
        if callable(payload):
            payload = payload()
            self.lossless_payload = payload
        return payload

    def lossless_nbytes(self) -> int:
        """Byte size of the exact tail without forcing a lazy fetch."""
        if self._lossless_nbytes is not None:
            return self._lossless_nbytes
        return len(self.lossless_bytes())

    def select_level(self, eb: float):
        """Coarsest ladder index satisfying *eb*.

        ``None`` means only the lossless tail can satisfy the request;
        without a tail the deepest (best available) index is returned.
        """
        level = next((i for i, e in enumerate(self.ebs) if e <= eb), None)
        if level is None and self.lossless_payload is None:
            level = len(self.ebs) - 1
        return level

    @property
    def total_bytes(self) -> int:
        total = sum(b.nbytes for b in self.blobs)
        if self.lossless_payload is not None:
            total += self.lossless_nbytes()
        return total


class PSZ3Refactored(SnapshotLadderRefactored):
    """Snapshot ladder for one variable (independent snapshots)."""

    def reader(self) -> "PSZ3Reader":
        return PSZ3Reader(self)


class PSZ3Reader(ProgressiveReader):
    """Fetches whole snapshots; redundant across successive requests."""

    def __init__(self, refactored: PSZ3Refactored):
        self._ref = refactored
        self._bytes = 0
        self._fetched: set = set()
        self._bound = np.inf
        self._rec: np.ndarray | None = None

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
        snap = self._ref.select_level(eb)
        if snap is None:
            return [] if "lossless" in self._fetched else [LOSSLESS_SEGMENT]
        return [] if snap in self._fetched else [snapshot_segment(snap)]

    def plan_token(self) -> tuple:
        """Plan-cache state token: current bound + fetched snapshot set."""
        return ("psz3", float(self._bound), frozenset(self._fetched))

    def request(self, eb: float) -> np.ndarray:
        eb = check_error_bound(eb)
        if eb >= self._bound:
            return self.reconstruct()
        ref = self._ref
        snap = ref.select_level(eb)
        if snap is None:
            # only the lossless tail can satisfy this request
            if "lossless" not in self._fetched:
                self._bytes += ref.lossless_nbytes()
                self._fetched.add("lossless")
            raw = zlib.decompress(ref.lossless_bytes())
            self._rec = np.frombuffer(raw, dtype=np.float64).reshape(ref.shape).copy()
            self._bound = 0.0
            return self._rec
        if snap not in self._fetched:
            self._bytes += ref.blobs[snap].nbytes
            self._fetched.add(snap)
        self._rec = ref._compressor.decompress(ref.blobs[snap])
        self._bound = ref.ebs[snap]
        return self._rec

    def reconstruct(self) -> np.ndarray:
        if self._rec is None:
            return np.zeros(self._ref.shape, dtype=np.float64)
        return self._rec


class PSZ3Refactorer(Refactorer):
    """Refactor a variable into a ladder of independent SZ3 snapshots.

    Parameters
    ----------
    relative_bounds:
        Decreasing relative error bounds; multiplied by the value range to
        obtain absolute snapshot bounds.
    lossless_tail:
        Append a zlib-compressed exact copy so any request terminates.
    backend:
        Lossless backend for the underlying SZ3 compressor.
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

    def refactor(self, data: np.ndarray) -> PSZ3Refactored:
        data = as_float_array(data)
        vrange = _value_range(data)
        ebs = [rb * vrange for rb in self.relative_bounds]
        blobs = [self._compressor.compress(data, eb) for eb in ebs]
        tail = zlib.compress(data.tobytes(), 6) if self.lossless_tail else None
        return PSZ3Refactored(data.shape, ebs, blobs, tail, self._compressor)
