"""PMGARD / PMGARD-HB: multilevel decomposition + bitplane progression.

The variable is decomposed once by :class:`MultilevelTransform`; each
level's coefficient set becomes one exponent-aligned bitplane group
(:mod:`repro.encoding.bitplane`) and the coarsest approximation is stored
verbatim.  A request for bound ``eb`` greedily fetches the next most
significant plane of whichever level currently dominates the guaranteed
error, until

    sum_l  kappa * bound_l(k_l)   <=  eb,

where ``bound_l(k)`` is the coefficient bound of level *l* after *k*
planes and ``kappa`` is the basis-dependent per-level amplification of
:meth:`MultilevelTransform.kappa`.  With ``basis="orthogonal"`` this is
the paper's PMGARD (loose, L2-projection-contaminated bound); with
``basis="hierarchical"`` it is the paper's PMGARD-HB whose bound is the
plain sum over levels (§V-B and Fig. 3).

Readers are incremental: tightening a request only fetches additional
planes, and reconstruction cost is one recomposition per request round.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.compressors.base import ProgressiveReader, Refactored, Refactorer
from repro.encoding.bitplane import (
    BitplaneEncoder,
    CoefficientLayout,
    FusedBitplaneDecoder,
)
from repro.utils.fragment_keys import (
    COARSE_SEGMENT,
    pmgard_plane_segments,
    pmgard_signs_segment,
)
from repro.transforms.multilevel import HIERARCHICAL, MultilevelTransform
from repro.utils.validation import as_float_array, check_error_bound

_EPS = float(np.finfo(np.float64).eps)


class PMGARDRefactored(Refactored):
    """Per-level bitplane streams + verbatim coarse approximation."""

    def __init__(self, decomp, streams, coarse_payload, transform, backend, coarse_shape=None):
        self.decomp = decomp  # shapes/basis metadata; exact coeffs unused by readers
        self.streams = list(streams)  # finest level first
        self.coarse_payload = coarse_payload
        self.transform = transform
        self.backend = backend
        self.coarse_shape = (
            tuple(coarse_shape)
            if coarse_shape is not None
            else tuple(decomp.coarse.shape)
        )

    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.streams) + len(self.coarse_payload)

    @property
    def kappa(self) -> float:
        return self.transform.kappa(len(self.decomp.shapes[0]) if self.decomp.shapes else 1)

    def plan_table(self) -> "PlanTable":
        """Shared closed-form plane-assignment table (built once, cached).

        Sessions opened by many clients against the same refactored
        variable (the service path) all plan from this one table, so a
        retrieval round costs a binary search instead of a greedy peel
        loop over every outstanding plane.
        """
        table = getattr(self, "_plan_table", None)
        if table is None:
            table = PlanTable(self.streams, self.kappa)
            self._plan_table = table
        return table

    def coefficient_layout(self) -> CoefficientLayout:
        """Shared geometry of the readers' fused coefficient buffers
        (built once, cached, like :meth:`plan_table`)."""
        layout = getattr(self, "_layout", None)
        if layout is None:
            layout = self._layout = CoefficientLayout(self.streams)
        return layout

    def _fused_decoder(self) -> FusedBitplaneDecoder:
        return FusedBitplaneDecoder(
            self.streams, self.coefficient_layout(), backend=self.backend
        )

    def _decode_coarse(self) -> np.ndarray:
        raw = zlib.decompress(self.coarse_payload)
        return np.frombuffer(raw, dtype=np.float64).reshape(self.coarse_shape).copy()

    def reader(self) -> "PMGARDReader":
        return PMGARDReader(self)

    def resolution_reader(self) -> "PMGARDResolutionReader":
        """Open a resolution-progressive reader (coarse levels first)."""
        return PMGARDResolutionReader(self)


class PlanTable:
    """Closed-form replacement for the greedy most-significant-plane peel.

    The greedy loop always peels the level whose current bound
    ``kappa * 2**(e_l - k_l)`` is largest (ties to the lowest level
    index), and each peel halves that bound — so the order in which
    planes are peeled is *fixed*: it is the list of (level, plane) pairs
    sorted by descending pre-peel bound, ties by level.  Precomputing
    that order plus the running sum of bound reductions turns every
    ``request(eb)`` into one :func:`numpy.searchsorted` over the
    cumulative reductions instead of an O(planes) Python loop per round.

    Floating-point summation order differs from the greedy loop's
    running ``sum(bounds)``, so :meth:`planes_for` stops short of the
    fixed point by the rounding slack of the two sums and callers re-run
    the greedy loop from the planned state as a mop-up.  The peel order
    is fixed, so a shorter prefix plus the exact mop-up *is* the greedy
    plan; it converges in a step or two and keeps the stopping condition
    bit-identical to the original.
    """

    def __init__(self, streams, kappa: float):
        levels = []
        values = []
        deltas = []
        for l, s in enumerate(streams):
            if s.exponent is None:
                continue
            bounds = np.array(
                [kappa * s.error_bound(k) for k in range(s.num_planes + 1)]
            )
            pre = bounds[:-1]  # bound before peeling plane k+1
            keep = pre > 0.0  # underflowed levels cannot shrink further
            levels.append(np.full(int(keep.sum()), l, dtype=np.int64))
            values.append(pre[keep])
            deltas.append((pre - bounds[1:])[keep])
        if levels:
            ev_level = np.concatenate(levels)
            ev_value = np.concatenate(values)
            ev_delta = np.concatenate(deltas)
            # stable order: descending bound, then level (greedy tie-break);
            # within a level bounds strictly decrease, so plane order holds
            order = np.lexsort((ev_level, -ev_value))
            self.ev_level = ev_level[order]
            self.cum_delta = np.cumsum(ev_delta[order])
        else:
            self.ev_level = np.zeros(0, dtype=np.int64)
            self.cum_delta = np.zeros(0)
        # initial bound sum, accumulated in level order like the greedy loop
        self.total = float(sum(kappa * s.error_bound(0) for s in streams))
        self.num_levels = len(streams)

    def planes_for(self, eb: float) -> np.ndarray:
        """Planes per level after greedily peeling until the bound fits."""
        if self.ev_level.size == 0 or self.total <= eb:
            return np.zeros(self.num_levels, dtype=np.int64)
        # ``total - eb`` and the cumsum each round by up to an ulp of
        # ``total`` per term, differently from the greedy running sum; a
        # seed past the greedy stop would fetch a plane for nothing (the
        # mop-up only adds).  Every event whose cumulative reduction is
        # short of ``need`` by more than that slack is one greedy surely
        # peels, and so is the one after them.
        slack = (self.ev_level.size + self.num_levels + 2) * _EPS * self.total
        need = self.total - eb - slack
        m = int(np.searchsorted(self.cum_delta, need, side="left")) + 1
        m = min(m, self.ev_level.size)
        return np.bincount(self.ev_level[:m], minlength=self.num_levels)


class PMGARDReader(ProgressiveReader):
    """Greedy most-significant-plane-first progressive reader."""

    def __init__(self, refactored: PMGARDRefactored):
        self._ref = refactored
        self._levels = refactored._fused_decoder()
        self._decoders = self._levels.decoders
        self._bytes = 0
        self._coarse: np.ndarray | None = None
        self._requested = False
        self._dirty = True
        self._rec: np.ndarray | None = None
        self._plans: tuple = (None, {})  # (planes consumed, {eb: planes per level})

    # -- byte/bound accounting ----------------------------------------------

    @property
    def bytes_retrieved(self) -> int:
        return self._bytes

    def _level_bound(self, level: int) -> float:
        dec = self._decoders[level]
        return self._ref.kappa * dec.error_bound

    @property
    def current_error_bound(self) -> float:
        if not self._requested:
            return np.inf
        return float(sum(self._level_bound(l) for l in range(len(self._decoders))))

    # -- retrieval ------------------------------------------------------------

    def _fetch_coarse(self) -> None:
        if self._coarse is None:
            self._bytes += len(self._ref.coarse_payload)
            self._coarse = self._ref._decode_coarse()

    def _plan(self, eb: float) -> list:
        """Planes per level meeting *eb*: closed-form seed + greedy mop-up.

        A round plans the same state up to three times (the round's
        segments, the widened segments, then the request itself), so
        plans are kept until a level moves — keyed on the exact float
        *eb*, never quantized, like the shared planner's memo.
        """
        consumed = self._consumed()
        if self._plans[0] != consumed:
            self._plans = (consumed, {})
        plans = self._plans[1]
        planned = plans.get(eb)
        if planned is None:
            planned = plans[eb] = self._plan_uncached(eb)
        return planned

    def _plan_uncached(self, eb: float) -> list:
        decs = self._decoders
        kappa = self._ref.kappa
        seed = self._ref.plan_table().planes_for(eb)
        planned = [max(int(seed[l]), d.planes_consumed) for l, d in enumerate(decs)]
        bounds = [kappa * d.stream.error_bound(planned[l]) for l, d in enumerate(decs)]
        num_planes = [d.stream.num_planes for d in decs]
        # greedy mop-up: peel the most significant outstanding plane of the
        # currently dominating level until the total bound fits.  The seed
        # lands at (or within a rounding step of) the fixed point, so this
        # loop runs O(1) times; it also keeps the stopping condition
        # bit-identical to the original greedy planner.
        while sum(bounds) > eb:
            # only levels whose bound still shrinks are useful; all-zero
            # groups (bound 0) or fully-fetched levels cannot help
            candidates = [
                l for l in range(len(decs))
                if planned[l] < num_planes[l] and bounds[l] > 0.0
            ]
            if not candidates:
                break
            worst = max(candidates, key=lambda l: bounds[l])
            planned[worst] += 1
            bounds[worst] = kappa * decs[worst].stream.error_bound(planned[worst])
        return planned

    def plan_segments(self, eb: float) -> list:
        """Archive segments ``request(eb)`` would consume (no fetching)."""
        eb = check_error_bound(eb)
        segments = []
        if self._coarse is None:
            segments.append(COARSE_SEGMENT)
        if self._decoders:
            for level, k in enumerate(self._plan(eb)):
                dec = self._decoders[level]
                if dec.stream.exponent is None or k <= dec.planes_consumed:
                    continue
                if dec.planes_consumed == 0:
                    segments.append(pmgard_signs_segment(level))
                names = pmgard_plane_segments(level, dec.stream.num_planes)
                segments.extend(names[dec.planes_consumed : k])
        return segments

    def bound_after(self, eb: float) -> float:
        """The exact bound ``request(eb)`` would achieve (no fetching).

        The plan fixes the planes every level ends on, and a level's
        bound is a function of its plane count alone — summed exactly as
        :attr:`current_error_bound` sums them, so the two agree to the
        bit once the request has run.
        """
        kappa = self._ref.kappa
        planned = self._plan(check_error_bound(eb))
        return float(sum(
            kappa * dec.stream.error_bound(k) for dec, k in zip(self._decoders, planned)
        ))

    def _consumed(self) -> tuple:
        return tuple(dec.planes_consumed for dec in self._decoders)

    def plan_token(self) -> tuple:
        """Plan-cache state token: coarse fetched? + planes consumed per level."""
        return ("pmgard", self._coarse is None, self._consumed())

    def use_executor(self, executor) -> None:
        """Run plane decode through *executor* (bit-identical to inline)."""
        for dec in self._decoders:
            dec.use_executor(executor)

    def request(self, eb: float) -> np.ndarray:
        eb = check_error_bound(eb)
        self._fetch_coarse()
        self._requested = True
        if self._decoders:
            planned = self._plan(eb)
            if any(k > d.planes_consumed for k, d in zip(planned, self._decoders)):
                # flagged before decoding: a fetch that fails part-way may
                # already have merged some levels' planes
                self._dirty = True
                self._bytes += self._levels.advance_to(planned)
        return self.reconstruct()

    def reconstruct(self) -> np.ndarray:
        if not self._dirty and self._rec is not None:
            return self._rec
        ref = self._ref
        self._fetch_coarse()
        self._rec = ref.transform.recompose(
            ref.decomp, coefficients=self._levels.reconstruct(), coarse=self._coarse
        )
        self._dirty = False
        return self._rec


class PMGARDResolutionReader:
    """Progression in *resolution*: fetch whole levels, coarsest first.

    PMGARD supports both progression kinds (§II); this reader implements
    the resolution side: ``request_levels(k)`` fetches the coarsest *k*
    coefficient levels at full precision and reconstructs with the finer
    levels zeroed — a band-limited approximation.  The guaranteed bound is
    still computable: unfetched levels contribute at most
    ``kappa * 2**exponent`` each (their alignment exponents live in the
    metadata), fetched levels only their truncation floor.
    """

    def __init__(self, refactored: "PMGARDRefactored"):
        self._ref = refactored
        self._levels = refactored._fused_decoder()
        self._decoders = self._levels.decoders
        self._bytes = 0
        self._coarse: np.ndarray | None = None
        self._levels_fetched = 0  # counted from the coarsest end

    @property
    def bytes_retrieved(self) -> int:
        return self._bytes

    @property
    def num_levels(self) -> int:
        return len(self._decoders)

    @property
    def current_error_bound(self) -> float:
        if self._coarse is None:
            return np.inf
        kappa = self._ref.kappa
        total = 0.0
        for i, dec in enumerate(self._decoders):
            fetched = i >= self.num_levels - self._levels_fetched
            stream = dec.stream
            if stream.exponent is None:
                continue
            planes = stream.num_planes if fetched else 0
            total += kappa * stream.error_bound(planes) if fetched else kappa * (
                2.0 ** stream.exponent
            )
        return float(total)

    def request_levels(self, levels: int) -> np.ndarray:
        """Fetch up to *levels* coarsest coefficient levels (cumulative)."""
        if levels < 0:
            raise ValueError("levels must be >= 0")
        if self._coarse is None:
            self._bytes += len(self._ref.coarse_payload)
            self._coarse = self._ref._decode_coarse()
        target = min(int(levels), self.num_levels)
        first = self.num_levels - target
        self._bytes += self._levels.advance_to(
            [
                dec.stream.num_planes if i >= first else 0
                for i, dec in enumerate(self._decoders)
            ]
        )
        self._levels_fetched = max(self._levels_fetched, target)
        return self.reconstruct()

    def reconstruct(self) -> np.ndarray:
        return self._ref.transform.recompose(
            self._ref.decomp,
            coefficients=self._levels.reconstruct(),
            coarse=self._coarse,
        )


class PMGARDRefactorer(Refactorer):
    """Refactor a variable with multilevel decomposition + bitplanes.

    Parameters
    ----------
    basis:
        ``"hierarchical"`` (PMGARD-HB, default) or ``"orthogonal"``
        (PMGARD).
    num_planes:
        Bitplane precision per level (higher = closer to lossless tail).
    backend:
        Lossless backend for plane payloads.
    max_levels / min_size:
        Decomposition depth controls (see :class:`MultilevelTransform`).
    """

    def __init__(
        self,
        basis: str = HIERARCHICAL,
        num_planes: int = 48,
        backend: str = "zlib",
        max_levels: int | None = None,
        min_size: int = 4,
    ):
        self.transform = MultilevelTransform(basis=basis, max_levels=max_levels, min_size=min_size)
        self.encoder = BitplaneEncoder(num_planes=num_planes, backend=backend)
        self.backend = backend

    def refactor(self, data: np.ndarray) -> PMGARDRefactored:
        data = as_float_array(data)
        decomp = self.transform.decompose(data)
        streams = [self.encoder.encode(c) for c in decomp.coefficients]
        coarse_payload = zlib.compress(decomp.coarse.astype(np.float64).tobytes(), 6)
        # exact coefficients are archival-only; drop them so readers measure
        # retrieval honestly from the encoded streams
        decomp.coefficients = [None] * decomp.num_levels
        return PMGARDRefactored(decomp, streams, coarse_payload, self.transform, self.backend)
