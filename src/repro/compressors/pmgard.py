"""PMGARD / PMGARD-HB: multilevel decomposition + bitplane progression.

The variable is decomposed once by :class:`MultilevelTransform`; each
level's coefficient set becomes one exponent-aligned bitplane group
(:mod:`repro.encoding.bitplane`) and the coarsest approximation is stored
verbatim.  A request for bound ``eb`` fetches planes in one fixed,
byte-priced order (:class:`PlanTable`: each level's bytes-vs-bound convex
hull, levels merged by bound removed per byte) until

    sum_l  kappa * bound_l(k_l)   <=  eb,

where ``bound_l(k)`` is the coefficient bound of level *l* after *k*
planes — ``2**(e - k)``, or for a 1-D variable the tighter bound the
encoder measured where it pays (:mod:`repro.encoding.bitplane`) — and
``kappa`` is the basis-dependent per-level amplification of
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
    CorruptSegmentError,
    FusedBitplaneDecoder,
)
from repro.encoding.lossless import ZlibBackend
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

    #: The archived variable this was loaded as (set by the archive), so
    #: a corrupt segment's error can name it; ``None`` in memory.
    variable = None

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
        retrieval round costs a binary search plus a step or two along
        the order.
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
            self.streams, self.coefficient_layout(), backend=self.backend,
            variable=self.variable,
        )

    def _decode_coarse(self) -> np.ndarray:
        expected = 8 * int(np.prod(self.coarse_shape, dtype=np.int64))
        try:
            raw = ZlibBackend().decompress_bytes(self.coarse_payload, expected)
        except (ValueError, zlib.error) as exc:
            raise CorruptSegmentError(str(exc), self.variable, part="coarse") from None
        if len(raw) != expected:
            raise CorruptSegmentError(
                f"inflates to {len(raw)} bytes, expected {expected}",
                self.variable, part="coarse",
            )
        return np.frombuffer(raw, dtype=np.float64).reshape(self.coarse_shape).copy()

    def reader(self) -> "PMGARDReader":
        return PMGARDReader(self)

    def resolution_reader(self) -> "PMGARDResolutionReader":
        """Open a resolution-progressive reader (coarse levels first)."""
        return PMGARDResolutionReader(self)


def _hull_steps(streams, kappa: float) -> tuple:
    """Each level's lower-convex-hull steps over its (bytes, bound) points.

    Level *l*'s points are ``(bytes of planes 0..k, kappa * bound_l(k))``
    for ``k = 0..P``, with the sign segment counted in plane 0's cost and
    ``bound_l(k)`` the stream's :meth:`~BitplaneStream.error_bound`: the
    measured bound where the stream carries one, else ``2**(e - k)``.
    With ``slope(i, j)`` the bound point *i* removes per byte on its way
    to a later point *j* (``inf`` for free planes, 0 where nothing is
    removed), point ``k > 0`` is a hull vertex when it removes bound at
    all and no way into it is flatter than the steepest way on:
    ``min_i slope(i, k) >= max_j slope(k, j)`` — collinear points stay
    vertices, so steps stay as fine as the hull allows.  A step runs
    between consecutive vertices, so within a level the step slopes never
    rise (a vertex's way in is no flatter than its way on, in the very
    floats compared) and the merge keeps each level's planes in order.
    Returns ``(level, planes, slope, drop)`` arrays, one entry per step,
    the step taking *level* to *planes* planes.  All levels are computed
    at once, padded to the longest by repeating their last bound at a
    byte more each (a padded point removes nothing).
    """
    rows = [l for l, s in enumerate(streams) if s.exponent is not None]
    if not rows:
        return (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2
    n = 1 + max(streams[l].num_planes for l in rows)
    sizes = [streams[l].plane_sizes() for l in rows]
    for row in sizes:
        row += [1] * (n - 1 - len(row))  # padded points: dearer, remove nothing
    cost = np.zeros((len(rows), n))
    np.cumsum(sizes, axis=1, out=cost[:, 1:])
    cost[:, 1:] += np.array([len(streams[l].sign_segment) for l in rows])[:, None]
    # == kappa * s.error_bound(k) bit for bit; padded points repeat the last
    bounds = [b + b[-1:] * (n - len(b)) for b in (streams[l].plane_bounds() for l in rows)]
    bound = kappa * np.array(bounds)
    drop = bound[:, :, None] - bound[:, None, :]  # [r, i, j]: removed i -> j
    slope = cost[:, None, :] - cost[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(drop, slope, out=slope)
    backwards = np.tri(n, dtype=bool)  # [i, j]: j <= i
    np.copyto(slope, 0.0, where=backwards)
    out_best = slope.max(axis=2)
    np.copyto(slope, np.inf, where=backwards)
    in_worst = slope.min(axis=1)
    vertex = (in_worst >= out_best) & (in_worst > 0.0)
    vertex[:, 0] = False  # point 0 starts, never ends, a step
    # a step ends at a vertex and starts at the vertex before it (or 0);
    # slope[r, i, k] with i < k is untouched by the masking above
    start = np.maximum.accumulate(np.where(vertex, np.arange(n), 0), axis=1)
    start[:, 1:] = start[:, :-1].copy()
    r_idx, k_idx = np.nonzero(vertex)
    i_idx = start[r_idx, k_idx]
    return (
        np.asarray(rows, dtype=np.int64)[r_idx], k_idx,
        slope[r_idx, i_idx, k_idx], bound[r_idx, i_idx] - bound[r_idx, k_idx],
    )


class PlanTable:
    """The byte-priced plane order of one refactored variable.

    Every level's (bytes, bound) curve is reduced to its lower convex
    hull (:func:`_hull_steps`) and the hull steps of all levels are
    merged by descending slope — bound removed per byte, ties by
    (level, plane) — into one fixed order.  This is the post-compression
    rate-distortion truncation of EBCOT (Taubman, IEEE TIP 2000) with
    each level's reported bound ``kappa * bound_l(k)`` as the distortion:
    the measured bound for the planes the stream carries one for
    (``max(2**(e - k - 1), M_k)`` rounded up to 1/256 of ``2**(e - k)``,
    ``M_k`` the largest coefficient still insignificant), ``2**(e - k)``
    elsewhere and for streams archived without it.  A prefix
    ending on a step holds, for its bytes, the smallest bound any choice
    of hull points per level reaches with as few.  Within a level the
    slopes fall, so planes are taken in order, and because the order is
    fixed a tighter bound only extends a plan and a looser one fetches
    nothing.

    A plan for ``eb`` is the shortest prefix of the order whose bound,
    summed in level order exactly as :attr:`PMGARDReader.current_error_bound`
    sums it, is ``<= eb`` (or the whole order).  :meth:`planes_for`
    seeds it with one :func:`numpy.searchsorted` over the cumulative
    bound drops, stopping short of the stop by the rounding slack of the
    two sums; :meth:`plan` steps on along the order from there with the
    exact sum, so the stopping condition and the reported bound agree to
    the bit.  Sizes come from the streams' size index; nothing is
    fetched.
    """

    def __init__(self, streams, kappa: float):
        self.streams = list(streams)
        self.kappa = kappa
        self.num_levels = len(self.streams)
        level, planes, slope, drop = _hull_steps(self.streams, kappa)
        order = np.lexsort((planes, level, -slope))
        level, planes = level[order], planes[order]
        self.cum_drop = np.cumsum(drop[order])
        # column m: planes per level after the first m steps of the order
        table = np.zeros((self.num_levels, order.size + 1), dtype=np.int64)
        table[level, np.arange(1, order.size + 1)] = planes
        self.table = np.maximum.accumulate(table, axis=1)
        self._levels, self._planes = level.tolist(), planes.tolist()
        self.total = self.bound_of([0] * self.num_levels)

    def bound_of(self, planes) -> float:
        """The bound with *planes* per level, summed in level order."""
        kappa = self.kappa
        return float(sum(kappa * s.error_bound(k) for s, k in zip(self.streams, planes)))

    def _seed(self, eb: float) -> int:
        if not self._levels or self.total <= eb:
            return 0
        # ``total - eb`` and the cumsum each round by up to an ulp of
        # ``total`` per term, differently from the level-ordered sum; a
        # seed past the stop would fetch a plane for nothing (the mop-up
        # only adds).  Every step whose cumulative drop is short of
        # ``need`` by more than that slack is surely taken, and so is the
        # one after them.
        slack = (len(self._levels) + self.num_levels + 2) * _EPS * self.total
        need = self.total - eb - slack
        m = int(np.searchsorted(self.cum_drop, need, side="left")) + 1
        return min(m, len(self._levels))

    def planes_for(self, eb: float) -> np.ndarray:
        """Planes per level of the seed prefix: never past :meth:`plan`."""
        return self.table[:, self._seed(eb)]

    def plan(self, eb: float, held=()) -> list:
        """Planes per level meeting *eb*, never fewer than *held*.

        Steps along the order from the seed until the exact
        level-ordered bound is ``<= eb``, or the order runs out (then
        *eb* is below the variable's floor).
        """
        m = self._seed(eb)
        planned = self.table[:, m].tolist()
        for l, k in enumerate(held):
            if k > planned[l]:
                planned[l] = k
        bound = self.bound_of(planned)
        while bound > eb and m < len(self._levels):
            l, k = self._levels[m], self._planes[m]
            m += 1
            if k > planned[l]:
                planned[l] = k
                bound = self.bound_of(planned)
        return planned


class PMGARDReader(ProgressiveReader):
    """Progressive reader taking planes in its variable's byte-priced order.

    Every request plans with the shared :class:`PlanTable`: the shortest
    prefix of the variable's hull order whose bound meets ``eb``, never
    fewer planes than held.  The reported bound is ``kappa * sum_l
    bound_l(k_l)`` over the planes held, whatever the order, with each
    level's :meth:`~repro.encoding.bitplane.BitplaneStream.error_bound`.

    The reader's state is the planes it holds per level (``_held``) and
    whether it holds the coarse approximation.  Normally its decoder has
    decoded exactly those planes; after :meth:`adopt` the decoder lags
    behind (it decoded nothing for the adopted state) and catches up from
    the fragments the next time a request goes beyond it.
    """

    def __init__(self, refactored: PMGARDRefactored):
        self._ref = refactored
        self._levels = refactored._fused_decoder()
        self._decoders = self._levels.decoders
        self._held = [0] * len(self._decoders)  # planes per level the state holds
        self._bytes = 0
        self._has_coarse = False  # coarse bytes counted (fetched or adopted)
        self._coarse: np.ndarray | None = None  # decoded coarse approximation
        self._requested = False
        self._rec: np.ndarray | None = None  # reconstruction of the state, once built
        self._plans: tuple = (None, {})  # (planes held, {eb: planes per level})

    # -- byte/bound accounting ----------------------------------------------

    @property
    def bytes_retrieved(self) -> int:
        return self._bytes

    def _level_bound(self, level: int) -> float:
        return self._ref.kappa * self._decoders[level].stream.error_bound(self._held[level])

    @property
    def current_error_bound(self) -> float:
        if not self._requested:
            return np.inf
        return float(sum(self._level_bound(l) for l in range(len(self._decoders))))

    # -- retrieval ------------------------------------------------------------

    def _hold_coarse(self) -> None:
        if not self._has_coarse:
            self._bytes += len(self._ref.coarse_payload)
            self._has_coarse = True

    def _hold(self, planned) -> None:
        """Move the state to *planned* planes per level, counting their bytes."""
        moved = False
        for l, (dec, k) in enumerate(zip(self._decoders, planned)):
            held = self._held[l]
            if k > held and dec.stream.exponent is not None:
                self._bytes += dec.stream.segment_bytes(held, k)
                moved = True
        if moved:
            self._held = list(planned)
            self._rec = None

    def _plan(self, eb: float) -> list:
        """Planes per level meeting *eb* (:meth:`PlanTable.plan`).

        A round plans the same state up to three times (the round's
        segments, the widened segments, then the request itself), so
        plans are kept until a level moves — keyed on the exact float
        *eb*, never quantized, like the shared planner's memo.
        """
        held = self._consumed()
        if self._plans[0] != held:
            self._plans = (held, {})
        plans = self._plans[1]
        planned = plans.get(eb)
        if planned is None:
            planned = plans[eb] = self._plan_uncached(eb)
        return planned

    def _plan_uncached(self, eb: float) -> list:
        return self._ref.plan_table().plan(eb, self._held)

    def plan_segments(self, eb: float) -> list:
        """Archive segments ``request(eb)`` would consume (no fetching)."""
        eb = check_error_bound(eb)
        segments = []
        if not self._has_coarse:
            segments.append(COARSE_SEGMENT)
        if self._decoders:
            for level, k in enumerate(self._plan(eb)):
                stream, held = self._decoders[level].stream, self._held[level]
                if stream.exponent is None or k <= held:
                    continue
                if held == 0:
                    segments.append(pmgard_signs_segment(level))
                names = pmgard_plane_segments(level, stream.num_planes)
                segments.extend(names[held:k])
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
        return tuple(self._held)

    def plan_token(self) -> tuple:
        """Plan-cache state token: coarse fetched? + planes consumed per level."""
        return ("pmgard", not self._has_coarse, self._consumed())

    def state_after(self, eb: float) -> tuple:
        """The :meth:`plan_token` ``request(eb)`` leaves (no fetching).

        The reconstruction is a pure function of it: one coarse
        approximation plus the planes per level, and decode is
        bit-identical however the planes arrived.
        """
        return ("pmgard", False, tuple(self._plan(check_error_bound(eb))))

    def request(self, eb: float) -> np.ndarray:
        eb = check_error_bound(eb)
        self._hold_coarse()
        self._requested = True
        planned = self._plan(eb)
        if any(k > held for k, held in zip(planned, self._held)):
            # decode first: a fetch that fails part-way merges nothing,
            # and the state does not move
            self._levels.advance_to(planned)
            self._hold(planned)
        return self.reconstruct()

    def adopt(self, eb: float, reconstruction: np.ndarray) -> np.ndarray:
        """Take the state ``request(eb)`` leaves, with its reconstruction given.

        Bytes and bounds are counted exactly as the request would count
        them; nothing is fetched or decoded.  The decoder catches up from
        the fragments only when a later request goes beyond this state.
        """
        eb = check_error_bound(eb)
        self._hold_coarse()
        self._requested = True
        self._hold(self._plan(eb))
        self._rec = reconstruction
        return reconstruction

    def reconstruct(self) -> np.ndarray:
        if self._rec is not None:
            return self._rec
        ref = self._ref
        self._hold_coarse()
        if self._coarse is None:
            self._coarse = ref._decode_coarse()
        self._levels.advance_to(self._held)  # catches up after an adopt
        self._rec = ref.transform.recompose(
            ref.decomp, coefficients=self._levels.reconstruct(), coarse=self._coarse
        )
        return self._rec


class PMGARDResolutionReader:
    """Progression in *resolution*: fetch whole levels, coarsest first.

    PMGARD supports both progression kinds (§II); this reader implements
    the resolution side: ``request_levels(k)`` fetches the coarsest *k*
    coefficient levels at full precision and reconstructs with the finer
    levels zeroed — a band-limited approximation.  The guaranteed bound is
    still computable: unfetched levels contribute at most
    ``kappa * 2**exponent`` each (their alignment exponents live in the
    metadata), fetched levels only their truncation floor, and a level
    archived as zero its largest magnitude.
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
        first = self.num_levels - self._levels_fetched
        return float(sum(
            kappa * dec.stream.error_bound(dec.stream.num_planes if i >= first else 0)
            for i, dec in enumerate(self._decoders)
        ))

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
        measure = self.transform.kappa_is_exact(data.ndim)
        streams = [self.encoder.encode(c, measure) for c in decomp.coefficients]
        coarse_payload = zlib.compress(decomp.coarse.astype(np.float64).tobytes(), 6)
        # exact coefficients are archival-only; drop them so readers measure
        # retrieval honestly from the encoded streams
        decomp.coefficients = [None] * decomp.num_levels
        return PMGARDRefactored(decomp, streams, coarse_payload, self.transform, self.backend)
