"""QoI-preserved progressive retrieval (Algorithms 1 and 2).

The retriever owns a set of progressive readers (one per variable) and
iterates:

1. *probe*: run Algorithm 4 at the points the session already knows to
   be worst — the :data:`PROBE_POINTS` largest bounds of each request's
   last whole-field estimate — on the values in hand, pricing a
   candidate bound by what its reader *would* achieve for it (plane
   metadata, no payload), and tighten until those points pass,
2. request every variable at its current error bound (one real round:
   fetch, decode),
3. evaluate every requested QoI over the whole domain — vectorized, this
   is lines 13–24 of Algorithm 2 — keeping the worst estimated error and
   where the largest bounds are; every tolerance met is the accept test.

The probe only chooses what to ask for: an answer is accepted on the
whole-field estimate of the data actually decoded, never on a probe.
The loop terminates when every QoI tolerance is met, when the progressive
representations bottom out (nothing left to fetch), or after
``max_rounds``.  Because readers are incremental, later rounds only move
the *additional* fragments — the property that makes the whole framework
cheaper than conservative one-shot compression.

Per the paper's quality-assessment methodology (§III-C), tolerances are
*relative*: a request with ``tolerance=1e-4`` and ``qoi_range=r`` demands
an absolute L-infinity QoI error below ``1e-4 * r``.  Pass
``qoi_range=1.0`` to work in absolute units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.compressors.base import Refactored, Refactorer
from repro.core.assigner import DEFAULT_REDUCTION_FACTOR, reassign_eb
from repro.core.estimators import fetch_mask, seed_bounds
from repro.core.expressions import MemoEnv, QoI
from repro.core.masking import refactor_masked
from repro.core.pipeline import (
    DEFAULT_MAX_WORKERS,
    DEFAULT_PIPELINE_DEPTH,
    FetchPipeline,
    PipelineConfig,
)
from repro.storage.resilience import DegradedError, TRANSIENT_ERRORS
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_error_bound, check_positive


#: Points per request Algorithm 4 probes: the largest bounds of the
#: request's last whole-field estimate.  From a measured sweep
#: (``docs/performance.md``): on the GE and hurricane ladders 1, 8, 64
#: and 512 points take the same rounds and end on the same bytes; on 201
#: random QoI trees over noisy fields, where the worst point moves
#: between rounds, 1 / 4 / 8 / 16 / 64 points take 1230 / 1160 / 1148 /
#: 1145 / 1142 rounds for the same bytes (within 0.06%).  8 is the knee:
#: it buys 82 of the 88 rounds there are to save, a probe of 8 points
#: costs what a probe of 1 does, and every further point is one more
#: stale value that all have to pass.
PROBE_POINTS = 8


@dataclass(frozen=True)
class QoIRequest:
    """One entry of an analysis request: a QoI and its tolerance.

    Parameters
    ----------
    name:
        Label used in results.
    qoi:
        The derivable-QoI expression tree.
    tolerance:
        Relative tolerance (absolute when ``qoi_range`` is 1.0).
    qoi_range:
        Value range of the QoI (§III-C's relative-error denominator).
    region:
        Optional boolean mask (QoI-output shaped): the tolerance is
        enforced only where the mask is True — region-of-interest
        retrieval in the spirit of the RoI-preserving compressors the
        paper cites [23].  Bounds outside the region are ignored.

    Construction raises :class:`ValueError` naming the field unless
    ``tolerance > 0`` (NaN fails) and ``qoi_range`` is finite and > 0:
    either would otherwise surface rounds later as a non-converging
    Algorithm 4 or an answer that can never be satisfied.
    """

    name: str
    qoi: QoI
    tolerance: float
    qoi_range: float = 1.0
    region: object = None

    def __post_init__(self):
        check_positive(self.tolerance, name="tolerance")
        check_error_bound(self.qoi_range, name="qoi_range")

    @property
    def absolute_tolerance(self) -> float:
        """The tolerance in QoI units: ``tolerance * qoi_range``."""
        return float(self.tolerance) * float(self.qoi_range)

    def masked_bound(self, bound):
        """Bound array restricted to the region (flat view)."""
        bound = np.asarray(bound)
        if self.region is None:
            return bound.ravel()
        region = np.asarray(self.region, dtype=bool)
        if region.shape != bound.shape:
            raise ValueError(
                f"region shape {region.shape} does not match QoI shape {bound.shape}"
            )
        return bound[region]

    def region_indices(self, shape):
        """Flat indices of the region (all indices when unrestricted)."""
        if self.region is None:
            return None
        return np.flatnonzero(np.asarray(self.region, dtype=bool).ravel())


@dataclass
class RetrievalResult:
    """Outcome of one QoI-preserved retrieval.

    A *degraded* result is still a **valid** one — the progressive
    representation's defining property.  When the round loop stops early
    (deadline reached, or a backend became unavailable after at least
    one full decode round), ``degraded`` is True, ``degraded_reason``
    says why, and ``estimated_errors`` holds the bounds actually
    *achieved*: the data is correct to those (looser) tolerances, and
    ``satisfied`` says per QoI whether the requested tolerance was met
    anyway.
    """

    data: dict
    bytes_per_variable: dict
    estimated_errors: dict  # QoI name -> max estimated absolute error
    satisfied: dict  # QoI name -> bool
    rounds: int
    final_ebs: dict
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    #: True when the loop stopped before meeting every tolerance for an
    #: operational reason (deadline, backend outage) — the bounds in
    #: ``estimated_errors`` are the looser-but-valid achieved ones.
    degraded: bool = False
    #: Why the result is degraded (None when it is not).
    degraded_reason: str | None = None
    #: Always 0: the fetch stage no longer hedges.  Kept because the
    #: benchmark's workloads read it.
    hedged_fetches: int = 0

    @property
    def total_bytes(self) -> int:
        """Bytes moved for this answer, summed over its variables."""
        return int(sum(self.bytes_per_variable.values()))

    @property
    def all_satisfied(self) -> bool:
        """Whether every requested QoI met its tolerance."""
        return all(self.satisfied.values())


def refactor_dataset(variables: dict, refactorer: Refactorer) -> dict:
    """Algorithm 1: refactor every variable of a dataset.

    Returns ``{name: Refactored}``, each carrying its variable's
    exact-zero mask (§V-A) when it has one; value ranges needed by
    Algorithm 3 can be computed from the originals before archiving.
    """
    return {name: refactor_masked(refactorer, data) for name, data in variables.items()}


class QoIRetriever:
    """Algorithm 2: iterative QoI-error-controlled data retrieval.

    Parameters
    ----------
    refactored:
        ``{variable name: Refactored}`` progressive representations.
    value_ranges:
        ``{variable name: max - min}`` of the original data (refactoring
        metadata; required by Algorithm 3).
    masks:
        Optional ``{variable name: ZeroMask}`` pinning known-exact points
        (§V-A), overriding the mask a variable's representation carries
        (``Refactored.zero_mask``, recorded at refactor time and archived
        with it).  Masked points get ``eps = 0`` in QoI estimation and
        their bitmap cost is charged to the retrieval size.
    reduction_factor:
        Algorithm 4's ``c`` (paper default 1.5).
    pipeline_depth / max_workers:
        Fetch/decode pipeline knobs (see
        :class:`~repro.core.pipeline.PipelineConfig`) for variables loaded
        lazily from an archive; for in-memory representations the
        pipeline is inert and the loop identical.
    """

    def __init__(
        self,
        refactored: dict,
        value_ranges: dict,
        masks: dict | None = None,
        reduction_factor: float = DEFAULT_REDUCTION_FACTOR,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ):
        for name in refactored:
            if name not in value_ranges:
                raise ValueError(f"missing value range for variable {name!r}")
            check_positive(value_ranges[name], name=f"range of {name}")
        self._refactored = dict(refactored)
        self._ranges = {k: float(v) for k, v in value_ranges.items()}
        self._masks = {
            name: ref.zero_mask
            for name, ref in self._refactored.items()
            if ref.zero_mask is not None
        }
        self._masks.update(masks or {})
        self.reduction_factor = float(reduction_factor)
        self.pipeline = PipelineConfig(
            pipeline_depth=int(pipeline_depth), max_workers=int(max_workers)
        )
        #: Optional shared :class:`~repro.service.planner.QueryPlanner`
        #: memoizing estimation seeds, ``plan_segments`` results, decoded
        #: reader states and QoI verdicts across sessions; the service
        #: layer wires it (duck-typed so the core never imports the
        #: service tier).
        self.planner = None
        #: Per-variable generation the planner keys its memos on (the
        #: service aliases its session's generation map here).
        self.plan_generations: dict = {}
        #: Optional round sink for the fetch pipeline (the service's
        #: :class:`~repro.service.planner.FetchScheduler`) merging this
        #: session's round fetches with other sessions' concurrently.
        self.fetch_sink = None

    def add_variable(
        self, name: str, refactored, value_range: float, mask=None
    ) -> None:
        """Register another archived variable after construction.

        The service layer resolves variables lazily — a client session may
        reference variables its first request never touched — so the
        retriever must be extensible.  Sessions opened earlier see the new
        variable on their next ``retrieve``.  Re-registering a name
        replaces everything held for it, the mask included: *mask*, else
        the one *refactored* carries, else none — a bitmap of the
        superseded data must never pin the new data's points.
        """
        check_positive(value_range, name=f"range of {name}")
        self._refactored[name] = refactored
        self._ranges[name] = float(value_range)
        if mask is None:
            mask = refactored.zero_mask
        if mask is None:
            self._masks.pop(name, None)
        else:
            self._masks[name] = mask

    def session(self) -> "RetrievalSession":
        """Open a stateful session: successive retrievals reuse fragments.

        This is the progressive workflow end to end — an analyst starts
        with a loose tolerance and tightens later; already-fetched
        fragments are never re-transferred (except by PSZ3, whose
        snapshot redundancy is the point of comparing against it).
        """
        return RetrievalSession(self)

    def retrieve(
        self,
        requests,
        max_rounds: int = 100,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        """Run one retrieval from scratch (a fresh single-use session)."""
        return self.session().retrieve(
            requests, max_rounds=max_rounds, deadline_s=deadline_s
        )

    # -- helpers -------------------------------------------------------------

    def _eps_field(self, variable: str, eps: float, shape: tuple):
        """The bound QoI estimation sees: masked points carry eps = 0."""
        mask = self._masks.get(variable)
        if mask is not None and np.isfinite(eps):
            return mask.pointwise_eps(eps, shape)
        return eps


def _estimate(req: QoIRequest, env) -> tuple:
    """``(estimate, worst points)`` of one request: lines 13-24 of Algorithm 2.

    The estimate is the largest bound inside the request's region; the
    worst points (flat, whole-domain indices of the region's
    :data:`PROBE_POINTS` largest bounds) are where Algorithm 4 probes.
    """
    _, bound = req.qoi.evaluate(env)
    bound = np.asarray(bound)
    masked = req.masked_bound(bound)
    if not masked.size:
        return 0.0, np.zeros(0, dtype=np.intp)
    if masked.size > PROBE_POINTS:
        top = np.argpartition(masked, -PROBE_POINTS)[-PROBE_POINTS:]
    else:
        top = np.arange(masked.size)
    region_idx = req.region_indices(bound.shape)
    return float(np.max(masked[top])), top if region_idx is None else region_idx[top]


class RetrievalSession:
    """Stateful retrieval: readers persist across ``retrieve`` calls.

    Opened via :meth:`QoIRetriever.session`.  Each call runs Algorithm 2
    against the *current* reader state, so a later, tighter request only
    moves the incremental fragments (the defining economy of progressive
    retrieval).  ``bytes_retrieved`` totals are cumulative per variable.
    """

    def __init__(self, retriever: QoIRetriever):
        self._retriever = retriever
        self._readers: dict = {}
        self._ebs: dict = {}
        self._achieved: dict = {}
        #: What Algorithm 4 probes before a round fetches: per variable the
        #: reconstruction last estimated on, per request (structural QoI
        #: key) its variables and the worst points of its last estimate.
        self._recon: dict = {}
        self._worst: dict = {}

    def _reader(self, variable: str):
        if variable not in self._readers:
            self._readers[variable] = self._retriever._refactored[variable].reader()
            self._achieved[variable] = np.inf
        return self._readers[variable]

    def bytes_retrieved(self, variable: str | None = None) -> int:
        """Cumulative bytes fetched in this session."""
        if variable is not None:
            return self._readers[variable].bytes_retrieved if variable in self._readers else 0
        return sum(r.bytes_retrieved for r in self._readers.values())

    def reset_variable(self, variable: str) -> None:
        """Forget this session's reader state for one variable.

        Used by the service layer when a live ingest replaces a
        variable: the old reader decodes fragments of the superseded
        representation, so the next retrieve must open a fresh reader
        (paying the variable's fragments again) rather than mix
        representations.  Also drops it from the cumulative
        ``bytes_retrieved`` totals, and everything remembered about the
        superseded data: its reconstruction, and the worst points of
        every request that read it.
        """
        self._readers.pop(variable, None)
        self._ebs.pop(variable, None)
        self._achieved.pop(variable, None)
        self._recon.pop(variable, None)
        for key in [k for k, (variables, _) in self._worst.items() if variable in variables]:
            del self._worst[key]

    def _plan_segments(self, variable: str, reader, eb: float):
        """One variable's round plan, through the shared planner when wired.

        The planner memoizes on ``(variable, generation, reader state
        token, exact eb)`` — bit-identical to asking the reader, just
        shared across every session of a service.
        """
        planner = self._retriever.planner
        if planner is None:
            return reader.plan_segments(eb)
        return planner.plan_segments(
            reader, variable,
            self._retriever.plan_generations.get(variable, 0), eb,
        )

    def _request(self, variable: str, reader, eb: float) -> tuple:
        """``(reader.request(eb), state key)``, through the shared planner.

        The planner hands the reader a state another session already
        decoded (:meth:`~repro.service.planner.QueryPlanner.request`);
        the array and the counts are bit-identical to decoding it here.
        The state key ``(variable, generation, token)`` names where the
        request left the reader; it is None without a planner or for a
        reader that does not share states.
        """
        planner = self._retriever.planner
        token = None if planner is None else reader.state_after(eb)
        if token is None:
            return reader.request(eb), None
        state = (variable, self._retriever.plan_generations.get(variable, 0), token)
        return planner.request(reader, state, eb), state

    def _verdict(self, req: QoIRequest, env, variables, states) -> tuple:
        """:func:`_estimate`, shared across sessions through the planner.

        *states* maps each variable to the ``(variable, generation,
        state token)`` its bound reconstruction was decoded at; without
        a planner, a structural QoI key, or a token for every variable,
        the request is estimated here.
        """
        planner = self._retriever.planner
        keys = tuple(states.get(v) for v in variables)
        if planner is None or req.qoi.key is None or None in keys:
            return _estimate(req, env)
        region = None
        if req.region is not None:
            region = np.asarray(req.region, dtype=bool)
            region = (region.shape, np.packbits(region).tobytes())
        return planner.verdict(
            (req.qoi.key, region) + keys, variables, lambda: _estimate(req, env)
        )

    def _round_entries(self, involved, readers, ebs, sources, planned, widen) -> list:
        """One round's ``(key, source, segments)`` fetch entries.

        *planned* maps each variable this round decodes to its plan.
        When none of it is missing the round costs no trip and nothing
        is submitted.  Otherwise the trip is being paid anyway, so every
        involved variable's entry is widened to its plan at
        ``eb / widen`` (``widen = c**pipeline_depth``): the fragments
        the next round(s) need if Algorithm 4 tightens that far — a
        warm-up that cannot change any result.  Variables that decode
        nothing this round ride along under a ``None`` key.
        """
        if not any(sources[v].missing(segments) for v, segments in planned.items()):
            return []
        entries = []
        for v in involved:
            if v not in sources:
                continue
            segments = list(planned.get(v, ()))
            ahead = ebs[v] / widen
            if widen > 1.0 and ahead > 0.0:
                known = set(segments)
                segments += [
                    s for s in self._plan_segments(v, readers[v], ahead) or ()
                    if s not in known
                ]
            if segments:
                entries.append((v if v in planned else None, sources[v], segments))
        return entries

    def _remembered(self, req: QoIRequest):
        """The worst points this session knows for *req*, inside its region."""
        remembered = self._worst.get(req.qoi.key)
        if remembered is None:
            return None
        points = remembered[1]
        if req.region is not None:
            points = points[np.asarray(req.region, dtype=bool).ravel()[points]]
        return points

    def _probe(self, requests, points, readers, ebs) -> None:
        """Algorithm 4 before the fetch, on the points the session knows.

        For every request with known worst *points*: estimate them on the
        values in hand with ``eps`` = the bound each reader would report
        for the current *ebs* (:meth:`ProgressiveReader.bound_after` —
        metadata only), and while they miss the tolerance divide the
        request's bounds by ``c`` exactly as Algorithm 4 does; repeat
        over the requests until nothing tightens.  Run after a failed
        round this is the paper's reassignment at the just-estimated
        field's worst points; run at the top of a later call it walks
        the same ``c``-ladder from the same Algorithm 3 seed without
        paying a fetch, a decode and a whole-field estimate per step.
        It only chooses what the round asks for.
        """
        masks = self._retriever._masks
        probing = {}  # request index -> (variables, values at its points, exact there)
        for i, at in enumerate(points):
            if at is not None and at.size:
                variables = sorted(requests[i].qoi.variables())
                probing[i] = (
                    variables,
                    {v: self._recon[v].ravel()[at] for v in variables},
                    {v: masks[v].mask.ravel()[at] for v in variables if v in masks},
                )
        while probing:
            # one pass is one round of the paper's loop, unfetched: every
            # request is priced at what the readers would achieve for the
            # bounds the pass started with
            predicted = {
                v: readers[v].bound_after(ebs[v])
                for v in set().union(*(variables for variables, _, _ in probing.values()))
            }
            tightened = {}
            for i, (variables, values, exact) in probing.items():
                current = {v: min(ebs[v], predicted[v]) for v in variables}
                new_ebs = reassign_eb(
                    requests[i].qoi, requests[i].absolute_tolerance, values, current,
                    c=self._retriever.reduction_factor, exact=exact,
                )
                if new_ebs != current:
                    tightened[i] = probing[i]
                    for v, e in new_ebs.items():
                        ebs[v] = min(ebs[v], e)
            # a request whose points pass keeps passing as others tighten;
            # one whose readers are all at their floor cannot be helped by
            # asking for less — the round decides
            probing = {
                i: entry for i, entry in tightened.items()
                if any(readers[v].bound_after(ebs[v]) < predicted[v] for v in entry[0])
            }

    def retrieve(
        self,
        requests,
        max_rounds: int = 100,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        """Run the QoI-preserved retrieval loop for *requests*.

        *deadline_s* bounds this call's wall time: the loop always runs
        at least one round, then stops tightening once the deadline has
        passed (or the next round's predicted cost would overshoot it)
        and returns the best bounds achieved so far flagged
        ``degraded=True`` — a valid looser answer, never an unbounded
        wait.  The same degraded path absorbs a backend that becomes
        unavailable (:class:`~repro.storage.resilience.DegradedError`,
        an open circuit breaker, exhausted retries) after the first
        complete round; an outage before any data arrives still raises.
        """
        retriever = self._retriever
        requests = list(requests)
        if not requests:
            raise ValueError("at least one QoIRequest is required")
        involved = sorted(set().union(*(r.qoi.variables() for r in requests)))
        missing = [v for v in involved if v not in retriever._refactored]
        if missing:
            raise ValueError(f"QoIs reference unknown variables: {missing}")
        sw = Stopwatch()

        readers = {v: self._reader(v) for v in involved}
        # Algorithm 3, vectorized across variables; the minimum with the
        # session's existing bounds seeds only what is not tightened yet
        request_vars = [r.qoi.variables() for r in requests]
        if retriever.planner is not None:
            # memoized across sessions: the value ranges are part of the
            # key, so a live ingest changing one can never serve stale
            # seeds (and identical request ladders hit without recompute)
            seeds = retriever.planner.seed_bounds(
                tuple(float(retriever._ranges[v]) for v in involved),
                tuple(tuple(v in rv for v in involved) for rv in request_vars),
                tuple(float(r.tolerance) for r in requests),
            )
        else:
            seeds = seed_bounds(
                [retriever._ranges[v] for v in involved],
                [[v in rv for v in involved] for rv in request_vars],
                [r.tolerance for r in requests],
            )
        for v, seed in zip(involved, seeds):
            self._ebs[v] = min(self._ebs.get(v, np.inf), float(seed))
        ebs = self._ebs
        achieved = self._achieved

        # the archive fragment sources of lazily loaded variables; eager or
        # in-memory representations have none and decode without prefetch
        sources = {
            v: retriever._refactored[v].fragment_source
            for v in involved
            if getattr(retriever._refactored[v], "fragment_source", None) is not None
        }
        pipe = (
            FetchPipeline(retriever.pipeline, sink=retriever.fetch_sink)
            if sources else None
        )
        c = retriever.reduction_factor
        deadline = None if deadline_s is None else perf_counter() + float(deadline_s)

        recon: dict = {}
        estimated = {r.name: np.inf for r in requests}
        satisfied = {r.name: False for r in requests}
        requested: dict = {}  # eb each reader was last asked for, this call
        try:
            rounds, degraded_reason = self._run_rounds(
                requests, involved, readers, ebs, achieved, requested,
                recon, estimated, satisfied, sources, pipe, c, sw, max_rounds,
                deadline,
            )
        finally:
            if pipe is not None:
                pipe.close()

        bytes_per_var = {v: readers[v].bytes_retrieved for v in involved}
        for v, mask in retriever._masks.items():
            if v in bytes_per_var:
                bytes_per_var[v] += mask.nbytes
        degraded = degraded_reason is not None and not all(satisfied.values())
        return RetrievalResult(
            data=recon,
            bytes_per_variable=bytes_per_var,
            estimated_errors=estimated,
            satisfied=satisfied,
            rounds=rounds,
            final_ebs={v: ebs[v] for v in involved},
            stopwatch=sw,
            degraded=degraded,
            degraded_reason=degraded_reason if degraded else None,
        )

    def _run_rounds(
        self, requests, involved, readers, ebs, achieved, requested,
        recon, estimated, satisfied, sources, pipe, c, sw, max_rounds,
        deadline=None,
    ) -> tuple:
        """Algorithm 2's round loop over the fetch/decode pipeline.

        Returns ``(rounds, degraded_reason)``.  *deadline* (absolute
        ``perf_counter`` time, or None) stops the loop from starting a
        round once passed — or once the previous round's duration
        predicts the next would overshoot it.  A store outage
        (:class:`DegradedError`, open breaker, exhausted retries) after
        every involved variable has decoded at least once ends the loop
        the same way; the interrupted round's partial decodes keep their
        tighter bounds and the final estimation pass prices the answer
        actually being returned.
        """
        retriever = self._retriever
        rounds = 0
        progressed = False
        degraded_reason = None
        last_round_s = 0.0
        compute_s = 0.0  # this round's reader compute
        decoded: set = set()  # variables this round has decoded
        planned: dict = {}  # variable -> segments this round's decode needs
        # what a round re-estimates is what moved: the environment versions
        # every variable, repeated subtrees of the request forest are
        # computed once per version, and a request keeps its verdict while
        # none of its variables move.  All of it dies with this call.
        env = MemoEnv([req.qoi for req in requests])
        request_vars = [tuple(sorted(req.qoi.variables())) for req in requests]
        verdicts: list = [None] * len(requests)  # (stamp, estimate, worst points)
        # what Algorithm 4 probes: the session's memory until this call's
        # first estimate of a request, that estimate's worst points after
        points: list = [self._remembered(req) for req in requests]
        returned: dict = {}  # variable -> array its reader last returned
        # variable -> (variable, generation, state token) its reader is
        # at, the key its verdicts are shared under (planner only)
        states: dict = {}

        def decode(v: str) -> None:
            # a reader only moves when asked for a *tighter* bound, and by
            # construction it finds the round's planned fragments already
            # memoized (batch-fetched), so this stage is pure compute
            nonlocal progressed
            reader = readers[v]
            rec, states[v] = self._request(v, reader, ebs[v])
            requested[v] = ebs[v]
            bound = reader.current_error_bound
            if bound < achieved[v]:
                progressed = True
            if rec is returned.get(v) and bound == achieved[v]:
                return  # same array, same bound: nothing downstream moved
            returned[v] = rec
            achieved[v] = bound
            mask = retriever._masks.get(v)
            recon[v] = self._recon[v] = mask.pin(rec.copy()) if mask is not None else rec
            env.bind(v, recon[v], retriever._eps_field(v, bound, rec.shape))

        def decode_timed(v: str) -> None:
            nonlocal compute_s
            if v in planned:
                # a concurrent session's fetch may hold a claim on part
                # of the plan: waiting it out is I/O, not decode
                sources[v].await_arrival(planned[v])
            mark = perf_counter()
            try:
                decode(v)
            finally:
                compute_s += perf_counter() - mark
            decoded.add(v)

        def degradable(exc: BaseException) -> bool:
            # a backend outage degrades (valid looser answer) only once
            # every involved variable has at least one reconstruction;
            # before that there is nothing valid to serve, so re-raise
            if not isinstance(exc, (DegradedError,) + TRANSIENT_ERRORS):
                return False
            return all(v in recon for v in involved)

        while rounds < max_rounds:
            if deadline is not None and rounds >= 1:
                now = perf_counter()
                if now >= deadline or now + last_round_s > deadline:
                    degraded_reason = (
                        f"deadline reached after {rounds} round(s); "
                        f"serving bounds achieved so far"
                    )
                    break
            round_started = perf_counter()
            with sw.section("assign"):
                self._probe(requests, points, readers, ebs)
            rounds += 1
            progressed = False
            # plan the full fragment set of every variable this round
            # must move — never asked, or tightened by Algorithm 4
            need = fetch_mask(
                [ebs[v] for v in involved],
                [requested.get(v, np.nan) for v in involved],
            )
            fetch_vars = [v for v, m in zip(involved, need) if m]
            # the fetch/decode stage is timed by hand: "decode" is the
            # reader compute, "fetch" everything else the stage blocked
            # on (pure I/O wait) — ServiceStats sums the split
            stage_started = perf_counter()
            compute_s = 0.0
            decoded.clear()
            planned.clear()

            try:
                if pipe is not None:
                    for v in fetch_vars:
                        if v in sources:
                            segments = self._plan_segments(v, readers[v], ebs[v])
                            if segments is not None:
                                planned[v] = segments
                    # fetch stage: the round's coalesced get_many (through the
                    # sink, or in pool batches); decode in completion order
                    groups = pipe.submit_round(self._round_entries(
                        involved, readers, ebs, sources, planned,
                        c ** pipe.config.pipeline_depth,
                    ))
                    for keys in pipe.iter_groups(groups):
                        for v in keys:
                            decode_timed(v)
                for v in fetch_vars:
                    if v not in decoded:
                        decode_timed(v)
            except Exception as exc:
                if not degradable(exc):
                    raise
                degraded_reason = f"store unavailable: {exc}"
            sw.add("fetch", perf_counter() - stage_started - compute_s)
            sw.add("decode", compute_s)

            with sw.section("estimate"):
                for i, req in enumerate(requests):
                    stamp = env.stamp(request_vars[i])
                    if verdicts[i] is None or verdicts[i][0] != stamp:
                        verdicts[i] = (
                            stamp, *self._verdict(req, env, request_vars[i], states)
                        )
                        points[i] = verdicts[i][2]
                        if req.qoi.key is not None:
                            self._worst[req.qoi.key] = (request_vars[i], points[i])
                    estimated[req.name] = verdicts[i][1]
                    satisfied[req.name] = verdicts[i][1] <= req.absolute_tolerance
            if all(satisfied.values()) or degraded_reason is not None:
                break
            if not progressed and rounds > 1:
                break  # representations exhausted; cannot improve further
            last_round_s = perf_counter() - round_started

        return rounds, degraded_reason
