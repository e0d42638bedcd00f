"""Exact round, trip and byte counts of the probe-first round loop.

Counts, never timings.  The loop runs Algorithm 4 *before* it fetches, on
the worst points the session already knows, so a tolerance ladder costs
one real round per rung after the first — and because the probe walks
the same ``c``-ladder from the same Algorithm 3 seed as the paper's
one-round-per-step loop, it lands on the same bounds and moves the same
bytes.  :func:`plain_algorithm2` is that paper loop, written out from
public pieces, as the reference.
"""

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.assigner import assign_eb, reassign_eb
from repro.core.qois import GE_QOIS, total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.data import generators
from repro.storage.archive import Archive
from repro.storage.store import ShardedDiskStore

GE_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
GE_NAMES = ("VTOT", "T", "Mach")
HURRICANE_LADDER = (1e-2, 1e-3, 1e-4)


def plain_algorithm2(refactored: dict, ranges: dict, ladder) -> tuple:
    """The paper's loop: Algorithm 3 seed, one whole round per Algorithm 4
    step, reassignment at the single worst point.  *ladder* is a list of
    request lists; returns ``(rounds per rung, cumulative bytes per rung)``."""
    readers = {v: ref.reader() for v, ref in refactored.items()}
    masks = {v: ref.zero_mask for v, ref in refactored.items() if ref.zero_mask is not None}
    ebs, rounds, cumulative = {}, [], []
    for requests in ladder:
        for v in sorted(set().union(*(r.qoi.variables() for r in requests))):
            seed = assign_eb(ranges[v], [r.tolerance for r in requests if v in r.qoi.variables()])
            ebs[v] = min(ebs.get(v, np.inf), seed)
        for count in range(1, 100):
            env, achieved = {}, {}
            for v in ebs:
                rec = readers[v].request(ebs[v])
                achieved[v] = readers[v].current_error_bound
                if v in masks:
                    rec = masks[v].pin(rec.copy())
                    env[v] = (rec, masks[v].pointwise_eps(achieved[v], rec.shape))
                else:
                    env[v] = (rec, achieved[v])
            failing = []
            for request in requests:
                bound = np.asarray(request.qoi.evaluate(env)[1]).ravel()
                if bound.max() > request.absolute_tolerance:
                    failing.append((request, int(np.argmax(bound))))
            if not failing:
                break
            for request, worst in failing:
                involved = request.qoi.variables()
                tightened = reassign_eb(
                    request.qoi, request.absolute_tolerance,
                    {v: float(env[v][0].ravel()[worst]) for v in involved},
                    {v: min(ebs[v], achieved[v]) for v in involved},
                )
                ebs.update({v: min(ebs[v], e) for v, e in tightened.items()})
        rounds.append(count)
        cumulative.append(sum(reader.bytes_retrieved for reader in readers.values()))
    return rounds, cumulative


def ranges_of(fields: dict) -> dict:
    return {k: float(np.ptp(v)) for k, v in fields.items()}


def ge_ladder(fields: dict) -> list:
    env0 = {k: (v, 0.0) for k, v in fields.items()}
    spans = {q: float(np.ptp(GE_QOIS[q].value(env0))) for q in GE_NAMES}
    return [[QoIRequest(q, GE_QOIS[q], tol, spans[q]) for q in GE_NAMES] for tol in GE_LADDER]


def walk(session, ladder) -> tuple:
    """``(rounds per rung, cumulative reader bytes per rung)``, all satisfied."""
    rounds, cumulative = [], []
    for requests in ladder:
        result = session.retrieve(requests)
        assert result.all_satisfied and not result.degraded
        rounds.append(result.rounds)
        cumulative.append(session.bytes_retrieved())
    return rounds, cumulative


def without_masks(refactored: dict) -> dict:
    """The same representations as an archive written before §V-A held them."""
    for ref in refactored.values():
        ref.zero_mask = None
    return refactored


@pytest.fixture(scope="module", params=[0, 1, 2])
def ge(request):
    fields = generators.ge_cfd(num_nodes=10_000, seed=request.param)
    return fields, refactor_dataset(fields, make_refactorer("pmgard_hb"))


class TestGeLadder:
    def test_one_real_round_per_rung_in_one_open_trip_and_eleven_in_all(self, ge, tmp_path):
        """The ``solo_wan`` session: a fresh handle on a sharded archive,
        a lazy open, VTOT + T + Mach down the ladder."""
        fields, refactored = ge
        with ShardedDiskStore(str(tmp_path)) as store:
            Archive(store).save_dataset(refactored)
        with ShardedDiskStore(str(tmp_path)) as backing:
            loaded = Archive(backing).load_dataset(list(fields))
            assert backing.round_trips == 1
            rounds, _ = walk(QoIRetriever(loaded, ranges_of(fields)).session(), ge_ladder(fields))
            assert rounds == [2, 1, 1, 1]
            # the open, then per real round at most one set of parallel
            # batches (31 trips a session before the probe and the mask)
            assert backing.round_trips <= 11

    def test_same_bytes_as_the_paper_loop_at_the_end_of_the_ladder(self, ge):
        fields, refactored = ge
        ladder = ge_ladder(fields)
        plain_rounds, plain_bytes = plain_algorithm2(refactored, ranges_of(fields), ladder)
        rounds, cumulative = walk(QoIRetriever(refactored, ranges_of(fields)).session(), ladder)
        assert cumulative[-1] == plain_bytes[-1]
        assert sum(rounds) < sum(plain_rounds)
        moved = [
            f"rung {tol:g}: {ours} bytes, paper loop {paper} ({ours / paper - 1:+.1%})"
            for tol, ours, paper in zip(GE_LADDER, cumulative, plain_bytes) if ours != paper
        ]
        if moved:  # an intermediate rung may land one c-step apart; say so
            print("\n".join(moved))

    def test_the_mask_is_what_makes_it_cheap(self, ge):
        """§V-A on and off: the archive's own mask against the same
        representations stripped of it (an archive from before the mask)."""
        fields, refactored = ge
        ladder = ge_ladder(fields)
        masked = QoIRetriever(refactored, ranges_of(fields)).session()
        rounds, cumulative = walk(masked, ladder)
        mask_bytes = sum(
            ref.zero_mask.nbytes for ref in refactored.values() if ref.zero_mask is not None
        )
        assert mask_bytes > 0
        stripped = without_masks(refactor_dataset(fields, make_refactorer("pmgard_hb")))
        bare_rounds, bare_bytes = walk(QoIRetriever(stripped, ranges_of(fields)).session(), ladder)
        assert sum(rounds) < sum(bare_rounds)
        for ours, bare in zip(cumulative, bare_bytes):
            assert ours + mask_bytes < 0.9 * bare  # the bitmap pays for itself at every rung


@pytest.mark.parametrize("seed", range(6))
def test_hurricane_ladder_takes_the_paper_loops_bytes_in_fewer_rounds(seed):
    """The ``fleet_mixed`` timestep: no exact zeros, so no mask — the
    probe alone, and it must not move a byte."""
    fields = generators.hurricane(shape=(16, 48, 48), seed=seed)
    refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
    assert all(ref.zero_mask is None for ref in refactored.values())
    qoi = total_velocity()
    span = float(np.ptp(qoi.value({k: (v, 0.0) for k, v in fields.items()})))
    ladder = [[QoIRequest("vtot", qoi, tol, span)] for tol in HURRICANE_LADDER]
    plain_rounds, plain_bytes = plain_algorithm2(refactored, ranges_of(fields), ladder)
    rounds, cumulative = walk(QoIRetriever(refactored, ranges_of(fields)).session(), ladder)
    assert plain_rounds == [2, 2, 2]
    assert rounds == [2, 1, 1]
    assert cumulative == plain_bytes
