"""The §V-A zero mask travels with the archived variable.

The guarantee, end to end: fields with random exact-zero sets and random
QoI trees go ``refactor_dataset -> Archive.save_dataset ->
load_dataset -> QoIRetriever`` on memory and disk stores, and
every answer is checked against the *originals* — true error
<= reported bound <= tolerance, masked points exactly ``0.0``.  The
format is additive: an archive written before the mask existed opens and
answers as it did, and a variable without exact zeros archives the very
bytes it always has.
"""

import contextlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.base import make_refactorer
from repro.core.expressions import Sqrt, Var
from repro.core.masking import ZeroMask
from repro.core.qois import GE_QOIS
from repro.core.retrieval import (
    QoIRequest,
    QoIRetriever,
    RetrievalSession,
    refactor_dataset,
)
from repro.data import generators
from repro.service.service import RetrievalService
from repro.storage.archive import Archive, encode_fragments
from repro.storage.store import FragmentStore, ShardedDiskStore
from repro.utils.fragment_keys import INDEX_SEGMENT, ZERO_MASK_SEGMENT
from test_core_retrieval import outcome
from test_property_random_qois import VAR_NAMES, expression

ZERO_SHARE = {"none": 0.0, "few": 0.02, "half": 0.5, "all": 1.0}


@contextlib.contextmanager
def open_kind(kind: str):
    """A fresh store of the named kind (directories die with the block)."""
    if kind == "memory":
        yield FragmentStore()
        return
    with tempfile.TemporaryDirectory() as root:
        with ShardedDiskStore(root) as store:
            yield store


def random_fields(seed: int, zeros: str, n: int = 500) -> dict:
    """Positive, smooth-plus-noise fields; each variable gets its *own*
    exact-zero set on top of a shared one (a wall node zeroes them all)."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 7.0, n)
    share = ZERO_SHARE[zeros]
    shared = rng.random(n) < share / 2
    fields = {}
    for i, name in enumerate(VAR_NAMES):
        field = 2.6 + 2.0 * np.sin(t * (i + 1) + rng.uniform(0, 6)) + 0.05 * rng.normal(size=n)
        own = rng.random(n) < share / 2 if share < 1.0 else np.ones(n, dtype=bool)
        field[shared | own] = -0.0 if i == 0 else 0.0  # -0.0 counts as zero
        fields[name] = field
    return fields


def ranges_of(fields: dict) -> dict:
    # Algorithm 3 needs a positive range even for an all-zero variable
    return {k: float(np.ptp(v)) or 1.0 for k, v in fields.items()}


def check_against_originals(request, result, fields, truth):
    """true error <= reported bound (<= tolerance when satisfied), in region."""
    region = np.asarray(request.region, dtype=bool)
    bound = result.estimated_errors[request.name]
    with np.errstate(all="ignore"):
        rec = np.asarray(
            request.qoi.value({k: (result.data[k], 0.0) for k in result.data}), dtype=float
        )
    error = float(np.max(np.abs(np.broadcast_to(rec, truth.shape)[region] - truth[region])))
    assert error <= bound * (1 + 1e-9) + 1e-12 * max(1.0, float(np.max(np.abs(truth[region]))))
    if result.satisfied[request.name]:
        assert bound <= request.absolute_tolerance
    for name, rec_field in result.data.items():
        pinned = rec_field[fields[name] == 0.0]
        assert np.all(pinned == 0.0) and not np.signbit(pinned).any()


@given(
    expr=expression(),
    seed=st.integers(0, 2**31),
    zeros=st.sampled_from(sorted(ZERO_SHARE)),
    kind=st.sampled_from(["memory", "sharded"]),
)
@settings(max_examples=60, deadline=None)
def test_guarantee_holds_through_the_archive_on_every_store(expr, seed, zeros, kind):
    fields = {k: v for k, v in random_fields(seed, zeros).items() if k in expr.variables()}
    with np.errstate(all="ignore"):
        truth = np.asarray(expr.value({k: (v, 0.0) for k, v in fields.items()}), dtype=float)
    truth = np.broadcast_to(truth, next(iter(fields.values())).shape)
    region = np.isfinite(truth)
    if not region.any():
        return  # the tree is singular everywhere on this draw
    qrange = float(np.ptp(truth[region])) or 1.0
    refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
    for name, data in fields.items():
        mask = refactored[name].zero_mask
        assert (mask is None) == (not np.any(data == 0.0))
        if mask is not None:
            np.testing.assert_array_equal(mask.mask, data == 0.0)

    with open_kind(kind) as store:
        Archive(store).save_dataset(refactored)
        loaded = Archive(store).load_dataset(list(fields))
        for name in fields:
            mask, back = refactored[name].zero_mask, loaded[name].zero_mask
            assert (back is None) == (mask is None)
            assert store.has(name, ZERO_MASK_SEGMENT) == (mask is not None)
            if mask is not None:
                np.testing.assert_array_equal(back.mask, mask.mask)
        probed = []
        original = RetrievalSession._probe

        def recording(session, requests, points, readers, ebs):
            probed.extend(p for p in points if p is not None)
            return original(session, requests, points, readers, ebs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RetrievalSession, "_probe", recording)
            archived = QoIRetriever(loaded, ranges_of(fields)).session()
            in_memory = QoIRetriever(refactored, ranges_of(fields)).session()
            for tolerance in (1e-2, 1e-4):
                request = QoIRequest("q", expr, tolerance, qrange, region=region)
                try:
                    result = archived.retrieve([request])
                except RuntimeError:
                    return  # Algorithm 4 met a singular point; no answer to check
                check_against_originals(request, result, fields, truth)
                # and the archive changes nothing about the answer
                assert outcome(in_memory.retrieve([request])) == outcome(result)
        # the probe never looks outside the request's region
        assert all(region.ravel()[p].all() for p in probed)


class TestFormatIsAdditive:
    #: what the commit before the mask wrote for ``(arange(40) - 13.5)**2 + 1``
    DATA = (np.arange(40.0) - 13.5) ** 2 + 1.0
    #: ... and, less each level's "window" (below), what the commit before
    #: the measured coefficient bound wrote
    PARENT_INDEX = {
        "pmgard_hb": (
            '{"kind": "pmgard", "basis": "hierarchical", "max_levels": null, '
            '"min_size": 4, "backend": "zlib", "level_shapes": [[40], [20], [10], [5]], '
            '"coarse_shape": [3], "streams": [{"shape": [20], "exponent": 6, '
            '"num_planes": 48}, {"shape": [10], "exponent": 7, "num_planes": 48}, '
            '{"shape": [5], "exponent": 8, "num_planes": 48}, {"shape": [2], '
            '"exponent": 7, "num_planes": 48}]}'
        ),
        "psz3_delta": (
            '{"kind": "psz3_delta", "shape": [40], "ebs": [65.0, 6.5, 0.65, 0.065, '
            '0.006500000000000001, 0.00065, 6.5e-05, 6.5000000000000004e-06, 6.5e-07, '
            '6.5e-08], "num_snapshots": 10, "has_lossless": true}'
        ),
    }
    PARENT_SEGMENTS = {
        "pmgard_hb": ["coarse"] + [
            f"L{level:02d}_{part}" for level in range(4)
            for part in ["signs"] + [f"p{p:02d}" for p in range(48)]
        ],
        "psz3_delta": [f"snapshot_{i:03d}" for i in range(10)] + ["lossless"],
    }

    #: the one index field added since: each 1-D PMGARD level's measured
    #: coefficient bound (``[first plane, ratio bytes]``)
    WINDOWS = {"pmgard_hb": [[1, "8080808080"], [1, "80808080"], [1, "808080"], [1, ""]]}

    @pytest.mark.parametrize("method", ["pmgard_hb", "psz3_delta"])
    def test_zero_free_variable_archives_what_the_parent_wrote(self, method):
        (refactored,) = refactor_dataset({"x": self.DATA}, make_refactorer(method)).values()
        assert refactored.zero_mask is None
        fragments, index = encode_fragments(refactored)
        store = FragmentStore()
        Archive(store).save("x", refactored)
        assert store.get("x", INDEX_SEGMENT) == json.dumps(index).encode()
        if method in self.WINDOWS:
            assert [meta.pop("window") for meta in index["streams"]] == self.WINDOWS[method]
        assert json.dumps(index) == self.PARENT_INDEX[method]
        assert [segment for segment, _ in fragments] == self.PARENT_SEGMENTS[method]
        assert sorted(store.segments("x")) == sorted(
            self.PARENT_SEGMENTS[method] + [INDEX_SEGMENT]
        )

    @pytest.mark.parametrize("kind", ["memory", "sharded"])
    @pytest.mark.parametrize("method", ["pmgard_hb", "psz3_delta"])
    def test_archive_written_before_the_mask_opens_and_answers_as_it_did(self, method, kind):
        """A walled variable archived by the parent has fragments and an
        index without the field: it loads with no mask and retrieves
        exactly what a mask-less representation retrieves."""
        data = self.DATA.copy()
        data[::7] = 0.0
        refactored = make_refactorer(method).refactor(data)  # the parent's write path
        fragments, index = encode_fragments(refactored)
        assert "zero_mask" not in index
        with open_kind(kind) as old:
            old.put_many([("x", segment, payload) for segment, payload in fragments])
            old.put("x", INDEX_SEGMENT, json.dumps(index).encode())
            loaded = Archive(old).load("x")
            assert loaded.zero_mask is None
            qoi = Sqrt(Var("x") ** 2 + 1.0)
            request = [QoIRequest("q", qoi, 1e-3, float(np.ptp(np.sqrt(data**2 + 1.0))))]
            ranges = {"x": float(np.ptp(data))}
            assert outcome(QoIRetriever({"x": loaded}, ranges).retrieve(request)) == outcome(
                QoIRetriever({"x": refactored}, ranges).retrieve(request)
            )

    @pytest.mark.parametrize("kind", ["memory", "sharded"])
    @pytest.mark.parametrize("method", ["pmgard_hb", "psz3", "psz3_delta"])
    def test_mask_round_trips_for_every_archivable_kind(self, method, kind):
        data = self.DATA.copy()
        data[::7] = 0.0
        (refactored,) = refactor_dataset({"x": data}, make_refactorer(method)).values()
        with open_kind(kind) as store:
            index = Archive(store).save("x", refactored)
            assert index["zero_mask"] == [40]
            assert store.get("x", ZERO_MASK_SEGMENT) == refactored.zero_mask.payload
            back = Archive(store).load("x").zero_mask
        np.testing.assert_array_equal(back.mask, data == 0.0)

    def test_corrupt_mask_segment_fails_the_open_naming_the_variable(self):
        data = self.DATA.copy()
        data[3] = 0.0
        store = FragmentStore()
        Archive(store).save_dataset(refactor_dataset({"x": data}, make_refactorer("pmgard_hb")))
        store.put("x", ZERO_MASK_SEGMENT, store.get("x", ZERO_MASK_SEGMENT)[:5])
        with pytest.raises(ValueError, match="'x'"):
            Archive(store).load("x")


class TestMaskFollowsTheGeneration:
    """A bitmap of superseded data must never pin the new data's points."""

    def test_reregistering_a_variable_replaces_or_removes_its_mask(self):
        walled = np.array([0.0, 1.0, 2.0, 0.0, 4.0, 5.0, 6.0, 7.0] * 8)
        free = walled + 1.0
        other = np.where(np.arange(64) % 5 == 0, 0.0, free)
        refactorer = make_refactorer("pmgard_hb")
        reps = {k: refactor_dataset({"x": v}, refactorer)["x"] for k, v in
                dict(walled=walled, free=free, other=other).items()}
        retriever = QoIRetriever({"x": reps["walled"]}, {"x": 7.0})
        assert retriever._masks["x"] is reps["walled"].zero_mask
        retriever.add_variable("x", reps["free"], 7.0)
        assert "x" not in retriever._masks  # the zero set vanished with the data
        retriever.add_variable("x", reps["other"], 8.0)
        assert retriever._masks["x"] is reps["other"].zero_mask
        explicit = ZeroMask(np.zeros(64, dtype=bool))
        retriever.add_variable("x", reps["walled"], 7.0, mask=explicit)
        assert retriever._masks["x"] is explicit  # an explicit mask still wins
        assert QoIRetriever({"x": reps["walled"]}, {"x": 7.0}, masks={"x": explicit})._masks[
            "x"
        ] is explicit

    def test_mid_session_ingest_swaps_walled_for_wall_free_and_back(self):
        """Over the service: one long-lived session, a ``ge_cfd`` timestep
        replaced by wall-free data and then by differently walled data;
        every answer checked against what the archive holds right then."""
        service = RetrievalService(FragmentStore())
        names = ("velocity_x", "velocity_y", "velocity_z", "pressure", "density")
        versions = [
            generators.ge_cfd(num_nodes=3000, seed=1),
            generators.ge_cfd(num_nodes=3000, seed=2, wall_fraction=0.0),
            generators.ge_cfd(num_nodes=3000, seed=3, wall_fraction=0.2),
        ]
        qois = {q: GE_QOIS[q] for q in ("VTOT", "T", "Mach")}

        def ask(session, data, tolerance):
            env0 = {k: (v, 0.0) for k, v in data.items()}
            truths = {q: qoi.value(env0) for q, qoi in qois.items()}
            result = session.retrieve([
                QoIRequest(q, qoi, tolerance, float(np.ptp(truths[q])))
                for q, qoi in qois.items()
            ])
            assert result.all_satisfied and not result.degraded
            env = {k: (result.data[k], 0.0) for k in result.data}
            for q, qoi in qois.items():
                error = float(np.max(np.abs(qoi.value(env) - truths[q])))
                bound = result.estimated_errors[q]
                assert error <= bound * (1 + 1e-9) <= tolerance * float(np.ptp(truths[q])) * (1 + 1e-9)
            for name in names[:3]:
                walls = data[name] == 0.0
                assert np.all(result.data[name][walls] == 0.0)
                # nothing but the data's own zeros is pinned
                assert not np.any((result.data[name] == 0.0) & ~walls)
            return result

        service.ingest(versions[0], method="pmgard_hb")
        with service.open_session() as session:
            for step, data in enumerate(versions + versions[:1]):
                if step:
                    service.ingest(data, method="pmgard_hb")
                masks = session._retriever._masks
                for tolerance in (1e-2, 1e-4):
                    ask(session, data, tolerance)
                assert set(masks) == {n for n in names if np.any(data[n] == 0.0)}
                for name in masks:
                    np.testing.assert_array_equal(masks[name].mask, data[name] == 0.0)

    def test_reset_variable_drops_what_the_probe_remembers(self):
        fields = generators.ge_cfd(num_nodes=2000, seed=0)
        retriever = QoIRetriever(
            refactor_dataset(fields, make_refactorer("pmgard_hb")),
            {k: float(np.ptp(v)) for k, v in fields.items()},
        )
        session = retriever.session()
        env0 = {k: (v, 0.0) for k, v in fields.items()}
        session.retrieve([
            QoIRequest(q, GE_QOIS[q], 1e-3, float(np.ptp(GE_QOIS[q].value(env0))))
            for q in ("VTOT", "T")
        ])
        assert set(session._worst) == {GE_QOIS["VTOT"].key, GE_QOIS["T"].key}
        session.reset_variable("pressure")  # T reads it, VTOT does not
        assert set(session._worst) == {GE_QOIS["VTOT"].key}
        assert "pressure" not in session._recon and "velocity_x" in session._recon
