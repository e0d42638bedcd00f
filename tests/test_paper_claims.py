"""The paper's §VI evaluation (Figs. 2-9, Tables III-IV) as plain assertions.

Every experiment is regenerated at laptop scale on the synthetic
Table III stand-ins: GE-small, S3D, NYX and Hurricane at fixed scales and
seed 0.  Each test asserts the claim the paper draws from its figure, and
every retrieval point asserts the guarantee chain of Definition 1,

    actual QoI error <= estimated bound <= requested tolerance,

with no slack factor.  Nothing here reads a clock: where the paper argues
from time (Table IV, Fig. 9), the test asserts the count the time follows
from.  ``examples/`` prints the tables through ``repro.analysis.reporting``.
"""

import json
from collections import Counter

import numpy as np
import pytest

import repro
from repro.analysis.rate_distortion import (
    primary_rd_sweep,
    qoi_error_sweep,
    qoi_rd_point,
)
from repro.compressors.base import make_refactorer
from repro.compressors.sz3 import SZ3Compressor
from repro.core.masking import ZeroMask
from repro.core.qois import GE_QOIS, molar_product, total_pressure, total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.data.datasets import S3D_PRODUCTS, TABLE3, load_dataset
from repro.encoding.lossless import get_backend
from repro.storage.archive import Archive
from repro.storage.store import DiskFragmentStore, FragmentStore, open_directory_store
from repro.utils.fragment_keys import INDEX_SEGMENT
from repro.transforms.multilevel import MultilevelTransform

#: PSZ3 / PSZ3-delta snapshot ladders, as in §V-B (10 bounds) and §VI-C
#: (18 bounds for the high-precision S3D QoIs).
SNAPSHOT_BOUNDS_10 = tuple(10.0 ** (-i) for i in range(1, 11))
SNAPSHOT_BOUNDS_18 = tuple(10.0 ** (-i) for i in range(1, 19))

METHODS = ("psz3", "psz3_delta", "pmgard_hb")
VELOCITY = ("velocity_x", "velocity_y", "velocity_z")
GE_FIELDS = ("velocity_x", "velocity_z", "pressure", "density")

#: Requested relative bounds: eps'_i = 0.1 * 2^-i (Figs. 2-3) and
#: tau = 0.1 * 2^-i (Figs. 4-8).
PRIMARY_LADDER = [0.1 * 2.0**-i for i in range(1, 21, 2)]
QOI_LADDER = [0.1 * 2.0**-i for i in range(0, 20, 2)]
EFFICIENCY_LADDER = [0.1 * 2.0**-i for i in range(0, 20, 3)]
SESSION_LADDER = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]


def make_method(name: str, bounds=SNAPSHOT_BOUNDS_10):
    """Instantiate a progressive approach; snapshot ladders get *bounds*."""
    if name in ("psz3", "psz3_delta"):
        return make_refactorer(name, relative_bounds=bounds)
    return make_refactorer(name)


def assert_chain(points, context):
    """Definition 1 on every point: actual <= estimated <= requested."""
    for p in points:
        assert p.actual <= p.estimated, (context, p.requested)
        assert p.estimated <= p.requested, (context, p.requested)


def bitrates(points):
    return [p.bitrate for p in points]


def estimation_gap(point):
    return point.estimated / max(point.actual, 1e-300)


def velocity_masks(dataset, qoi):
    """The §V-A wall mask, for QoIs over the velocity components."""
    if "velocity_x" not in qoi.variables():
        return None
    mask = ZeroMask.from_fields(*(dataset.fields[k] for k in VELOCITY))
    return {k: mask for k in VELOCITY}


def qoi_range_of(fields, qoi):
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    return float(np.max(truth) - np.min(truth))


@pytest.fixture(scope="module")
def ge_small():
    return load_dataset("GE-small", scale=0.25, seed=0)  # 5000 nodes x 5 vars


@pytest.fixture(scope="module")
def ge_small_refactored(ge_small):
    return {
        method: refactor_dataset(ge_small.fields, make_method(method))
        for method in METHODS
    }


@pytest.fixture(scope="module")
def s3d():
    return load_dataset("S3D", scale=0.5, seed=0)  # (24, 20, 16) x 8 species


@pytest.fixture(scope="module")
def s3d_refactored(s3d):
    return {
        method: refactor_dataset(s3d.fields, make_method(method, SNAPSHOT_BOUNDS_18))
        for method in METHODS
    }


@pytest.fixture(scope="module")
def nyx():
    return load_dataset("NYX", scale=0.5, seed=0)  # 32^3 x 3


@pytest.fixture(scope="module")
def hurricane():
    return load_dataset("Hurricane", scale=0.35, seed=0)


@pytest.fixture(scope="module")
def pmgard_hb_cache():
    """Lazy per-dataset PMGARD-HB refactorings shared across figures."""
    cache: dict = {}

    def get(dataset):
        if dataset.name not in cache:
            cache[dataset.name] = refactor_dataset(dataset.fields, make_method("pmgard_hb"))
        return cache[dataset.name]

    return get


# -- Table III ---------------------------------------------------------------


def test_table3_dataset_inventory():
    assert len(TABLE3) == 5
    for name, spec in TABLE3.items():
        assert int(spec.num_variables) >= 3, name
        assert load_dataset(name, scale=0.2, seed=0).fields, name


# -- Figs. 2-3: primary data ---------------------------------------------------


@pytest.mark.parametrize("field", GE_FIELDS)
def test_fig2_rate_vs_requested_error(ge_small, field):
    """PSZ3's redundancy costs most; HB beats OB at the tightest request."""
    data = ge_small.fields[field]
    curves = {
        method: primary_rd_sweep(make_method(method).refactor(data), data, PRIMARY_LADDER)
        for method in ("psz3", "psz3_delta", "pmgard", "pmgard_hb")
    }
    final = {method: points[-1].bitrate for method, points in curves.items()}
    assert final["psz3"] > final["psz3_delta"]
    assert final["pmgard_hb"] < final["pmgard"]
    for method, points in curves.items():
        assert_chain(points, (field, method))


@pytest.mark.parametrize("field", GE_FIELDS)
def test_fig3_ob_vs_hb_error_gap(ge_small, field):
    """OB's estimate is the looser one, so it retrieves more (over-retrieval)."""
    data = ge_small.fields[field]
    ob = primary_rd_sweep(make_refactorer("pmgard").refactor(data), data, PRIMARY_LADDER)
    hb = primary_rd_sweep(make_refactorer("pmgard_hb").refactor(data), data, PRIMARY_LADDER)
    assert np.median([estimation_gap(p) for p in ob]) > np.median(
        [estimation_gap(p) for p in hb]
    )
    assert np.mean(bitrates(hb)) < np.mean(bitrates(ob))
    assert_chain(ob, (field, "OB"))
    assert_chain(hb, (field, "HB"))


@pytest.mark.parametrize("field", ["velocity_x", "pressure"])
def test_pzfp_vs_pmgard_hb(ge_small, field):
    """The ZFP-family PZFP honours Definition 1 in the multilevel regime."""
    data = ge_small.fields[field]
    curves = {
        name: primary_rd_sweep(make_refactorer(name).refactor(data), data, PRIMARY_LADDER)
        for name in ("pzfp", "pmgard_hb")
    }
    for name, points in curves.items():
        assert bitrates(points) == sorted(bitrates(points)), name
        assert_chain(points, (field, name))
    final_ratio = curves["pzfp"][-1].bitrate / curves["pmgard_hb"][-1].bitrate
    assert 0.2 < final_ratio < 5.0


def test_resolution_vs_precision(nyx):
    """Both progressions of one PMGARD-HB representation stay under their bound."""
    data = nyx.fields["velocity_x"]
    refactored = make_refactorer("pmgard_hb").refactor(data)
    res_reader = refactored.resolution_reader()
    for k in range(res_reader.num_levels + 1):
        err = float(np.max(np.abs(res_reader.request_levels(k) - data)))
        assert err <= res_reader.current_error_bound, f"levels={k}"
    prec_reader = refactored.reader()
    vrange = float(np.ptp(data))
    for rel_eb in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
        err = float(np.max(np.abs(prec_reader.request(rel_eb * vrange) - data)))
        assert err <= prec_reader.current_error_bound <= rel_eb * vrange, rel_eb


# -- Figs. 4-6: QoI error control ------------------------------------------------


@pytest.mark.parametrize("qoi_name", sorted(GE_QOIS))
def test_fig4_qoi_error_control(ge_small, pmgard_hb_cache, qoi_name):
    qoi = GE_QOIS[qoi_name]
    points = qoi_error_sweep(
        pmgard_hb_cache(ge_small), ge_small.fields, qoi, qoi_name, QOI_LADDER,
        masks=velocity_masks(ge_small, qoi),
    )
    assert_chain(points, ("GE-small", qoi_name))
    assert bitrates(points) == sorted(bitrates(points))  # tighter needs more


def test_fig4_pt_estimation_gap_largest(ge_small, pmgard_hb_cache):
    """PT is the deepest composition, so its estimate is looser than T's."""
    refactored = pmgard_hb_cache(ge_small)
    gaps = {
        name: estimation_gap(
            qoi_rd_point(refactored, ge_small.fields, GE_QOIS[name], name, 1e-4)
        )
        for name in ("T", "PT")
    }
    assert gaps["PT"] > gaps["T"]


@pytest.mark.parametrize("dataset_name", ["nyx", "hurricane"])
def test_fig5_vtot_error_control(dataset_name, request, pmgard_hb_cache):
    """The same VTOT tree controls cosmology and climate velocities."""
    dataset = request.getfixturevalue(dataset_name)
    points = qoi_error_sweep(
        pmgard_hb_cache(dataset), dataset.fields, total_velocity(), "VTOT", QOI_LADDER
    )
    assert_chain(points, (dataset.name, "VTOT"))
    assert bitrates(points) == sorted(bitrates(points))


@pytest.mark.parametrize("product_name", sorted(S3D_PRODUCTS))
def test_fig6_molar_product_control(s3d, pmgard_hb_cache, product_name):
    qoi = molar_product(*S3D_PRODUCTS[product_name])
    points = qoi_error_sweep(
        pmgard_hb_cache(s3d), s3d.fields, qoi, product_name, QOI_LADDER
    )
    assert_chain(points, ("S3D", product_name))


def test_fig6_multiplicative_estimates_tight(s3d, ge_small, pmgard_hb_cache):
    """Products (Theorem 5) estimate more tightly than sqrt-based PT."""
    p_mul = qoi_rd_point(
        pmgard_hb_cache(s3d), s3d.fields, molar_product("x1", "x3"), "x1*x3", 1e-4
    )
    p_sqrt = qoi_rd_point(
        pmgard_hb_cache(ge_small), ge_small.fields, GE_QOIS["PT"], "PT", 1e-4
    )
    assert estimation_gap(p_mul) < estimation_gap(p_sqrt)


# -- Figs. 7-8: retrieval efficiency ---------------------------------------------


@pytest.mark.parametrize("qoi_name", sorted(GE_QOIS))
def test_fig7_method_efficiency(ge_small, ge_small_refactored, qoi_name):
    """PMGARD-HB is monotone and steadier than PSZ3's snapshot staircase."""
    qoi = GE_QOIS[qoi_name]
    curves = {
        method: qoi_error_sweep(
            ge_small_refactored[method], ge_small.fields, qoi, qoi_name,
            EFFICIENCY_LADDER, masks=velocity_masks(ge_small, qoi),
        )
        for method in METHODS
    }
    for method, points in curves.items():
        assert_chain(points, ("GE-small", qoi_name, method))
    hb = bitrates(curves["pmgard_hb"])
    assert hb == sorted(hb)
    psz3 = bitrates(curves["psz3"])
    hb_jump = max(b - a for a, b in zip(hb, hb[1:]))
    psz3_jump = max(abs(b - a) for a, b in zip(psz3, psz3[1:]))
    assert hb_jump <= psz3_jump


@pytest.mark.parametrize("product_name", sorted(S3D_PRODUCTS))
def test_fig8_method_efficiency(s3d, s3d_refactored, product_name):
    """PSZ3 re-fetches snapshots, so its mid-range rates pass PMGARD-HB's."""
    qoi = molar_product(*S3D_PRODUCTS[product_name])
    curves = {
        method: qoi_error_sweep(
            s3d_refactored[method], s3d.fields, qoi, product_name, EFFICIENCY_LADDER
        )
        for method in METHODS
    }
    for method, points in curves.items():
        assert_chain(points, ("S3D", product_name, method))
    hb = bitrates(curves["pmgard_hb"])
    assert hb == sorted(hb)
    mid = slice(2, 6)
    assert np.mean(bitrates(curves["psz3"])[mid]) > np.mean(hb[mid])


def test_session_ladder_cumulative_bytes(ge_small, ge_small_refactored):
    """Cumulative VTOT session bytes on GE-small, pinned per method.

    Over a tightening ladder PSZ3 re-fetches overlapping snapshots while
    PSZ3-delta and PMGARD-HB only fetch what they lack.  PMGARD-HB pays
    more at 1e-1 and 1e-2 and leads from 1e-3 on.  A change to the plane
    order or the bound moves these counts.
    """
    trails = {
        method: _vtot_session_bytes(ge_small, ge_small_refactored[method])
        for method in METHODS
    }
    assert trails == {
        "psz3": [8_471, 20_796, 41_703, 76_652, 118_384],
        "psz3_delta": [7_806, 16_531, 25_294, 34_046, 42_795],
        "pmgard_hb": [13_451, 17_083, 22_559, 27_727, 34_312],
    }


def _vtot_session_bytes(dataset, refactored: dict) -> list:
    """Cumulative session bytes down :data:`SESSION_LADDER` for VTOT."""
    qoi = total_velocity()
    qrange = qoi_range_of(dataset.fields, qoi)
    session = QoIRetriever(refactored, dataset.value_ranges()).session()
    trail = []
    for tol in SESSION_LADDER:
        assert session.retrieve([QoIRequest("VTOT", qoi, tol, qrange)]).all_satisfied, tol
        trail.append(session.bytes_retrieved())
    return trail


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_archive_without_measured_bounds_plans_as_before(
    ge_small, ge_small_refactored, kind, tmp_path
):
    """An index written before the measured coefficient bound — no
    ``window`` on any level — opens, plans and counts bytes exactly as
    PMGARD-HB did with ``2**(e - k)``: the trail pinned above before it,
    in memory and from a directory opened anew."""
    store = FragmentStore() if kind == "memory" else DiskFragmentStore(str(tmp_path))
    Archive(store).save_dataset(ge_small_refactored["pmgard_hb"])
    for name in ge_small.fields:
        index = json.loads(store.get(name, INDEX_SEGMENT))
        assert any("window" in meta for meta in index["streams"])
        for meta in index["streams"]:
            meta.pop("window", None)
        store.put(name, INDEX_SEGMENT, json.dumps(index).encode())
    reopened = store if kind == "memory" else open_directory_store(str(tmp_path))
    loaded = Archive(reopened).load_dataset(list(ge_small.fields))
    assert _vtot_session_bytes(ge_small, loaded) == [13_812, 17_015, 23_024, 29_370, 34_829]


# -- Table IV and Fig. 9: what the times follow from -------------------------------


def test_table4_refactor_passes(ge_small, monkeypatch):
    """PMGARD-HB decomposes once; the snapshot ladders compress per bound.

    This is why PMGARD-HB refactors fastest in Table IV: one
    decomposition per variable against one SZ3 pass per snapshot bound.
    """
    calls = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(SZ3Compressor, "compress")
    count(MultilevelTransform, "decompose")
    vel = {k: ge_small.fields[k] for k in VELOCITY}
    passes = {}
    for method in METHODS:
        calls.clear()
        refactor_dataset(vel, make_method(method))
        passes[method] = dict(calls)
    per_ladder = {"compress": len(SNAPSHOT_BOUNDS_10) * len(vel)}
    assert passes == {
        "psz3": per_ladder,
        "psz3_delta": per_ladder,
        "pmgard_hb": {"decompose": len(vel)},
    }


def test_fig9_transfer_time():
    """Every progressive transfer beats the raw baseline; >1.5x at 1e-5.

    The paper moves 4.67 GB of GE-large velocity over 96 Globus workers.
    Six synthetic blocks give the retrieved fraction and fetch rounds per
    tolerance; the WAN model scales them to the paper's blocks, so the
    speedup depends only on bytes and rounds.
    """
    raw_bytes, num_blocks, measured = int(4.67e9), 96, 6
    blocks = [repro.data.ge_cfd(num_nodes=5000, seed=200 + b) for b in range(measured)]
    refactored = [
        refactor_dataset({k: blk[k] for k in VELOCITY}, repro.make_refactorer("pmgard_hb"))
        for blk in blocks
    ]
    network = repro.GlobusTransferModel(max_streams=num_blocks)
    baseline = network.baseline(raw_bytes, num_blocks)
    qoi = repro.total_velocity()
    fractions, speedups = [], {}
    for tol in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        fraction, rounds = [], []
        for blk, ref in zip(blocks, refactored):
            fields = {k: blk[k] for k in VELOCITY}
            point = qoi_rd_point(ref, fields, qoi, "VTOT", tol)
            fraction.append(point.bytes_retrieved / sum(v.nbytes for v in fields.values()))
            rounds.append(point.rounds)
        sizes = [int(fraction[i % measured] * raw_bytes / num_blocks) for i in range(num_blocks)]
        report = network.transfer(
            sizes, rounds_per_block=[rounds[i % measured] for i in range(num_blocks)]
        )
        assert report.total_time < baseline.total_time, tol
        speedups[tol] = report.speedup_over(baseline)
        fractions.append(float(np.mean(fraction)))
    assert speedups[1e-5] > 1.5
    assert fractions == sorted(fractions)  # tighter tau -> more data


# -- Ablations -----------------------------------------------------------------


def test_ablation_num_planes(ge_small):
    """More planes cost archive space; retrieval at 1e-4 stays nearly flat."""
    vel = {k: ge_small.fields[k] for k in VELOCITY}
    ranges = {k: float(v.max() - v.min()) for k, v in vel.items()}
    qoi = repro.total_velocity()
    qrange = qoi_range_of(vel, qoi)
    archived, retrieved = [], []
    for planes in (24, 32, 48, 60):
        refactored = refactor_dataset(
            vel, repro.PMGARDRefactorer(basis="hierarchical", num_planes=planes)
        )
        result = repro.QoIRetriever(refactored, ranges).retrieve(
            [repro.QoIRequest("VTOT", qoi, 1e-4, qrange)]
        )
        assert result.all_satisfied, planes
        archived.append(sum(r.total_bytes for r in refactored.values()))
        retrieved.append(result.total_bytes)
    assert archived == sorted(archived)
    assert max(retrieved) <= int(min(retrieved) * 1.25)


def test_ablation_entropy_backend(ge_small):
    """zlib beats the raw stream; Huffman beats it on quantization indices."""
    data = ge_small.fields["pressure"]
    eb = 1e-4 * float(np.max(data) - np.min(data))
    sizes = {}
    for backend in ("zlib", "huffman", "raw"):
        comp = SZ3Compressor(backend=backend)
        blob = comp.compress(data, eb)
        assert np.max(np.abs(comp.decompress(blob) - data)) <= eb, backend
        sizes[backend] = blob.nbytes
    assert sizes["zlib"] < sizes["raw"]
    rng = np.random.default_rng(0)
    codes = np.rint(rng.normal(scale=3, size=50_000)).astype(np.int64)
    assert len(get_backend("huffman").compress_ints(codes)) < len(
        get_backend("raw").compress_ints(codes)
    )


def test_ablation_reduction_factor(ge_small, pmgard_hb_cache):
    """Algorithm 4: a gentler factor c never fetches more than an aggressive one."""
    qoi = total_pressure()
    qrange = qoi_range_of(ge_small.fields, qoi)
    ranges = ge_small.value_ranges()
    fetched = {}
    for c in (1.1, 1.5, 2.0, 4.0):
        retriever = QoIRetriever(pmgard_hb_cache(ge_small), ranges, reduction_factor=c)
        result = retriever.retrieve([QoIRequest("PT", qoi, 1e-4, qrange)])
        assert result.all_satisfied, c
        fetched[c] = result.total_bytes
    assert fetched[1.1] <= fetched[4.0]
