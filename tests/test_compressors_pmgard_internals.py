"""White-box tests for the PMGARD compressors (plane planning, kappa)."""

import numpy as np
import pytest

import repro.encoding.bitplane as bitplane
from repro.compressors.pmgard import PMGARDReader, PMGARDRefactorer


def field(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.linspace(0, 12, n)) + 0.05 * rng.normal(size=n)


class TestRefactoring:
    def test_streams_per_level(self):
        ref = PMGARDRefactorer(basis="hierarchical").refactor(field())
        assert len(ref.streams) == ref.decomp.num_levels
        assert ref.total_bytes > 0

    def test_kappa_matches_transform(self):
        for basis in ("hierarchical", "orthogonal"):
            ref = PMGARDRefactorer(basis=basis).refactor(field())
            assert ref.kappa == ref.transform.kappa(1)

    def test_exact_coefficients_dropped_after_refactor(self):
        ref = PMGARDRefactorer().refactor(field())
        assert all(c is None for c in ref.decomp.coefficients)

    def test_num_planes_bounds_floor(self):
        data = field()
        shallow = PMGARDRefactorer(num_planes=8).refactor(data)
        deep = PMGARDRefactorer(num_planes=56).refactor(data)
        r_shallow = shallow.reader()
        r_deep = deep.reader()
        r_shallow.request(1e-300)
        r_deep.request(1e-300)
        assert r_deep.current_error_bound < r_shallow.current_error_bound


class TestReaderPlanning:
    def test_greedy_peels_dominant_level(self):
        ref = PMGARDRefactorer(basis="hierarchical").refactor(field())
        reader = ref.reader()
        reader.request(1e-2)
        consumed = [d.planes_consumed for d in reader._decoders]
        # something was fetched, and not everything
        assert any(k > 0 for k in consumed)
        assert any(k < s.num_planes for k, s in zip(consumed, ref.streams))

    def test_bound_is_sum_of_level_bounds(self):
        ref = PMGARDRefactorer(basis="hierarchical").refactor(field())
        reader = ref.reader()
        reader.request(1e-3)
        total = sum(
            ref.kappa * d.error_bound for d in reader._decoders
        )
        assert reader.current_error_bound == pytest.approx(total)

    def test_coarse_fetched_once(self):
        ref = PMGARDRefactorer().refactor(field())
        reader = ref.reader()
        reader.request(1e-1)
        b1 = reader.bytes_retrieved
        assert b1 >= len(ref.coarse_payload)
        reader.request(1e-2)
        # the coarse payload is not re-counted
        extra = reader.bytes_retrieved - b1
        assert extra <= sum(s.total_bytes for s in ref.streams)

    def test_reconstruct_cached_until_dirty(self):
        ref = PMGARDRefactorer().refactor(field())
        reader = ref.reader()
        reader.request(1e-2)
        a = reader.reconstruct()
        b = reader.reconstruct()
        assert a is b  # cached
        reader.request(1e-4)
        c = reader.reconstruct()
        assert c is not b

    def test_2d_field(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 30)).cumsum(axis=0).cumsum(axis=1)
        ref = PMGARDRefactorer(basis="orthogonal").refactor(data)
        reader = ref.reader()
        rec = reader.request(1e-3 * np.ptp(data))
        assert np.max(np.abs(rec - data)) <= reader.current_error_bound * (1 + 1e-9)


class TestPlanTable:
    def test_plan_matches_hull_reference_on_ladder(self):
        from repro.encoding.reference import reference_plane_plan

        ref = PMGARDRefactorer(basis="hierarchical", num_planes=40).refactor(field())
        reader = ref.reader()
        planned_ref = [0] * len(ref.streams)
        scale = float(np.max(np.abs(field())))
        for t in range(1, 12):
            eb = scale * 10.0 ** (-t)
            planned_ref = reference_plane_plan(ref.streams, ref.kappa, eb, planned_ref)
            assert reader._plan(eb) == planned_ref
            reader.request(eb)
            assert [d.planes_consumed for d in reader._decoders] == planned_ref

    def test_plan_table_cached_and_shared_across_readers(self):
        ref = PMGARDRefactorer().refactor(field())
        t1 = ref.plan_table()
        assert ref.plan_table() is t1
        r1, r2 = ref.reader(), ref.reader()
        r1.request(1e-3)
        r2.request(1e-3)
        assert ref.plan_table() is t1
        assert [d.planes_consumed for d in r1._decoders] == [
            d.planes_consumed for d in r2._decoders
        ]

    def test_loosening_after_tightening_fetches_nothing(self):
        ref = PMGARDRefactorer().refactor(field())
        reader = ref.reader()
        reader.request(1e-4)
        spent = reader.bytes_retrieved
        consumed = [d.planes_consumed for d in reader._decoders]
        reader.request(1e-1)  # looser bound: readers never regress
        assert reader.bytes_retrieved == spent
        assert [d.planes_consumed for d in reader._decoders] == consumed


class TestTinyInputs:
    def test_smaller_than_min_size(self):
        data = np.array([1.0, 2.0, 3.0])
        ref = PMGARDRefactorer(min_size=4).refactor(data)
        reader = ref.reader()
        rec = reader.request(1e-12)
        np.testing.assert_allclose(rec, data, atol=1e-12)
        assert reader.current_error_bound == 0.0

    def test_constant_field_costs_little(self):
        data = np.full(512, 7.25)
        ref = PMGARDRefactorer().refactor(data)
        reader = ref.reader()
        rec = reader.request(1e-12)
        np.testing.assert_allclose(rec, data, atol=1e-10)
        # all coefficient groups are zero -> only the coarse corner moves
        assert reader.bytes_retrieved == len(ref.coarse_payload)


class TestRoundCost:
    """A round's decode cost does not depend on the level count."""

    def test_dirty_round_dequantizes_once_per_variable(self, monkeypatch):
        ref = PMGARDRefactorer().refactor(field(n=3000))
        assert len(ref.streams) >= 8
        reader = ref.reader()
        calls = {"dequantize": 0, "ldexp": 0}
        dequantize, ldexp = bitplane._dequantize, np.ldexp

        def counting_dequantize(*args):
            calls["dequantize"] += 1
            return dequantize(*args)

        def counting_ldexp(*args, **kwargs):
            calls["ldexp"] += 1
            return ldexp(*args, **kwargs)

        monkeypatch.setattr(bitplane, "_dequantize", counting_dequantize)
        monkeypatch.setattr(np, "ldexp", counting_ldexp)
        for rounds, eb in enumerate([1e-1, 1e-3, 1e-6], start=1):
            reader.request(eb)
            assert calls == {"dequantize": rounds, "ldexp": rounds}
        reader.request(1e-2)  # looser: nothing moved, nothing recomputed
        assert calls == {"dequantize": 3, "ldexp": 3}

    def test_readers_share_the_static_vectors(self):
        ref = PMGARDRefactorer().refactor(field())
        r1, r2 = ref.reader(), ref.reader()
        assert r1._levels.layout is r2._levels.layout is ref.coefficient_layout()
        # every level decodes into a view of the reader's one buffer
        for reader in (r1, r2):
            for dec in reader._decoders:
                assert np.shares_memory(dec._mag_bytes, reader._levels._mag_bytes)
        assert not np.shares_memory(r1._levels._mag_bytes, r2._levels._mag_bytes)

    def test_round_plans_its_state_once(self, monkeypatch):
        ref = PMGARDRefactorer().refactor(field())
        reader = ref.reader()
        planned = []
        plan_uncached = reader._plan_uncached
        monkeypatch.setattr(
            reader, "_plan_uncached", lambda eb: planned.append(eb) or plan_uncached(eb)
        )
        # a round asks three times: its segments, the widened ones, the request
        first = reader.plan_segments(1e-3)
        reader.plan_segments(1e-3 / 2.25)
        assert reader.plan_segments(1e-3) == first
        reader.request(1e-3)
        assert planned == [1e-3, 1e-3 / 2.25]
        # the state moved: the next plan is computed against the new state
        assert reader.plan_segments(1e-3) == []
        assert planned == [1e-3, 1e-3 / 2.25, 1e-3]
        # exact float keys: a neighbouring eb is a different plan
        reader.plan_segments(np.nextafter(1e-3, 0.0))
        assert len(planned) == 4

    def test_failed_fetch_merges_nothing(self):
        ref = PMGARDRefactorer().refactor(field())
        reader = ref.reader()
        reader.request(1e-2)
        before = reader._levels._mag_bytes.copy()
        consumed = [d.planes_consumed for d in reader._decoders]

        class Broken(list):
            def __getitem__(self, plane):
                raise OSError("store down")

        # the coarsest moving level cannot be fetched: no level may advance
        moving = [
            l for l, (k, d) in enumerate(zip(reader._plan(1e-6), reader._decoders))
            if k > d.planes_consumed
        ]
        stream = ref.streams[moving[-1]]
        planes, stream.plane_segments = stream.plane_segments, Broken(stream.plane_segments)
        with pytest.raises(OSError):
            reader.request(1e-6)
        stream.plane_segments = planes
        assert [d.planes_consumed for d in reader._decoders] == consumed
        assert np.array_equal(reader._levels._mag_bytes, before)
        fresh = ref.reader()
        assert reader.request(1e-6).tobytes() == fresh.request(1e-6).tobytes()
