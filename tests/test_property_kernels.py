"""Property tests: vectorized kernels are bit-exact vs. the scalar references.

The vectorized bitplane / Huffman / plane-planning kernels replaced
per-plane and per-symbol loops (kept in :mod:`repro.encoding.reference`).
These tests drive both implementations with randomized inputs — including
the edge cases that historically break bit-twiddling code: all-zero
groups, sub-``2**-1000`` magnitudes, single-element groups, single-symbol
alphabets, and length-limited (16-bit) codes — and assert the outputs are
identical bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.pmgard import PlanTable, PMGARDRefactorer, _hull_steps
from repro.compressors.pzfp import PZFPRefactorer
from repro.encoding.bitplane import BitplaneDecoder, BitplaneEncoder
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.reference import (
    ReferenceBitplaneDecoder,
    reference_bitplane_encode,
    reference_coefficient_bounds,
    reference_huffman_decode,
    reference_huffman_encode,
    reference_hull_steps,
    reference_plane_plan,
    reference_pmgard_reconstruct,
)

# ordinary magnitudes plus denormal-era values around the 2**-1000 archive cutoff
_coeff = st.one_of(
    st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
    st.floats(-1e-290, 1e-290, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 2.0**-999, -(2.0**-1001), 2.0**-1040, 1e300]),
)


def _assert_bitplane_equivalent(coeffs, num_planes, planes):
    stream = BitplaneEncoder(num_planes=num_planes).encode(coeffs)
    stream_ref = reference_bitplane_encode(coeffs, num_planes=num_planes)
    assert stream.exponent == stream_ref.exponent
    assert stream.num_planes == stream_ref.num_planes
    dec = BitplaneDecoder(stream)
    dec_ref = ReferenceBitplaneDecoder(stream_ref)
    for k in planes:
        dec.advance_to(k)
        dec_ref.advance_to(k)
        assert np.array_equal(dec._mags, dec_ref._mags)
        rec = dec.reconstruct()
        rec_ref = dec_ref.reconstruct()
        # bit-exact: same values *and* same signed zeros
        assert np.array_equal(rec, rec_ref)
        assert np.array_equal(np.signbit(rec), np.signbit(rec_ref))


class TestBitplaneBitExact:
    @given(
        hnp.arrays(np.float64, st.integers(1, 200), elements=_coeff),
        st.integers(1, 62),
        st.lists(st.integers(0, 70), min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_groups(self, coeffs, num_planes, schedule):
        _assert_bitplane_equivalent(coeffs, num_planes, schedule)

    @pytest.mark.parametrize(
        "coeffs",
        [
            np.zeros(16),
            np.zeros(1),
            np.full(9, 2.0**-1040),  # below the archive-as-zero cutoff
            np.array([2.0**-999, -(2.0**-1005)]),  # straddling the cutoff
            np.array([-3.25]),  # single element
            np.array([1e308, -1e-308]),  # extreme exponent spread
            np.linspace(-1, 1, 33),  # non-multiple-of-8 group size
        ],
    )
    def test_edge_groups(self, coeffs):
        for num_planes in (1, 8, 17, 48, 62):
            _assert_bitplane_equivalent(coeffs, num_planes, [1, num_planes // 2, 70])

    @given(
        hnp.arrays(np.float64, st.integers(1, 64), elements=_coeff),
        st.integers(1, 62),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_payloads_decode_identically_across_backends(
        self, coeffs, num_planes
    ):
        # raw backend exercises the store-raw framing path end to end
        stream = BitplaneEncoder(num_planes=num_planes, backend="raw").encode(coeffs)
        dec = BitplaneDecoder(stream, backend="raw")
        dec.advance_to(num_planes)
        ref = reference_bitplane_encode(coeffs, num_planes=num_planes, backend="raw")
        dec_ref = ReferenceBitplaneDecoder(ref, backend="raw")
        dec_ref.advance_to(num_planes)
        assert np.array_equal(dec.reconstruct(), dec_ref.reconstruct())


class TestHuffmanBitExact:
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=3000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_matches_reference(self, values):
        sym = np.array(values, dtype=np.int64)
        new = HuffmanCodec().decode(HuffmanCodec().encode(sym))
        ref = reference_huffman_decode(reference_huffman_encode(sym))
        assert np.array_equal(new, sym)
        assert np.array_equal(ref, sym)

    def test_single_symbol_alphabet(self):
        for n in (1, 7, 1024, 5000):
            sym = np.full(n, -42, dtype=np.int64)
            assert np.array_equal(HuffmanCodec().decode(HuffmanCodec().encode(sym)), sym)

    def test_length_limited_16_bit_codes(self):
        # Fibonacci-ish counts build the deepest Huffman trees, forcing the
        # 16-bit length limiter to kick in
        counts = [1, 1]
        while len(counts) < 28:
            counts.append(counts[-1] + counts[-2])
        rng = np.random.default_rng(0)
        sym = rng.permutation(np.repeat(np.arange(len(counts)), counts)).astype(np.int64)
        codec = HuffmanCodec()
        payload = codec.encode(sym)
        assert np.array_equal(codec.decode(payload), sym)
        assert np.array_equal(
            reference_huffman_decode(reference_huffman_encode(sym)), sym
        )

    @given(st.integers(1, 40), st.integers(900, 1200))
    @settings(max_examples=20, deadline=None)
    def test_chunk_boundaries(self, chunk, n):
        # exercise n below / at / above multiples of the chunk size,
        # including the scalar-walk tail path
        rng = np.random.default_rng(chunk * 31 + n)
        sym = rng.integers(-5, 6, size=n).astype(np.int64)
        codec = HuffmanCodec(chunk_size=chunk)
        assert np.array_equal(codec.decode(codec.encode(sym)), sym)


class TestPlanTableMatchesReference:
    def _streams(self, rng, num_levels, spread, wide):
        enc = BitplaneEncoder(num_planes=int(rng.integers(4, 49)))
        streams = []
        for level in range(num_levels):
            if wide:  # each level its own P: the hull pass pads the shorter
                enc = BitplaneEncoder(num_planes=int(rng.integers(4, 49)))
            scale = 2.0 ** float(rng.integers(-spread, spread + 1))
            if rng.random() < 0.2:
                data = np.zeros(8)  # all-zero level (no events)
            else:
                # wide levels carry sign rows dear enough for the hull to
                # skip the points after them
                size = int(rng.integers(1, 4000 if wide else 64))
                data = rng.normal(size=size) * scale
            # most levels carry a measured bound; every fourth plans with
            # 2**(e - k), as a level archived before the bound existed
            streams.append(enc.encode(data, measure=level % 4 != 3))
        return streams

    def _table(self, num_levels, seed, wide):
        rng = np.random.default_rng(seed)
        streams = self._streams(rng, num_levels, spread=20, wide=wide)
        kappa = float(rng.uniform(1.0, 4.0))
        return rng, streams, kappa, PlanTable(streams, kappa)

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.booleans())
    # total/eb ~ 1e13: ``total - eb`` rounds past the exact stop and an
    # unpadded seed would take one step too many
    @example(6, 157727, False)
    @settings(max_examples=60, deadline=None)
    def test_plan_equivalence(self, num_levels, seed, wide):
        rng, streams, kappa, table = self._table(num_levels, seed, wide)
        # the array pass finds the same hull steps as the pair-at-a-time one
        level, planes, slope, drop = _hull_steps(streams, kappa)
        assert sorted(zip(slope.tolist(), level.tolist(), planes.tolist(), drop.tolist())) == sorted(
            reference_hull_steps(streams, kappa)
        )
        for _ in range(4):
            eb = 2.0 ** float(rng.integers(-60, 20))
            planned = table.plan(eb)
            assert planned == reference_plane_plan(streams, kappa, eb)
            # the seed never overshoots the exact stop
            assert all(s <= k for s, k in zip(table.planes_for(eb), planned))
            # and the planned state satisfies the bound whenever achievable
            if table.bound_of(table.table[:, -1]) <= eb:
                assert table.bound_of(planned) <= eb

    @given(
        st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(),
        st.lists(st.integers(-60, 20), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_is_monotone_in_eb(self, num_levels, seed, wide, exponents):
        _, _, _, table = self._table(num_levels, seed, wide)
        plans = [table.plan(2.0**e) for e in sorted(exponents)]
        for tighter, looser in zip(plans, plans[1:]):
            assert all(a >= b for a, b in zip(tighter, looser))
        # from a held tighter state a looser bound takes nothing more
        assert table.plan(2.0 ** max(exponents), held=plans[0]) == plans[0]

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.integers(-60, 20))
    @settings(max_examples=60, deadline=None)
    def test_plan_is_the_shortest_prefix_meeting_eb(self, num_levels, seed, wide, exponent):
        _, _, _, table = self._table(num_levels, seed, wide)
        eb = 2.0**exponent
        planned = table.plan(eb)
        prefixes = [table.table[:, m].tolist() for m in range(table.table.shape[1])]
        m = prefixes.index(planned)  # a plan is a prefix of the one order
        if m:
            assert table.bound_of(prefixes[m - 1]) > eb
        if m < len(prefixes) - 1:
            assert table.bound_of(planned) <= eb


def _piece(kind, n, rng):
    """One stretch of an adversarial field (see TestHullPlansHoldAgainstTruth)."""
    if kind == "zeros":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, float(rng.normal()) * 10.0 ** float(rng.integers(-3, 4)))
    if kind == "ramp":  # linear: every hierarchical detail is zero
        return np.linspace(0.0, float(rng.normal()), n)
    if kind == "noise":  # high-entropy planes: rows framed raw
        return rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 4))
    if kind == "boundary":  # values on and one ulp below powers of two
        return _boundary_group(rng, n)
    if kind == "subnormal":  # normal-sized groups holding subnormal coefficients
        out = rng.normal(size=n) * 1e-290
        out[rng.random(n) < 0.5] = rng.choice([2.0**-1040, -(2.0**-1060), 5e-324, 0.0])
        return out
    spikes = np.zeros(n)  # "spike": a lone coefficient in an empty group
    spikes[int(rng.integers(n))] = float(rng.normal())
    return spikes


class TestHullPlansHoldAgainstTruth:
    """Decoded hull plans against the original data, not another code path.

    Fields are stitched from stretches that produce the streams a
    planner can trip on: all-zero and constant groups (no planes at
    all), subnormal coefficients, values on plane boundaries, rows the
    noise screen frames raw, and one-coefficient groups (fields of a few
    points).  The fields are 1-D, so the encoder measures every level's
    coefficient bound.  For every bound of a ladder the true L-inf error
    is at most the reported bound, and the reported bound at most ``eb``
    whenever the variable's floor allows.  A group whose largest
    magnitude is below ``2**-1000`` but not zero is archived as zero
    with that magnitude as its bound.
    """

    KINDS = ("zeros", "constant", "ramp", "noise", "boundary", "subnormal", "spike")

    @given(
        st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 700)), min_size=1, max_size=3),
        st.sampled_from([4, 9, 20, 32, 48]),
        st.sampled_from(["hierarchical", "orthogonal"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_true_error_within_bound_within_eb(self, pieces, num_planes, basis, seed):
        rng = np.random.default_rng(seed)
        data = np.concatenate([_piece(kind, n, rng) for kind, n in pieces])
        refactorer = PMGARDRefactorer(basis=basis, num_planes=num_planes)
        ref = refactorer.refactor(data)
        table = ref.plan_table()
        floor = table.bound_of(table.table[:, -1])
        reader = ref.reader()
        scale = float(np.max(np.abs(data))) or 1.0
        ebs = scale * 10.0 ** -np.arange(1.0, 10.0)
        for eb in ebs[ebs > 0.0]:  # a subnormal scale underflows
            rec = reader.request(eb)
            bound = reader.current_error_bound
            assert float(np.max(np.abs(rec - data))) <= bound
            if floor <= eb:
                assert bound <= eb

    def test_group_below_archive_cutoff_escapes_the_bound(self):
        """Levels below the cutoff decode to zero within their recorded
        largest magnitude."""
        data = _piece("subnormal", 586, np.random.default_rng(0)) * 1e-10
        reader = PMGARDRefactorer(num_planes=9).refactor(data).reader()
        rec = reader.request(1e-320)
        assert float(np.max(np.abs(rec - data))) <= reader.current_error_bound


# -- fused PMGARD decode ------------------------------------------------------

# odd and even axis lengths in 1-D, 2-D and 3-D
_grid = st.one_of(
    st.tuples(st.integers(5, 300)),
    st.tuples(st.integers(3, 24), st.integers(3, 24)),
    st.tuples(st.integers(3, 9), st.integers(3, 10), st.integers(3, 11)),
)


def _request_planes(reader, planes):
    """Drive the reader's real request path to an exact plane schedule."""
    reader._plan = lambda eb: planes
    return reader.request(1.0)


class TestFusedDecodeMatchesOracle:
    """One coefficient buffer per variable vs. the per-level original.

    The oracle (:func:`reference_pmgard_reconstruct`) decodes each level
    plane by plane, dequantizes it on its own and recomposes through a
    boolean mask per level; the reader must return the same bytes after
    every request, whatever the schedule.
    """

    @given(
        _grid,
        st.sampled_from(["hierarchical", "orthogonal"]),
        st.sampled_from([8, 31, 48]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_request_is_bytes_equal(self, shape, basis, num_planes, seed):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=shape), axis=-1) * 10.0 ** float(rng.integers(-6, 7))
        refactorer = PMGARDRefactorer(basis=basis, num_planes=num_planes, min_size=3)
        ref = refactorer.refactor(data)
        for level, stream in enumerate(ref.streams):
            if rng.random() < 0.25:  # an all-zero level: no exponent, no segments
                ref.streams[level] = refactorer.encoder.encode(np.zeros(stream.shape))
        reader = ref.reader()
        planes = [0] * len(ref.streams)
        returned = []
        for _ in range(4):
            for level in range(len(planes)):
                if rng.random() < 0.6:  # the others keep their planes; a
                    # level still at 0 has not fetched its signs yet
                    planes[level] = min(
                        num_planes, planes[level] + int(rng.integers(0, num_planes // 2 + 2))
                    )
            rec = _request_planes(reader, list(planes))
            consumed = [d.planes_consumed for d in reader._decoders]
            assert consumed == [
                0 if s.exponent is None else k for s, k in zip(ref.streams, planes)
            ]
            assert rec.tobytes() == reference_pmgard_reconstruct(ref, consumed).tobytes()
            returned.append((rec, rec.tobytes()))
        del reader._plan  # back to the real planner, down to the floor
        rec = reader.request(1e-300)
        consumed = [d.planes_consumed for d in reader._decoders]
        assert rec.tobytes() == reference_pmgard_reconstruct(ref, consumed).tobytes()
        # a reconstruction handed out by one rung is never touched by a later one
        for rec, snapshot in returned:
            assert rec.tobytes() == snapshot

    def test_resolution_reader_shares_the_fused_path(self):
        rng = np.random.default_rng(5)
        data = np.cumsum(rng.normal(size=(21, 30)), axis=1)
        ref = PMGARDRefactorer(num_planes=31).refactor(data)
        reader = ref.resolution_reader()
        for levels in range(reader.num_levels + 1):
            rec = reader.request_levels(levels)
            consumed = [d.planes_consumed for d in reader._decoders]
            assert rec.tobytes() == reference_pmgard_reconstruct(ref, consumed).tobytes()


# -- measured coefficient bounds -----------------------------------------------


def _boundary_group(rng, n):
    """Magnitudes exactly on and one ulp below plane boundaries ``2**j``."""
    out = np.ldexp(1.0, rng.integers(-30, 3, size=n))
    below = rng.random(n) < 0.5
    out[below] = np.nextafter(out[below], 0.0)
    return out * rng.choice([-1.0, 1.0], size=n)


_groups = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 200), elements=_coeff),
    st.builds(  # lognormal magnitudes: sparse low binades, ratios well below 1
        lambda seed, n, s: np.random.default_rng(seed).lognormal(0.0, s, n)
        * np.random.default_rng(seed + 1).choice([-1.0, 1.0], n),
        st.integers(0, 2**32 - 1), st.integers(1, 300), st.floats(0.5, 12.0),
    ),
    st.builds(lambda seed, n: _boundary_group(np.random.default_rng(seed), n),
              st.integers(0, 2**32 - 1), st.integers(1, 64)),
)


def _assert_measured_bounds_hold(coeffs, num_planes):
    coeffs = np.asarray(coeffs, dtype=np.float64)
    stream = BitplaneEncoder(num_planes=num_planes).encode(coeffs)
    exact = reference_coefficient_bounds(coeffs, num_planes)
    if exact is None:  # archived as zero: its largest magnitude is the bound
        assert stream.exponent is None
        assert stream.error_bound(0) == float(np.max(np.abs(coeffs), initial=0.0))
        return
    e, P = stream.exponent, num_planes
    start, ratios = stream.window if stream.window is not None else (P, b"")
    stop = start + len(ratios)
    for k in range(P + 1):
        decoder = BitplaneDecoder(stream)
        decoder.advance_to(k)
        decoded = float(np.max(np.abs(decoder.reconstruct() - coeffs)))
        bound = stream.error_bound(k)
        assert decoded <= exact[k] <= bound <= 2.0 ** (e - k), k
        if start <= k < stop:  # the stored byte: M_k / 2**(e - k), rounded up
            step = 2.0 ** (e - k - 8)
            assert ratios[k - start] == np.ceil(exact[k] / step)  # 128..255, never 0
            assert bound == max(np.ceil(exact[k] / step) * step, 2.0 ** (e - k - 1))
        elif stop <= k < P:  # every nonzero coefficient significant
            assert bound == exact[k]
        if k:
            assert bound <= stream.error_bound(k - 1)


class TestMeasuredBoundsHoldAgainstDecode:
    """Every plane's measured bound against the decoded coefficients.

    For every ``k`` the decoded maximum coefficient error is at most the
    unquantized bound (:func:`reference_coefficient_bounds`, a masked
    maximum per plane), which is at most the stream's ``error_bound(k)``,
    which is at most ``2**(e - k)``; the stored bytes are that bound
    rounded up to 1/256 of ``2**(e - k)``, and past the window it is
    exactly ``2**(e - k - 1)``.  Groups hold coefficients exactly on and
    one ulp below plane boundaries, subnormals beside normal maxima,
    magnitudes below the ``2**-1000`` cutoff, one coefficient, or one
    value repeated; precisions run past the 52 planes where the decoder's
    midpoint stays exact.
    """

    @given(_groups, st.integers(1, 62))
    @settings(max_examples=80, deadline=None)
    def test_random_groups(self, coeffs, num_planes):
        _assert_measured_bounds_hold(coeffs, num_planes)

    @pytest.mark.parametrize(
        "coeffs",
        [
            np.array([1.0, 0.5, 0.25, 0.125]),  # on the boundaries
            np.nextafter(np.array([1.0, 0.5, 0.25, 0.125]), 0.0),  # an ulp below
            np.array([1.0 + 2.0**-52, 0.75, -1.5 + 2.0**-51]),  # the midpoint rounds past 52
            np.array([3.0, 5e-324, -(2.0**-1060), 2.0**-1040]),  # subnormals
            np.array([1e30, 2.0**-1040]),  # M_k / 2**(e - k) below 2**-1074
            np.array([-3.25]),  # one coefficient
            np.full(33, 0.1),  # all equal
            np.full(9, 2.0**-1040),  # below the cutoff
            np.array([2.0**-1001, -(2.0**-1070)]),  # below the cutoff, mixed
            np.zeros(5),
        ],
    )
    def test_edge_groups(self, coeffs):
        for num_planes in (1, 2, 9, 48, 53, 54, 62):
            _assert_measured_bounds_hold(coeffs, num_planes)

    def test_pzfp_streams_carry_the_window(self):
        data = np.cumsum(np.random.default_rng(0).normal(size=(9, 11)), axis=-1)
        stream = PZFPRefactorer(num_planes=32).refactor(data).stream
        assert stream.window is not None
        assert stream.error_bound(stream.window[0]) < 2.0 ** (stream.exponent - stream.window[0])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(60,), (9, 11), (5, 6, 7)]),
           st.sampled_from([8, 20, 32]))
    @settings(max_examples=20, deadline=None)
    def test_pzfp_reports_its_measured_bound(self, seed, shape, num_planes):
        """PZFP's one group carries the window too; ``gain**d`` bounds any
        coefficient error, so its reported bound holds on the data."""
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=shape), axis=-1) * 10.0 ** float(rng.integers(-3, 4))
        ref = PZFPRefactorer(num_planes=num_planes).refactor(data)
        reader = ref.reader()
        scale = float(np.max(np.abs(data)))
        for eb in scale * 10.0 ** -np.arange(1.0, 8.0):
            rec = reader.request(eb)
            assert float(np.max(np.abs(rec - data))) <= reader.current_error_bound
