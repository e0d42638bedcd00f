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

import repro.parallel.executor as executor_module
from repro.compressors.pmgard import PlanTable, PMGARDRefactorer
from repro.encoding.bitplane import BitplaneDecoder, BitplaneEncoder
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.reference import (
    ReferenceBitplaneDecoder,
    reference_bitplane_encode,
    reference_huffman_decode,
    reference_huffman_encode,
    reference_plane_plan,
    reference_pmgard_reconstruct,
)
from repro.parallel.executor import make_executor

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


class TestPlanTableMatchesGreedy:
    def _streams(self, rng, num_levels, spread):
        enc = BitplaneEncoder(num_planes=int(rng.integers(4, 49)))
        streams = []
        for _ in range(num_levels):
            scale = 2.0 ** float(rng.integers(-spread, spread + 1))
            if rng.random() < 0.2:
                data = np.zeros(8)  # all-zero level (no events)
            else:
                data = rng.normal(size=int(rng.integers(1, 64))) * scale
            streams.append(enc.encode(data))
        return streams

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    # total/eb ~ 1e13: ``total - eb`` rounds past the greedy stop and the
    # unpadded seed over-peeled level 5 by one plane ([..., 26] vs 25)
    @example(6, 157727)
    @settings(max_examples=60, deadline=None)
    def test_plan_equivalence(self, num_levels, seed):
        rng = np.random.default_rng(seed)
        streams = self._streams(rng, num_levels, spread=20)
        kappa = float(rng.uniform(1.0, 4.0))
        table = PlanTable(streams, kappa)
        for _ in range(4):
            eb = 2.0 ** float(rng.integers(-60, 20))
            seed_plan = table.planes_for(eb)
            # mop-up mirrors PMGARDReader._plan from a fresh reader
            planned = [int(k) for k in seed_plan]
            bounds = [kappa * s.error_bound(planned[l]) for l, s in enumerate(streams)]
            while sum(bounds) > eb:
                cand = [
                    l
                    for l, s in enumerate(streams)
                    if planned[l] < s.num_planes and bounds[l] > 0.0
                ]
                if not cand:
                    break
                worst = max(cand, key=lambda l: bounds[l])
                planned[worst] += 1
                bounds[worst] = kappa * streams[worst].error_bound(planned[worst])
            assert planned == reference_plane_plan(streams, kappa, eb)
            # and the planned state satisfies the bound whenever achievable
            floor = sum(kappa * s.error_bound(s.num_planes) for s in streams)
            if floor <= eb:
                assert sum(bounds) <= eb


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
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_request_is_bytes_equal(self, shape, basis, num_planes, seed, offload):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=shape), axis=-1) * 10.0 ** float(rng.integers(-6, 7))
        refactorer = PMGARDRefactorer(basis=basis, num_planes=num_planes, min_size=3)
        ref = refactorer.refactor(data)
        for level, stream in enumerate(ref.streams):
            if rng.random() < 0.25:  # an all-zero level: no exponent, no segments
                ref.streams[level] = refactorer.encoder.encode(np.zeros(stream.shape))
        reader = ref.reader()
        with pytest.MonkeyPatch.context() as patch:
            if offload:
                # under the CI ``process`` leg this is the process pool
                reader.use_executor(
                    make_executor(None, workers=2) or make_executor("thread", workers=2)
                )
                # large levels go to the workers, small ones merge inline
                patch.setattr(executor_module, "OFFLOAD_MIN_ELEMENTS", 32)
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
