"""Tests for the progressive bitplane codec (PMGARD's precision mechanism)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import generators
from repro.encoding.bitplane import (
    BitplaneDecoder,
    BitplaneEncoder,
    _compress_segment,
    _decompress_segment,
)
from repro.encoding.lossless import ZlibBackend
from repro.encoding.reference import reference_compress_segment


def _roundtrip(coeffs, planes, num_planes=32):
    enc = BitplaneEncoder(num_planes=num_planes)
    stream = enc.encode(coeffs)
    dec = BitplaneDecoder(stream)
    dec.advance_to(planes)
    return stream, dec


class TestEncodeBasics:
    def test_all_zero_group(self):
        stream, dec = _roundtrip(np.zeros(16), 8)
        assert stream.exponent is None
        assert dec.error_bound == 0.0
        np.testing.assert_array_equal(dec.reconstruct(), np.zeros(16))

    def test_shape_preserved(self):
        coeffs = np.arange(24, dtype=float).reshape(2, 3, 4) - 11.5
        _, dec = _roundtrip(coeffs, 32)
        assert dec.reconstruct().shape == (2, 3, 4)

    def test_invalid_num_planes(self):
        with pytest.raises(ValueError):
            BitplaneEncoder(num_planes=0)
        with pytest.raises(ValueError):
            BitplaneEncoder(num_planes=63)


class TestProgressiveGuarantee:
    def test_error_shrinks_with_planes(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=512)
        enc = BitplaneEncoder(num_planes=40)
        stream = enc.encode(coeffs)
        dec = BitplaneDecoder(stream)
        prev_err = np.inf
        for k in [1, 2, 4, 8, 16, 32, 40]:
            dec.advance_to(k)
            rec = dec.reconstruct()
            err = np.max(np.abs(rec - coeffs))
            assert err <= stream.error_bound(k) * (1 + 1e-12)
            assert err <= prev_err + 1e-15
            prev_err = err

    def test_full_retrieval_near_lossless(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=256)
        stream, dec = _roundtrip(coeffs, 60, num_planes=60)
        rec = dec.reconstruct()
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rec - coeffs)) <= scale * 2**-58

    def test_incremental_fetch_accounting(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=1024)
        enc = BitplaneEncoder(num_planes=32)
        stream = enc.encode(coeffs)
        dec = BitplaneDecoder(stream)
        b1 = dec.advance_to(8)
        b2 = dec.advance_to(16)
        assert b1 == stream.segment_bytes(0, 8)
        assert b2 == stream.segment_bytes(8, 16)
        # advancing to an already-consumed level is free
        assert dec.advance_to(10) == 0
        assert b1 + b2 == stream.segment_bytes(0, 16)

    def test_signs_recovered(self):
        coeffs = np.array([-1.0, 1.0, -0.5, 0.25, -0.125])
        _, dec = _roundtrip(coeffs, 32)
        rec = dec.reconstruct()
        np.testing.assert_array_equal(np.sign(rec), np.sign(coeffs))

    def test_error_bound_monotone_in_planes(self):
        stream = BitplaneEncoder(num_planes=20).encode(np.array([3.7, -1.2]))
        bounds = [stream.error_bound(k) for k in range(21)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 128),
            elements=st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
        ),
        st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_property(self, coeffs, planes):
        enc = BitplaneEncoder(num_planes=32)
        stream = enc.encode(coeffs)
        dec = BitplaneDecoder(stream)
        dec.advance_to(planes)
        rec = dec.reconstruct()
        bound = stream.error_bound(planes)
        assert np.max(np.abs(rec - coeffs)) <= bound * (1 + 1e-9) + 1e-300


class TestAdvanceScheduling:
    """advance_to with non-monotone / repeated targets, and byte accounting
    that matches what decoders actually charge."""

    def _stream(self, n=700, num_planes=24, seed=5):
        rng = np.random.default_rng(seed)
        return BitplaneEncoder(num_planes=num_planes).encode(rng.normal(size=n))

    def test_non_monotone_targets_are_free_and_stateless(self):
        stream = self._stream()
        dec = BitplaneDecoder(stream)
        dec.advance_to(10)
        rec10 = dec.reconstruct().copy()
        # going backwards fetches nothing and changes nothing
        assert dec.advance_to(4) == 0
        assert dec.advance_to(0) == 0
        assert dec.advance_to(-3) == 0
        assert dec.planes_consumed == 10
        np.testing.assert_array_equal(dec.reconstruct(), rec10)
        # resuming forward only charges the gap
        assert dec.advance_to(12) == stream.segment_bytes(10, 12)

    def test_repeated_target_charges_once(self):
        stream = self._stream()
        dec = BitplaneDecoder(stream)
        first = dec.advance_to(7)
        assert first == stream.segment_bytes(0, 7)
        for _ in range(3):
            assert dec.advance_to(7) == 0
        assert dec.planes_consumed == 7

    def test_target_beyond_num_planes_clamps(self):
        stream = self._stream(num_planes=16)
        dec = BitplaneDecoder(stream)
        charged = dec.advance_to(10_000)
        assert dec.planes_consumed == 16
        assert charged == stream.total_bytes
        assert dec.advance_to(10_000) == 0

    def test_zero_group_any_schedule_is_free(self):
        stream = BitplaneEncoder(num_planes=12).encode(np.zeros(40))
        dec = BitplaneDecoder(stream)
        for target in (5, 2, 12, 100, -1):
            assert dec.advance_to(target) == 0
        np.testing.assert_array_equal(dec.reconstruct(), np.zeros(40))

    def test_arbitrary_schedule_totals_match_segment_bytes(self):
        stream = self._stream(num_planes=32)
        rng = np.random.default_rng(0)
        for _ in range(10):
            schedule = rng.integers(0, 40, size=12)
            dec = BitplaneDecoder(stream)
            charged = sum(dec.advance_to(int(t)) for t in schedule)
            reached = dec.planes_consumed
            assert charged == stream.segment_bytes(0, reached)
            # per-plane segment sizes tile the total exactly
            assert charged == (
                len(stream.sign_segment)
                + sum(len(stream.plane_segments[p]) for p in range(reached))
                if reached
                else 0
            )

    def test_state_identical_to_single_shot(self):
        stream = self._stream(num_planes=20)
        stepped = BitplaneDecoder(stream)
        for t in (3, 1, 9, 9, 15, 2, 20):
            stepped.advance_to(t)
        oneshot = BitplaneDecoder(stream)
        oneshot.advance_to(20)
        np.testing.assert_array_equal(stepped.reconstruct(), oneshot.reconstruct())
        np.testing.assert_array_equal(stepped._mags, oneshot._mags)


class TestLegacySegments:
    def test_pre_framing_zlib_archives_still_decode(self):
        # archives written before the raw/compressed marker byte existed
        # carry whole-segment zlib payloads; the decoder must fall back
        from repro.encoding.reference import reference_bitplane_encode

        rng = np.random.default_rng(11)
        data = rng.normal(size=300)
        legacy = reference_bitplane_encode(data, num_planes=24)
        dec = BitplaneDecoder(legacy)
        dec.advance_to(24)
        rec = dec.reconstruct()
        assert np.max(np.abs(rec - data)) <= legacy.error_bound(24) * (1 + 1e-12)


class TestSizeAccounting:
    def test_total_bytes_consistent(self):
        rng = np.random.default_rng(3)
        stream = BitplaneEncoder(num_planes=16).encode(rng.normal(size=300))
        assert stream.total_bytes == stream.segment_bytes(0, 16)
        assert stream.segment_bytes(0, 0) == 0

    def test_zero_group_costs_nothing(self):
        stream = BitplaneEncoder().encode(np.zeros(50))
        assert stream.total_bytes == 0


class _CountingZlib(ZlibBackend):
    """zlib that adds up the bytes it was asked to compress."""

    def __init__(self):
        super().__init__()
        self.seen = 0

    def compress_bytes(self, payload):
        self.seen += len(payload)
        return super().compress_bytes(payload)


def _payload(kind: str, size: int) -> bytes:
    noise = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    if kind == "noise":
        return noise
    if kind == "zeros":
        return bytes(size)
    half = size // 2
    return bytes(half) + noise[half:]


class TestSegmentProbe:
    """The compressibility probe samples long segments and only those.

    ``reference_compress_segment`` is the rule it replaced: a "probe" of
    up to 64 KiB, i.e. the full compression of most segments.
    """

    @pytest.mark.parametrize("kind", ["noise", "zeros", "half"])
    @pytest.mark.parametrize("size", [4096, 8191, 16383])
    def test_short_segments_are_byte_identical_to_the_oracle(self, size, kind):
        raw = _payload(kind, size)
        new, old = _CountingZlib(), _CountingZlib()
        assert _compress_segment(new, raw) == reference_compress_segment(old, raw)
        assert new.seen == old.seen == size  # and by the same zlib calls

    @pytest.mark.parametrize("size", [16384, 65536, 200_000])
    def test_long_noise_costs_one_probe(self, size):
        raw = _payload("noise", size)
        backend = _CountingZlib()
        segment = _compress_segment(backend, raw)
        assert backend.seen <= 4096
        assert segment == b"\x00" + raw == reference_compress_segment(ZlibBackend(), raw)

    def test_long_compressible_segment_still_compresses(self):
        raw = _payload("zeros", 65536)
        segment = _compress_segment(ZlibBackend(), raw)
        assert segment == reference_compress_segment(ZlibBackend(), raw)
        assert segment[:1] == b"\x01" and len(segment) < 200

    def test_mixed_segments_round_trip_either_way(self):
        backend = ZlibBackend()
        noise = _payload("noise", 60_000)
        # compressible prefix, noisy tail: the sample passes, the whole
        # segment is compressed and kept only because it is smaller
        head = bytes(8192) + noise
        framed = _compress_segment(backend, head)
        assert framed == reference_compress_segment(backend, head)
        assert _decompress_segment(backend, framed) == head
        # noisy prefix, compressible tail: the one case the sample calls
        # differently (raw where the oracle compressed) — still lossless
        tail = noise[:8192] + bytes(60_000)
        framed = _compress_segment(backend, tail)
        assert framed == b"\x00" + tail
        assert _decompress_segment(backend, framed) == tail
        assert _decompress_segment(
            backend, reference_compress_segment(backend, tail)
        ) == tail

    @pytest.mark.parametrize(
        "fields",
        [
            lambda: generators.hurricane(shape=(20, 100, 100), seed=0),
            lambda: generators.ge_cfd(60_000, seed=0),
        ],
        ids=["hurricane", "ge_cfd"],
    )
    def test_benchmark_data_archives_to_the_oracles_bytes(self, fields, monkeypatch):
        from repro.compressors.base import make_refactorer
        from repro.encoding import bitplane

        fields = fields()

        def total_bytes():
            refactorer = make_refactorer("pmgard_hb")
            return {name: refactorer.refactor(a).total_bytes for name, a in fields.items()}

        sampled = total_bytes()
        monkeypatch.setattr(bitplane, "_compress_segment", reference_compress_segment)
        assert sampled == total_bytes()
