"""Tests for the progressive bitplane codec (PMGARD's precision mechanism)."""

import base64
import zlib

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
from repro.encoding.lossless import ZlibBackend, get_backend
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
    """zlib that adds up the calls and the bytes it was asked to compress,
    by either coder (bitplane rows go to :meth:`compress_runs`)."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.seen = 0

    def _count(self, payload):
        self.calls += 1
        self.seen += len(payload)

    def compress_bytes(self, payload):
        self._count(payload)
        return super().compress_bytes(payload)

    def compress_runs(self, payload):
        self._count(payload)
        return super().compress_runs(payload)


def _payload(kind: str, size: int) -> bytes:
    noise = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    if kind == "noise":
        return noise
    if kind == "zeros":
        return bytes(size)
    half = size // 2
    return bytes(half) + noise[half:]


def _encode_rows(bits: np.ndarray, backend, num_planes: int = 8):
    """Encode coefficients whose sign row and every plane row are
    ``packbits(bits)``: ``-(1 - 2**-P)`` where a bit is set, else 0."""
    coeffs = np.where(bits == 1, -(1.0 - 2.0**-num_planes), 0.0)
    encoder = BitplaneEncoder(num_planes=num_planes)
    encoder.backend = backend
    stream = encoder.encode(coeffs)
    row = np.packbits(bits).tobytes()
    segments = [stream.sign_segment, *stream.plane_segments]
    return row, segments


class TestNoiseScreen:
    """Rows whose bit density and bit-transition density both look like
    noise are framed raw without a backend call; every other row goes
    through :func:`_compress_segment` as before."""

    @pytest.mark.parametrize("size", [64, 1000, 4096, 20_000])
    def test_noise_rows_never_reach_the_backend(self, size):
        bits = np.random.default_rng(size).integers(0, 2, 8 * size)
        backend = _CountingZlib()
        row, segments = _encode_rows(bits, backend)
        assert backend.seen == 0
        assert segments == [b"\x00" + row] * 9

    @pytest.mark.parametrize("size", [64, 1000, 20_000])
    @pytest.mark.parametrize("kind", ["alternating", "runs"])
    def test_dense_structured_rows_are_compressed(self, size, kind):
        if kind == "alternating":  # 0x55 repeated: p = 1/2, every bit flips
            bits = np.unpackbits(np.full(size, 0x55, dtype=np.uint8))
        else:  # runs of 32 equal bits at p = 1/2: few flips
            coin = np.random.default_rng(size).integers(0, 2, size // 4)
            bits = np.repeat(coin, 32)
        backend = _CountingZlib()
        _, segments = _encode_rows(bits, backend)
        # every row once; a row of 16 KiB or more is probed first
        assert backend.calls == 9 * (2 if size >= 16384 else 1)
        assert all(segment[:1] == b"\x01" for segment in segments)

    @pytest.mark.parametrize("size", [12, 63])
    def test_short_rows_always_reach_the_backend(self, size):
        # below the screen's 64 bytes, above the 11 that cannot shrink
        bits = np.random.default_rng(size).integers(0, 2, 8 * size)
        backend = _CountingZlib()
        row, segments = _encode_rows(bits, backend)
        assert backend.seen == 9 * size
        for segment in segments:
            assert segment == reference_compress_segment(ZlibBackend(), row)

    @pytest.mark.parametrize("size", [1, 8, 11])
    def test_rows_that_cannot_shrink_never_reach_the_backend(self, size):
        bits = np.random.default_rng(size).integers(0, 2, 8 * size)
        backend = _CountingZlib()
        row, segments = _encode_rows(bits, backend)
        assert backend.calls == 0
        assert segments == [reference_compress_segment(ZlibBackend(), row)] * 9

    def test_repeated_noise_block_is_stored_raw(self):
        # the screen's blind spot: one noise block repeated has noise
        # densities, so it is framed raw though DEFLATE would shrink it
        block = np.random.default_rng(1).integers(0, 2, 8 * 256)
        bits = np.tile(block, 32)
        backend = _CountingZlib()
        row, segments = _encode_rows(bits, backend)
        assert backend.seen == 0
        assert segments == [b"\x00" + row] * 9
        assert len(ZlibBackend().compress_bytes(row)) < len(row) // 4


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
            lambda: generators.hurricane(shape=(16, 48, 48), seed=0),
            lambda: generators.ge_cfd(10_000, seed=0),
        ],
        ids=["hurricane", "ge_cfd", "hurricane_fleet", "ge_cfd_wan"],
    )
    def test_benchmark_data_archives_to_the_oracles_bytes(self, fields, monkeypatch):
        from repro.compressors.base import make_refactorer
        from repro.encoding import bitplane

        fields = fields()

        def segments():
            refactorer = make_refactorer("pmgard_hb")
            return {
                name: [
                    (s.sign_segment, *s.plane_segments)
                    for s in refactorer.refactor(a).streams
                ]
                for name, a in fields.items()
            }

        archived = segments()
        # the oracle: every row, noise or not, through the original probe
        monkeypatch.setattr(bitplane, "_compress_segment", reference_compress_segment)
        monkeypatch.setattr(bitplane, "_NOISE_MIN_BYTES", float("inf"))
        assert archived == segments()


def _short_row(kind: str, size: int) -> bytes:
    if kind == "zeros":
        return bytes(size)
    if kind == "ones":
        return b"\xff" * size
    if kind == "runs":  # alternating runs of 5 bytes
        return bytes(0xFF * ((i // 5) % 2) for i in range(size))
    return np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()


class TestRowFraming:
    """A row of at most 11 bytes is framed raw without a backend call, and
    those are the bytes the full rule (``reference_compress_segment``,
    which compresses every row) frames: no backend shrinks such a row
    past its marker byte.  Longer rows still reach the backend."""

    @pytest.mark.parametrize("backend", ["zlib", "huffman", "raw"])
    @pytest.mark.parametrize("kind", ["zeros", "ones", "runs", "random"])
    def test_rows_of_at_most_11_bytes_match_the_oracle_without_a_call(self, kind, backend):
        counting = _CountingZlib()
        for size in range(1, 12):
            raw = _short_row(kind, size)
            assert _compress_segment(counting, raw) == b"\x00" + raw
            assert reference_compress_segment(get_backend(backend), raw) == b"\x00" + raw
        assert counting.calls == 0

    @pytest.mark.parametrize("kind", ["zeros", "ones", "runs", "random"])
    @pytest.mark.parametrize("size", [12, 13, 40, 4095, 4096])
    def test_longer_rows_reach_the_backend(self, kind, size):
        raw = _short_row(kind, size)
        counting = _CountingZlib()
        framed = _compress_segment(counting, raw)
        assert counting.calls == 1 and counting.seen == size
        assert framed == reference_compress_segment(ZlibBackend(), raw)
        assert _decompress_segment(ZlibBackend(), framed, size) == raw

    def test_a_12_byte_run_is_the_shortest_row_that_compresses(self):
        assert _compress_segment(ZlibBackend(), bytes(12))[:1] == b"\x01"
        assert _compress_segment(ZlibBackend(), bytes(11)) == b"\x00" + bytes(11)

    def test_rows_are_run_length_deflate_and_other_payloads_are_not(self):
        raw = bytes(100) + b"\x0f" * 100
        packer = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        assert _compress_segment(ZlibBackend(), raw) == b"\x01" + packer.compress(raw) + packer.flush()
        assert ZlibBackend().compress_bytes(raw) == zlib.compress(raw, 6)


#: A stream encoded by the level-6 (LZ77) row coder that run-length
#: DEFLATE replaced: :func:`_compat_coeffs` with 20 planes, its sign
#: segment and then its plane segments, concatenated.
_LZ77_SEGMENT_LENGTHS = [18, 26, 39, 39, 35, 35, 35, 35, 35, 35, 36, 34, 35, 31, 13, 13, 13, 13, 13, 13, 13]
_LZ77_SEGMENTS = base64.b64decode(
    "AXic+/8fDfwpPMaAAQAoeBMjAXic+/8fDP5ZHmdAB8xzCiGS/z8AAF46EfEA///+"
    "OOcAAAHGOP///nHHAAAAAAAAAAOOcf///GOOAAAHHHP///AAnHHBxxgcc4HGOBzj"
    "gY44OOOQAADHHOxxjsc47GOOzjjo44yOOcABeJxL7jM8LvG4p/CYxWOZwj6L4zIJ"
    "DAwwZjJMzgAAQ9YQgQF4nEvuMzwu8bin8JjFY5nCPovjMgkMDDBmMkzOAABD1hCB"
    "AXicS+4zPC7xuKfwmMVjmcI+i+MyCQwMMGYyTM4AAEPWEIEBeJxL7jM8LvG4p/CY"
    "xWOZwj6L4zIJDAwwZjJMzgAAQ9YQgQF4nEvuMzwu8bin8JjFY5nCPovjMgkMDDBm"
    "MkzOAABD1hCBAXicS+4zPC7xuKfwmMVjmcI+i+MyCQwMMGYyTM4AAEPWEIEBeJx7"
    "3Fd43OLxnMJzFs9livssj8s8YnBE4T8GKjAAAIVBE0IBeJxT2TYp2lN3ybRL3pmq"
    "Wybd8sxVtVmELqSyAQBTMhGkAXic852sdnJyyslNKTeNcmaa+cxW85lpBmf7QiUT"
    "AFSaEWwBeJzTjJqy1itsqXbQ1JVeV5ZmBW3VxCKwAABPYxGoAXicY2AgBgAAACYA"
    "AQF4nGNgIAYAAAAmAAEBeJxjYCAGAAAAJgABAXicY2AgBgAAACYAAQF4nGNgIAYA"
    "AAAmAAEBeJxjYCAGAAAAJgABAXicY2AgBgAAACYAAQ=="
)


def _compat_coeffs() -> np.ndarray:
    """Steps of 1/4 with a period-17 ripple of 2**-12: exact in binary."""
    i = np.arange(300)
    return ((i // 20) - 7) * 0.25 + ((i * 7919) % 17 - 8) * 2.0**-12


class TestLZ77SegmentsStillDecode:
    """Segments written before rows were run-length coded are one format
    with today's: inflate reads a level-6 stream as it reads an RLE one."""

    def test_pinned_stream_decodes_bit_identically(self):
        today = BitplaneEncoder(num_planes=20).encode(_compat_coeffs())
        cuts = np.cumsum([0, *_LZ77_SEGMENT_LENGTHS])
        sign, *planes = [_LZ77_SEGMENTS[a:b] for a, b in zip(cuts, cuts[1:])]
        pinned = BitplaneEncoder(num_planes=20).encode(_compat_coeffs())
        pinned.sign_segment, pinned.plane_segments = sign, planes
        # the pinned rows are LZ77 streams (header 78 9c), today's RLE (78 01)
        assert sign[:3] == b"\x01\x78\x9c" and today.sign_segment[:3] == b"\x01\x78\x01"
        assert pinned.plane_segments != today.plane_segments
        old, new = BitplaneDecoder(pinned), BitplaneDecoder(today)
        for k in range(21):
            old.advance_to(k)
            new.advance_to(k)
            assert old.reconstruct().tobytes() == new.reconstruct().tobytes(), k
        assert old.reconstruct().tobytes() == _compat_coeffs().tobytes()
