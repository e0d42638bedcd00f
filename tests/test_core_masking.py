"""Tests for the zero-value bitmap (§V-A outlier management)."""

import numpy as np
import pytest

from repro.core.masking import ZeroMask


class TestConstruction:
    def test_from_fields_requires_all_zero(self):
        vx = np.array([0.0, 0.0, 1.0, 0.0])
        vy = np.array([0.0, 2.0, 0.0, 0.0])
        mask = ZeroMask.from_fields(vx, vy)
        np.testing.assert_array_equal(mask.mask, [True, False, False, True])
        assert mask.count == 2

    def test_from_fields_empty_args(self):
        with pytest.raises(ValueError):
            ZeroMask.from_fields()

    def test_multidimensional(self):
        data = np.zeros((4, 5))
        data[1, 2] = 3.0
        mask = ZeroMask.from_fields(data)
        assert mask.count == 19


class TestBehaviour:
    def test_pin_restores_exact_zero(self):
        data = np.array([0.0, 5.0, 0.0])
        mask = ZeroMask.from_fields(data)
        rec = np.array([1e-4, 5.001, -2e-5])
        out = mask.pin(rec)
        np.testing.assert_array_equal(out, [0.0, 5.001, 0.0])
        assert out is rec  # in place

    def test_pointwise_eps(self):
        data = np.array([0.0, 5.0])
        mask = ZeroMask.from_fields(data)
        eps = mask.pointwise_eps(0.1, data.shape)
        np.testing.assert_array_equal(eps, [0.0, 0.1])

    def test_payload_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.choice([0.0, 1.0], size=(13, 7))
        mask = ZeroMask.from_fields(data)
        back = ZeroMask.from_payload(mask.payload, data.shape)
        np.testing.assert_array_equal(back.mask, mask.mask)

    def test_nbytes_small_for_sparse_mask(self):
        data = np.ones(100000)
        data[::1000] = 0.0
        mask = ZeroMask.from_fields(data)
        assert 0 < mask.nbytes < 2000  # packed + zlib'd bitmap is tiny

    def test_negative_zero_counts_as_zero_and_pins_to_positive_zero(self):
        data = np.array([-0.0, 1.0, 0.0])
        mask = ZeroMask.of(data)
        np.testing.assert_array_equal(mask.mask, [True, False, True])
        out = mask.pin(np.array([-1e-9, 1.0, -0.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])
        assert not np.signbit(out).any()

    def test_of_is_none_without_exact_zeros(self):
        assert ZeroMask.of(np.array([1e-300, -1.0, 2.0])) is None


class TestPayload:
    """The packed form is archive bytes: built lazily, kept, and validated."""

    def test_construction_does_not_compress(self, monkeypatch):
        import repro.core.masking as masking

        calls = []
        real = masking.zlib.compress
        monkeypatch.setattr(
            masking.zlib, "compress", lambda *a: calls.append(a) or real(*a)
        )
        mask = ZeroMask(np.array([True, False, True]))
        assert not calls
        first = mask.payload
        assert mask.nbytes == len(first) and mask.payload is first
        assert len(calls) == 1  # compressed once, on first use

    def test_from_payload_keeps_the_payload_it_was_given(self, monkeypatch):
        import repro.core.masking as masking

        payload = ZeroMask(np.arange(21) % 3 == 0).payload
        monkeypatch.setattr(
            masking.zlib, "compress",
            lambda *a: pytest.fail("a loaded mask must not be recompressed"),
        )
        back = ZeroMask.from_payload(payload, (3, 7))
        assert back.payload is payload and back.nbytes == len(payload)
        np.testing.assert_array_equal(back.mask.ravel(), np.arange(21) % 3 == 0)

    @pytest.mark.parametrize("damage", [
        lambda p: p[: len(p) // 2],  # truncated
        lambda p: p[:4] + bytes([p[4] ^ 0xFF]) + p[5:],  # flipped byte
        lambda p: b"",  # empty
        lambda p: b"not a zlib stream",
    ])
    def test_corrupt_payload_is_a_value_error_naming_the_variable(self, damage):
        payload = ZeroMask(np.random.default_rng(0).random(500) < 0.3).payload
        with pytest.raises(ValueError, match="velocity_x"):
            ZeroMask.from_payload(damage(payload), (500,), "velocity_x")

    @pytest.mark.parametrize("shape", [(400,), (10, 10), (4096,)])
    def test_wrong_size_bitmap_is_a_value_error_naming_the_variable(self, shape):
        payload = ZeroMask(np.zeros(500, dtype=bool)).payload
        with pytest.raises(ValueError, match="'w'"):
            ZeroMask.from_payload(payload, shape, "w")
