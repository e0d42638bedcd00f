"""Corrupt archived segments fail with one typed error.

A PMGARD variable's plane, sign and coarse segments are untrusted bytes
once they are on disk.  Whatever is wrong with one — a bad marker, a
body the backend cannot inflate, a body that inflates short or long —
decoding raises :class:`~repro.encoding.bitplane.CorruptSegmentError`
(a ``ValueError``) naming the variable, the level and the plane, never
a bare NumPy or zlib exception and never a silent decode, on either
on-disk layout.
"""

import zlib

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.retrieval import refactor_dataset
from repro.encoding.bitplane import CorruptSegmentError, _decompress_segment
from repro.encoding.lossless import ZlibBackend
from repro.storage.archive import Archive
from repro.storage.store import DiskFragmentStore, ShardedDiskStore, open_directory_store
from repro.utils.fragment_keys import (
    COARSE_SEGMENT,
    pmgard_plane_segment,
    pmgard_signs_segment,
)

LEVEL = 0  # the finest level: on a noisy 32x32 field it has every plane


def _inflated(segment: bytes) -> bytes:
    return _decompress_segment(ZlibBackend(), segment)


#: name -> (segment to damage, damage, what the error must name)
CORRUPTIONS = {
    "garbage plane": (
        pmgard_plane_segment(LEVEL, 0), lambda seg: b"\x07garbage", "plane 0"),
    "undecodable plane body": (
        pmgard_plane_segment(LEVEL, 0), lambda seg: b"\x01garbage", "plane 0"),
    "short plane": (
        pmgard_plane_segment(LEVEL, 1), lambda seg: b"\x00" + _inflated(seg)[:-1], "plane 1"),
    "oversized plane": (
        pmgard_plane_segment(LEVEL, 2),
        lambda seg: b"\x01" + zlib.compress(_inflated(seg) + bytes(64)), "plane 2"),
    "garbage signs": (
        pmgard_signs_segment(LEVEL), lambda seg: b"\x07garbage", "signs"),
    "short signs": (
        pmgard_signs_segment(LEVEL), lambda seg: b"\x00" + _inflated(seg)[:-3], "signs"),
    "oversized signs": (
        pmgard_signs_segment(LEVEL), lambda seg: b"\x00" + _inflated(seg) + b"\x00", "signs"),
    "garbage coarse": (COARSE_SEGMENT, lambda seg: b"garbage", "coarse"),
    "short coarse": (
        COARSE_SEGMENT, lambda seg: zlib.compress(zlib.decompress(seg)[:-8]), "coarse"),
    "oversized coarse": (
        COARSE_SEGMENT, lambda seg: zlib.compress(zlib.decompress(seg) * 2), "coarse"),
}


@pytest.fixture(scope="module")
def variable():
    rng = np.random.default_rng(7)
    x, y = np.meshgrid(np.linspace(0, 3, 32), np.linspace(0, 2, 32), indexing="ij")
    field = np.sin(x) * np.cos(y) + 0.05 * rng.standard_normal((32, 32))
    return refactor_dataset({"vx": field}, make_refactorer("pmgard_hb"))["vx"]


#: the two on-disk layouts: a flat directory, and one sharded four ways
LAYOUTS = {
    "flat": lambda root: DiskFragmentStore(root),
    "sharded": lambda root: ShardedDiskStore(root, fanout=4),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corrupt_segment_raises_the_typed_error(tmp_path, variable, name, layout):
    segment, damage, part = CORRUPTIONS[name]
    root = str(tmp_path / "ar")
    store = LAYOUTS[layout](root)
    Archive(store).save("vx", variable)
    store.put("vx", segment, damage(store.get("vx", segment)))

    loaded = Archive(open_directory_store(root)).load("vx")
    reader = loaded.reader()
    with pytest.raises(CorruptSegmentError) as caught:
        reader.request(1e-12)  # every plane of every level, and the coarse level
    message = str(caught.value)
    assert "variable 'vx'" in message and part in message
    if part != "coarse":
        assert f"level {LEVEL}" in message
    assert isinstance(caught.value, ValueError)


def test_the_undamaged_archive_decodes(tmp_path, variable):
    """The control: the same archive, untouched, reads back exactly."""
    store = ShardedDiskStore(str(tmp_path / "ar"), fanout=4)
    Archive(store).save("vx", variable)
    loaded = Archive(ShardedDiskStore(str(tmp_path / "ar"))).load("vx")
    expected = variable.reader().request(1e-12)
    assert loaded.reader().request(1e-12).tobytes() == expected.tobytes()


def test_inflation_stops_past_the_expected_length():
    """An oversized body is refused after one byte too many, not inflated whole."""
    bomb = b"\x01" + zlib.compress(bytes(64 << 20))  # 64 MiB of zeros, ~64 KiB framed
    with pytest.raises(ValueError, match="past 16 bytes"):
        _decompress_segment(ZlibBackend(), bomb, 16)
