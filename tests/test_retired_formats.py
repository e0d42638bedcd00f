"""Every on-disk format no current writer produces fails loudly.

Writers produce one format: pack files hashed over shard directories,
a framed commit log whose entries place each fragment by ``offset`` and
``nbytes``, marker-framed bitplane segments and a format-2 manifest.
Each older format below is a hand-written directory or payload that an
earlier revision opened.  Opening it now raises
:class:`~repro.storage.store.ArchiveFormatError` naming the path and
what was found (the bitplane and manifest readers raise their own typed
errors), touches nothing on disk, and never opens empty or partial.
"""

import zlib

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.retrieval import refactor_dataset
from repro.encoding.bitplane import CorruptSegmentError
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.metadata import MANIFEST_SEGMENT, MANIFEST_VARIABLE, DatasetManifest
from repro.storage.store import ArchiveFormatError, ShardedDiskStore, open_store
from repro.utils.fragment_keys import pmgard_plane_segment
from test_storage_store import (
    FORMAT1_MANIFEST,
    PACKED,
    PARENT_FLAT,
    PARENT_SHARDED,
    read_tree,
    write_tree,
)

#: ``PARENT_SHARDED`` after ``compact()`` by the last revision that read
#: it: the live one-file-per-fragment payloads, placed by offset and size.
COMPACTED_PARENT = {
    "035/a_b__L0_p3__155b2e35.bin": b"abc",
    "034/a_b__L0_p4__6389b834.bin": b"de",
    ".repro-store.json": b'{"layout": "sharded", "fanout": 256}',
    "index.jsonl": (
        b'{"txn": 4, "commit": [{"variable": "a/b", "segment": "L0:p3",'
        b' "path": "035/a_b__L0_p3__155b2e35.bin", "offset": 0, "nbytes": 3},'
        b' {"variable": "a/b", "segment": "L0:p4",'
        b' "path": "034/a_b__L0_p4__6389b834.bin", "offset": 0, "nbytes": 2}]}\n'
    ),
}

#: name -> (directory, the file the error names, what it says was found)
RETIRED = {
    "flat log": (
        {".repro-index.jsonl": PARENT_FLAT[".repro-index.jsonl"]},
        ".repro-index.jsonl", "commit log of the flat layout",
    ),
    "flat marker": (
        {".repro-store.json": PARENT_FLAT[".repro-store.json"]},
        ".repro-store.json", "'flat' layout marker",
    ),
    "root bin without a log": (
        {"a_b__L0_p3.bin": b"abc", "vx__idx.bin": b"hello"},
        ".bin", "one-file-per-fragment payload",
    ),
    "root packs without a log": (
        {"000001.pack": b"abchello", "000002.pack": b"de"},
        ".pack", "a pack of the flat layout",
    ),
    "pack entry without nbytes": (
        {**PACKED, "index.jsonl": PACKED["index.jsonl"].replace(b', "nbytes": 3}', b"}", 1)},
        "index.jsonl", "without an int offset and nbytes",
    ),
    "sharded bin entry without offset": (
        PARENT_SHARDED, "index.jsonl", "without an int offset and nbytes",
    ),
    "compacted bin entry": (
        COMPACTED_PARENT, "index.jsonl", "which is not a pack",
    ),
    "unframed line": (
        {
            "02b/000001.pack": b"abc",
            ".repro-store.json": b'{"layout": "sharded", "fanout": 256}',
            "index.jsonl": (
                b'{"variable": "a/b", "segment": "L0:p3", "path": "02b/000001.pack",'
                b' "offset": 0, "nbytes": 3}\n'
            ),
        },
        "index.jsonl", "without commit framing",
    ),
    "stray staged file": (
        {"v__s0.bin.stg2": b"abcd"}, "v__s0.bin.stg2", "staged payload file",
    ),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_an_older_directory_fails_the_open_and_is_left_alone(tmp_path, name):
    files, path, found = RETIRED[name]
    root = str(tmp_path / "ar")
    write_tree(root, files)
    for open_ in (ShardedDiskStore, open_store, lambda r: open_store(f"file://{r}"),
                  RetrievalService.open):
        with pytest.raises(ArchiveFormatError, match=found) as caught:
            open_(root)
        message = str(caught.value)
        assert root in message and path in message
        assert "re-archive it from the source data" in message
    assert isinstance(caught.value, ValueError)
    assert read_tree(root) == files  # nothing discarded, truncated or written


def test_a_pack_format_directory_still_opens(tmp_path):
    """The control: the current format, written by hand, opens whole."""
    root = str(tmp_path / "ar")
    write_tree(root, PACKED)
    assert ShardedDiskStore(root).get_many([("a/b", "L0:p3"), ("a/b", "L0:p4")]) == {
        ("a/b", "L0:p3"): b"abc", ("a/b", "L0:p4"): b"de",
    }


def test_a_pre_marker_zlib_plane_segment_is_a_corrupt_segment(tmp_path):
    """Bitplane segments written before the raw/compressed marker byte are
    whole-segment zlib streams; they are refused, not inflated."""
    rng = np.random.default_rng(5)
    field = np.sin(np.linspace(0.0, 6.0, 400)).reshape(20, 20) + 0.05 * rng.normal(size=(20, 20))
    variable = refactor_dataset({"vx": field}, make_refactorer("pmgard_hb"))["vx"]
    root = str(tmp_path / "ar")
    store = ShardedDiskStore(root)
    Archive(store).save("vx", variable)
    segment = pmgard_plane_segment(0, 0)
    framed = store.get("vx", segment)
    raw = framed[1:] if framed[:1] == b"\x00" else zlib.decompress(framed[1:])
    store.put("vx", segment, zlib.compress(raw))  # no marker: the older framing
    reader = Archive(ShardedDiskStore(root)).load("vx").reader()
    with pytest.raises(CorruptSegmentError, match="unknown bitplane segment marker"):
        reader.request(1e-12)


def test_a_format_1_manifest_is_refused(tmp_path):
    store = ShardedDiskStore(str(tmp_path / "ar"))
    store.put(MANIFEST_VARIABLE, MANIFEST_SEGMENT, FORMAT1_MANIFEST.encode())
    for load in (DatasetManifest.load_from, RetrievalService):
        with pytest.raises(ValueError, match="format 1 is no longer read"):
            load(store)
