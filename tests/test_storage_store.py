"""Tests for fragment stores and dataset manifests."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.storage.metadata import (
    MANIFEST_SEGMENT,
    MANIFEST_VARIABLE,
    DatasetManifest,
    VariableMetadata,
)
from repro.storage.store import (
    DiskFragmentStore,
    FragmentStore,
    ShardedDiskStore,
    open_store,
)
from test_round_trips import CountingStore

#: ``DatasetManifest.to_json()`` of the last format-1 revision, verbatim:
#: what every archive written before the per-variable records holds at
#: ``(_dataset, manifest.json)``.
FORMAT1_MANIFEST = """{
  "dataset": "legacy",
  "variables": {
    "p": {
      "compressor": "pmgard_hb",
      "dtype": "float64",
      "name": "p",
      "segments": [
        "_index.json",
        "coarse",
        "L00_signs",
        "L00_p00"
      ],
      "shape": [
        1,
        3
      ],
      "total_bytes": 321,
      "value_max": 4.0,
      "value_min": 1.0
    },
    "q@t0003": {
      "compressor": "psz3",
      "dtype": "float64",
      "name": "q@t0003",
      "segments": [
        "_index.json",
        "snapshot_000"
      ],
      "shape": [
        2
      ],
      "total_bytes": 77,
      "value_max": 0.5,
      "value_min": -2.0
    }
  }
}"""


class CallLogStore(CountingStore):
    """:class:`CountingStore` that logs write trips (and their keys) too.

    The log sits on the write primitive: each batch of puts is one
    ``"put_many"`` entry whether it arrived as ``put``, ``put_many`` or
    ``transact``, directly or through a wrapper.
    """

    def transact(self, puts, deletes=()):
        puts = list(puts)
        if puts:
            self.calls.append(("put_many", [(v, s) for v, s, _ in puts]))
        super().transact(puts, deletes)


def meta(name, lo=0.0, hi=1.0, total_bytes=10, segments=("_index.json", "coarse")):
    return VariableMetadata.from_array(
        name, np.array([lo, hi]), "pmgard_hb", total_bytes, segments=list(segments)
    )


class TestFragmentStore:
    def test_put_get_roundtrip(self):
        store = FragmentStore()
        store.put("pressure", "level0/plane3", b"abc")
        assert store.get("pressure", "level0/plane3") == b"abc"

    def test_missing_key(self):
        with pytest.raises(KeyError):
            FragmentStore().get("x", "seg")

    def test_segments_listing(self):
        store = FragmentStore()
        store.put("v", "s0", b"a")
        store.put("v", "s1", b"bb")
        store.put("w", "s0", b"c")
        assert store.segments("v") == ["s0", "s1"]

    def test_nbytes(self):
        store = FragmentStore()
        store.put("v", "s0", b"aaaa")
        store.put("w", "s0", b"bb")
        assert store.nbytes() == 6
        assert store.nbytes("v") == 4

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            FragmentStore().put("v", "s", [1, 2, 3])

    def test_has(self):
        store = FragmentStore()
        store.put("v", "s", b"x")
        assert store.has("v", "s") and not store.has("v", "t")


class TestDiskStore:
    def test_roundtrip(self, tmp_path):
        store = DiskFragmentStore(str(tmp_path / "frags"))
        payload = bytes(range(256))
        store.put("density", "snap/3", payload)
        assert store.get("density", "snap/3") == payload
        assert store.nbytes() == 256

    def test_key_sanitization(self, tmp_path):
        store = DiskFragmentStore(str(tmp_path / "frags"))
        store.put("a/b..c", "s:1", b"x")
        assert store.get("a/b..c", "s:1") == b"x"

    def test_missing(self, tmp_path):
        store = DiskFragmentStore(str(tmp_path / "frags"))
        with pytest.raises(KeyError):
            store.get("v", "s")

    def test_reopen_serves_previous_fragments(self, tmp_path):
        """Regression: the fragment index must survive a process restart."""
        root = str(tmp_path / "frags")
        store = DiskFragmentStore(root)
        store.put("pressure", "snapshot_000", b"abc")
        store.put("pressure", "snapshot_001", b"defg")
        store.put("density", "coarse", b"hi")

        reopened = DiskFragmentStore(root)
        assert reopened.has("pressure", "snapshot_000")
        assert reopened.get("pressure", "snapshot_001") == b"defg"
        assert reopened.segments("pressure") == ["snapshot_000", "snapshot_001"]
        assert reopened.nbytes() == 9
        assert reopened.nbytes("density") == 2

    def test_reopen_preserves_unsafe_keys(self, tmp_path):
        """The key log restores keys that filename sanitization mangles."""
        root = str(tmp_path / "frags")
        DiskFragmentStore(root).put("a/b..c", "s:1", b"x")
        reopened = DiskFragmentStore(root)
        assert reopened.has("a/b..c", "s:1")
        assert reopened.get("a/b..c", "s:1") == b"x"

    def test_reopen_legacy_directory_without_log(self, tmp_path):
        """Directories written before the key log existed are rescanned."""
        root = str(tmp_path / "frags")
        write_tree(root, {"v__s0.bin": b"abcd"})  # what such a writer left
        reopened = DiskFragmentStore(root)
        assert reopened.get("v", "s0") == b"abcd"
        assert reopened.keys() == [("v", "s0")] and reopened.nbytes() == 4

    def test_read_accounting(self, tmp_path):
        store = DiskFragmentStore(str(tmp_path / "frags"))
        store.put("v", "s0", b"abcd")
        store.get("v", "s0")
        store.get("v", "s0")
        assert store.reads == 2
        assert store.bytes_read == 8


class TestShardedDiskStore:
    def test_roundtrip_and_accounting(self, tmp_path):
        store = ShardedDiskStore(str(tmp_path / "frags"))
        payload = bytes(range(256))
        store.put("density", "snap/3", payload)
        assert store.get("density", "snap/3") == payload
        assert store.nbytes() == 256
        assert store.reads == 1 and store.bytes_read == 256

    def test_fragments_fan_out_into_shard_dirs(self, tmp_path):
        root = tmp_path / "frags"
        store = ShardedDiskStore(str(root), fanout=16)
        for i in range(32):
            store.put("v", f"s{i:02d}", bytes([i]))
        shard_dirs = [p for p in root.iterdir() if p.is_dir()]
        assert len(shard_dirs) > 1          # packs spread over shards
        assert all(len(p.name) == 3 for p in shard_dirs)

        def shard(txn):  # the layout's rule: sha1 of the txn id, mod fanout
            digest = hashlib.sha1(str(txn).encode()).hexdigest()
            return f"{int(digest[:8], 16) % 16:03x}"

        files = {f"{d.name}/{f.name}" for d in shard_dirs for f in d.iterdir()}
        # one file per commit, named by its txn, in the shard it hashes to
        assert files == {f"{shard(t)}/{t:06d}.pack" for t in range(1, 33)}
        store.put_many([("w", f"s{i:02d}", bytes([i]) * 3) for i in range(32)])
        after = {str(p.relative_to(root)) for p in root.rglob("*.pack")}
        assert after - files == {f"{shard(33)}/000033.pack"}  # 32 fragments, one file
        assert (root / shard(33) / "000033.pack").read_bytes() == b"".join(
            bytes([i]) * 3 for i in range(32)
        )

    def test_reopen_serves_previous_fragments(self, tmp_path):
        root = str(tmp_path / "frags")
        store = ShardedDiskStore(root)
        store.put("pressure", "snapshot_000", b"abc")
        store.put("a/b..c", "s:1", b"xy")

        reopened = ShardedDiskStore(root)
        assert reopened.has("pressure", "snapshot_000")
        assert reopened.get("pressure", "snapshot_000") == b"abc"
        assert reopened.get("a/b..c", "s:1") == b"xy"
        assert reopened.nbytes() == 5
        assert set(reopened.keys()) == {("pressure", "snapshot_000"), ("a/b..c", "s:1")}

    def test_sanitize_collisions_stay_distinct(self, tmp_path):
        """``a/b`` and ``a_b`` sanitize identically; the digest suffix
        keeps their files distinct."""
        store = ShardedDiskStore(str(tmp_path / "frags"))
        store.put("a/b", "s", b"slash")
        store.put("a_b", "s", b"under")
        assert store.get("a/b", "s") == b"slash"
        assert store.get("a_b", "s") == b"under"

    def test_overwrite_updates_nbytes(self, tmp_path):
        root = str(tmp_path / "frags")
        store = ShardedDiskStore(root)
        store.put("v", "s", b"abcdef")
        store.put("v", "s", b"xy")
        assert store.nbytes() == 2
        assert ShardedDiskStore(root).nbytes() == 2  # replay keeps last entry

    def test_missing(self, tmp_path):
        store = ShardedDiskStore(str(tmp_path / "frags"))
        with pytest.raises(KeyError):
            store.get("v", "s")

    def test_rejects_bad_fanout(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedDiskStore(str(tmp_path / "frags"), fanout=0)


#: Every byte two ``put_many`` calls and one ``delete`` left behind in the
#: parent format (one payload file per fragment, entries without an
#: offset), per layout, written out by hand (not by the code under test):
#: the payload files, the layout marker, and the commit log with its
#: field names.  The store still opens, reads, writes and compacts it.
ON_DISK = {
    DiskFragmentStore: {
        "a_b__L0_p3.bin": b"abc",
        "a_b__L0_p4.bin": b"de",
        "vx__idx.bin": b"hello",
        ".repro-store.json": b'{"layout": "flat"}',
        ".repro-index.jsonl": (
            b'{"txn": 1, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "file": "a_b__L0_p3.bin", "nbytes": 3}, {"variable": "vx",'
            b' "segment": "idx", "file": "vx__idx.bin", "nbytes": 5}]}\n'
            b'{"txn": 2, "commit": [{"variable": "a/b", "segment": "L0:p4",'
            b' "file": "a_b__L0_p4.bin", "nbytes": 2}]}\n'
            b'{"txn": 3, "commit": [{"variable": "vx", "segment": "idx",'
            b' "file": "vx__idx.bin", "deleted": true}]}\n'
        ),
    },
    ShardedDiskStore: {
        "035/a_b__L0_p3__155b2e35.bin": b"abc",
        "034/a_b__L0_p4__6389b834.bin": b"de",
        "04c/vx__idx__8db4664c.bin": b"hello",
        ".repro-store.json": b'{"layout": "sharded", "fanout": 256}',
        "index.jsonl": (
            b'{"txn": 1, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "path": "035/a_b__L0_p3__155b2e35.bin", "nbytes": 3},'
            b' {"variable": "vx", "segment": "idx",'
            b' "path": "04c/vx__idx__8db4664c.bin", "nbytes": 5}]}\n'
            b'{"txn": 2, "commit": [{"variable": "a/b", "segment": "L0:p4",'
            b' "path": "034/a_b__L0_p4__6389b834.bin", "nbytes": 2}]}\n'
            b'{"txn": 3, "commit": [{"variable": "vx", "segment": "idx",'
            b' "deleted": true}]}\n'
        ),
    },
}

#: What the store writes for the same three operations: one pack per
#: commit that carries puts, named by its txn (hashed over the shards in
#: the sharded layout), and entries that place each fragment by offset.
PACKED = {
    DiskFragmentStore: {
        "000001.pack": b"abchello",
        "000002.pack": b"de",
        ".repro-store.json": b'{"layout": "flat"}',
        ".repro-index.jsonl": (
            b'{"txn": 1, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "file": "000001.pack", "offset": 0, "nbytes": 3}, {"variable":'
            b' "vx", "segment": "idx", "file": "000001.pack", "offset": 3,'
            b' "nbytes": 5}]}\n'
            b'{"txn": 2, "commit": [{"variable": "a/b", "segment": "L0:p4",'
            b' "file": "000002.pack", "offset": 0, "nbytes": 2}]}\n'
            b'{"txn": 3, "commit": [{"variable": "vx", "segment": "idx",'
            b' "deleted": true}]}\n'
        ),
    },
    ShardedDiskStore: {
        "02b/000001.pack": b"abchello",
        "037/000002.pack": b"de",
        ".repro-store.json": b'{"layout": "sharded", "fanout": 256}',
        "index.jsonl": (
            b'{"txn": 1, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "path": "02b/000001.pack", "offset": 0, "nbytes": 3},'
            b' {"variable": "vx", "segment": "idx", "path": "02b/000001.pack",'
            b' "offset": 3, "nbytes": 5}]}\n'
            b'{"txn": 2, "commit": [{"variable": "a/b", "segment": "L0:p4",'
            b' "path": "037/000002.pack", "offset": 0, "nbytes": 2}]}\n'
            b'{"txn": 3, "commit": [{"variable": "vx", "segment": "idx",'
            b' "deleted": true}]}\n'
        ),
    },
}

#: ``PACKED`` after ``compact()``: the live fragment of the partly dead
#: first pack moved into pack 4, the first pack unlinked, and the log
#: rewritten to its live entries as one record (txn 5).
COMPACTED = {
    DiskFragmentStore: {
        "000002.pack": b"de",
        "000004.pack": b"abc",
        ".repro-store.json": b'{"layout": "flat"}',
        ".repro-index.jsonl": (
            b'{"txn": 5, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "file": "000004.pack", "offset": 0, "nbytes": 3}, {"variable":'
            b' "a/b", "segment": "L0:p4", "file": "000002.pack", "offset": 0,'
            b' "nbytes": 2}]}\n'
        ),
    },
    ShardedDiskStore: {
        "037/000002.pack": b"de",
        "089/000004.pack": b"abc",
        ".repro-store.json": b'{"layout": "sharded", "fanout": 256}',
        "index.jsonl": (
            b'{"txn": 5, "commit": [{"variable": "a/b", "segment": "L0:p3",'
            b' "path": "089/000004.pack", "offset": 0, "nbytes": 3},'
            b' {"variable": "a/b", "segment": "L0:p4", "path": "037/000002.pack",'
            b' "offset": 0, "nbytes": 2}]}\n'
        ),
    },
}

LAYOUTS = pytest.mark.parametrize(
    "store_cls", [DiskFragmentStore, ShardedDiskStore], ids=["flat", "sharded"]
)


def write_tree(root, files):
    for rel, payload in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(payload)


def read_tree(root):
    tree = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


class TestOnDiskFormat:
    """Both layouts of the one disk store, pinned by literal directories."""

    @LAYOUTS
    def test_hand_written_directory_opens(self, tmp_path, store_cls):
        root = str(tmp_path / "ar")
        write_tree(root, ON_DISK[store_cls])
        for store in (store_cls(root), open_store(root)):
            assert type(store) is store_cls
            assert store.keys() == [("a/b", "L0:p3"), ("a/b", "L0:p4")]
            assert store.get_many(store.keys()) == {
                ("a/b", "L0:p3"): b"abc", ("a/b", "L0:p4"): b"de",
            }
            assert store.nbytes() == store.nbytes("a/b") == 5
            assert not store.has("vx", "idx") and store.variables() == ["a/b"]
            # the tombstoned payload is still on disk, as reclaimable debt
            debt = store.durability()
            assert (debt.tombstones, debt.dead_bytes) == (1, 5)
        assert read_tree(root) == ON_DISK[store_cls]  # opening wrote nothing
        report = store.compact()
        assert (report.removed_files, report.reclaimed_bytes) == (1, 5)
        dead = "vx__idx.bin" if store_cls is DiskFragmentStore else "04c/vx__idx__8db4664c.bin"
        assert sorted(read_tree(root)) == sorted(set(ON_DISK[store_cls]) - {dead})

    @LAYOUTS
    def test_the_store_writes_exactly_these_bytes(self, tmp_path, store_cls):
        root = str(tmp_path / "ar")
        store = store_cls(root)
        store.put_many([("a/b", "L0:p3", b"abc"), ("vx", "idx", b"hello")])
        store.put_many([("a/b", "L0:p4", b"de")])
        store.delete("vx", "idx")
        assert read_tree(root) == PACKED[store_cls]
        debt = store.durability()
        assert (debt.tombstones, debt.dead_bytes) == (1, 5)
        for handle in (store, store_cls(root)):  # the reopen reads the same debt
            assert handle.durability().dead_bytes == 5
            assert handle.get_many(handle.keys()) == {
                ("a/b", "L0:p3"): b"abc", ("a/b", "L0:p4"): b"de",
            }
        assert read_tree(root) == PACKED[store_cls]  # opening wrote nothing
        report = store.compact()
        assert (report.removed_files, report.reclaimed_bytes) == (1, 5)
        assert read_tree(root) == COMPACTED[store_cls]
        assert store.durability().dead_bytes == 0
        reopened = store_cls(root)
        assert reopened.get_many(reopened.keys()) == {
            ("a/b", "L0:p3"): b"abc", ("a/b", "L0:p4"): b"de",
        }
        assert reopened.durability().dead_bytes == 0

    def test_flat_directory_without_a_log_recovers_keys_from_file_names(self, tmp_path):
        root = str(tmp_path / "ar")
        write_tree(root, {"a_b__L0_p3.bin": b"abc", "vx__idx.bin": b"hello",
                          "notes.txt": b"not a fragment", "stray.bin": b"no key"})
        store = DiskFragmentStore(root)
        assert store.keys() == [("a_b", "L0_p3"), ("vx", "idx")]
        assert store.get("a_b", "L0_p3") == b"abc" and store.size_of("vx", "idx") == 5
        assert store.durability().tombstones == 0

    def test_flat_log_entry_without_a_size_takes_it_from_the_file(self, tmp_path):
        root = str(tmp_path / "ar")
        write_tree(root, {
            "vx__idx.bin": b"hello",
            ".repro-index.jsonl": (
                b'{"variable": "vx", "segment": "idx", "file": "vx__idx.bin"}\n'
                b'{"variable": "vy", "segment": "idx", "file": "vy__idx.bin"}\n'
            ),
        })
        store = DiskFragmentStore(root)
        assert store.size_of("vx", "idx") == 5 and store.get("vx", "idx") == b"hello"
        # a dangling entry stays indexed (size 0) instead of failing the open
        assert store.has("vy", "idx") and store.size_of("vy", "idx") == 0
        assert store.nbytes() == 5

    @LAYOUTS
    def test_staged_leftovers_are_published_or_discarded(self, tmp_path, store_cls):
        root = str(tmp_path / "ar")
        files = dict(ON_DISK[store_cls])
        p4 = next(rel for rel in files if "L0_p4" in rel)
        p3 = next(rel for rel in files if "L0_p3" in rel)
        # txn 2 committed but died before publishing; txn 9 never committed
        files[p4 + ".stg2"] = files.pop(p4)
        files[p3 + ".stg9"] = b"never committed"
        write_tree(root, files)
        store = store_cls(root)
        assert store.get("a/b", "L0:p4") == b"de"
        assert store.get("a/b", "L0:p3") == b"abc"
        assert read_tree(root) == ON_DISK[store_cls]

    def test_marker_fanout_outranks_the_constructor_argument(self, tmp_path):
        root = str(tmp_path / "ar")
        write_tree(root, ON_DISK[ShardedDiskStore])
        store = ShardedDiskStore(root, fanout=16)
        assert store.fanout == 256
        store.put("vx", "idx", b"again")  # txn 4's pack, in its 256-way shard
        tree = read_tree(root)
        assert tree["089/000004.pack"] == b"again"  # (its 16-way shard is 009)
        assert set(tree) == set(ON_DISK[ShardedDiskStore]) | {"089/000004.pack"}
        assert tree["04c/vx__idx__8db4664c.bin"] == b"hello"  # no file is rewritten
        assert store.get("vx", "idx") == b"again"
        debt = store.durability()  # the parent-format file stays dead
        assert (debt.tombstones, debt.dead_bytes) == (1, 5)


class TestManifest:
    def test_value_ranges(self):
        manifest = DatasetManifest("demo")
        data = np.array([1.0, 4.0])
        manifest.add(VariableMetadata.from_array("p", data, "pmgard_hb", 100))
        assert manifest.value_ranges() == {"p": 3.0}

    def test_constant_field_range_one(self):
        meta = VariableMetadata.from_array("c", np.ones(5), "psz3", 10)
        assert meta.value_range == 1.0

    def test_json_roundtrip(self):
        manifest = DatasetManifest("demo")
        manifest.add(
            VariableMetadata.from_array(
                "p", np.arange(6.0).reshape(2, 3), "psz3", 42, segments=["s0", "s1"]
            )
        )
        back = DatasetManifest.from_json(manifest.to_json())
        assert back.dataset == "demo"
        meta = back.variables["p"]
        assert meta.shape == (2, 3)
        assert meta.total_bytes == 42
        assert meta.segments == ["s0", "s1"]


class TestManifestRecords:
    """The archived form: a header plus one record per variable."""

    def test_save_load_roundtrip(self):
        store = FragmentStore()
        manifest = DatasetManifest("demo")
        manifest.add(meta("p", 1.0, 4.0, segments=["s0", "s1"]))
        manifest.add(meta("q@t0003", -2.0, 0.5))
        manifest.save_to(store)
        header = json.loads(store.get(MANIFEST_VARIABLE, MANIFEST_SEGMENT))
        assert header == {"dataset": "demo", "format": 2}
        assert len(store.segments(MANIFEST_VARIABLE)) == 3
        back = DatasetManifest.load_from(store)
        assert back == manifest
        assert back.variables["p"].shape == (2,)
        assert back.value_ranges() == {"p": 3.0, "q@t0003": 2.5}

    def test_save_writes_one_batch_of_what_changed(self):
        store = CallLogStore()
        manifest = DatasetManifest("demo")
        for k in range(5):
            manifest.add(meta(f"v{k}"))
        manifest.save_to(store)
        assert [call for call, _ in store.calls] == ["put_many"]
        assert len(store.calls[0][1]) == 6  # five records and the header
        store.calls.clear()
        manifest.add(meta("v3", hi=9.0))
        manifest.add(meta("v5"))
        manifest.save_to(store)
        assert store.calls == [
            ("put_many", [(MANIFEST_VARIABLE, "var.v3.json"),
                          (MANIFEST_VARIABLE, "var.v5.json")])
        ]
        store.calls.clear()
        manifest.save_to(store)  # nothing changed: nothing written
        assert store.calls == []
        assert DatasetManifest.load_from(store) == manifest

    def test_saving_to_another_store_writes_everything(self):
        first, second = FragmentStore(), FragmentStore()
        manifest = DatasetManifest("demo")
        manifest.add(meta("p"))
        manifest.save_to(first)
        manifest.add(meta("q"))
        manifest.save_to(second)
        assert DatasetManifest.load_from(second) == manifest
        assert sorted(DatasetManifest.load_from(first).variables) == ["p"]

    def test_two_handles_do_not_lose_each_others_update(self):
        # `repro ingest` from two shells: at the parent the second
        # writer's whole-file rewrite dropped the first's variable
        store = FragmentStore()
        seed = DatasetManifest("demo")
        seed.add(meta("base"))
        seed.save_to(store)
        one = DatasetManifest.load_from(store)
        two = DatasetManifest.load_from(store)
        one.add(meta("from_one"))
        two.add(meta("from_two"))
        one.save_to(store)
        two.save_to(store)
        assert sorted(DatasetManifest.load_from(store).variables) == [
            "base", "from_one", "from_two",
        ]

    def test_fresh_manifest_leaves_other_records_in_place(self):
        store = FragmentStore()
        old = DatasetManifest("demo")
        old.add(meta("kept"))
        old.add(meta("replaced", hi=1.0))
        old.save_to(store)
        fresh = DatasetManifest("demo")
        fresh.add(meta("replaced", hi=7.0))
        fresh.save_to(store)
        back = DatasetManifest.load_from(store)
        assert sorted(back.variables) == ["kept", "replaced"]
        assert back.variables["replaced"].value_max == 7.0

    @pytest.mark.parametrize("count", [1, 5, 40])
    def test_load_is_one_get_and_one_get_many(self, count):
        store = CallLogStore()
        manifest = DatasetManifest("demo")
        for k in range(count):
            manifest.add(meta(f"v{k:02d}"))
        manifest.save_to(store)
        store.calls.clear()
        back = DatasetManifest.load_from(store)
        assert len(back.variables) == count
        assert [call for call, _ in store.calls] == ["get", "get_many"]
        assert store.round_trips == 2

    def test_absent_manifest_is_key_error(self):
        with pytest.raises(KeyError):
            DatasetManifest.load_from(FragmentStore())


class TestManifestFormat1:
    def _legacy_store(self):
        store = FragmentStore()
        store.put(MANIFEST_VARIABLE, MANIFEST_SEGMENT, FORMAT1_MANIFEST.encode())
        return store

    def test_literal_loads_and_serves_value_ranges(self):
        manifest = DatasetManifest.load_from(self._legacy_store())
        assert manifest.dataset == "legacy"
        assert manifest.value_ranges() == {"p": 3.0, "q@t0003": 2.5}
        assert manifest.variables["p"].shape == (1, 3)
        assert manifest.variables["q@t0003"].segments == ["_index.json", "snapshot_000"]
        # and it is still what to_json exports
        assert manifest.to_json() == FORMAT1_MANIFEST

    def test_next_save_migrates_to_records(self):
        store = self._legacy_store()
        manifest = DatasetManifest.load_from(store)
        manifest.add(meta("r"))
        manifest.save_to(store)
        header = json.loads(store.get(MANIFEST_VARIABLE, MANIFEST_SEGMENT))
        assert header == {"dataset": "legacy", "format": 2}
        assert sorted(store.segments(MANIFEST_VARIABLE)) == [
            "manifest.json", "var.p.json", "var.q@t0003.json", "var.r.json",
        ]
        assert DatasetManifest.load_from(store) == manifest

    def test_record_wins_over_inline_entry(self):
        # a batch torn on a store without atomic batches: records are
        # written ahead of the header, so the header is still format 1
        store = self._legacy_store()
        scratch = FragmentStore()
        newer = DatasetManifest("legacy")
        newer.add(meta("p", 0.0, 10.0, total_bytes=999))
        newer.save_to(scratch)
        store.put(MANIFEST_VARIABLE, "var.p.json", scratch.get(MANIFEST_VARIABLE, "var.p.json"))
        back = DatasetManifest.load_from(store)
        assert back.variables["p"].total_bytes == 999
        assert back.value_ranges() == {"p": 10.0, "q@t0003": 2.5}


class TestManifestCorruption:
    """Untrusted metadata fails with a ValueError that names the segment."""

    def _store(self):
        store = FragmentStore()
        manifest = DatasetManifest("demo")
        manifest.add(meta("p"))
        manifest.add(meta("q"))
        manifest.save_to(store)
        return store

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],                 # truncated
            lambda raw: b"\xff\xfe" + raw,                     # not UTF-8
            lambda raw: b"[1, 2, 3]",                          # not an object
            lambda raw: raw.replace(b'"shape"', b'"shapes"'),  # field missing
            lambda raw: raw.replace(b'"total_bytes":10', b'"total_bytes":null'),
        ],
        ids=["truncated", "not-utf8", "not-object", "missing-field", "null-field"],
    )
    def test_corrupt_record_names_the_record(self, damage):
        store = self._store()
        raw = store.get(MANIFEST_VARIABLE, "var.q.json")
        store.put(MANIFEST_VARIABLE, "var.q.json", damage(raw))
        with pytest.raises(ValueError, match=r"var\.q\.json") as caught:
            DatasetManifest.load_from(store)
        assert type(caught.value) is ValueError  # not a bare JSONDecodeError

    def test_corrupt_header_names_the_header(self):
        store = self._store()
        for payload in (b'{"dataset": "demo", "form', b'{"format": 2}',
                        b'{"dataset": "demo", "format": 3}'):
            store.put(MANIFEST_VARIABLE, MANIFEST_SEGMENT, payload)
            with pytest.raises(ValueError, match=r"manifest\.json") as caught:
                DatasetManifest.load_from(store)
            assert type(caught.value) is ValueError

    def test_corrupt_inline_entry_names_the_variable(self):
        store = FragmentStore()
        store.put(MANIFEST_VARIABLE, MANIFEST_SEGMENT,
                  FORMAT1_MANIFEST.replace('"value_min": -2.0', '"value_min": "low"').encode())
        with pytest.raises(ValueError, match="q@t0003"):
            DatasetManifest.load_from(store)
