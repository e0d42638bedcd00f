"""The pack format of the WAL disk store, stepped deterministically.

Each ``transact`` writes its payloads into one pack file and the commit
record places every fragment by offset.  Two properties, each without a
timing-dependent step:

* readers racing a compaction that moves live fragments out of a partly
  dead pack only ever see written payloads: a reader that looked its
  keys up before the move and opens the pack after the unlink looks them
  up again under the reader lock (a barrier parks the readers exactly in
  that window);
* a kill at every pack-write and compaction kill point lands the
  reopened store on the pre- or the post-state, on disk as well as in
  its index.
"""

import os
import threading

import pytest

from fault_store import crash_everywhere, trace
from repro.storage.store import ShardedDiskStore, ShortReadError
from test_storage_store import read_tree

# a small fan-out, and fan-out 1: every pack in one shard directory
LAYOUTS = pytest.mark.parametrize(
    "make",
    [lambda root: ShardedDiskStore(root, fanout=8), lambda root: ShardedDiskStore(root, fanout=1)],
    ids=["sharded", "one-shard"],
)


def _contents(store) -> dict:
    return {key: store.get(*key) for key in store.keys()}


def _payload_files(root) -> dict:
    """Every pack under *root*: relpath -> bytes."""
    return {rel: data for rel, data in read_tree(root).items() if rel.endswith(".pack")}


def _stepped(make, root, barrier):
    """A store whose next lookup on an armed thread parks at *barrier*
    twice: once when the keys are resolved, once before they are read."""
    store = make(root)
    local = threading.local()
    lookups = []
    locate = store._locate

    def stepped_locate(keys):
        located = locate(keys)
        lookups.append(threading.get_ident())
        if getattr(local, "armed", False):
            local.armed = False
            barrier.wait(timeout=30)  # resolved against the old pack
            barrier.wait(timeout=30)  # the compaction has unlinked it
        return located

    store._locate = stepped_locate
    store.arm = lambda: setattr(local, "armed", True)
    store.lookups = lookups
    return store


class TestReadersRacingCompaction:
    @LAYOUTS
    def test_readers_see_only_written_payloads(self, tmp_path, make):
        """Each round parks every reader between lookup and read while a
        compaction moves five of its six fragments and unlinks their pack."""
        readers, rounds = 3, 4
        barrier = threading.Barrier(readers + 1)
        store = _stepped(make, str(tmp_path / "ar"), barrier)
        keys = [("v", f"s{i}") for i in range(6)]
        results, failures = {}, []

        def reader():
            me = threading.get_ident()
            try:
                for _ in range(rounds):
                    barrier.wait(timeout=30)  # the round's writes are in
                    store.arm()
                    results.setdefault(me, []).append(store.get_many(keys))
                    barrier.wait(timeout=30)  # the round's reads are done
            except BaseException as exc:  # fail the test now, not at a timeout
                failures.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for t in threads:
            t.start()
        expected = []
        try:
            for r in range(rounds):
                # a fresh pack of all six, then one overwrite: the fresh
                # pack is partly dead, every older pack wholly dead
                model = {key: bytes([r, i]) * (i + 2) for i, key in enumerate(keys)}
                store.put_many([(*key, payload) for key, payload in model.items()])
                store.put("v", "s0", bytes([r, 99]))
                model[("v", "s0")] = bytes([r, 99])
                expected.append(model)
                barrier.wait(timeout=30)  # round start
                barrier.wait(timeout=30)  # every reader has resolved its keys
                report = store.compact()
                assert report.removed_files == (1 if r == 0 else 7)
                assert store.durability().dead_bytes == 0
                barrier.wait(timeout=30)  # readers go on to open the files
                barrier.wait(timeout=30)  # and have read them
        except threading.BrokenBarrierError:
            pass
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not failures, failures[0]
        assert sorted(results) == sorted(t.ident for t in threads)
        for ident, got in results.items():
            assert got == expected
            # every read lost its pack to the unlink and looked up again
            assert store.lookups.count(ident) == 2 * rounds


class TestShortReads:
    """A read never returns fewer bytes than the index places."""

    @LAYOUTS
    def test_a_short_pack_raises_the_typed_error(self, tmp_path, make):
        root = str(tmp_path / "ar")
        store = make(root)
        store.put_many([("v", "a", b"aaaa"), ("v", "b", b"bbbbbb")])
        (rel, data), = _payload_files(root).items()
        with open(os.path.join(root, rel), "r+b") as fh:
            fh.truncate(len(data) - 2)  # cut into the second fragment
        reopened = make(root)
        assert reopened.get("v", "a") == b"aaaa"
        for read in (lambda: reopened.get("v", "b"), lambda: reopened.get_many(reopened.keys())):
            with pytest.raises(ShortReadError, match=r"\('v', 'b'\).*" + rel):
                read()
        assert isinstance(ShortReadError("x"), ValueError)

    @LAYOUTS
    def test_an_entry_past_the_end_raises_the_typed_error(self, tmp_path, make):
        root = str(tmp_path / "ar")
        store = make(root)
        store.put("v", "a", b"abc")
        log = store._log.path
        with open(log) as fh:
            text = fh.read()
        with open(log, "w") as fh:
            fh.write(text.replace('"offset": 0', '"offset": 7'))
        reopened = make(root)
        with pytest.raises(ShortReadError, match="holds 0 of its 3 bytes at offset 7"):
            reopened.get("v", "a")


class TestPackNames:
    @LAYOUTS
    def test_two_handles_never_write_into_one_pack(self, tmp_path, make):
        """A pack is created exclusively: a handle whose txn another handle
        already packed under takes the next id instead of overwriting."""
        root = str(tmp_path / "ar")
        first, second = make(root), make(root)  # both would pack under txn 1
        first.put("v", "a", b"from the first handle")
        second.put("v", "b", b"from the second")
        assert sorted(_payload_files(root).values()) == [
            b"from the first handle", b"from the second",
        ]
        assert _contents(make(root)) == {
            ("v", "a"): b"from the first handle", ("v", "b"): b"from the second",
        }


class TestCrashAtEveryPackAndCompactionPoint:
    @LAYOUTS
    def test_lands_on_the_pre_or_post_state_on_disk_too(self, tmp_path, make):
        first = {("v", f"s{i}"): bytes([i + 1]) * (i + 1) for i in range(4)}
        second = {("v", "s0"): b"X" * 5, ("w", "s0"): b"Y" * 3}
        pack1, pack2 = b"".join(first.values()), b"".join(second.values())
        moved = b"".join(p for k, p in first.items() if k not in second)
        runs = []

        def make_operation():
            root = str(tmp_path / f"run{len(runs)}")
            runs.append(root)

            def operation():
                store = make(root)
                store.put_many([(*k, p) for k, p in first.items()])
                store.put_many([(*k, p) for k, p in second.items()])  # pack 1 partly dead
                store.compact()  # moves three fragments out of pack 1

            return operation

        points = trace(make_operation())
        assert {"pack.write", "pack.written", "wal.append", "wal.committed",
                "compact.begin", "wal.rewrite", "compact.rewritten",
                "compact.unlink"} <= set(points)
        assert crash_everywhere(make_operation) == len(points)
        both = {**first, **second}
        for root in runs[2:]:  # runs[0] and runs[1] ran without a kill
            reopened = make(root)
            got = _contents(reopened)
            files = sorted(_payload_files(root).values())
            debt = reopened.durability().dead_bytes
            if got == {}:
                assert (files, debt) == ([], 0), root
            elif got == first:
                assert (files, debt) == ([pack1], 0), root
            else:
                assert got == both, root
                # before the compaction's log rewrite, or after it
                assert (files, debt) in (
                    (sorted([pack1, pack2]), len(first[("v", "s0")])),
                    (sorted([pack2, moved]), 0),
                ), root
            reopened.compact()
            assert reopened.durability().dead_bytes == 0
            assert _contents(reopened) == got
