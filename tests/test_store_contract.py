"""One contract, eleven stores: what ``get_many`` and ``transact`` promise.

Every backend implements the two primitives and inherits (or, where it
is hot, overrides) the four derived calls; this suite runs the same
assertions over all eleven store kinds so the derivations, the accounting
and the error shapes cannot drift apart again.  Counts and bytes only,
never timings.

Two kinds cover what the plain ``cluster`` (every key on both nodes)
cannot: ``cluster_spread`` places each key on one node of three, so a
batch splits across owners and is merged back in request order, and
``fleet`` is the chain a fleet service opens by URL, a tiered store
whose slow tier is a replicated cluster of fragment servers.
"""

import contextlib
import sys
import threading

import pytest

from repro.storage.cache import CachingFragmentStore, FragmentCache
from repro.storage.cluster import ClusterFragmentStore
from repro.storage.remote import (
    HTTPFragmentServer,
    HTTPFragmentStore,
)
from repro.storage.resilience import ResilientStore, RetryPolicy
from repro.storage.store import (
    FragmentStore,
    ShardedDiskStore,
    StoreWrapper,
    open_store,
)
from repro.storage.tiered import TieredStore
from repro.storage.transfer import LatencyFragmentStore

WRAPPERS = ("caching", "latency", "resilient")
KINDS = (
    "memory", "flat", "sharded", "http", *WRAPPERS,
    "tiered", "cluster", "cluster_spread", "fleet",
)


def build(kind: str, tmp_path, stack: contextlib.ExitStack) -> FragmentStore:
    """A fresh, empty store of *kind*; *stack* owns whatever must be closed."""
    if kind == "memory":
        return FragmentStore()
    if kind == "flat":  # the disk store with every pack in one shard directory
        return ShardedDiskStore(str(tmp_path / "flat"), fanout=1)
    if kind == "sharded":
        return ShardedDiskStore(str(tmp_path / "sharded"))
    if kind == "http":
        server = stack.enter_context(HTTPFragmentServer(FragmentStore()))
        return stack.enter_context(HTTPFragmentStore.from_url(server.url))
    if kind == "caching":
        return CachingFragmentStore(FragmentStore(), FragmentCache(1 << 20))
    if kind == "latency":
        return LatencyFragmentStore(FragmentStore(), latency=0.0)
    if kind == "resilient":
        retry = RetryPolicy(attempts=2, sleep=lambda seconds: None)
        return ResilientStore(FragmentStore(), retry=retry)
    if kind == "tiered":
        return stack.enter_context(TieredStore(FragmentStore(), FragmentStore()))
    if kind == "cluster":
        nodes = [FragmentStore(), FragmentStore()]
        return stack.enter_context(ClusterFragmentStore(nodes, replicas=2))
    if kind == "cluster_spread":
        nodes = [FragmentStore() for _ in range(3)]
        return stack.enter_context(ClusterFragmentStore(nodes, replicas=1))
    if kind == "fleet":
        servers = [HTTPFragmentServer(FragmentStore()).start() for _ in range(2)]
        stack.callback(stop_together, servers)
        cluster = "cluster://%s?replicas=2" % ",".join(
            "%s:%d" % server.address for server in servers
        )
        return stack.enter_context(open_store("tiered://?slow=" + cluster))
    raise AssertionError(kind)


def stop_together(servers) -> None:
    # each stop waits out its server's poll interval: wait for all at once
    stoppers = [threading.Thread(target=server.stop) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join()


@pytest.fixture(params=KINDS)
def store(request, tmp_path):
    with contextlib.ExitStack() as stack:
        yield build(request.param, tmp_path, stack)


def read_counters(store):
    return store.reads, store.bytes_read, store.round_trips


def write_counters(store):
    return store.puts, store.bytes_written, store.put_round_trips


def delta(after, before):
    return tuple(a - b for a, b in zip(after, before))


# request order below is neither insertion order nor path order
SEED = [("m", "s0", b"mmmm"), ("a/b", "L0:p3", b"abc"), ("z", "s2", b"zz")]


class TestReads:
    def test_get_is_a_get_many_of_one(self, store):
        store.put_many(SEED)
        key, payload = ("a/b", "L0:p3"), b"abc"
        before = read_counters(store)
        single = store.get(*key)
        after_get = read_counters(store)
        batch = store.get_many([key])
        after_batch = read_counters(store)
        assert bytes(single) == bytes(batch[key]) == payload
        assert delta(after_get, before) == (1, len(payload), 1)
        assert delta(after_batch, after_get) == (1, len(payload), 1)

    def test_batch_is_one_trip_in_request_order_duplicates_collapsed(self, store):
        store.put_many(SEED)
        store.get("a/b", "L0:p3")  # a partial hit for the caching store
        before = read_counters(store)
        wanted = [("z", "s2"), ("a/b", "L0:p3"), ("z", "s2"), ("m", "s0")]
        out = store.get_many(iter(wanted))
        assert list(out) == [("z", "s2"), ("a/b", "L0:p3"), ("m", "s0")]
        assert {k: bytes(p) for k, p in out.items()} == {
            (v, s): payload for v, s, payload in SEED
        }
        assert delta(read_counters(store), before) == (3, 9, 1)

    def test_payloads_are_bytes(self, store):
        # readers parse payloads as they come (json.loads, .decode()):
        # no store may serve a memoryview or a bytearray, warm or cold
        store.put_many(SEED)
        for _ in range(2):  # the second pass is all hits for the caching store
            assert all(type(store.get(v, s)) is bytes for v, s, _ in SEED)
            batch = store.get_many([(v, s) for v, s, _ in SEED])
            assert all(type(payload) is bytes for payload in batch.values())

    def test_empty_and_large_binary_payloads_come_back_whole(self, store):
        # every byte value, far past any framing or chunk boundary, plus
        # the empty fragment an all-zero level may archive
        big, empty = bytes(range(256)) * 257, b""
        store.put_many([("v", "big", big), ("v", "empty", empty)])
        assert [store.size_of("v", s) for s in ("big", "empty")] == [len(big), 0]
        before = read_counters(store)
        for _ in range(2):  # cold, then warm for the caching store
            assert store.get("v", "big") == big and store.get("v", "empty") == empty
            assert store.get_many([("v", "empty"), ("v", "big")]) == {
                ("v", "empty"): empty,
                ("v", "big"): big,
            }
        assert delta(read_counters(store), before) == (8, 4 * len(big), 6)

    def test_absent_key_names_itself(self, store):
        store.put_many(SEED)
        with pytest.raises(KeyError) as caught:
            store.get("m", "nope")
        assert caught.value.args[0] == ("m", "nope")

    def test_absent_keys_fail_the_whole_batch_and_serve_nothing(self, store):
        store.put_many(SEED)
        before = read_counters(store)
        with pytest.raises(KeyError) as caught:
            store.get_many([("m", "s0"), ("m", "nope"), ("q", "gone")])
        assert [tuple(k) for k in caught.value.args[0]] == [("m", "nope"), ("q", "gone")]
        assert read_counters(store)[:2] == before[:2]


class TestWrites:
    def test_three_ways_to_write_one_fragment_count_alike(self, store):
        writes = (
            lambda: store.put("v", "a", b"12345"),
            lambda: store.put_many([("v", "b", b"12345")]),
            lambda: store.transact([("v", "c", bytearray(b"12345"))]),
        )
        for write in writes:
            before = write_counters(store)
            write()
            assert delta(write_counters(store), before) == (1, 5, 1)
        assert store.segments("v") == ["a", "b", "c"]
        assert store.get_many([("v", s) for s in "abc"]) == {
            ("v", s): b"12345" for s in "abc"
        }
        assert store.nbytes() == store.nbytes("v") == 15

    def test_batch_is_one_write_trip(self, store):
        before = write_counters(store)
        store.put_many(iter(SEED))
        assert delta(write_counters(store), before) == (3, 9, 1)
        assert sorted(store.keys()) == sorted((v, s) for v, s, _ in SEED)
        assert [store.size_of(v, s) for v, s, _ in SEED] == [4, 3, 2]

    def test_transact_writes_then_deletes(self, store):
        store.put_many(SEED)
        before = write_counters(store)
        store.transact([("m", "s1", b"new")], [("m", "s0"), ("z", "s2")])
        assert delta(write_counters(store), before) == (1, 3, 1)
        assert sorted(store.keys()) == [("a/b", "L0:p3"), ("m", "s1")]
        assert store.variables() == ["m", "a/b"] and store.nbytes() == 6
        with pytest.raises(KeyError):
            store.get("z", "s2")

    @pytest.mark.parametrize(
        "write",
        [
            lambda store, batch: store.put_many(batch),
            lambda store, batch: store.transact(batch, [("m", "s0")]),
        ],
        ids=["put_many", "transact"],
    )
    def test_non_bytes_payload_rejects_the_batch_before_any_write(self, store, write):
        store.put_many(SEED)
        before = write_counters(store)
        with pytest.raises(TypeError):
            write(store, [("v", "ok", b"fine"), ("v", "bad", "not bytes")])
        with pytest.raises(TypeError):
            store.put("v", "bad", 7)
        assert not store.has("v", "ok") and store.has("m", "s0")
        assert write_counters(store) == before

    def test_overwrite_serves_the_latest_payload_and_size(self, store):
        store.put("v", "a", b"old")
        assert store.get("v", "a") == b"old"  # warms the caching store
        store.put("v", "a", b"newer!")
        assert store.get("v", "a") == b"newer!"
        store.transact([("v", "a", b"newest payload")])
        assert store.get_many([("v", "a")]) == {("v", "a"): b"newest payload"}
        assert store.segments("v") == ["a"] and store.size_of("v", "a") == 14
        assert store.nbytes() == store.nbytes("v") == 14

    def test_written_buffer_is_copied_not_aliased(self, store):
        buffer = bytearray(b"before")
        store.put("v", "a", buffer)
        store.put_many([("v", "b", buffer)])
        buffer[:] = b"AFTER!"  # the caller reuses its buffer
        for _ in range(2):
            assert store.get("v", "a") == b"before"
            assert store.get_many([("v", "b")]) == {("v", "b"): b"before"}

    def test_delete_of_an_absent_key_is_key_error(self, store):
        store.put_many(SEED)
        with pytest.raises(KeyError):
            store.delete("m", "nope")
        store.delete("m", "s0")
        with pytest.raises(KeyError):
            store.delete("m", "s0")
        assert not store.has("m", "s0") and store.nbytes("m") == 0

    def test_a_key_both_written_and_deleted_is_value_error(self, store):
        store.put_many(SEED)
        with pytest.raises(ValueError):
            store.transact([("m", "s0", b"rewritten")], [("m", "s0")])
        assert store.get("m", "s0") == b"mmmm"

    def test_a_missing_delete_leaves_the_store_unchanged(self, store):
        store.put_many(SEED)
        state = (sorted(store.keys()), store.nbytes(), write_counters(store))
        with pytest.raises(KeyError) as caught:
            store.transact(
                [("m", "s1", b"new"), ("q", "s0", b"q")],
                [("z", "s2"), ("m", "nope"), ("q", "gone")],
            )
        assert {tuple(k) for k in caught.value.args[0]} == {("m", "nope"), ("q", "gone")}
        assert (sorted(store.keys()), store.nbytes(), write_counters(store)) == state
        assert [store.size_of(v, s) for v, s, _ in SEED] == [4, 3, 2]
        assert not store.has("m", "s1") and store.get("z", "s2") == b"zz"


class TestWrappers:
    """Wrappers count what clients asked; ``inner`` keeps the backend truth."""

    @pytest.mark.parametrize("store", WRAPPERS, indirect=True)
    def test_client_visible_counters_beside_the_backend_truth(self, store):
        assert isinstance(store, StoreWrapper)
        inner = store.inner
        store.put_many(SEED)
        store.delete("z", "s2")
        keys = [("m", "s0"), ("a/b", "L0:p3")]
        assert store.get_many(keys) == store.get_many(keys)
        assert write_counters(store) == write_counters(inner) == (3, 9, 1)
        assert read_counters(store) == (4, 14, 2)
        # only the cache absorbs a repeat; the other wrappers pass it on
        cached = isinstance(store, CachingFragmentStore)
        assert read_counters(inner) == ((2, 7, 1) if cached else (4, 14, 2))

    @pytest.mark.parametrize("store", WRAPPERS, indirect=True)
    def test_index_and_lifecycle_forward_to_inner(self, store):
        store.put_many(SEED)
        inner = store.inner
        assert store.keys() == inner.keys() and store.variables() == inner.variables()
        assert store.segments("m") == ["s0"] and store.size_of("z", "s2") == 2
        assert store.has("m", "s0") and not store.has("m", "s1")
        assert store.nbytes() == inner.nbytes() == 9 and store.nbytes("z") == 2
        assert store.durability() == inner.durability()
        assert store.compact() == inner.compact()
        store.refresh()  # no snapshot to re-pull on a memory store: a no-op


class TestInMemoryConcurrency:
    """The in-memory store keeps exact totals under concurrent writers.

    At the parent its index totals were updated outside any lock, and 8
    threads of puts lost bytes from ``nbytes()`` in 4 of 5 trials — on the
    store that is the default tiered fast tier (whose ``nbytes()`` is the
    ``fast_resident_bytes`` of its stats) and what ``memory://`` serves
    behind the threaded HTTP server.
    """

    WRITERS, PUTS, DOOMED = 8, 4000, 2000

    def _trial(self):
        store = FragmentStore()
        store.put_many([("doomed", f"s{i}", b"x" * 7) for i in range(self.DOOMED)])
        start = threading.Barrier(self.WRITERS + 2)

        def write(t):
            start.wait()
            for i in range(self.PUTS):
                store.put(f"w{t}", f"s{i}", b"0123456789")

        def delete(half):
            start.wait()
            for i in range(half, self.DOOMED, 2):
                store.delete("doomed", f"s{i}")

        threads = [threading.Thread(target=write, args=(t,)) for t in range(self.WRITERS)]
        threads += [threading.Thread(target=delete, args=(h,)) for h in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.nbytes() == self.WRITERS * self.PUTS * 10
        assert store.nbytes("doomed") == 0 and not store.segments("doomed")
        assert all(store.nbytes(f"w{t}") == self.PUTS * 10 for t in range(self.WRITERS))
        assert len(store.keys()) == len(store._data) == self.WRITERS * self.PUTS
        assert store.puts == self.DOOMED + self.WRITERS * self.PUTS
        assert store.bytes_written == self.DOOMED * 7 + self.WRITERS * self.PUTS * 10

    def test_totals_are_exact_under_writers_and_deleters(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings inside every put
        try:
            for _ in range(3):
                self._trial()
        finally:
            sys.setswitchinterval(interval)
