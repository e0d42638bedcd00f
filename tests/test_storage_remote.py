"""Tests for the remote backends: HTTP object store and key-value adapter."""

import threading

import pytest

from repro.storage.remote import (
    HTTPFragmentServer,
    HTTPFragmentStore,
    InMemoryObjectBucket,
    KeyValueFragmentStore,
    ObjectBucket,
    fragment_key,
    object_key,
)
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store


@pytest.fixture
def http_pair():
    """A server over a seeded in-memory store, plus a connected client."""
    inner = FragmentStore()
    inner.put("pressure", "level0/plane3", b"abc")
    inner.put("a/b..c", "s:1", b"odd-keys-survive")
    inner.put("v", "big", bytes(range(256)) * 8)
    with HTTPFragmentServer(inner) as server:
        client = HTTPFragmentStore.from_url(server.url)
        yield inner, server, client
        client.close()


class TestHTTPFragmentStore:
    def test_satisfies_remote_protocol(self, http_pair):
        # the store interface is FragmentStore itself: a backend is one
        # that brings its own two primitives (the rest is derived)
        _, _, client = http_pair
        assert isinstance(client, FragmentStore)
        assert {"get_many", "transact"} <= set(vars(HTTPFragmentStore))

    def test_index_snapshot_serves_metadata_locally(self, http_pair):
        inner, _, client = http_pair
        assert set(client.keys()) == set(inner.keys())
        assert client.nbytes() == inner.nbytes()
        assert client.size_of("pressure", "level0/plane3") == 3
        assert client.segments("a/b..c") == ["s:1"]
        assert client.reads == 0  # metadata cost no fragment traffic

    def test_get_roundtrip_and_accounting(self, http_pair):
        _, _, client = http_pair
        assert client.get("pressure", "level0/plane3") == b"abc"
        assert client.get("a/b..c", "s:1") == b"odd-keys-survive"
        assert client.reads == 2 and client.round_trips == 2

    def test_get_missing_raises_keyerror(self, http_pair):
        _, _, client = http_pair
        with pytest.raises(KeyError):
            client.get("nope", "s")

    def test_get_many_one_round_trip(self, http_pair):
        inner, _, client = http_pair
        keys = [("pressure", "level0/plane3"), ("a/b..c", "s:1"), ("v", "big")]
        out = client.get_many(keys)
        assert out[("pressure", "level0/plane3")] == b"abc"
        assert out[("v", "big")] == bytes(range(256)) * 8
        assert client.round_trips == 1 and client.reads == 3
        assert inner.round_trips == 1  # the server batched too

    def test_get_many_missing_lists_every_missing_key(self, http_pair):
        _, _, client = http_pair
        with pytest.raises(KeyError) as exc:
            client.get_many([("v", "big"), ("nope", "x"), ("nope", "y")])
        assert ("nope", "x") in exc.value.args[0]
        assert ("nope", "y") in exc.value.args[0]

    def test_ranged_get(self, http_pair):
        _, _, client = http_pair
        payload = bytes(range(256)) * 8
        assert client.get_range("v", "big", 10, 30) == payload[10:30]
        assert client.get_range("v", "big", 2000, 10**6) == payload[2000:]

    def test_put_writes_through_to_server(self, http_pair):
        inner, _, client = http_pair
        client.put("new", "s0", b"fresh")
        assert inner.get("new", "s0") == b"fresh"
        assert client.has("new", "s0") and client.size_of("new", "s0") == 5

    def test_delete_removes_on_server_and_locally(self, http_pair):
        inner, _, client = http_pair
        client.put("new", "s0", b"fresh")
        client.delete("new", "s0")
        assert not client.has("new", "s0")
        assert not inner.has("new", "s0")
        with pytest.raises(KeyError):
            client.delete("new", "s0")

    def test_refresh_sees_server_side_writes(self, http_pair):
        inner, server, client = http_pair
        inner.put("later", "s0", b"server-side")
        assert not client.has("later", "s0")  # snapshot is stale
        client.refresh()
        assert client.has("later", "s0")
        assert client.get("later", "s0") == b"server-side"

    def test_open_store_url_roundtrip(self, tmp_path):
        disk = ShardedDiskStore(str(tmp_path / "ar"))
        disk.put("v", "s0", b"x" * 50)
        with HTTPFragmentServer(disk) as server:
            client = open_store(server.url)
            assert isinstance(client, HTTPFragmentStore)
            assert client.get("v", "s0") == b"x" * 50
            client.close()

    def test_concurrent_clients_do_not_interfere(self, http_pair):
        _, _, client = http_pair
        errors = []

        def reader():
            try:
                for _ in range(10):
                    assert client.get("pressure", "level0/plane3") == b"abc"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        assert client.reads == 40

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError):
            HTTPFragmentStore.from_url("http://no-port-here")
        with pytest.raises(ValueError):
            HTTPFragmentStore.from_url("file:///somewhere")


class TestObjectKeyCodec:
    def test_roundtrip_odd_names(self):
        for variable, segment in [
            ("a/b..c", "s:1"),
            ("with space", "seg/with/slashes"),
            ("percent%20", "unicode-ε"),
        ]:
            assert fragment_key(object_key(variable, segment)) == (variable, segment)

    def test_foreign_key_rejected(self):
        with pytest.raises(ValueError):
            fragment_key("no-separator-anywhere")


class TestKeyValueFragmentStore:
    def test_satisfies_remote_protocol(self):
        assert isinstance(KeyValueFragmentStore(InMemoryObjectBucket()), FragmentStore)
        assert {"get_many", "transact"} <= set(vars(KeyValueFragmentStore))
        assert isinstance(InMemoryObjectBucket(), ObjectBucket)

    def test_roundtrip_and_reopen_from_listing(self):
        bucket = InMemoryObjectBucket()
        store = KeyValueFragmentStore(bucket)
        store.put("a/b", "s:0", b"hello")
        store.put("v", "s1", bytes(50))
        reopened = KeyValueFragmentStore(bucket)
        assert set(reopened.keys()) == {("a/b", "s:0"), ("v", "s1")}
        assert reopened.nbytes() == 55
        assert reopened.get("a/b", "s:0") == b"hello"

    def test_get_many_uses_batched_bucket_reads(self):
        bucket = InMemoryObjectBucket()
        store = KeyValueFragmentStore(bucket)
        for i in range(8):
            store.put("v", f"s{i}", bytes([i]))
        before = bucket.requests
        out = store.get_many([("v", f"s{i}") for i in range(8)])
        assert len(out) == 8
        assert bucket.requests == before + 1  # one bucket round trip
        assert store.round_trips == 1 and store.reads == 8

    def test_get_many_falls_back_without_batch_support(self):
        class PlainBucket(InMemoryObjectBucket):
            get_objects = None

        bucket = PlainBucket()
        store = KeyValueFragmentStore(bucket)
        store.put("v", "s0", b"a")
        store.put("v", "s1", b"b")
        out = store.get_many([("v", "s0"), ("v", "s1")])
        assert out[("v", "s0")] == b"a"
        assert store.round_trips == 2  # honest per-object accounting

    def test_missing_keys(self):
        store = KeyValueFragmentStore(InMemoryObjectBucket())
        store.put("v", "s0", b"a")
        with pytest.raises(KeyError):
            store.get("v", "nope")
        with pytest.raises(KeyError) as exc:
            store.get_many([("v", "s0"), ("v", "nope")])
        assert ("v", "nope") in exc.value.args[0]

    def test_delete(self):
        store = KeyValueFragmentStore(InMemoryObjectBucket())
        store.put("v", "s0", b"a")
        store.delete("v", "s0")
        assert not store.has("v", "s0")
        with pytest.raises(KeyError):
            store.delete("v", "s0")

    def test_foreign_bucket_objects_ignored(self):
        bucket = InMemoryObjectBucket()
        bucket.put_object("unrelated-blob", b"not a fragment")
        store = KeyValueFragmentStore(bucket)
        assert store.keys() == []


class TestConnectionReuse:
    """Satellite coverage for the per-thread persistent HTTP connection."""

    def test_requests_reuse_one_keepalive_connection(self, http_pair):
        _, _, client = http_pair
        client.get("pressure", "level0/plane3")
        conn = client._local.conn
        client.get("v", "big")
        client.has("pressure", "level0/plane3")
        assert client._local.conn is conn  # same socket, no re-dial
        assert client.reconnects == 0

    def test_threads_get_independent_connections(self, http_pair):
        _, _, client = http_pair
        client.get("pressure", "level0/plane3")
        main_conn = client._local.conn
        seen = []

        def worker():
            client.get("v", "big")
            seen.append(client._local.conn)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen[0] is not main_conn
        assert client._local.conn is main_conn

    def test_stale_keepalive_redialed_once_and_counted(self, http_pair):
        import socket

        _, _, client = http_pair
        assert client.get("pressure", "level0/plane3") == b"abc"
        # forcibly kill the established TCP stream (server restart /
        # idle-timeout stand-in); the next request must transparently
        # re-dial instead of surfacing the dead socket
        client._local.conn.sock.shutdown(socket.SHUT_RDWR)
        assert client.get("pressure", "level0/plane3") == b"abc"
        assert client.reconnects == 1
        # the replacement connection is healthy and persistent again
        assert client.get("v", "big") == bytes(range(256)) * 8
        assert client.reconnects == 1

    def test_url_resilience_params_wrap_the_store(self):
        from repro.storage.resilience import ResilientStore

        inner = FragmentStore()
        inner.put("v", "s0", b"abc")
        with HTTPFragmentServer(inner) as server:
            store = HTTPFragmentStore.from_url(server.url + "?retries=4&breaker=2")
            try:
                assert isinstance(store, ResilientStore)
                assert store.retry.attempts == 4
                assert store.breaker.failure_threshold == 2
                assert server.url.endswith(store.breaker.name.split("http://")[-1])
                assert store.get("v", "s0") == b"abc"
            finally:
                store.close()
