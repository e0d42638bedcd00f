"""Tests for the remote backend: the HTTP object store and its client."""

import contextlib
import threading

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.storage.archive import Archive, encode_fragments
from repro.storage.remote import (
    HTTPFragmentServer,
    HTTPFragmentStore,
)
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store
from repro.utils.fragment_keys import INDEX_SEGMENT


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

    def test_puts_and_tombstones_travel_in_one_request(self, http_pair):
        inner, _, client = http_pair
        before = client.put_round_trips, inner.put_round_trips
        client.transact([("new", "s0", b"fresh")], [("pressure", "level0/plane3"), ("v", "big")])
        assert (client.put_round_trips, inner.put_round_trips) == (before[0] + 1, before[1] + 1)
        assert sorted(inner.keys()) == [("a/b..c", "s:1"), ("new", "s0")]
        assert sorted(client.keys()) == sorted(inner.keys())
        assert client.nbytes() == inner.nbytes()

    def test_refused_tombstones_leave_the_server_and_the_snapshot_consistent(self, http_pair):
        inner, _, client = http_pair
        inner.delete("v", "big")  # another writer took it; the snapshot still lists it
        with pytest.raises(KeyError) as exc:
            client.transact([("new", "s0", b"fresh")], [("v", "big"), ("a/b..c", "s:1")])
        assert exc.value.args[0] == [("v", "big")]
        assert not inner.has("new", "s0") and inner.has("a/b..c", "s:1")  # nothing applied
        assert not client.has("v", "big") and not client.has("new", "s0")
        assert client.nbytes() == inner.nbytes()

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


class TestOneTransactionPerCommit:
    """An archive commit over HTTP is one server-side transaction."""

    @staticmethod
    def wave(n=4000):
        t = np.linspace(0, 9, n)
        return 40 * np.sin(t) + np.random.default_rng(3).normal(size=n)

    def test_a_resave_is_one_server_side_transaction(self, tmp_path):
        disk = ShardedDiskStore(str(tmp_path / "ar"))
        with HTTPFragmentServer(disk) as server, HTTPFragmentStore.from_url(server.url) as client:
            archive = Archive(client)
            archive.save("wave", make_refactorer("pmgard_hb").refactor(self.wave()))
            commits = disk.durability().wal_commits
            fewer = make_refactorer("pmgard_hb", num_planes=12).refactor(self.wave())
            fragments, index = encode_fragments(fewer)
            assert archive.commit([("wave", fragments, index)]) == 396
            assert disk.durability().wal_commits - commits == 1
            assert sorted(disk.segments("wave")) == sorted(client.segments("wave"))
            assert len(client.segments("wave")) == len(fragments) + 1

    def test_a_commit_drops_a_tombstone_another_client_took(self):
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(HTTPFragmentServer(FragmentStore()))
            first = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            second = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            Archive(first).save("wave", make_refactorer("pmgard_hb").refactor(self.wave()))
            second.refresh()
            fewer = make_refactorer("pmgard_hb", num_planes=12).refactor(self.wave())
            fragments, index = encode_fragments(fewer)
            keep = {segment for segment, _ in fragments} | {INDEX_SEGMENT}
            stale = [s for s in first.segments("wave") if s not in keep]
            second.delete("wave", stale[0])  # first's listing still names it
            assert Archive(first).commit([("wave", fragments, index)]) == len(stale) - 1
            second.refresh()
            assert set(second.segments("wave")) == set(first.segments("wave")) == keep
            reader = Archive(second).load("wave").reader()
            restored = reader.request(1e-300)  # as tight as the 12 planes go
            assert float(np.max(np.abs(restored - self.wave()))) <= reader.current_error_bound
