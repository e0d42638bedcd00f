"""Round-trip property tests for every ``open_store`` URL scheme.

The contract under test (and documented in ``docs/storage.md``): opening
a URL, archiving fragments, and reopening the *same* URL yields a store
with an identical index (keys, sizes, per-variable segments, byte
totals), identical payloads, **reset** read counters, and the correct
auto-detected backend class.  Deletions survive reopening too (the
tombstone log).  ``memory://`` is the documented exception — it never
persists, and each open is a fresh empty store.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.cluster import ClusterFragmentStore
from repro.storage.remote import HTTPFragmentServer, HTTPFragmentStore
from repro.storage.store import (
    FragmentStore,
    ShardedDiskStore,
    open_store,
    parse_bytes,
    split_store_url,
)
from repro.storage.tiered import TieredStore

# A printable key alphabet (the disk store keeps keys in its log, never
# in file names).
_name = st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12)
_fragments = st.dictionaries(
    st.tuples(_name, _name),
    st.binary(min_size=0, max_size=64),
    min_size=1,
    max_size=12,
)


def _url_builders(tmp_path):
    """One (scheme-name, url) per persistent scheme, rooted under *tmp_path*."""
    return [
        ("plain-path", str(tmp_path / "plain")),
        ("file", f"file://{tmp_path / 'file'}"),
        ("sharded", f"sharded://{tmp_path / 'sharded'}?fanout=8"),
        (
            "tiered",
            f"tiered://{tmp_path / 'tier-fast'}?slow=sharded://{tmp_path / 'tier-slow'}",
        ),
    ]


def _assert_same_index(reopened, expected: dict, context: str):
    assert set(reopened.keys()) == set(expected), context
    for (var, seg), payload in expected.items():
        assert reopened.has(var, seg), context
        assert reopened.size_of(var, seg) == len(payload), context
    variables = {var for var, _ in expected}
    for var in variables:
        assert set(reopened.segments(var)) == {
            seg for v, seg in expected if v == var
        }, context
        assert reopened.nbytes(var) == sum(
            len(p) for (v, _), p in expected.items() if v == var
        ), context
    assert reopened.nbytes() == sum(len(p) for p in expected.values()), context
    # counters reset on reopen: a fresh handle has served nothing
    assert reopened.reads == 0 and reopened.bytes_read == 0, context
    assert reopened.round_trips == 0, context


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fragments=_fragments)
def test_roundtrip_property_all_disk_schemes(tmp_path_factory, fragments):
    """put → reopen via the same URL → identical index, counters reset."""
    tmp_path = tmp_path_factory.mktemp("urls")
    for name, url in _url_builders(tmp_path):
        store = open_store(url)
        for (var, seg), payload in fragments.items():
            store.put(var, seg, payload)
        store.close()

        reopened = open_store(url)
        _assert_same_index(reopened, fragments, f"{name}: {url}")
        got = reopened.get_many(list(fragments))
        assert got == fragments, name
        reopened.close()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fragments=_fragments, data=st.data())
def test_deletions_survive_reopen(tmp_path_factory, fragments, data):
    """Tombstoned fragments stay deleted across reopen on every disk scheme."""
    tmp_path = tmp_path_factory.mktemp("urls-del")
    doomed = data.draw(
        st.lists(st.sampled_from(sorted(fragments)), unique=True, max_size=3)
    )
    for name, url in _url_builders(tmp_path):
        store = open_store(url)
        for (var, seg), payload in fragments.items():
            store.put(var, seg, payload)
        for var, seg in doomed:
            store.delete(var, seg)
        store.close()

        survivors = {k: v for k, v in fragments.items() if k not in doomed}
        reopened = open_store(url)
        _assert_same_index(reopened, survivors, f"{name}: {url}")
        for var, seg in doomed:
            with pytest.raises(KeyError):
                reopened.get(var, seg)
        reopened.close()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fragments=_fragments, data=st.data())
def test_compaction_roundtrip_every_scheme(tmp_path_factory, fragments, data):
    """delete → compact → reopen: identical survivors, dead bytes reclaimed.

    On every persistent scheme, tombstoned fragments leave dead bytes
    that ``compact()`` reclaims (log rewritten, files unlinked), and the
    compacted store reopens bit-identical to its pre-compaction live
    state — compaction is invisible to readers.
    """
    tmp_path = tmp_path_factory.mktemp("urls-compact")
    doomed = data.draw(
        st.lists(st.sampled_from(sorted(fragments)), unique=True, min_size=1)
    )
    survivors = {k: v for k, v in fragments.items() if k not in doomed}
    for name, url in _url_builders(tmp_path):
        # write-through tiering keeps every fragment (and tombstone) on
        # both tiers, so its counters report two copies per key
        copies = 2 if name == "tiered" else 1
        store = open_store(url)
        store.put_many([(v, s, p) for (v, s), p in fragments.items()])
        for var, seg in doomed:
            store.delete(var, seg)
        dead = store.durability().dead_bytes
        assert dead == copies * sum(len(fragments[k]) for k in doomed), name

        report = store.compact()
        assert report.reclaimed_bytes == dead, name
        assert report.removed_files == copies * len(doomed), name
        assert store.durability().dead_bytes == 0, name
        got = {k: store.get(*k) for k in store.keys()}
        assert got == survivors, f"{name}: compaction disturbed live data"
        store.close()

        reopened = open_store(url)
        _assert_same_index(reopened, survivors, f"{name}: {url}")
        if survivors:
            assert reopened.get_many(list(survivors)) == survivors, name
        reopened.close()


class TestDurabilityOverURLSchemes:
    def test_fsync_url_param_round_trips(self, tmp_path):
        """``?fsync=`` is honored by file://, sharded://, and tiered://."""
        urls = [
            f"file://{tmp_path / 'f'}?fsync=off",
            f"sharded://{tmp_path / 's'}?fanout=4&fsync=always",
            (
                f"tiered://{tmp_path / 'tf'}?fsync=off"
                f"&slow=sharded://{tmp_path / 'ts'}"
            ),
        ]
        for url in urls:
            store = open_store(url)
            store.put("v", "s0", b"payload")
            store.close()
            reopened = open_store(url)
            assert reopened.get("v", "s0") == b"payload", url
            reopened.close()

    def test_fsync_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            open_store(f"file://{tmp_path / 'f'}?fsync=sometimes")

    def test_http_delete_and_server_side_compaction(self, tmp_path):
        """Tombstones and compaction work through the HTTP scheme."""
        disk = ShardedDiskStore(str(tmp_path / "ar"), fanout=4)
        with HTTPFragmentServer(disk) as server:
            client = open_store(server.url)
            client.put_many([("v", f"s{i}", bytes([i]) * 8) for i in range(4)])
            client.delete("v", "s0")
            client.delete("v", "s1")
            with pytest.raises(KeyError):
                client.get("v", "s0")
            assert client.durability().dead_bytes == 16
            report = client.compact()  # runs on the server's store
            assert report.reclaimed_bytes == 16
            assert report.removed_files == 2
            assert client.durability().dead_bytes == 0
            client.close()
        # deletions and compaction landed in the disk store underneath
        reopened = ShardedDiskStore(str(tmp_path / "ar"), fanout=4)
        assert set(reopened.keys()) == {("v", "s2"), ("v", "s3")}
        reopened.close()


class TestLayoutAutoDetection:
    def test_plain_path_reopens_sharded_layout(self, tmp_path):
        url = f"sharded://{tmp_path / 'ar'}?fanout=4"
        store = open_store(url)
        store.put("v", "s0", b"x")
        # a bare path must find the sharded layout (marker + index)
        reopened = open_store(str(tmp_path / "ar"))
        assert isinstance(reopened, ShardedDiskStore)
        assert reopened.fanout == 4
        assert reopened.get("v", "s0") == b"x"

    def test_plain_path_and_file_url_open_the_disk_store(self, tmp_path):
        store = open_store(str(tmp_path / "ar"))
        assert isinstance(store, ShardedDiskStore) and store.fanout == 256
        store.put("v", "s0", b"x")
        reopened = open_store(f"file://{tmp_path / 'ar'}")
        assert isinstance(reopened, ShardedDiskStore)
        assert reopened.get("v", "s0") == b"x"

    def test_tiered_reopen_autodetects_fast_layout(self, tmp_path):
        url = f"tiered://{tmp_path / 'fast'}?slow=sharded://{tmp_path / 'slow'}"
        store = open_store(url)
        store.put("v", "s0", b"payload")  # write-through: lands on both tiers
        store.close()
        reopened = open_store(url)
        assert isinstance(reopened, TieredStore)
        assert isinstance(reopened.slow, ShardedDiskStore)
        assert reopened.resident("v", "s0")  # fast-tier residency recovered
        assert reopened.get("v", "s0") == b"payload"
        assert reopened.stats().fast_hits == 1
        reopened.close()


class TestHTTPScheme:
    def test_http_reopen_sees_identical_index_with_reset_counters(self, tmp_path):
        disk = ShardedDiskStore(str(tmp_path / "ar"))
        fragments = {("v", f"s{i}"): bytes([i]) * (i + 1) for i in range(5)}
        with HTTPFragmentServer(disk) as server:
            first = open_store(server.url)
            assert isinstance(first, HTTPFragmentStore)
            for (var, seg), payload in fragments.items():
                first.put(var, seg, payload)
            first.get_many(list(fragments))
            assert first.reads == 5
            first.close()

            reopened = open_store(server.url)
            _assert_same_index(reopened, fragments, server.url)
            assert reopened.get_many(list(fragments)) == fragments
            reopened.close()


class TestClusterScheme:
    """``cluster://`` round-trips: one namespace over N HTTP nodes."""

    @pytest.fixture()
    def nodes(self, tmp_path):
        disks = [
            ShardedDiskStore(str(tmp_path / f"n{i}"), fanout=4) for i in range(3)
        ]
        servers = [HTTPFragmentServer(disk) for disk in disks]
        for server in servers:
            server.start()
        yield tmp_path, servers
        for server in servers:
            server.stop()
        for disk in disks:
            disk.close()

    @staticmethod
    def _url(servers, **params):
        hosts = ",".join("%s:%d" % server.address for server in servers)
        params.setdefault("replicas", 2)
        params.setdefault("vnodes", 32)
        query = "&".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"cluster://{hosts}?{query}"

    def test_cluster_reopen_sees_identical_index_with_reset_counters(self, nodes):
        _, servers = nodes
        url = self._url(servers)
        fragments = {("v", f"s{i}"): bytes([i]) * (i + 1) for i in range(8)}

        first = open_store(url)
        assert isinstance(first, ClusterFragmentStore)
        assert first.replicas == 2
        first.put_many([(v, s, p) for (v, s), p in fragments.items()])
        assert first.get_many(list(fragments)) == fragments
        assert first.reads == len(fragments)
        first.close()

        # the same URL reopens onto the same nodes: identical union
        # index (replicas deduplicated), counters reset
        reopened = open_store(url)
        _assert_same_index(reopened, fragments, url)
        assert reopened.get_many(list(fragments)) == fragments
        reopened.close()

    def test_cluster_url_params_round_trip(self, nodes):
        _, servers = nodes
        store = open_store(self._url(servers, replicas=3, vnodes=16))
        assert store.replicas == 3
        snapshot = store.stats()
        assert snapshot.vnodes == 16 and snapshot.nodes == 3
        store.close()

    def test_cluster_delete_compact_reopen_lands_on_every_node(self, nodes):
        tmp_path, servers = nodes
        url = self._url(servers)
        fragments = {("v", f"s{i}"): bytes([i + 1]) * 16 for i in range(10)}
        doomed = [("v", "s0"), ("v", "s1")]
        survivors = {k: v for k, v in fragments.items() if k not in doomed}

        store = open_store(url)
        store.put_many([(v, s, p) for (v, s), p in fragments.items()])
        for var, seg in doomed:
            store.delete(var, seg)
        with pytest.raises(KeyError):
            store.get("v", "s0")
        # K=2 replication: every doomed fragment left dead bytes on two
        # nodes, and the merged compaction report reclaims both copies
        assert store.durability().dead_bytes == 2 * sum(
            len(fragments[k]) for k in doomed
        )
        report = store.compact()
        assert report.removed_files == 2 * len(doomed)
        assert store.durability().dead_bytes == 0
        store.close()

        reopened = open_store(url)
        _assert_same_index(reopened, survivors, url)
        assert reopened.get_many(list(survivors)) == survivors
        reopened.close()

        # the deletions and compaction landed in each node's disk store
        for i in range(3):
            disk = ShardedDiskStore(str(tmp_path / f"n{i}"), fanout=4)
            assert not set(disk.keys()) & set(doomed), f"node {i}"
            assert disk.durability().dead_bytes == 0, f"node {i}"
            disk.close()

    def test_cluster_url_requires_nodes(self):
        with pytest.raises(ValueError, match="cluster"):
            open_store("cluster://")


class TestMemoryScheme:
    def test_memory_is_fresh_and_empty_each_open(self):
        store = open_store("memory://")
        assert isinstance(store, FragmentStore)
        assert store.keys() == [] and store.reads == 0
        store.put("v", "s", b"x")
        again = open_store("memory://")  # documented: never persists
        assert again.keys() == []


class TestURLParsing:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            open_store("ftp://somewhere/archive")

    def test_windows_style_drive_is_a_path(self):
        scheme, rest = split_store_url("C://not-a-scheme")
        assert scheme is None

    @pytest.mark.parametrize(
        "query", ["budget=4g", "policy=write-back", "promote_after=1",
                  "interval=1", "start=1", "compact_dead=0"],
    )
    def test_tiered_rejects_removed_keys(self, tmp_path, query):
        """Keys of the removed promotion/write-back machinery fail at open."""
        key = query.partition("=")[0]
        url = f"tiered://?slow=sharded://{tmp_path / 'slow'}&{query}"
        with pytest.raises(ValueError, match=rf"unknown tiered:// key\(s\) {key} "):
            open_store(url)

    @pytest.mark.parametrize(
        "url, key",
        [
            ("cluster://?nodes=memory%3A%2F%2F,memory%3A%2F%2F&replica=1", "replica"),
            ("sharded://{tmp}/s?fanuot=8", "fanuot"),
            ("sharded://{tmp}/s?fsnyc=off", "fsnyc"),
            ("file://{tmp}/f?fsnyc=off", "fsnyc"),
            ("http://127.0.0.1:9?timout=5", "timout"),
            ("cluster://?nodes=memory://,memory://&chunk=1k", "chunk"),
        ],
    )
    def test_every_scheme_rejects_unknown_keys(self, tmp_path, url, key):
        """A misspelled (or removed) key fails the open, naming itself and
        the keys the scheme accepts, before any store is built."""
        url = url.format(tmp=tmp_path)
        scheme = url.partition("://")[0]
        with pytest.raises(ValueError, match=rf"unknown {scheme}:// key\(s\) {key} .*known: "):
            open_store(url)
        assert not (tmp_path / "s").exists() and not (tmp_path / "f").exists()

    def test_split_store_url(self):
        assert split_store_url("/plain/path") == (None, "/plain/path")
        assert split_store_url("sharded:///a/b?fanout=2") == (
            "sharded",
            "/a/b?fanout=2",
        )

    def test_parse_bytes_suffixes(self):
        assert parse_bytes("1024") == 1024
        assert parse_bytes("1k") == 1024
        assert parse_bytes("2M") == 2 << 20
        assert parse_bytes("1.5g") == int(1.5 * (1 << 30))
        with pytest.raises(ValueError):
            parse_bytes("lots")
