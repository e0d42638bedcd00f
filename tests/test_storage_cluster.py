"""Property and chaos suite for the scale-out cluster fabric.

Three layers of guarantees, from math to metal:

* :class:`repro.storage.cluster.HashRing` placement properties —
  stability (same key → same owners), balance (vnodes bound the max/min
  node load ratio), and minimal movement (a ring over one node more or
  less re-homes only ~1/N of the keys, and every re-homed key moves
  *to* the node that changed).
* :class:`repro.storage.cluster.ClusterFragmentStore` semantics — exact
  K-way replication, FragmentStore-contract reads/writes/transactions,
  transparent failover with per-node accounting, and merged
  durability/resilience snapshots.
* Chaos over real `HTTPFragmentServer` backends — killing any single
  node of a 3-node K=2 cluster mid-retrieval yields results
  bit-identical to the healthy cluster with zero client-visible errors
  and ``failovers > 0``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compressors.base import make_refactorer
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, refactor_dataset
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.cluster import (
    ClusterFragmentStore,
    HashRing,
)
from repro.storage.remote import HTTPFragmentServer
from repro.storage.resilience import (
    DegradedError,
    FaultStoreError,
    ResilienceStats,
    ResilientStore,
    RetryPolicy,
)
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store

from tests.fault_store import FaultyFragmentStore, SimulatedCrash

#: A retry policy that never sleeps — chaos tests fail over instantly.
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)


def keyset(seed: int, count: int) -> list:
    """A deterministic pseudo-random fragment key set."""
    rng = np.random.default_rng(seed)
    return [
        (f"v{rng.integers(1 << 30)}", f"s{rng.integers(1 << 30)}")
        for _ in range(count)
    ]


def make_cluster(n_nodes: int, replicas: int = 2, **kwargs):
    """A cluster over fresh in-memory nodes plus the raw node stores."""
    nodes = [FragmentStore() for _ in range(n_nodes)]
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("vnodes", 32)
    cluster = ClusterFragmentStore(nodes, replicas=replicas, **kwargs)
    return cluster, nodes


class _DownStore(FragmentStore):
    """A backend that fails every data operation transiently (node down)."""

    def _down(self, *a, **k):
        raise FaultStoreError("node down")

    get = get_many = put = put_many = transact = _down
    compact = durability = _down


def kill_server(server: HTTPFragmentServer) -> None:
    """Hard-kill a running fragment server.

    ``stop()`` alone closes the listener but leaves established
    keep-alive handler threads serving — a graceful drain, not a death.
    Swapping the handler's inner store for one that errors makes every
    in-flight connection fail too, so clients see exactly what a
    SIGKILLed node produces: dead sockets and refused re-dials.
    """
    server._httpd.inner = _DownStore()
    server._httpd.handle_error = lambda *a: None  # silence expected stderr
    server.stop()


# ---------------------------------------------------------------------------
# HashRing placement properties
# ---------------------------------------------------------------------------


class TestHashRingProperties:
    NAMES = ["alpha", "beta", "gamma"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 3))
    def test_placement_is_stable(self, seed, k):
        """Same key → same owner list, across independently built rings."""
        keys = keyset(seed, 50)
        ring_a = HashRing(self.NAMES, vnodes=64)
        ring_b = HashRing(list(self.NAMES), vnodes=64)
        for key in keys:
            owners = ring_a.owners(*key, k)
            assert owners == ring_b.owners(*key, k)
            assert owners == ring_a.owners(*key, k)  # and across calls

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_owners_are_distinct_and_clamped(self, seed):
        """K owners are K distinct nodes; k beyond the node count clamps."""
        ring = HashRing(self.NAMES, vnodes=16)
        for key in keyset(seed, 30):
            owners = ring.owners(*key, 2)
            assert len(owners) == len(set(owners)) == 2
            assert ring.owners(*key, 10) == ring.owners(*key, 3)
            assert set(ring.owners(*key, 3)) == set(self.NAMES)
            # the k-replica list is a prefix-extension of the primary
            assert ring.owners(*key, 2)[0] == ring.owners(*key, 1)[0]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_load_is_balanced_with_vnodes(self, seed):
        """Primary load spreads evenly: bounded max/min ratio, no dead node."""
        keys = keyset(seed, 300)
        ring = HashRing(self.NAMES, vnodes=64)
        load = {name: 0 for name in self.NAMES}
        for key in keys:
            load[ring.owners(*key, 1)[0]] += 1
        assert min(load.values()) >= 0.10 * len(keys)
        assert max(load.values()) / max(1, min(load.values())) <= 3.5

    def test_few_vnodes_balance_worse_than_many(self):
        """The vnodes knob is what buys balance (sanity on the mechanism)."""
        keys = keyset(7, 2000)

        def spread(vnodes):
            ring = HashRing(self.NAMES, vnodes=vnodes)
            load = {name: 0 for name in self.NAMES}
            for key in keys:
                load[ring.owners(*key, 1)[0]] += 1
            return max(load.values()) - min(load.values())

        assert spread(128) < spread(1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_membership_change_moves_minimal_keys(self, seed):
        """Adding a node re-homes ~1/N of the keys, all of them *to* it."""
        keys = keyset(seed, 300)
        before = HashRing(self.NAMES, vnodes=64)
        after = HashRing(self.NAMES + ["delta"], vnodes=64)
        moved = 0
        for key in keys:
            old = before.owners(*key, 1)[0]
            new = after.owners(*key, 1)[0]
            if old != new:
                moved += 1
                # consistent hashing: a key only ever moves to the new node
                assert new == "delta", key
        # expected 1/4; generous bound still rules out modulo-rehash (~3/4)
        assert moved <= 0.45 * len(keys)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_removal_moves_only_the_lost_nodes_keys(self, seed):
        """Removing a node re-homes exactly the keys it owned."""
        keys = keyset(seed, 200)
        before = HashRing(self.NAMES, vnodes=64)
        after = HashRing(["alpha", "beta"], vnodes=64)
        for key in keys:
            old = before.owners(*key, 1)[0]
            new = after.owners(*key, 1)[0]
            if old != "gamma":
                assert new == old, key

    def test_ring_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)
        with pytest.raises(ValueError):
            HashRing(["a"]).owners("v", "s", 0)


# ---------------------------------------------------------------------------
# ClusterFragmentStore semantics
# ---------------------------------------------------------------------------


class TestClusterStoreBasics:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    def test_every_key_replicated_exactly_k_times(self, seed):
        cluster, nodes = make_cluster(4, replicas=2)
        keys = keyset(seed, 40)
        cluster.put_many([(v, s, (v + s).encode()) for v, s in keys])
        for v, s in set(keys):
            copies = sum(node.has(v, s) for node in nodes)
            assert copies == 2, (v, s)
            assert set(cluster.owners(v, s)) == {
                f"node{i}" for i, node in enumerate(nodes) if node.has(v, s)
            }
        cluster.close()

    def test_reads_and_index_match_contract(self):
        cluster, _ = make_cluster(3)
        keys = keyset(11, 30)
        payloads = {k: (k[0] + k[1]).encode() * 3 for k in keys}
        cluster.put_many([(v, s, payloads[(v, s)]) for v, s in payloads])
        assert sorted(cluster.keys()) == sorted(payloads)
        assert cluster.get_many(list(payloads)) == payloads
        one = next(iter(payloads))
        assert cluster.get(*one) == payloads[one]
        assert cluster.size_of(*one) == len(payloads[one])
        assert cluster.nbytes() == sum(len(p) for p in payloads.values())
        # client-visible accounting: batch = 1 round trip, like every store
        assert cluster.put_round_trips == 1
        trips_before = cluster.round_trips
        cluster.get_many(list(payloads))
        assert cluster.round_trips == trips_before + 1
        cluster.close()

    def test_missing_keys_raise_before_any_fanout(self):
        cluster, nodes = make_cluster(2)
        cluster.put("v", "s0", b"x")
        with pytest.raises(KeyError) as exc:
            cluster.get_many([("v", "s0"), ("v", "nope"), ("w", "gone")])
        assert set(map(tuple, exc.value.args[0])) == {("v", "nope"), ("w", "gone")}
        with pytest.raises(KeyError):
            cluster.get("v", "nope")
        assert all(node.reads == 0 for node in nodes)  # index check, no I/O
        cluster.close()

    def test_delete_and_transact_semantics(self):
        cluster, nodes = make_cluster(3)
        cluster.put_many([("v", f"s{i}", bytes([i]) * 4) for i in range(6)])
        cluster.delete("v", "s0")
        assert not cluster.has("v", "s0")
        assert not any(node.has("v", "s0") for node in nodes)
        with pytest.raises(KeyError):
            cluster.delete("v", "s0")
        with pytest.raises(ValueError):
            cluster.transact([("v", "s1", b"new")], [("v", "s1")])
        cluster.transact([("v", "s1", b"new")], [("v", "s2")])
        assert cluster.get("v", "s1") == b"new"
        assert not cluster.has("v", "s2")
        # the replacement landed on every replica, not just one
        for node in nodes:
            if node.has("v", "s1"):
                assert node.get("v", "s1") == b"new"
        cluster.close()

    def test_single_node_cluster_clamps_replicas(self):
        cluster, nodes = make_cluster(1, replicas=2)
        cluster.put("v", "s", b"x")
        assert cluster.get("v", "s") == b"x"
        assert nodes[0].get("v", "s") == b"x"
        cluster.close()

    def test_named_backends_and_duplicate_rejection(self):
        cluster = ClusterFragmentStore(
            [("east", FragmentStore()), ("west", FragmentStore())], retry=FAST_RETRY
        )
        assert sorted(cluster.nodes()) == ["east", "west"]
        cluster.close()
        with pytest.raises(ValueError):
            ClusterFragmentStore(
                [("east", FragmentStore()), ("east", FragmentStore())]
            )
        with pytest.raises(ValueError):
            ClusterFragmentStore([])

    def test_existing_node_contents_join_the_namespace(self):
        seeded = FragmentStore()
        seeded.put("v", "old", b"seeded")
        cluster = ClusterFragmentStore(
            [seeded, FragmentStore()], retry=FAST_RETRY
        )
        assert cluster.has("v", "old")
        assert cluster.get("v", "old") == b"seeded"
        cluster.close()

    def test_url_resilience_wraps_each_node_not_the_cluster(self):
        cluster = open_store("cluster://?nodes=memory://,memory://&retries=5&breaker=3")
        assert type(cluster) is ClusterFragmentStore
        for node in cluster._nodes:  # per-node wrappers, one breaker each
            assert isinstance(node.store, ResilientStore)
            assert node.store.retry.attempts == 5
            assert node.store.breaker.failure_threshold == 3
        assert cluster._nodes[0].store.breaker is not cluster._nodes[1].store.breaker
        cluster.close()


class TestClusterURLGrammar:
    def test_from_url_parses_every_param(self):
        store = open_store(
            "cluster://?nodes=memory://,memory://,memory://"
            "&replicas=3&vnodes=16&retries=4&retry_base=0.01"
            "&breaker=7&cooldown=1.5"
        )
        assert isinstance(store, ClusterFragmentStore)
        assert store.replicas == 3
        assert store._ring.vnodes == 16
        assert store.stats().nodes == 3
        node = store._nodes[0]
        assert node.store.retry.attempts == 4
        assert node.store.retry.base_delay == 0.01
        assert node.breaker.failure_threshold == 7
        assert node.breaker.cooldown == 1.5
        store.close()

    def test_from_url_breaker_zero_disables_breakers(self):
        store = open_store("cluster://?nodes=memory://,memory://&breaker=0")
        assert all(node.breaker is None for node in store._nodes)
        store.close()

    def test_from_url_requires_nodes(self):
        with pytest.raises(ValueError):
            open_store("cluster://")
        with pytest.raises(ValueError):
            open_store("cluster://?replicas=2")

    def test_unknown_scheme_error_lists_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            open_store("bogus://x")


# ---------------------------------------------------------------------------
# Failover
# ---------------------------------------------------------------------------


def make_faulty_cluster(n_nodes: int, replicas: int = 2):
    """Cluster whose every node is a FaultyFragmentStore over memory."""
    faulty = [FaultyFragmentStore(FragmentStore()) for _ in range(n_nodes)]
    cluster = ClusterFragmentStore(
        faulty, replicas=replicas, vnodes=32, retry=FAST_RETRY,
        breaker_threshold=3, breaker_cooldown=60.0,
    )
    return cluster, faulty


class TestReadFailover:
    def test_dead_replica_serves_transparently_and_is_counted(self):
        cluster, faulty = make_faulty_cluster(3)
        keys = keyset(23, 40)
        payloads = {k: (k[0] + k[1]).encode() * 7 for k in keys}
        cluster.put_many([(v, s, p) for (v, s), p in payloads.items()])
        healthy = cluster.get_many(list(payloads))
        assert healthy == payloads

        faulty[0].fail_next(10**6)  # node 0 is dead to every read
        again = cluster.get_many(list(payloads))
        assert again == payloads  # bit-identical, zero client errors
        stats = cluster.stats()
        assert stats.failovers > 0
        assert stats.per_node["node0"].failovers == stats.failovers
        assert stats.per_node["node1"].failovers == 0
        cluster.close()

    def test_breaker_opens_and_dead_node_is_skipped_fast(self):
        cluster, faulty = make_faulty_cluster(3)
        keys = keyset(29, 40)
        cluster.put_many([(v, s, b"p" * 8) for v, s in keys])
        faulty[1].fail_next(10**6)
        # two failing rounds accumulate the 3 consecutive transient
        # failures (2 retry attempts each) the breaker needs to trip
        cluster.get_many(keys)
        cluster.get_many(keys)
        stats = cluster.stats()
        assert stats.per_node["node1"].breaker_is_open == 1
        assert cluster.resilience().breaker_state == "open"
        # with the breaker open the node is skipped without new attempts
        faults_before = faulty[1].transient_faults
        cluster.get_many(keys)
        assert faulty[1].transient_faults == faults_before
        assert cluster.stats().failovers > stats.failovers
        cluster.close()

    def test_all_replicas_dead_raises_typed_degraded_error(self):
        cluster, faulty = make_faulty_cluster(2, replicas=2)
        keys = keyset(31, 10)
        cluster.put_many([(v, s, b"x") for v, s in keys])
        for node in faulty:
            node.fail_next(10**6)
        with pytest.raises(DegradedError) as exc:
            cluster.get_many(keys)
        assert set(exc.value.missing) == set(keys)
        cluster.close()

    def test_replica_missing_key_fails_over_not_keyerror(self):
        """A node lacking a key (a missed replica write) is a failover."""
        cluster, nodes = make_cluster(3)
        keys = keyset(37, 30)
        cluster.put_many([(v, s, (v + s).encode()) for v, s in keys])
        # silently lose node 0's copies, as a crashed-and-wiped node would
        nodes[0]._data.clear()
        nodes[0]._sizes.clear()
        got = cluster.get_many(keys)
        assert got == {k: (k[0] + k[1]).encode() for k in set(keys)}
        assert cluster.stats().failovers > 0
        cluster.close()


class TestWriteFailover:
    def test_put_tolerates_one_dead_replica_and_counts_it(self):
        down = _DownStore()
        cluster = ClusterFragmentStore(
            [FragmentStore(), FragmentStore(), down],
            replicas=2, vnodes=32, retry=FAST_RETRY,
        )
        keys = keyset(41, 30)
        cluster.put_many([(v, s, b"w" * 4) for v, s in keys])  # no raise
        stats = cluster.stats()
        assert stats.write_failovers > 0
        assert stats.per_node["node2"].write_failovers == stats.write_failovers
        # every key still readable from its surviving replica
        assert set(cluster.get_many(keys)) == set(keys)
        cluster.close()

    def test_write_fails_when_a_key_would_lose_every_replica(self):
        cluster = ClusterFragmentStore(
            [_DownStore(), _DownStore()], replicas=2, vnodes=32,
            retry=FAST_RETRY,
        )
        with pytest.raises(FaultStoreError):
            cluster.put("v", "s", b"x")
        assert not cluster.has("v", "s")  # the failed write is not indexed
        cluster.close()

    def test_delete_on_a_dead_node_is_strict(self):
        """A replica that cannot confirm a delete fails the call loudly."""
        flaky = FaultyFragmentStore(FragmentStore())
        cluster = ClusterFragmentStore(
            [FragmentStore(), flaky], replicas=2, vnodes=32, retry=FAST_RETRY,
        )
        cluster.put("v", "s", b"x")
        flaky.fail_after = 0  # next mutation on this node dies
        with pytest.raises(SimulatedCrash):
            cluster.delete("v", "s")
        assert cluster.has("v", "s")  # index unchanged: nothing half-deleted
        cluster.close()


# ---------------------------------------------------------------------------
# Rebalancing
# ---------------------------------------------------------------------------


class TestMergedStats:
    def test_durability_merges_every_nodes_wal(self, tmp_path):
        stores = [ShardedDiskStore(str(tmp_path / f"n{i}")) for i in range(3)]
        cluster = ClusterFragmentStore(
            stores, replicas=1, vnodes=32, retry=FAST_RETRY
        )
        cluster.put_many([(v, s, b"d" * 16) for v, s in keyset(71, 30)])
        merged = cluster.durability()
        per_node = [s.durability() for s in stores]
        assert merged.wal_commits == sum(d.wal_commits for d in per_node)
        assert merged.wal_entries == sum(d.wal_entries for d in per_node)
        assert all(d.wal_commits > 0 for d in per_node)  # not just node 0
        cluster.close()

    def test_compact_merges_reports_across_nodes(self, tmp_path):
        stores = [ShardedDiskStore(str(tmp_path / f"n{i}")) for i in range(2)]
        cluster = ClusterFragmentStore(
            stores, replicas=2, vnodes=32, retry=FAST_RETRY
        )
        cluster.put_many([("v", f"s{i}", bytes([i]) * 32) for i in range(8)])
        for i in range(4):
            cluster.delete("v", f"s{i}")
        report = cluster.compact()
        # K=2: every tombstoned fragment is reclaimed on both replicas
        assert report.removed_files == 8
        assert report.reclaimed_bytes == 2 * 4 * 32
        assert cluster.durability().dead_bytes == 0
        cluster.close()

    def test_resilience_merges_attempts_and_worst_breaker(self):
        cluster, faulty = make_faulty_cluster(3)
        cluster.put_many([(v, s, b"x") for v, s in keyset(73, 20)])
        baseline = cluster.resilience().attempts
        assert baseline > 0
        faulty[2].fail_next(10**6)
        cluster.get_many(cluster.keys())
        cluster.get_many(cluster.keys())  # second round trips the breaker
        merged = cluster.resilience()
        assert merged.attempts > baseline
        assert merged.failures > 0
        assert merged.breaker_is_open == 1
        assert merged.breaker_state == "open"
        cluster.close()

    def test_resilience_stats_merge_unit(self):
        a = ResilienceStats(attempts=3, failures=1, breaker_state="closed")
        b = ResilienceStats(
            attempts=5, retries=2, breaker_is_open=1, breaker_state="open",
            breaker_opens=1,
        )
        merged = a.merge(b)
        assert merged is a
        assert merged.attempts == 8 and merged.retries == 2
        assert merged.failures == 1 and merged.breaker_opens == 1
        assert merged.breaker_is_open == 1 and merged.breaker_state == "open"
        # half-open loses to open, beats closed
        c = ResilienceStats(breaker_state="half_open", breaker_is_open=1)
        assert merged.merge(c).breaker_state == "open"
        assert ResilienceStats().merge(c).breaker_state == "half_open"

    def test_durability_skips_unreachable_nodes(self, tmp_path):
        disk = ShardedDiskStore(str(tmp_path / "n0"))
        cluster = ClusterFragmentStore(
            [disk, _DownStore()], replicas=2, vnodes=32, retry=FAST_RETRY
        )
        # K=2: every key reaches the live disk node, the dead replica
        # writes are tolerated and counted
        cluster.put_many([(v, s, b"x" * 8) for v, s in keyset(79, 10)])
        assert cluster.stats().write_failovers > 0
        merged = cluster.durability()  # no raise with one node dead
        assert merged.wal_commits >= disk.durability().wal_commits > 0
        cluster.close()


# ---------------------------------------------------------------------------
# Retrieval identity and chaos over real HTTP fragment servers
# ---------------------------------------------------------------------------


def cluster_url(servers, replicas: int = 2) -> str:
    nodes = ",".join("%s:%d" % server.address for server in servers)
    return (
        f"cluster://{nodes}?replicas={replicas}&vnodes=32"
        f"&retries=2&retry_base=0.0&breaker=2&cooldown=30"
    )


class TestClusterRetrievalChaos:
    """The acceptance criterion: 3 nodes, K=2, kill any one mid-retrieval
    → bit-identical to the healthy cluster, zero client-visible errors."""

    @pytest.fixture(scope="class")
    def archived(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cluster-archive")
        rng = np.random.default_rng(5)
        t = np.linspace(0, 8, 1200)
        fields = {
            "vx": 60 * np.sin(t) + rng.normal(size=t.size),
            "vy": 30 * np.cos(t) + rng.normal(size=t.size),
            "vz": 10 * np.sin(2 * t) + rng.normal(size=t.size),
        }
        refactored = refactor_dataset(
            fields, make_refactorer("pmgard_hb", num_planes=32)
        )
        # the single-store baseline every cluster answer must match
        base_dir = str(tmp / "baseline")
        Archive(ShardedDiskStore(base_dir)).save_dataset(refactored)
        # three node directories populated through a healthy cluster
        node_dirs = [str(tmp / f"node{i}") for i in range(3)]
        servers = [
            HTTPFragmentServer(ShardedDiskStore(d)).start() for d in node_dirs
        ]
        store = open_store(cluster_url(servers))
        Archive(store).save_dataset(refactored)
        store.close()
        for server in servers:
            server.stop()
        ranges = {k: float(np.ptp(v)) for k, v in fields.items()}
        qoi = qoi_from_spec("vtot", sorted(fields))
        env = {k: (v, 0.0) for k, v in fields.items()}
        return base_dir, node_dirs, ranges, qoi, float(np.ptp(qoi.value(env)))

    def retrieve(self, store, archived, tolerances=(1e-3,), kill=None):
        """Run a (possibly multi-stage) retrieval; *kill* fires between
        stages, modelling a node death mid-session."""
        _, _, ranges, qoi, qoi_range = archived
        service = RetrievalService(store, value_ranges=ranges)
        results = []
        try:
            with service.open_session() as session:
                for i, tol in enumerate(tolerances):
                    if kill is not None and i == len(tolerances) - 1:
                        kill()
                    results.append(
                        session.retrieve([QoIRequest("vtot", qoi, tol, qoi_range)])
                    )
        finally:
            service.close()
        return results

    def assert_identical(self, got, want, context: str):
        assert len(got) == len(want), context
        for a, b in zip(got, want):
            assert a.total_bytes == b.total_bytes, context
            assert a.estimated_errors == b.estimated_errors, context
            for name in b.data:
                assert np.array_equal(a.data[name], b.data[name]), context

    def baseline(self, archived, tolerances):
        base_dir = archived[0]
        return self.retrieve(
            ShardedDiskStore(base_dir), archived, tolerances
        )

    def test_healthy_cluster_retrieval_is_bit_identical(self, archived):
        _, node_dirs, *_ = archived
        servers = [
            HTTPFragmentServer(ShardedDiskStore(d)).start() for d in node_dirs
        ]
        try:
            store = open_store(cluster_url(servers))
            got = self.retrieve(store, archived, (1e-2, 1e-4))
            self.assert_identical(
                got, self.baseline(archived, (1e-2, 1e-4)), "healthy"
            )
            store.close()
        finally:
            for server in servers:
                server.stop()

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_kill_any_single_node_mid_retrieval(self, archived, victim):
        _, node_dirs, *_ = archived
        servers = [
            HTTPFragmentServer(ShardedDiskStore(d)).start() for d in node_dirs
        ]
        try:
            store = open_store(cluster_url(servers))
            tolerances = (1e-2, 1e-4)
            got = self.retrieve(
                store, archived, tolerances,
                kill=lambda: kill_server(servers[victim]),
            )
            # bit-identical to the healthy baseline, zero visible errors
            self.assert_identical(
                got, self.baseline(archived, tolerances), f"victim={victim}"
            )
            stats = store.stats()
            assert stats.failovers > 0, f"victim={victim}"
            assert stats.per_node[f"node{victim}"].failovers > 0
            store.close()
        finally:
            for server in servers:
                if server._thread is not None:
                    server.stop()


class TestServiceIntegration:
    def test_service_stats_carry_cluster_counters(self):
        cluster, _ = make_cluster(3)
        cluster.put_many([(v, s, b"x" * 8) for v, s in keyset(83, 20)])
        service = RetrievalService(cluster, value_ranges={})
        stats = service.stats()
        assert stats.cluster is not None
        assert stats.cluster.nodes == 3
        assert set(stats.cluster.per_node) == {"node0", "node1", "node2"}
        from dataclasses import asdict

        payload = asdict(stats)  # the wire shape /metrics flattens
        assert payload["cluster"]["per_node"]["node1"]["requests"] >= 0
        service.close()
