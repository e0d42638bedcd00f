"""Tests for the tiered storage fabric (a write-through TieredStore)."""

import threading

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.qois import qoi_from_spec, total_velocity
from repro.core.retrieval import QoIRequest, refactor_dataset
from repro.data import generators
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.remote import HTTPFragmentServer
from repro.storage.resilience import ResilienceStats
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store
from repro.storage.tiered import TieredStore
from repro.utils.fragment_keys import timestep_variable


def seeded_slow(entries):
    slow = FragmentStore()
    for (var, seg), payload in entries.items():
        slow.put(var, seg, payload)
    return slow


PAYLOADS = {("v", f"s{i}"): bytes([i]) * (10 + i) for i in range(8)}


class TestTieredReads:
    def test_index_is_the_union_of_both_tiers(self):
        slow = seeded_slow(PAYLOADS)
        fast = FragmentStore()
        fast.put("pre", "warm", b"already-fast")
        store = TieredStore(fast, slow)
        assert set(store.keys()) == set(PAYLOADS) | {("pre", "warm")}
        assert store.nbytes() == slow.nbytes() + fast.nbytes()
        assert store.resident("pre", "warm")

    def test_cold_get_served_from_slow(self):
        store = TieredStore(FragmentStore(), seeded_slow(PAYLOADS))
        assert store.get("v", "s0") == PAYLOADS[("v", "s0")]
        stats = store.stats()
        assert stats.slow_hits == 1 and stats.fast_hits == 0

    def test_get_many_coalesces_misses_into_one_slow_trip(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        out = store.get_many(list(PAYLOADS))
        assert out == PAYLOADS
        assert slow.round_trips == 1  # all eight misses, one slow round trip

    def test_mixed_batch_splits_between_tiers(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        store.put_many([(v, s, PAYLOADS[v, s]) for v, s in (("v", "s0"), ("v", "s1"))])
        assert store.resident("v", "s0") and store.resident("v", "s1")
        before = slow.round_trips
        out = store.get_many([("v", "s0"), ("v", "s1"), ("v", "s2"), ("v", "s3")])
        assert out == {k: PAYLOADS[k] for k in out}
        assert slow.round_trips == before + 1  # only the two misses went slow
        stats = store.stats()
        assert stats.fast_hits == 2 and stats.slow_hits == 2

    def test_missing_key_raises_without_touching_tiers(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        with pytest.raises(KeyError):
            store.get("v", "nope")
        with pytest.raises(KeyError) as exc:
            store.get_many([("v", "s0"), ("v", "nope")])
        assert ("v", "nope") in exc.value.args[0]
        assert slow.reads == 0

    def test_failed_fast_read_falls_back_to_slow(self):
        class FailingFast(FragmentStore):
            failing = False

            def get_many(self, keys):
                if self.failing:
                    raise OSError("fast tier read failed")
                return super().get_many(keys)

        slow, fast = FragmentStore(), FailingFast()
        store = TieredStore(fast, slow)
        store.put("v", "s0", b"payload")  # write-through: resident on both
        assert store.resident("v", "s0")
        fast.failing = True
        assert store.get("v", "s0") == b"payload"
        stats = store.stats()
        assert stats.fast_hits == 0 and stats.slow_hits == 1

    def test_resilience_is_all_zero_over_an_unwrapped_slow_tier(self):
        store = TieredStore(FragmentStore(), seeded_slow(PAYLOADS))
        assert store.get_many(list(PAYLOADS)) == PAYLOADS
        assert store.resilience() == ResilienceStats()


class TestTieredWrites:
    def test_write_through_lands_on_both_tiers(self):
        slow, fast = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow)
        store.put("w", "s0", b"abc")
        assert slow.get("w", "s0") == b"abc"
        assert fast.get("w", "s0") == b"abc"
        assert store.get("w", "s0") == b"abc"
        assert store.stats().fast_hits == 1 and slow.reads == 1

    def test_delete_removes_from_both_tiers(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        store.put("v", "s0", b"resident")
        store.delete("v", "s0")
        assert not store.has("v", "s0")
        assert not store.fast.has("v", "s0")
        assert not slow.has("v", "s0")
        with pytest.raises(KeyError):
            store.get("v", "s0")

    def test_overwrite_replaces_the_payload_on_both_tiers(self):
        slow, fast = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow)
        store.put("w", "s0", b"old")
        store.put("w", "s0", b"newer")
        assert fast.get("w", "s0") == slow.get("w", "s0") == b"newer"
        assert store.get("w", "s0") == b"newer"
        assert store.size_of("w", "s0") == len(b"newer")

    def test_transact_is_one_put_round_trip_per_tier(self):
        slow, fast = seeded_slow(PAYLOADS), FragmentStore()
        store = TieredStore(fast, slow)
        before = slow.put_round_trips
        doomed = [("v", "s0"), ("v", "s1")]
        store.transact([("w", "s0", b"a"), ("w", "s1", b"bb")], doomed)
        assert fast.put_round_trips == 1 and slow.put_round_trips == before + 1
        expected = (set(PAYLOADS) - set(doomed)) | {("w", "s0"), ("w", "s1")}
        assert set(store.keys()) == set(slow.keys()) == expected
        assert set(fast.keys()) == {("w", "s0"), ("w", "s1")}

    def test_delete_of_a_fast_only_key_leaves_the_slow_tier_alone(self):
        slow, fast = seeded_slow(PAYLOADS), FragmentStore()
        fast.put("pre", "warm", b"fast-only")
        store = TieredStore(fast, slow)
        store.delete("pre", "warm")
        assert not store.has("pre", "warm") and not fast.has("pre", "warm")
        assert set(slow.keys()) == set(PAYLOADS)

    def test_delete_of_an_unknown_key_raises_and_touches_no_tier(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        with pytest.raises(KeyError):
            store.delete("v", "nope")
        assert set(store.keys()) == set(slow.keys()) == set(PAYLOADS)

    def test_close_leaves_every_write_durable_on_the_slow_tier(self, tmp_path):
        slow_dir = str(tmp_path / "slow")
        store = TieredStore(
            ShardedDiskStore(str(tmp_path / "fast")),
            ShardedDiskStore(slow_dir, fanout=4),
        )
        store.put_many([(v, s, p) for (v, s), p in PAYLOADS.items()])
        store.delete("v", "s0")
        store.close()
        # no flush step: the slow tier alone reopens with every write
        slow = ShardedDiskStore(slow_dir, fanout=4)
        expected = {k: p for k, p in PAYLOADS.items() if k != ("v", "s0")}
        assert set(slow.keys()) == set(expected)
        assert slow.get_many(list(expected)) == expected
        slow.close()

    def test_rejects_unknown_policy_and_bad_knobs(self):
        # the store is write-through with no budget and no mover: the
        # knobs of those mechanisms are gone, not silently ignored
        for knob in ("fast_budget_bytes", "policy", "promote_after",
                     "transfer_interval", "compact_dead_bytes"):
            with pytest.raises(TypeError):
                TieredStore(FragmentStore(), FragmentStore(), **{knob: 1})


class TestTieredURL:
    def test_from_url_over_kv_style_directory(self, tmp_path):
        slow_dir = str(tmp_path / "slow")
        slow = ShardedDiskStore(slow_dir)
        slow.put("v", "s0", b"payload")
        store = open_store(
            f"tiered://{tmp_path / 'fast'}?slow={slow_dir}"
        )
        assert isinstance(store, TieredStore)
        assert store.get("v", "s0") == b"payload"
        store.close()

    def test_from_url_requires_slow_backend(self):
        with pytest.raises(ValueError):
            open_store("tiered:///fast/dir")

    def test_memory_fast_tier_when_path_empty(self, tmp_path):
        slow_dir = str(tmp_path / "slow")
        ShardedDiskStore(slow_dir).put("v", "s0", b"x")
        store = open_store(f"tiered://?slow={slow_dir}")
        assert isinstance(store.fast, FragmentStore)
        assert type(store.fast) is FragmentStore  # plain in-memory tier
        store.close()


class TestTieredRetrievalIntegration:
    """The deployment shape: service + shared cache over a tiered fabric."""

    @pytest.fixture(scope="class")
    def archived(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tiered-archive")
        rng = np.random.default_rng(3)
        t = np.linspace(0, 8, 1500)
        fields = {
            "vx": 60 * np.sin(t) + rng.normal(size=t.size),
            "vy": 30 * np.cos(t) + rng.normal(size=t.size),
            "vz": 10 * np.sin(2 * t) + rng.normal(size=t.size),
        }
        store = ShardedDiskStore(str(tmp / "ar"))
        archive = Archive(store)
        archive.save_dataset(
            refactor_dataset(fields, make_refactorer("pmgard_hb", num_planes=32))
        )
        ranges = {k: float(np.ptp(v)) for k, v in fields.items()}
        qoi = qoi_from_spec("vtot", sorted(fields))
        env = {k: (v, 0.0) for k, v in fields.items()}
        return str(tmp / "ar"), ranges, qoi, float(np.ptp(qoi.value(env)))

    def test_service_routes_batched_misses_to_slow_tier_coalesced(self, archived):
        archive_dir, ranges, qoi, qoi_range = archived
        slow = FragmentStore()
        for var, seg in ShardedDiskStore(archive_dir).keys():
            slow.put(var, seg, ShardedDiskStore(archive_dir).get(var, seg))
        tiered = TieredStore(FragmentStore(), slow)
        service = RetrievalService(tiered, value_ranges=ranges)
        with service.open_session() as session:
            result = session.retrieve(
                [QoIRequest("vtot", qoi, 1e-3, qoi_range)]
            )
        assert result.all_satisfied
        # the pipelined rounds moved through the cache into few coalesced
        # slow-tier trips — not one per fragment
        assert slow.reads > 10
        assert slow.round_trips <= result.rounds * 4 + 8
        stats = service.stats()
        assert stats.tiers is not None
        assert stats.tiers.slow_hits == slow.reads

    def test_written_through_archive_serves_the_ladder_from_the_fast_tier(self, archived):
        archive_dir, ranges, qoi, qoi_range = archived
        source = ShardedDiskStore(archive_dir)
        slow = FragmentStore()
        tiered = TieredStore(FragmentStore(), slow)
        tiered.put_many([(v, s, source.get(v, s)) for v, s in source.keys()])

        def ladder(store):
            service = RetrievalService(store, value_ranges=ranges)
            with service.open_session() as session:
                return [
                    session.retrieve([QoIRequest("vtot", qoi, tol, qoi_range)])
                    for tol in (1e-2, 1e-4)
                ]

        for direct, through in zip(ladder(source), ladder(tiered)):
            assert through.total_bytes == direct.total_bytes
            assert through.estimated_errors == direct.estimated_errors
            for name in direct.data:
                assert np.array_equal(direct.data[name], through.data[name])
        # every fragment was written through, so the slow tier serves none
        stats = tiered.stats()
        assert stats.fast_hits > 0 and stats.slow_hits == 0
        assert slow.reads == 0


class TestNoBackgroundReads:
    def test_tiered_service_reads_only_what_requests_miss(self, tmp_path):
        """Over a two-node cluster, every node-disk read is a slow-tier hit.

        The service's fragment cache keeps the hot set, so the tiered
        store copies nothing into its fast tier and runs no thread: after
        a ladder run twice, the fast tier is empty and the node disks
        served exactly the fragments the tiered store fetched.
        """
        disks = [ShardedDiskStore(str(tmp_path / f"node{i}")) for i in range(2)]
        servers = [HTTPFragmentServer(disk).start() for disk in disks]
        try:
            nodes = ",".join("%s:%d" % server.address for server in servers)
            cluster = f"cluster://{nodes}?replicas=2"
            data = generators.hurricane(shape=(6, 16, 16), seed=1)
            ingest = RetrievalService.open(cluster)
            ingest.ingest(data, method="pmgard_hb", timestep=0)
            ingest.close()

            wind = ("velocity_x", "velocity_y", "velocity_z")
            names = [timestep_variable(f, 0) for f in wind]
            qoi = total_velocity(*names)
            qrange = float(np.ptp(qoi.value({n: (data[f], 0.0) for n, f in zip(names, wind)})))
            disk_reads = sum(disk.reads for disk in disks)
            service = RetrievalService.open("tiered://?slow=" + cluster)
            try:
                for _ in range(2):
                    with service.open_session() as session:
                        for tolerance in (1e-1, 1e-2, 1e-3):
                            result = session.retrieve(
                                [QoIRequest("vtot", qoi, tolerance, qrange)]
                            )
                            assert result.all_satisfied
                tiers = service.stats().tiers
                assert service.store.inner.fast.nbytes() == 0
                assert not any(
                    thread.name == "repro-tier-transfer" and thread.is_alive()
                    for thread in threading.enumerate()
                )
                assert tiers.slow_hits > 0 and tiers.fast_hits == 0
                assert sum(disk.reads for disk in disks) - disk_reads == tiers.slow_hits
            finally:
                service.close()
        finally:
            for server in servers:
                server.stop()
            for disk in disks:
                disk.close()
