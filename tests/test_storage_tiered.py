"""Tests for the tiered storage fabric (TieredStore + TransferManager)."""

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, refactor_dataset
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.remote import InMemoryObjectBucket, KeyValueFragmentStore
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store
from repro.storage.tiered import TieredStore, TransferManager


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
        store = TieredStore(FragmentStore(), slow, promote_after=1)
        store.get_many([("v", "s0"), ("v", "s1")])
        store.transfer.run_once()  # s0/s1 now resident
        before = slow.round_trips
        out = store.get_many([("v", "s0"), ("v", "s1"), ("v", "s2"), ("v", "s3")])
        assert out == {k: PAYLOADS[k] for k in out}
        assert slow.round_trips == before + 1  # only the two misses went slow
        stats = store.stats()
        assert stats.fast_hits >= 2

    def test_missing_key_raises_without_touching_tiers(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow)
        with pytest.raises(KeyError):
            store.get("v", "nope")
        with pytest.raises(KeyError) as exc:
            store.get_many([("v", "s0"), ("v", "nope")])
        assert ("v", "nope") in exc.value.args[0]
        assert slow.reads == 0

    def test_demotion_racing_get_falls_back_to_slow(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow, promote_after=1)
        store.get("v", "s0")
        store.transfer.run_once()
        assert store.resident("v", "s0")
        # simulate a demotion the residency snapshot missed
        store.fast.delete("v", "s0")
        assert store.get("v", "s0") == PAYLOADS[("v", "s0")]


class TestTieredWrites:
    def test_write_through_lands_on_both_tiers(self):
        slow, fast = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow, policy="write-through")
        store.put("w", "s0", b"abc")
        assert slow.get("w", "s0") == b"abc"
        assert fast.get("w", "s0") == b"abc"
        assert store.stats().dirty_fragments == 0

    def test_write_back_defers_slow_tier_until_flush(self):
        slow, fast = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow, policy="write-back")
        store.put("w", "s0", b"abc")
        assert not slow.has("w", "s0")
        assert store.get("w", "s0") == b"abc"  # served from fast meanwhile
        assert store.stats().dirty_fragments == 1
        assert store.flush() == 1
        assert slow.get("w", "s0") == b"abc"
        assert store.stats().dirty_fragments == 0

    def test_close_flushes_write_backs(self):
        slow = FragmentStore()
        store = TieredStore(FragmentStore(), slow, policy="write-back")
        store.put("w", "s0", b"abc")
        store.close()
        assert slow.get("w", "s0") == b"abc"

    def test_delete_removes_from_both_tiers(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow, promote_after=1)
        store.get("v", "s0")
        store.transfer.run_once()
        store.delete("v", "s0")
        assert not store.has("v", "s0")
        assert not slow.has("v", "s0")
        with pytest.raises(KeyError):
            store.get("v", "s0")

    def test_delete_racing_flush_does_not_resurrect_in_slow_tier(self):
        """A delete landing mid-flush must not leave a copy in the slow
        tier (which would resurrect the fragment on reopen)."""
        holder = {}

        class RacingSlow(FragmentStore):
            def transact(self, puts, deletes=()):
                puts = list(puts)
                super().transact(puts, deletes)
                tiered = holder.get("store")
                for variable, segment, _ in puts:
                    if tiered is not None and tiered.has(variable, segment):
                        tiered.delete(variable, segment)  # client delete mid-flush

        slow = RacingSlow()
        store = TieredStore(FragmentStore(), slow, policy="write-back")
        holder["store"] = store
        store.put("w", "s0", b"abc")
        store.flush()
        assert not store.has("w", "s0")
        assert not slow.has("w", "s0")  # the flushed copy was undone

    def test_reput_racing_flush_keeps_dirty_mark(self):
        """A re-put landing while its old payload is being flushed must
        keep the key dirty, so the newer bytes reach the slow tier on
        the next cycle instead of being silently dropped."""
        holder = {}

        class RacingSlow(FragmentStore):
            def transact(self, puts, deletes=()):
                super().transact(puts, deletes)
                tiered = holder.get("store")
                if tiered is not None and not holder.get("raced"):
                    holder["raced"] = True
                    tiered.put("w", "s0", b"NEWER")  # client re-put mid-flush

        slow = RacingSlow()
        store = TieredStore(FragmentStore(), slow, policy="write-back")
        holder["store"] = store
        store.put("w", "s0", b"old")
        assert store.flush() == 0  # the staged payload was superseded mid-flight
        assert store.stats().dirty_fragments == 1
        assert store.flush() == 1
        assert slow.get("w", "s0") == b"NEWER"

    def test_delete_racing_promotion_leaves_no_fast_orphan(self):
        """A delete landing mid-promotion must not leave an unreachable
        fast-tier copy eating the byte budget."""
        holder = {}

        class RacingFast(FragmentStore):
            def transact(self, puts, deletes=()):
                puts = list(puts)
                super().transact(puts, deletes)
                tiered = holder.get("store")
                for variable, segment, _ in puts:
                    if tiered is not None and tiered.has(variable, segment):
                        tiered.delete(variable, segment)  # client delete mid-promotion

        slow = seeded_slow({("v", "s0"): b"payload"})
        store = TieredStore(RacingFast(), slow, promote_after=1)
        holder["store"] = store
        store.get("v", "s0")
        store.transfer.run_once()
        assert not store.has("v", "s0")
        assert not store.resident("v", "s0")
        assert not store.fast.has("v", "s0")  # no orphan copy
        assert store.stats().promotions == 0

    def test_rejects_unknown_policy_and_bad_knobs(self):
        with pytest.raises(ValueError):
            TieredStore(FragmentStore(), FragmentStore(), policy="write-around")
        with pytest.raises(ValueError):
            TieredStore(FragmentStore(), FragmentStore(), promote_after=0)
        with pytest.raises(ValueError):
            TransferManager(
                TieredStore(FragmentStore(), FragmentStore()), interval=0
            )


class TestPromotionDemotion:
    def test_hot_fragments_promote_in_one_coalesced_batch(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow, promote_after=2)
        for _ in range(2):
            store.get_many([("v", "s0"), ("v", "s1")])
        store.get("v", "s7")  # only one access: below the threshold
        before = slow.round_trips
        moved = store.transfer.run_once()
        assert moved["promoted"] == 2
        assert slow.round_trips == before + 1  # one batched promotion read
        assert store.resident("v", "s0") and store.resident("v", "s1")
        assert not store.resident("v", "s7")

    def test_promotion_respects_byte_budget(self):
        slow = seeded_slow(PAYLOADS)
        budget = len(PAYLOADS[("v", "s0")]) + len(PAYLOADS[("v", "s1")])
        store = TieredStore(
            FragmentStore(), slow, fast_budget_bytes=budget, promote_after=1
        )
        store.get_many(list(PAYLOADS))
        store.transfer.run_once()
        assert store.fast.nbytes() <= budget
        assert store.stats().promotions >= 1

    def test_demotion_evicts_coldest_first_and_preserves_data(self):
        slow, fast = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow, policy="write-back", fast_budget_bytes=8)
        store.put("w", "cold", b"0123")
        store.put("w", "warm", b"4567")
        store.put("w", "hot", b"89ab")  # 12 B resident > 8 B budget
        store.get("w", "warm")
        store.get("w", "hot")
        store.transfer.run_once()
        assert store.fast.nbytes() <= 8
        assert not store.resident("w", "cold")  # least recently touched
        # demotion flushed the dirty fragment before deleting the fast copy
        assert store.get("w", "cold") == b"0123"
        assert store.stats().demotions >= 1

    def test_promotion_tallies_reset_after_promotion(self):
        slow = seeded_slow(PAYLOADS)
        store = TieredStore(FragmentStore(), slow, promote_after=1)
        store.get("v", "s0")
        store.transfer.run_once()
        # demote it again; without fresh traffic it must not re-promote
        store.fast_budget_bytes = 0
        store.transfer.run_once()
        assert not store.resident("v", "s0")
        store.fast_budget_bytes = None
        moved = store.transfer.run_once()
        assert moved["promoted"] == 0

    def test_background_thread_lifecycle(self):
        store = TieredStore(
            FragmentStore(), seeded_slow(PAYLOADS), transfer_interval=0.01,
            promote_after=1,
        )
        manager = store.start_transfer()
        assert manager.running
        store.get("v", "s0")
        import time

        deadline = time.monotonic() + 5.0
        while not store.resident("v", "s0") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.resident("v", "s0")  # the thread promoted it
        store.close()
        assert not manager.running


class TestTieredURL:
    def test_from_url_over_kv_style_directory(self, tmp_path):
        slow_dir = str(tmp_path / "slow")
        slow = ShardedDiskStore(slow_dir)
        slow.put("v", "s0", b"payload")
        store = open_store(
            f"tiered://{tmp_path / 'fast'}?slow={slow_dir}&budget=1k"
            f"&promote_after=3&policy=write-back"
        )
        assert isinstance(store, TieredStore)
        assert store.fast_budget_bytes == 1024
        assert store.promote_after == 3
        assert store.policy == "write-back"
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
        slow = KeyValueFragmentStore(InMemoryObjectBucket())
        for var, seg in ShardedDiskStore(archive_dir).keys():
            slow.put(var, seg, ShardedDiskStore(archive_dir).get(var, seg))
        tiered = TieredStore(FragmentStore(), slow, promote_after=1)
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

    def test_promoted_rerun_is_bit_identical_and_mostly_fast(self, archived):
        archive_dir, ranges, qoi, qoi_range = archived
        slow = ShardedDiskStore(archive_dir)
        tiered = TieredStore(FragmentStore(), slow, promote_after=1)

        def run():
            service = RetrievalService(tiered, value_ranges=ranges)
            with service.open_session() as session:
                return session.retrieve([QoIRequest("vtot", qoi, 1e-3, qoi_range)])

        cold = run()
        cold_slow_trips = tiered.stats().slow_round_trips
        tiered.transfer.run_once()
        warm = run()
        warm_slow_trips = tiered.stats().slow_round_trips - cold_slow_trips
        assert warm.total_bytes == cold.total_bytes
        assert warm.estimated_errors == cold.estimated_errors
        for name in cold.data:
            assert np.array_equal(cold.data[name], warm.data[name])
        # promotion reads cost one batch; the warm run itself needs at
        # most stray trips for fragments promotion could not see
        assert warm_slow_trips <= max(2, cold_slow_trips // 2)
