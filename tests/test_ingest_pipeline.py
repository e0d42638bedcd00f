"""Tests for the streaming ingestion engine and the batched write path.

Covers the `put_many` contract across the FragmentStore hierarchy
(counters, single-batch round trips, reopen consistency), FragmentCache
invalidation on overwrite (including the load-in-flight race), the
incremental `Archive.save` replace semantics, bit-identity of the
parallel IngestPipeline against the serial path for every archivable
compressor, and the service/CLI ingestion surfaces.
"""

import threading

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.ingest import IngestConfig, ingest_dataset, update_manifest
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, refactor_dataset
from repro.service.service import RetrievalService
from repro.storage.archive import Archive, encode_fragments
from repro.storage.cache import CachingFragmentStore, FragmentCache
from repro.storage.remote import (
    HTTPFragmentServer,
    HTTPFragmentStore,
)
from repro.storage.metadata import DatasetManifest
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store
from repro.storage.tiered import TieredStore
from repro.storage.transfer import LatencyFragmentStore
from repro.utils.fragment_keys import INDEX_SEGMENT, timestep_variable
from test_storage_store import CallLogStore

COMPRESSORS = ("psz3", "psz3_delta", "pmgard", "pmgard_hb")

BATCH = [
    ("v", "s0", b"alpha"),
    ("v", "s1", b"beta-beta"),
    ("w", "s0", b"gamma"),
]


def make_fields(shape=(14, 15), n=3, scale=40.0):
    rng = np.random.default_rng(7)
    return {
        f"v{k}": rng.standard_normal(shape) * scale + k for k in range(n)
    }


class TestPutMany:
    """The write-side mirror of get_many, across every backend."""

    def _check(self, store, reopen=None):
        store.put_many(BATCH)
        for variable, segment, payload in BATCH:
            assert store.get(variable, segment) == payload
        assert store.put_round_trips == 1
        assert store.puts == len(BATCH)
        assert store.bytes_written == sum(len(p) for _, _, p in BATCH)
        assert store.nbytes() == sum(len(p) for _, _, p in BATCH)
        assert store.segments("v") == ["s0", "s1"]
        if reopen is not None:
            again = reopen()
            for variable, segment, payload in BATCH:
                assert again.get(variable, segment) == payload
            assert again.nbytes() == store.nbytes()

    def test_memory(self):
        self._check(FragmentStore())

    def test_sharded_disk(self, tmp_path):
        root = str(tmp_path / "sharded")
        self._check(
            ShardedDiskStore(root, fanout=8), reopen=lambda: ShardedDiskStore(root)
        )

    def test_one_shard_disk(self, tmp_path):
        root = str(tmp_path / "one-shard")
        self._check(
            ShardedDiskStore(root, fanout=1), reopen=lambda: ShardedDiskStore(root)
        )

    def test_latency_store_counts_one_trip(self):
        store = LatencyFragmentStore(
            FragmentStore(), latency=0.0, write_latency=0.0
        )
        self._check(store)
        assert store.inner.put_round_trips == 1

    def test_http_roundtrip(self, tmp_path):
        inner = ShardedDiskStore(str(tmp_path / "served"), fanout=4)
        with HTTPFragmentServer(inner) as server:
            client = HTTPFragmentStore.from_url(server.url)
            client.put_many(BATCH)
            assert client.put_round_trips == 1
            assert inner.put_round_trips == 1  # one server-side batch
            got = client.get_many([(v, s) for v, s, _ in BATCH])
            assert got == {(v, s): p for v, s, p in BATCH}
            # the local index snapshot tracked the batch without a refresh
            assert client.nbytes() == sum(len(p) for _, _, p in BATCH)
            client.close()

    def test_tiered_write_through(self):
        fast, slow = FragmentStore(), FragmentStore()
        store = TieredStore(fast, slow)
        store.put_many(BATCH)
        assert fast.put_round_trips == 1 and slow.put_round_trips == 1
        for variable, segment, payload in BATCH:
            assert slow.get(variable, segment) == payload
            assert store.resident(variable, segment)

    def test_caching_adapter_invalidates_batch(self):
        inner = FragmentStore()
        store = CachingFragmentStore(inner, FragmentCache(1 << 20))
        store.put_many(BATCH)
        assert inner.put_round_trips == 1
        assert store.get("v", "s0") == b"alpha"  # now cached
        store.put_many([("v", "s0", b"ALPHA2")])
        assert store.get("v", "s0") == b"ALPHA2"

    def test_rejects_non_bytes_without_partial_write(self):
        store = FragmentStore()
        with pytest.raises(TypeError):
            store.put_many([("v", "s0", b"ok"), ("v", "s1", 123)])
        assert not store.has("v", "s0")  # validation precedes any write

    def test_duplicate_key_last_write_wins(self, tmp_path):
        root = str(tmp_path / "dup")
        store = ShardedDiskStore(root)
        store.put_many([("v", "s", b"old"), ("v", "s", b"newer")])
        assert store.get("v", "s") == b"newer"
        assert store.nbytes() == len(b"newer")
        assert ShardedDiskStore(root).get("v", "s") == b"newer"

    def test_overwrite_keeps_totals_consistent(self, tmp_path):
        store = ShardedDiskStore(str(tmp_path / "ow"), fanout=4)
        store.put("v", "s", b"x" * 100)
        store.put_many([("v", "s", b"y" * 7)])
        assert store.nbytes() == 7
        assert store.size_of("v", "s") == 7


class TestCacheInvalidation:
    """A re-saved fragment must never serve its old payload from cache."""

    def test_overwrite_through_adapter(self):
        inner = FragmentStore()
        cache = FragmentCache(1 << 20)
        store = CachingFragmentStore(inner, cache)
        store.put("v", "s", b"old")
        assert store.get("v", "s") == b"old"
        store.put("v", "s", b"new")
        assert store.get("v", "s") == b"new"

    def test_delete_through_adapter(self):
        inner = FragmentStore()
        store = CachingFragmentStore(inner, FragmentCache(1 << 20))
        store.put("v", "s", b"old")
        store.get("v", "s")
        store.delete("v", "s")
        with pytest.raises(KeyError):
            store.get("v", "s")

    def test_overwrite_racing_inflight_load_is_not_cached(self):
        """Regression: a put landing while another thread is still
        loading the old payload must not let the stale bytes stick."""
        inner = FragmentStore()
        cache = FragmentCache(1 << 20)
        store = CachingFragmentStore(inner, cache)
        inner.put("v", "s", b"old")
        loading = threading.Event()
        proceed = threading.Event()
        served = []

        def slow_loader():
            payload = inner.get("v", "s")  # reads the pre-overwrite bytes
            loading.set()
            proceed.wait(timeout=10.0)
            return payload

        def reader():
            served.append(cache.get_or_load("v", "s", slow_loader))

        thread = threading.Thread(target=reader)
        thread.start()
        assert loading.wait(timeout=10.0)
        # overwrite while the old payload is being loaded
        store.put("v", "s", b"new")
        proceed.set()
        thread.join(timeout=10.0)
        assert served == [b"old"]  # that read began before the write
        # the stale payload must not have been cached
        assert store.get("v", "s") == b"new"

    def test_overwrite_racing_inflight_batch_is_not_cached(self):
        inner = FragmentStore()
        cache = FragmentCache(1 << 20)
        store = CachingFragmentStore(inner, cache)
        inner.put("v", "s", b"old")
        loading = threading.Event()
        proceed = threading.Event()

        def slow_loader_many(keys):
            payloads = inner.get_many(keys)  # reads the pre-overwrite bytes
            loading.set()
            proceed.wait(timeout=10.0)
            return payloads

        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                cache.get_many([("v", "s")], slow_loader_many)
            )
        )
        thread.start()
        assert loading.wait(timeout=10.0)
        store.put("v", "s", b"new")
        proceed.set()
        thread.join(timeout=10.0)
        assert result[("v", "s")] == b"old"
        assert store.get_many([("v", "s")])[("v", "s")] == b"new"

    def test_invalidate_many_drops_entries(self):
        cache = FragmentCache(1 << 20)
        cache.get_or_load("v", "s0", lambda: b"a")
        cache.get_or_load("v", "s1", lambda: b"b")
        cache.invalidate_many([("v", "s0"), ("v", "s1")])
        assert len(cache) == 0
        assert cache.stats().current_bytes == 0


def store_factories(tmp_path):
    """One factory per store family the re-save tests must cover."""
    return {
        "sharded": lambda: ShardedDiskStore(str(tmp_path / "sharded"), fanout=4),
        "one-shard": lambda: ShardedDiskStore(str(tmp_path / "one-shard"), fanout=1),
        "tiered": lambda: TieredStore(
            FragmentStore(),
            ShardedDiskStore(str(tmp_path / "tslow"), fanout=4),
        ),
    }


class TestArchiveReplace:
    """Re-saving a variable supersedes its old fragments end to end."""

    @pytest.mark.parametrize("layout", ["sharded", "one-shard", "tiered"])
    def test_resave_tombstones_superseded_segments(self, tmp_path, layout):
        store = store_factories(tmp_path)[layout]()
        archive = Archive(store)
        data = np.linspace(-1.0, 1.0, 120).reshape(12, 10)
        big = make_refactorer("psz3").refactor(data)  # full snapshot ladder
        archive.save("v", big)
        old_segments = set(store.segments("v"))
        small = make_refactorer("psz3", relative_bounds=[1e-2, 1e-3], lossless_tail=False).refactor(data)
        archive.save("v", small)
        new_segments = set(store.segments("v"))
        assert new_segments < old_segments  # strictly fewer fragments
        for segment in old_segments - new_segments:
            with pytest.raises(KeyError):
                store.get("v", segment)
        # totals agree with what is actually retrievable
        assert store.nbytes("v") == sum(
            store.size_of("v", s) for s in store.segments("v")
        )
        # the reloaded variable is the small representation
        loaded = archive.load("v")
        assert len(loaded.blobs) == len(small.blobs)

    @pytest.mark.parametrize("layout", ["sharded", "one-shard"])
    def test_resave_consistent_across_reopen(self, tmp_path, layout):
        factory = store_factories(tmp_path)[layout]
        store = factory()
        archive = Archive(store)
        data = np.linspace(0.0, 5.0, 64).reshape(8, 8)
        archive.save("v", make_refactorer("psz3").refactor(data))
        archive.save("v", make_refactorer("psz3", relative_bounds=[1e-2], lossless_tail=False).refactor(data))
        expected = {key: store.get(*key) for key in store.keys()}
        reopened = factory()
        assert {key: reopened.get(*key) for key in reopened.keys()} == expected
        assert reopened.nbytes() == store.nbytes()
        assert reopened.segments("v") == store.segments("v")

    def test_resave_drops_memoized_source(self):
        store = FragmentStore()
        archive = Archive(store)
        data = np.linspace(0.0, 2.0, 100).reshape(10, 10)
        archive.save("v", make_refactorer("pmgard_hb").refactor(data))
        lazy = archive.load("v")
        lazy.reader().request(1e-4)  # memoize some payloads
        archive.save("v", make_refactorer("pmgard_hb").refactor(data * 2.0))
        fresh = archive.load("v")
        rec = fresh.reader().request(1e-8)
        assert np.allclose(rec, data * 2.0, atol=1e-6)

    def test_commit_drops_tombstones_a_concurrent_writer_took(self):
        """A stale segment superseded between listing and committing is
        dropped from the batch, which then commits; a ``KeyError`` that
        no dropped tombstone explains propagates."""
        data = np.linspace(-1.0, 1.0, 120).reshape(12, 10)
        small = make_refactorer("psz3", relative_bounds=[1e-2], lossless_tail=False).refactor(data)

        class Racing(FragmentStore):
            raced = False

            def transact(self, puts, deletes=()):
                deletes = list(deletes)
                if deletes and not self.raced:
                    self.raced = True
                    super().transact((), deletes[:1])  # the other writer
                super().transact(puts, deletes)

        store = Racing()
        archive = Archive(store)
        archive.save("v", make_refactorer("psz3").refactor(data))
        stale = len(store.segments("v")) - 1 - len(encode_fragments(small)[0])
        assert stale > 1
        fragments, index = encode_fragments(small)
        assert archive.commit([("v", fragments, index)]) == stale - 1
        assert set(store.segments("v")) == {s for s, _ in fragments} | {INDEX_SEGMENT}

        class Refusing(FragmentStore):
            def transact(self, puts, deletes=()):
                raise KeyError("refused")

        with pytest.raises(KeyError, match="refused"):
            Archive(Refusing()).save("v", small)


class TestIngestPipeline:
    @pytest.mark.parametrize("method", COMPRESSORS)
    def test_bit_identical_to_serial_path(self, method):
        fields = make_fields()
        serial = FragmentStore()
        Archive(serial).save_dataset(
            refactor_dataset(fields, make_refactorer(method))
        )
        parallel = FragmentStore()
        report = ingest_dataset(
            parallel, fields, make_refactorer(method),
            workers=3, flush_bytes=1 << 12,
        )
        assert set(serial.keys()) == set(parallel.keys())
        for key in serial.keys():
            assert serial.get(*key) == parallel.get(*key)
            assert serial.segments(key[0]) == parallel.segments(key[0])
        assert report.fragments == len(parallel.keys())
        assert report.bytes_written == parallel.nbytes()
        assert parallel.put_round_trips == report.flushes < report.fragments

    def test_batched_ingest_needs_a_fifth_of_the_per_fragment_trips(self):
        fields = make_fields()
        batched = FragmentStore()
        ingest_dataset(batched, fields, make_refactorer("pmgard_hb"), workers=2)
        # one put per fragment would cost one write trip per key
        assert len(batched.keys()) >= 5 * batched.put_round_trips

    def test_workers_zero_is_serial_but_still_batched(self):
        fields = make_fields(n=2)
        store = FragmentStore()
        report = ingest_dataset(
            store, fields, make_refactorer("psz3_delta"),
            workers=0, flush_bytes=1 << 30,
        )
        assert store.put_round_trips == report.flushes == 1

    def test_index_segment_flushes_after_payloads(self):
        """Every batch keeps a variable's index after its fragments."""
        seen = []

        class Recorder(FragmentStore):
            def transact(self, puts, deletes=()):
                puts = list(puts)
                seen.extend((v, s) for v, s, _ in puts)
                super().transact(puts, deletes)

        fields = make_fields(n=2)
        ingest_dataset(
            Recorder(), fields, make_refactorer("pmgard_hb"),
            workers=2, flush_bytes=1 << 10,
        )
        for name in fields:
            positions = [i for i, (v, _) in enumerate(seen) if v == name]
            index_pos = seen.index((name, INDEX_SEGMENT))
            assert index_pos == max(positions)

    def test_incremental_add_leaves_existing_fragments_unwritten(self):
        fields = make_fields(n=2)
        store = FragmentStore()
        ingest_dataset(store, fields, make_refactorer("pmgard_hb"))
        baseline = store.puts
        extra = {"v9": np.full((14, 15), 3.25)}
        report = ingest_dataset(store, extra, make_refactorer("pmgard_hb"))
        assert store.puts - baseline == report.fragments
        assert set(store.variables()) == set(fields) | {"v9"}

    def test_reingest_supersedes_old_representation(self):
        data = np.linspace(-2.0, 2.0, 210).reshape(14, 15)
        store = FragmentStore()
        ingest_dataset(store, {"v": data}, make_refactorer("psz3"))
        old = set(store.segments("v"))
        report = ingest_dataset(
            store, {"v": data}, make_refactorer("psz3", relative_bounds=[1e-2, 1e-3], lossless_tail=False)
        )
        assert report.superseded == len(old - set(store.segments("v")))
        assert report.superseded > 0
        assert store.nbytes("v") == sum(
            store.size_of("v", s) for s in store.segments("v")
        )

    def test_reingest_is_one_transact_per_flush_and_deletes_nothing(self):
        """Each flush is one commit: the new fragments and the superseded
        segments' tombstones travel in the same ``transact``."""
        calls = []

        class Recorder(FragmentStore):
            def transact(self, puts, deletes=()):
                puts, deletes = list(puts), list(deletes)
                calls.append((puts, deletes))
                super().transact(puts, deletes)

            def delete(self, variable, segment):
                raise AssertionError("the ingest engine deletes nothing")

        fields = make_fields(n=3)
        store = Recorder()
        ingest_dataset(store, fields, make_refactorer("pmgard_hb"), workers=2, flush_bytes=1)
        calls.clear()
        report = ingest_dataset(
            store, fields, make_refactorer("pmgard_hb", num_planes=12),
            workers=2, flush_bytes=1,
        )
        assert len(calls) == report.flushes == len(fields)
        assert report.superseded == sum(len(deletes) for _, deletes in calls) > 0
        assert report.fragments == sum(len(puts) for puts, _ in calls)
        for puts, deletes in calls:
            # a commit tombstones only segments of the variables it writes
            assert {v for v, _ in deletes} <= {v for v, _, _ in puts}

    def test_timestep_append(self):
        store = FragmentStore()
        base = make_fields(n=1)
        ingest_dataset(store, base, make_refactorer("psz3_delta"))
        ingest_dataset(
            store, base, make_refactorer("psz3_delta"), timestep=7
        )
        assert timestep_variable("v0", 7) == "v0@t0007"
        assert set(store.variables()) == {"v0", "v0@t0007"}
        assert store.segments("v0") == store.segments("v0@t0007")

    def test_report_archived_bytes_matches_refactored(self):
        fields = make_fields(n=2)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        report = ingest_dataset(
            FragmentStore(), fields, make_refactorer("pmgard_hb")
        )
        for name, ref in refactored.items():
            assert report.archived_bytes[name] == ref.total_bytes

    def test_blockwise_ingest_matches_blockwise_archive(self):
        from repro.parallel.blocks import (
            BlockedDataset,
            blockwise_archive,
            blockwise_ingest,
            blockwise_refactor,
        )

        fields = make_fields(shape=(12, 9), n=2)
        blocked = BlockedDataset.from_fields(fields, num_blocks=3)
        serial = FragmentStore()
        blockwise_archive(
            blocked,
            blockwise_refactor(blocked, lambda: make_refactorer("psz3_delta")),
            Archive(serial),
            method="psz3_delta",
            dataset="blocked",
        )
        parallel = FragmentStore()
        manifest = blockwise_ingest(
            blocked, parallel, make_refactorer("psz3_delta"),
            method="psz3_delta", dataset="blocked", flush_bytes=1 << 12,
        )
        assert set(serial.keys()) == set(parallel.keys())
        for key in serial.keys():
            assert serial.get(*key) == parallel.get(*key)
        assert "v0@b000" in manifest.variables
        assert parallel.put_round_trips < parallel.puts

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IngestConfig(workers=-1)
        with pytest.raises(ValueError):
            IngestConfig(flush_bytes=0)

    def test_unarchivable_representation_raises(self):
        with pytest.raises(TypeError):
            encode_fragments(object())


class TestServiceIngest:
    def _service(self, **kwargs):
        return RetrievalService(FragmentStore(), **kwargs)

    def _retrieve_identity(self, service, name, tolerance=1e-3):
        with service.open_session() as session:
            result = session.retrieve([
                QoIRequest(
                    "identity", qoi_from_spec("identity", [name]), tolerance
                )
            ])
        return result

    def test_live_server_absorbs_new_variable(self):
        service = self._service()
        data = np.linspace(0.0, 3.0, 240).reshape(16, 15)
        report = service.ingest({"p": data}, method="pmgard_hb")
        assert report.fragments > 0
        assert "p" in service.variables()
        result = self._retrieve_identity(service, "p")
        assert result.all_satisfied
        assert np.allclose(result.data["p"], data, atol=1e-3 * np.ptp(data) + 1e-3)

    def test_replaced_variable_serves_new_data_through_cache(self):
        service = self._service()
        old = np.linspace(0.0, 1.0, 240).reshape(16, 15)
        service.ingest({"p": old}, method="pmgard_hb")
        self._retrieve_identity(service, "p")  # warm the shared cache
        new = old + 10.0
        service.ingest({"p": new}, method="pmgard_hb")
        result = self._retrieve_identity(service, "p")
        assert np.allclose(result.data["p"], new, atol=1e-3 * np.ptp(new) + 1e-3)

    def test_long_lived_session_reresolves_replaced_variable(self):
        """An open session must pick up a replaced variable at its next
        retrieve (generation bump resets its reader state)."""
        service = self._service()
        old = np.linspace(0.0, 1.0, 240).reshape(16, 15)
        service.ingest({"p": old}, method="pmgard_hb")
        with service.open_session() as session:
            request = [QoIRequest(
                "identity", qoi_from_spec("identity", ["p"]), 1e-3
            )]
            first = session.retrieve(request)
            assert np.allclose(first.data["p"], old, atol=1e-2)
            new = old * -3.0 + 5.0
            service.ingest({"p": new}, method="pmgard_hb")
            assert service.variable_generation("p") == 2
            second = session.retrieve(request)
            assert np.allclose(
                second.data["p"], new, atol=1e-3 * np.ptp(new) + 1e-3
            )

    def test_planner_memos_invalidate_on_live_ingest(self):
        """The shared planner's memos (representation, plans, seeds) must
        drop on the per-variable generation bump a live ingest makes —
        a stale memoized plan would name segments of the superseded
        layout and a stale representation would decode old bytes."""
        service = self._service()
        old = np.linspace(0.0, 1.0, 240).reshape(16, 15)
        service.ingest({"p": old}, method="pmgard_hb")
        self._retrieve_identity(service, "p")  # memoize rep + plans
        memo_before = service.planner.stats()
        assert memo_before.representations_loaded >= 1
        new = old * 2.0 + 7.0
        service.ingest({"p": new}, method="pmgard_hb")
        # a fresh session must get the new data through fresh memos
        result = self._retrieve_identity(service, "p")
        assert np.allclose(result.data["p"], new, atol=1e-3 * np.ptp(new) + 1e-3)
        memo_after = service.planner.stats()
        assert (
            memo_after.representations_loaded
            > memo_before.representations_loaded
        ), "replaced variable must reload, not serve the memoized rep"
        # memo keys carry the generation: no post-ingest lookup may hit
        # a pre-ingest plan (hits can only come from post-ingest reuse)
        assert service.variable_generation("p") == 2

    def test_timestep_ingest_and_stats_counters(self):
        service = self._service()
        data = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        service.ingest({"p": data}, method="psz3_delta", timestep=2)
        assert "p@t0002" in service.variables()
        stats = service.stats()
        assert stats.variables_ingested == 1
        assert stats.store_puts > 0
        assert stats.store_bytes_written > 0
        assert stats.store_put_round_trips < stats.store_puts

    def test_manifest_updated_for_new_sessions(self):
        service = self._service()
        data = np.linspace(-1.0, 1.0, 100).reshape(10, 10)
        service.ingest({"q": data}, method="psz3")
        assert service.value_range("q") == pytest.approx(2.0)
        assert service.manifest is not None
        assert "q" in service.manifest.variables


class TestManifestGrowth:
    """One ingest writes what it ingests, however large the archive is."""

    FIELDS = ("u", "v", "w")

    def _data(self):
        rng = np.random.default_rng(3)
        return {name: rng.standard_normal((12, 12)) * 30.0 for name in self.FIELDS}

    def _ingest(self, service, store, data, timestep):
        """(bytes written, items put, keys of the last write) of one ingest."""
        bytes_before, puts_before = store.bytes_written, store.puts
        store.calls.clear()
        service.ingest(data, method="pmgard_hb", timestep=timestep, workers=0)
        writes = [(call, keys) for call, keys in store.calls if call.startswith("put")]
        return store.bytes_written - bytes_before, store.puts - puts_before, writes[-1]

    def test_thirtieth_append_costs_what_the_second_did(self):
        store = CallLogStore()
        service = RetrievalService(store)
        data = self._data()
        costs = [self._ingest(service, store, data, t) for t in range(1, 31)]
        second, thirtieth = costs[1], costs[29]
        assert thirtieth[:2] == second[:2]  # bytes and items, not seconds
        # the record write is its own trip after the data: the new
        # timestep's three records and nothing else
        assert thirtieth[2] == (
            "put_many",
            [("_dataset", f"var.{timestep_variable(f, 30)}.json") for f in self.FIELDS],
        )
        # the very first ingest also wrote the header, once
        assert costs[0][2][1][-1] == ("_dataset", "manifest.json")
        assert costs[0][1] == second[1] + 1

        # a replace rewrites the records of the variables it replaced
        replaced = {"u": data["u"] * 1.5, "w": data["w"] * 0.5}
        _, _, last_write = self._ingest(service, store, replaced, 7)
        assert last_write == (
            "put_many",
            [("_dataset", "var.u@t0007.json"), ("_dataset", "var.w@t0007.json")],
        )
        reopened = RetrievalService(store)
        assert len(reopened.manifest.variables) == 90
        assert reopened.value_range("u@t0007") == pytest.approx(
            1.5 * float(np.ptp(data["u"]))
        )
        assert reopened.value_range("v@t0007") == pytest.approx(float(np.ptp(data["v"])))

    def test_twentieth_library_append_writes_what_the_second_did(self):
        """``ingest_dataset`` + ``update_manifest`` + ``save_to``, as a script does."""
        store = FragmentStore()
        manifest = DatasetManifest(dataset="growth")
        step = {"u": self._data()["u"]}
        written = []
        for timestep in range(1, 21):
            before = store.bytes_written
            report = ingest_dataset(
                store, step, make_refactorer("pmgard_hb"), workers=0, timestep=timestep
            )
            update_manifest(manifest, store, step, "pmgard_hb", report, timestep=timestep)
            manifest.save_to(store)
            written.append(store.bytes_written - before)
        assert written[19] == written[1]  # manifest included, not growing

    def test_load_through_tiered_over_cluster_is_two_trips(self, tmp_path):
        servers = [
            HTTPFragmentServer(ShardedDiskStore(str(tmp_path / f"node{i}"))).start()
            for i in range(2)
        ]
        try:
            nodes = ",".join("%s:%d" % server.address for server in servers)
            cluster = f"cluster://{nodes}?replicas=2"
            data = self._data()
            trips = {}
            for steps in (1, 6):
                service = RetrievalService.open(cluster)
                try:
                    for t in range(steps):
                        service.ingest(data, method="pmgard_hb", timestep=t, workers=0)
                finally:
                    service.close()
                with open_store("tiered://?slow=" + cluster) as store:
                    manifest = DatasetManifest.load_from(store)
                    assert len(manifest.variables) == 3 * steps
                    trips[steps] = (store.round_trips, store.stats().slow_round_trips)
            assert trips == {1: (2, 2), 6: (2, 2)}
        finally:
            for server in servers:
                server.stop()


class TestServerIngest:
    def test_ingest_over_tcp(self):
        from repro.service.server import RetrievalServer, ServiceClient

        service = RetrievalService(FragmentStore())
        server = RetrievalServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.address
            data = np.linspace(0.0, 2.0, 150).reshape(10, 15)
            with ServiceClient(host, port) as client:
                report = client.ingest({"p": data}, method="pmgard_hb")
                assert report["fragments"] > 0
                assert report["variables"] == ["p"]
                response = client.retrieve(
                    "identity", ["p"], tolerance=1e-3, include_data=True
                )
            assert response["satisfied"]
            assert np.allclose(
                response["data"]["p"], data, atol=1e-3 * np.ptp(data) + 1e-3
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)


class TestIngestCLI:
    def test_cli_ingest_into_existing_archive(self, tmp_path, capsys):
        from repro.cli import main

        data = {"p": np.linspace(0.0, 4.0, 64).reshape(8, 8)}
        np.save(tmp_path / "p.npy", data["p"])
        np.save(tmp_path / "t.npy", data["p"] * 2.0)
        archive_dir = str(tmp_path / "ar")
        assert main([
            "archive", "--out", archive_dir, "--method", "psz3_delta",
            f"p={tmp_path / 'p.npy'}",
        ]) == 0
        assert main([
            "ingest", "--archive", archive_dir, "--method", "psz3_delta",
            "--workers", "2", "--flush-bytes", "64k",
            f"t={tmp_path / 't.npy'}",
        ]) == 0
        out = capsys.readouterr().out
        assert "ingested 1 variable(s)" in out
        assert "batched flush(es)" in out
        # the ingested variable is retrievable with the rest
        assert main([
            "retrieve", "--archive", archive_dir, "--qoi", "product",
            "--fields", "p,t", "--tolerance", "1e-2", "--qoi-range", "100",
            "--out", str(tmp_path / "rec"),
        ]) == 0

    def test_cli_ingest_timestep(self, tmp_path, capsys):
        from repro.cli import main

        np.save(tmp_path / "p.npy", np.linspace(0.0, 1.0, 36).reshape(6, 6))
        archive_dir = str(tmp_path / "ar")
        assert main([
            "ingest", "--archive", archive_dir, "--method", "psz3",
            "--timestep", "5", f"p={tmp_path / 'p.npy'}",
        ]) == 0
        store = ShardedDiskStore(archive_dir)
        assert "p@t0005" in store.variables()
