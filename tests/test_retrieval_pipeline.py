"""Tests for the pipelined batched retrieval engine.

Covers the four layers the engine spans: batched ``get_many`` on the
store hierarchy (missing keys, ordering, accounting), single-flight
deduplication of concurrent batched cache loads, lazy archive loading
with planned prefetch, and — the load-bearing guarantee — bit-identical
results between pipelined and serial retrieval on a seeded ladder.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.pipeline import FetchPipeline
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.storage.archive import Archive
from repro.storage.cache import CachingFragmentStore, FragmentCache
from repro.storage.store import LAYOUT_MARKER, FragmentStore, ShardedDiskStore, open_store


def _filled(store):
    store.put("v", "s0", b"aaaa")
    store.put("v", "s1", b"bb")
    store.put("w", "s0", b"cccccc")
    return store


@pytest.fixture(params=["memory", "disk", "sharded"])
def any_store(request, tmp_path):
    if request.param == "memory":
        return _filled(FragmentStore())
    if request.param == "disk":
        return _filled(ShardedDiskStore(str(tmp_path / "disk")))
    return _filled(ShardedDiskStore(str(tmp_path / "sharded"), fanout=8))


class TestGetMany:
    def test_roundtrip_and_accounting(self, any_store):
        out = any_store.get_many([("v", "s0"), ("w", "s0"), ("v", "s1")])
        assert out == {
            ("v", "s0"): b"aaaa",
            ("w", "s0"): b"cccccc",
            ("v", "s1"): b"bb",
        }
        # per-fragment read accounting is preserved; the batch is one trip
        assert any_store.reads == 3
        assert any_store.bytes_read == 12
        assert any_store.round_trips == 1

    def test_deduplicates_keys(self, any_store):
        out = any_store.get_many([("v", "s0"), ("v", "s0")])
        assert out == {("v", "s0"): b"aaaa"}
        assert any_store.reads == 1

    def test_missing_key_fails_whole_batch(self, any_store):
        with pytest.raises(KeyError) as err:
            any_store.get_many([("v", "s0"), ("nope", "s9")])
        assert ("nope", "s9") in err.value.args[0]
        # checked in a single index pass before any payload is served
        assert any_store.reads == 0
        assert any_store.round_trips == 0

    def test_sharded_result_preserves_request_order(self, tmp_path):
        store = ShardedDiskStore(str(tmp_path / "ar"), fanout=4)
        keys = [("v", f"s{i:02d}") for i in range(16)]
        for i, (var, seg) in enumerate(keys):
            store.put(var, seg, bytes([i]) * (i + 1))
        out = store.get_many(list(reversed(keys)))
        # results come back keyed and ordered by the *request*, however
        # the per-shard sequential read order interleaved them
        assert list(out) == list(reversed(keys))
        assert all(out[(v, s)] == bytes([i]) * (i + 1) for i, (v, s) in enumerate(keys))
        assert store.round_trips == 1


class TestRunningTotals:
    def test_overwrite_updates_totals(self, any_store):
        before = any_store.nbytes()
        any_store.put("v", "s0", b"x")  # 4 bytes -> 1 byte
        assert any_store.nbytes() == before - 3
        assert any_store.nbytes("v") == 3
        assert any_store.segments("v") == ["s0", "s1"]  # no duplicate entry

    def test_size_of_matches_payloads(self, any_store):
        assert any_store.size_of("w", "s0") == 6
        assert any_store.variables() == ["v", "w"]

    def test_disk_reindex_restores_totals(self, tmp_path):
        root = str(tmp_path / "disk")
        _filled(ShardedDiskStore(root))
        reopened = ShardedDiskStore(root)
        assert reopened.nbytes() == 12
        assert reopened.size_of("v", "s0") == 4

    def test_disk_overwrite_survives_reopen(self, tmp_path):
        root = str(tmp_path / "disk")
        store = _filled(ShardedDiskStore(root))
        store.put("v", "s0", b"now much longer payload")
        reopened = ShardedDiskStore(root)
        assert reopened.size_of("v", "s0") == len(b"now much longer payload")
        assert reopened.nbytes("v") == len(b"now much longer payload") + 2
        assert reopened.segments("v") == ["s0", "s1"]

    def test_sharded_reindex_restores_totals(self, tmp_path):
        root = str(tmp_path / "sh")
        _filled(ShardedDiskStore(root, fanout=8))
        reopened = ShardedDiskStore(root)
        assert reopened.nbytes() == 12
        assert reopened.size_of("v", "s1") == 2


class TestOpenStoreMarkers:
    def test_sharded_marker_restores_fanout(self, tmp_path):
        root = str(tmp_path / "sh")
        _filled(ShardedDiskStore(root, fanout=7))
        reopened = open_store(root)
        assert isinstance(reopened, ShardedDiskStore)
        assert reopened.fanout == 7
        # the marker wins over a mismatched constructor argument too
        assert ShardedDiskStore(root, fanout=64).fanout == 7

    def test_markerless_sharded_still_detected(self, tmp_path):
        root = str(tmp_path / "sh")
        _filled(ShardedDiskStore(root, fanout=8))
        os.remove(os.path.join(root, LAYOUT_MARKER))
        assert isinstance(open_store(root), ShardedDiskStore)

    def test_open_never_writes_to_a_read_only_archive(self, tmp_path):
        root = str(tmp_path / "disk")
        _filled(ShardedDiskStore(root))
        os.remove(os.path.join(root, LAYOUT_MARKER))
        os.chmod(root, 0o555)
        try:
            reopened = open_store(root)  # must not try to write a marker
            assert reopened.get("v", "s1") == b"bb"
            assert not os.path.isfile(os.path.join(root, LAYOUT_MARKER))
        finally:
            os.chmod(root, 0o755)

    def test_opening_empty_dir_does_not_pin_layout(self, tmp_path):
        root = str(tmp_path / "new")
        open_store(root)  # e.g. `repro stats` on a not-yet-filled directory
        assert not os.path.isfile(os.path.join(root, LAYOUT_MARKER))
        sharded = ShardedDiskStore(root, fanout=4)
        sharded.put("v", "s0", b"abc")
        reopened = open_store(root)
        assert isinstance(reopened, ShardedDiskStore)
        assert reopened.get("v", "s0") == b"abc"

    def test_corrupt_marker_falls_back(self, tmp_path):
        root = str(tmp_path / "sh")
        _filled(ShardedDiskStore(root, fanout=8))
        with open(os.path.join(root, LAYOUT_MARKER), "w") as fh:
            fh.write("not json")
        assert isinstance(open_store(root), ShardedDiskStore)

    def test_insane_marker_fanout_is_a_clear_error(self, tmp_path):
        root = str(tmp_path / "sh")
        _filled(ShardedDiskStore(root, fanout=8))
        with open(os.path.join(root, LAYOUT_MARKER), "w") as fh:
            json.dump({"layout": "sharded", "fanout": 0}, fh)
        with pytest.raises(ValueError, match="fanout"):
            ShardedDiskStore(root)


class TestCacheGetMany:
    def test_one_loader_call_for_all_misses(self):
        inner = _filled(FragmentStore())
        cache = FragmentCache(1 << 20)
        cached = CachingFragmentStore(inner, cache)
        out = cached.get_many([("v", "s0"), ("v", "s1")])
        assert out[("v", "s0")] == b"aaaa"
        assert inner.round_trips == 1
        # second batch is all hits: no inner traffic at all
        cached.get_many([("v", "s0"), ("v", "s1")])
        assert inner.round_trips == 1
        assert cache.stats().hits == 2

    def test_concurrent_batches_single_flight(self):
        inner = FragmentStore()
        keys = [("v", f"s{i}") for i in range(12)]
        for _, seg in keys:
            inner.put("v", seg, seg.encode() * 50)
        slow_calls = []
        original = inner.get_many

        def slow_get_many(batch):
            slow_calls.append(len(list(batch)))
            return original(batch)

        inner.get_many = slow_get_many
        cache = FragmentCache(1 << 20)
        results = []
        barrier = threading.Barrier(6)

        def client():
            barrier.wait()
            results.append(cache.get_many(keys, inner.get_many))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every client got every payload, but each fragment was loaded
        # from the store exactly once across all six concurrent batches
        assert len(results) == 6
        for out in results:
            assert set(out) == set(keys)
        assert inner.reads == len(keys)
        assert cache.stats().misses == len(keys)
        assert cache.stats().hits >= 0

    def test_loader_failure_releases_flights(self):
        cache = FragmentCache(1 << 20)

        def boom(batch):
            raise OSError("store down")

        with pytest.raises(OSError):
            cache.get_many([("v", "s0")], boom)
        # a loader returning a *partial* dict must release its flights too
        with pytest.raises(KeyError):
            cache.get_many([("v", "s0"), ("v", "s1")],
                           lambda batch: {("v", "s1"): b"half"})
        # the key must be retryable, not wedged behind a dead flight
        out = cache.get_many([("v", "s0")], lambda batch: {("v", "s0"): b"ok"})
        assert out[("v", "s0")] == b"ok"


@pytest.fixture(scope="module")
def seeded_fields():
    rng = np.random.default_rng(7)
    shape = (18, 18, 18)
    return {
        "p": rng.standard_normal(shape) * 40 + 100,
        "d": rng.standard_normal(shape) + 5,
    }


@pytest.mark.parametrize("method", ["pmgard_hb", "psz3", "psz3_delta"])
class TestPipelinedEqualsSerial:
    def _archive(self, tmp_path, fields, method):
        refactored = refactor_dataset(fields, make_refactorer(method))
        store = ShardedDiskStore(str(tmp_path / "ar"), fanout=8)
        Archive(store).save_dataset(refactored)
        return str(tmp_path / "ar")

    def test_ladder_bit_identical(self, tmp_path, seeded_fields, method):
        """A pipelined session over the archive answers exactly what a
        serial one over the in-memory representation answers."""
        root = self._archive(tmp_path, seeded_fields, method)
        ranges = {k: float(np.ptp(v)) for k, v in seeded_fields.items()}
        qoi = qoi_from_spec("product", sorted(seeded_fields))
        ladder = [1e-2, 1e-4]

        def run(loaded, depth):
            session = QoIRetriever(loaded, ranges, pipeline_depth=depth).session()
            return [
                session.retrieve([QoIRequest("q", qoi, tol, 1.0)])
                for tol in ladder
            ]

        serial = run(refactor_dataset(seeded_fields, make_refactorer(method)), depth=0)
        store = ShardedDiskStore(root)
        piped = run(Archive(store).load_dataset(sorted(seeded_fields)), depth=2)
        for a, b in zip(serial, piped):
            assert a.estimated_errors == b.estimated_errors
            assert a.final_ebs == b.final_ebs
            assert a.bytes_per_variable == b.bytes_per_variable
            for name in a.data:
                assert np.array_equal(a.data[name], b.data[name])
        # coalescing shows in the trip accounting: the open (two trips
        # at most) plus one per fetching round, and no fragment twice
        assert store.round_trips <= 2 + sum(r.rounds for r in piped)
        assert store.reads <= len(store.keys())

    def test_plan_matches_consumption(self, tmp_path, seeded_fields, method):
        """plan_segments(eb) names exactly the fragments request(eb) uses."""
        root = self._archive(tmp_path, seeded_fields, method)
        store = ShardedDiskStore(root)
        archive = Archive(store)
        for name in sorted(seeded_fields):
            ref = archive.load(name)
            source = ref.fragment_source
            reader = ref.reader()
            for eb in (np.ptp(seeded_fields[name]) * 1e-1,
                       np.ptp(seeded_fields[name]) * 1e-4):
                planned = reader.plan_segments(eb)
                before = set(source._seen)
                reader.request(eb)
                consumed = set(source._seen) - before
                # every consumed fragment was planned (prefetchable) and
                # nothing beyond the plan was pulled
                assert consumed <= set(planned)


class TestLazyArchive:
    def test_lazy_load_defers_bulk_fragments(self, tmp_path, seeded_fields):
        refactored = refactor_dataset(
            seeded_fields, make_refactorer("pmgard_hb")
        )
        store = ShardedDiskStore(str(tmp_path / "ar"))
        Archive(store).save_dataset(refactored)
        fresh = ShardedDiskStore(str(tmp_path / "ar"))
        archive = Archive(fresh)
        archive.load("p")
        # index + one batched round trip for coarse/signs; no planes yet
        assert fresh.reads < 10
        assert fresh.round_trips <= 2

    def test_lossless_tail_stays_lazy(self, tmp_path, seeded_fields):
        refactored = refactor_dataset({"p": seeded_fields["p"]},
                                      make_refactorer("psz3"))
        store = ShardedDiskStore(str(tmp_path / "ar"))
        Archive(store).save_dataset(refactored)
        fresh = ShardedDiskStore(str(tmp_path / "ar"))
        ref = Archive(fresh).load("p")
        assert fresh.reads == 1  # only the JSON index moved
        assert ref.total_bytes > 0  # sizes come from the store index
        assert fresh.reads == 1
        reader = ref.reader()
        # far below the tightest snapshot bound: only the tail satisfies it
        reader.request(float(np.ptp(seeded_fields["p"])) * 1e-14)
        assert reader.current_error_bound == 0.0


class TestFetchPipeline:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            QoIRetriever({}, {}, pipeline_depth=-1)
        assert QoIRetriever({}, {}, pipeline_depth=0).pipeline_depth == 0

    def test_round_is_one_inline_fetch_with_its_speculation(self):
        """Determinism: speculation rides the round's one ``get_many``,
        fetched on the calling thread before ``submit_round`` returns,
        and a ride-along entry is never decoded."""
        from repro.storage.archive import FragmentSource

        class RecordingStore(FragmentStore):
            def __init__(self):
                super().__init__()
                self.callers = []

            def get_many(self, keys):
                self.callers.append(threading.current_thread())
                return super().get_many(keys)

        store = RecordingStore()
        store.put("v", "s0", b"x")
        store.put("v", "s1", b"y")  # widened: the next round's plane
        store.put("w", "s0", b"z")  # rides along, decodes nothing now
        v, w = FragmentSource(store, "v"), FragmentSource(store, "w")
        pipe = FetchPipeline()
        groups = pipe.submit_round([("v", v, ["s0", "s1"]), (None, w, ["s0"])])
        assert store.callers == [threading.current_thread()]  # one trip, inline
        assert v.fetched("s0") and v.fetched("s1") and w.fetched("s0")
        assert [k for keys in pipe.iter_groups(groups) for k in keys] == ["v"]
        pipe.close()
        assert store.round_trips == 1

    def test_speculation_completes_before_close(self):
        """Speculation rides the round's fetch, so it has landed when
        ``submit_round`` returns — close() finds nothing in flight."""
        from repro.storage.archive import FragmentSource

        store = _filled(FragmentStore())
        v, w = FragmentSource(store, "v"), FragmentSource(store, "w")
        pipe = FetchPipeline()
        groups = pipe.submit_round([("v", v, ["s0"]), (None, w, ["s0"])])
        assert v.fetched("s0") and w.fetched("s0")
        trips = store.round_trips
        pipe.close()
        assert store.round_trips == trips  # close() had nothing to drain
        assert [k for keys in pipe.iter_groups(groups) for k in keys] == ["v"]
        assert store.round_trips == trips  # nor had the decode stage

    def test_submit_round_store_error_propagates_and_releases_claims(self):
        from repro.storage.archive import FragmentSource

        class BadStore(FragmentStore):
            def get_many(self, keys):
                raise OSError("store down")

        bad = BadStore()
        bad.put("v", "s0", b"x")
        source = FragmentSource(bad, "v")
        with pytest.raises(OSError, match="store down"):
            FetchPipeline().submit_round([("v", source, ["s0"])])
        # the failed round left no claim behind: a retry fetches it again
        assert source.missing(["s0"]) == ["s0"]
        assert source.claim(["s0"]) == ["s0"]

    def test_concurrent_prefetches_never_double_read(self):
        """claim() makes racing round batches fetch-once."""
        from repro.storage.archive import FragmentSource, prefetch_plans

        gate = threading.Event()

        class SlowStore(FragmentStore):
            def get_many(self, keys):
                gate.wait(timeout=10)
                return super().get_many(keys)

        store = SlowStore()
        for i in range(4):
            store.put("v", f"s{i}", bytes(10))
        source = FragmentSource(store, "v")
        segs = [f"s{i}" for i in range(4)]
        worker = threading.Thread(
            target=prefetch_plans, args=([(source, segs)],)
        )
        worker.start()
        # the racing batch sees every segment claimed and fetches nothing
        assert prefetch_plans([(source, segs)]) == 0
        gate.set()
        worker.join()
        assert store.reads == 4  # each fragment read exactly once
        # and a reader-side get() waited for the batch instead of re-reading
        assert source.get("s0") == bytes(10)
        assert store.reads == 4

    def test_prefetch_failure_releases_claims_of_every_store(self):
        from repro.storage.archive import FragmentSource, prefetch_plans

        class BadStore(FragmentStore):
            def get_many(self, keys):
                raise OSError("store down")

        for bad_first in (True, False):
            good = _filled(FragmentStore())
            bad = BadStore()
            bad.put("w", "s0", b"x")
            s_good = FragmentSource(good, "v")
            s_bad = FragmentSource(bad, "w")
            plans = [(s_bad, ["s0"]), (s_good, ["s0"])]
            with pytest.raises(OSError):
                prefetch_plans(plans if bad_first else list(reversed(plans)))
            # no source may keep dangling claims, whichever store failed
            assert s_bad.claim(["s0"]) == ["s0"]
            if bad_first:  # the good store's batch never ran: reclaimable
                assert s_good.claim(["s0"]) == ["s0"]
            else:  # fetched before the failure: nothing left to claim
                assert s_good.missing(["s0"]) == []

    def test_duplicate_speculation_is_skipped(self):
        from repro.storage.archive import FragmentSource

        store = _filled(FragmentStore())
        source = FragmentSource(store, "v")
        pipe = FetchPipeline()
        groups = pipe.submit_round([(None, source, ["s0"])])
        assert list(pipe.iter_groups(groups)) == [[]]
        # already fetched: the entry dissolves before reaching the store
        assert pipe.submit_round([(None, source, ["s0"])]) == []
        assert store.round_trips == 1
