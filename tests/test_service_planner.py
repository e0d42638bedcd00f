"""Cross-request query planner suite.

Four layers of guarantees:

* :class:`repro.service.planner.QueryPlanner` unit semantics — memoized
  single-flight representation loads, exact-bound plan memoization,
  generation invalidation.
* :class:`repro.service.planner.FetchScheduler` unit semantics — its
  fetch is the read path's one inline fetch: cross-request duplicates
  are claimed once, store errors release every claim and surface to the
  caller, and the speculative name is an alias.
* Service-level economics — 8 concurrent clients over one
  :class:`~repro.service.service.RetrievalService`: identical ladders
  cost ONE planning pass (the 8-client run's plan-cache misses equal a
  1-client run's), overlapping and disjoint fleets are
  **bit-identical** to a fleet of library
  :class:`~repro.core.retrieval.QoIRetriever` sessions over one shared
  cache and archive, and every answer of every mode is checked against
  ground truth.
* Batched opens through the planner's load memo.

The cluster chaos case (concurrent sessions' rounds spanning a killed
node serve via replica failover) lives at the bottom, mirroring
``test_storage_cluster.TestClusterRetrievalChaos``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.service.planner import FetchScheduler, QueryPlanner
from repro.service.service import RetrievalService
from repro.storage.archive import Archive, FragmentSource
from repro.storage.cache import CachingFragmentStore, FragmentCache
from repro.storage.metadata import DatasetManifest, VariableMetadata
from repro.storage.remote import HTTPFragmentServer
from repro.storage.store import FragmentStore, ShardedDiskStore, open_store


def make_fields(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 12, n)
    return {
        "velocity_x": 90 * np.sin(t) + rng.normal(size=n),
        "velocity_y": 45 * np.cos(t) + rng.normal(size=n),
        "velocity_z": 15 * np.sin(2 * t) + rng.normal(size=n),
    }


def archive_into(store, fields, method="pmgard_hb"):
    refactored = refactor_dataset(fields, make_refactorer(method))
    archive = Archive(store)
    manifest = DatasetManifest(dataset="planner-test")
    for name, data in fields.items():
        archive.save(name, refactored[name])
        manifest.add(
            VariableMetadata.from_array(
                name, data, method, refactored[name].total_bytes,
                segments=store.segments(name),
            )
        )
    manifest.save_to(store)
    return refactored


@pytest.fixture(scope="module")
def setup():
    fields = make_fields()
    store = FragmentStore()
    archive_into(store, fields)
    qoi = total_velocity()
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    return fields, store, qoi, float(truth.max() - truth.min())


def copy_store(store):
    copy = FragmentStore()
    for var, seg in store.keys():
        copy.put(var, seg, store.get(var, seg))
    return copy


class SlowStore:
    """Inject per-round-trip latency: the cold-remote regime where trips,
    not bytes, dominate wall time.  Everything else delegates."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def get(self, variable, segment):
        time.sleep(self.delay_s)
        return self.inner.get(variable, segment)

    def get_many(self, keys):
        time.sleep(self.delay_s)
        return self.inner.get_many(keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


# ---------------------------------------------------------------------------
# QueryPlanner units
# ---------------------------------------------------------------------------


class _StubReader:
    """A reader whose plans and state token are scripted."""

    def __init__(self, token, plan):
        self._token = token
        self._plan = plan
        self.computes = 0

    def plan_token(self):
        return self._token

    def plan_segments(self, eb):
        self.computes += 1
        return list(self._plan)


class TestQueryPlanner:
    def test_representation_load_is_memoized_and_single_flight(self):
        planner = QueryPlanner()
        calls = []
        gate = threading.Event()

        def loader():
            calls.append(1)
            gate.wait(5)
            return object()

        got = []
        threads = [
            threading.Thread(target=lambda: got.append(planner.load("v", 0, loader)))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let every waiter pile onto the one flight
        gate.set()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len({id(r) for r in got}) == 1
        stats = planner.stats()
        assert stats.representations_loaded == 1
        assert stats.representations_shared == 7

    def test_new_generation_loads_fresh(self):
        planner = QueryPlanner()
        first = planner.load("v", 0, lambda: "gen0")
        again = planner.load("v", 0, lambda: "never")
        bumped = planner.load("v", 1, lambda: "gen1")
        assert first == again == "gen0"
        assert bumped == "gen1"

    def test_plan_memo_hits_on_exact_state_and_bound(self):
        planner = QueryPlanner()
        reader = _StubReader(("tok",), ["s1", "s2"])
        a = planner.plan_segments(reader, "v", 0, 1e-3)
        b = planner.plan_segments(reader, "v", 0, 1e-3)
        assert a == b == ["s1", "s2"]
        assert a is not b  # callers own their copies
        assert reader.computes == 1
        # a different bound is a different plan, never aliased
        planner.plan_segments(reader, "v", 0, 1e-3 + 1e-12)
        assert reader.computes == 2
        stats = planner.stats()
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_misses == 2

    def test_tokenless_reader_is_planned_directly(self):
        planner = QueryPlanner()
        reader = _StubReader(None, ["s1"])
        planner.plan_segments(reader, "v", 0, 1e-3)
        planner.plan_segments(reader, "v", 0, 1e-3)
        assert reader.computes == 2
        stats = planner.stats()
        assert stats.plan_cache_hits == stats.plan_cache_misses == 0

    def test_invalidate_drops_only_that_variable(self):
        planner = QueryPlanner()
        reader_v = _StubReader(("tok",), ["s"])
        reader_w = _StubReader(("tok",), ["s"])
        planner.load("v", 0, lambda: "v-rep")
        planner.load("w", 0, lambda: "w-rep")
        planner.plan_segments(reader_v, "v", 0, 1e-3)
        planner.plan_segments(reader_w, "w", 0, 1e-3)
        planner.invalidate("v")
        assert planner.load("v", 0, lambda: "v-rep2") == "v-rep2"
        assert planner.load("w", 0, lambda: "never") == "w-rep"
        planner.plan_segments(reader_v, "v", 0, 1e-3)
        assert reader_v.computes == 2  # memo gone
        planner.plan_segments(reader_w, "w", 0, 1e-3)
        assert reader_w.computes == 1  # memo intact

    def test_seed_memo_matches_direct_computation(self):
        from repro.core.estimators import seed_bounds

        planner = QueryPlanner()
        ranges = (180.0, 90.0)
        incidence = ((True, True), (True, False))
        tolerances = (1e-3, 1e-2)
        memoized = planner.seed_bounds(ranges, incidence, tolerances)
        again = planner.seed_bounds(ranges, incidence, tolerances)
        direct = seed_bounds(list(ranges), [list(r) for r in incidence],
                             list(tolerances))
        assert memoized == again
        assert list(memoized) == [float(s) for s in direct]
        stats = planner.stats()
        assert stats.plan_cache_hits == 1 and stats.plan_cache_misses == 1

    def test_plan_memo_is_bounded(self):
        planner = QueryPlanner(max_plan_memo=4)
        for i in range(10):
            planner.plan_segments(_StubReader(("tok", i), ["s"]), "v", 0, 1e-3)
        assert len(planner._plans) == 4


# ---------------------------------------------------------------------------
# A gated store, for the concurrent-open tests
# ---------------------------------------------------------------------------


class _GateStore(FragmentStore):
    """Blocks its first ``get_many`` once armed until released — the
    window in which a concurrent open must wait on the first.  Built
    disarmed (``armed=False``) it serves reads straight through until
    :meth:`arm`, so a service can load its manifest first."""

    def __init__(self, armed=True):
        super().__init__()
        self.entered = threading.Event()
        self.release_gate = threading.Event()
        self.served = []
        self.armed = armed

    def arm(self):
        self.armed = True

    def get_many(self, keys):
        if not self.armed:
            return super().get_many(keys)
        first = not self.entered.is_set()
        self.entered.set()
        if first:
            self.release_gate.wait(10)
        self.served.append(sorted(keys))
        return super().get_many(keys)


def _blocked_in(thread, function):
    """True when *thread* waits on an event that *function* itself called."""
    frame = sys._current_frames().get(thread.ident)
    if frame is None or frame.f_code.co_name != "wait":
        return False
    while frame is not None and frame.f_code.co_name == "wait":
        frame = frame.f_back  # Condition.wait under Event.wait
    return frame is not None and frame.f_code.co_name == function


def _fill(store, variable, segments):
    for segment in segments:
        store.put(variable, segment, segment.encode() * 3)


class TestFetchScheduler:
    def test_duplicate_segments_claimed_once(self):
        scheduler = FetchScheduler()
        store = _GateStore()
        _fill(store, "v", ["a", "b"])
        source = FragmentSource(store, "v")
        fetched = []
        first = threading.Thread(
            target=lambda: fetched.append(scheduler.fetch([(source, ["a", "b"])]))
        )
        try:
            first.start()
            assert store.entered.wait(5)
            # the racing round finds both segments claimed: no second pass
            assert scheduler.fetch([(source, ["a", "b"])]) == 0
            store.release_gate.set()
            first.join(10)
            assert fetched == [2]
            assert store.served == [[("v", "a"), ("v", "b")]]
            assert store.reads == 2
        finally:
            store.release_gate.set()
            first.join(10)

    def test_store_error_releases_claims_and_surfaces(self):
        class _BrokenStore(FragmentStore):
            def get_many(self, keys):
                raise OSError("store down")

        source = FragmentSource(_BrokenStore(), "v")
        with pytest.raises(OSError):
            FetchScheduler().fetch([(source, ["a", "b"])])
        # every claim was released: the segments are fetchable again
        assert source.missing(["a", "b"]) == ["a", "b"]
        assert source.claim(["a", "b"]) == ["a", "b"]

    def test_fetch_speculative_is_an_alias_of_fetch(self):
        # kept only for callers that wrap it by name: same fetch, same errors
        class _BrokenStore(FragmentStore):
            def get_many(self, keys):
                raise OSError("store down")

        scheduler = FetchScheduler()
        store = FragmentStore()
        _fill(store, "v", ["a", "b"])
        assert scheduler.fetch_speculative([(FragmentSource(store, "v"), ["a", "b"])]) == 2
        assert store.round_trips == 1
        broken = FragmentSource(_BrokenStore(), "v")
        with pytest.raises(OSError):
            scheduler.fetch_speculative([(broken, ["a"])])
        assert broken.missing(["a"]) == ["a"]

    def test_empty_plans_short_circuit(self):
        scheduler = FetchScheduler()
        store = FragmentStore()
        assert scheduler.fetch([]) == 0
        assert scheduler.fetch([(FragmentSource(store, "v"), [])]) == 0
        assert store.round_trips == 0


# ---------------------------------------------------------------------------
# Service-level economics: 8 concurrent clients
# ---------------------------------------------------------------------------


IDENTICAL_LADDER = [1e-2, 1e-3, 1e-4]

OVERLAPPING_LADDERS = [
    [5e-2, 1e-2, 2e-3, 5e-4], [2e-2, 5e-3, 1e-3, 5e-4],
    [5e-2, 5e-3, 1e-3, 2e-4], [1e-2, 2e-3, 5e-4, 2e-4],
    [2e-2, 1e-2, 1e-3, 5e-4], [5e-2, 2e-3, 1e-3, 2e-4],
    [1e-2, 5e-3, 2e-3, 5e-4], [2e-2, 5e-3, 5e-4, 2e-4],
]

DISJOINT_LADDERS = [[3e-2 / (1.7 ** i)] for i in range(8)]


def _drive_fleet(setup_data, ladders, open_session):
    """Client *i* walks ``ladders[i]`` on its own thread.

    *open_session(i)* returns the client's ``retrieve`` callable and
    runs before the start barrier.  Returns
    ``{(client, tolerance): (data, estimated errors, bytes)}``.
    """
    _, _, qoi, qrange = setup_data
    barrier = threading.Barrier(len(ladders))
    outs, errors = {}, []
    lock = threading.Lock()

    def work(index):
        try:
            retrieve = open_session(index)
            barrier.wait()
            for tolerance in ladders[index]:
                result = retrieve([QoIRequest("vtot", qoi, tolerance, qrange)])
                with lock:
                    outs[(index, tolerance)] = (
                        {k: v.copy() for k, v in result.data.items()},
                        dict(result.estimated_errors),
                        result.total_bytes,
                    )
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(len(ladders))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return outs


def run_fleet(setup_data, ladders, delay_s=0.0):
    """N concurrent clients of one service, client *i* walking ``ladders[i]``.

    Returns per-(client, tolerance) results and the service stats;
    variable loads are warmed first.
    """
    fields, store, _, _ = setup_data
    inner = copy_store(store)
    service = RetrievalService(SlowStore(inner, delay_s) if delay_s else inner)
    for name in fields:
        service.load_variables([name])
    sessions = []

    def open_session(index):
        session = service.open_session(f"client-{index}")
        sessions.append(session)
        return session.retrieve

    try:
        outs = _drive_fleet(setup_data, ladders, open_session)
    finally:
        for session in sessions:
            session.close()
    stats = service.stats()
    service.close()
    return outs, stats


def run_library_fleet(setup_data, ladders, delay_s=0.0):
    """The same fleet as library sessions: no planner.

    Each client runs its own :class:`~repro.core.retrieval.QoIRetriever`
    session; all of them read through one shared
    :class:`~repro.storage.cache.CachingFragmentStore` and one
    :class:`~repro.storage.archive.Archive` (whose fragment sources
    dedup concurrent claims).  Returns the results, loads warmed first.
    """
    fields, store, _, _ = setup_data
    inner = copy_store(store)
    cached = CachingFragmentStore(
        SlowStore(inner, delay_s) if delay_s else inner, FragmentCache()
    )
    archive = Archive(cached)
    ranges = DatasetManifest.load_from(cached).value_ranges()
    for name in fields:
        archive.load_dataset([name])

    def open_session(index):
        loaded = archive.load_dataset(sorted(fields))
        return QoIRetriever(loaded, ranges).session().retrieve

    return _drive_fleet(setup_data, ladders, open_session)


def assert_bit_identical(got, want):
    assert set(got) == set(want)
    for key, (want_data, want_errors, want_bytes) in want.items():
        data, errors, total_bytes = got[key]
        assert errors == want_errors, key
        assert total_bytes == want_bytes, key
        for name in want_data:
            assert np.array_equal(data[name], want_data[name]), (key, name)


def assert_truth(setup_data, outs):
    """The paper's promise, against ground truth, for every answer:
    true VTOT L-inf error <= reported bound <= tolerance x range."""
    fields, _, qoi, qrange = setup_data
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    for (_, tolerance), (data, errors, _) in outs.items():
        got = qoi.value({k: (v, 0.0) for k, v in data.items()})
        bound = errors["vtot"]
        assert np.max(np.abs(got - truth)) <= bound <= tolerance * qrange


class TestSharedPlannerService:
    def test_identical_ladders_cost_one_planning_pass(self, setup):
        ladders = [list(IDENTICAL_LADDER) for _ in range(8)]
        outs8, stats8 = run_fleet(setup, ladders)
        outs1, stats1 = run_fleet(setup, ladders[:1])
        # 8 identical clients planned exactly what 1 client plans: every
        # session's (state token, bound) walk lands on the same memo keys
        assert (
            stats8.planner.plan_cache_misses == stats1.planner.plan_cache_misses
        )
        assert stats8.planner.plan_cache_hits > stats1.planner.plan_cache_hits
        # one archive load per variable (the warm pass), shared by all 8
        assert stats8.planner.representations_loaded == 3
        assert stats8.planner.representations_shared == 3 * 8
        for index in range(8):
            for tolerance in IDENTICAL_LADDER:
                assert_bit_identical(
                    {(0, tolerance): outs8[(index, tolerance)]},
                    {(0, tolerance): outs1[(0, tolerance)]},
                )
        assert_truth(setup, outs8)

    def test_overlapping_ladders_stay_bit_identical(self, setup):
        outs, stats = run_fleet(setup, OVERLAPPING_LADDERS, delay_s=0.003)
        outs_lib = run_library_fleet(setup, OVERLAPPING_LADDERS, delay_s=0.003)
        assert_bit_identical(outs, outs_lib)
        assert_truth(setup, outs)
        assert stats.planner.plan_cache_hits > 0

    def test_disjoint_ladders_stay_correct_and_bit_identical(self, setup):
        outs, _ = run_fleet(setup, DISJOINT_LADDERS)
        outs_lib = run_library_fleet(setup, DISJOINT_LADDERS)
        assert_bit_identical(outs, outs_lib)
        assert_truth(setup, outs)

    def test_sequential_sessions_hit_the_plan_cache(self, setup):
        fields, store, qoi, qrange = setup
        service = RetrievalService(copy_store(store))
        for client in range(2):
            with service.open_session(f"seq-{client}") as session:
                session.retrieve([QoIRequest("vtot", qoi, 1e-3, qrange)])
        stats = service.stats()
        assert stats.planner.plan_cache_hits > 0
        assert stats.planner.representations_shared >= 3
        service.close()


# ---------------------------------------------------------------------------
# Batched dataset open through the planner's load memo
# ---------------------------------------------------------------------------


class TestBatchedOpen:
    def test_load_many_loads_only_the_misses_as_one_batch(self):
        planner = QueryPlanner()
        calls = []

        def loader(names):
            calls.append(list(names))
            return {name: f"{name}-rep" for name in names}

        planner.load("a", 0, lambda: "a-rep")
        got = planner.load_many({"a": 0, "b": 0, "c": 0}, loader)
        assert got == {"a": "a-rep", "b": "b-rep", "c": "c-rep"}
        assert calls == [["b", "c"]]  # the memo hit never reached the loader
        stats = planner.stats()
        assert stats.representations_loaded == 3
        assert stats.representations_shared == 1

    def test_generation_bump_mid_batch_reloads_only_that_variable(self):
        planner = QueryPlanner()
        calls = []

        def loader(names):
            calls.append(list(names))
            if len(calls) == 1:
                planner.invalidate("b")  # a live ingest lands mid-load
            return {name: (name, len(calls)) for name in names}

        first = planner.load_many({"a": 0, "b": 0, "c": 0}, loader)
        assert first == {"a": ("a", 1), "b": ("b", 1), "c": ("c", 1)}
        # the raced load was served but never memoized; the rest were
        again = planner.load_many({"a": 0, "b": 1, "c": 0}, loader)
        assert again == {"a": ("a", 1), "b": ("b", 2), "c": ("c", 1)}
        assert calls == [["a", "b", "c"], ["b"]]

    def test_failed_batch_releases_every_flight(self):
        planner = QueryPlanner()

        def broken(names):
            raise OSError("store down")

        with pytest.raises(OSError):
            planner.load_many({"a": 0, "b": 0}, broken)
        # nothing is left in flight: the next open loads, it does not hang
        got = planner.load_many({"a": 0, "b": 0}, lambda names: dict.fromkeys(names, 1))
        assert got == {"a": 1, "b": 1}

    def test_concurrent_sessions_share_one_batched_open(self, setup):
        fields, store, _, _ = setup
        inner = _GateStore(armed=False)
        for var, seg in store.keys():
            inner.put(var, seg, store.get(var, seg))
        service = RetrievalService(inner)  # reads the manifest ungated
        inner.arm()
        trips_before = inner.round_trips
        outs, errors = [], []

        def open_all():
            try:
                outs.append(service.load_variables(sorted(fields)))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=open_all) for _ in range(2)]
        try:
            threads[0].start()
            assert inner.entered.wait(5)  # the first open's index batch
            threads[1].start()
            # the second open waits on the first one's flights, with the
            # first still held at the gate
            deadline = time.monotonic() + 5
            while not _blocked_in(threads[1], "load_many"):
                assert time.monotonic() < deadline, "second open never waited"
                time.sleep(0.001)
            assert len(inner.served) == 0
        finally:
            inner.release_gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        # ONE batched open — its one get_many — served both sessions
        assert inner.round_trips - trips_before == 1
        assert len(inner.served) == 1
        assert all(outs[0][name] is outs[1][name] for name in fields)
        stats = service.stats().planner
        assert stats.representations_loaded == 3
        assert stats.representations_shared == 3
        service.close()

    def test_session_reloads_only_the_replaced_variable(self, setup):
        fields, store, qoi, qrange = setup
        service = RetrievalService(copy_store(store))
        request = [QoIRequest("vtot", qoi, 1e-3, qrange)]
        with service.open_session() as session:
            session.retrieve(request)
            assert service.stats().planner.representations_loaded == 3
            service.ingest({"velocity_y": fields["velocity_y"] * 1.01})
            result = session.retrieve(request)
            assert result.all_satisfied
        # the bumped variable alone went back to the archive
        assert service.stats().planner.representations_loaded == 4
        service.close()

    def test_cold_tiered_cluster_session_opens_in_one_trip(self, tmp_path):
        from repro.data import generators
        from repro.utils.fragment_keys import timestep_variable

        servers = [
            HTTPFragmentServer(ShardedDiskStore(str(tmp_path / f"node{i}"))).start()
            for i in range(2)
        ]
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
            truth = qoi.value({n: (data[f], 0.0) for n, f in zip(names, wind)})
            service = RetrievalService.open("tiered://?slow=" + cluster)
            try:
                before = service.stats()
                with service.open_session() as session:
                    session._ensure_variables(
                        [QoIRequest("vtot", qoi, 1e-2, float(np.ptp(truth)))]
                    )
                    opened = service.stats()
                    # three variables, one trip through tiered -> cluster
                    assert opened.store_round_trips - before.store_round_trips == 1
                    assert (
                        opened.tiers.slow_round_trips - before.tiers.slow_round_trips
                        == 1
                    )
                    result = session.retrieve(
                        [QoIRequest("vtot", qoi, 1e-2, float(np.ptp(truth)))]
                    )
                rec = qoi.value({n: (result.data[n], 0.0) for n in names})
                assert np.max(np.abs(rec - truth)) <= result.estimated_errors["vtot"]
                assert result.all_satisfied
            finally:
                service.close()
        finally:
            for server in servers:
                server.stop()


# ---------------------------------------------------------------------------
# Chaos: a coalesced round spanning a killed cluster node
# ---------------------------------------------------------------------------


def cluster_url(servers, replicas=2):
    nodes = ",".join("%s:%d" % server.address for server in servers)
    return (
        f"cluster://{nodes}?replicas={replicas}&vnodes=32"
        f"&retries=2&retry_base=0.0&breaker=2&cooldown=30"
    )


class TestCoalescedRoundFailover:
    """Concurrent rounds' shard fan-out spanning a dead node must serve
    via replica failover — bit-identical, zero client-visible errors."""

    def test_merged_rounds_survive_node_death(self, tmp_path):
        from tests.test_storage_cluster import kill_server

        fields = make_fields(n=1200, seed=5)
        baseline_store = FragmentStore()
        archive_into(baseline_store, fields, method="pmgard_hb")
        qoi = total_velocity()
        truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
        qrange = float(truth.max() - truth.min())
        ladders = [[1e-2, 1e-4], [2e-2, 1e-4], [1e-2, 5e-4], [5e-2, 1e-4]]

        baseline, _ = run_fleet((fields, baseline_store, qoi, qrange), ladders)

        node_dirs = [str(tmp_path / f"node{i}") for i in range(3)]
        servers = [
            HTTPFragmentServer(ShardedDiskStore(d)).start() for d in node_dirs
        ]
        try:
            seed_store = open_store(cluster_url(servers))
            seed_store.put_many([
                (var, seg, baseline_store.get(var, seg))
                for var, seg in baseline_store.keys()
            ])
            seed_store.close()

            store = open_store(cluster_url(servers))
            service = RetrievalService(store)
            barrier = threading.Barrier(len(ladders))
            outs, errors = {}, []
            lock = threading.Lock()

            def work(index):
                try:
                    with service.open_session(f"chaos-{index}") as session:
                        barrier.wait(timeout=60)
                        for step, tolerance in enumerate(ladders[index]):
                            if step == 1:
                                # the node dies between the rungs: every
                                # session has read from it, none has
                                # fetched its second rung yet
                                if index == 0:
                                    kill_server(servers[1])
                                barrier.wait(timeout=60)
                            result = session.retrieve(
                                [QoIRequest("vtot", qoi, tolerance, qrange)]
                            )
                            with lock:
                                outs[(index, tolerance)] = (
                                    {k: v.copy() for k, v in result.data.items()},
                                    dict(result.estimated_errors),
                                    result.total_bytes,
                                )
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(ladders))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            assert_bit_identical(outs, baseline)
            assert store.stats().failovers > 0  # the dead node was re-routed
            service.close()
        finally:
            for server in servers:
                if server._thread is not None:
                    server.stop()
