"""Exact store round-trip counts of the read path (counts, never timings).

Behind a link the cost of a retrieval is its number of *serial* store
round trips, so the counts are the contract: a lazy dataset open is two
``get_many`` however many variables it names, a fetching round carries
its own speculation (nothing is fetched outside a round, nothing is left
running when ``retrieve`` returns), and none of it changes a result.
"""

import threading
import time

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.compressors.pmgard import PMGARDReader
from repro.core.assigner import DEFAULT_REDUCTION_FACTOR
from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever
from repro.storage.archive import Archive
from repro.storage.cache import CachingFragmentStore, FragmentCache
from repro.storage.store import FragmentStore
from repro.storage.transfer import LatencyFragmentStore
from repro.utils.fragment_keys import INDEX_SEGMENT

FIELDS = ("velocity_x", "velocity_y", "velocity_z")
LADDER = (1e-2, 1e-3, 1e-4, 1e-5)


class CountingStore(FragmentStore):
    """In-memory store that logs every read trip and the keys it carried.

    The log sits on the read primitive, so every trip is seen however it
    was issued; a singleton ``get`` is logged under its own name and
    served by the same primitive, once.
    """

    def __init__(self):
        super().__init__()
        self.calls: list = []  # ("get" | "get_many", [keys])

    def _logged(self, kind, keys):
        self.calls.append((kind, keys))
        return super().get_many(keys)

    def get(self, variable, segment):
        return self._logged("get", [(variable, segment)])[(variable, segment)]

    def get_many(self, keys):
        return self._logged("get_many", list(keys))

    def count(self, kind: str) -> int:
        return sum(1 for call, _ in self.calls if call == kind)

    def keys_read(self) -> set:
        return {key for _, keys in self.calls for key in keys}


def make_fields(n=4000, seed=11):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 12, n)
    waves = (90 * np.sin(t), 45 * np.cos(t), 15 * np.sin(2 * t))
    return {name: wave + rng.normal(size=n) for name, wave in zip(FIELDS, waves)}


def archived(fields, methods):
    """A CountingStore holding *fields*, variable i refactored by methods[i]."""
    store = CountingStore()
    archive = Archive(store)
    for name, method in zip(fields, methods):
        archive.save(name, make_refactorer(method).refactor(fields[name]))
    store.calls.clear()
    return store


class TestBatchedOpen:
    def test_pmgard_dataset_opens_in_two_batched_trips(self):
        fields = make_fields()
        store = archived(fields, ["pmgard_hb"] * 3)
        loaded = Archive(store).load_dataset(FIELDS, lazy=True)
        assert sorted(loaded) == sorted(FIELDS)
        assert store.count("get_many") == 2 and store.count("get") == 0
        assert store.round_trips == 2
        # trip one is every index, trip two every coarse/sign segment
        assert store.calls[0][1] == [(name, INDEX_SEGMENT) for name in FIELDS]
        assert {name for name, _ in store.calls[1][1]} == set(FIELDS)

    @pytest.mark.parametrize("methods, trips", [
        (("psz3", "psz3", "psz3"), 1),
        (("psz3_delta", "psz3_delta", "psz3_delta"), 1),
        (("pmgard_hb", "psz3", "psz3_delta"), 2),
    ])
    def test_snapshot_kinds_need_only_the_index_trip(self, methods, trips):
        fields = make_fields()
        store = archived(fields, methods)
        loaded = Archive(store).load_dataset(FIELDS, lazy=True)
        assert store.count("get_many") == trips and store.count("get") == 0
        # every kind still reads correctly through its lazy source
        for name in FIELDS:
            eb = float(np.ptp(fields[name])) * 1e-3
            rec = loaded[name].reader().request(eb)
            assert np.max(np.abs(rec - fields[name])) <= eb

    def test_single_load_and_resave_serve_current_bytes(self):
        fields = make_fields()
        store = archived(fields, ["pmgard_hb"] * 3)
        archive = Archive(store)
        name = FIELDS[0]
        eb = float(np.ptp(fields[name])) * 1e-4
        first = archive.load(name, lazy=True)
        assert store.count("get_many") == 2 and store.count("get") == 0
        assert np.max(np.abs(first.reader().request(eb) - fields[name])) <= eb
        # a re-save invalidates the memoized source: the next lazy load
        # must read (and serve) the new representation, not the old bytes
        replaced = fields[name][::-1].copy()
        archive.save(name, make_refactorer("pmgard_hb").refactor(replaced))
        fresh = archive.load(name, lazy=True)
        assert fresh.fragment_source is not first.fragment_source
        assert np.max(np.abs(fresh.reader().request(eb) - replaced)) <= eb


def parent_fetch_set(store, ranges, requests_for):
    """What the parent commit fetched, from ``pipeline_depth=1`` semantics.

    The parent completed, for every ``reader.request(eb)``, the round's
    own plan *and* a standalone speculative fetch of ``plan(eb / c)``
    planned after the decode.  Runs the ladder serially
    (``pipeline_depth=0, max_workers=0``) recording both; returns the key
    set and the serial results (the bit-identity reference).
    """
    loaded = Archive(store).load_dataset(FIELDS, lazy=True)
    keys = set(store.keys_read())  # the open's index + coarse/sign segments
    original = PMGARDReader.request

    def recording(reader, eb):
        variable = reader._ref.fragment_source.variable
        keys.update((variable, s) for s in reader.plan_segments(eb))
        out = original(reader, eb)
        ahead = reader.plan_segments(eb / DEFAULT_REDUCTION_FACTOR)
        keys.update((variable, s) for s in ahead)
        return out

    PMGARDReader.request = recording
    try:
        session = QoIRetriever(
            loaded, ranges, pipeline_depth=0, max_workers=0
        ).session()
        results = [session.retrieve(requests_for(tol)) for tol in LADDER]
    finally:
        PMGARDReader.request = original
    return keys, results


@pytest.fixture(scope="module")
def ladder_setup():
    fields = make_fields()
    ranges = {k: float(np.ptp(v)) for k, v in fields.items()}
    qoi = total_velocity()
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    qrange = float(np.ptp(truth))
    return fields, ranges, lambda tol: [QoIRequest("VTOT", qoi, tol, qrange)]


def fetch_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-fetch")]


class TestRoundCarriesItsSpeculation:
    def test_ladder_fetches_a_subset_of_the_parent_and_nothing_after_return(
        self, ladder_setup
    ):
        fields, ranges, requests_for = ladder_setup
        parent_keys, serial = parent_fetch_set(
            archived(fields, ["pmgard_hb"] * 3), ranges, requests_for
        )

        store = archived(fields, ["pmgard_hb"] * 3)
        link = LatencyFragmentStore(store, latency=0.0005, bandwidth=50e6)
        loaded = Archive(link).load_dataset(FIELDS, lazy=True)
        session = QoIRetriever(loaded, ranges).session()  # default knobs
        piped = []
        for tol in LADDER:
            piped.append(session.retrieve(requests_for(tol)))
            # no fetch outlives retrieve(): pool joined, counters at rest
            assert not fetch_threads()
            settled = (link.reads, link.round_trips, len(store.calls))
            time.sleep(0.01)
            assert (link.reads, link.round_trips, len(store.calls)) == settled

        assert store.keys_read() <= parent_keys
        assert store.count("get") == 0  # decode never fell back to the store
        # the open's two trips, then per round at most one set of
        # parallel batches (one serial trip) and nothing in between
        rounds = sum(r.rounds for r in piped)
        assert store.count("get_many") <= 2 + rounds * session._retriever.pipeline.max_workers
        for a, b in zip(serial, piped):
            assert a.rounds == b.rounds
            assert a.estimated_errors == b.estimated_errors
            assert a.final_ebs == b.final_ebs
            assert a.bytes_per_variable == b.bytes_per_variable
            for name in a.data:
                assert np.array_equal(a.data[name], b.data[name])

    def test_identical_rerun_on_a_warm_shared_cache_reads_nothing(
        self, ladder_setup
    ):
        fields, ranges, requests_for = ladder_setup
        store = archived(fields, ["pmgard_hb"] * 3)
        cache = FragmentCache(64 << 20)

        def run():
            caching = CachingFragmentStore(store, cache)
            loaded = Archive(caching).load_dataset(FIELDS, lazy=True)
            session = QoIRetriever(loaded, ranges).session()
            return [session.retrieve(requests_for(tol)) for tol in LADDER]

        cold = run()
        reads, trips = store.reads, store.round_trips
        assert reads > 0
        warm = run()
        # the first run's fetched set is deterministic and complete, so
        # the second finds every fragment it plans (or widens to) cached
        assert (store.reads, store.round_trips) == (reads, trips)
        for a, b in zip(cold, warm):
            assert a.estimated_errors == b.estimated_errors
            for name in a.data:
                assert np.array_equal(a.data[name], b.data[name])
