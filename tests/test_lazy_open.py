"""A lazy dataset open is one store round trip, on every store.

``Archive.load_dataset(names)`` picks each variable's small
segments (PMGARD ``coarse`` and ``L<ll>_signs``, any ``zero_mask``) by
name out of the store's local listing and fetches them in the same
``get_many`` as the indexes.  The parsed indexes stay the authority:

* the name test selects exactly what the index would, for every kind of
  variable, masked or not, with levels archived as zero;
* a listing that lacks a small segment costs one more trip, and the
  readers then serve what a fresh open serves;
* a listing that names a segment the store no longer holds (a mirror
  read after another client re-saved the variable) falls back to the
  index-only trip, with no ``KeyError`` and no claim left pending;
* a mirror opened before another client re-saved a variable with more
  levels re-pulls its listing at the first size it lacks, and answers
  within the bound against the original data.
"""

import contextlib
import json

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.masking import refactor_masked
from repro.storage.archive import Archive, FragmentSource, _small_segments
from repro.storage.remote import HTTPFragmentServer, HTTPFragmentStore
from repro.storage.store import FragmentStore
from repro.utils.fragment_keys import (
    INDEX_SEGMENT,
    ZERO_MASK_SEGMENT,
    small_segments_in,
    pmgard_signs_segment,
)
from test_store_contract import KINDS, build

METHODS = ("pmgard", "pmgard_hb", "psz3", "psz3_delta")


def dataset_fields(n=2000) -> dict:
    """A mask-free wave, a masked one, a masked spike whose fine levels
    are zero (PMGARD-HB) and a constant whose every level is zero."""
    t = np.linspace(0, 9, n)
    wave = 40 * np.sin(t) + np.random.default_rng(3).normal(size=n)
    holes = wave.copy()
    holes[::7] = 0.0
    spike = np.zeros(n)
    spike[n // 2] = 1.0
    return {"wave": wave, "holes": holes, "spike": spike, "flat": np.full(n, 3.0)}


@pytest.fixture(scope="module", params=METHODS)
def archived(request):
    """``(method, fields, {name: refactored})`` for one refactoring method."""
    fields = dataset_fields()
    refactorer = make_refactorer(request.param)
    return request.param, fields, {
        name: refactor_masked(refactorer, data) for name, data in fields.items()
    }


def indexes_of(store, names) -> dict:
    return {name: json.loads(store.get(name, INDEX_SEGMENT)) for name in names}


def decoded(loaded: dict, fields: dict) -> dict:
    """Each variable's reconstruction at a 1e-3 relative bound, and its bytes."""
    out = {}
    for name, ref in loaded.items():
        reader = ref.reader()
        eb = max(float(np.ptp(fields[name])), 1.0) * 1e-3
        out[name] = (reader.request(eb), reader.bytes_retrieved)
    return out


class TestListingMatchesIndex:
    @pytest.mark.parametrize("kind", KINDS)
    def test_the_name_test_picks_the_index_segments_and_the_open_is_one_trip(
        self, archived, kind, tmp_path
    ):
        method, fields, refactored = archived
        with contextlib.ExitStack() as stack:
            store = build(kind, tmp_path, stack)
            Archive(store).save_dataset(refactored)
            # behind the cache, its inner store is the one the open travels
            # to (read the indexes there, or the cache would serve them)
            backing = getattr(store, "inner", store)
            indexes = indexes_of(backing, fields)
            masked = {name for name, index in indexes.items() if index.get("zero_mask")}
            assert masked == {"holes", "spike"}  # masked and mask-free both open
            if method.startswith("pmgard"):
                zero = [m["exponent"] is None for m in indexes["flat"]["streams"]]
                assert all(zero)  # levels archived as zero
            if method == "pmgard_hb":
                zero = [m["exponent"] is None for m in indexes["spike"]["streams"]]
                assert any(zero) and not all(zero)
            for name, index in indexes.items():
                picked = small_segments_in(store.segments(name))
                assert sorted(picked) == sorted(_small_segments(index))

            before = (backing.round_trips, backing.reads)
            loaded = Archive(store).load_dataset(list(fields))
            small = sum(len(_small_segments(index)) for index in indexes.values())
            assert (backing.round_trips - before[0], backing.reads - before[1]) == (
                1, len(fields) + small,
            )
            got, want = decoded(loaded, fields), decoded(refactored, fields)
            for name in fields:
                assert np.array_equal(got[name][0], want[name][0])
                assert got[name][1] == want[name][1]

    def test_signs_names_match_at_every_level_width(self):
        signs = [pmgard_signs_segment(k) for k in (0, 9, 99, 100)]
        others = ["L_signs", "Lx1_signs", "L00_p00", "L00_signs_", "l00_signs",
                  "snapshot_000", "lossless", INDEX_SEGMENT, "coarse2", "xcoarse", ""]
        assert small_segments_in(others + signs) == signs


class HidingStore(FragmentStore):
    """In-memory store whose listing leaves out the segments in *hidden*."""

    def __init__(self, hidden):
        super().__init__()
        self.hidden = set(hidden)

    def segments(self, variable):
        return [s for s in super().segments(variable) if (variable, s) not in self.hidden]


class TestStaleListings:
    def test_a_listing_missing_small_segments_costs_one_more_trip(self):
        fields = dataset_fields()
        refactorer = make_refactorer("pmgard_hb")
        hidden = {("holes", ZERO_MASK_SEGMENT), ("wave", pmgard_signs_segment(1))}
        store = HidingStore(hidden)
        Archive(store).save_dataset(
            {name: refactor_masked(refactorer, data) for name, data in fields.items()}
        )
        fresh = FragmentStore()
        fresh.put_many((v, s, store.get(v, s)) for v, s in store.keys())

        before = store.round_trips
        loaded = Archive(store).load_dataset(list(fields))
        assert store.round_trips - before == 2
        assert all(loaded[v].fragment_source.fetched(s) for v, s in hidden)
        got = decoded(loaded, fields)
        want = decoded(Archive(fresh).load_dataset(list(fields)), fields)
        for name in fields:
            assert np.array_equal(got[name][0], want[name][0])
            assert got[name][1] == want[name][1]

    def test_a_mirror_read_after_a_resave_with_fewer_levels_falls_back(self, monkeypatch):
        # a claim left pending would park each small-segment read this long
        monkeypatch.setattr(FragmentSource, "PENDING_WAIT_SECONDS", 0.2)
        refactorer = make_refactorer("pmgard_hb")
        long = dataset_fields(4000)["wave"]
        short = long[:300].copy()
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(HTTPFragmentServer(FragmentStore()))
            writer = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            Archive(writer).save("wave", refactorer.refactor(long))
            mirror = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            levels = len(indexes_of(mirror, ["wave"])["wave"]["streams"])
            # another client re-saves with fewer levels: the mirror's
            # listing still names sign segments the server no longer holds
            Archive(writer).save("wave", refactorer.refactor(short))
            index = indexes_of(writer, ["wave"])["wave"]
            assert len(index["streams"]) < levels
            assert mirror.has("wave", pmgard_signs_segment(levels - 1))

            archive = Archive(mirror)
            before = mirror.round_trips
            ref = archive.load_dataset(["wave"])["wave"]
            # the refused batch (a trip that served nothing), then the
            # indexes, then the small segments the new index names
            assert mirror.round_trips - before == 3
            assert len(ref.streams) == len(index["streams"])
            source = archive.source("wave")
            assert not source._pending
            assert all(source.fetched(s) for s in _small_segments(index))

    def test_a_mirror_opened_before_a_resave_with_more_levels_answers_within_the_bound(self):
        refactorer = make_refactorer("pmgard_hb")
        long = dataset_fields(4000)["wave"]
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(HTTPFragmentServer(FragmentStore()))
            writer = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            Archive(writer).save("wave", refactorer.refactor(long[:300].copy()))
            mirror = stack.enter_context(HTTPFragmentStore.from_url(server.url))
            Archive(writer).save("wave", refactorer.refactor(long))
            # the mirror's listing predates the finer levels
            assert not mirror.has("wave", "L07_p00")
            assert writer.has("wave", "L07_p00")

            reader = Archive(mirror).load("wave").reader()
            rec = reader.request(1e-4)
            assert float(np.max(np.abs(rec - long))) <= 1e-4
            assert mirror.has("wave", "L07_p00")  # the listing was re-pulled
