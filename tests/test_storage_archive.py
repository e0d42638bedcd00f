"""Round-trip tests for the fragment-addressable archive layer."""

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.storage.archive import Archive
from repro.storage.store import DiskFragmentStore, FragmentStore, open_directory_store

METHODS = ["psz3", "psz3_delta", "pmgard", "pmgard_hb"]


def field(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.linspace(0, 15, n)) * 50 + rng.normal(size=n)


@pytest.mark.parametrize("method", METHODS)
class TestRoundTrip:
    def test_reader_equivalence(self, method):
        data = field()
        original = make_refactorer(method).refactor(data)
        archive = Archive(FragmentStore())
        archive.save("v", original)
        restored = archive.load("v")

        r1, r2 = original.reader(), restored.reader()
        for eb in (1e-1, 1e-3, 1e-5):
            rec1 = r1.request(eb)
            rec2 = r2.request(eb)
            np.testing.assert_array_equal(rec1, rec2)
            assert r1.bytes_retrieved == r2.bytes_retrieved
            assert r1.current_error_bound == r2.current_error_bound

    def test_total_bytes_preserved(self, method):
        data = field(seed=1)
        original = make_refactorer(method).refactor(data)
        archive = Archive(FragmentStore())
        archive.save("v", original)
        assert archive.load("v").total_bytes == original.total_bytes


class TestFragmentLayout:
    def test_pmgard_fragments_individually_addressable(self):
        data = field(seed=2)
        refactored = make_refactorer("pmgard_hb").refactor(data)
        store = FragmentStore()
        Archive(store).save("v", refactored)
        segs = store.segments("v")
        assert "coarse" in segs
        assert any(s.startswith("L00_p") for s in segs)
        assert any(s.endswith("_signs") for s in segs)
        # one fragment per plane: partial retrieval = partial read
        n_planes = sum(
            s.num_planes for s in refactored.streams if s.exponent is not None
        )
        assert sum(1 for s in segs if "_p" in s) == n_planes

    def test_snapshot_fragments(self):
        data = field(seed=3)
        refactored = make_refactorer("psz3").refactor(data)
        store = FragmentStore()
        Archive(store).save("v", refactored)
        segs = store.segments("v")
        assert sum(1 for s in segs if s.startswith("snapshot_")) == len(refactored.blobs)
        assert "lossless" in segs

    def test_on_disk_archive(self, tmp_path):
        data = field(seed=4)
        refactored = make_refactorer("pmgard_hb").refactor(data)
        store = DiskFragmentStore(str(tmp_path / "archive"))
        archive = Archive(store)
        archive.save("pressure", refactored)
        restored = archive.load("pressure")
        rec = restored.reader().request(1e-4)
        assert np.max(np.abs(rec - data)) <= 1e-4


class TestBulkHelpers:
    def test_save_load_dataset(self):
        fields = {"a": field(seed=5), "b": field(seed=6)}
        refactored = {k: make_refactorer("pmgard_hb").refactor(v) for k, v in fields.items()}
        archive = Archive(FragmentStore())
        archive.save_dataset(refactored)
        assert sorted(archive.variables()) == ["a", "b"]
        restored = archive.load_dataset(["a", "b"])
        for name in fields:
            rec = restored[name].reader().request(1e-5)
            assert np.max(np.abs(rec - fields[name])) <= 1e-5

    def test_unknown_kind_rejected(self):
        archive = Archive(FragmentStore())
        with pytest.raises(TypeError):
            archive.save("v", object())

    def test_corrupt_index(self):
        store = FragmentStore()
        store.put("v", "_index.json", b'{"kind": "martian"}')
        with pytest.raises(ValueError, match="unknown archive kind"):
            Archive(store).load("v")


@pytest.fixture(params=["memory", "disk"])
def stores(request, tmp_path):
    """``(store, reopen)``: a fresh store to write, and how to open it
    anew — the same object in memory, a second handle on disk that
    replays the directory's commit log before the archive opens."""
    if request.param == "memory":
        store = FragmentStore()
        return store, lambda: store
    root = str(tmp_path / "ar")
    return DiskFragmentStore(root), lambda: open_directory_store(root)


def _index_of(method, store):
    """Save one 32x32 variable into *store*; its index as a dict."""
    import json

    rng = np.random.default_rng(0)
    Archive(store).save("v", make_refactorer(method).refactor(rng.normal(size=(32, 32))))
    return json.loads(store.get("v", "_index.json"))


def _last_stream(key, value):
    return lambda index: index["streams"][-1].__setitem__(key, value)


#: ``(method, case, payload or index mutation, offending field)``; a
#: field of None means the segment is not a JSON object at all.
MALFORMED_INDEXES = [
    ("pmgard_hb", "not utf-8", b"\xff\xfe\x00", None),
    ("pmgard_hb", "not json", b"{nope", None),
    ("pmgard_hb", "json list", b"[1, 2]", None),
    ("pmgard_hb", "no kind", lambda index: index.pop("kind"), "kind"),
    ("pmgard_hb", "no streams", lambda index: index.pop("streams"), "streams"),
    ("pmgard_hb", "num_planes x", _last_stream("num_planes", "x"), "streams[3].num_planes"),
    ("pmgard_hb", "num_planes huge", _last_stream("num_planes", 1000), "streams[3].num_planes"),
    ("pmgard_hb", "num_planes negative", _last_stream("num_planes", -3), "streams[3].num_planes"),
    ("pmgard_hb", "stream not object", lambda index: index["streams"].append(7), "streams"),
    ("psz3", "no ebs", lambda index: index.pop("ebs"), "ebs"),
    ("psz3", "num_snapshots x", lambda index: index.__setitem__("num_snapshots", "x"), "num_snapshots"),
    ("psz3", "num_snapshots huge", lambda index: index.__setitem__("num_snapshots", 1000), "num_snapshots"),
]


class TestMalformedIndex:
    """A corrupt ``_index.json`` fails the open with one typed error, in
    memory and from a directory opened anew."""

    @pytest.mark.parametrize(
        "method, case, corrupt, field", MALFORMED_INDEXES,
        ids=[case for _, case, _, _ in MALFORMED_INDEXES],
    )
    def test_raises_archive_index_error(self, method, case, corrupt, field, stores):
        import json

        from repro.storage import ArchiveIndexError

        store, reopen = stores
        index = _index_of(method, store)
        if callable(corrupt):
            corrupt(index)
            corrupt = json.dumps(index).encode()
        store.put("v", "_index.json", corrupt)
        with pytest.raises(ArchiveIndexError) as caught:
            Archive(reopen()).load_dataset(["v"])
        assert isinstance(caught.value, ValueError)
        assert caught.value.variable == "v"
        assert caught.value.field == field
        assert "'v'" in str(caught.value)
        if field is not None:
            assert repr(field) in str(caught.value)

    @pytest.mark.parametrize("method", METHODS)
    def test_valid_indexes_pass(self, method, stores):
        store, reopen = stores
        _index_of(method, store)
        reader = Archive(reopen()).load_dataset(["v"])["v"].reader()
        assert np.isfinite(reader.request(1e-3)).all()


def _first_stream(**fields):
    return lambda index: index["streams"][0].update(fields)


def _zero_level(**fields):
    """Level 0 as a level archived as zero (no planes, no window), plus *fields*."""

    def corrupt(index):
        meta = index["streams"][0]
        del meta["window"]
        meta.update(exponent=None, **fields)

    return corrupt


#: ``(case, index mutation, offending field)`` on a 1-D PMGARD-HB index,
#: whose levels carry the measured coefficient bound (``window``).
MALFORMED_MEASURED = [
    ("window not a list", _first_stream(window="80"), "window"),
    ("window of one item", _first_stream(window=[1]), "window"),
    ("window plane a string", _first_stream(window=["1", "80"]), "window"),
    ("window plane a bool", _first_stream(window=[True, "80"]), "window"),
    ("window bytes not hex", _first_stream(window=[1, "zz"]), "window"),
    ("window at plane 0", _first_stream(window=[0, "80"]), "window"),
    ("window at plane P", _first_stream(window=[48, ""]), "window"),
    ("window too many bytes", _first_stream(window=[1, "80" * 9]), "window"),
    ("window past plane P", _first_stream(window=[44, "80" * 5]), "window"),
    ("window byte 0", _first_stream(window=[1, "8000"]), "window"),
    ("window on a zero level", _first_stream(exponent=None), "window"),
    ("amax a string", _zero_level(amax="x"), "amax"),
    ("amax 0", _zero_level(amax=0.0), "amax"),
    ("amax above the cutoff", _zero_level(amax=1e-300), "amax"),
    ("amax on a level with planes", _first_stream(amax=1e-310), "amax"),
]


class TestMalformedMeasuredBound:
    """The measured-bound fields fail the open like any other index field."""

    @staticmethod
    def _index(store, data):
        import json

        Archive(store).save("v", make_refactorer("pmgard_hb").refactor(data))
        return json.loads(store.get("v", "_index.json"))

    def _assert_fails(self, stores, index, field):
        import json

        from repro.storage import ArchiveIndexError

        store, reopen = stores
        store.put("v", "_index.json", json.dumps(index).encode())
        with pytest.raises(ArchiveIndexError) as caught:
            Archive(reopen()).load_dataset(["v"])
        assert caught.value.variable == "v"
        assert caught.value.field == field
        assert "'v'" in str(caught.value) and repr(field) in str(caught.value)

    @pytest.mark.parametrize(
        "case, corrupt, name", MALFORMED_MEASURED, ids=[c for c, _, _ in MALFORMED_MEASURED]
    )
    def test_raises_archive_index_error(self, case, corrupt, name, stores):
        index = self._index(stores[0], field())
        assert all(isinstance(meta["window"], list) for meta in index["streams"])
        corrupt(index)
        self._assert_fails(stores, index, f"streams[0].{name}")

    def test_window_on_a_2d_variable_raises(self, stores):
        """``kappa`` holds only for ``2**(e - k)`` with more than one axis."""
        index = self._index(stores[0], np.random.default_rng(0).normal(size=(32, 32)))
        assert not any("window" in meta for meta in index["streams"])
        index["streams"][0]["window"] = [1, "80"]
        self._assert_fails(stores, index, "streams[0].window")

    @pytest.mark.parametrize("case", ["windows", "amax", "spread"])
    def test_measured_fields_round_trip(self, case, stores):
        """Windows, and the largest magnitude of levels below ``2**-1000``,
        load back as written: the archived reader reports the same bounds.
        A level holding ``1e30`` beside a subnormal (``spread``) measures
        ratios that underflow before rounding up; the midpoint floor keeps
        its bytes at 128, never the 0 an index refuses."""
        if case == "spread":
            data = np.zeros(3000)
            data[1001], data[2001] = 1e30, 5e-324
        else:
            data = field() * (1.0 if case == "windows" else 2.0**-1040)
        original = make_refactorer("pmgard_hb").refactor(data)
        if case == "windows":
            assert all(s.window is not None for s in original.streams)
        elif case == "amax":
            assert all(s.exponent is None and s.amax > 0.0 for s in original.streams)
        else:
            assert set(original.streams[0].window[1]) == {128}
        store, reopen = stores
        Archive(store).save("v", original)
        restored = Archive(reopen()).load_dataset(["v"])["v"]
        for a, b in zip(original.streams, restored.streams):
            assert (a.window, a.amax) == (b.window, b.amax)
        for k in range(49):
            assert [s.error_bound(k) for s in original.streams] == [
                s.error_bound(k) for s in restored.streams
            ]
