"""Failure injection: crashes, torn writes, and corrupted payloads.

Two layers of guarantee under test:

* **Crash atomicity** (the WAL of :mod:`repro.storage.wal`): a process
  killed at *any* point of the commit protocol — during staging,
  between the commit record and publishing, inside a delete, inside
  compaction — leaves a store that reopens **bit-identical** to the
  state before or after the interrupted batch, never a torn mix.  The
  hypothesis suites replay randomized crash schedules (hundreds of
  distinct kill sites per run) through raw ``put_many``/``delete``
  scripts, ``Archive.save``, the streaming ingest engine (a first
  ingest and a re-ingest that supersedes segments), and compaction, on
  both disk layouts, and byte-compare every reopened
  store against the set of legal states.
* **Loud corruption** (the historical suite, kept at the bottom):
  payloads damaged below the store — truncated, bit-flipped, short-read
  — must raise from the decode layers, never silently return wrong
  data.

The crash harness lives in ``tests/fault_store.py``; see
``docs/durability.md`` for the protocol being exercised.
"""

import contextlib
import http.client
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fault_store import (
    CrashSchedule,
    FaultyFragmentStore,
    SimulatedCrash,
    crash_everywhere,
    inject,
)
from repro.compressors.base import make_refactorer
from repro.compressors.sz3 import SZ3Blob, SZ3Compressor
from repro.core.ingest import ingest_dataset
from repro.core.retrieval import refactor_dataset
from repro.encoding.bitplane import BitplaneDecoder, BitplaneEncoder, CorruptSegmentError
from repro.encoding.bytecodec import encode_ints
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lossless import get_backend
from repro.storage.archive import Archive
from repro.storage.remote import HTTPFragmentServer, HTTPFragmentStore
from repro.storage.store import DiskFragmentStore, ShardedDiskStore
from test_storage_store import read_tree

# Both persistent layouts recover through the same WAL protocol but
# with different reindex paths (flat root scan vs sharded shard walk);
# every crash property runs on each.
LAYOUTS = [
    ("flat", DiskFragmentStore),
    ("sharded", lambda root: ShardedDiskStore(root, fanout=8)),
]

_key = st.tuples(
    st.sampled_from(["va", "vb", "vc"]), st.sampled_from(["s0", "s1", "s2", "s3"])
)
_payload = st.binary(min_size=0, max_size=48)
_batch = st.dictionaries(_key, _payload, min_size=1, max_size=5)


def _contents(store) -> dict:
    """Bit-exact observable state: every indexed key and its payload."""
    return {key: store.get(*key) for key in store.keys()}


def _put_batch(store, batch: dict) -> None:
    store.put_many([(v, s, p) for (v, s), p in batch.items()])


def _payload_files(root) -> dict:
    """Every payload file under *root* (packs and parent-format files)."""
    return {rel: data for rel, data in read_tree(root).items() if rel.endswith((".pack", ".bin"))}


@st.composite
def _crash_script(draw):
    """An initial state, a mutation script, and a crash site.

    The script mixes batched puts (fresh keys and overwrites) with
    deletes of currently-live keys; ``kill_at`` indexes the WAL kill
    point to die at (it may exceed the schedule, in which case the
    script completes — the no-crash control case).
    """
    initial = draw(st.dictionaries(_key, _payload, max_size=6))
    ops = []
    model = dict(initial)
    for _ in range(draw(st.integers(1, 4))):
        if model and draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(sorted(model)))
            ops.append(("delete", key))
            del model[key]
        else:
            batch = draw(_batch)
            ops.append(("put_many", batch))
            model.update(batch)
    return initial, ops, draw(st.integers(0, 40))


class TestCrashAtomicStoreOps:
    """put_many/delete scripts killed at randomized WAL points."""

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(script=_crash_script())
    def test_reopened_store_is_bit_identical_to_a_legal_state(
        self, tmp_path_factory, layout, make, script
    ):
        initial, ops, kill_at = script
        root = str(tmp_path_factory.mktemp(f"crash-{layout}"))
        store = make(root)
        if initial:
            _put_batch(store, initial)

        # every state at an operation boundary is legal post-crash
        states = [dict(initial)]
        model = dict(initial)
        for kind, arg in ops:
            if kind == "put_many":
                model.update(arg)
            else:
                del model[arg]
            states.append(dict(model))

        done = 0
        crashed = False
        with inject(CrashSchedule(kill_at=kill_at)):
            try:
                for kind, arg in ops:
                    if kind == "put_many":
                        _put_batch(store, arg)
                    else:
                        store.delete(*arg)
                    done += 1
            except SimulatedCrash:
                crashed = True

        reopened = make(root)
        got = _contents(reopened)
        if crashed:
            # the in-flight operation resolved to exactly before or after
            assert got in (states[done], states[done + 1]), (
                f"{layout}: crash at {kill_at} left a torn state "
                f"after {done} completed op(s)"
            )
        else:
            assert got == states[-1], f"{layout}: completed script diverged"
        # the index agrees with the payloads byte-for-byte
        assert reopened.nbytes() == sum(len(p) for p in got.values())
        reopened.close()

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    def test_every_kill_point_of_a_mixed_script_recovers(
        self, tmp_path, layout, make
    ):
        """Deterministic sweep: die at each reachable kill point once."""
        runs = []

        def make_operation():
            root = str(tmp_path / f"sweep{len(runs)}")
            runs.append(root)

            def operation():
                store = make(root)
                _put_batch(store, {("v", "s0"): b"a", ("v", "s1"): b"bb"})
                _put_batch(store, {("v", "s0"): b"A" * 9, ("w", "s0"): b"c"})
                store.delete("v", "s1")
                store.compact()

            return operation

        kill_sites = crash_everywhere(make_operation)
        assert kill_sites >= 10  # stage/commit/publish/tombstone/compact...
        for root in runs[1:]:  # runs[0] traced without a kill
            reopened = make(root)
            got = _contents(reopened)
            legal = [
                {},
                {("v", "s0"): b"a", ("v", "s1"): b"bb"},
                {("v", "s0"): b"A" * 9, ("v", "s1"): b"bb", ("w", "s0"): b"c"},
                {("v", "s0"): b"A" * 9, ("w", "s0"): b"c"},
            ]
            assert got in legal, f"{layout}: torn state in {root}"
            reopened.close()


class TestTornLogTail:
    """A torn final commit record is discarded; earlier state survives."""

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        first=_batch,
        second=st.dictionaries(
            st.tuples(st.just("torn"), st.sampled_from(["t0", "t1", "t2"])),
            st.binary(min_size=1, max_size=32),
            min_size=1,
            max_size=3,
        ),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_truncated_final_record_recovers_prior_state(
        self, tmp_path_factory, layout, make, first, second, cut
    ):
        root = str(tmp_path_factory.mktemp(f"torn-{layout}"))
        store = make(root)
        _put_batch(store, first)
        before = _contents(store)
        _put_batch(store, second)  # disjoint keys: "torn"/* never collide
        log_path = store._log.path
        store.close()

        # tear the final record: keep a strict prefix of its bytes
        raw = open(log_path, "rb").read()
        head = raw[: raw.rstrip(b"\n").rfind(b"\n") + 1]
        last = raw[len(head):]
        keep = min(int(cut * len(last)), len(last) - 2)  # never a whole line
        with open(log_path, "wb") as fh:
            fh.write(head + last[: max(0, keep)])

        # on disk: one pack per batch, each exactly its payloads in order
        first_pack, torn_pack = b"".join(first.values()), b"".join(second.values())
        assert sorted(_payload_files(root).values()) == sorted([first_pack, torn_pack])

        reopened = make(root)
        assert _contents(reopened) == before, f"{layout}: torn tail leaked"
        # the torn txn never committed: the reopen discarded its pack
        assert list(_payload_files(root).values()) == [first_pack]
        assert reopened.durability().dead_bytes == 0
        report = reopened.compact()
        assert (report.removed_files, report.reclaimed_bytes) == (0, 0)
        assert _contents(reopened) == before
        reopened.close()

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    def test_corruption_before_the_final_line_raises(self, tmp_path, layout, make):
        root = str(tmp_path / "mid")
        store = make(root)
        _put_batch(store, {("v", "s0"): b"x", ("v", "s1"): b"y"})
        _put_batch(store, {("v", "s2"): b"z"})
        log_path = store._log.path
        store.close()
        lines = open(log_path, "rb").read().splitlines(keepends=True)
        lines[0] = b"garbage that is not json\n"  # mid-file damage, not a torn tail
        with open(log_path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="corrupt"):
            make(root)


class TestCrashAtomicArchiveSave:
    """Archive.save is one transaction: old version or new, never a mix."""

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kill_at=st.integers(0, 60))
    def test_resaved_variable_is_old_or_new_bit_identical(
        self, tmp_path_factory, layout, make, kill_at
    ):
        base = tmp_path_factory.mktemp(f"save-{layout}")
        old = refactor_dataset(
            {"v": _field(6, seed=1)}, make_refactorer("pmgard_hb")
        )["v"]
        new = refactor_dataset(
            {"v": _field(6, seed=2)}, make_refactorer("pmgard_hb", num_planes=12)
        )["v"]

        # the two legal outcomes, computed on a twin directory
        twin = make(str(base / "twin"))
        Archive(twin).save("v", old)
        state_old = _contents(twin)
        Archive(twin).save("v", new)
        state_new = _contents(twin)
        twin.close()
        assert state_old != state_new

        root = str(base / "main")
        store = make(root)
        Archive(store).save("v", old)
        crashed = False
        with inject(CrashSchedule(kill_at=kill_at)):
            try:
                Archive(store).save("v", new)
            except SimulatedCrash:
                crashed = True

        reopened = make(root)
        got = _contents(reopened)
        if crashed:
            assert got in (state_old, state_new), (
                f"{layout}: crash at {kill_at} tore the archived variable"
            )
        else:
            assert got == state_new
        # whichever version survived must still decode end to end
        survivor = old if got == state_old else new
        loaded = Archive(reopened).load("v")
        assert loaded.total_bytes == survivor.total_bytes
        _assert_within_reported_bound(loaded, _field(6, seed=1 if survivor is old else 2))
        reopened.close()


def _field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*([np.linspace(0, np.pi, n)] * 3), indexing="ij")
    return sum(np.sin(a) for a in axes) + 0.1 * rng.standard_normal((n, n, n))


#: A bound below any representation's reach: the reader decodes all it has.
TIGHTEST = 1e-300


def _assert_within_reported_bound(refactored, data) -> None:
    """Decode through the (lazy) reader at the tightest bound: the
    original field lies within the bound the reader reports."""
    reader = refactored.reader()
    rec = reader.request(TIGHTEST)
    assert float(np.max(np.abs(rec - data))) <= reader.current_error_bound


class TestCrashAtomicIngest:
    """A killed streaming ingest leaves whole variables or nothing."""

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kill_at=st.integers(0, 80))
    def test_each_variable_fully_present_or_fully_absent(
        self, tmp_path_factory, layout, make, kill_at
    ):
        base = tmp_path_factory.mktemp(f"ingest-{layout}")
        fields = {f"v{k}": _field(5, seed=k) for k in range(3)}
        refactorer = make_refactorer("pmgard_hb")

        # reference: the same deterministic ingest run to completion
        twin = make(str(base / "twin"))
        ingest_dataset(twin, fields, refactorer, workers=0, flush_bytes=1)
        reference = _contents(twin)
        by_var = {}
        for key, payload in reference.items():
            by_var.setdefault(key[0], {})[key] = payload
        twin.close()
        assert set(by_var) == set(fields)

        root = str(base / "main")
        store = make(root)
        crashed = False
        with inject(CrashSchedule(kill_at=kill_at)):
            try:
                ingest_dataset(store, fields, refactorer, workers=0, flush_bytes=1)
            except SimulatedCrash:
                crashed = True

        reopened = make(root)
        got = _contents(reopened)
        for name, group in by_var.items():
            mine = {k: p for k, p in got.items() if k[0] == name}
            assert mine in ({}, group), (
                f"{layout}: crash at {kill_at} tore variable {name!r}"
            )
        if not crashed:
            assert got == reference
        assert not set(got) - set(reference), "unexpected keys after recovery"
        reopened.close()


class TestCrashAtomicReingest:
    """A killed re-ingest that supersedes segments tears no variable.

    The re-ingest writes fewer planes per level, so every flush also
    tombstones the old representation's surplus planes; each variable's
    tombstones commit with its new fragments, so a kill anywhere leaves
    each variable bit-identical to its old or its new state.  The
    ``http`` axis re-ingests through an HTTP client into a sharded
    store behind an in-process server: the kill lands in the server,
    which stays dead, so the client's one re-dial of the dropped
    request cannot finish the commit either.
    """

    @pytest.mark.parametrize("layout,make", [*LAYOUTS, ("http", LAYOUTS[1][1])])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kill_at=st.integers(0, 120))
    def test_each_variable_is_old_or_new_bit_identical(
        self, tmp_path_factory, layout, make, kill_at
    ):
        base = tmp_path_factory.mktemp(f"reingest-{layout}")
        fields = {f"v{k}": _field(5, seed=k) for k in range(3)}
        old = make_refactorer("pmgard_hb")
        new = make_refactorer("pmgard_hb", num_planes=12)

        def by_var(store) -> dict:
            out = {name: {} for name in fields}
            for key, payload in _contents(store).items():
                out[key[0]][key] = payload
            return out

        # the two legal states of every variable, from a twin directory
        twin = make(str(base / "twin"))
        ingest_dataset(twin, fields, old, workers=0, flush_bytes=1)
        state_old = by_var(twin)
        report = ingest_dataset(twin, fields, new, workers=0, flush_bytes=1)
        state_new = by_var(twin)
        twin.close()
        assert report.superseded > 0
        assert all(state_old[name] != state_new[name] for name in fields)

        root = str(base / "main")
        store = make(root)
        ingest_dataset(store, fields, old, workers=0, flush_bytes=1)
        schedule = CrashSchedule(kill_at=kill_at)
        with contextlib.ExitStack() as stack:
            if layout == "http":
                server = stack.enter_context(HTTPFragmentServer(store))
                store = stack.enter_context(HTTPFragmentStore(*server.address))
            with inject(schedule):
                try:
                    ingest_dataset(store, fields, new, workers=0, flush_bytes=1)
                except (SimulatedCrash, ConnectionError, http.client.HTTPException):
                    if len(schedule.trace) <= kill_at:
                        raise  # no kill fired: a real failure
        crashed = len(schedule.trace) > kill_at

        reopened = make(root)
        got = by_var(reopened)
        for name in fields:
            assert got[name] in (state_old[name], state_new[name]), (
                f"{layout}: crash at {kill_at} tore variable {name!r}"
            )
            _assert_within_reported_bound(Archive(reopened).load(name), fields[name])
        if not crashed:
            assert got == state_new
        reopened.close()


class TestCrashAtomicCompaction:
    """Compaction killed anywhere never changes the visible state."""

    @pytest.mark.parametrize("layout,make", LAYOUTS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        fragments=st.dictionaries(_key, _payload, min_size=2, max_size=8),
        data=st.data(),
        kill_at=st.integers(0, 40),
    )
    def test_live_state_survives_and_rerun_reclaims(
        self, tmp_path_factory, layout, make, fragments, data, kill_at
    ):
        root = str(tmp_path_factory.mktemp(f"compact-{layout}"))
        store = make(root)
        _put_batch(store, fragments)
        doomed = data.draw(
            st.lists(
                st.sampled_from(sorted(fragments)),
                unique=True,
                min_size=1,
                max_size=len(fragments),
            )
        )
        for key in doomed:
            store.delete(*key)
        live = _contents(store)
        assert set(live) == set(fragments) - set(doomed)

        with inject(CrashSchedule(kill_at=kill_at)):
            try:
                store.compact()
            except SimulatedCrash:
                pass

        reopened = make(root)
        assert _contents(reopened) == live, (
            f"{layout}: compaction crash at {kill_at} disturbed live data"
        )
        reopened.compact()  # re-running finishes the reclaim
        assert _contents(reopened) == live
        assert reopened.durability().dead_bytes == 0
        # every dead byte is gone from disk: one pack holds exactly the
        # live payloads, in index order
        expected = [b"".join(live[key] for key in reopened.keys())] if live else []
        assert list(_payload_files(root).values()) == expected
        reopened.close()


class TestFaultyStoreBudget:
    """Client-side faults (tests/fault_store.py) against higher layers."""

    def test_fail_after_budget_aborts_cleanly(self, tmp_path):
        inner = DiskFragmentStore(str(tmp_path / "ar"))
        store = FaultyFragmentStore(inner, fail_after=2)
        store.put("v", "s0", b"a")
        store.put("v", "s1", b"b")
        with pytest.raises(SimulatedCrash):
            store.put("v", "s2", b"c")
        # the aborted put never reached the inner store
        reopened = DiskFragmentStore(str(tmp_path / "ar"))
        assert set(reopened.keys()) == {("v", "s0"), ("v", "s1")}

    def test_torn_batched_write_commits_a_prefix(self, tmp_path):
        inner = DiskFragmentStore(str(tmp_path / "ar"))
        store = FaultyFragmentStore(inner, fail_after=0, torn_writes=True)
        batch = [("v", f"s{i}", bytes([i]) * 4) for i in range(4)]
        with pytest.raises(SimulatedCrash):
            store.put_many(batch)
        # the inner store committed the torn prefix atomically: the
        # reopened index and the bytes on disk agree exactly
        reopened = DiskFragmentStore(str(tmp_path / "ar"))
        got = _contents(reopened)
        assert got == {("v", f"s{i}"): bytes([i]) * 4 for i in range(2)}

    def test_ingest_through_failing_store_leaves_whole_variables(self, tmp_path):
        fields = {f"v{k}": _field(5, seed=k) for k in range(3)}
        inner = DiskFragmentStore(str(tmp_path / "ar"))
        store = FaultyFragmentStore(inner, fail_after=2)
        with pytest.raises(SimulatedCrash):
            ingest_dataset(
                store, fields, make_refactorer("pmgard_hb"),
                workers=0, flush_bytes=1,
            )
        reopened = DiskFragmentStore(str(tmp_path / "ar"))
        present = {key[0] for key in reopened.keys()}
        for name in present:  # whatever landed is complete and decodes
            _assert_within_reported_bound(Archive(reopened).load(name), fields[name])

    def test_short_reads_fail_loudly_through_the_archive(self, tmp_path):
        inner = DiskFragmentStore(str(tmp_path / "ar"))
        refactored = refactor_dataset(
            {"v": _field(6, seed=3)}, make_refactorer("pmgard_hb")
        )
        Archive(inner).save("v", refactored["v"])
        maimed = FaultyFragmentStore(inner, short_reads=7)
        with pytest.raises(Exception):
            Archive(maimed).load("v").reader().request(TIGHTEST)


class TestCorruptedStreams:
    def test_sz3_truncated_payload(self):
        comp = SZ3Compressor()
        blob = comp.compress(np.sin(np.linspace(0, 6, 500)), 1e-4)
        with pytest.raises(Exception):
            comp.decompress(SZ3Blob(blob.payload[: len(blob.payload) // 2]))

    def test_sz3_flipped_magic(self):
        comp = SZ3Compressor()
        blob = comp.compress(np.sin(np.linspace(0, 6, 100)), 1e-3)
        corrupted = b"ZZZZ" + blob.payload[4:]
        with pytest.raises(ValueError, match="magic"):
            comp.decompress(SZ3Blob(corrupted))

    def test_bitplane_corrupted_plane(self):
        stream = BitplaneEncoder(num_planes=16).encode(np.linspace(-1, 1, 64))
        # bad marker byte or bad compressed body -> the one typed error
        stream.plane_segments[0] = b"not zlib data"
        with pytest.raises(CorruptSegmentError, match="plane 0.*segment marker"):
            BitplaneDecoder(stream).advance_to(4)
        stream.plane_segments[0] = b"\x01not zlib data"
        with pytest.raises(CorruptSegmentError, match="plane 0"):
            BitplaneDecoder(stream).advance_to(4)

    def test_huffman_truncated(self):
        codec = HuffmanCodec()
        payload = codec.encode(np.arange(100, dtype=np.int64) % 7)
        with pytest.raises(Exception):
            codec.decode(payload[: len(payload) - 10])

    def test_int_stream_escape_corruption(self):
        payload = bytearray(encode_ints(np.array([300, 1, 2], dtype=np.int64)))
        # truncate the escape stream
        with pytest.raises(Exception):
            from repro.encoding.bytecodec import decode_ints

            decode_ints(bytes(payload[:-2]))

    def test_lossless_backend_garbage(self):
        backend = get_backend("zlib")
        with pytest.raises(zlib.error):
            backend.decompress_bytes(b"garbage")


class TestGracefulDomainHandling:
    def test_quantizer_huge_values_exact(self):
        """Values beyond the code range take the exact outlier path."""
        from repro.encoding.quantizer import LinearQuantizer

        q = LinearQuantizer(max_code=10)
        data = np.array([1e300, -1e300, 0.0])
        field = q.quantize(data, 1e-6)
        rec = q.dequantize(field)
        np.testing.assert_array_equal(rec[:2], data[:2])

    def test_sz3_with_denormal_values(self):
        comp = SZ3Compressor()
        data = np.full(64, 5e-324)
        rec = comp.decompress(comp.compress(data, 1e-300))
        assert np.max(np.abs(rec - data)) <= 1e-300

    def test_bitplane_mixed_magnitudes(self):
        """Groups mixing huge and tiny magnitudes stay bounded."""
        coeffs = np.array([1e12, 1e-12, -1e6, 0.0])
        enc = BitplaneEncoder(num_planes=40)
        stream = enc.encode(coeffs)
        dec = BitplaneDecoder(stream)
        dec.advance_to(20)
        rec = dec.reconstruct()
        assert np.max(np.abs(rec - coeffs)) <= stream.error_bound(20) * (1 + 1e-12)
