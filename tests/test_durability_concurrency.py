"""Concurrency stress: writers, readers, and compaction sharing a store.

The WAL's locking discipline promises that concurrent mutators never
lose a committed put, readers never observe torn bytes, and compaction
can run *while* ingest and retrieval are in flight without disturbing
either.  These tests hammer those promises with real threads:

* batched writers + deleters + a compaction loop on the disk store,
  with the final state (and a full reopen) checked bit-for-bit against
  the model;
* a live streaming ingest racing retrieval and compaction through a
  :class:`RetrievalService`;
* concurrent overwrites and deletes of the same keys through a tiered
  store — without the ``_mutate_lock`` serialization the two tiers end
  up holding different payloads for one key, or only one tier keeps it;
* the replay of a reopen, over random put / overwrite / delete /
  compact / reopen schedules: a reopened handle's tables equal the
  writer's and those of a replay that takes every entry through
  ``_place`` / ``_unplace``.

Failures here are race conditions: rerun counts are kept high enough
to make the windows real but runtimes stay a few seconds per test.
"""

import functools
import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest
from repro.service.service import RetrievalService
from repro.storage.store import FragmentStore, ShardedDiskStore
from repro.storage.tiered import TieredStore

# a small fan-out, and fan-out 1: every pack in one shard directory
LAYOUTS = [
    ("sharded", lambda root: ShardedDiskStore(root, fanout=8)),
    ("one-shard", lambda root: ShardedDiskStore(root, fanout=1)),
]


def _run_threads(workers) -> None:
    """Start, join, and re-raise the first failure of worker callables."""
    failures = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # propagate to the test thread
                failures.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "worker deadlocked"
    if failures:
        raise failures[0]


class TestConcurrentStoreMutation:
    @pytest.mark.parametrize("layout,make", LAYOUTS)
    def test_no_lost_puts_under_writers_deleters_and_compaction(
        self, tmp_path, layout, make
    ):
        """Every committed put survives; deletes and compaction interleave."""
        root = str(tmp_path / "ar")
        store = make(root)
        writers, rounds, kept = 4, 12, 8

        def writer(w):
            def run():
                for r in range(rounds):
                    # each round: a batch of this writer's keys, then
                    # delete the older generation beyond the keep window
                    batch = [
                        (f"w{w}", f"s{r}_{i}", bytes([w, r, i]) * (i + 1))
                        for i in range(3)
                    ]
                    store.put_many(batch)
                    if r >= kept:
                        for i in range(3):
                            store.delete(f"w{w}", f"s{r - kept}_{i}")

            return run

        def reader():
            for _ in range(60):
                for key in store.keys()[:20]:
                    try:
                        payload = store.get(*key)
                    except KeyError:
                        continue  # deleted between keys() and get()
                    # committed payloads are never torn: the byte
                    # pattern encodes its own key
                    if key[0].startswith("w") and payload:
                        w, r, i = payload[0], payload[1], payload[2]
                        assert key == (f"w{w}", f"s{r}_{i}"), "torn read"

        def compactor():
            for _ in range(10):
                store.compact()

        _run_threads([writer(w) for w in range(writers)] + [reader, compactor])

        expected = {}
        for w in range(writers):
            for r in range(rounds - kept, rounds):
                for i in range(3):
                    expected[(f"w{w}", f"s{r}_{i}")] = bytes([w, r, i]) * (i + 1)
        got = {key: store.get(*key) for key in store.keys()}
        assert got == expected, f"{layout}: lost or torn puts"

        # a reopened handle recovers the identical state, and a final
        # compaction reclaims every tombstoned byte
        store.close()
        reopened = make(root)
        assert {k: reopened.get(*k) for k in reopened.keys()} == expected
        reopened.compact()
        assert reopened.durability().dead_bytes == 0
        reopened.close()


class TestConcurrentServiceIngest:
    def test_ingest_retrieval_and_compaction_share_one_service(self, tmp_path):
        """Live ingest + QoI retrieval + compaction, zero cross-talk."""
        rng = np.random.default_rng(7)
        base = {f"v{k}": rng.standard_normal((8, 8, 8)) for k in range(2)}
        service = RetrievalService.open(str(tmp_path / "ar"))
        service.ingest(base)

        live = {}

        def ingester():
            # the last two steps replace timesteps 0 and 1: dead bytes to reclaim
            for step in range(6):
                live[step % 4] = rng.standard_normal((8, 8, 8))
                service.ingest({"live": live[step % 4]}, timestep=step % 4)

        def retriever():
            for _ in range(4):
                with service.open_session() as session:
                    result = session.retrieve(
                        [
                            QoIRequest(
                                "identity",
                                qoi_from_spec("identity", ["v0"]),
                                5e-3,
                                float(np.ptp(base["v0"])),
                            )
                        ]
                    )
                    assert result.all_satisfied

        def compactor():
            for _ in range(6):
                service.compact()

        _run_threads([ingester, retriever, compactor])
        service.compact()  # whatever the compactor's passes left dead

        # a pass with nothing dead does nothing and is not counted
        durability = service.stats().durability
        assert 1 <= durability.compactions <= 7
        assert durability.dead_bytes == 0 and durability.reclaimed_bytes > 0
        # every ingested timestep is whole: decoded at the tightest bound,
        # the original lies within the bound the reader reports
        assert sorted(live) == [0, 1, 2, 3]
        for step, data in live.items():
            reader = service.archive.load(f"live@t{step:04d}").reader()
            rec = reader.request(1e-300)
            assert float(np.max(np.abs(rec - data))) <= reader.current_error_bound
        service.close()


class TestTieredMutationLock:
    def test_tiers_agree_after_concurrent_overwrites_and_deletes(self):
        """Writers overwrite and delete the same keys through ``transact``.

        Every transaction lands on the fast tier, then the slow tier.
        Two unserialized writers of one key can land in opposite orders
        per tier, and a delete can slip between a put's two halves; the
        mutation lock makes each transaction whole on both tiers, so
        after every round each key is on both tiers with one payload or
        on neither.
        """
        store = TieredStore(FragmentStore(), FragmentStore())
        keys = [("v", "s0"), ("v", "s1")]
        writers, rounds = 4, 150
        split = []

        def check():  # runs once per round, while every writer waits
            for key in keys:
                fast, slow = store.fast.has(*key), store.slow.has(*key)
                if fast != slow or slow != store.has(*key):
                    split.append(f"{key}: on one tier only")
                elif fast and store.fast.get(*key) != store.slow.get(*key):
                    split.append(f"{key}: tiers disagree")

        barrier = threading.Barrier(writers, action=check)

        def work(seed):
            rng = np.random.default_rng(seed)
            for step in range(rounds):
                for key in keys:
                    if rng.random() < 0.25:
                        try:
                            store.transact((), [key])
                        except KeyError:
                            pass  # another writer deleted it first
                    else:
                        store.transact([(*key, bytes([seed, step % 251]) * 16)])
                barrier.wait(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings inside every transact
        try:
            _run_threads([functools.partial(work, w) for w in range(writers)])
        finally:
            sys.setswitchinterval(interval)
        assert not split, split[:5]

    def test_reads_racing_overwrites_serve_only_written_payloads(self, tmp_path):
        """Readers of disk tiers never see a torn or unwritten payload.

        Writers overwrite the same keys while readers fetch them in
        batches; every payload a reader gets must be one some writer put,
        whether the fast tier served it or a failed fast read fell back
        to the slow tier.
        """
        store = TieredStore(
            ShardedDiskStore(str(tmp_path / "fast")),
            ShardedDiskStore(str(tmp_path / "slow"), fanout=8),
        )
        keys = [("v", f"s{i}") for i in range(4)]
        writers, rounds = 2, 60

        def payload(key, seed, step):
            return bytes([int(key[1][1:]), seed, step % 251]) * 24

        store.put_many([(*key, payload(key, 0, 0)) for key in keys])
        written = {key: {payload(key, 0, 0)} for key in keys}
        for key in keys:
            for seed in range(writers):
                written[key].update(payload(key, seed, step) for step in range(rounds))
        finished = []

        def write(seed):
            try:
                for step in range(rounds):
                    store.transact([(*key, payload(key, seed, step)) for key in keys])
            finally:
                finished.append(seed)

        def read():
            while len(finished) < writers:
                for key, got in store.get_many(keys).items():
                    assert got in written[key], f"{key}: unwritten payload {got[:6]!r}"

        _run_threads(
            [functools.partial(write, w) for w in range(writers)] + [read, read]
        )
        assert store.fast.get_many(keys) == store.slow.get_many(keys)
        store.close()


class _PerEntryReplay:
    """The reference replay: every log entry through ``_place`` / ``_unplace``."""

    def _replay(self) -> None:
        for _, entries in self._log.replay():
            for entry in entries:
                key = (entry["variable"], entry["segment"])
                if entry.get("deleted"):
                    if key in self._index:
                        self._unplace(key)
                    continue
                self._place(key, entry["path"], entry["offset"], entry["nbytes"])


class _ReferenceStore(_PerEntryReplay, ShardedDiskStore):
    pass


TABLES = ("_index", "_sizes", "_live", "_dead", "_var_bytes", "_var_segments", "_total_bytes")
REPLAY_KEYS = [(v, s) for v in ("a", "b") for s in ("s0", "s1")]

STORE_OP = st.one_of(
    st.tuples(
        st.just("transact"),
        st.lists(st.tuples(st.sampled_from(REPLAY_KEYS), st.integers(0, 12)), max_size=4),
        st.lists(st.sampled_from(REPLAY_KEYS), max_size=2),
    ),
    st.just(("compact",)),
    st.just(("reopen",)),
)


def _tables(store) -> dict:
    return {name: getattr(store, name) for name in TABLES}


def _make(root):
    return ShardedDiskStore(root, fanout=8)


class TestReplayEquivalence:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(STORE_OP, max_size=14))
    # a pack wholly dead before the compaction that unlinks it, and a
    # reopen of the compacted log
    @example(
        ops=[
            ("transact", [(("a", "s0"), 3), (("a", "s1"), 2)], []),
            ("transact", [(("a", "s0"), 5)], [("a", "s1")]),
            ("reopen",),
            ("compact",),
        ],
    )
    def test_reopen_tables_equal_the_writer_and_a_per_entry_replay(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "ar")
            writer = _make(root)
            assert _tables(writer) == _tables(_ReferenceStore(root, fanout=8))
            for step, (kind, *args) in enumerate(ops + [("reopen",)]):
                if kind == "transact":
                    puts = [(*key, bytes([step]) * size) for key, size in args[0]]
                    written = {key for key, _ in args[0]}
                    doomed = {k for k in args[1] if writer.has(*k) and k not in written}
                    writer.transact(puts, sorted(doomed))
                elif kind == "compact":
                    writer.compact()
                else:
                    reopened = _make(root)
                    assert _tables(reopened) == _tables(writer)
                    assert _tables(_ReferenceStore(root, fanout=8)) == _tables(writer)
                    writer.close()
                    writer = reopened
            writer.close()
