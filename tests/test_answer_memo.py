"""The planner's answer memo: shared reader states and QoI verdicts.

* :class:`~repro.compressors.pmgard.PMGARDReader` ``state_after`` /
  ``adopt``: a reader that adopts another reader's reconstruction
  counts the same bytes and bounds, plans the same segments, and
  decodes bit-identically when it later goes beyond the adopted state.
* :class:`~repro.service.planner.QueryPlanner` units: second-touch
  admission, the byte budget, single flight, failures, invalidation.
* Service level: answers on overlapping concurrent fleets, and under a
  live ingest between sessions, are bit-identical to a zero-byte memo
  and within their bounds of the truth; a warm session decodes and
  estimates nothing.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.core.retrieval as retrieval
from repro.compressors.base import make_refactorer
from repro.core.qois import GE_QOIS
from repro.core.retrieval import QoIRequest
from repro.data import generators
from repro.encoding.bitplane import FusedBitplaneDecoder
from repro.service.metrics import render_metrics
from repro.service.planner import ANSWER_SHARE, QueryPlanner
from repro.service.service import RetrievalService
from repro.storage.store import FragmentStore

QOIS = ("VTOT", "T", "Mach")
LADDER = (1e-2, 1e-3, 1e-4)
OVERLAPPING = [
    (1e-2, 1e-3, 1e-4), (1e-2, 1e-3, 1e-4), (5e-3, 1e-4),
    (1e-2, 1e-4), (1e-3, 1e-4), (1e-2, 1e-3, 1e-4),
]


def ladder_field(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(np.linspace(0, 12, n)) + 0.05 * rng.normal(size=n)


# ---------------------------------------------------------------------------
# PMGARDReader.state_after / adopt
# ---------------------------------------------------------------------------


class TestReaderAdopt:
    def test_adopted_state_counts_and_plans_like_the_decoded_one(self):
        ref = make_refactorer("pmgard_hb").refactor(ladder_field())
        decoded, adopted = ref.reader(), ref.reader()
        for eb in (1e-1, 1e-3, 1e-5):
            token = adopted.state_after(eb)
            assert token == decoded.state_after(eb)
            rec = decoded.request(eb)
            assert decoded.plan_token() == token
            adopted.adopt(eb, rec.copy())
            assert adopted.plan_token() == token
            assert adopted.bytes_retrieved == decoded.bytes_retrieved
            assert adopted.current_error_bound == decoded.current_error_bound
            assert adopted.plan_segments(eb / 10) == decoded.plan_segments(eb / 10)
            assert adopted.bound_after(eb / 10) == decoded.bound_after(eb / 10)
        # nothing was decoded for the adopted states
        assert all(d.planes_consumed == 0 for d in adopted._decoders)

    def test_request_beyond_an_adopted_state_decodes_bit_identically(self):
        ref = make_refactorer("pmgard_hb").refactor(ladder_field(seed=1))
        source, reader, fresh = ref.reader(), ref.reader(), ref.reader()
        reader.adopt(1e-2, source.request(1e-2).copy())
        for eb in (1e-2, 1e-4, 1e-6):
            got = reader.request(eb)
            want = fresh.request(eb)
            assert got.tobytes() == want.tobytes()
            assert reader.bytes_retrieved == fresh.bytes_retrieved
            assert reader.current_error_bound == fresh.current_error_bound
        assert reader._consumed() == tuple(d.planes_consumed for d in reader._decoders)

    def test_request_that_stays_put_returns_the_adopted_array(self):
        ref = make_refactorer("pmgard_hb").refactor(ladder_field(seed=2))
        rec = ref.reader().request(1e-3)
        reader = ref.reader()
        adopted = reader.adopt(1e-3, rec.copy())
        assert reader.request(1e-3) is adopted
        assert reader.request(1e-2) is adopted  # looser: nothing moves

    def test_readers_without_shared_states_say_so(self):
        ref = make_refactorer("psz3").refactor(ladder_field())
        reader = ref.reader()
        assert reader.state_after(1e-3) is None
        with pytest.raises(NotImplementedError):
            reader.adopt(1e-3, np.zeros(3))


# ---------------------------------------------------------------------------
# QueryPlanner answer memo units
# ---------------------------------------------------------------------------


class _StateReader:
    """A reader whose state is an integer; ``request(eb)`` moves it to
    ``round(1 / eb)`` and returns a constant array of that value."""

    def __init__(self, gate=None, fail=False):
        self.state = 0
        self.decodes = 0
        self.adopted = 0
        self.gate = gate
        self.fail = fail

    def plan_token(self):
        return ("stub", self.state)

    def _target(self, eb):
        return max(self.state, round(1 / eb))

    def state_after(self, eb):
        return ("stub", self._target(eb))

    def request(self, eb):
        if self.gate is not None:
            self.gate.wait(5)
        if self.fail:
            raise OSError("store down")
        self.decodes += 1
        self.state = self._target(eb)
        return np.full(4, float(self.state))

    def adopt(self, eb, reconstruction):
        self.adopted += 1
        self.state = self._target(eb)
        return reconstruction


def ask(planner, reader, variable, eb):
    """What a session asks: the request, keyed on where it leads."""
    return planner.request(reader, (variable, 0, reader.state_after(eb)), eb)


def _waiting_in(thread, function):
    """True when *thread* waits on an event that *function* itself called."""
    frame = sys._current_frames().get(thread.ident)
    if frame is None or frame.f_code.co_name != "wait":
        return False
    while frame is not None and frame.f_code.co_name == "wait":
        frame = frame.f_back  # Condition.wait under Event.wait
    return frame is not None and frame.f_code.co_name == function


class TestAnswerMemo:
    def test_second_computation_is_kept_and_the_third_shared(self):
        planner = QueryPlanner()
        readers = [_StateReader() for _ in range(3)]
        results = [ask(planner, r, "v", 0.1) for r in readers]
        assert [r.decodes for r in readers] == [1, 1, 0]
        assert readers[2].adopted == 1 and readers[2].state == 10
        assert all(np.array_equal(out, np.full(4, 10.0)) for out in results)
        assert planner.stats().states_shared == 1
        # the adopter owns its array: writing it leaves the memo intact
        results[2][:] = -1.0
        assert np.array_equal(ask(planner, _StateReader(), "v", 0.1), np.full(4, 10.0))

    def test_zero_bytes_never_shares(self):
        planner = QueryPlanner(answer_bytes=0)
        readers = [_StateReader() for _ in range(3)]
        for reader in readers:
            ask(planner, reader, "v", 0.1)
        assert [r.decodes for r in readers] == [1, 1, 1]
        assert planner.stats().states_shared == 0
        assert planner.verdict(("q",), ("v",), lambda: (1.0, np.arange(2))) == (
            1.0, pytest.approx(np.arange(2))
        )

    def test_unmoved_request_bypasses_the_memo(self):
        planner = QueryPlanner()
        reader = _StateReader()
        reader.state = 10  # already where request(0.1) leads
        ask(planner, reader, "v", 0.1)
        assert reader.decodes == 1
        assert planner._answers_seen == {} and planner._answers == {}

    def test_byte_budget_evicts_least_recent(self):
        planner = QueryPlanner(answer_bytes=64)  # two 32-byte states
        for eb in (0.1, 0.05, 0.025):
            for _ in range(2):  # computed twice: kept
                ask(planner, _StateReader(), "v", eb)
        assert planner._answers_held == 64
        assert [key[3][1] for key in planner._answers] == [20, 40]
        reader = _StateReader()
        ask(planner, reader, "v", 0.1)
        assert reader.decodes == 1  # evicted

    def test_concurrent_misses_decode_once(self):
        planner = QueryPlanner()
        gate = threading.Event()
        readers = [_StateReader(gate=gate) for _ in range(4)]
        threads = [
            threading.Thread(target=ask, args=(planner, r, "v", 0.1))
            for r in readers
        ]
        for thread in threads:
            thread.start()
        # one thread computes behind the gate; the other three must be
        # waiting on its flight before it may finish
        deadline = time.monotonic() + 5
        while sum(_waiting_in(thread, "_answer") for thread in threads) < 3:
            assert time.monotonic() < deadline, "waiters never joined the flight"
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert sum(r.decodes for r in readers) == 1
        assert sum(r.adopted for r in readers) == 3
        assert all(r.state == 10 for r in readers)
        assert planner.stats().states_shared == 3

    def test_stress_keeps_the_byte_ledger_exact(self):
        # more threads than cores, a tiny switch interval, a budget that
        # forces evictions: a lost update would break the ledger or
        # hand a reader the wrong state's array
        planner = QueryPlanner(answer_bytes=5 * 32)
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    variable = "vw"[int(rng.integers(2))]
                    eb = 1.0 / int(rng.integers(1, 12))
                    reader = _StateReader()
                    got = ask(planner, reader, variable, eb)
                    assert np.array_equal(got, np.full(4, float(round(1 / eb))))
                    if rng.random() < 0.02:
                        planner.invalidate(variable)
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        held = sum(nbytes for _, nbytes, _ in planner._answers.values())
        assert planner._answers_held == held <= planner.answer_bytes
        assert not planner._answer_flights
        assert planner.stats().states_shared > 0

    def test_failed_computation_leaves_nothing_in_flight(self):
        planner = QueryPlanner()
        with pytest.raises(OSError):
            ask(planner, _StateReader(fail=True), "v", 0.1)
        assert not planner._answer_flights
        reader = _StateReader()
        ask(planner, reader, "v", 0.1)
        assert reader.decodes == 1

    def test_invalidate_drops_states_and_verdicts_of_that_variable(self):
        planner = QueryPlanner()
        calls = []

        def estimate():
            calls.append(1)
            return 0.5, np.arange(8)

        for _ in range(2):
            ask(planner, _StateReader(), "v", 0.1)
            ask(planner, _StateReader(), "w", 0.1)
            planner.verdict(("q", "v"), ("v", "w"), estimate)
            planner.verdict(("q", "w"), ("w",), estimate)
        assert len(calls) == 4
        value, points = planner.verdict(("q", "v"), ("v", "w"), estimate)
        assert len(calls) == 4 and value == 0.5
        assert not points.flags.writeable
        planner.invalidate("v")
        v_reader, w_reader = _StateReader(), _StateReader()
        ask(planner, v_reader, "v", 0.1)
        ask(planner, w_reader, "w", 0.1)
        assert (v_reader.decodes, w_reader.decodes) == (1, 0)
        planner.verdict(("q", "v"), ("v", "w"), estimate)
        planner.verdict(("q", "w"), ("w",), estimate)
        assert len(calls) == 5  # only the verdict that read "v" was recomputed
        held = sum(nbytes for _, nbytes, _ in planner._answers.values())
        assert planner._answers_held == held


# ---------------------------------------------------------------------------
# Service level: bit-identical to a zero-byte memo, true to the data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ge_archive():
    data = generators.ge_cfd(num_nodes=3000, seed=7)
    store = FragmentStore()
    service = RetrievalService(store)
    service.ingest(data)
    service.close()
    return data, store


def copy_of(store):
    copy = FragmentStore()
    for variable, segment in store.keys():
        copy.put(variable, segment, store.get(variable, segment))
    return copy


def make_service(store, memo=True):
    service = RetrievalService(copy_of(store))
    if not memo:
        service.planner.answer_bytes = 0
    return service


def requests_for(data, tolerance):
    out = []
    for name in QOIS:
        qoi = GE_QOIS[name]
        truth = qoi.value({k: (v, 0.0) for k, v in data.items()})
        out.append(QoIRequest(name, qoi, tolerance, float(np.ptp(truth))))
    return out


def answer(result):
    return (
        {k: v.tobytes() for k, v in result.data.items()},
        dict(result.estimated_errors), result.total_bytes, result.rounds,
    )


def check_truth(data, result, tolerance):
    assert result.all_satisfied
    for name in QOIS:
        qoi = GE_QOIS[name]
        truth = qoi.value({k: (v, 0.0) for k, v in data.items()})
        got = qoi.value({k: (v, 0.0) for k, v in result.data.items()})
        bound = result.estimated_errors[name]
        assert np.max(np.abs(got - truth)) <= bound
        assert bound <= tolerance * float(np.ptp(truth))


def run_fleet(service, data, ladders):
    outs, errors = {}, []
    barrier = threading.Barrier(len(ladders))

    def work(index):
        try:
            with service.open_session(f"client-{index}") as session:
                barrier.wait()
                for tolerance in ladders[index]:
                    result = session.retrieve(requests_for(data, tolerance))
                    outs[(index, tolerance)] = (answer(result), result)
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ladders))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return outs


class TestServiceAnswers:
    def test_overlapping_fleet_is_bit_identical_to_a_zero_byte_memo(self, ge_archive):
        data, store = ge_archive
        shared, plain = make_service(store), make_service(store, memo=False)
        try:
            # two fleets back to back: the second runs on a warm memo
            for _ in range(2):
                got = run_fleet(shared, data, OVERLAPPING)
                want = run_fleet(plain, data, OVERLAPPING)
                assert {k: v[0] for k, v in got.items()} == {
                    k: v[0] for k, v in want.items()
                }
                for (_, tolerance), (_, result) in got.items():
                    check_truth(data, result, tolerance)
            stats = shared.stats().planner
            assert stats.states_shared > 0 and stats.verdicts_shared > 0
            assert plain.stats().planner.states_shared == 0
            text = render_metrics(shared.stats())
            assert f"repro_planner_states_shared {stats.states_shared}" in text
        finally:
            shared.close()
            plain.close()

    def test_warm_session_decodes_and_estimates_nothing(self, ge_archive, monkeypatch):
        data, store = ge_archive
        service = make_service(store)
        decodes, estimates = [], []
        advance_to, estimate = FusedBitplaneDecoder.advance_to, retrieval._estimate

        def counting_advance(self, planes):
            moved = advance_to(self, planes)
            if moved:
                decodes.append(moved)
            return moved

        def counting_estimate(*args):
            estimates.append(1)
            return estimate(*args)

        monkeypatch.setattr(FusedBitplaneDecoder, "advance_to", counting_advance)
        monkeypatch.setattr(retrieval, "_estimate", counting_estimate)
        answers = []
        try:
            for _ in range(3):  # computed, computed and kept, shared
                decodes.clear()
                estimates.clear()
                with service.open_session() as session:
                    answers.append([
                        answer(session.retrieve(requests_for(data, t))) for t in LADDER
                    ])
            assert answers[0] == answers[1] == answers[2]
            assert decodes == [] and estimates == []
        finally:
            service.close()

    def test_regions_never_share_a_verdict(self, ge_archive):
        data, store = ge_archive
        n = data["velocity_x"].size
        halves = (np.arange(n) < n // 2, np.arange(n) >= n // 2)
        runs = []
        for memo in (True, False):
            service = make_service(store, memo=memo)
            try:
                out = []
                for session_index in range(6):  # alternate regions on one memo
                    region = halves[session_index % 2]
                    with service.open_session() as session:
                        for t in LADDER[:2]:
                            result = session.retrieve([
                                QoIRequest(r.name, r.qoi, r.tolerance, r.qoi_range, region)
                                for r in requests_for(data, t)
                            ])
                            assert result.all_satisfied
                            out.append(answer(result))
                if memo:
                    assert service.stats().planner.verdicts_shared > 0
                runs.append(out)
            finally:
                service.close()
        assert runs[0] == runs[1]

    def test_live_ingest_between_sessions_matches_a_zero_byte_memo(self, ge_archive):
        data, store = ge_archive
        replaced = dict(data, velocity_y=data["velocity_y"] * 1.5 + 2.0)
        replaced["velocity_y"][data["velocity_y"] == 0.0] = 0.0  # walls stay walls
        runs = []
        for memo in (True, False):
            service = make_service(store, memo=memo)
            try:
                out = []
                with service.open_session() as held:
                    for _ in range(2):  # fill the memo on the old data
                        with service.open_session() as session:
                            for t in LADDER[:2]:
                                out.append(answer(session.retrieve(requests_for(data, t))))
                    out.append(answer(held.retrieve(requests_for(data, LADDER[0]))))
                    service.ingest({"velocity_y": replaced["velocity_y"]})
                    # the held session re-resolves the replaced variable
                    result = held.retrieve(requests_for(replaced, LADDER[1]))
                    check_truth(replaced, result, LADDER[1])
                    out.append(answer(result))
                for _ in range(3):
                    with service.open_session() as session:
                        for t in LADDER:
                            result = session.retrieve(requests_for(replaced, t))
                            check_truth(replaced, result, t)
                            out.append(answer(result))
                if memo:
                    # nothing decoded at the old generation survives
                    keys = [k for k in service.planner._answers if k[0] == "state"]
                    assert keys
                    assert all(k[2] == 1 for k in keys if k[1] == "velocity_y")
                    assert service.stats().planner.states_shared > 0
                runs.append(out)
            finally:
                service.close()
        assert runs[0] == runs[1]


def test_service_carves_the_memo_out_of_its_cache_budget(ge_archive):
    _, store = ge_archive
    budget = 64 << 20
    service = RetrievalService(copy_of(store), cache_bytes=budget)
    assert service.planner.answer_bytes == budget // ANSWER_SHARE
    assert service.cache.capacity_bytes + service.planner.answer_bytes == budget
    service.close()
