"""A round's fetch under a store fault, checked against ground truth.

Two client sessions of one :class:`RetrievalService` ask for disjoint
variables on concurrent threads.  Each session fetches its own rounds
inline, so the one ``get_many`` that fails carries one session's round:

* with no retry, that session raises the store's error, every segment
  the failed call asked for is claimable again, and the other session's
  answer still holds;
* behind :class:`ResilientStore` with a retry, both answers hold the
  paper's promise against the original data:
  ``true error <= reported bound <= tolerance``.

Either way, no retrieve starts a fetch-pool or scheduler thread.
"""

import threading

import numpy as np
import pytest

from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest
from repro.service.service import RetrievalService
from repro.storage.resilience import FaultStoreError, ResilientStore, RetryPolicy
from repro.storage.store import FragmentStore, StoreWrapper
from test_service import archive_into, make_fields

TOLERANCE = 1e-4
#: Each session's QoI reads its own three variables.
QOIS = {
    "A": total_velocity("velocity_x", "velocity_y", "velocity_z"),
    "B": total_velocity("wind_x", "wind_y", "wind_z"),
}


class FailOnceStore(StoreWrapper):
    """Fails its first ``get_many`` once armed; records who read it.

    ``failed_keys`` are the keys of the failed call, and ``threads`` the
    names of every thread alive at any ``get_many``.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = False
        self.failed_keys: list = []
        self.threads: set = set()
        self._lock = threading.Lock()

    def get_many(self, keys):
        keys = list(keys)
        with self._lock:
            self.threads.update(t.name for t in threading.enumerate())
            fail, self.armed = self.armed, False
            if fail:
                self.failed_keys = keys
        if fail:
            raise FaultStoreError("injected: one round's get_many fails once")
        return super().get_many(keys)


@pytest.fixture(scope="module")
def archived():
    fields = make_fields()
    wind = make_fields(seed=1)
    fields.update({name.replace("velocity", "wind"): data for name, data in wind.items()})
    store = FragmentStore()
    archive_into(store, fields)
    truths = {
        name: qoi.value({v: (fields[v], 0.0) for v in qoi.variables()})
        for name, qoi in QOIS.items()
    }
    return fields, store, truths


def _two_sessions_one_failing_fetch(archived, retry: bool):
    """Run sessions A and B concurrently; the first round fetch fails once.

    Returns ``(service, faulty, results, errors)``; the service is open.
    """
    fields, store, truths = archived
    faulty = FailOnceStore(store)
    backing = faulty
    if retry:
        backing = ResilientStore(faulty, retry=RetryPolicy(attempts=3, base_delay=0.001))
    service = RetrievalService(backing)
    service.load_variables(list(fields))  # the opens are not under test
    results, errors = {}, {}

    def run(name):
        qoi = QOIS[name]
        request = QoIRequest(name, qoi, TOLERANCE, float(np.ptp(truths[name])))
        try:
            with service.open_session(name) as session:
                results[name] = session.retrieve([request])
        except Exception as exc:
            errors[name] = exc

    faulty.armed = True
    clients = [threading.Thread(target=run, args=(name,)) for name in QOIS]
    for client in clients:
        client.start()
    for client in clients:
        client.join(30)
        assert not client.is_alive()
    assert faulty.failed_keys, "no get_many failed"
    return service, faulty, results, errors


def _assert_truth(truths, name, result):
    qoi = QOIS[name]
    reconstructed = qoi.value({v: (result.data[v], 0.0) for v in qoi.variables()})
    true_error = float(np.max(np.abs(reconstructed - truths[name])))
    bound = result.estimated_errors[name]
    assert result.all_satisfied and not result.degraded
    assert true_error <= bound <= TOLERANCE * float(np.ptp(truths[name]))


def _fetch_threads(names):
    return [n for n in names if n.startswith(("repro-fetch", "repro-scheduler"))]


class TestRoundFetchFaults:
    def test_without_retry_the_failed_session_raises_and_claims_are_released(self, archived):
        truths = archived[2]
        service, faulty, results, errors = _two_sessions_one_failing_fetch(archived, retry=False)
        try:
            # the failed call was one session's round: it raises, the other answers
            (failed,) = errors
            assert isinstance(errors[failed], FaultStoreError)
            assert {var for var, _ in faulty.failed_keys} <= QOIS[failed].variables()
            (answered,) = results
            assert answered != failed
            _assert_truth(truths, answered, results[answered])
            by_variable: dict = {}
            for var, seg in faulty.failed_keys:
                by_variable.setdefault(var, []).append(seg)
            for var, segments in by_variable.items():
                assert service.archive.source(var).missing(segments) == segments
            assert not _fetch_threads(faulty.threads)
        finally:
            service.close()

    def test_with_retry_both_answers_hold_against_ground_truth(self, archived):
        truths = archived[2]
        service, faulty, results, errors = _two_sessions_one_failing_fetch(archived, retry=True)
        try:
            assert not errors
            assert set(results) == set(QOIS)
            for name, result in results.items():
                _assert_truth(truths, name, result)
            assert service.stats().resilience.retries == 1  # the one fault, retried
            assert not _fetch_threads(faulty.threads)
        finally:
            service.close()
