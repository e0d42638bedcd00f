"""The scheduler's fetch tick under a store fault, checked against ground truth.

Two client sessions of one :class:`RetrievalService` ask for disjoint
variables, and their first rounds are held in the scheduler's queue
until both wait there, so one tick merges them into a single
``get_many``.  That ``get_many`` fails once:

* with no retry, each session raises the store's error, and every
  segment the failed call asked for is claimable again;
* behind :class:`ResilientStore` with a retry, both answers hold the
  paper's promise against the original data:
  ``true error <= reported bound <= tolerance``.

Either way, no retrieve starts a ``repro-fetch`` pool thread: with the
scheduler as its round sink, a session fetches inline.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest
from repro.service.service import RetrievalService
from repro.storage.archive import FragmentSource
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

    def get_many(self, keys):
        keys = list(keys)
        self.threads.update(t.name for t in threading.enumerate())
        if self.armed:
            self.armed = False
            self.failed_keys = keys
            raise FaultStoreError("injected: the tick's get_many fails once")
        return super().get_many(keys)


class GateStore(FragmentStore):
    """Blocks every ``get_many`` until :attr:`release` is set."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def get_many(self, keys):
        self.entered.set()
        self.release.wait(10)
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


def _two_sessions_one_failing_tick(archived, retry: bool):
    """Run sessions A and B through one merged tick whose fetch fails once.

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

    # occupy the scheduler with a gated tick so both first rounds queue
    gate = GateStore()
    gate.put("gate", "s", b"x")
    blocker = threading.Thread(
        target=service.scheduler.fetch, args=([(FragmentSource(gate, "gate"), ["s"])],)
    )
    blocker.start()
    assert gate.entered.wait(5)
    faulty.armed = True
    clients = [threading.Thread(target=run, args=(name,)) for name in QOIS]
    for client in clients:
        client.start()
    deadline = time.monotonic() + 10
    while len(service.scheduler._queue) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(service.scheduler._queue) == 2
    gate.release.set()
    for thread in [blocker, *clients]:
        thread.join(30)
    # the failed get_many was the merged tick: it carried both sessions' rounds
    assert {var for var, _ in faulty.failed_keys} == set(fields)
    return service, faulty, results, errors


class TestUnifiedTickFaults:
    def test_without_retry_each_session_raises_and_claims_are_released(self, archived):
        service, faulty, results, errors = _two_sessions_one_failing_tick(archived, retry=False)
        try:
            assert not results
            assert set(errors) == set(QOIS)
            for exc in errors.values():
                assert isinstance(exc, FaultStoreError)
            by_variable: dict = {}
            for var, seg in faulty.failed_keys:
                by_variable.setdefault(var, []).append(seg)
            for var, segments in by_variable.items():
                assert service.archive.source(var).missing(segments) == segments
            assert service.stats().planner.coalesced_round_trips == 1  # the gate's tick
            assert not [t for t in faulty.threads if t.startswith("repro-fetch")]
        finally:
            service.close()

    def test_with_retry_both_answers_hold_against_ground_truth(self, archived):
        truths = archived[2]
        service, faulty, results, errors = _two_sessions_one_failing_tick(archived, retry=True)
        try:
            assert not errors
            assert set(results) == set(QOIS)
            for name, result in results.items():
                qoi = QOIS[name]
                reconstructed = qoi.value({v: (result.data[v], 0.0) for v in qoi.variables()})
                true_error = float(np.max(np.abs(reconstructed - truths[name])))
                bound = result.estimated_errors[name]
                assert result.all_satisfied and not result.degraded
                assert true_error <= bound <= TOLERANCE * float(np.ptp(truths[name]))
            assert service.stats().resilience.retries == 1  # the one fault, retried
            assert not [t for t in faulty.threads if t.startswith("repro-fetch")]
        finally:
            service.close()
