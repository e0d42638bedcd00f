"""Counting store proxy the benchmark puts in front of a backing store.

It is part of both the traced and the untraced run (two clock reads and
a few additions per store call), so the two runs execute the same code.
Several proxies may share one :class:`StoreCounts` — a workload that
opens a fresh store handle per session still gets one total.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.storage.store import FragmentStore


@dataclass
class StoreCounts:
    """What crossed one store boundary, and how long the store was busy."""

    get_trips: int = 0
    get_fragments: int = 0
    get_bytes: int = 0
    get_busy_s: float = 0.0
    put_trips: int = 0
    put_bytes: int = 0
    put_busy_s: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def read(self, fragments: int, nbytes: int, busy: float) -> None:
        with self.lock:
            self.get_trips += 1
            self.get_fragments += fragments
            self.get_bytes += nbytes
            self.get_busy_s += busy

    def wrote(self, nbytes: int, busy: float) -> None:
        with self.lock:
            self.put_trips += 1
            self.put_bytes += nbytes
            self.put_busy_s += busy

    def snapshot(self) -> dict:
        with self.lock:
            return {k: v for k, v in vars(self).items() if k != "lock"}


class StoreProxy(FragmentStore):
    """Forward every :class:`FragmentStore` method to *inner*, counting.

    ``inner`` is exposed under that name so code that walks a store
    chain (``RetrievalService._install_trip_budget``) walks through the
    proxy; ``trip_budget`` is forwarded for the same reason.
    """

    def __init__(self, inner: FragmentStore, counts: StoreCounts):
        super().__init__()
        self.inner = inner
        self.counts = counts

    # -- reads ----------------------------------------------------------------

    def get(self, variable, segment):
        start = perf_counter()
        payload = self.inner.get(variable, segment)
        self.counts.read(1, len(payload), perf_counter() - start)
        return payload

    def get_many(self, keys):
        start = perf_counter()
        out = self.inner.get_many(keys)
        self.counts.read(len(out), sum(len(p) for p in out.values()), perf_counter() - start)
        return out

    # -- writes ---------------------------------------------------------------

    def put(self, variable, segment, payload):
        start = perf_counter()
        self.inner.put(variable, segment, payload)
        self.counts.wrote(len(payload), perf_counter() - start)

    def put_many(self, items):
        batch = list(items)
        start = perf_counter()
        self.inner.put_many(batch)
        self.counts.wrote(sum(len(p) for _, _, p in batch), perf_counter() - start)

    def transact(self, puts, deletes=()):
        batch = list(puts)
        start = perf_counter()
        self.inner.transact(batch, deletes)
        if batch:
            self.counts.wrote(sum(len(p) for _, _, p in batch), perf_counter() - start)

    def delete(self, variable, segment):
        self.inner.delete(variable, segment)

    # -- index, durability, lifecycle -----------------------------------------

    def has(self, variable, segment):
        return self.inner.has(variable, segment)

    def keys(self):
        return self.inner.keys()

    def variables(self):
        return self.inner.variables()

    def segments(self, variable):
        return self.inner.segments(variable)

    def size_of(self, variable, segment):
        return self.inner.size_of(variable, segment)

    def nbytes(self, variable=None):
        return self.inner.nbytes(variable)

    def compact(self):
        return self.inner.compact()

    def durability(self):
        return self.inner.durability()

    def close(self):
        self.inner.close()

    @property
    def trip_budget(self):
        return getattr(self.inner, "trip_budget", None)

    @trip_budget.setter
    def trip_budget(self, budget):
        if hasattr(self.inner, "trip_budget"):
            self.inner.trip_budget = budget


def unforwarded_methods() -> list:
    """Public :class:`FragmentStore` methods the proxy does not override.

    Empty when the proxy is transparent; the benchmark refuses to run
    otherwise (a method added to the store API must be forwarded here).
    """
    return sorted(
        name
        for name, member in vars(FragmentStore).items()
        if callable(member) and not name.startswith("_") and name not in vars(StoreProxy)
    )
