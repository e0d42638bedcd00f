"""Span recorder of the traced run, and the ledger built from its spans.

The traced run wraps *public* callables of the program from here — the
program itself carries no instrumentation — and keeps every span in
memory until the run ends.  A span is ``(id, name, start, end, parent,
op_id, thread)``; spans on fetch and server threads carry the ``op_id``
of the operation that submitted them:

* work handed to a ``ThreadPoolExecutor`` inherits the submitting
  thread's open span (fetch pool, ingest pool, cluster fan-out);
* a socket handler thread inherits the open span of the thread that
  dialled its connection.  Both wire clients of the program keep one
  connection per thread and wait for each reply, so that thread's open
  span is the request being served.

Untraced runs install none of this.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import socket
import socketserver
import threading
from collections import defaultdict
from time import perf_counter

# span record fields
ID, NAME, START, END, PARENT, OP, THREAD = range(7)

#: Ledger rows, by span-name prefix (first match wins).
LAYERS = ("service", "core", "compressors", "storage")

#: Spans in which the thread only waits on other threads.  Their time is
#: charged to whatever span of the same op runs elsewhere meanwhile, and
#: the uncovered remainder to the row named here.
WAITS = {
    "core.pipeline.wait": "io_wait",
    "core.pipeline.close": "io_wait",
    "service.scheduler.fetch": "io_wait",
    "service.client.retrieve": "service",
    "core.ingest.ingest": "core",
}

_SECTION_SPANS = {
    "estimate": "core.estimators.estimate",
    "assign": "core.assigner.assign",
    "speculate": "core.pipeline.speculate",
}


class Tracer:
    """In-memory span sink with per-thread open-span stacks."""

    def __init__(self):
        self.spans: list = []
        #: Sums handed to ``Stopwatch.add`` (durations without an interval).
        self.sums: dict = defaultdict(float)
        self._sums_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict = {}  # thread ident -> that thread's stack
        self._dialled: dict = {}  # local port -> ident of the dialling thread
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _context(self) -> tuple:
        """``(parent id, op id)`` a span opened now on this thread gets."""
        stack = self._stack()
        if stack:
            return stack[-1][ID], stack[-1][OP]
        inherited = getattr(self._local, "inherited", None)
        if inherited is not None:
            return inherited
        peer = self._stacks.get(getattr(self._local, "peer", None))
        if peer:
            return peer[-1][ID], peer[-1][OP]
        return None, None

    def start(self, name: str, op_id=None) -> list:
        parent, op = self._context()
        span = [next(self._ids), name, perf_counter(), None, parent,
                op if op_id is None else op_id, threading.get_ident()]
        self._stack().append(span)
        return span

    def finish(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def reset(self) -> None:
        """Forget what was recorded so far (called when the clock starts)."""
        self.spans = []
        self.sums = defaultdict(float)

    # -- wrappers -------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        had = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, had))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named *name* around every call of ``owner.attr``."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = self.start(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.finish(span)

            return traced

        self._replace(owner, attr, make)

    def install(self) -> None:
        """Wrap the program's public callables; undone by :meth:`uninstall`."""
        from repro.compressors.pmgard import PMGARDReader, PMGARDRefactorer
        from repro.core.ingest import IngestPipeline
        from repro.core.pipeline import FetchPipeline
        from repro.core.retrieval import RetrievalSession
        from repro.service.planner import FetchScheduler, QueryPlanner
        from repro.service.server import ServiceClient
        from repro.service.service import ClientSession, RetrievalService
        from repro.storage.archive import Archive
        from repro.storage.cache import CachingFragmentStore
        from repro.storage.cluster import ClusterFragmentStore
        from repro.storage.metadata import DatasetManifest
        from repro.storage.remote import HTTPFragmentStore
        from repro.storage.store import FragmentStore, ShardedDiskStore
        from repro.storage.tiered import TieredStore
        from repro.utils.timing import Stopwatch

        for owner, attr, name in (
            (ServiceClient, "retrieve", "service.client.retrieve"),
            (ClientSession, "retrieve", "service.session.retrieve"),
            (RetrievalService, "ingest", "service.ingest"),
            (QueryPlanner, "load", "service.planner.load"),
            (QueryPlanner, "plan_segments", "service.planner.plan"),
            (QueryPlanner, "seed_bounds", "service.planner.seed"),
            (FetchScheduler, "fetch", "service.scheduler.fetch"),
            (FetchScheduler, "fetch_speculative", "service.scheduler.fetch"),
            (RetrievalSession, "retrieve", "core.retrieval.retrieve"),
            (FetchPipeline, "submit_round", "core.pipeline.submit"),
            (FetchPipeline, "close", "core.pipeline.close"),
            (IngestPipeline, "ingest", "core.ingest.ingest"),
            (PMGARDReader, "request", "compressors.decode"),
            (PMGARDReader, "plan_segments", "compressors.plan"),
            (PMGARDRefactorer, "refactor", "compressors.refactor"),
            (Archive, "load", "storage.archive.open"),
            (DatasetManifest, "save_to", "storage.metadata.save"),
        ):
            self.wrap(owner, attr, name)
        for owner, layer in (
            (CachingFragmentStore, "cache"),
            (TieredStore, "tiered"),
            (ClusterFragmentStore, "cluster"),
            (HTTPFragmentStore, "remote"),
            (ShardedDiskStore, "disk"),
            (FragmentStore, "base"),
        ):
            for attr in ("get", "get_many", "put", "put_many", "transact", "delete"):
                if attr in vars(owner):
                    self.wrap(owner, attr, f"storage.{layer}.{attr}")
        self._replace(FetchPipeline, "iter_groups", self._traced_iter_groups)
        self._replace(Stopwatch, "section", self._traced_section)
        self._replace(Stopwatch, "add", self._traced_add)
        self._replace(concurrent.futures.ThreadPoolExecutor, "submit", self._traced_submit)
        self._replace(socket, "create_connection", self._traced_dial)
        self._replace(socketserver.StreamRequestHandler, "setup", self._traced_accept)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _traced_iter_groups(self, original):
        tracer = self

        @functools.wraps(original)
        def iter_groups(pipeline, groups):
            inner = original(pipeline, groups)
            while True:
                span = tracer.start("core.pipeline.wait")
                try:
                    keys = next(inner, None)
                finally:
                    tracer.finish(span)
                if keys is None:
                    return
                yield keys

        return iter_groups

    def _traced_section(self, original):
        tracer = self

        class _Section:
            def __init__(self, stopwatch, name):
                self._inner = original(stopwatch, name)
                self._name = _SECTION_SPANS.get(name, f"core.retrieval.{name}")

            def __enter__(self):
                self._span = tracer.start(self._name)
                return self._inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    tracer.finish(self._span)

        return lambda stopwatch, name: _Section(stopwatch, name)

    def _traced_add(self, original):
        @functools.wraps(original)
        def add(stopwatch, name, seconds):
            if self._context()[1] is not None:  # inside a timed op
                with self._sums_lock:
                    self.sums[name] += float(seconds)
            return original(stopwatch, name, seconds)

        return add

    def _traced_submit(self, original):
        tracer = self

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            context = tracer._context()

            def run():
                tracer._local.inherited = context
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._local.inherited = None

            return original(pool, run)

        return submit

    def _traced_dial(self, original):
        @functools.wraps(original)
        def create_connection(*args, **kwargs):
            sock = original(*args, **kwargs)
            self._stack()  # registers this thread's stack
            self._dialled[sock.getsockname()[1]] = threading.get_ident()
            return sock

        return create_connection

    def _traced_accept(self, original):
        @functools.wraps(original)
        def setup(handler):
            self._local.peer = self._dialled.get(handler.client_address[1])
            return original(handler)

        return setup


# -- reading spans ------------------------------------------------------------


def total(spans, name: str) -> float:
    """Summed duration of the spans called *name* that belong to a timed op."""
    return sum(
        s[END] - s[START] for s in spans if s[NAME] == name and s[OP] is not None
    )


def _row(name: str) -> str | None:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return None


def ledger(spans) -> dict:
    """Charge every instant of every op to exactly one row.

    For each root span named ``op`` the interval is walked down the span
    tree of the requesting thread: a span keeps the time none of its
    children cover (its self time), siblings that overlap are charged
    once (to the earlier one).  Inside a :data:`WAITS` span the children
    are the same op's spans on *other* threads.  Rows are the
    :data:`LAYERS`, ``io_wait``, and ``unattributed`` (op time under no
    span of a layer); they sum to the ops' total duration, ``ops_s``.
    """
    by_id = {span[ID]: span for span in spans}
    by_parent = defaultdict(list)
    heads = defaultdict(list)  # op id -> spans that are outermost on their thread
    for span in spans:
        by_parent[span[PARENT]].append(span)
        parent = by_id.get(span[PARENT])
        if span[OP] is not None and (parent is None or parent[THREAD] != span[THREAD]):
            heads[span[OP]].append(span)
    rows = defaultdict(float)

    def charge(span, lo, hi, threads):
        name = span[NAME]
        children = [c for c in by_parent.get(span[ID], ()) if c[THREAD] == span[THREAD]]
        if name in WAITS:
            children = children + [
                s for s in heads.get(span[OP], ()) if s[THREAD] not in threads
            ]
        row = WAITS.get(name) or _row(name) or "unattributed"
        cursor = lo
        for child in sorted(children, key=lambda c: c[START]):
            start, end = max(child[START], cursor), min(child[END], hi)
            if end <= start:
                continue
            rows[row] += start - cursor
            charge(child, start, end, threads | {child[THREAD]})
            cursor = end
        rows[row] += max(0.0, hi - cursor)

    ops_s = 0.0
    for span in spans:
        if span[NAME] == "op":
            ops_s += span[END] - span[START]
            charge(span, span[START], span[END], {span[THREAD]})
    rows["ops_s"] = ops_s
    return dict(rows)
