"""Scale-out cluster fabric: one archive namespace over N fragment servers.

Everything below this module scales *within* one process; the cluster
store goes horizontal.  :class:`ClusterFragmentStore` composes N backend
stores — typically :class:`~repro.storage.remote.HTTPFragmentStore`
clients for running :class:`~repro.storage.remote.HTTPFragmentServer`
processes — behind the ordinary
:class:`~repro.storage.store.FragmentStore` interface:

* **Consistent-hash placement.**  A :class:`HashRing` with virtual nodes
  maps every ``(variable, segment)`` key to an ordered owner list; the
  same key always lands on the same nodes and load spreads evenly
  (vnodes smooth the arcs).  Membership is fixed when the store opens.
* **K-way replication.**  ``transact`` (and so every put) writes each
  fragment to its ``replicas`` owners (batched per node, all nodes in
  parallel); a write succeeds as long as every fragment lands on at
  least one owner, counting the under-replicated remainder as
  ``write_failovers``.  Nothing repairs a missed replica write: the key
  stays under-replicated, and a read that reaches the node lacking it
  fails over to a replica that has it — but a missed *overwrite* leaves
  the old payload on that node, which serves it once it is back.
* **Read failover.**  Every backend is wrapped in the PR-8
  :class:`~repro.storage.resilience.ResilientStore` with its own
  :class:`~repro.storage.resilience.CircuitBreaker`; a batched read fans
  out to the owning shards in parallel (one coalesced ``get_many`` per
  live shard, merged in completion order) and a dead or breaker-open
  primary transparently serves from the next replica — counted per node
  as ``failovers``, invisible to the client.  Only when *every* replica
  of a key is unavailable does the read raise a typed
  :class:`~repro.storage.resilience.DegradedError`.

``cluster://host:port,host:port?replicas=2&vnodes=64`` URLs open the
whole fabric through :func:`~repro.storage.store.open_store`; see
``docs/cluster.md`` for the grammar, the placement math, and the chaos
guarantees the test suite enforces.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from urllib.parse import unquote

from repro.storage.resilience import (
    POLICY_KEYS,
    CircuitBreaker,
    CircuitOpenError,
    DegradedError,
    ResilienceStats,
    ResilientStore,
    RetryPolicy,
    is_transient,
)
from repro.storage.store import (
    FragmentStore,
    _parse_store_url,
    open_store,
)
from repro.storage.wal import CompactionReport, DurabilityStats

#: Virtual nodes per physical node: enough to keep the max/min node
#: load ratio tight without making ring rebuilds noticeable.
DEFAULT_VNODES = 64

#: Copies of every fragment (1 = no replication).
DEFAULT_REPLICAS = 2

#: Per-node retry defaults: failover wants to move on quickly, so the
#: per-node budget is small — the replica set is the real redundancy.
DEFAULT_NODE_ATTEMPTS = 2
DEFAULT_RETRY_BASE = 0.02
DEFAULT_RETRY_MAX = 0.25

#: Consecutive transient failures that open a node's breaker, and how
#: long the node is skipped before a probe is allowed through.
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 2.0


def _digest(text: str) -> int:
    """Stable 64-bit ring position of *text* (sha1 prefix, like shards)."""
    return int.from_bytes(hashlib.sha1(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring with virtual nodes over a set of node names.

    Each node contributes ``vnodes`` points on a 64-bit ring; a fragment
    key hashes to a point and its owners are the first ``k`` *distinct*
    nodes clockwise from there.  The construction gives the three
    placement properties the cluster needs (and the property suite
    checks): stability (same key → same owners), balance (max/min node
    load ratio bounded by the vnode smoothing), and minimal movement
    (a ring over one node more or less re-homes only ~1/N of the keys —
    the untouched nodes' arcs do not move).
    """

    def __init__(self, names, vnodes: int = DEFAULT_VNODES):
        self.names = [str(n) for n in names]
        if not self.names:
            raise ValueError("hash ring needs at least one node")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate node names: {sorted(self.names)}")
        self.vnodes = int(vnodes)
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        points = []
        for name in self.names:
            for v in range(self.vnodes):
                points.append((_digest(f"{name}#{v}"), name))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @staticmethod
    def key_point(variable: str, segment: str) -> int:
        """Ring position of one fragment key (the sharded-store digest)."""
        return _digest(f"{variable}\x00{segment}")

    def owners(self, variable: str, segment: str, k: int = 1) -> list:
        """The first *k* distinct node names clockwise of the key's point.

        ``owners()[0]`` is the primary; the rest are the replicas in
        failover order.  *k* is clamped to the node count, so a
        one-node ring with ``replicas=2`` degenerates gracefully.
        """
        k = min(int(k), len(self.names))
        if k < 1:
            raise ValueError("k must be >= 1")
        start = bisect.bisect_right(self._hashes, self.key_point(variable, segment))
        picked: list = []
        seen: set = set()
        count = len(self._points)
        for i in range(count):
            name = self._points[(start + i) % count][1]
            if name not in seen:
                seen.add(name)
                picked.append(name)
                if len(picked) == k:
                    break
        return picked


@dataclass
class NodeStats:
    """Per-node counters of one :class:`ClusterFragmentStore` backend.

    All numeric fields flow into ``/metrics`` as
    ``repro_cluster_per_node_<name>_*`` gauges; ``url`` is the
    human-readable backend address (string, dropped by the exporter).
    """

    #: Backend address (``http://host:port``) or store type name.
    url: str = ""
    #: Batched requests this node served successfully.
    requests: int = 0
    #: Fragments this node served (batch reads count per fragment).
    fragments_served: int = 0
    #: Payload bytes this node served.
    bytes_read: int = 0
    #: Fragments replicated onto this node by writes.
    puts: int = 0
    #: Payload bytes written to this node.
    bytes_written: int = 0
    #: Fragments re-routed *away* from this node because it was dead,
    #: breaker-open, or missing the data (a replica served them).
    failovers: int = 0
    #: Fragments a write could not replicate here (node down mid-put).
    write_failovers: int = 0
    #: 1 while this node's circuit breaker is open/half-open, else 0.
    breaker_is_open: int = 0


@dataclass
class ClusterStats:
    """Aggregate + per-node accounting of one :class:`ClusterFragmentStore`."""

    #: Physical nodes in the cluster.
    nodes: int = 0
    #: Configured replication factor (clamped to the node count at
    #: placement time).
    replicas: int = 0
    #: Virtual nodes per physical node on the placement ring.
    vnodes: int = 0
    #: Total fragments transparently served by a replica after their
    #: primary (or an earlier replica) failed.
    failovers: int = 0
    #: Total fragments that missed one of their replica writes (they
    #: stay under-replicated; nothing repairs them).
    write_failovers: int = 0
    #: ``{node name: NodeStats}`` — per-node counters.
    per_node: dict = field(default_factory=dict)


class _Node:
    """One cluster member: resilience-wrapped store plus its counters."""

    __slots__ = ("name", "store", "stats")

    def __init__(self, name: str, store: FragmentStore, url: str):
        self.name = name
        self.store = store
        self.stats = NodeStats(url=url)

    @property
    def breaker(self):
        return getattr(self.store, "breaker", None)

    def breaker_open(self) -> bool:
        """Whether calls would be rejected fast right now (no probe due)."""
        breaker = self.breaker
        if breaker is None:
            return False
        return breaker.state == CircuitBreaker.OPEN and breaker.retry_after_s() > 0


def _backend_url(store: FragmentStore) -> str:
    """Best-effort display address of a backend store."""
    inner = getattr(store, "inner", store)
    host = getattr(inner, "host", None)
    port = getattr(inner, "port", None)
    if host is not None and port is not None:
        return f"http://{host}:{port}"
    return type(inner).__name__


class ClusterFragmentStore(FragmentStore):
    """One fragment namespace sharded and replicated over N backends.

    Parameters
    ----------
    backends:
        Iterable of :class:`~repro.storage.store.FragmentStore` backends
        or ``(name, store)`` pairs (names default to ``node0``,
        ``node1``, ...; they key the placement ring and the per-node
        stats).  Each backend is wrapped in a
        :class:`~repro.storage.resilience.ResilientStore` with its own
        circuit breaker unless it already is one.
    replicas:
        Copies of every fragment (clamped to the node count at
        placement time, so a one-node cluster still works).
    vnodes:
        Virtual nodes per physical node on the placement ring.
    retry:
        Per-node :class:`~repro.storage.resilience.RetryPolicy`
        (default: two fast attempts — the replica set, not the retry
        budget, is the redundancy).
    breaker_threshold / breaker_cooldown:
        Per-node circuit breaker knobs (``threshold <= 0`` disables the
        breakers).
    max_parallel:
        Upper bound on concurrently in-flight per-node requests.

    The store's own ``reads``/``round_trips``/``puts`` counters record
    *client-visible* traffic (one round trip per ``get_many`` call,
    like the tiered store); the per-shard truth lives in :meth:`stats`.
    """

    def __init__(
        self,
        backends,
        replicas: int = DEFAULT_REPLICAS,
        vnodes: int = DEFAULT_VNODES,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        max_parallel: int = 8,
    ):
        super().__init__()
        if retry is None:
            retry = RetryPolicy(
                attempts=DEFAULT_NODE_ATTEMPTS,
                base_delay=DEFAULT_RETRY_BASE,
                max_delay=DEFAULT_RETRY_MAX,
            )
        self._nodes: list = []
        self._by_name: dict = {}
        for i, entry in enumerate(backends):
            if isinstance(entry, tuple):
                name, store = str(entry[0]), entry[1]
            else:
                name, store = f"node{i}", entry
            if name in self._by_name:
                raise ValueError(f"duplicate cluster node name {name!r}")
            url = _backend_url(store)
            if not isinstance(store, ResilientStore):
                breaker = None
                if breaker_threshold and int(breaker_threshold) > 0:
                    breaker = CircuitBreaker(
                        failure_threshold=int(breaker_threshold),
                        cooldown=float(breaker_cooldown),
                        name=url,
                    )
                store = ResilientStore(store, retry=retry, breaker=breaker)
            node = _Node(name, store, url)
            self._nodes.append(node)
            self._by_name[name] = node
        if not self._nodes:
            raise ValueError("cluster needs at least one backend")
        self.replicas = int(replicas)
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._ring = HashRing([n.name for n in self._nodes], vnodes=vnodes)
        self._cstats = ClusterStats(replicas=self.replicas, vnodes=self._ring.vnodes)
        # serializes client mutations: check, replicate and index record
        # of one transaction never interleave another's
        self._mutate_lock = threading.RLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, min(len(self._nodes) + 2, int(max_parallel))),
            thread_name_prefix="repro-cluster",
        )
        self._reindex()

    # -- URL form --------------------------------------------------------------

    @classmethod
    def from_url(cls, url: str) -> "ClusterFragmentStore":
        """Open from a ``cluster://HOST:PORT,HOST:PORT,...[?...]`` URL.

        The path is a comma-separated node list; bare ``host:port``
        entries open as HTTP fragment clients, and the ``nodes=`` query
        parameter accepts comma-separated (percent-encoded) full store
        URLs for anything else.  Query parameters: ``replicas=`` (copies
        per fragment), ``vnodes=`` (ring smoothing), ``timeout=``
        (seconds, HTTP nodes), plus the per-node resilience knobs
        ``retries``/``retry_base``/``retry_max``/``breaker``/``cooldown``
        (defaults tuned for fast failover; ``breaker=0`` disables the
        per-node breakers).  Any other key raises ``ValueError`` naming
        it.
        """
        path, params = _parse_store_url(
            url, "cluster", {"nodes", "replicas", "vnodes", "timeout", *POLICY_KEYS}
        )
        specs = []
        for part in path.split(","):
            part = part.strip().strip("/")
            if part:
                specs.append(part if "://" in part else f"http://{part}")
        for part in params.get("nodes", "").split(","):
            part = unquote(part.strip())
            if part:
                specs.append(part)
        if not specs:
            raise ValueError(f"cluster:// URL needs at least one node: {url!r}")
        timeout = params.get("timeout")
        stores = []
        for spec in specs:
            if timeout is not None and spec.startswith("http://") and "?" not in spec:
                spec = f"{spec}?timeout={timeout}"
            stores.append(open_store(spec))
        retry = RetryPolicy(
            attempts=int(params.get("retries", DEFAULT_NODE_ATTEMPTS)),
            base_delay=float(params.get("retry_base", DEFAULT_RETRY_BASE)),
            max_delay=float(params.get("retry_max", DEFAULT_RETRY_MAX)),
        )
        return cls(
            stores,
            replicas=int(params.get("replicas", DEFAULT_REPLICAS)),
            vnodes=int(params.get("vnodes", DEFAULT_VNODES)),
            retry=retry,
            breaker_threshold=int(params.get("breaker", DEFAULT_BREAKER_THRESHOLD)),
            breaker_cooldown=float(params.get("cooldown", DEFAULT_BREAKER_COOLDOWN)),
        )

    # -- placement -------------------------------------------------------------

    def nodes(self) -> list:
        """Node names, ring order not implied."""
        return [node.name for node in self._nodes]

    def owners(self, variable: str, segment: str) -> list:
        """Node names that hold a fragment, primary first."""
        return self._ring.owners(variable, segment, self.replicas)

    def _read_plan(self, variable: str, segment: str) -> list:
        """Owner nodes of one fragment in failover order (reads and writes)."""
        return [self._by_name[name] for name in self.owners(variable, segment)]

    def _reindex(self) -> None:
        """Rebuild the union index snapshot from every node's index."""
        with self._stats_lock:
            self._sizes.clear()
            self._var_bytes.clear()
            self._var_segments.clear()
            self._total_bytes = 0
            for node in self._nodes:
                for variable, segment in node.store.keys():
                    self._record_put(
                        variable, segment, node.store.size_of(variable, segment)
                    )

    def refresh(self) -> None:
        """Re-pull every node's index and rebuild the union snapshot."""
        for node in self._nodes:
            refresh = getattr(node.store, "refresh", None)
            if callable(refresh):
                refresh()
        self._reindex()

    # -- reads -----------------------------------------------------------------

    def _count_failover(self, node: _Node, fragments: int) -> None:
        with self._stats_lock:
            node.stats.failovers += fragments
            self._cstats.failovers += fragments

    def _note_served(self, node: _Node, fragments: int, nbytes: int) -> None:
        with self._stats_lock:
            node.stats.requests += 1
            node.stats.fragments_served += fragments
            node.stats.bytes_read += nbytes

    def _fetch(self, keys) -> dict:
        """Fan a key set out to its owning shards, merging as they land.

        One coalesced ``get_many`` per shard per round, all shards in
        parallel, merged in completion order.  A shard failing
        transiently (or fast-rejected by its open breaker, or missing a
        key an earlier replica write missed) re-routes the affected keys
        to each key's next replica; only keys whose *every* candidate
        failed raise — as a typed :class:`DegradedError` naming exactly
        those keys.
        """
        plans = {key: self._read_plan(*key) for key in keys}
        cursor = dict.fromkeys(keys, 0)
        out: dict = {}
        pending = set(keys)
        last_error: Exception | None = None
        while pending:
            groups: dict = {}
            exhausted: list = []
            for key in pending:
                plan, i = plans[key], cursor[key]
                # skip breaker-open candidates without burning an attempt
                while i < len(plan) and plan[i].breaker_open():
                    self._count_failover(plan[i], 1)
                    i += 1
                cursor[key] = i
                if i >= len(plan):
                    exhausted.append(key)
                else:
                    groups.setdefault(plan[i].name, []).append(key)
            if exhausted:
                reason = f"all replicas unavailable: {last_error or 'breakers open'}"
                raise DegradedError(sorted(exhausted), reason=reason)
            futures = {
                self._pool.submit(self._by_name[name].store.get_many, group):
                    (self._by_name[name], group)
                for name, group in groups.items()
            }
            for future in as_completed(futures):
                node, group = futures[future]
                try:
                    served = future.result()
                except KeyError as exc:
                    # the node is live but lacks some keys (an earlier
                    # missed replica write): fail those over, keep the
                    # rest on this node for the next round
                    arg = exc.args[0] if exc.args else None
                    if isinstance(arg, list):
                        gone = {tuple(k) for k in arg}
                    elif isinstance(arg, tuple):
                        gone = {tuple(arg)}
                    else:
                        gone = set(group)
                    if not gone & set(group):
                        gone = set(group)  # unattributable: fail all over
                    for key in group:
                        if key in gone:
                            cursor[key] += 1
                            self._count_failover(node, 1)
                    last_error = exc
                except Exception as exc:
                    if not (is_transient(exc) or isinstance(exc, CircuitOpenError)):
                        raise
                    for key in group:
                        cursor[key] += 1
                    self._count_failover(node, len(group))
                    last_error = exc
                else:
                    out.update(served)
                    self._note_served(
                        node, len(served), sum(len(p) for p in served.values())
                    )
                    pending.difference_update(group)
        return out

    def get_many(self, keys) -> dict:
        """Read a batch: one parallel coalesced round trip per live shard.

        Client-visible accounting matches every other store (one
        ``round_trips`` per call); the per-shard fan-out, per-node
        traffic, and failovers are visible in :meth:`stats`.  Missing
        keys raise ``KeyError`` (listing all of them) before any shard
        is contacted; keys whose every replica is down raise
        :class:`~repro.storage.resilience.DegradedError`.
        """
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        missing = [k for k in keys if k not in self._sizes]
        if missing:
            raise KeyError(missing)
        fetched = self._fetch(keys)
        out = {k: fetched[k] for k in keys}
        self._count_reads(out)
        return out

    # -- writes ----------------------------------------------------------------

    def _replicate(self, batch, deletes=()) -> None:
        """Write each fragment to all its owners, all nodes in parallel.

        One ``transact`` per node carries everything that node
        replicates.  A node failing transiently under a batch of new
        keys is tolerated as long as every fragment still reached at
        least one owner (the miss is counted as ``write_failovers``); a
        node carrying deletes, or a put overwriting a key the cluster's
        index held before the batch, fails the call — a surviving stale
        replica could otherwise serve deleted or superseded data later.
        """
        puts_by: dict = {}
        for variable, segment, payload in batch:
            for node in self._read_plan(variable, segment):
                puts_by.setdefault(node.name, []).append((variable, segment, payload))
        dels_by: dict = {}
        for variable, segment in deletes:
            for node in self._read_plan(variable, segment):
                if node.store.has(variable, segment):
                    dels_by.setdefault(node.name, []).append((variable, segment))
        replicas_ok = {(v, s): 0 for v, s, _ in batch}
        failures: list = []
        names = set(puts_by) | set(dels_by)
        futures = {
            self._pool.submit(
                self._by_name[name].store.transact,
                puts_by.get(name, []),
                dels_by.get(name, []),
            ): name
            for name in names
        }
        for future in as_completed(futures):
            name = futures[future]
            node = self._by_name[name]
            try:
                future.result()
            except Exception as exc:
                strict = (
                    bool(dels_by.get(name))
                    or any((v, s) in self._sizes for v, s, _ in puts_by.get(name, ()))
                    or not (is_transient(exc) or isinstance(exc, CircuitOpenError))
                )
                failures.append((name, exc, strict))
                lost = len(puts_by.get(name, ()))
                with self._stats_lock:
                    node.stats.write_failovers += lost
                    self._cstats.write_failovers += lost
            else:
                stored = puts_by.get(name, ())
                for variable, segment, _ in stored:
                    replicas_ok[(variable, segment)] += 1
                with self._stats_lock:
                    node.stats.puts += len(stored)
                    node.stats.bytes_written += sum(len(p) for _, _, p in stored)
        for name, exc, strict in failures:
            if strict:
                raise exc
        lost_keys = [key for key, ok in replicas_ok.items() if ok == 0]
        if lost_keys:
            raise failures[0][1] if failures else AssertionError("unreachable")

    def transact(self, puts, deletes=()) -> None:
        """Apply puts then deletes, grouped per node, as one parallel pass.

        Each node receives one ``transact`` carrying every fragment it
        replicates, all nodes written in parallel — a K-replicated batch
        costs K·(bytes) of traffic but only ``nodes`` round trips, and
        one client-visible write round trip.
        Per-node atomicity is that of each backend's own ``transact``
        (one WAL commit record on the disk-backed servers); cross-node
        atomicity is not promised — a failed node's deletes or
        overwrites fail the whole call so a stale replica can never
        survive silently.
        The whole transaction is checked against the cluster's index
        (:meth:`_check_batch`) before any node sees it.
        """
        with self._mutate_lock:
            batch, doomed = self._check_batch(puts, deletes)
            if batch or doomed:
                self._replicate(batch, doomed)
            with self._stats_lock:
                for variable, segment, payload in batch:
                    self._record_put(variable, segment, len(payload))
                for variable, segment in doomed:
                    self._record_delete(variable, segment)
            if batch:
                self._count_writes(batch)

    # -- durability / aggregation ----------------------------------------------

    def compact(self) -> CompactionReport:
        """Compact every reachable node; returns the merged reclaim report.

        A node that is transiently unreachable is skipped (its dead
        bytes wait for the next pass); permanent errors propagate.
        """
        report = CompactionReport()
        for node in self._nodes:
            try:
                report.merge(node.store.compact())
            except Exception as exc:
                if not (is_transient(exc) or isinstance(exc, CircuitOpenError)):
                    raise
        return report

    def durability(self) -> DurabilityStats:
        """Merged durability counters of every reachable node.

        Uses the :meth:`~repro.storage.wal.DurabilityStats.merge` seam,
        so ``repro stats`` and ``/metrics`` see the *cluster's* WAL
        traffic — not just node 0's.  Unreachable nodes contribute
        nothing rather than failing the whole snapshot.
        """
        stats = DurabilityStats()
        for node in self._nodes:
            try:
                stats.merge(node.store.durability())
            except Exception as exc:
                if not (is_transient(exc) or isinstance(exc, CircuitOpenError)):
                    raise
        return stats

    def resilience(self) -> ResilienceStats:
        """Merged retry/breaker counters across every node's wrapper.

        Counter fields sum; the breaker flags report the *worst* node
        (any open breaker marks the cluster's breaker state open), so
        alerting on ``breaker_is_open`` catches a single dead node.
        """
        merged = ResilienceStats()
        for node in self._nodes:
            resilience_of = getattr(node.store, "resilience", None)
            if callable(resilience_of):
                merged.merge(resilience_of())
        return merged

    def stats(self) -> ClusterStats:
        """Snapshot of the aggregate and per-node cluster counters."""
        with self._stats_lock:
            per_node = {}
            for node in self._nodes:
                snap = replace(node.stats)
                breaker = node.breaker
                snap.breaker_is_open = int(
                    breaker is not None and breaker.state != CircuitBreaker.CLOSED
                )
                per_node[node.name] = snap
            return replace(
                self._cstats,
                nodes=len(self._nodes),
                replicas=self.replicas,
                vnodes=self._ring.vnodes,
                per_node=per_node,
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the fan-out pool and close every node."""
        self._pool.shutdown(wait=True)
        for node in self._nodes:
            node.store.close()

