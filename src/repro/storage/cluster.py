"""Scale-out cluster fabric: one archive namespace over N fragment servers.

Everything below this module scales *within* one process; the cluster
store goes horizontal.  :class:`ClusterFragmentStore` composes N backend
stores — typically :class:`~repro.storage.remote.HTTPFragmentStore`
clients for running :class:`~repro.storage.remote.HTTPFragmentServer`
processes — behind the ordinary
:class:`~repro.storage.store.FragmentStore` interface:

* **Consistent-hash placement.**  A :class:`HashRing` with virtual nodes
  maps every ``(variable, segment)`` key to an ordered owner list; the
  same key always lands on the same nodes, load spreads evenly (vnodes
  smooth the arcs), and a membership change moves only ~1/N of the keys.
* **K-way replication.**  ``transact`` (and so every put) writes each
  fragment to its ``replicas`` owners (batched per node, all nodes in
  parallel); a write succeeds as long as every fragment lands on at
  least one owner, counting the under-replicated remainder as
  ``write_failovers`` for the rebalancer to repair.
* **Read failover.**  Every backend is wrapped in the PR-8
  :class:`~repro.storage.resilience.ResilientStore` with its own
  :class:`~repro.storage.resilience.CircuitBreaker`; a batched read fans
  out to the owning shards in parallel (one coalesced ``get_many`` per
  live shard, merged in completion order) and a dead or breaker-open
  primary transparently serves from the next replica — counted per node
  as ``failovers``, invisible to the client.  Only when *every* replica
  of a key is unavailable does the read raise a typed
  :class:`~repro.storage.resilience.DegradedError`.
* **Rebalancing.**  :meth:`ClusterFragmentStore.add_node` /
  :meth:`ClusterFragmentStore.remove_node` stage a membership change;
  :class:`Rebalancer` (the one background data mover of the storage
  fabric) migrates fragments in coalesced byte-bounded batches.  Reads
  stay correct mid-move via old-then-new placement lookup: until a migration finalizes, lookups
  consult the pre-change ring first (where the data is guaranteed to
  live) and the post-change ring as additional failover candidates, and
  writes land on the union — so a kill mid-rebalance loses nothing and
  never serves stale bytes.

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
    _split_query,
    open_store,
    parse_bytes,
    split_store_url,
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

#: Byte bound of one coalesced rebalance copy batch: keeps a large move
#: from materializing in memory as one oversized request.
REBALANCE_CHUNK_BYTES = 32 << 20

#: Period of the background rebalance thread (it only acts while a
#: membership change is staged).
DEFAULT_REBALANCE_INTERVAL = 2.0


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
    (adding or removing one of N nodes re-homes only ~1/N of the keys —
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
    #: Fragments migrated onto this node by the rebalancer.
    rebalanced_in: int = 0
    #: Bytes migrated onto this node by the rebalancer.
    rebalanced_bytes: int = 0
    #: 1 while this node's circuit breaker is open/half-open, else 0.
    breaker_is_open: int = 0


@dataclass
class ClusterStats:
    """Aggregate + per-node accounting of one :class:`ClusterFragmentStore`."""

    #: Physical nodes currently in the cluster.
    nodes: int = 0
    #: Configured replication factor (clamped to the node count at
    #: placement time).
    replicas: int = 0
    #: Virtual nodes per physical node on the placement ring.
    vnodes: int = 0
    #: 1 while a membership change is staged and migrating, else 0.
    rebalancing: int = 0
    #: Total fragments transparently served by a replica after their
    #: primary (or an earlier replica) failed.
    failovers: int = 0
    #: Total fragments that missed one of their replica writes.
    write_failovers: int = 0
    #: Completed rebalance passes (membership changes finalized).
    rebalances: int = 0
    #: Fragments copied between nodes by the rebalancer.
    rebalanced_fragments: int = 0
    #: Bytes copied between nodes by the rebalancer.
    rebalanced_bytes: int = 0
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
        self._old_ring: HashRing | None = None  # set while a move is staged
        self._leaving: set = set()  # names staged for removal
        self._cstats = ClusterStats(replicas=self.replicas, vnodes=self._ring.vnodes)
        # serializes client mutations with each rebalance copy batch: a
        # put can never interleave a read-copy-write migration chunk, so
        # a migrated replica is never overwritten with stale bytes
        self._mutate_lock = threading.RLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, min(len(self._nodes) + 2, int(max_parallel))),
            thread_name_prefix="repro-cluster",
        )
        self.rebalancer = Rebalancer(self)
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
        (seconds, HTTP nodes), ``chunk=`` (rebalance copy batch bytes,
        binary suffixes allowed), plus the per-node resilience knobs
        ``retries``/``retry_base``/``retry_max``/``breaker``/``cooldown``
        (defaults tuned for fast failover; ``breaker=0`` disables the
        per-node breakers).
        """
        scheme, rest = split_store_url(url)
        if scheme != "cluster":
            raise ValueError(f"not a cluster:// store URL: {url!r}")
        path, params = _split_query(rest)
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
        store = cls(
            stores,
            replicas=int(params.get("replicas", DEFAULT_REPLICAS)),
            vnodes=int(params.get("vnodes", DEFAULT_VNODES)),
            retry=retry,
            breaker_threshold=int(params.get("breaker", DEFAULT_BREAKER_THRESHOLD)),
            breaker_cooldown=float(params.get("cooldown", DEFAULT_BREAKER_COOLDOWN)),
        )
        if "chunk" in params:
            store.rebalancer.chunk_bytes = parse_bytes(params["chunk"])
        return store

    # -- placement -------------------------------------------------------------

    def nodes(self) -> list:
        """Current node names, ring order not implied."""
        return [node.name for node in self._nodes]

    def owners(self, variable: str, segment: str) -> list:
        """Node names that *should* hold a fragment (current placement)."""
        return self._ring.owners(variable, segment, self.replicas)

    def _read_plan(self, variable: str, segment: str) -> list:
        """Candidate nodes for one read, failover order.

        Mid-rebalance the pre-change owners come first — the data is
        guaranteed there until the move finalizes — and the post-change
        owners follow as extra candidates (they may already hold a
        migrated copy, and they cover reads that race finalization).
        """
        names: list = []
        if self._old_ring is not None:
            names.extend(self._old_ring.owners(variable, segment, self.replicas))
        for name in self._ring.owners(variable, segment, self.replicas):
            if name not in names:
                names.append(name)
        return [self._by_name[name] for name in names if name in self._by_name]

    def _write_plan(self, variable: str, segment: str) -> list:
        """Owner nodes one write must reach (old ∪ new mid-rebalance).

        Writing the union keeps every read candidate coherent while a
        migration is in flight — no replica can serve a stale payload
        after an overwrite, whichever ring a concurrent read consults.
        """
        return self._read_plan(variable, segment)

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
        key mid-rebalance) re-routes the affected keys to each key's
        next replica; only keys whose *every* candidate failed raise —
        as a typed :class:`DegradedError` naming exactly those keys.
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
                    # the node is live but lacks some keys (mid-rebalance,
                    # an earlier missed replica write): fail those over,
                    # keep the rest on this node for the next round
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
        replicates.  A node failing transiently under a pure put batch
        is tolerated as long as every fragment still reached at least
        one owner (the miss is counted as ``write_failovers``); a node
        carrying deletes fails the call — a surviving stale replica
        could otherwise serve deleted data later.
        """
        puts_by: dict = {}
        for variable, segment, payload in batch:
            for node in self._write_plan(variable, segment):
                puts_by.setdefault(node.name, []).append((variable, segment, payload))
        dels_by: dict = {}
        for variable, segment in deletes:
            for node in self._write_plan(variable, segment):
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
                strict = bool(dels_by.get(name)) or not (
                    is_transient(exc) or isinstance(exc, CircuitOpenError)
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
        atomicity is not promised — a failed node's deletes fail the
        whole call so a stale replica can never survive silently.
        Delete keys must exist and must not collide with the batch.
        """
        batch = self._check_batch(puts)
        doomed = list(dict.fromkeys((str(v), str(s)) for v, s in deletes))
        overlap = {(v, s) for v, s, _ in batch} & set(doomed)
        if overlap:
            raise ValueError(f"keys both written and deleted: {sorted(overlap)}")
        with self._mutate_lock:
            missing = [k for k in doomed if k not in self._sizes]
            if missing:
                raise KeyError(missing[0] if len(missing) == 1 else missing)
            if batch or doomed:
                self._replicate(batch, doomed)
            with self._stats_lock:
                for variable, segment, payload in batch:
                    self._record_put(variable, segment, len(payload))
                for variable, segment in doomed:
                    self._record_delete(variable, segment)
            if batch:
                self._count_writes(batch)

    # -- membership ------------------------------------------------------------

    def add_node(self, store: FragmentStore, name: str | None = None) -> str:
        """Stage a new node into the placement ring; returns its name.

        The node starts taking *writes* for its share of the keyspace
        immediately (writes land on the old ∪ new owner union) but
        serves reads only as a failover candidate until
        :meth:`rebalance` migrates its share over and finalizes the
        ring.  Fragments the new backend already holds join the
        namespace at once.
        """
        with self._mutate_lock:
            if name is None:
                taken = set(self._by_name)
                i = len(self._nodes)
                while f"node{i}" in taken:
                    i += 1
                name = f"node{i}"
            name = str(name)
            if name in self._by_name:
                raise ValueError(f"duplicate cluster node name {name!r}")
            url = _backend_url(store)
            if not isinstance(store, ResilientStore):
                template = self._nodes[0].store
                breaker = None
                if template.breaker is not None:
                    breaker = CircuitBreaker(
                        failure_threshold=template.breaker.failure_threshold,
                        cooldown=template.breaker.cooldown,
                        name=url,
                    )
                store = ResilientStore(store, retry=template.retry, breaker=breaker)
            node = _Node(name, store, url)
            self._nodes.append(node)
            self._by_name[name] = node
            with self._stats_lock:
                for variable, segment in node.store.keys():
                    self._record_put(
                        variable, segment, node.store.size_of(variable, segment)
                    )
            if self._old_ring is None:
                self._old_ring = self._ring
            active = [n.name for n in self._nodes if n.name not in self._leaving]
            self._ring = HashRing(active, vnodes=self._ring.vnodes)
            return name

    def remove_node(self, name: str) -> None:
        """Stage a node's departure (planned drain or observed death).

        The node leaves the *new* placement ring immediately but keeps
        serving reads (when alive) as an old-ring candidate until
        :meth:`rebalance` has copied its exclusive share to the
        surviving owners and finalized — so draining a live node never
        has a moment with fewer readable copies, and removing a dead
        one simply migrates from the surviving replicas.
        """
        with self._mutate_lock:
            if name not in self._by_name:
                raise KeyError(name)
            active = [
                n.name
                for n in self._nodes
                if n.name not in self._leaving and n.name != name
            ]
            if not active:
                raise ValueError("cannot remove the last cluster node")
            self._leaving.add(name)
            if self._old_ring is None:
                self._old_ring = self._ring
            self._ring = HashRing(active, vnodes=self._ring.vnodes)

    def rebalance(self, chunk_bytes: int | None = None) -> dict:
        """Run one synchronous rebalance pass (see :class:`Rebalancer`)."""
        return self.rebalancer.run_once(chunk_bytes)

    def start_rebalancer(self) -> "Rebalancer":
        """Start the background rebalance thread (idempotent)."""
        self.rebalancer.start()
        return self.rebalancer

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
                rebalancing=int(self._old_ring is not None),
                per_node=per_node,
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the rebalance thread, the fan-out pool, and every node."""
        self.rebalancer.stop()
        self._pool.shutdown(wait=True)
        for node in self._nodes:
            node.store.close()


class Rebalancer:
    """Background shard migration of one :class:`ClusterFragmentStore`.

    One pass (:meth:`run_once`) copies every fragment a post-change
    owner lacks onto it in coalesced byte-bounded ``put_many`` batches
    (sourcing through the cluster's failover-aware reads, so a dead
    node's share migrates from its surviving replicas), finalizes the
    ring swap, and only then garbage-collects the copies that no longer
    own their keys.
    A crash or node death anywhere mid-pass leaves the staged old+new
    lookup in place — every fragment stays readable and a retried pass
    completes idempotently.  :meth:`start` runs passes on a daemon
    thread every *interval* seconds (no-ops while no move is staged);
    tests and benchmarks call :meth:`run_once` for determinism.
    """

    def __init__(
        self,
        cluster: ClusterFragmentStore,
        chunk_bytes: int = REBALANCE_CHUNK_BYTES,
        interval: float = DEFAULT_REBALANCE_INTERVAL,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.chunk_bytes = int(chunk_bytes)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @staticmethod
    def _holds(node: _Node, variable: str, segment: str) -> bool | None:
        """Whether *node* holds a fragment, or ``None`` if unreachable.

        A dead or breaker-open node can neither receive a copy nor
        confirm a drop, so planning treats "unknown" as "leave it alone
        this pass" — the next pass repairs whatever it finds.
        """
        try:
            return node.store.has(variable, segment)
        except Exception as exc:
            if is_transient(exc) or isinstance(exc, CircuitOpenError):
                return None
            raise

    def _plan(self) -> tuple:
        """``(copies, drops)``: per-node key lists to receive / release.

        A node receives every key it owns under the *new* ring but does
        not hold yet — which covers both placement changes and the
        repair of earlier missed replica writes — and releases the keys
        it holds but no longer owns.  Unreachable nodes are skipped on
        both sides (see :meth:`_holds`).
        """
        cluster = self.cluster
        copies: dict = {}
        drops: dict = {}
        replicas = cluster.replicas
        for variable, segment in list(cluster._sizes):
            new_owners = cluster._ring.owners(variable, segment, replicas)
            wanted = set(new_owners)
            for name in new_owners:
                node = cluster._by_name.get(name)
                if node is not None and self._holds(node, variable, segment) is False:
                    copies.setdefault(name, []).append((variable, segment))
            for node in cluster._nodes:
                if node.name not in wanted and self._holds(node, variable, segment):
                    drops.setdefault(node.name, []).append((variable, segment))
        return copies, drops

    def _chunks(self, keys):
        """Split a key list into byte-bounded copy batches."""
        sizes = self.cluster._sizes
        chunk: list = []
        chunk_bytes = 0
        for key in keys:
            chunk.append(key)
            chunk_bytes += sizes.get(key, 0)
            if chunk_bytes >= self.chunk_bytes:
                yield chunk
                chunk, chunk_bytes = [], 0
        if chunk:
            yield chunk

    def run_once(self, chunk_bytes: int | None = None) -> dict:
        """One synchronous rebalance pass; returns what moved.

        No-op unless a membership change is staged.  Copy batches run
        under the cluster's mutation lock, so a concurrent overwrite
        can never be clobbered by an in-flight stale copy; the ring
        finalizes only after every copy landed, and the garbage-collect
        pass (tolerant of dead departing nodes) runs last.
        """
        cluster = self.cluster
        if chunk_bytes is not None:
            self.chunk_bytes = int(chunk_bytes)
        with cluster._mutate_lock:
            if cluster._old_ring is None:
                return {"moved_fragments": 0, "moved_bytes": 0, "dropped": 0}
            copies, _ = self._plan()
        moved = moved_bytes = 0
        for name, keylist in sorted(copies.items()):
            node = cluster._by_name[name]
            for chunk in self._chunks(keylist):
                with cluster._mutate_lock:
                    chunk = [k for k in chunk if k in cluster._sizes]
                    if not chunk:
                        continue
                    payloads = cluster._fetch(chunk)
                    node.store.put_many(
                        [(v, s, payloads[(v, s)]) for v, s in chunk]
                    )
                    nbytes = sum(len(p) for p in payloads.values())
                    with cluster._stats_lock:
                        node.stats.rebalanced_in += len(chunk)
                        node.stats.rebalanced_bytes += nbytes
                        cluster._cstats.rebalanced_fragments += len(chunk)
                        cluster._cstats.rebalanced_bytes += nbytes
                    moved += len(chunk)
                    moved_bytes += nbytes
        with cluster._mutate_lock:
            # every new owner now holds its share: swap the ring live
            _, drops = self._plan()
            for name in cluster._leaving:
                node = cluster._by_name.pop(name, None)
                if node is not None:
                    cluster._nodes.remove(node)
                drops.pop(name, None)
            cluster._leaving = set()
            cluster._old_ring = None
            with cluster._stats_lock:
                cluster._cstats.rebalances += 1
        dropped = 0
        for name, keylist in sorted(drops.items()):
            node = cluster._by_name.get(name)
            if node is None:
                continue
            with cluster._mutate_lock:
                try:
                    live = [
                        k for k in keylist
                        if k in cluster._sizes and node.store.has(*k)
                    ]
                    node.store.transact((), live)
                    dropped += len(live)
                except Exception as exc:
                    # dead-node garbage is harmless; reclaim next pass
                    if not (
                        is_transient(exc)
                        or isinstance(exc, (CircuitOpenError, KeyError))
                    ):
                        raise
        return {
            "moved_fragments": moved,
            "moved_bytes": moved_bytes,
            "dropped": dropped,
        }

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:
                # a failed pass (node briefly unreachable) must not kill
                # rebalancing; the staged rings keep reads correct and
                # the next pass retries everything
                continue

    def start(self) -> None:
        """Launch the rebalance thread (idempotent)."""
        if not self.running:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-cluster-rebalance", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Signal the thread to exit and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
