"""The four workloads: set-up, the timed closed loop, tear-down.

Every workload builds its inputs from the seed, runs a *fixed* op list
(so byte counts repeat exactly for a seed), and checks every answer
against the generated originals off the clock.  An op is one
``retrieve`` (one tolerance rung; the first rung of a session includes
opening the session) or, in ``ingest_live``, one timestep ingest.

Seeds vary the data, and the number of Algorithm 2 rounds a dataset
needs varies with it (16 to 20 per ladder on ``ge_cfd``), so the solo
workloads spread their sessions over several datasets: a run then
measures the program rather than one dataset's luck.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time, thread_time

import numpy as np

from repro.compressors.base import make_refactorer
from repro.core.qois import GE_QOIS, total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.data import generators
from repro.service.server import RetrievalServer, ServiceClient, decode_array, encode_array
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.remote import HTTPFragmentServer
from repro.storage.store import ShardedDiskStore
from repro.storage.transfer import LatencyFragmentStore
from repro.utils.fragment_keys import timestep_variable

from .proxy import StoreCounts, StoreProxy
from .spec import CLIENTS, NOMINAL_SECONDS
from .truth import Reference, check_answer

METHOD = "pmgard_hb"  # the default of `repro archive/ingest/serve`
SOLO_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
SOLO_QOIS = ("VTOT", "T", "Mach")
FLEET_LADDER = (1e-2, 1e-3, 1e-4)
WIND = ("velocity_x", "velocity_y", "velocity_z")
READBACK_TOLERANCE = 1e-4
COLD_SESSIONS = (1, 3, 6, 8)  # session index mod 10 reading a never-read timestep
CODEC_SAMPLE = 8  # replay the wire codec on every Nth fleet op
# ingest_live encodes on the client's thread.  The program's default is 4
# encode threads (3 used, one per variable): on 2 vCPUs an op then ends
# when the slowest of three threads sharing two cores and one GIL does,
# and op_p90_ms measures that scheduling.  Around the latency ramp the
# median |residual| of an op is 8-11 ms with the default, no better with
# 1 or 2 threads, and 3-5 ms inline, for an 11% longer wall.
INGEST_WORKERS = 0

#: Default sizes, for ``--seconds`` = NOMINAL_SECONDS on the reference box.
#: ``floor`` is the fewest sessions/ops a pass of an end-to-end run may
#: have: 100 timed ops in the run, so at least 10 samples lie beyond the
#: 90th percentile.
#: ``setups`` is how often an untraced run sets the workload up
#: (``setup_s`` is the median); ``passes`` of those set-ups also run the
#: op list, each on a fresh archive, and the run reports the pooled ops.
#: ``ingest_live`` runs two passes: its ops are allocation-heavy Python
#: and small-file writes, which this box slows by half for minutes at a
#: time, so it needs the longest run the time budget allows.
SIZES = {
    "solo_local": dict(nodes=60_000, datasets=10, sessions=25, floor=25, warmup=2, link=None,
                       setups=2, passes=1),
    "solo_wan": dict(nodes=10_000, datasets=9, sessions=25, floor=25, warmup=1,
                     link=(0.020, 50e6), setups=2, passes=1),
    "fleet_mixed": dict(shape=(16, 48, 48), hot=3, sessions=34, floor=17,
                        node_link=(0.010, 200e6), setups=2, passes=1),
    "ingest_live": dict(shape=(20, 100, 100), pool=8, ops=80, floor=50, warmup=2,
                        readbacks=5, setups=5, passes=2),
}

#: ``--smoke`` sizes: every code path once, in about a second each.
SMOKE = {
    "solo_local": dict(nodes=2_000, datasets=2, sessions=2, floor=1, warmup=1, link=None,
                       setups=1, passes=1),
    "solo_wan": dict(nodes=2_000, datasets=2, sessions=2, floor=1, warmup=1,
                     link=(0.001, 50e6), setups=1, passes=1),
    "fleet_mixed": dict(shape=(6, 16, 16), hot=1, sessions=2, floor=1,
                        node_link=(0.0005, 200e6), setups=1, passes=1),
    "ingest_live": dict(shape=(6, 24, 24), pool=3, ops=10, floor=1, warmup=1, readbacks=2,
                        setups=1, passes=1),
}


def scaled(sizes: dict, seconds: float, floor: bool = True) -> dict:
    """*sizes* with its op count scaled from the nominal run length."""
    out = dict(sizes)
    key = "ops" if "ops" in out else "sessions"
    count = round(out[key] * float(seconds) / NOMINAL_SECONDS)
    out[key] = max(count, out["floor"] if floor else 1)
    if "datasets" in out:
        out["datasets"] = min(out["datasets"], out[key])
    return out


@dataclass
class Op:
    """One timed operation and the verdict on its answer."""

    op_id: int
    latency_s: float
    ok: bool = True
    why: str = ""
    user_bytes: int = 0
    rounds: int = 0
    slack: float = float("nan")  # reported bound / true error
    info: dict = field(default_factory=dict)


class ClientLog:
    """One closed-loop client's ops, with verification kept off its clock."""

    def __init__(self, client: int, tracer=None):
        self.client = client
        self.tracer = tracer
        self.ops: list = []
        self.first_start = None
        self.last_end = None
        self.off_wall = 0.0
        self.off_cpu = 0.0
        self.digest = hashlib.sha256()
        self._start = None
        self._span = None

    def begin(self) -> None:
        """The next op starts now."""
        if self.tracer is not None:
            self._span = self.tracer.start("op", op_id=(self.client, len(self.ops)))
        self._start = perf_counter()
        if self.first_start is None:
            self.first_start = self._start

    def end(self) -> Op:
        """The op begun last is answered; returns its record to fill in."""
        self.last_end = perf_counter()
        if self._span is not None:
            self.tracer.finish(self._span)
            self._span = None
        op = Op(len(self.ops), self.last_end - self._start)
        self.ops.append(op)
        return op

    @contextmanager
    def off_clock(self):
        """Benchmark-side work (verification) that the client does not pay."""
        wall, cpu = perf_counter(), thread_time()
        try:
            yield
        finally:
            self.off_wall += perf_counter() - wall
            self.off_cpu += thread_time() - cpu

    def fail(self, op: Op, why: str) -> None:
        op.ok, op.why = False, why

    @property
    def wall_s(self) -> float:
        if self.first_start is None:
            return 0.0
        return self.last_end - self.first_start - self.off_wall


@dataclass
class Outcome:
    """What one timed pass of a workload produced."""

    logs: list
    cpu_s: float
    store_bytes: int
    stats: dict  # per-layer values read from public stat objects / proxies

    @property
    def ops(self) -> list:
        return [op for log in self.logs for op in log.ops]

    @property
    def user_bytes(self) -> int:
        return sum(op.user_bytes for op in self.ops)

    @property
    def wall_s(self) -> float:
        return max(log.wall_s for log in self.logs)

    def digest(self) -> str:
        return hashlib.sha256(
            b"".join(log.digest.digest() for log in self.logs)
        ).hexdigest()


def _hash_arrays(digest, arrays: dict) -> None:
    for name in sorted(arrays):
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())


class Workload:
    """Base: a work directory, a seed, sizes, and an optional tracer."""

    name = ""

    def __init__(self, seed: int, sizes: dict, workdir: str, tracer=None):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started (files go with the work directory)."""

    def replay_array(self) -> np.ndarray:
        """One of the workload's own arrays, for the kernel replays."""
        raise NotImplementedError

    def _clock_starts(self) -> None:
        if self.tracer is not None:
            self.tracer.reset()


# -- solo_local / solo_wan ------------------------------------------------------


class SoloWorkload(Workload):
    """One analyst walking a tolerance ladder per session, no service.

    A session is a fresh store handle -> lazy ``Archive.load_dataset`` ->
    ``QoIRetriever.session()`` -> the ladder, each rung requesting VTOT,
    T and Mach together.  ``link`` puts the archive behind a
    ``LatencyFragmentStore`` (``solo_wan``).
    """

    def setup(self) -> None:
        sizes = self.sizes
        refactorer = make_refactorer(METHOD)
        self.roots, self.ranges, self.references = [], [], []
        for k in range(sizes["datasets"]):
            data = generators.ge_cfd(num_nodes=sizes["nodes"], seed=self.seed * 1000 + k)
            root = os.path.join(self.workdir, f"dataset{k:02d}")
            with ShardedDiskStore(root) as store:
                Archive(store).save_dataset(refactor_dataset(data, refactorer))
            self.roots.append(root)
            self.ranges.append({v: float(np.max(a) - np.min(a)) for v, a in data.items()})
            self.references.append({q: Reference.of(GE_QOIS[q], data) for q in SOLO_QOIS})
            if k == 0:
                self._replay = data["velocity_x"]
        self._reset_counters()
        warm = ClientLog(0)
        for k in range(sizes["warmup"]):
            self._session(k % sizes["datasets"], warm)

    def _reset_counters(self) -> None:
        self.counts = StoreCounts()
        self.backing_bytes = 0
        self.open_s = 0.0
        self.open_trips = 0

    def replay_array(self) -> np.ndarray:
        return self._replay

    def _session(self, k: int, log: ClientLog) -> None:
        link = self.sizes["link"]
        references = self.references[k]
        log.begin()
        backing = ShardedDiskStore(self.roots[k])
        if link is not None:
            backing = LatencyFragmentStore(backing, latency=link[0], bandwidth=link[1])
        store = StoreProxy(backing, self.counts)
        opened, trips = perf_counter(), self.counts.get_trips
        refactored = Archive(store).load_dataset(list(self.ranges[k]), lazy=True)
        self.open_s += perf_counter() - opened
        self.open_trips += self.counts.get_trips - trips
        session = QoIRetriever(refactored, self.ranges[k]).session()
        for rung, tolerance in enumerate(SOLO_LADDER):
            if rung:
                log.begin()
            try:
                result = session.retrieve([
                    QoIRequest(q, ref.qoi, tolerance, ref.qoi_range)
                    for q, ref in references.items()
                ])
            except Exception as exc:  # an op that raises is a failed op, not a crash
                log.fail(log.end(), f"{type(exc).__name__}: {exc}")
                continue
            op = log.end()
            with log.off_clock():
                self._verify(op, log, result, references, tolerance, session)
        store.close()
        # the backing store's own counters: what crossed its boundary
        self.backing_bytes += backing.bytes_read + backing.bytes_written

    @staticmethod
    def _verify(op, log, result, references, tolerance, session) -> None:
        op.rounds = result.rounds
        op.user_bytes = sum(a.nbytes for a in result.data.values())
        op.info["hedged"] = result.hedged_fetches
        slacks = []
        if result.degraded or not result.all_satisfied:
            log.fail(op, f"degraded={result.degraded} satisfied={result.satisfied}")
        for q, ref in references.items():
            bound = result.estimated_errors[q]
            ok, true_error, why = check_answer(ref, result.data, bound, tolerance)
            if not ok:
                log.fail(op, f"{q}: {why}")
            if true_error > 0.0:
                slacks.append(bound / true_error)
            log.digest.update(np.float64(bound).tobytes())
        op.slack = float(np.median(slacks)) if slacks else float("nan")
        _hash_arrays(log.digest, result.data)
        log.digest.update(str(session.bytes_retrieved()).encode())

    def run(self) -> Outcome:
        sizes = self.sizes
        log = ClientLog(0, self.tracer)
        self._reset_counters()
        self._clock_starts()
        cpu = process_time()
        for index in range(sizes["sessions"]):
            self._session(index % sizes["datasets"], log)
        cpu = process_time() - cpu - log.off_cpu
        counts = self.counts.snapshot()
        log.digest.update(
            str((counts["get_trips"], counts["get_fragments"], counts["get_bytes"])).encode()
        )
        stats = {f"storage.store.{k}": v for k, v in counts.items()}
        stats["storage.archive.open_s"] = self.open_s
        stats["storage.archive.open_trips"] = self.open_trips
        return Outcome([log], cpu, self.backing_bytes, stats)


class SoloLocal(SoloWorkload):
    name = "solo_local"


class SoloWan(SoloWorkload):
    name = "solo_wan"


# -- fleet_mixed ----------------------------------------------------------------


class FleetMixed(Workload):
    """ServiceClient <-> RetrievalServer -> tiered -> cluster -> HTTP nodes.

    Two clients each run ``sessions`` sessions (a new connection and a
    ``vtot`` ladder with the data returned).  Sessions whose index mod
    10 is in :data:`COLD_SESSIONS` read a timestep nobody has read yet
    (disjoint between clients); the rest read a seeded-random hot one.
    """

    name = "fleet_mixed"

    def setup(self) -> None:
        sizes = self.sizes
        self.server = self.service = None  # so a failed set-up can still tear down
        hot, sessions = sizes["hot"], sizes["sessions"]
        self.cold_per_client = sum(1 for s in range(sessions) if s % 10 in COLD_SESSIONS)
        timesteps = hot + CLIENTS * self.cold_per_client
        latency, bandwidth = sizes["node_link"]
        self.node_counts = StoreCounts()
        self.disks, self.nodes = [], []
        for n in range(2):
            disk = ShardedDiskStore(os.path.join(self.workdir, f"node{n}"))
            self.disks.append(disk)
            link = LatencyFragmentStore(disk, latency=latency, bandwidth=bandwidth)
            self.nodes.append(
                HTTPFragmentServer(StoreProxy(link, self.node_counts)).start()
            )
        cluster = "cluster://%s?replicas=2" % ",".join(
            "%s:%d" % node.address for node in self.nodes
        )
        self.references, self.fields = [], []
        ingest = RetrievalService.open(cluster)
        try:
            for t in range(timesteps):
                data = generators.hurricane(shape=sizes["shape"], seed=self.seed * 1000 + t)
                ingest.ingest(data, method=METHOD, timestep=t)
                fields = [timestep_variable(f, t) for f in WIND]
                self.fields.append(fields)
                self.references.append(Reference.of(
                    total_velocity(*fields), dict(zip(fields, (data[f] for f in WIND)))
                ))
                if t == 0:
                    self._replay = data["velocity_x"]
        finally:
            ingest.close()
        self.service = RetrievalService.open("tiered://?slow=" + cluster)
        self.server = RetrievalServer(self.service)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
            name="bench-retrieval-server", daemon=True,
        )
        self.server_thread.start()
        warm = ClientLog(0)
        for t in range(hot):
            self._session(t, warm)

    def replay_array(self) -> np.ndarray:
        return self._replay

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server_thread.join()
            self.server.server_close()
        if self.service is not None:
            self.service.close()
        # each stop waits out the server's 0.5 s poll: wait for both at once
        stoppers = [threading.Thread(target=node.stop) for node in self.nodes]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join()
        for disk in self.disks:
            disk.close()

    def _session(self, t: int, log: ClientLog) -> None:
        ref, fields = self.references[t], self.fields[t]
        host, port = self.server.address
        log.begin()
        client = None
        try:
            for rung, tolerance in enumerate(FLEET_LADDER):
                if rung:
                    log.begin()
                try:
                    if client is None:
                        client = ServiceClient(host, port)
                    response = client.retrieve(
                        "vtot", fields, tolerance, qoi_range=ref.qoi_range, include_data=True
                    )
                except Exception as exc:  # shed, refused, dropped: a failed op
                    log.fail(log.end(), f"{type(exc).__name__}: {exc}")
                    continue
                op = log.end()
                with log.off_clock():
                    self._verify(op, log, response, ref, tolerance, cold=t >= self.sizes["hot"])
        finally:
            if client is not None:
                client.close()

    @staticmethod
    def _verify(op, log, response, ref, tolerance, cold) -> None:
        data = response["data"]
        bound = response["estimated_error"]
        op.rounds = response["rounds"]
        op.user_bytes = sum(a.nbytes for a in data.values())
        op.info["cold"] = cold
        op.info["hedged"] = response["hedged_fetches"]
        if response["degraded"] or not response["satisfied"]:
            log.fail(op, f"degraded={response['degraded']} satisfied={response['satisfied']}")
        ok, true_error, why = check_answer(ref, data, bound, tolerance)
        if not ok:
            log.fail(op, why)
        if true_error > 0.0:
            op.slack = bound / true_error
        log.digest.update(np.float64(bound).tobytes())
        _hash_arrays(log.digest, data)
        if op.op_id % CODEC_SAMPLE == 0:
            # replay of the wire codec on this op's real payload
            start = perf_counter()
            line = json.dumps({k: encode_array(a) for k, a in data.items()})
            for payload in json.loads(line).values():
                decode_array(payload)
            op.info["codec_s"] = perf_counter() - start
            op.info["response_bytes"] = len(line)

    def _client(self, index: int, log: ClientLog, barrier) -> None:
        sizes = self.sizes
        rng = np.random.default_rng([self.seed, index])
        cold = sizes["hot"] + index * self.cold_per_client
        barrier.wait()
        for s in range(sizes["sessions"]):
            if s % 10 in COLD_SESSIONS:
                t, cold = cold, cold + 1
            else:
                t = int(rng.integers(sizes["hot"]))
            self._session(t, log)

    def run(self) -> Outcome:
        logs = [ClientLog(i, self.tracer) for i in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)
        threads = [
            threading.Thread(target=self._client, args=(i, logs[i], barrier),
                             name=f"bench-client-{i}")
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        # the service's store chain: cache -> tiered -> (slow) cluster
        cluster = self.service.store.inner.slow
        before, cluster_before = self.service.stats(), cluster.stats()
        node_before = self.node_counts.snapshot()
        self._clock_starts()
        cpu = process_time()
        barrier.wait()
        for thread in threads:
            thread.join()
        cpu = process_time() - cpu - sum(log.off_cpu for log in logs)
        after, cluster_after = self.service.stats(), cluster.stats()
        # the service's backing store is the tiered store: its own counters
        # are the traffic requests caused, exact for a seed; the nodes also
        # serve the tiered store's background promotions, which depend on
        # when its transfer thread wakes
        store_bytes = (
            after.store_bytes_read - before.store_bytes_read
            + after.store_bytes_written - before.store_bytes_written
        )
        node_after = self.node_counts.snapshot()
        stats = _service_stats(before, after)
        stats.update(
            (f"storage.store.{k}", node_after[k] - node_before[k]) for k in node_after
        )
        stats["storage.remote.node_busy_s"] = (
            stats["storage.store.get_busy_s"] + stats["storage.store.put_busy_s"]
        )
        stats["storage.cluster.failovers"] = cluster_after.failovers - cluster_before.failovers
        stats["storage.cluster.node_requests"] = sum(
            node.requests - cluster_before.per_node[name].requests
            for name, node in cluster_after.per_node.items()
        )
        return Outcome(logs, cpu, store_bytes, stats)


def _service_stats(before, after) -> dict:
    """Per-layer values a ``ServiceStats`` pair carries (deltas over the run)."""

    def delta(path: str):
        a, b = after, before
        for part in path.split("."):
            a = getattr(a, part, None) if a is not None else None
            b = getattr(b, part, None) if b is not None else None
        return (a or 0) - (b or 0)

    hits, misses = delta("cache.hits"), delta("cache.misses")
    plan_hits, plan_misses = delta("planner.plan_cache_hits"), delta("planner.plan_cache_misses")
    return {
        "service.planner.plan_hit_rate": plan_hits / max(1, plan_hits + plan_misses),
        "service.planner.merged_rounds": delta("planner.merged_rounds"),
        "service.planner.scheduler_ticks": delta("planner.scheduler_ticks"),
        "service.planner.coalesced_trips": delta("planner.coalesced_round_trips"),
        "service.planner.deduped_fragments": delta("planner.deduped_fragments"),
        "service.admission.admitted": delta("requests_admitted"),
        "service.admission.shed": delta("requests_shed"),
        "service.admission.degraded": delta("requests_degraded"),
        "storage.cache.hit_rate": hits / max(1, hits + misses),
        "storage.cache.evictions": delta("cache.evictions"),
        "storage.tiered.slow_trips": delta("tiers.slow_round_trips"),
        "storage.tiered.fast_hits": delta("tiers.fast_hits"),
        "storage.tiered.promotions": delta("tiers.promotions"),
        "storage.wal.commits": delta("durability.wal_commits"),
        "storage.wal.log_bytes": delta("durability.log_bytes"),
        "storage.wal.tombstones": delta("durability.tombstones"),
        "parallel.executor.tasks": delta("executor.tasks"),
        "parallel.executor.fallbacks": delta("executor.fallbacks"),
    }


# -- ingest_live ----------------------------------------------------------------


class IngestLive(Workload):
    """One client ingesting timesteps into a live service; reads follow.

    Every 10th op replaces an earlier timestep (tombstones, cache and
    planner invalidation).  After the clock stops: one ``compact()`` and
    ``readbacks`` sampled timesteps retrieved at 1e-4 and truth-checked.
    """

    name = "ingest_live"

    def setup(self) -> None:
        sizes = self.sizes
        self.pool = [
            generators.hurricane(shape=sizes["shape"], seed=self.seed * 1000 + k)
            for k in range(sizes["pool"])
        ]
        self.service = None  # so a failed set-up can still tear down
        self.archive_dir = os.path.join(self.workdir, "archive")
        self.service = RetrievalService.open(f"sharded://{self.archive_dir}")
        self.content: dict = {}  # timestep -> pool index it currently holds
        warm = ClientLog(0)
        for _ in range(sizes["warmup"]):
            self._ingest(len(self.content), len(self.content), warm)

    def replay_array(self) -> np.ndarray:
        return self.pool[0]["velocity_x"]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()

    def _ingest(self, timestep: int, source: int, log: ClientLog):
        data = self.pool[source % len(self.pool)]
        log.begin()
        try:
            report = self.service.ingest(
                data, method=METHOD, timestep=timestep, workers=INGEST_WORKERS
            )
        except Exception as exc:  # an op that raises is a failed op, not a crash
            log.fail(log.end(), f"{type(exc).__name__}: {exc}")
            return None
        op = log.end()
        self.content[timestep] = source % len(self.pool)
        op.user_bytes = sum(a.nbytes for a in data.values())
        op.info.update(timestep=timestep, encode_s=report.encode_seconds,
                       flush_s=report.flush_seconds, flushes=report.flushes)
        log.digest.update(str((timestep, report.fragments, report.bytes_written)).encode())
        return op

    def _readback(self, timestep: int) -> str:
        """'' when *timestep* reads back within the promise, else why not."""
        data = self.pool[self.content[timestep]]
        fields = [timestep_variable(f, timestep) for f in WIND]
        ref = Reference.of(total_velocity(*fields), dict(zip(fields, (data[f] for f in WIND))))
        with self.service.open_session() as session:
            result = session.retrieve(
                [QoIRequest("vtot", ref.qoi, READBACK_TOLERANCE, ref.qoi_range)]
            )
        if result.degraded or not result.all_satisfied:
            return f"read-back degraded={result.degraded} satisfied={result.satisfied}"
        return check_answer(
            ref, result.data, result.estimated_errors["vtot"], READBACK_TOLERANCE
        )[2]

    def _disk_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.archive_dir) for name in names
        )

    def run(self) -> Outcome:
        sizes = self.sizes
        rng = np.random.default_rng(self.seed)
        log = ClientLog(0, self.tracer)
        before = self.service.stats()
        self._clock_starts()
        cpu = process_time()
        by_timestep = {}
        for i in range(sizes["ops"]):
            if i % 10 == 9:
                timestep = int(rng.integers(len(self.content)))
                source = self.content[timestep] + 1  # different content than it holds
            else:
                timestep = source = len(self.content)
            op = self._ingest(timestep, source, log)
            if op is not None:
                by_timestep[timestep] = op
        cpu = process_time() - cpu - log.off_cpu
        after = self.service.stats()
        user_bytes = sum(op.user_bytes for op in log.ops)
        stats = _service_stats(before, after)
        stats.update({
            "storage.store.put_trips": after.store_put_round_trips - before.store_put_round_trips,
            "storage.store.put_bytes": after.store_bytes_written - before.store_bytes_written,
            "storage.store.get_trips": after.store_round_trips - before.store_round_trips,
            "storage.store.get_fragments": after.store_reads - before.store_reads,
            "storage.store.get_bytes": after.store_bytes_read - before.store_bytes_read,
            "storage.store.disk_bytes_per_user_byte": self._disk_bytes() / max(1, user_bytes),
        })
        store_bytes = stats["storage.store.put_bytes"] + stats["storage.store.get_bytes"]
        start = perf_counter()
        self.service.compact()
        stats["storage.store.compact_s"] = perf_counter() - start
        sampled = rng.choice(sorted(by_timestep), size=min(sizes["readbacks"], len(by_timestep)),
                             replace=False)
        for timestep in sampled:
            why = self._readback(int(timestep))
            if why:
                log.fail(by_timestep[int(timestep)], why)
        return Outcome([log], cpu, store_bytes, stats)


WORKLOADS = {w.name: w for w in (SoloLocal, SoloWan, FleetMixed, IngestLive)}
