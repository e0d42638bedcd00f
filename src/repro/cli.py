"""Command-line interface: archive, ingest, inspect, retrieve, and serve.

Wires the whole pipeline into eight subcommands::

    python -m repro.cli archive  --out ar/ --method pmgard_hb p=pressure.npy d=density.npy
    python -m repro.cli ingest   --archive ar/ --method pmgard_hb t=temperature.npy
    python -m repro.cli info     --archive ar/
    python -m repro.cli retrieve --archive ar/ --qoi product --fields p,d \\
        --tolerance 1e-4 --out rec/
    python -m repro.cli serve    --archive ar/ --port 7117 --metrics-port 9117
    python -m repro.cli client   --port 7117 --qoi product --fields p,d \\
        --tolerance 1e-4 --out rec/
    python -m repro.cli stats    --port 7117          # or: --archive ar/
    python -m repro.cli compact  --archive ar/        # or: --port 7117

``archive`` refactors each ``name=path.npy`` variable into a fresh
fragment-addressable archive (one object per fragment; pass
``--sharded`` for the hashed fan-out layout) and records the dataset
manifest (shapes, value ranges) that Algorithm 2 needs.  ``ingest`` runs
the same streaming engine against archives that already exist:
variables are refactored on ``--workers`` parallel encode threads and
flushed with byte-balanced coalesced commits (``--flush-bytes``),
adding or replacing variables — or appending ``--timestep`` qualified
steps — without rewriting untouched fragments.  ``retrieve`` runs the
QoI-preserved retrieval loop against the archive — lazily loaded, one
coalesced store round trip per fetching round — and writes the
reconstructed variables plus a JSON report of the guaranteed errors.
``serve`` exposes the archive to many concurrent clients over TCP behind
a shared fragment cache (``--metrics-port`` adds the HTTP operability
sidecar serving Prometheus ``/metrics`` and a JSON ``/health`` probe);
``client`` runs one retrieval against a running server; ``stats`` prints
either a running server's live counters (store reads/round trips and
puts/bytes written, cache hit/miss/eviction rates, per-tier hit
counters for tiered backends, WAL durability counters) or a static
summary of an archive.  ``compact`` rewrites an archive's commit log
and unlinks tombstoned fragment files (dead bytes accumulate from
replaced/deleted variables; see docs/durability.md).

Everywhere a command takes ``--archive`` (or ``archive --out``), it
accepts either a directory path or a store URL — ``file://``,
``sharded://``, ``memory://``, ``http://host:port`` (a running
``HTTPFragmentServer``), ``tiered://fast?slow=...`` (the tiered
fabric), or ``cluster://host:port,host:port?replicas=2`` (the scale-out
fabric; see ``docs/storage.md`` and ``docs/cluster.md`` for the
grammars).  Retries and circuit breakers are set in that URL too
(``http://host:port?retries=4&breaker=5``; on ``tiered://`` they guard
the slow tier, on ``cluster://`` each node).

QoI specs: ``identity`` (1 field), ``vtot`` (3 fields), ``temperature``
(pressure, density), ``mach`` (5 fields), ``product`` (>= 2 fields).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.compressors.base import make_refactorer
from repro.core.ingest import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_INGEST_WORKERS,
    ingest_dataset,
    update_manifest,
)
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, QoIRetriever
from repro.service.server import RetrievalServer, ServiceClient
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.cache import DEFAULT_CACHE_BYTES
from repro.storage.metadata import DatasetManifest
from repro.storage.store import (
    open_directory_store,
    open_store,
    parse_bytes,
    split_store_url,
)
from repro.storage.cluster import ClusterFragmentStore
from repro.storage.tiered import TieredStore

#: Kept as the public CLI name for the shared spec parser.
build_qoi = qoi_from_spec


def _load_variables(pairs) -> dict:
    """Parse ``name=path.npy`` CLI arguments into ``{name: ndarray}``."""
    variables = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected name=path.npy, got {pair!r}")
        name, path = pair.split("=", 1)
        variables[name] = np.load(path)
    return variables


def _cmd_archive(args) -> int:
    variables = _load_variables(args.variables)
    scheme, rest = split_store_url(args.out)
    if scheme is not None:  # archive straight into any URL-addressed backend
        if getattr(args, "sharded", False):
            raise SystemExit(
                "--sharded only applies to plain directory paths; "
                f"use a sharded:// URL instead of {args.out!r}"
            )
        store = open_store(args.out)
        dataset = os.path.basename(rest.partition("?")[0].rstrip("/")) or "dataset"
    else:
        store = open_directory_store(args.out, sharded=getattr(args, "sharded", False))
        dataset = os.path.basename(args.out.rstrip("/")) or "dataset"
    manifest = DatasetManifest(dataset=dataset)
    report = ingest_dataset(store, variables, make_refactorer(args.method))
    update_manifest(manifest, store, variables, args.method, report)
    manifest.save_to(store)
    store.close()  # releases connections; no-op for local stores
    total = sum(report.archived_bytes.values())
    raw = sum(v.nbytes for v in variables.values())
    print(f"archived {len(variables)} variable(s) with {args.method}: "
          f"{total / 1e6:.2f} MB ({raw / 1e6:.2f} MB raw) -> {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    variables = _load_variables(args.variables)
    store = open_store(args.archive)
    try:
        manifest = DatasetManifest.load_from(store)
    except KeyError:  # first ingest into a fresh (or manifest-less) archive
        scheme, rest = split_store_url(args.archive)
        path = (rest if scheme is not None else args.archive).partition("?")[0]
        manifest = DatasetManifest(
            dataset=os.path.basename(path.rstrip("/")) or "dataset"
        )
    report = ingest_dataset(
        store,
        variables,
        make_refactorer(args.method),
        workers=args.workers,
        flush_bytes=parse_bytes(args.flush_bytes),
        timestep=args.timestep,
    )
    update_manifest(
        manifest, store, variables, args.method, report, timestep=args.timestep
    )
    manifest.save_to(store)
    store.close()  # releases connections; no-op for local stores
    superseded = (
        f", {report.superseded} superseded fragment(s) tombstoned"
        if report.superseded else ""
    )
    print(f"ingested {len(variables)} variable(s) with {args.method}: "
          f"{report.fragments} fragment(s) ({report.bytes_written / 1e6:.2f} MB) "
          f"in {report.flushes} batched flush(es), {report.seconds:.2f}s"
          f"{superseded} -> {args.archive}")
    return 0


def _load_manifest(archive_dir: str) -> tuple:
    store = open_store(archive_dir)  # stores reindex themselves on reopen
    manifest = DatasetManifest.load_from(store)
    return store, manifest


def _cmd_info(args) -> int:
    _, manifest = _load_manifest(args.archive)
    print(f"dataset: {manifest.dataset}")
    for name, meta in sorted(manifest.variables.items()):
        print(f"  {name}: shape={meta.shape} dtype={meta.dtype} "
              f"compressor={meta.compressor} archived={meta.total_bytes}B "
              f"range=[{meta.value_min:.6g}, {meta.value_max:.6g}]")
    return 0


def _cmd_retrieve(args) -> int:
    store, manifest = _load_manifest(args.archive)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    qoi = build_qoi(args.qoi, fields)
    missing = [f for f in fields if f not in manifest.variables]
    if missing:
        raise SystemExit(f"fields not in archive: {missing}")
    refactored = Archive(store).load_dataset(fields)
    retriever = QoIRetriever(refactored, manifest.value_ranges())
    request = QoIRequest(args.qoi, qoi, args.tolerance, args.qoi_range)
    result = retriever.retrieve(
        [request],
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1000.0,
    )

    os.makedirs(args.out, exist_ok=True)
    for name, data in result.data.items():
        np.save(os.path.join(args.out, f"{name}.npy"), data)
    report = {
        "qoi": args.qoi,
        "fields": fields,
        "tolerance": args.tolerance,
        "qoi_range": args.qoi_range,
        "satisfied": result.all_satisfied,
        "estimated_error": result.estimated_errors[args.qoi],
        "rounds": result.rounds,
        "bytes_retrieved": result.total_bytes,
        "degraded": result.degraded,
        "degraded_reason": result.degraded_reason,
    }
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    if result.degraded:
        status = f"DEGRADED ({result.degraded_reason})"
    elif result.all_satisfied:
        status = "satisfied"
    else:
        status = "NOT satisfied (representation exhausted)"
    print(f"retrieved {result.total_bytes} B in {result.rounds} round(s); "
          f"guaranteed QoI error {result.estimated_errors[args.qoi]:.3e} "
          f"({status}) -> {args.out}")
    store.close()
    return 0 if result.all_satisfied else 2


def _print_tier_stats(tiers: dict) -> None:
    """Print one tiered backend's per-tier counter block."""
    print(f"tiers: fast {tiers['fast_hits']} hit(s) "
          f"({tiers['fast_bytes_served']} B, {tiers['fast_round_trips']} trip(s)) / "
          f"slow {tiers['slow_hits']} hit(s) "
          f"({tiers['slow_bytes_served']} B, {tiers['slow_round_trips']} trip(s))")
    print(f"  fast resident: {tiers['fast_resident_bytes']} B; "
          f"{tiers['degraded_batches']} degraded batch(es)")


def _print_cluster_stats(cluster: dict) -> None:
    """Print one cluster backend's aggregate and per-node counter block."""
    print(f"cluster: {cluster['nodes']} node(s), "
          f"replicas={cluster['replicas']}, vnodes={cluster['vnodes']}")
    print(f"  failovers: {cluster['failovers']} read(s), "
          f"{cluster['write_failovers']} write(s)")
    for name in sorted(cluster.get("per_node", {})):
        node = cluster["per_node"][name]
        flags = " [breaker open]" if node.get("breaker_is_open") else ""
        print(f"  {name} ({node['url']}): {node['requests']} request(s), "
              f"{node['fragments_served']} served ({node['bytes_read']} B), "
              f"{node['puts']} put(s) ({node['bytes_written']} B), "
              f"{node['failovers']} failover(s){flags}")


def _print_durability(d: dict) -> None:
    """Print the WAL durability counter block of ``repro stats``."""
    print(f"durability: {d['wal_commits']} WAL commit(s) "
          f"({d['wal_entries']} entrie(s), log {d['log_bytes']} B); "
          f"{d['tombstones']} tombstone(s), {d['dead_bytes']} dead B")
    print(f"  compaction: {d['compactions']} run(s), "
          f"{d['reclaimed_bytes']} B reclaimed")


def _cmd_stats(args) -> int:
    if args.archive is not None:
        store = open_store(args.archive)
        archive = Archive(store)
        variables = archive.variables()
        print(f"archive: {args.archive} ({type(store).__name__})")
        print(f"  variables: {len(variables)}")
        print(f"  fragments: {len(store.keys())}")
        print(f"  archived bytes: {store.nbytes()}")
        print(f"  writes this handle: {store.puts} put(s) in "
              f"{store.put_round_trips} round trip(s), {store.bytes_written} B")
        for name in variables:
            print(f"    {name}: {len(store.segments(name))} segment(s), "
                  f"{store.nbytes(name)} B")
        from dataclasses import asdict

        if isinstance(store, TieredStore):
            _print_tier_stats(asdict(store.stats()))
        if isinstance(store, ClusterFragmentStore):
            _print_cluster_stats(asdict(store.stats()))
        _print_durability(asdict(store.durability()))
        store.close()
        return 0
    try:
        client_ctx = ServiceClient(args.host, args.port)
    except OSError as exc:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {exc} "
            f"(pass --archive DIR for a static archive summary)"
        )
    with client_ctx as client:
        stats = client.stats()
    cache = stats["cache"]
    print(f"sessions: {stats['sessions_active']} active / "
          f"{stats['sessions_opened']} opened; "
          f"variables loaded: {stats['variables_loaded']}")
    print(f"store: {stats['store_reads']} fragment read(s) in "
          f"{stats['store_round_trips']} round trip(s), "
          f"{stats['store_bytes_read']} B")
    print(f"  writes: {stats['store_puts']} put(s) in "
          f"{stats['store_put_round_trips']} round trip(s), "
          f"{stats['store_bytes_written']} B; "
          f"{stats['variables_ingested']} variable(s) ingested live")
    requests = cache["hits"] + cache["misses"]
    print(f"cache: {cache['hits']} hit(s) / {cache['misses']} miss(es) "
          f"({100.0 * cache['hit_rate']:.1f}% of {requests} request(s)), "
          f"{cache['evictions']} eviction(s)")
    print(f"  resident: {cache['current_bytes']} / {cache['capacity_bytes']} B; "
          f"served {cache['bytes_from_cache']} B from cache, "
          f"{cache['bytes_from_store']} B from store")
    total = stats.get("io_wait_seconds", 0.0) + stats.get("compute_seconds", 0.0)
    if total > 0:
        print(f"retrieval wall time: {stats['compute_seconds']:.3f}s compute / "
              f"{stats['io_wait_seconds']:.3f}s I/O wait "
              f"({100.0 * stats['compute_seconds'] / total:.1f}% compute) "
              f"over {stats['retrieval_rounds']} round(s)")
    admitted = stats.get("requests_admitted", 0)
    shed = stats.get("requests_shed", 0)
    degraded = stats.get("requests_degraded", 0)
    if admitted or shed or degraded:
        print(f"admission: {admitted} admitted / {shed} shed / "
              f"{degraded} degraded "
              f"({stats.get('requests_inflight', 0)} in flight)")
        if stats.get("worst_degraded_ratio", 0.0) > 0:
            print(f"  worst degraded error/tolerance ratio: "
                  f"{stats['worst_degraded_ratio']:.2f}x")
    planner = stats["planner"]
    lookups = planner["plan_cache_hits"] + planner["plan_cache_misses"]
    print(f"planner: {planner['plan_cache_hits']} plan hit(s) / "
          f"{planner['plan_cache_misses']} miss(es) "
          f"({100.0 * planner['plan_cache_hit_rate']:.1f}% of {lookups} lookup(s)); "
          f"{planner['representations_shared']} shared / "
          f"{planner['representations_loaded']} loaded representation(s)")
    print(f"  answers: {planner['states_shared']} reader state(s) and "
          f"{planner['verdicts_shared']} verdict(s) shared")
    resilience = stats.get("resilience")
    if resilience and resilience.get("attempts"):
        print(f"resilience: {resilience['attempts']} store attempt(s), "
              f"{resilience['retries']} retried, "
              f"{resilience['giveups']} gave up; "
              f"breaker {resilience['breaker_state']} "
              f"({resilience['breaker_opens']} open(s), "
              f"{resilience['breaker_rejections']} rejection(s))")
    if stats.get("tiers"):
        _print_tier_stats(stats["tiers"])
    if stats.get("cluster"):
        _print_cluster_stats(stats["cluster"])
    if stats.get("durability"):
        _print_durability(stats["durability"])
    return 0


def _cmd_serve(args) -> int:
    store = open_store(args.archive)
    service = RetrievalService(
        store,
        cache_bytes=int(args.cache_mb) << 20,
        max_inflight=args.max_inflight,
        client_rate=args.client_rate,
    )
    server = RetrievalServer(service, args.host, args.port)
    host, port = server.address
    metrics = None
    if args.metrics_port is not None:
        from repro.service.metrics import MetricsServer

        metrics = MetricsServer(service, args.host, args.metrics_port).start()
        mhost, mport = metrics.address
        print(f"metrics on http://{mhost}:{mport}/metrics "
              f"(health: http://{mhost}:{mport}/health)")
    print(f"serving {args.archive} on {host}:{port} "
          f"(cache budget {args.cache_mb} MiB); Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if metrics is not None:
            metrics.stop()
        server.server_close()
        service.close()
    return 0


def _cmd_compact(args) -> int:
    if args.archive is not None:
        store = open_store(args.archive)
        try:
            report = store.compact()
        finally:
            store.close()
        target = args.archive
    else:
        try:
            client_ctx = ServiceClient(args.host, args.port)
        except OSError as exc:
            raise SystemExit(
                f"cannot reach server at {args.host}:{args.port}: {exc} "
                f"(pass --archive DIR to compact a local archive)"
            )
        with client_ctx as client:
            from repro.storage.wal import CompactionReport

            report = CompactionReport(**client.compact())
        target = f"{args.host}:{args.port}"
    print(f"compacted {target}: {report.removed_files} dead file(s) unlinked, "
          f"{report.reclaimed_bytes} B reclaimed; "
          f"log {report.log_bytes_before} -> {report.log_bytes_after} B "
          f"({report.live_fragments} live fragment(s))")
    return 0


def _cmd_client(args) -> int:
    from repro.service.server import OverloadedResponse, ServiceError

    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    try:
        client_ctx = ServiceClient(
            args.host, args.port, overload_retries=args.retries
        )
    except OSError as exc:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {exc}"
        )
    with client_ctx as client:
        try:
            response = client.retrieve(
                args.qoi, fields, args.tolerance, args.qoi_range,
                include_data=args.out is not None,
                priority=args.priority,
                deadline_ms=args.deadline_ms,
            )
        except OverloadedResponse as exc:
            raise SystemExit(
                f"server shed the request ({exc.reason}); "
                f"retry after {exc.retry_after_ms:.0f} ms "
                f"(or raise --retries to back off automatically)"
            )
        except ServiceError as exc:
            raise SystemExit(f"server rejected the request: {exc}")
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
            for name, data in response.pop("data", {}).items():
                np.save(os.path.join(args.out, f"{name}.npy"), data)
            report = {
                "qoi": args.qoi,
                "fields": fields,
                "tolerance": args.tolerance,
                "qoi_range": args.qoi_range,
                "satisfied": response["satisfied"],
                "estimated_error": response["estimated_error"],
                "rounds": response["rounds"],
                "bytes_retrieved": response["bytes_retrieved"],
            }
            with open(os.path.join(args.out, "report.json"), "w") as fh:
                json.dump(report, fh, indent=2)
    if response.get("degraded"):
        status = f"DEGRADED ({response.get('degraded_reason')})"
    elif response["satisfied"]:
        status = "satisfied"
    else:
        status = "NOT satisfied (representation exhausted)"
    dest = f" -> {args.out}" if args.out is not None else ""
    print(f"retrieved {response['bytes_retrieved']} B in {response['rounds']} round(s); "
          f"guaranteed QoI error {response['estimated_error']:.3e} ({status}){dest}")
    return 0 if response["satisfied"] else 2


def make_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro", description="QoI-preserving progressive retrieval"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_archive = sub.add_parser("archive", help="refactor variables into an archive")
    p_archive.add_argument("--out", required=True,
                           help="archive directory or store URL (docs/storage.md)")
    p_archive.add_argument(
        "--method", default="pmgard_hb",
        choices=["psz3", "psz3_delta", "pmgard", "pmgard_hb", "pzfp"],
    )
    p_archive.add_argument("variables", nargs="+", metavar="name=path.npy")
    p_archive.add_argument(
        "--sharded", action="store_true",
        help="hashed fan-out directory layout with a persisted index",
    )
    p_archive.set_defaults(func=_cmd_archive)

    p_ingest = sub.add_parser(
        "ingest", help="stream variables into an existing archive in parallel"
    )
    p_ingest.add_argument("--archive", required=True,
                          help="archive directory or store URL (docs/storage.md)")
    p_ingest.add_argument(
        "--method", default="pmgard_hb",
        choices=["psz3", "psz3_delta", "pmgard", "pmgard_hb"],
    )
    p_ingest.add_argument("variables", nargs="+", metavar="name=path.npy")
    p_ingest.add_argument("--workers", type=int, default=DEFAULT_INGEST_WORKERS,
                          help="parallel transform+encode threads (0 encodes serially)")
    p_ingest.add_argument("--flush-bytes", default=str(DEFAULT_FLUSH_BYTES),
                          help="coalesced commit threshold "
                               "(binary suffixes allowed, e.g. 4M)")
    p_ingest.add_argument("--timestep", type=int, default=None,
                          help="append variables as NAME@tNNNN timestep keys")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_info = sub.add_parser("info", help="list archived variables")
    p_info.add_argument("--archive", required=True)
    p_info.set_defaults(func=_cmd_info)

    p_ret = sub.add_parser("retrieve", help="QoI-preserved retrieval")
    p_ret.add_argument("--archive", required=True,
                       help="archive directory or store URL")
    p_ret.add_argument("--qoi", required=True,
                       help="identity | vtot | temperature | mach | product")
    p_ret.add_argument("--fields", required=True, help="comma-separated field names")
    p_ret.add_argument("--tolerance", type=float, required=True,
                       help="relative QoI tolerance (see --qoi-range)")
    p_ret.add_argument("--qoi-range", type=float, default=1.0,
                       help="QoI value range; 1.0 means --tolerance is absolute")
    p_ret.add_argument("--out", required=True, help="output directory")
    p_ret.add_argument("--deadline-ms", type=float, default=None,
                       help="retrieval wall-time budget; on expiry the best "
                            "bounds achieved so far are returned (degraded)")
    p_ret.set_defaults(func=_cmd_retrieve)

    p_serve = sub.add_parser(
        "serve", help="serve an archive to concurrent clients over TCP"
    )
    p_serve.add_argument("--archive", required=True,
                         help="archive directory or store URL")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7117,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--cache-mb", type=int,
                         default=DEFAULT_CACHE_BYTES >> 20,
                         help="shared fragment-cache budget in MiB")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="also serve HTTP /metrics (Prometheus) and "
                              "/health on this port (0 picks one)")
    p_serve.add_argument("--max-inflight", type=int, default=None,
                         help="bound on concurrent retrievals; beyond it "
                              "requests are shed with a retry_after hint "
                              "(default: unbounded)")
    p_serve.add_argument("--client-rate", type=float, default=None,
                         help="per-client token-bucket rate in requests/s "
                              "(default: unlimited)")
    p_serve.set_defaults(func=_cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="store/cache counters of a server or an archive"
    )
    p_stats.add_argument("--archive", default=None,
                         help="print a static summary of this archive directory/URL")
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, default=7117,
                         help="query a running server's live counters")
    p_stats.set_defaults(func=_cmd_stats)

    p_compact = sub.add_parser(
        "compact", help="reclaim tombstoned bytes from an archive's commit log"
    )
    p_compact.add_argument("--archive", default=None,
                           help="compact this archive directory/URL in-process")
    p_compact.add_argument("--host", default="127.0.0.1")
    p_compact.add_argument("--port", type=int, default=7117,
                           help="or ask a running server to compact its store")
    p_compact.set_defaults(func=_cmd_compact)

    p_client = sub.add_parser(
        "client", help="QoI-preserved retrieval against a running server"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7117)
    p_client.add_argument("--qoi", required=True,
                          help="identity | vtot | temperature | mach | product")
    p_client.add_argument("--fields", required=True, help="comma-separated field names")
    p_client.add_argument("--tolerance", type=float, required=True,
                          help="relative QoI tolerance (see --qoi-range)")
    p_client.add_argument("--qoi-range", type=float, default=1.0,
                          help="QoI value range; 1.0 means --tolerance is absolute")
    p_client.add_argument("--out", default=None,
                          help="save reconstructed fields + report here")
    p_client.add_argument("--priority", type=int, default=0,
                          help="request priority (negative = shed first "
                               "under overload)")
    p_client.add_argument("--deadline-ms", type=float, default=None,
                          help="server-side retrieval deadline; on expiry "
                               "the response is degraded with best bounds")
    p_client.add_argument("--retries", type=int, default=0,
                          help="re-issue a shed request this many times, "
                               "honoring the server's retry_after hint")
    p_client.set_defaults(func=_cmd_client)
    return parser


def main(argv=None) -> int:
    """Parse *argv* (default ``sys.argv[1:]``), run the command, return its exit code."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into e.g. `head`; exiting quietly is the polite
        # Unix behavior (stderr still works for real errors)
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
