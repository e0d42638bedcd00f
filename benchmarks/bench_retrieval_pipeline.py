#!/usr/bin/env python
"""Pipelined retrieval engine benchmark: the tracked end-to-end trajectory.

PR 2 made the encode/decode kernels fast; this harness tracks what that
exposed — the *round loop* itself.  It measures end-to-end QoI retrieval
(open archived variables, run a tolerance ladder to completion) in two
configurations:

* **serial** — the pre-engine behavior: eager per-fragment loads (one
  ``store.get`` round trip per fragment) and an inert pipeline, and
* **pipelined** — lazy loads plus the batched fetch/decode engine:
  each round's planned fragment set moves in coalesced ``get_many``
  batches, with the predicted next round prefetched during estimation,

over three store tiers: the local sharded disk store, the same store
behind a simulated remote link (:class:`LatencyFragmentStore`, 2 ms per
round trip / 2 GB/s — an object-store-like cost model with real sleeps),
and a multi-client :class:`RetrievalService` with a shared fragment
cache (cold pass and warm pass, 1 and 6 concurrent clients).

Every serial/pipelined pair is verified **bit-identical** (same
reconstructions, same achieved error bounds, same retrieved bytes) —
the engine reshapes store traffic, never results.  Results append to
``BENCH_retrieval.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_retrieval_pipeline.py [--quick]

``--quick`` shrinks the dataset and the simulated latency (~seconds
total) and is what CI runs; full runs use 96^3 variables and are the
numbers quoted in docs/performance.md (>= 2x cold-cache end-to-end on
the remote ladder, ~20-50x fewer store round trips everywhere).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.compressors.base import make_refactorer
from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.store import ShardedDiskStore
from repro.storage.transfer import LatencyFragmentStore

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_retrieval.json"

#: Pipeline knobs exercised by the pipelined configuration.
PIPELINE_DEPTH = 2
MAX_WORKERS = 4


def _field(shape, seed=0):
    """Smooth structured field + fine-scale noise (laptop CFD stand-in)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 4 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    field = sum(np.sin(g + 0.7 * i) for i, g in enumerate(grids))
    return field * 1e2 + 2.0 * rng.standard_normal(shape)


def _build_archive(tmp, quick):
    shape = (32, 32, 32) if quick else (96, 96, 96)
    fields = {f"v{k}": _field(shape, seed=k) for k in range(3)}
    ranges = {k: float(np.max(v) - np.min(v)) for k, v in fields.items()}
    refactored = refactor_dataset(
        fields, make_refactorer("pmgard_hb", num_planes=40)
    )
    store = ShardedDiskStore(str(Path(tmp) / "archive"), fanout=64)
    archive = Archive(store)
    archive.save_dataset(refactored)
    qoi = qoi_from_spec("vtot", sorted(fields))
    env = {k: (v, 0.0) for k, v in fields.items()}
    qoi_range = float(np.ptp(qoi.value(env)))
    return str(Path(tmp) / "archive"), sorted(fields), ranges, qoi, qoi_range


def _ladder(quick):
    return [1e-2, 1e-3] if quick else [1e-2, 1e-3, 1e-4]


def _assert_identical(a, b, context):
    for ra, rb in zip(a, b):
        if ra.estimated_errors != rb.estimated_errors:
            raise AssertionError(f"{context}: estimated errors diverged")
        if ra.final_ebs != rb.final_ebs:
            raise AssertionError(f"{context}: achieved bounds diverged")
        if ra.total_bytes != rb.total_bytes:
            raise AssertionError(f"{context}: retrieved bytes diverged")
        for name in ra.data:
            if not np.array_equal(ra.data[name], rb.data[name]):
                raise AssertionError(f"{context}: reconstruction of {name} diverged")


def _open_store(archive_dir, remote, quick):
    store = ShardedDiskStore(archive_dir)
    if remote:
        latency = 0.0005 if quick else 0.002
        store = LatencyFragmentStore(store, latency=latency, bandwidth=2e9)
    return store


def bench_single(archive_dir, fields, ranges, qoi, qoi_range, quick, remote):
    """One analyst, one store handle: the CLI ``retrieve`` shape."""
    ladder = _ladder(quick)

    def run(pipelined):
        store = _open_store(archive_dir, remote, quick)
        archive = Archive(store)
        t0 = time.perf_counter()
        loaded = archive.load_dataset(fields, lazy=pipelined)
        retriever = QoIRetriever(
            loaded, ranges,
            pipeline_depth=PIPELINE_DEPTH if pipelined else 0,
            max_workers=MAX_WORKERS if pipelined else 0,
        )
        session = retriever.session()
        results = [
            session.retrieve([QoIRequest("vtot", qoi, tol, qoi_range)])
            for tol in ladder
        ]
        elapsed = time.perf_counter() - t0
        return results, elapsed, store

    # two timed runs per configuration, best-of (single-run wall clock on
    # a shared box is ±20%; the store counters are deterministic)
    serial_res, serial_s, serial_store = run(pipelined=False)
    _, serial_s2, _ = run(pipelined=False)
    serial_s = min(serial_s, serial_s2)
    piped_res, piped_s, piped_store = run(pipelined=True)
    _, piped_s2, _ = run(pipelined=True)
    piped_s = min(piped_s, piped_s2)
    _assert_identical(serial_res, piped_res, "single/" + ("remote" if remote else "local"))
    rounds = sum(r.rounds for r in serial_res)
    return {
        "tolerance_ladder": ladder,
        "rounds": rounds,
        "all_satisfied": all(r.all_satisfied for r in serial_res),
        "retrieved_bytes": serial_res[-1].total_bytes,
        "serial": {
            "seconds": serial_s,
            "rounds_per_s": rounds / serial_s,
            "store_round_trips": serial_store.round_trips,
            "store_reads": serial_store.reads,
            "store_bytes_read": serial_store.bytes_read,
        },
        "pipelined": {
            "seconds": piped_s,
            "rounds_per_s": rounds / piped_s,
            "store_round_trips": piped_store.round_trips,
            "store_reads": piped_store.reads,
            "store_bytes_read": piped_store.bytes_read,
        },
        "speedup": serial_s / piped_s,
        "round_trip_reduction": serial_store.round_trips / max(1, piped_store.round_trips),
        "identical": True,
    }


def bench_service(archive_dir, fields, ranges, qoi, qoi_range, quick, num_clients):
    """Concurrent clients over one service + shared cache, cold then warm."""
    ladder = _ladder(quick)

    def client_run(service, results_sink):
        with service.open_session() as session:
            out = [
                session.retrieve([QoIRequest("vtot", qoi, tol, qoi_range)])
                for tol in ladder
            ]
        results_sink.append(out)

    def run(pipelined):
        store = _open_store(archive_dir, remote=True, quick=quick)
        service = RetrievalService(
            store,
            value_ranges=ranges,
            pipeline_depth=PIPELINE_DEPTH if pipelined else 0,
            max_workers=MAX_WORKERS if pipelined else 0,
            lazy_loading=pipelined,
        )

        def pass_once():
            results: list = []
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=num_clients) as pool:
                futures = [
                    pool.submit(client_run, service, results)
                    for _ in range(num_clients)
                ]
                for future in futures:
                    future.result()  # surface client failures, never record partial runs
            return results, time.perf_counter() - t0

        cold_results, cold_s = pass_once()
        # warm passes hit the shared cache only; best-of-2 for stability
        _, warm_a = pass_once()
        _, warm_b = pass_once()
        return cold_results, cold_s, min(warm_a, warm_b), store, service

    s_cold, s_cold_s, s_warm_s, s_store, _ = run(pipelined=False)
    p_cold, p_cold_s, p_warm_s, p_store, _ = run(pipelined=True)
    _assert_identical(s_cold[0], p_cold[0], f"service/{num_clients}clients")
    rounds = sum(r.rounds for r in s_cold[0])
    return {
        "clients": num_clients,
        "tolerance_ladder": ladder,
        "rounds_per_client": rounds,
        "serial": {
            "cold_seconds": s_cold_s,
            "warm_seconds": s_warm_s,
            "store_round_trips": s_store.round_trips,
            "store_reads": s_store.reads,
            "store_bytes_read": s_store.bytes_read,
        },
        "pipelined": {
            "cold_seconds": p_cold_s,
            "warm_seconds": p_warm_s,
            "store_round_trips": p_store.round_trips,
            "store_reads": p_store.reads,
            "store_bytes_read": p_store.bytes_read,
        },
        "cold_speedup": s_cold_s / p_cold_s,
        "warm_speedup": s_warm_s / p_warm_s,
        "round_trip_reduction": s_store.round_trips / max(1, p_store.round_trips),
        "identical": True,
    }


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny sizes (CI smoke)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON trajectory file")
    args = parser.parse_args(argv)

    metrics = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive_dir, fields, ranges, qoi, qoi_range = _build_archive(tmp, args.quick)
        scenarios = [
            ("local_single", lambda: bench_single(
                archive_dir, fields, ranges, qoi, qoi_range, args.quick, remote=False)),
            ("remote_single", lambda: bench_single(
                archive_dir, fields, ranges, qoi, qoi_range, args.quick, remote=True)),
            ("remote_service_1client", lambda: bench_service(
                archive_dir, fields, ranges, qoi, qoi_range, args.quick, num_clients=1)),
            ("remote_service_6clients", lambda: bench_service(
                archive_dir, fields, ranges, qoi, qoi_range, args.quick, num_clients=6)),
        ]
        for name, fn in scenarios:
            t0 = time.perf_counter()
            metrics[name] = fn()
            print(f"[{name}] done in {time.perf_counter() - t0:.1f}s", flush=True)

    run = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git": _git_rev(),
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pipeline_depth": PIPELINE_DEPTH,
        "max_workers": MAX_WORKERS,
        "metrics": metrics,
    }

    doc = {"schema": 1, "runs": []}
    if args.out.exists():
        try:
            doc = json.loads(args.out.read_text())
        except (ValueError, OSError):
            pass
    doc.setdefault("runs", []).append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")

    for name in ("local_single", "remote_single"):
        m = metrics[name]
        print(
            f"{name}: {m['speedup']:.2f}x end-to-end, "
            f"{m['serial']['store_round_trips']} -> "
            f"{m['pipelined']['store_round_trips']} round trips "
            f"({m['round_trip_reduction']:.0f}x), "
            f"{m['pipelined']['rounds_per_s']:.1f} rounds/s"
        )
    for name in ("remote_service_1client", "remote_service_6clients"):
        m = metrics[name]
        print(
            f"{name}: cold {m['cold_speedup']:.2f}x / warm {m['warm_speedup']:.2f}x, "
            f"{m['serial']['store_round_trips']} -> "
            f"{m['pipelined']['store_round_trips']} round trips"
        )
    print(f"trajectory appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
