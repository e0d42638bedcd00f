#!/usr/bin/env python
"""Streaming ingestion engine benchmark: the tracked write-path trajectory.

PR 3/4 made the *read* side batched and tiered; this harness tracks the
write side the same way.  It measures end-to-end dataset ingestion
(refactor every variable, archive every fragment, write the manifest) in
two configurations:

* **serial** — the seed-era loop: ``refactor_dataset`` encodes one
  variable at a time and ``Archive.save`` issues one blocking
  ``store.put`` per fragment, and
* **pipelined** — :mod:`repro.core.ingest`: transform+encode workers run
  in parallel per variable and finished fragments stream out in
  byte-balanced coalesced ``put_many`` flushes that overlap encoding,

against a latency-simulated remote store
(:class:`~repro.storage.transfer.LatencyFragmentStore` with
``write_latency`` enabled — every write round trip pays the latency, a
batched flush pays it once).  The two archives are verified
**bit-identical** (same fragment keys, same payload bytes, same
manifest) for *every* archivable compressor, and an incremental-update
scenario measures re-saving a variable (superseded fragments
tombstoned), appending a timestep to a live archive, and whether the
bytes an append writes grow with the archive (``append_bytes_growth``).

Results append to ``BENCH_ingest.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_ingest_pipeline.py [--quick]

``--quick`` shrinks the dataset and the simulated latency (~seconds
total) and is what CI runs; full runs use 64^3 variables and are the
numbers quoted in docs/performance.md (>= 2x end-to-end, >= 5x fewer
put round trips).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.compressors.base import make_refactorer
from repro.core.ingest import ingest_dataset, update_manifest
from repro.core.retrieval import refactor_dataset
from repro.storage.archive import Archive
from repro.storage.metadata import DatasetManifest, VariableMetadata
from repro.storage.store import FragmentStore, ShardedDiskStore
from repro.storage.transfer import LatencyFragmentStore
from repro.utils.fragment_keys import timestep_variable

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_ingest.json"

#: Engine knobs exercised by the pipelined configuration.
WORKERS = 4
FLUSH_BYTES = 1 << 20

#: Every representation Archive.save / encode_fragments can persist.
COMPRESSORS = ("psz3", "psz3_delta", "pmgard", "pmgard_hb")


def _field(shape, seed=0):
    """Smooth structured field + fine-scale noise (laptop CFD stand-in)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 4 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    field = sum(np.sin(g + 0.7 * i) for i, g in enumerate(grids))
    return field * 1e2 + 2.0 * rng.standard_normal(shape)


def _fields(quick, num=3):
    shape = (24, 24, 24) if quick else (64, 64, 64)
    return {f"v{k}": _field(shape, seed=k) for k in range(num)}


def _contents(store) -> dict:
    """Everything retrievable from a store: ``{key: payload}``."""
    return {key: store.get(*key) for key in store.keys()}


def _assert_identical(a, b, context) -> None:
    if set(a) != set(b):
        raise AssertionError(f"{context}: fragment key sets diverged "
                             f"(+{sorted(set(b) - set(a))[:3]} "
                             f"-{sorted(set(a) - set(b))[:3]})")
    for key, payload in a.items():
        if payload != b[key]:
            raise AssertionError(f"{context}: payload of {key} diverged")


def _serial_ingest(store, fields, method) -> None:
    """The seed-era write path: one put per fragment, one variable at a time."""
    refactored = refactor_dataset(fields, make_refactorer(method))
    archive = Archive(store)
    manifest = DatasetManifest(dataset="bench")
    for name, data in fields.items():
        # atomic=False: the seed-era baseline really did one put per
        # fragment; the default batched save would erase the very gap
        # this benchmark measures
        archive.save(name, refactored[name], atomic=False)
        manifest.add(VariableMetadata.from_array(
            name, data, method, refactored[name].total_bytes,
            segments=store.segments(name),
        ))
    manifest.save_to(store)


def _parallel_ingest(store, fields, method) -> None:
    """The streaming engine with the same manifest bookkeeping."""
    report = ingest_dataset(
        store, fields, make_refactorer(method),
        workers=WORKERS, flush_bytes=FLUSH_BYTES,
    )
    manifest = DatasetManifest(dataset="bench")
    update_manifest(manifest, store, fields, method, report)
    manifest.save_to(store)


def bench_identity(quick) -> dict:
    """Bit-identity of parallel vs serial archives, per compressor."""
    fields = {f"v{k}": _field((12, 12, 12) if quick else (24, 24, 24), seed=k)
              for k in range(3)}
    out = {}
    for method in COMPRESSORS:
        serial, parallel = FragmentStore(), FragmentStore()
        _serial_ingest(serial, fields, method)
        _parallel_ingest(parallel, fields, method)
        _assert_identical(
            _contents(serial), _contents(parallel), f"identity/{method}"
        )
        out[method] = {
            "identical": True,
            "fragments": len(serial.keys()),
            "bytes": serial.nbytes(),
        }
    return out


def bench_remote(tmp, quick) -> dict:
    """Wall-clock and round-trip economics on a latency-simulated store."""
    fields = _fields(quick)
    latency = 0.001 if quick else 0.002
    method = "pmgard_hb"

    def run(parallel, tag):
        root = Path(tmp) / f"remote-{tag}"
        store = LatencyFragmentStore(
            ShardedDiskStore(str(root), fanout=64),
            latency=latency, bandwidth=2e9, write_latency=latency,
        )
        t0 = time.perf_counter()
        (_parallel_ingest if parallel else _serial_ingest)(store, fields, method)
        return store, time.perf_counter() - t0

    serial_store, serial_s = run(parallel=False, tag="serial")
    piped_store, piped_s = run(parallel=True, tag="piped")
    _assert_identical(
        _contents(serial_store.inner), _contents(piped_store.inner), "remote"
    )
    return {
        "write_latency": latency,
        "variables": len(fields),
        "fragments": len(serial_store.inner.keys()),
        "bytes_written": serial_store.bytes_written,
        "serial": {
            "seconds": serial_s,
            "puts": serial_store.puts,
            "put_round_trips": serial_store.put_round_trips,
            "bytes_written": serial_store.bytes_written,
        },
        "pipelined": {
            "seconds": piped_s,
            "puts": piped_store.puts,
            "put_round_trips": piped_store.put_round_trips,
            "bytes_written": piped_store.bytes_written,
        },
        "speedup": serial_s / piped_s,
        "put_trip_reduction": (
            serial_store.put_round_trips / max(1, piped_store.put_round_trips)
        ),
        "identical": True,
    }


def bench_incremental(tmp, quick) -> dict:
    """Incremental updates: replace one variable, append one timestep."""
    fields = _fields(quick)
    root = Path(tmp) / "incremental"
    store = ShardedDiskStore(str(root), fanout=64)
    _parallel_ingest(store, fields, "pmgard_hb")
    baseline_puts = store.puts
    fragments_before = len(store.keys())

    # replace v0 with a representation holding fewer fragments: every
    # superseded segment must be tombstoned, untouched variables unwritten
    replace = ingest_dataset(
        store, {"v0": fields["v0"]},
        make_refactorer("pmgard_hb", num_planes=12),
        workers=WORKERS, flush_bytes=FLUSH_BYTES,
    )
    replace_puts = store.puts - baseline_puts
    if replace_puts != replace.fragments:
        raise AssertionError("replace rewrote fragments outside the target variable")

    # append a new timestep of v0: purely additive
    append = ingest_dataset(
        store, {"v0": _field(fields["v0"].shape, seed=99)},
        make_refactorer("pmgard_hb"),
        workers=WORKERS, flush_bytes=FLUSH_BYTES, timestep=1,
    )

    # a reopened store must agree exactly (tombstones replayed)
    reopened = ShardedDiskStore(str(root))
    _assert_identical(_contents(store), _contents(reopened), "incremental/reopen")
    if reopened.nbytes() != store.nbytes():
        raise AssertionError("incremental: nbytes diverged across reopen")
    step_var = timestep_variable("v0", 1)
    fragments_after = len(store.keys())

    # 20 more appends of one array, manifest bookkeeping included: the
    # bytes an append writes must not grow with the archive behind it
    manifest = DatasetManifest.load_from(store)
    step = {"v0": fields["v0"]}
    appended = []
    for timestep in range(2, 22):
        before = store.bytes_written
        report = ingest_dataset(
            store, step, make_refactorer("pmgard_hb"),
            workers=WORKERS, flush_bytes=FLUSH_BYTES, timestep=timestep,
        )
        update_manifest(manifest, store, step, "pmgard_hb", report, timestep=timestep)
        manifest.save_to(store)
        appended.append(store.bytes_written - before)
    return {
        "fragments_before": fragments_before,
        "fragments_after": fragments_after,
        "append_bytes_growth": appended[-1] / appended[1],
        "replace_superseded": replace.superseded,
        "replace_puts": replace_puts,
        "append_fragments": append.fragments,
        "append_variable": step_var,
        "timestep_segments": len(store.segments(step_var)),
        "identical_across_reopen": True,
    }


def bench_executor_encode(quick) -> dict:
    """Encode scaling: thread-pool workers vs the process kernel executor.

    Same dataset, same manifest bookkeeping; one archive is encoded by
    the in-process thread pool, the other by shared-memory process
    workers running the ``ingest_encode`` kernel (arrays handed over as
    arena slabs, not pickles).  Archives must be bit-identical;
    ``cores`` is recorded so scaling gates can skip single-core boxes.
    """
    from repro.parallel.executor import ProcessKernelExecutor

    fields = _fields(quick)
    method = "pmgard_hb"
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    def run(executor):
        store = FragmentStore()
        t0 = time.perf_counter()
        report = ingest_dataset(
            store, fields, make_refactorer(method),
            workers=WORKERS, flush_bytes=FLUSH_BYTES, executor=executor,
        )
        manifest = DatasetManifest(dataset="bench")
        update_manifest(manifest, store, fields, method, report)
        manifest.save_to(store)
        return store, time.perf_counter() - t0

    thread_store, thread_s = run(None)
    executor = ProcessKernelExecutor(workers=workers)
    try:
        proc_store, proc_s = run(executor)
        stats = executor.stats()
    finally:
        executor.close()
    _assert_identical(
        _contents(thread_store), _contents(proc_store), "executor_encode"
    )
    return {
        "variables": len(fields),
        "cores": cores,
        "workers": workers,
        "fragments": len(thread_store.keys()),
        "thread_pool": {"seconds": thread_s},
        "process_executor": {
            "seconds": proc_s,
            "tasks": stats.tasks,
            "fallbacks": stats.fallbacks,
        },
        "speedup": thread_s / proc_s,
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
        scenarios = [
            ("identity", lambda: bench_identity(args.quick)),
            ("remote_ingest", lambda: bench_remote(tmp, args.quick)),
            ("incremental_update", lambda: bench_incremental(tmp, args.quick)),
            ("executor_encode", lambda: bench_executor_encode(args.quick)),
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
        "workers": WORKERS,
        "flush_bytes": FLUSH_BYTES,
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

    m = metrics["remote_ingest"]
    print(
        f"remote_ingest: {m['speedup']:.2f}x end-to-end, "
        f"{m['serial']['put_round_trips']} -> "
        f"{m['pipelined']['put_round_trips']} put round trips "
        f"({m['put_trip_reduction']:.0f}x) for {m['fragments']} fragments"
    )
    inc = metrics["incremental_update"]
    print(
        f"incremental_update: {inc['replace_superseded']} superseded fragment(s) "
        f"tombstoned on replace, +{inc['append_fragments']} appended as "
        f"{inc['append_variable']}"
    )
    ee = metrics["executor_encode"]
    print(
        f"executor_encode: {ee['speedup']:.2f}x process executor vs thread pool "
        f"({ee['workers']} workers on {ee['cores']} cores), "
        f"{ee['process_executor']['fallbacks']} fallbacks"
    )
    print(f"identity: bit-identical for {', '.join(COMPRESSORS)}")
    print(f"trajectory appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
