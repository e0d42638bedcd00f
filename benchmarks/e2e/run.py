#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads, named metrics.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out F] [--workdir D]

Without ``--trace`` a workload is set up several times (``setup_s`` is
the median), its fixed op list runs with no instrumentation beyond a
counting store proxy (once; twice, each on a fresh archive, for
``ingest_live``), every answer is checked against the generated
originals, and the end-to-end metrics are printed.  With ``--trace 1``
the op list runs twice at half length — plain, then with spans recorded
from this directory's own wrappers — to produce the per-layer metrics,
the ledger, and the cost of tracing itself; end-to-end metrics are never
taken from the traced pass.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md has the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from e2elib import spec  # noqa: E402  (stdlib only; the rest is imported in main)

UNITS = {name: unit for name, unit, _ in spec.END_TO_END}
UNITS.update({name: unit for name, unit, *_ in spec.PER_LAYER})
UNITS["failed_share"] = "share"
DEFAULT_WORKDIR = str(ROOT / ".bench_work")


def _set_up(cls, seed, sizes, workdir, tracer=None):
    """A set-up workload and the seconds its set-up took."""
    workload = cls(seed, sizes, workdir, tracer)
    start = perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.teardown()
        raise
    return workload, perf_counter() - start


def _rehearse(cls, seed, sizes, workdir) -> float:
    """Set up and tear down without running; returns the set-up seconds."""
    os.makedirs(workdir)
    workload, seconds = _set_up(cls, seed, sizes, workdir)
    workload.teardown()
    shutil.rmtree(workdir, ignore_errors=True)
    return seconds


def _run_once(cls, seed, sizes, workdir, tracer=None):
    """Set up, run the op list, tear down: ``(workload, outcome, setup_s)``."""
    os.makedirs(workdir)
    workload, setup_s = _set_up(cls, seed, sizes, workdir, tracer)
    try:
        return workload, workload.run(), setup_s
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cls, seed: int, sizes: dict, workdir: str) -> dict:
    """The untraced run: end-to-end metrics of one workload.

    ``sizes["setups"]`` set-ups, the last ``sizes["passes"]`` of which go
    on to run the op list; ``setup_s`` is the median over all of them.
    """
    from e2elib import layers

    setup_times = [
        _rehearse(cls, seed, sizes, os.path.join(workdir, f"setup{attempt}"))
        for attempt in range(sizes["setups"] - sizes["passes"])
    ]
    passes = []
    for attempt in range(sizes["passes"]):
        _, outcome, seconds = _run_once(cls, seed, sizes, os.path.join(workdir, f"run{attempt}"))
        passes.append(outcome)
        setup_times.append(seconds)
    return {
        "ops": [op for outcome in passes for op in outcome.ops],
        "end_to_end": layers.end_to_end(passes, statistics.median(setup_times)),
        "per_layer": None,
        "transparent": True,
        "spans": None,
    }


def trace(cls, seed: int, sizes: dict, workdir: str, rehearse: bool) -> dict:
    """The traced run: the same op list plain, then with spans recorded."""
    from e2elib import layers
    from e2elib.trace import Tracer

    # the first pass in a process runs slower (allocator and caches are
    # cold); rehearse once, as the untraced run does, so plain and traced
    # are compared warm
    if rehearse:
        _rehearse(cls, seed, sizes, os.path.join(workdir, "setup"))
    _, plain, setup_s = _run_once(cls, seed, sizes, os.path.join(workdir, "plain"))
    tracer = Tracer()
    tracer.install()
    try:
        workload, traced, _ = _run_once(
            cls, seed, sizes, os.path.join(workdir, "traced"), tracer
        )
    finally:
        tracer.uninstall()
    return {
        "ops": traced.ops,
        "end_to_end": layers.end_to_end([plain], setup_s),
        "per_layer": layers.per_layer(workload, traced, tracer, plain.wall_s),
        # the benchmark's own instruments must not change what the program
        # returns: reconstructions, bounds, retrieved bytes, store counters
        "transparent": plain.digest() == traced.digest(),
        "spans": tracer.spans,
    }


def report(name: str, seed: int, result: dict, sizes: dict) -> dict:
    """Print one workload's metrics by name with units; return its result line."""
    ops = result["ops"]
    failed = [op for op in ops if not op.ok]
    print(f"== {name}  seed {seed}  timed ops {len(ops)}  failed {len(failed)}  "
          f"sizes {json.dumps(sizes)}")
    for op in failed[:5]:
        print(f"   FAILED op {op.op_id}: {op.why}")
    if not result["transparent"]:
        print("   NOT TRANSPARENT: the traced pass returned different results")
    for metrics in (result["end_to_end"], result["per_layer"] or {}):
        for metric, value in metrics.items():
            print(f"  {metric:<42} {value:>16.6f} {UNITS[metric]}")
    reported = result["per_layer"] if result["per_layer"] is not None else {
        k: v for k, v in result["end_to_end"].items() if k != "failed_share"
    }
    return {
        "correct": not failed and result["transparent"],
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in reported.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None,
                        help="one workload (default: all four, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=spec.NOMINAL_SECONDS,
                        help="run length the op lists are scaled to (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up: exercises every path in seconds")
    parser.add_argument("--out", default=None,
                        help="append this run (record, metrics, spans) to a JSON file")
    parser.add_argument("--workdir", default=None,
                        help="where archives are built (default: .bench_work in the "
                             "checkout, with a tmpfs private to this process mounted on it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: the program under test is not at {ROOT / 'src' / 'repro'}")
    if args.workload is None and not args.smoke:
        # one process per workload: peak_rss_mb is a process-wide high-water mark
        argv = sys.argv[1:] if argv is None else list(argv)
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *argv]).returncode
            for name in spec.WORKLOADS
        )
    # before anything starts a thread that will touch the work directory
    from e2elib.workdir import mount_private_tmpfs

    base = args.workdir or DEFAULT_WORKDIR
    os.makedirs(base, exist_ok=True)
    if args.workdir is None:
        mount_private_tmpfs(base)
    from e2elib.proxy import unforwarded_methods
    from e2elib.record import load_average, run_record
    from e2elib.workloads import SIZES, SMOKE, WORKLOADS, scaled

    missing = unforwarded_methods()
    if missing:
        sys.exit(f"run.py: the store proxy does not forward {missing}")
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    record = run_record(str(ROOT), workdir, args)
    nproc = os.cpu_count() or 1
    if record["load_1m_start"] > nproc:
        message = (f"1-minute load average {record['load_1m_start']:.2f} exceeds "
                   f"nproc {nproc}: timings would measure the other load")
        if args.out:
            shutil.rmtree(workdir, ignore_errors=True)
            sys.exit(f"run.py: refusing to record: {message}")
        print(f"run.py: warning: {message}", file=sys.stderr)
    print(f"record {json.dumps(record)}")

    runs = []
    try:
        for name in [args.workload] if args.workload else spec.WORKLOADS:
            sub = os.path.join(workdir, name)
            if args.trace:
                sizes = SMOKE[name] if args.smoke else scaled(
                    SIZES[name], args.seconds / 2, floor=False)
                result = trace(WORKLOADS[name], args.seed, sizes, sub, rehearse=not args.smoke)
            else:
                sizes = SMOKE[name] if args.smoke else scaled(SIZES[name], args.seconds)
                result = measure(WORKLOADS[name], args.seed, sizes, sub)
            line = report(name, args.seed, result, sizes)
            runs.append({"workload": name, "seed": args.seed, "trace": bool(args.trace),
                         "sizes": sizes, "end_to_end": result["end_to_end"],
                         "per_layer": result["per_layer"], "spans": result["spans"],
                         "attempted": line["attempted"], "failed": line["failed"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["load_1m_end"] = load_average()
    if args.out:
        document = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                document = json.load(handle)
        document["runs"].extend({"record": record, **run} for run in runs)
        with open(args.out, "w") as handle:
            json.dump(document, handle)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
