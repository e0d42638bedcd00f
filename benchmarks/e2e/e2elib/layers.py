"""End-to-end and per-layer metric values of one run.

Per-layer values come from four outside-in sources: the public stat
objects and store proxies a workload read (``Outcome.stats``), the op
records, the spans of the traced pass, and direct replays of public
kernels on one of the workload's own arrays.
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter

import numpy as np

from repro.compressors.base import make_refactorer
from repro.encoding.bitplane import BitplaneDecoder, BitplaneEncoder
from repro.encoding.lossless import get_backend
from repro.encoding.reference import ReferenceBitplaneDecoder, reference_bitplane_encode

from . import trace
from .spec import PER_LAYER
from .workloads import METHOD

REPLAY_ERROR_BOUND = 1e-5  # relative to the array's range, as the finest solo rung
YARDSTICK_ELEMENTS = 1 << 16


def end_to_end(passes: list, setup_s: float) -> dict:
    """The bounded metrics (and ``failed_share``) of an untraced run's passes.

    Each pass ran the op list once on its own archive: latencies are
    pooled over the passes, seconds and bytes are summed.
    """
    ops = [op for outcome in passes for op in outcome.ops]
    latencies = [op.latency_s * 1000.0 for op in ops]
    store_bytes = sum(outcome.store_bytes for outcome in passes)
    user_bytes = sum(outcome.user_bytes for outcome in passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(outcome.wall_s for outcome in passes),
        "cpu_s": sum(outcome.cpu_s for outcome in passes),
        "op_p50_ms": float(np.percentile(latencies, 50)),
        "op_p90_ms": float(np.percentile(latencies, 90)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "store_bytes_per_user_byte": store_bytes / max(1, user_bytes),
        "failed_share": sum(not op.ok for op in ops) / max(1, len(ops)),
    }


def _best_of(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def replay(array: np.ndarray) -> dict:
    """Time the public kernels once more, directly, on a workload array."""
    array = np.asarray(array, dtype=np.float64)
    mb = array.nbytes / 1e6
    refactorer = make_refactorer(METHOD)
    refactored = refactorer.refactor(array)
    eb = REPLAY_ERROR_BOUND * float(np.max(array) - np.min(array))
    transform = refactorer.transform
    decomposition = transform.decompose(array)
    coefficients = max(decomposition.coefficients, key=lambda c: c.size)
    encoder = BitplaneEncoder(num_planes=refactorer.encoder.num_planes, backend=refactorer.backend)
    stream = encoder.encode(coefficients)
    planes = stream.num_planes // 2
    plane = np.packbits(np.signbit(coefficients)).tobytes()
    coefficient_mb = coefficients.nbytes / 1e6

    def decode_planes():
        BitplaneDecoder(stream, backend=refactorer.backend).advance_to(planes)

    return {
        "compressors.refactor_s": _best_of(lambda: refactorer.refactor(array)),
        "compressors.decode_mb_s": mb / _best_of(lambda: refactored.reader().request(eb)),
        "compressors.plan_s": _best_of(lambda: refactored.reader().plan_segments(eb)),
        "transforms.decompose_s": _best_of(lambda: transform.decompose(array)),
        "transforms.recompose_s": _best_of(lambda: transform.recompose(decomposition)),
        "encoding.bitplane_encode_mb_s": coefficient_mb / _best_of(lambda: encoder.encode(coefficients)),
        "encoding.bitplane_decode_mb_s": coefficient_mb / _best_of(decode_planes),
        "encoding.lossless_mb_s": len(plane) / 1e6 / _best_of(
            lambda: get_backend(refactorer.backend).compress_bytes(plane)
        ),
    }


def yardstick() -> float:
    """Seconds the scalar reference kernels take on a fixed array.

    A speed of *this box in this session*: ``compare.py`` prints every
    timing divided by it, so runs from different sessions can be read
    side by side.
    """
    coefficients = np.random.default_rng(0).normal(size=YARDSTICK_ELEMENTS)

    def kernels():
        stream = reference_bitplane_encode(coefficients)
        decoder = ReferenceBitplaneDecoder(stream)
        decoder.advance_to(stream.num_planes)
        decoder.reconstruct()

    return _best_of(kernels)


def per_layer(workload, outcome, tracer, untraced_wall_s: float) -> dict:
    """Every :data:`~.spec.PER_LAYER` metric of one traced pass."""
    ops = outcome.ops
    spans, sums = tracer.spans, tracer.sums
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    values.update((k, v) for k, v in outcome.stats.items() if k in values)
    values.update(replay(workload.replay_array()))

    retrieves = [op for op in ops if op.rounds]
    slacks = [op.slack for op in ops if np.isfinite(op.slack)]
    values["core.retrieval.rounds_per_op"] = (
        sum(op.rounds for op in retrieves) / len(retrieves) if retrieves else 0.0
    )
    values["core.estimators.bound_slack"] = statistics.median(slacks) if slacks else 0.0
    values["core.pipeline.hedged_fetches"] = sum(op.info.get("hedged", 0) for op in ops)
    for key in ("encode_s", "flush_s", "flushes"):
        values[f"core.ingest.{key}"] = sum(op.info.get(key, 0) for op in ops)

    # Stopwatch sections of the retrieval loop, wherever it ran
    values["core.pipeline.io_wait_s"] = sums["fetch"]
    values["compressors.decode_s"] = sums["decode"]
    values["core.pipeline.speculate_s"] = trace.total(spans, "core.pipeline.speculate")
    values["core.estimators.estimate_s"] = trace.total(spans, "core.estimators.estimate")
    values["core.assigner.assign_s"] = trace.total(spans, "core.assigner.assign")
    values["core.pipeline.close_s"] = trace.total(spans, "core.pipeline.close")
    values["service.session.retrieve_s"] = trace.total(spans, "service.session.retrieve")
    # where the workload's own store proxy did not see the calls (the
    # service opened its store itself), the outermost store spans did
    if "storage.archive.open_s" not in outcome.stats:
        values["storage.archive.open_s"] = trace.total(spans, "storage.archive.open")
    if "storage.store.put_busy_s" not in outcome.stats:
        values["storage.store.put_busy_s"] = sum(
            trace.total(spans, f"storage.cache.{call}")
            for call in ("put", "put_many", "transact", "delete")
        )

    # client latency minus the server-side span of the same op
    served = {
        s[trace.OP]: s[trace.END] - s[trace.START]
        for s in spans if s[trace.NAME] == "service.session.retrieve"
    }
    overheads = [
        (op.latency_s - served[(log.client, op.op_id)]) * 1000.0
        for log in outcome.logs for op in log.ops if (log.client, op.op_id) in served
    ]
    values["service.server.overhead_ms"] = statistics.median(overheads) if overheads else 0.0
    codec = [op.info["codec_s"] * 1000.0 for op in ops if "codec_s" in op.info]
    sizes = [op.info["response_bytes"] for op in ops if "response_bytes" in op.info]
    values["service.server.codec_ms"] = statistics.median(codec) if codec else 0.0
    values["service.server.response_bytes"] = statistics.median(sizes) if sizes else 0.0

    rows = trace.ledger(spans)
    for layer in trace.LAYERS:
        values[f"ledger.{layer}_self_s"] = rows.get(layer, 0.0)
    values["ledger.io_wait_s"] = rows.get("io_wait", 0.0)
    values["ledger.unattributed_share"] = rows.get("unattributed", 0.0) / max(rows["ops_s"], 1e-9)
    values["trace.overhead_share"] = outcome.wall_s / max(untraced_wall_s, 1e-9) - 1.0
    values["machine.yardstick_s"] = yardstick()
    return values
