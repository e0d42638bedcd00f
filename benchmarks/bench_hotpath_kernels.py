#!/usr/bin/env python
"""Hot-path kernel benchmark: the tracked perf trajectory of the codecs.

Measures the four kernels every retrieval path funnels through —
bitplane encode, bitplane decode, Huffman decode, and PMGARD plane
planning — plus one end-to-end QoI retrieval, and appends the results to
``BENCH_kernels.json`` at the repo root so subsequent optimization work
has a trajectory to beat.  Where a scalar reference implementation
exists (:mod:`repro.encoding.reference`), the speedup against it is
measured in-process and the outputs are verified bit-identical.

Unlike the per-figure benchmarks this is a plain script, not a pytest
suite, so it can run anywhere (CI smoke included) without
pytest-benchmark:

    PYTHONPATH=src python benchmarks/bench_hotpath_kernels.py [--quick]

``--quick`` shrinks every dataset (~1s total) and is what CI runs to
keep the harness itself from rotting; full runs use a 256^3 variable
and a 1M-symbol stream, matching the acceptance targets (bitplane
encode+decode >= 3x, Huffman decode >= 20x).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.compressors.pmgard import PMGARDRefactorer
from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.data import generators
from repro.encoding.bitplane import BitplaneDecoder, BitplaneEncoder
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.reference import (
    ReferenceBitplaneDecoder,
    reference_bitplane_encode,
    reference_huffman_decode,
    reference_huffman_encode,
    reference_plane_plan,
)

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_kernels.json"


def _field(shape, seed=0):
    """Smooth structured field + fine-scale noise (laptop NYX stand-in).

    Cheaper than the FFT-based generator at 256^3 but shares its codec
    profile: top planes compress well, low planes are noise-like.
    """
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 4 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    field = sum(np.sin(g + 0.7 * i) for i, g in enumerate(grids))
    field = field * 1e3 + 5.0 * rng.standard_normal(shape)
    return field


def _best_of(fn, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_bitplane(quick, repeats):
    shape = (48, 48, 48) if quick else (256, 256, 256)
    num_planes = 32
    data = _field(shape, seed=0)
    mb = data.nbytes / 1e6

    enc = BitplaneEncoder(num_planes=num_planes)
    t_enc, stream = _best_of(lambda: enc.encode(data), repeats)
    t_enc_ref, stream_ref = _best_of(
        lambda: reference_bitplane_encode(data, num_planes=num_planes), repeats
    )

    def _decode():
        dec = BitplaneDecoder(stream)
        dec.advance_to(num_planes)
        return dec

    def _decode_ref():
        dec = ReferenceBitplaneDecoder(stream_ref)
        dec.advance_to(num_planes)
        return dec

    t_dec, dec = _best_of(_decode, repeats)
    t_dec_ref, dec_ref = _best_of(_decode_ref, repeats)

    if not np.array_equal(dec.reconstruct(), dec_ref.reconstruct()):
        raise AssertionError("vectorized bitplane round-trip is not bit-identical")

    return {
        "shape": list(shape),
        "num_planes": num_planes,
        "megabytes": mb,
        "encode_s": t_enc,
        "encode_ref_s": t_enc_ref,
        "encode_mb_s": mb / t_enc,
        "decode_s": t_dec,
        "decode_ref_s": t_dec_ref,
        "decode_mb_s": mb / t_dec,
        "stream_bytes": stream.total_bytes,
        "stream_bytes_ref": stream_ref.total_bytes,
        "encode_speedup": t_enc_ref / t_enc,
        "decode_speedup": t_dec_ref / t_dec,
        "combined_speedup": (t_enc_ref + t_dec_ref) / (t_enc + t_dec),
    }


def bench_huffman(quick, repeats):
    n = 100_000 if quick else 1_000_000
    rng = np.random.default_rng(1)
    # quantization-index-like distribution (peaked around zero)
    symbols = np.rint(rng.normal(scale=30, size=n)).astype(np.int64)
    codec = HuffmanCodec()

    t_enc, payload = _best_of(lambda: codec.encode(symbols), repeats)
    t_enc_ref, payload_ref = _best_of(
        lambda: reference_huffman_encode(symbols), repeats
    )
    t_dec, out = _best_of(lambda: codec.decode(payload), repeats)
    t_dec_ref, out_ref = _best_of(
        lambda: reference_huffman_decode(payload_ref), max(1, repeats // 2)
    )
    if not (np.array_equal(out, symbols) and np.array_equal(out_ref, symbols)):
        raise AssertionError("Huffman round-trip mismatch")

    return {
        "symbols": n,
        "encode_s": t_enc,
        "encode_ref_s": t_enc_ref,
        "decode_s": t_dec,
        "decode_ref_s": t_dec_ref,
        "decode_msym_s": n / t_dec / 1e6,
        "payload_bytes": len(payload),
        "payload_bytes_ref": len(payload_ref),
        "size_overhead": len(payload) / len(payload_ref) - 1.0,
        "decode_speedup": t_dec_ref / t_dec,
    }


def bench_pmgard_plan(quick, repeats):
    shape = (24, 24, 24) if quick else (64, 64, 64)
    data = _field(shape, seed=2)
    ref = PMGARDRefactorer(num_planes=40).refactor(data)
    ladder = [10.0 ** (-t) for t in range(1, 11)]
    scale = float(np.max(np.abs(data)))
    ebs = [t * scale for t in ladder]

    def _plan_new():
        reader = ref.reader()
        return [reader._plan(eb) for eb in ebs]

    def _plan_ref():
        planned = [0] * len(ref.streams)
        out = []
        for eb in ebs:
            planned = reference_plane_plan(ref.streams, ref.kappa, eb, planned)
            out.append(planned)
        return out

    t_new, plans_new = _best_of(_plan_new, repeats)
    t_ref, plans_ref = _best_of(_plan_ref, repeats)
    if [list(p) for p in plans_new] != [list(p) for p in plans_ref]:
        raise AssertionError("vectorized plane plan diverged from greedy reference")
    return {
        "shape": list(shape),
        "ladder_requests": len(ebs),
        "plan_s": t_new,
        "plan_ref_s": t_ref,
        "plan_speedup": t_ref / t_new,
    }


def bench_retrieve(quick, repeats):
    shape = (16, 16, 16) if quick else (64, 64, 64)
    fields = generators.nyx(shape=shape, seed=3)
    refactored = refactor_dataset(fields, PMGARDRefactorer(num_planes=40))
    ranges = {k: float(np.max(v) - np.min(v)) for k, v in fields.items()}
    qoi = total_velocity()
    env = {k: (v, 0.0) for k, v in fields.items()}
    qoi_range = float(np.ptp(qoi.value(env)))

    def _run():
        retriever = QoIRetriever(refactored, ranges)
        session = retriever.session()
        out = []
        for tol in (1e-2, 1e-4, 1e-6):
            res = session.retrieve(
                [QoIRequest("VTOT", qoi, tolerance=tol, qoi_range=qoi_range)]
            )
            out.append(res)
        return out

    t, results = _best_of(_run, repeats)
    total_mb = sum(v.nbytes for v in fields.values()) / 1e6
    return {
        "shape": list(shape),
        "tolerance_ladder": [1e-2, 1e-4, 1e-6],
        "all_satisfied": all(r.all_satisfied for r in results),
        "retrieve_s": t,
        "retrieved_bytes": results[-1].total_bytes,
        "output_mb_s": 3 * total_mb / t,  # three ladder reconstructions
        "rounds": [r.rounds for r in results],
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
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON trajectory file")
    args = parser.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 3)

    metrics = {}
    for name, fn in (
        ("bitplane", bench_bitplane),
        ("huffman", bench_huffman),
        ("pmgard_plan", bench_pmgard_plan),
        ("retrieve", bench_retrieve),
    ):
        t0 = time.perf_counter()
        metrics[name] = fn(args.quick, repeats)
        print(f"[{name}] done in {time.perf_counter() - t0:.1f}s", flush=True)

    run = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git": _git_rev(),
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
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

    bp = metrics["bitplane"]
    hf = metrics["huffman"]
    print(
        f"bitplane {bp['shape']}: encode {bp['encode_mb_s']:.0f} MB/s "
        f"({bp['encode_speedup']:.1f}x), decode {bp['decode_mb_s']:.0f} MB/s "
        f"({bp['decode_speedup']:.1f}x), combined {bp['combined_speedup']:.1f}x"
    )
    print(
        f"huffman {hf['symbols']} syms: decode {hf['decode_msym_s']:.1f} Msym/s "
        f"({hf['decode_speedup']:.1f}x), size overhead {hf['size_overhead'] * 100:.2f}%"
    )
    print(
        f"pmgard plan: {metrics['pmgard_plan']['plan_speedup']:.1f}x; "
        f"retrieve {metrics['retrieve']['shape']}: "
        f"{metrics['retrieve']['output_mb_s']:.0f} MB/s reconstructed"
    )
    print(f"trajectory appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
