"""GE CFD posthoc-analysis pipeline: six QoIs, zero-mask, method shootout.

Corresponds to: §III-A / §VI-B and Figs. 4, 7 — a turbomachinery CFD
state with wall nodes (the §V-A zero-value mask), the six derivable QoIs
of Eq. (1)-(6), and the three progressive approaches compared on
retrieved size.

Expected output: the masked wall-node count and bitmap cost, then a
method-per-row table (pmgard_hb / psz3_delta / psz3) showing all six QoI
guarantees met, round counts, retrieved MB, bitrate, and the worst
relative estimated error — with pmgard_hb retrieving the least, matching
the paper's ordering.

Run:  python examples/ge_cfd_pipeline.py
"""

import numpy as np

import repro
from repro.analysis.metrics import bitrate
from repro.analysis.reporting import format_table


def main():
    fields = repro.data.ge_cfd(num_nodes=12_000, wall_fraction=0.04, seed=7)
    ranges = {k: float(v.max() - v.min()) for k, v in fields.items()}
    env0 = {k: (v, 0.0) for k, v in fields.items()}

    # wall nodes (all velocity components exactly zero) would make the
    # sqrt estimator blow up -> refactor_dataset records each variable's
    # exact zeros in the paper's zero bitmap, and the retriever applies it
    mask = repro.ZeroMask.of(fields["velocity_x"])
    print(f"{mask.count} wall nodes masked ({mask.nbytes} B bitmap per component)\n")

    requests = []
    for name, qoi in repro.GE_QOIS.items():
        vals = qoi.value(env0)
        qoi_range = float(vals.max() - vals.min())
        requests.append(repro.QoIRequest(name, qoi, tolerance=1e-4, qoi_range=qoi_range))

    rows = []
    for method in ("pmgard_hb", "psz3_delta", "psz3"):
        refactored = repro.refactor_dataset(fields, repro.make_refactorer(method))
        retriever = repro.QoIRetriever(refactored, ranges)
        result = retriever.retrieve(requests)
        worst = max(
            result.estimated_errors[r.name] / r.qoi_range for r in requests
        )
        rows.append([
            method,
            "yes" if result.all_satisfied else "NO",
            result.rounds,
            f"{result.total_bytes / 1e6:.3f} MB",
            f"{bitrate(result.total_bytes, next(iter(fields.values())).size):.2f}",
            f"{worst:.2e}",
        ])
        # verify the guarantee against the originals
        for r in requests:
            truth = r.qoi.value(env0)
            rec_env = dict(env0)
            rec_env.update({k: (result.data[k], 0.0) for k in result.data})
            rec = r.qoi.value(rec_env)
            err = float(np.max(np.abs(rec - truth)))
            assert err <= r.absolute_tolerance * (1 + 1e-9), (method, r.name)

    print(format_table(
        ["method", "all QoIs met", "rounds", "retrieved", "bitrate", "worst rel. est."],
        rows,
        title="Six GE QoIs at relative tolerance 1e-4 (guarantees verified)",
    ))


if __name__ == "__main__":
    main()
