"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root mirrors :data:`WORKLOADS`,
:data:`END_TO_END` and :data:`PER_LAYER`; ``test_smoke.py`` asserts the
two stay identical.  Each per-layer row also records the end-to-end
metric and the workload it is predicted to move (the interaction table
of the README) — on every other workload the prediction is no change.
"""

from __future__ import annotations

#: ``--seconds`` value the default op lists are sized for on the
#: reference box (2 cores); other values scale session counts linearly.
NOMINAL_SECONDS = 20

#: Client threads/connections of the concurrent workload (<= nproc).
CLIENTS = 2

WORKLOADS = {
    "solo_local": (
        "one analyst on a local sharded archive: decode and estimate dominate, "
        "the store is a few percent, so kernel changes show and storage changes must not"
    ),
    "solo_wan": (
        "same code path behind a 20 ms link: most of the wall is round trips, "
        "so pipeline, speculation and archive-open changes show and kernel changes barely move it"
    ),
    "fleet_mixed": (
        "2 clients over server, planner, cache, tiered and a 2-node HTTP cluster: "
        "60% warm ops set p50 on the service path, 40% never-read ops set p90 on the miss path"
    ),
    "ingest_live": (
        "the write side: one client ingesting timesteps with every 10th replacing an "
        "earlier one, so encode kernels, put batching and manifest growth show"
    ),
}

#: (name, unit, regression bound as a share of the parent's median).
#: All are lower-is-better.  The timing bounds are what the reference box
#: can resolve (its own run-to-run spread reaches 10 to 19% on the
#: CPU-bound workloads; README, "How steady it is"), not the 10% wished
#: for.  ``failed_share`` is reported through the result line's
#: ``attempted``/``failed`` counts, not as a bounded metric: it is 0 at
#: this commit and a bound is a share of the parent's median.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.15),
    ("store_bytes_per_user_byte", "B/B", 0.02),
]

#: (name, unit, better, end-to-end metric it should move, on which workload).
PER_LAYER = [
    # service
    ("service.server.overhead_ms", "ms", "lower", "op_p50_ms, cpu_s", "fleet_mixed"),
    ("service.server.codec_ms", "ms", "lower", "op_p50_ms, cpu_s", "fleet_mixed"),
    ("service.server.response_bytes", "B", "lower", "op_p50_ms", "fleet_mixed"),
    ("service.session.retrieve_s", "s", "lower", "op_p50_ms, cpu_s", "fleet_mixed"),
    ("service.planner.plan_hit_rate", "share", "higher", "op_p90_ms, wall_s", "fleet_mixed"),
    ("service.planner.merged_rounds", "count", "higher", "op_p90_ms, wall_s", "fleet_mixed"),
    ("service.planner.scheduler_ticks", "count", "lower", "op_p50_ms, wall_s", "fleet_mixed"),
    ("service.planner.coalesced_trips", "count", "lower", "op_p90_ms, wall_s", "fleet_mixed"),
    ("service.planner.deduped_fragments", "count", "higher", "op_p90_ms", "fleet_mixed"),
    ("service.admission.admitted", "count", "higher", "failed_share", "fleet_mixed"),
    ("service.admission.shed", "count", "lower", "failed_share", "fleet_mixed"),
    ("service.admission.degraded", "count", "lower", "failed_share", "fleet_mixed"),
    # core
    ("core.retrieval.rounds_per_op", "count", "lower", "op_p50_ms, store_bytes_per_user_byte", "all read workloads"),
    ("core.pipeline.io_wait_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan; op_p90_ms on fleet_mixed"),
    ("core.pipeline.speculate_s", "s", "lower", "op_p50_ms", "solo_wan"),
    ("core.pipeline.close_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("core.pipeline.hedged_fetches", "count", "lower", "op_p90_ms", "fleet_mixed"),
    ("core.estimators.estimate_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local"),
    ("core.estimators.bound_slack", "ratio", "lower", "store_bytes_per_user_byte, op_p50_ms", "all read workloads"),
    ("core.assigner.assign_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local"),
    ("core.ingest.encode_s", "s", "lower", "wall_s", "ingest_live"),
    ("core.ingest.flush_s", "s", "lower", "wall_s", "ingest_live"),
    ("core.ingest.flushes", "count", "lower", "wall_s", "ingest_live"),
    # compressors / transforms / encoding
    ("compressors.decode_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local"),
    ("compressors.decode_mb_s", "MB/s", "higher", "op_p50_ms, cpu_s", "solo_local"),
    ("compressors.plan_s", "s", "lower", "op_p50_ms", "solo_local"),
    ("compressors.refactor_s", "s", "lower", "wall_s", "ingest_live"),
    ("transforms.recompose_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local"),
    ("transforms.decompose_s", "s", "lower", "wall_s", "ingest_live"),
    ("encoding.bitplane_decode_mb_s", "MB/s", "higher", "op_p50_ms, cpu_s", "solo_local"),
    ("encoding.bitplane_encode_mb_s", "MB/s", "higher", "wall_s", "ingest_live"),
    ("encoding.lossless_mb_s", "MB/s", "higher", "wall_s", "ingest_live"),
    # storage
    ("storage.store.get_trips", "count", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("storage.store.get_fragments", "count", "lower", "store_bytes_per_user_byte", "all read workloads"),
    ("storage.store.get_bytes", "B", "lower", "store_bytes_per_user_byte", "all read workloads"),
    ("storage.store.get_busy_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("storage.store.put_trips", "count", "lower", "wall_s", "ingest_live"),
    ("storage.store.put_bytes", "B", "lower", "store_bytes_per_user_byte", "ingest_live"),
    ("storage.store.put_busy_s", "s", "lower", "wall_s", "ingest_live"),
    ("storage.archive.open_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("storage.archive.open_trips", "count", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("storage.cache.hit_rate", "share", "higher", "op_p90_ms", "fleet_mixed"),
    ("storage.cache.evictions", "count", "lower", "op_p90_ms", "fleet_mixed"),
    ("storage.tiered.slow_trips", "count", "lower", "op_p90_ms", "fleet_mixed"),
    ("storage.tiered.fast_hits", "count", "higher", "op_p90_ms", "fleet_mixed"),
    ("storage.tiered.promotions", "count", "higher", "op_p90_ms", "fleet_mixed"),
    ("storage.cluster.node_requests", "count", "lower", "op_p90_ms", "fleet_mixed"),
    ("storage.cluster.failovers", "count", "lower", "op_p90_ms", "fleet_mixed"),
    ("storage.remote.node_busy_s", "s", "lower", "op_p90_ms", "fleet_mixed"),
    ("storage.wal.commits", "count", "lower", "wall_s, op_p90_ms", "ingest_live"),
    ("storage.wal.log_bytes", "B", "lower", "wall_s, op_p90_ms", "ingest_live"),
    ("storage.wal.tombstones", "count", "lower", "wall_s, op_p90_ms", "ingest_live"),
    ("storage.store.disk_bytes_per_user_byte", "B/B", "lower", "wall_s", "ingest_live"),
    ("storage.store.compact_s", "s", "lower", "wall_s", "ingest_live"),
    # parallel (0 while the default executor is none)
    ("parallel.executor.tasks", "count", "higher", "cpu_s", "none today"),
    ("parallel.executor.fallbacks", "count", "lower", "cpu_s", "none today"),
    # ledger
    ("ledger.service_self_s", "s", "lower", "cpu_s, op_p50_ms", "fleet_mixed"),
    ("ledger.core_self_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local"),
    ("ledger.compressors_self_s", "s", "lower", "op_p50_ms, cpu_s", "solo_local; wall_s on ingest_live"),
    ("ledger.storage_self_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan"),
    ("ledger.io_wait_s", "s", "lower", "wall_s, op_p50_ms", "solo_wan; op_p90_ms on fleet_mixed"),
    ("ledger.unattributed_share", "share", "lower", "none (coverage of the ledger itself)", "all"),
    ("trace.overhead_share", "share", "lower", "none (cost of the benchmark's own instruments)", "all"),
    ("machine.yardstick_s", "s", "lower", "none (speed of this box, for normalising)", "all"),
]


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": NOMINAL_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": better}
            for n, u, better, _, _ in PER_LAYER
        ],
    }
