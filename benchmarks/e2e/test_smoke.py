"""Smoke test of the end-to-end benchmark (collected by tier-1, seconds).

Runs ``--smoke`` sizes of all four workloads once, traced, and checks the
contract between ``BENCHMARK.json``, ``e2elib/spec.py`` and what
``run.py`` prints; then checks that a corrupted answer counts as failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from e2elib import layers, spec  # noqa: E402
from e2elib.workloads import ClientLog, Outcome, SoloWorkload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_prints_every_declared_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sections: dict = {}
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line.split()[1], {})
        elif line.startswith("  ") and len(line.split()) == 3:
            metric, value, unit = line.split()
            current[metric] = (float(value), unit)
    assert list(sections) == [w["name"] for w in benchmark["workloads"]]

    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name in [*declared, *sections]:
        assert NAME.fullmatch(name), name
    for workload, printed in sections.items():
        for metric, unit in declared.items():
            assert printed[metric][1] == unit, (workload, metric)
        assert printed["failed_share"][0] == 0.0, workload
        assert printed["ledger.unattributed_share"][0] < 0.5, workload

    # the result line of the last workload: a traced run reports the layers
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in benchmark["per_layer"]}


def test_corrupted_answer_counts_as_failed():
    from repro.compressors.base import make_refactorer
    from repro.core.qois import GE_QOIS
    from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
    from repro.data import generators
    from e2elib.truth import Reference

    data = generators.ge_cfd(num_nodes=2_000, seed=3)
    references = {"VTOT": Reference.of(GE_QOIS["VTOT"], data)}
    ranges = {v: float(np.max(a) - np.min(a)) for v, a in data.items()}
    session = QoIRetriever(
        refactor_dataset(data, make_refactorer("pmgard_hb")), ranges
    ).session()
    tolerance = 1e-3
    result = session.retrieve(
        [QoIRequest("VTOT", references["VTOT"].qoi, tolerance, references["VTOT"].qoi_range)]
    )

    def failed_share() -> float:
        log = ClientLog(0)
        log.begin()
        SoloWorkload._verify(log.end(), log, result, references, tolerance, session)
        return layers.end_to_end([Outcome([log], 0.0, 0, {})], 0.0)["failed_share"]

    assert failed_share() == 0.0
    true_error = float(np.max(np.abs(
        references["VTOT"].qoi.value(result.data) - references["VTOT"].values
    )))
    assert true_error > 0.0
    result.estimated_errors["VTOT"] = true_error / 2  # bound shrunk below the truth
    assert failed_share() == 1.0
