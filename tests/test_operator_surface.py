"""The operator surface, run once end to end over a two-node cluster.

``repro serve`` runs in a subprocess over ``cluster://…?replicas=2``
(two in-process fragment servers), with its ``/metrics`` and ``/health``
sidecar.  A ``ServiceClient`` ladder is checked against the original
data (true QoI error <= reported bound <= tolerance), ``repro stats``
must print the cluster block, and the scraped per-node ``requests``
gauges must agree with the ``stats`` op.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro import cli
from repro.core.qois import qoi_from_spec
from repro.data import generators
from repro.service.server import ServiceClient
from repro.storage.remote import HTTPFragmentServer
from repro.storage.store import FragmentStore

SRC = str(Path(__file__).resolve().parents[1] / "src")
FIELDS = ["velocity_x", "velocity_y", "velocity_z"]
#: Every cluster gauge ``/metrics`` may serve: the aggregate ones, then
#: the per-node ones (``repro_cluster_per_node_<node>_<name>``).
CLUSTER_GAUGES = {"nodes", "replicas", "vnodes", "failovers", "write_failovers"}
NODE_GAUGES = {
    "requests", "fragments_served", "bytes_read", "puts", "bytes_written",
    "failovers", "write_failovers", "breaker_is_open",
}
#: Seconds ``serve`` may take to print its addresses, and to exit on SIGINT.
STARTUP_S = 60.0
EXIT_S = 30.0


def _lines_of(stream, out: queue.Queue) -> None:
    """Copy *stream*'s lines into *out* until EOF (the process exited)."""
    for line in stream:
        out.put(line)


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200
        return response.read().decode()


def test_serve_over_a_cluster_answers_truthfully_and_reports_per_node(tmp_path, capsys):
    fields = {k: v for k, v in generators.ge_cfd(num_nodes=2000, seed=0).items() if k in FIELDS}
    qoi = qoi_from_spec("vtot", FIELDS)
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    qoi_range = float(np.ptp(truth))
    paths = []
    for name, data in fields.items():
        np.save(tmp_path / f"{name}.npy", data)
        paths.append(f"{name}={tmp_path / name}.npy")

    servers = [HTTPFragmentServer(FragmentStore()).start() for _ in range(2)]
    proc = reader = None
    try:
        hosts = ",".join("%s:%d" % server.address for server in servers)
        url = f"cluster://{hosts}?replicas=2"
        assert cli.main(["archive", "--out", url, *paths]) == 0
        # K=2 over two nodes: each node holds every fragment
        assert all(server.inner.keys() for server in servers)
        assert set(servers[0].inner.keys()) == set(servers[1].inner.keys())

        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--archive", url,
             "--port", "0", "--metrics-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(target=_lines_of, args=(proc.stdout, lines), daemon=True)
        reader.start()
        metrics = serving = None
        printed = []
        deadline = time.monotonic() + STARTUP_S
        while serving is None:
            remaining = deadline - time.monotonic()
            assert remaining > 0 and proc.poll() is None, printed
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            printed.append(line)
            found = re.search(r"metrics on http://([\d.]+):(\d+)/metrics", line)
            if found:
                metrics = f"http://{found.group(1)}:{found.group(2)}"
            found = re.search(r"^serving .* on ([\d.]+):(\d+) ", line)
            if found:
                serving = found.group(1), int(found.group(2))
        assert metrics is not None, printed
        host, port = serving

        with ServiceClient(host, port) as client:
            for tolerance in (1e-2, 1e-3, 1e-4):
                answer = client.retrieve(
                    "vtot", FIELDS, tolerance, qoi_range, include_data=True
                )
                assert answer["satisfied"], tolerance
                rec = qoi.value({k: (answer["data"][k], 0.0) for k in FIELDS})
                actual = float(np.max(np.abs(rec - truth)))
                assert actual <= answer["estimated_error"] <= tolerance * qoi_range
            stats = client.stats()
            health = client.health()

        capsys.readouterr()
        assert cli.main(["stats", "--host", host, "--port", str(port)]) == 0
        printed_stats = capsys.readouterr().out
        assert "cluster: 2 node(s), replicas=2" in printed_stats
        assert re.search(r"^  node0 \(http://[\d.]+:\d+\): \d+ request", printed_stats, re.M)
        assert re.search(r"^  node1 \(http://[\d.]+:\d+\): \d+ request", printed_stats, re.M)

        text = _scrape(metrics + "/metrics")
        gauges = dict(
            line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#")
        )
        per_node = stats["cluster"]["per_node"]
        assert set(per_node) == {"node0", "node1"}
        expected = {f"repro_cluster_{name}" for name in CLUSTER_GAUGES} | {
            f"repro_cluster_per_node_{node}_{name}"
            for node in per_node for name in NODE_GAUGES
        }
        assert {name for name in gauges if name.startswith("repro_cluster_")} == expected
        assert sum(node["requests"] for node in per_node.values()) > 0
        for name, node in per_node.items():
            gauge = gauges[f"repro_cluster_per_node_{name}_requests"]
            assert float(gauge) == node["requests"], name
        assert float(gauges["repro_cluster_failovers"]) == 0

        scraped = json.loads(_scrape(metrics + "/health"))
        assert scraped["status"] == health["status"] == "ok"
        assert scraped["variables"] == health["variables"] == len(FIELDS)
    finally:
        try:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=EXIT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise AssertionError(f"serve ignored SIGINT for {EXIT_S} s")
        finally:
            if reader is not None:
                reader.join(timeout=EXIT_S)
            if proc is not None:
                proc.stdout.close()
            for server in servers:
                server.stop()
    assert proc.returncode == 0, proc.returncode
    assert not reader.is_alive()
