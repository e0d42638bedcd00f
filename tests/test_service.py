"""Tests for the multi-client retrieval service and its TCP front end."""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from repro.compressors.base import make_refactorer
from repro.core.qois import total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.service.server import RetrievalServer, ServiceClient, ServiceError
from repro.service.service import RetrievalService
from repro.storage.archive import Archive
from repro.storage.metadata import DatasetManifest, VariableMetadata
from repro.storage.store import FragmentStore, ShardedDiskStore


def make_fields(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 12, n)
    return {
        "velocity_x": 90 * np.sin(t) + rng.normal(size=n),
        "velocity_y": 45 * np.cos(t) + rng.normal(size=n),
        "velocity_z": 15 * np.sin(2 * t) + rng.normal(size=n),
    }


def archive_into(store, fields, method="pmgard_hb"):
    refactored = refactor_dataset(fields, make_refactorer(method))
    archive = Archive(store)
    manifest = DatasetManifest(dataset="test")
    for name, data in fields.items():
        archive.save(name, refactored[name])
        manifest.add(
            VariableMetadata.from_array(
                name, data, method, refactored[name].total_bytes,
                segments=store.segments(name),
            )
        )
    manifest.save_to(store)
    return refactored


@pytest.fixture(scope="module")
def setup():
    fields = make_fields()
    store = FragmentStore()
    archive_into(store, fields)
    qoi = total_velocity()
    truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
    qrange = float(truth.max() - truth.min())
    return fields, store, qoi, truth, qrange


def fresh_service(setup_data, **kwargs):
    """A service over a *fresh copy* of the archived store, so per-test
    read counters start from zero."""
    _, store, _, _, _ = setup_data
    copy = FragmentStore()
    for var, seg in store.keys():
        copy.put(var, seg, store._data[(var, seg)])
    return RetrievalService(copy, **kwargs), copy


class TestRetrievalService:
    def test_manifest_loaded_from_store(self, setup):
        service, _ = fresh_service(setup)
        assert sorted(service.variables()) == [
            "velocity_x", "velocity_y", "velocity_z",
        ]
        assert service.value_range("velocity_x") > 0

    def test_second_client_reads_nothing_from_store(self, setup):
        fields, _, qoi, truth, qrange = setup
        service, inner = fresh_service(setup)
        request = [QoIRequest("VTOT", qoi, 1e-3, qrange)]

        first = service.open_session()
        r1 = first.retrieve(request)
        bytes_after_first = inner.bytes_read
        assert r1.all_satisfied and bytes_after_first > 0

        second = service.open_session()
        r2 = second.retrieve(request)
        assert r2.all_satisfied
        # every fragment the second client needed was already cached
        assert inner.bytes_read == bytes_after_first
        stats = service.stats()
        assert stats.cache.hits > 0
        assert stats.sessions_opened == 2

    def test_n_clients_cheaper_than_n_independent_sessions(self, setup):
        """The acceptance criterion at test scale: shared cache strictly
        beats independent sessions on store bytes for identical requests."""
        fields, _, qoi, truth, qrange = setup
        n_clients = 4
        requests = [QoIRequest("VTOT", qoi, 1e-3, qrange)]

        service, shared_inner = fresh_service(setup)
        for _ in range(n_clients):
            session = service.open_session()
            assert session.retrieve(requests).all_satisfied
        shared_bytes = shared_inner.bytes_read

        _, independent_inner = fresh_service(setup)
        archive = Archive(independent_inner)
        ranges = {k: float(v.max() - v.min()) for k, v in fields.items()}
        for _ in range(n_clients):
            refactored = {name: archive.load(name) for name in fields}
            result = QoIRetriever(refactored, ranges).retrieve(requests)
            assert result.all_satisfied
        independent_bytes = independent_inner.bytes_read

        assert shared_bytes < independent_bytes
        assert service.stats().cache.hit_rate > 0.5

    def test_client_session_is_incremental(self, setup):
        fields, _, qoi, truth, qrange = setup
        service, _ = fresh_service(setup)
        session = service.open_session()
        session.retrieve([QoIRequest("VTOT", qoi, 1e-2, qrange)])
        loose = session.bytes_retrieved()
        session.retrieve([QoIRequest("VTOT", qoi, 1e-5, qrange)])
        tight = session.bytes_retrieved()
        assert 0 < loose < tight

        cold = service.open_session()
        cold.retrieve([QoIRequest("VTOT", qoi, 1e-5, qrange)])
        # the two-step client paid no more than a cold client (reader
        # state persisted; only incremental fragments moved)
        assert tight <= cold.bytes_retrieved() * 1.01

    def test_concurrent_clients(self, setup):
        fields, _, qoi, truth, qrange = setup
        service, inner = fresh_service(setup)

        def client(tol):
            session = service.open_session()
            with session:
                result = session.retrieve([QoIRequest("VTOT", qoi, tol, qrange)])
            return result.all_satisfied, session.client_id

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(client, [1e-2, 1e-3, 1e-4] * 2))
        assert all(ok for ok, _ in outcomes)
        assert len({cid for _, cid in outcomes}) == 6  # unique client ids
        stats = service.stats()
        assert stats.sessions_opened == 6
        assert stats.sessions_active == 0  # all closed
        # single-flight misses: the store never served a fragment twice
        assert inner.reads == stats.cache.misses

    def test_service_surfaces_round_breakdown(self, setup):
        _, _, qoi, _, qrange = setup
        service, _ = fresh_service(setup)
        with service.open_session() as session:
            session.retrieve([QoIRequest("VTOT", qoi, 1e-4, qrange)])
        stats = service.stats()
        assert stats.retrieval_rounds > 0
        assert stats.compute_seconds + stats.io_wait_seconds > 0
        # the wire format (dataclasses.asdict) carries the split
        assert "io_wait_seconds" in asdict(stats)

    def test_a_session_pays_one_trip_per_fetching_round_on_its_own_thread(self, setup):
        _, store, qoi, _, qrange = setup
        alive: set = set()  # every thread alive during any store trip

        class Recording(FragmentStore):
            def get_many(self, keys):
                alive.update(t.name for t in threading.enumerate())
                return super().get_many(keys)

        inner = Recording()
        for var, seg in store.keys():
            inner.put(var, seg, store._data[(var, seg)])
        service = RetrievalService(inner)
        with service.open_session() as session:
            trips_before = inner.round_trips
            result = session.retrieve([QoIRequest("VTOT", qoi, 1e-4, qrange)])
        alive.update(t.name for t in threading.enumerate())
        service.close()
        assert result.all_satisfied
        # the lazy open's two trips, then at most one trip per round
        assert inner.round_trips - trips_before <= 2 + result.rounds
        assert not [n for n in alive if n.startswith(("repro-fetch", "repro-scheduler"))]
        # and the answer is bit-identical to a serial, unwidened library session
        serial = QoIRetriever(
            Archive(store).load_dataset(list(result.data)),
            DatasetManifest.load_from(store).value_ranges(),
            pipeline_depth=0,
        ).retrieve([QoIRequest("VTOT", qoi, 1e-4, qrange)])
        assert serial.estimated_errors == result.estimated_errors
        assert serial.bytes_per_variable == result.bytes_per_variable
        for name, data in serial.data.items():
            assert np.array_equal(data, result.data[name])

    def test_closed_service_refuses_warm_and_cold_requests(self, setup):
        _, _, qoi, _, qrange = setup
        service, inner = fresh_service(setup)
        with service.open_session() as session:
            assert session.retrieve([QoIRequest("VTOT", qoi, 1e-3, qrange)]).all_satisfied
        warm = service.open_session()
        cold = service.open_session()
        service.close()
        service.close()  # idempotent
        stats = service.stats()
        reads = inner.reads
        # the memos and cache could answer the 1e-3 request; 1e-5 needs a fetch
        for session, tolerance in ((warm, 1e-3), (cold, 1e-5)):
            with pytest.raises(RuntimeError, match="retrieval service is closed"):
                session.retrieve([QoIRequest("VTOT", qoi, tolerance, qrange)])
        with pytest.raises(RuntimeError, match="retrieval service is closed"):
            service.open_session()
        with pytest.raises(RuntimeError, match="retrieval service is closed"):
            service.ingest({"velocity_x": np.zeros(16)})
        after = service.stats()
        assert inner.reads == reads  # no store access
        assert after.requests_admitted == stats.requests_admitted  # refused before admission
        assert after.sessions_opened == stats.sessions_opened

    def test_unknown_variable_message_names_known(self, setup):
        service, _ = fresh_service(setup)
        session = service.open_session()
        from repro.core.expressions import Var

        with pytest.raises(KeyError, match="velocity_x"):
            session.retrieve([QoIRequest("bad", Var("nope"), 1e-3)])

    def test_closed_session_rejects_retrieve(self, setup):
        _, _, qoi, _, qrange = setup
        service, _ = fresh_service(setup)
        session = service.open_session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.retrieve([QoIRequest("VTOT", qoi, 1e-2, qrange)])

    def test_open_reopened_sharded_archive(self, setup, tmp_path):
        """End to end: archive to a sharded store, reopen via
        RetrievalService.open (auto-detect), retrieve with a guarantee."""
        fields, _, qoi, truth, qrange = setup
        root = str(tmp_path / "archive")
        archive_into(ShardedDiskStore(root), fields)

        service = RetrievalService.open(root)  # auto-detects sharded layout
        assert isinstance(service._inner, ShardedDiskStore)
        session = service.open_session()
        result = session.retrieve([QoIRequest("VTOT", qoi, 1e-4, qrange)])
        assert result.all_satisfied
        rec = qoi.value({k: (result.data[k], 0.0) for k in result.data})
        assert np.max(np.abs(rec - truth)) <= 1e-4 * qrange * (1 + 1e-9)

    @pytest.mark.parametrize("failure", ["store_crash", "nan_variable"])
    def test_failed_ingest_leaves_no_stale_index(self, failure, tmp_path):
        """An ingest that fails after one flush committed has replaced
        that variable's payloads: fresh and earlier sessions must decode
        them with the new index, not a memoized old one."""
        from fault_store import FaultyFragmentStore, SimulatedCrash

        from repro.core.qois import qoi_from_spec

        n = 20_000
        t = np.linspace(0.0, 20.0, n)
        a1 = np.sin(t) + 0.01 * np.random.default_rng(0).normal(size=n)
        b1 = 3.0 * np.cos(t)
        a2 = 50.0 * np.cos(3.0 * t) + 5.0
        faulty = FaultyFragmentStore(ShardedDiskStore(str(tmp_path / "archive")))
        service = RetrievalService(faulty)
        service.ingest({"a": a1, "b": b1}, workers=0)

        def ask(session, name):
            request = QoIRequest(name, qoi_from_spec("identity", [name]), 1e-5)
            return session.retrieve([request])

        earlier = service.open_session()
        for name in "ab":
            ask(earlier, name)
        b2 = 2.0 * a2
        if failure == "store_crash":
            faulty.fail_after = faulty.mutations + 1  # the second flush dies
            expected = SimulatedCrash
        else:
            b2[7] = np.nan
            expected = ValueError
        with pytest.raises(expected):
            service.ingest({"a": a2, "b": b2}, workers=0, flush_bytes=1)
        faulty.fail_after = None
        for session in (service.open_session(), earlier):
            for name, held in (("a", a2), ("b", b1)):
                result = ask(session, name)
                error = np.max(np.abs(result.data[name] - held))
                assert error <= result.estimated_errors[name], (name, error)
        service.close()


class TestServer:
    @pytest.fixture()
    def server(self, setup):
        service, _ = fresh_service(setup)
        server = RetrievalServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def test_info_and_stats(self, setup, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            info = client.info()
            assert set(info) == {"velocity_x", "velocity_y", "velocity_z"}
            assert info["velocity_x"]["value_range"] > 0
            stats = client.stats()
            assert stats["sessions_active"] >= 1
            assert "hit_rate" in stats["cache"]

    def test_retrieve_roundtrip_with_data(self, setup, server):
        fields, _, qoi, truth, qrange = setup
        host, port = server.address
        with ServiceClient(host, port) as client:
            response = client.retrieve(
                "vtot", ["velocity_x", "velocity_y", "velocity_z"],
                tolerance=1e-4, qoi_range=qrange, include_data=True,
            )
            assert response["satisfied"]
            rec = qoi.value({k: (response["data"][k], 0.0) for k in response["data"]})
            assert np.max(np.abs(rec - truth)) <= 1e-4 * qrange * (1 + 1e-9)

    def test_connection_session_is_incremental(self, setup, server):
        host, port = server.address
        _, _, _, _, qrange = setup
        fields = ["velocity_x", "velocity_y", "velocity_z"]
        with ServiceClient(host, port) as client:
            loose = client.retrieve("vtot", fields, 1e-2, qrange)
            tight = client.retrieve("vtot", fields, 1e-4, qrange)
            assert tight["session_bytes"] > loose["session_bytes"]
            # the second call only moved the incremental fragments
            assert tight["bytes_retrieved"] == tight["session_bytes"]

    def test_nonfinite_error_is_valid_json(self, setup, server):
        """max_rounds=0 leaves the estimated error at inf; the response
        line must still be strict JSON (no bare Infinity tokens)."""
        import socket

        host, port = server.address
        _, _, _, _, qrange = setup
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall((json.dumps({
                "op": "retrieve", "qoi": "identity", "fields": ["velocity_x"],
                "tolerance": 1e-3, "qoi_range": qrange, "max_rounds": 0,
            }) + "\n").encode())
            line = sock.makefile("rb").readline().decode()
        assert "Infinity" not in line
        response = json.loads(line)
        assert response["ok"] and not response["satisfied"]
        assert float(response["estimated_error"]) == np.inf

    def test_stats_op_and_metrics_render_one_payload(self, setup, server):
        from repro.service.metrics import render_metrics

        _, _, _, _, qrange = setup
        host, port = server.address
        with ServiceClient(host, port) as client:
            client.retrieve("vtot", ["velocity_x", "velocity_y", "velocity_z"], 1e-3, qrange)
            stats = client.stats()
        snapshot = server.service.stats()
        assert stats["planner"]["plan_cache_hit_rate"] == snapshot.planner.plan_cache_hit_rate
        assert stats["cache"]["hit_rate"] == snapshot.cache.hit_rate
        text = render_metrics(snapshot)
        assert f"repro_planner_plan_cache_hit_rate {snapshot.planner.plan_cache_hit_rate}" in text
        assert f"repro_cache_hit_rate {snapshot.cache.hit_rate}" in text
        # the service has no fetch scheduler, and neither view reports one
        gone = ("merged_rounds", "scheduler_ticks", "coalesced_round_trips", "deduped_fragments")
        assert not [name for name in gone if name in stats["planner"] or name in text]

    def test_bad_request_keeps_connection_alive(self, setup, server):
        host, port = server.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client._call({"op": "frobnicate"})
            with pytest.raises(ServiceError, match="identity expects"):
                client.retrieve("identity", ["a", "b"], 1e-3)
            assert client.stats()["sessions_active"] >= 1  # still connected

    def test_nan_qoi_range_is_refused_naming_the_field(self, setup, server):
        # the wire's JSON accepts NaN; at the parent this request came back
        # ok with an answer that could never be satisfied
        host, port = server.address
        fields = ["velocity_x", "velocity_y", "velocity_z"]
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="qoi_range must be finite and > 0, got nan"):
                client.retrieve("vtot", fields, 1e-3, qoi_range=float("nan"))
            assert client.stats()["requests_admitted"] == 0  # refused before admission

    def test_cli_client_against_server(self, setup, server, tmp_path, capsys):
        from repro.cli import main

        _, _, qoi, truth, qrange = setup
        host, port = server.address
        out_dir = str(tmp_path / "rec")
        rc = main([
            "client", "--host", host, "--port", str(port),
            "--qoi", "vtot", "--fields", "velocity_x,velocity_y,velocity_z",
            "--tolerance", "1e-4", "--qoi-range", str(qrange),
            "--out", out_dir,
        ])
        assert rc == 0
        assert "guaranteed QoI error" in capsys.readouterr().out
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        assert report["satisfied"] is True
        rec = np.sqrt(sum(
            np.load(os.path.join(out_dir, f"velocity_{ax}.npy")) ** 2
            for ax in "xyz"
        ))
        assert np.max(np.abs(rec - truth)) <= 1e-4 * qrange * (1 + 1e-9)
