"""Tests for the archive/info/retrieve command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.cli import build_qoi, main


@pytest.fixture
def npy_fields(tmp_path):
    rng = np.random.default_rng(0)
    t = np.linspace(0, 10, 2000)
    fields = {
        "vx": 80 * np.sin(t) + rng.normal(size=t.size),
        "vy": 40 * np.cos(t) + rng.normal(size=t.size),
        "vz": 10 * np.sin(2 * t) + rng.normal(size=t.size),
    }
    paths = {}
    for name, data in fields.items():
        p = tmp_path / f"{name}.npy"
        np.save(p, data)
        paths[name] = str(p)
    return fields, paths, tmp_path


class TestBuildQoI:
    def test_identity(self):
        qoi = build_qoi("identity", ["x"])
        assert qoi.variables() == frozenset({"x"})

    def test_vtot(self):
        qoi = build_qoi("vtot", ["a", "b", "c"])
        assert qoi.variables() == frozenset({"a", "b", "c"})

    def test_product(self):
        qoi = build_qoi("product", ["a", "b"])
        assert qoi.variables() == frozenset({"a", "b"})

    @pytest.mark.parametrize("spec,fields", [
        ("identity", ["a", "b"]),
        ("vtot", ["a"]),
        ("temperature", ["a"]),
        ("mach", ["a", "b"]),
        ("product", ["a"]),
        ("fourier", ["a"]),
    ])
    def test_invalid_specs(self, spec, fields):
        with pytest.raises(ValueError):
            build_qoi(spec, fields)


class TestEndToEnd:
    def test_archive_info_retrieve(self, npy_fields, capsys):
        fields, paths, tmp_path = npy_fields
        archive_dir = str(tmp_path / "archive")
        out_dir = str(tmp_path / "out")

        rc = main([
            "archive", "--out", archive_dir, "--method", "pmgard_hb",
            *(f"{n}={p}" for n, p in paths.items()),
        ])
        assert rc == 0
        assert "archived 3 variable(s)" in capsys.readouterr().out

        rc = main(["info", "--archive", archive_dir])
        out = capsys.readouterr().out
        assert rc == 0
        for name in fields:
            assert name in out

        truth = np.sqrt(sum(fields[k] ** 2 for k in ("vx", "vy", "vz")))
        qrange = float(truth.max() - truth.min())
        rc = main([
            "retrieve", "--archive", archive_dir,
            "--qoi", "vtot", "--fields", "vx,vy,vz",
            "--tolerance", "1e-4", "--qoi-range", str(qrange),
            "--out", out_dir,
        ])
        assert rc == 0

        report = json.load(open(os.path.join(out_dir, "report.json")))
        assert report["satisfied"] is True
        assert report["estimated_error"] <= 1e-4 * qrange
        rec = np.sqrt(sum(
            np.load(os.path.join(out_dir, f"{k}.npy")) ** 2 for k in ("vx", "vy", "vz")
        ))
        assert np.max(np.abs(rec - truth)) <= 1e-4 * qrange * (1 + 1e-9)

    def test_retrieve_missing_field(self, npy_fields):
        fields, paths, tmp_path = npy_fields
        archive_dir = str(tmp_path / "archive")
        main(["archive", "--out", archive_dir, f"vx={paths['vx']}"])
        with pytest.raises(SystemExit):
            main([
                "retrieve", "--archive", archive_dir, "--qoi", "vtot",
                "--fields", "vx,vy,vz", "--tolerance", "1e-3",
                "--out", str(tmp_path / "o"),
            ])

    def test_archive_bad_pair(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["archive", "--out", str(tmp_path / "a"), "not-a-pair"])

    @pytest.mark.parametrize("command", [
        ["archive", "--out", "{ar}", "vx={vx}"],
        ["ingest", "--archive", "{ar}", "vx={vx}"],
        ["info", "--archive", "{ar}"],
        ["retrieve", "--archive", "{ar}", "--qoi", "identity", "--fields", "vx",
         "--tolerance", "1e-3", "--out", "{out}"],
        ["stats", "--archive", "{ar}"],
        ["compact", "--archive", "{ar}"],
    ], ids=lambda argv: argv[0])
    def test_an_older_archive_fails_in_one_line(self, npy_fields, command):
        """Every command that opens an archive an older revision wrote
        exits with the store's one-line error, and writes nothing."""
        _, paths, tmp_path = npy_fields
        archive_dir = tmp_path / "old"
        archive_dir.mkdir()
        marker = archive_dir / ".repro-store.json"
        marker.write_bytes(b'{"layout": "flat"}')
        argv = [arg.format(ar=archive_dir, vx=paths["vx"], out=tmp_path / "o")
                for arg in command]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        message = str(caught.value.code)
        assert message.startswith(f"repro {command[0]}: {str(marker)!r}")
        assert message.endswith("re-archive it from the source data")
        assert os.listdir(archive_dir) == [".repro-store.json"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,error", [
        (["info", "--archive", "{ar}"], "no dataset manifest in"),
        (["retrieve", "--archive", "{ar}", "--qoi", "identity", "--fields", "vx",
          "--tolerance", "1e-3", "--out", "{out}"], "no dataset manifest in"),
        (["stats", "--archive", "{ar}"], "nothing archived at"),
        (["compact", "--archive", "{ar}"], "nothing archived at"),
    ], ids=["info", "retrieve", "stats", "compact"])
    @pytest.mark.parametrize("url", [
        "{p}", "file://{p}", "sharded://{p}", "tiered://{p}/fast?slow=sharded://{p}/slow",
    ], ids=["plain", "file", "sharded", "tiered"])
    def test_a_mistyped_archive_fails_in_one_line_and_creates_nothing(
        self, tmp_path, command, error, url
    ):
        archive = url.format(p=tmp_path / "typo_dir")
        argv = [arg.format(ar=archive, out=tmp_path / "o") for arg in command]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == f"repro {command[0]}: {error} {archive!r}"
        assert sorted(os.listdir(tmp_path)) == []

    @pytest.mark.parametrize("command", [
        ["info", "--archive", "{ar}"],
        ["retrieve", "--archive", "{ar}", "--qoi", "identity", "--fields", "vx",
         "--tolerance", "1e-3", "--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_a_directory_without_a_manifest_fails_in_one_line(self, tmp_path, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = [arg.format(ar=empty, out=tmp_path / "o") for arg in command]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == f"repro {command[0]}: no dataset manifest in {str(empty)!r}"
        assert os.listdir(empty) == [] and not (tmp_path / "o").exists()

    def test_compacting_a_fresh_archive_rewrites_nothing(self, npy_fields, capsys):
        _, paths, tmp_path = npy_fields
        archive_dir = tmp_path / "fresh"
        assert main(["archive", "--out", str(archive_dir), f"vx={paths['vx']}"]) == 0
        log = archive_dir / "index.jsonl"
        before = log.read_bytes()
        capsys.readouterr()
        assert main(["compact", "--archive", str(archive_dir)]) == 0
        assert capsys.readouterr().out == (
            f"compacted {archive_dir}: nothing dead to reclaim; log left as it is\n"
        )
        assert log.read_bytes() == before

    def test_identity_roundtrip(self, npy_fields, capsys):
        fields, paths, tmp_path = npy_fields
        archive_dir = str(tmp_path / "archive2")
        out_dir = str(tmp_path / "out2")
        main(["archive", "--out", archive_dir, "--method", "psz3_delta",
              f"vx={paths['vx']}"])
        rc = main([
            "retrieve", "--archive", archive_dir, "--qoi", "identity",
            "--fields", "vx", "--tolerance", "1e-6",
            "--qoi-range", str(float(np.ptp(fields["vx"]))),
            "--out", out_dir,
        ])
        assert rc == 0
        rec = np.load(os.path.join(out_dir, "vx.npy"))
        assert np.max(np.abs(rec - fields["vx"])) <= 1e-6 * np.ptp(fields["vx"]) * (1 + 1e-9)

    def test_unsatisfiable_returns_2(self, npy_fields):
        fields, paths, tmp_path = npy_fields
        archive_dir = str(tmp_path / "archive3")
        main(["archive", "--out", archive_dir, "--method", "pmgard_hb",
              f"vx={paths['vx']}"])
        rc = main([
            "retrieve", "--archive", archive_dir, "--qoi", "identity",
            "--fields", "vx", "--tolerance", "1e-30",
            "--out", str(tmp_path / "o3"),
        ])
        assert rc == 2

    def test_stats_prints_tier_block_for_tiered_archive(self, npy_fields, capsys):
        fields, paths, tmp_path = npy_fields
        url = f"tiered://{tmp_path / 'fast'}?slow=sharded://{tmp_path / 'slow'}"
        assert main(["archive", "--out", url, f"vx={paths['vx']}"]) == 0
        capsys.readouterr()
        assert main(["stats", "--archive", url]) == 0
        out = capsys.readouterr().out
        assert "(TieredStore)" in out
        tier_lines = [line for line in out.splitlines() if line.startswith("tiers: fast ")]
        assert len(tier_lines) == 1 and " / slow " in tier_lines[0]
        assert "fast resident: " in out
        for removed in ("promotion", "demotion", "write-back", "transfer cycle"):
            assert removed not in out

    def test_compact_reclaims_both_tiers_of_a_tiered_archive(self, tmp_path, capsys):
        from repro.storage.store import open_store

        url = f"tiered://{tmp_path / 'fast'}?slow=sharded://{tmp_path / 'slow'}"
        store = open_store(url)
        store.put_many([("v", f"s{i}", bytes([i]) * 32) for i in range(3)])
        store.delete("v", "s0")
        store.close()
        assert main(["compact", "--archive", url]) == 0
        # the deleted fragment was written through, so each tier drops a copy
        assert "2 dead fragment(s), 64 B reclaimed" in capsys.readouterr().out
        reopened = open_store(url)
        assert reopened.durability().dead_bytes == 0
        assert set(reopened.keys()) == {("v", "s1"), ("v", "s2")}
        assert reopened.get("v", "s2") == bytes([2]) * 32
        reopened.close()
