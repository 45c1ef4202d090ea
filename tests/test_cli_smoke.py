"""Smoke coverage for every CLI entry point: tiny inputs, exit code 0.

Each subcommand runs in-process through :func:`repro.cli.main` so the smoke
stays fast and the exit code is asserted directly.  The figure commands are
exercised with a single benchmark/device at a heavily scaled-down input;
``serve``/``submit`` run a real TCP round-trip on an ephemeral port.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.cli import main


def run_cli(argv) -> int:
    return main([str(arg) for arg in argv])


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "engine.sqlite")


class TestCoreVerbs:
    def test_table1(self, capsys):
        assert run_cli(["table1"]) == 0
        assert "Stencil2D" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra", [[], ["--strategy", "tiled", "--tile", "18"]]
    )
    def test_kernel(self, capsys, extra):
        assert run_cli(["kernel", "stencil2d", "--size", 20, 20] + extra) == 0
        assert "__kernel" in capsys.readouterr().out

    def test_verify(self, capsys):
        assert run_cli(["verify", "--benchmarks", "jacobi2d5pt"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_figure7(self, capsys):
        assert run_cli([
            "figure7", "--benchmarks", "stencil2d", "--devices", "nvidia",
            "--budget", 2, "--scale", 0.01,
        ]) == 0
        assert "Stencil2D" in capsys.readouterr().out

    def test_figure8(self, capsys):
        assert run_cli([
            "figure8", "--benchmarks", "jacobi2d5pt", "--devices", "nvidia",
            "--sizes", "small", "--budget", 2, "--scale", 0.01,
        ]) == 0
        assert "Jacobi" in capsys.readouterr().out

    def test_explore(self, capsys, store_path):
        assert run_cli([
            "explore", "stencil2d", "--budget", 4, "--scale", 0.01,
            "--store", store_path,
        ]) == 0
        assert "best:" in capsys.readouterr().out

    def test_tune(self, capsys, store_path):
        assert run_cli([
            "tune", "stencil2d", "--budget", 4, "--scale", 0.01,
            "--store", store_path, "--session", "smoke",
        ]) == 0
        assert "session smoke" in capsys.readouterr().out


class TestServiceVerbs:
    def test_stats(self, capsys, store_path):
        # Populate the store first so the report covers a real file.
        assert run_cli([
            "tune", "stencil2d", "--budget", 2, "--scale", 0.01,
            "--store", store_path,
        ]) == 0
        capsys.readouterr()
        assert run_cli(["stats", "--store", store_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results_store"]["available"]
        assert report["results_store"]["entries"] > 0
        assert "evictions" in report["compilation_cache"]
        assert "Stencil2D" in report["results_store"]["best"]

    def test_stats_without_store(self, capsys, tmp_path):
        assert run_cli(["stats", "--store", str(tmp_path / "nope.sqlite")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results_store"] == {"available": False}
        assert list(tmp_path.iterdir()) == []

    def test_loadgen(self, capsys, tmp_path):
        out = str(tmp_path / "bench.json")
        assert run_cli([
            "loadgen", "stencil2d", "--requests", 8, "--shape", 16, 16,
            "--repeats", 1, "--out", out, "--assert-batched",
        ]) == 0
        text = capsys.readouterr().out
        assert "speedup" in text
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["compilations"] == 1
        assert report["batches_formed"] < report["requests_served"]

    def test_serve_and_submit(self, capsys):
        free = socket.socket()
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
        free.close()

        server = threading.Thread(
            target=run_cli,
            args=([
                "serve", "--port", port, "--no-store",
                "--max-requests", 2, "--window-ms", 1,
            ],),
            daemon=True,
        )
        server.start()
        deadline = 10.0
        import time

        start = time.monotonic()
        while time.monotonic() - start < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                break
            except OSError:
                time.sleep(0.05)
        assert run_cli([
            "submit", "stencil2d", "--port", port, "--shape", 9, 8,
            "--count", 2,
        ]) == 0
        out = capsys.readouterr().out
        assert "stencil2d digest " in out
        server.join(timeout=15)
        assert not server.is_alive()
