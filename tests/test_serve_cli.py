"""Tests for the ``python -m repro.serve`` entry point."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.serve.__main__ as cli
from repro.models import make_mlp
from repro.runtime import compile_model, decode_array
from repro.serve import InferenceService, PlanCluster, PlanRegistry
from tests.test_serve_http import _predict_body, _request


def _publish(tmp_path):
    directory = tmp_path / "plans"
    registry = PlanRegistry(directory)
    model = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                     quantizer_bits=4, seed=0)
    registry.publish_model(model, "mlp", 4, "acm")
    return directory, compile_model(model)


class TestArgumentParsing:
    def test_defaults(self):
        args = cli.build_parser().parse_args(["--plan-dir", "plans"])
        assert args.workers == 0
        assert args.port == 8100
        assert args.run_for is None

    def test_plan_dir_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_precision_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--plan-dir", "plans", "--precision", "int8"])
        assert exit_info.value.code == 2

    def test_backend_selection(self, tmp_path):
        service_args = cli.build_parser().parse_args(
            ["--plan-dir", str(tmp_path / "a")]
        )
        backend = cli.build_backend(service_args)
        assert isinstance(backend, InferenceService)
        backend.close()
        cluster_args = cli.build_parser().parse_args(
            ["--plan-dir", str(tmp_path / "b"), "--workers", "1"]
        )
        backend = cli.build_backend(cluster_args)
        assert isinstance(backend, PlanCluster)
        backend.close()

    def test_self_healing_and_transport_flags(self, tmp_path):
        args = cli.build_parser().parse_args([
            "--plan-dir", str(tmp_path / "c"), "--workers", "1",
            "--auto-restart", "--max-restarts", "7",
            "--shm-threshold", "1024", "--max-concurrent-ensembles", "3",
        ])
        assert args.auto_restart is True
        assert args.max_restarts == 7
        assert args.shm_threshold == 1024
        assert args.max_concurrent_ensembles == 3
        backend = cli.build_backend(args)
        try:
            assert isinstance(backend, PlanCluster)
            assert backend.auto_restart is True
            assert backend.max_restarts == 7
            assert backend._worker_config[-1] == 1024  # shm_threshold
        finally:
            backend.close()

    @pytest.mark.parametrize("flags", [["--async"],
                                       ["--keepalive-timeout", "5"]])
    def test_removed_edge_flags_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--plan-dir", "plans", *flags])
        assert exit_info.value.code == 2

    def test_negative_shm_threshold_disables_the_transport(self, tmp_path):
        args = cli.build_parser().parse_args([
            "--plan-dir", str(tmp_path / "d"), "--workers", "1",
            "--shm-threshold", "-1",
        ])
        backend = cli.build_backend(args)
        try:
            assert backend._worker_config[-1] is None
        finally:
            backend.close()


class TestImportOrder:
    def test_cli_import_keeps_repro_api_connect_callable(self):
        # Importing the CLI first must not bind the repro.api.connect
        # *submodule* over the connect() function on the package.  Import
        # order is the trigger, so run in a fresh interpreter.
        script = (
            "import repro.serve.__main__\n"
            "from repro.api import connect\n"
            "assert callable(connect), type(connect)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)


class TestMainLoop:
    def test_main_serves_until_stopped(self, tmp_path, capsys):
        directory, plan = _publish(tmp_path)
        cli._stop.clear()
        exit_code = {}

        def run() -> None:
            exit_code["value"] = cli.main([
                "--plan-dir", str(directory), "--port", "0", "--quiet",
                "--run-for", "60",
            ])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            # The ephemeral port appears on stdout once the server is up.
            address = None
            deadline = time.monotonic() + 30
            while address is None and time.monotonic() < deadline:
                printed = capsys.readouterr().out
                for line in printed.splitlines():
                    if "serving" in line and "http://" in line:
                        host_port = line.split("http://", 1)[1].split()[0]
                        host, port = host_port.rsplit(":", 1)
                        address = (host, int(port))
                time.sleep(0.02)
            assert address is not None, "server never announced its URL"
            status, body = _request(address, "GET", "/healthz")
            assert status == 200 and body["models"] == 1
            images = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
            status, body = _request(
                address, "POST", "/v1/predict",
                _predict_body(images, model="mlp", bits=4, mapping="acm"),
            )
            assert status == 200
            np.testing.assert_array_equal(decode_array(body["logits"]),
                                          plan.run(images))
        finally:
            cli._stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_code["value"] == 0
