"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench -q`` (about
a minute: every workload is smoke-run in both modes).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from repro.api import ApiBackpressure, connect  # noqa: E402
from server import Server, become_subreaper, publish_plan  # noqa: E402
from workloads import Oracle, build, run_phase  # noqa: E402

# The servers these tests start in-process leave their resource trackers
# to be reaped here, as run.py does.
become_subreaper()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_named_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "solo_predict", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.fixture(scope="module")
def plans():
    directory = ROOT / ".perfbench_work" / "tests"
    directory.mkdir(parents=True, exist_ok=True)
    artifact = publish_plan(directory)
    yield directory, artifact
    shutil.rmtree(directory, ignore_errors=True)


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = (build("ensemble_mixed", s) for s in (3, 3, 4))
    for a, b in zip(first.predict_pool + first.ensemble_pool,
                    again.predict_pool + again.ensemble_pool):
        assert np.array_equal(a, b)
    assert first.hot == again.hot and first.cold == again.cold
    assert first.hot != other.hot
    keys = [first.connections[0].key("timed", k, first) for k in range(6)]
    assert [key[0] for key in keys] == ["hot", "hot", "cold"] * 2


def test_oracle_trips_on_a_corrupted_response(plans):
    directory, artifact = plans
    workload = build("solo_predict", 1)
    oracle = Oracle(workload, artifact, directory)

    def corrupting(client, request):
        result = client.predict(request)
        logits = np.array(result.logits)
        logits.flat[0] = np.nextafter(logits.flat[0], np.inf)  # one ulp
        return dataclasses.replace(result, logits=logits)

    server = Server(directory)
    try:
        with connect(server.url) as client:
            clean = run_phase(client, workload, "timed", 0.3)
            corrupt = run_phase(client, workload, "timed", 0.3, call=corrupting)
    finally:
        server.stop()
    clean.check(oracle)
    corrupt.check(oracle)
    assert clean.records and clean.mismatches == 0 and clean.failed == 0
    assert corrupt.records and corrupt.mismatches == len(corrupt.records)
    assert corrupt.failed == len(corrupt.records)


def test_a_refused_request_counts_as_failed_and_is_not_dropped(plans):
    directory, artifact = plans
    workload = build("ensemble_mixed", 1)
    oracle = Oracle(workload, artifact, directory)
    # A zero ensemble cap makes the server refuse every ensemble with 429.
    server = Server(directory, extra_args=["--max-concurrent-ensembles", "0"])
    try:
        with connect(server.url) as client:
            before = server.scrape()
            phase = run_phase(client, workload, "timed", 1.0)
            after = server.scrape()
    finally:
        server.stop()
    phase.check(oracle)
    refused = phase.lane("ensemble")
    assert refused and all(isinstance(r.result, ApiBackpressure) for r in refused)
    assert phase.mismatches == 0
    assert phase.failed == len(refused)
    assert len(phase.records) == len(refused) + len(phase.lane("predict"))
    assert layers.error_rate([phase]) == len(refused) / len(phase.records)
    server_side = layers.from_scrapes(before, after)
    assert server_side["http.non_2xx"] == len(refused)
    assert server_side["service.ensembles_rejected"] == len(refused)
