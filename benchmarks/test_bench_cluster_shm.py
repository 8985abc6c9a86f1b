"""Transport benchmark: shared-memory vs pickled-pipe cluster arrays.

Large request batches are where the cluster's pipe protocol pays for
itself in copies: a pickled ndarray is serialised into the pipe, squeezed
through the kernel's 64 KiB pipe buffer, and deserialised on the far side
— at least two full copies plus chunked syscalls per hop.  The
shared-memory transport replaces that with one memcpy into a named
segment and one out of it, with only a tiny descriptor on the pipe.

Both sides of this benchmark run the *identical* serving stack (registry,
validation, micro-batching, handler pool) over the identical plans and the
identical large-batch workload; the measured ratio isolates exactly what
the transport swap buys.  Correctness is enforced unconditionally — every
response, over either transport, must be *bit-identical* to the bare plan
execution — while the speedup floor is asserted only where the parent and
worker can actually overlap (multi-core hosts); on a single core the
benchmark still reports both sides and requires the shm path not to
regress materially.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from benchmarks.conftest import print_header, run_once
from repro.api import PredictRequest
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import PlanCluster, PlanRegistry

#: A deliberately IPC-heavy workload: wide flat inputs in big batches, a
#: small model — per-request payload ~4 MiB, per-request compute tiny.
INPUT_SIZE = 4096
ROWS_PER_REQUEST = 128
REQUESTS = 12
REPEATS = 3
SHM_THRESHOLD = 1 << 16
SPEEDUP_FLOOR = 1.15        # enforced on >= 2 cores
SINGLE_CORE_GUARD = 0.60    # shm throughput may not collapse anywhere


def _drive(cluster, images, expected) -> float:
    """Pump the large-batch workload through one cluster; best wall time.

    All requests are in flight at once: one client thread each, blocking
    on its pipe future while the worker's handler pool serves them.
    """
    request = PredictRequest(images, model="wide", bits=4, mapping="acm")
    best = float("inf")
    with ThreadPoolExecutor(max_workers=REQUESTS) as clients:
        for _ in range(REPEATS):
            start = time.perf_counter()
            futures = [
                clients.submit(cluster.predict_request, request, timeout=600)
                for _ in range(REQUESTS)
            ]
            outputs = [future.result().logits for future in futures]
            best = min(best, time.perf_counter() - start)
            for logits in outputs:
                np.testing.assert_array_equal(logits, expected)
    return best


def _transport_comparison(tmp_path):
    plan_dir = tmp_path / "plans"
    registry = PlanRegistry(plan_dir)
    model = make_mlp(input_size=INPUT_SIZE, hidden_sizes=(16,), mapping="acm",
                     quantizer_bits=4, seed=0)
    registry.publish_model(model, "wide", 4, "acm")
    plan = compile_model(model)
    images = np.random.default_rng(1).normal(
        size=(ROWS_PER_REQUEST, INPUT_SIZE)
    )
    expected = plan.run(images)

    results = {}
    for label, threshold in (("pipe", None), ("shm", SHM_THRESHOLD)):
        with PlanCluster(plan_dir, num_workers=1, handler_threads=4,
                         max_batch=ROWS_PER_REQUEST,
                         shm_threshold=threshold) as cluster:
            cluster.wait_ready(timeout=300)
            # Warm the worker's plan and schedulers out of the timed region.
            cluster.predict_request(PredictRequest(
                images[:4], model="wide", bits=4, mapping="acm",
            ))
            results[label] = {
                "seconds": _drive(cluster, images, expected),
                "transport": cluster.stats_summary()["worker-0"]["transport"],
            }
    return {
        "results": results,
        "payload_bytes": images.nbytes,
        "expected": expected,
    }


@pytest.mark.benchmark(group="serve-cluster")
def test_shm_transport_beats_pipe_on_large_batches(benchmark, tmp_path):
    outcome = run_once(benchmark, _transport_comparison, tmp_path)

    pipe = outcome["results"]["pipe"]
    shm = outcome["results"]["shm"]
    speedup = pipe["seconds"] / shm["seconds"]
    request_mib = outcome["payload_bytes"] / 2**20
    cores = len(os.sched_getaffinity(0))

    print_header(
        f"Cluster transport: shared memory vs pickled pipe "
        f"({REQUESTS} requests x {request_mib:.1f} MiB, {cores} core(s))"
    )
    for label in ("pipe", "shm"):
        seconds = outcome["results"][label]["seconds"]
        rate = REQUESTS * outcome["payload_bytes"] / seconds / 2**20
        print(f"{label:5s}: {seconds * 1e3:8.1f} ms best "
              f"({rate:8.0f} MiB/s of request payload)")
    transport = shm["transport"]
    print(f"shm segments created={transport['segments_created']} "
          f"consumed={transport['segments_consumed']} "
          f"bytes_sent={transport['bytes_sent']}")
    print(f"speedup: {speedup:.2f}x  (floor {SPEEDUP_FLOOR}x on >= 2 cores)")

    # The pipe side must not have silently used shared memory, and the shm
    # side must actually have moved the batches through segments.
    assert pipe["transport"]["segments_created"] == 0
    assert transport["segments_created"] >= REQUESTS
    assert transport["bytes_sent"] >= REQUESTS * outcome["payload_bytes"]
    assert transport["active_segments"] == 0

    # Scaling half, gated on real parallelism between parent and worker.
    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"shm transport speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    else:
        # Time-sliced on one core the copies still shrink, but scheduling
        # noise dominates; only guard against a real regression.
        assert speedup >= SINGLE_CORE_GUARD, (
            f"shm transport is {1 / speedup:.2f}x slower than the pipe"
        )
