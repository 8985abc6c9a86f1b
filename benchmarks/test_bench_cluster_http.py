"""Throughput benchmark: sharded plan cluster + HTTP front-end.

The scaling claim of the cluster: serving four *distinct* models from four
worker processes must beat a single-process service handling the same
mixed traffic, because each model executes behind its own GIL on its own
core.  Both sides run the identical serving stack (registry, validation,
micro-batching) over the identical plans — the single process through
each model's scheduler future API, the cluster through client threads on
its typed entry point — so the measured ratio isolates exactly what
cross-process sharding adds.

The scaling floor (>= 2x with 4 workers) is asserted when the machine
actually has multiple cores; on a single-core container the cluster cannot
physically exceed one core of throughput, so there the benchmark still
measures and reports both sides (certifying the routing overhead is sane)
and always enforces the correctness half of the claim: every response —
in-process, cluster, or HTTP — is bit-equivalent to the bare plan.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from benchmarks.conftest import print_header, run_once
from repro.api import PredictRequest
from repro.models import make_lenet
from repro.runtime import compile_model, decode_array, encode_array
from repro.serve import (
    InferenceService,
    PlanCluster,
    PlanKey,
    PlanRegistry,
    PlanServer,
    shard_index,
)

NUM_WORKERS = 4
#: Each request carries a 16-image batch of a 4-bit ACM LeNet — enough
#: compute per request that the serving layers (scheduling, IPC, HTTP) are
#: overhead, not the workload.
REQUESTS_PER_MODEL = 48
ROWS_PER_REQUEST = 16
HTTP_REQUESTS = 32
SCALING_FLOOR = 2.0
EQUIV_ATOL = 1e-10


def _pick_model_names(num_models: int, num_workers: int) -> list:
    """Model names that shard onto distinct workers (a balanced deployment).

    The partition is a pure, documented function of the key, so an operator
    naming four services can always choose names that spread across the
    fleet; the benchmark does the same search deterministically.
    """
    names, used = [], set()
    index = 0
    while len(names) < num_models:
        candidate = f"svc{index}"
        shard = shard_index(PlanKey(candidate, 4, "acm"), num_workers)
        if shard not in used:
            used.add(shard)
            names.append(candidate)
        index += 1
    return names


def _predict(backend, name, images):
    return backend.predict_request(PredictRequest(
        images, model=name, bits=4, mapping="acm",
    )).logits


def _request_rows(images, index):
    start = (index * ROWS_PER_REQUEST) % len(images)
    return images[start:start + ROWS_PER_REQUEST]


def _drive(submit, names, images, repeats: int) -> float:
    """Fan the mixed-model batch-request workload through ``submit(name,
    rows) -> Future``; best time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        futures = [
            submit(name, _request_rows(images, i))
            for i in range(REQUESTS_PER_MODEL)
            for name in names
        ]
        for future in futures:
            future.result(timeout=300)
        best = min(best, time.perf_counter() - start)
    return best


def _cluster_http_throughput(tmp_path):
    plan_dir = tmp_path / "plans"
    registry = PlanRegistry(plan_dir)
    names = _pick_model_names(4, NUM_WORKERS)
    plans = {}
    for seed, name in enumerate(names):
        model = make_lenet(mapping="acm", quantizer_bits=4, seed=seed)
        registry.publish_model(model, name, 4, "acm")
        plans[name] = compile_model(model)

    rng = np.random.default_rng(1)
    images = rng.normal(size=(REQUESTS_PER_MODEL * ROWS_PER_REQUEST // 4,
                              1, 16, 16))
    total_requests = REQUESTS_PER_MODEL * len(names)

    # -- single-process service ---------------------------------------- #
    with InferenceService(registry, max_batch=64) as service:
        schedulers = {name: service.scheduler_for(name, 4, "acm")
                      for name in names}
        schedulers[names[0]].submit(images[:4]).result(timeout=300)
        single_seconds = _drive(
            lambda name, rows: schedulers[name].submit(rows),
            names, images, repeats=2,
        )
        # Correctness of the single-process side, one full batch per model.
        for name in names:
            np.testing.assert_allclose(
                _predict(service, name, images),
                plans[name].run(images), atol=EQUIV_ATOL, rtol=0,
            )

    # -- sharded cluster ------------------------------------------------ #
    with PlanCluster(plan_dir, num_workers=NUM_WORKERS,
                     max_batch=64) as cluster:
        cluster.wait_ready(timeout=300)
        shards = {name: cluster.worker_for(name, 4, "acm") for name in names}
        for name in names:  # warm every worker's plan + schedulers
            _predict(cluster, name, images[:4])
        # One client thread per request, so the whole workload is in
        # flight at once; each worker queues its share straight into its
        # schedulers, as one process would.
        with ThreadPoolExecutor(
            max_workers=len(names) * REQUESTS_PER_MODEL
        ) as clients:
            cluster_seconds = _drive(
                lambda name, rows: clients.submit(_predict, cluster, name,
                                                  rows),
                names, images, repeats=2,
            )
        cluster_logits = {
            name: _predict(cluster, name, images) for name in names
        }

        # -- HTTP front-end over the cluster ---------------------------- #
        with PlanServer(cluster, own_backend=False) as server:
            import http.client

            def http_predict(index):
                name = names[index % len(names)]
                connection = http.client.HTTPConnection(*server.address,
                                                        timeout=120)
                try:
                    body = json.dumps({
                        "model": name, "bits": 4, "mapping": "acm",
                        "images": encode_array(_request_rows(images, index)),
                    })
                    connection.request("POST", "/v1/predict", body=body)
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                finally:
                    connection.close()
                assert response.status == 200
                return name, index, payload

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=8) as pool:
                http_responses = list(pool.map(http_predict,
                                               range(HTTP_REQUESTS)))
            http_seconds = time.perf_counter() - start

            # Bit-equivalence of the full wire path: one whole-batch request
            # reproduces the bare plan exactly (identical stacked geometry).
            name = names[0]
            exact_body = json.dumps({
                "model": name, "bits": 4, "mapping": "acm",
                "images": encode_array(images),
            })
            connection = http.client.HTTPConnection(*server.address, timeout=120)
            try:
                connection.request("POST", "/v1/predict", body=exact_body)
                response = connection.getresponse()
                exact_payload = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 200
            http_exact = decode_array(exact_payload["logits"])

    return {
        "names": names,
        "shards": shards,
        "plans": plans,
        "single_seconds": single_seconds,
        "cluster_seconds": cluster_seconds,
        "cluster_logits": cluster_logits,
        "http_seconds": http_seconds,
        "http_responses": http_responses,
        "http_exact": http_exact,
        "images": images,
        "total_requests": total_requests,
    }


@pytest.mark.benchmark(group="serve-cluster")
def test_cluster_scales_over_single_process_and_http_is_exact(benchmark, tmp_path):
    result = run_once(benchmark, _cluster_http_throughput, tmp_path)

    total = result["total_requests"]
    single_rps = total / result["single_seconds"]
    cluster_rps = total / result["cluster_seconds"]
    http_rps = HTTP_REQUESTS / result["http_seconds"]
    speedup = result["single_seconds"] / result["cluster_seconds"]
    cores = len(os.sched_getaffinity(0))

    print_header(
        f"Sharded plan cluster vs single process "
        f"({len(result['names'])} models, {NUM_WORKERS} workers, {cores} cores)"
    )
    print(f"workload            : {total} requests of {ROWS_PER_REQUEST} images, "
          f"round-robin over {result['names']}")
    print(f"shard assignment    : {result['shards']}")
    print(f"single process      : {result['single_seconds'] * 1e3:8.1f} ms "
          f"({single_rps:8.0f} req/s aggregate)")
    print(f"cluster ({NUM_WORKERS} workers) : "
          f"{result['cluster_seconds'] * 1e3:8.1f} ms "
          f"({cluster_rps:8.0f} req/s aggregate)")
    print(f"speedup             : {speedup:.2f}x  "
          f"(floor: {SCALING_FLOOR}x, enforced on >= {NUM_WORKERS} cores)")
    print(f"HTTP front-end      : {HTTP_REQUESTS} requests in "
          f"{result['http_seconds'] * 1e3:8.1f} ms ({http_rps:8.0f} req/s)")

    # Correctness half of the claim, unconditionally enforced.
    for name, logits in result["cluster_logits"].items():
        np.testing.assert_allclose(
            logits, result["plans"][name].run(result["images"]),
            atol=EQUIV_ATOL, rtol=0,
        )
    for name, index, payload in result["http_responses"]:
        expected = result["plans"][name].run(_request_rows(result["images"], index))
        np.testing.assert_allclose(decode_array(payload["logits"]), expected,
                                   atol=EQUIV_ATOL, rtol=0)
    # The whole-batch HTTP request is *bit*-equivalent: same stacked
    # geometry as the reference execution, float64 b64 on the wire.
    np.testing.assert_array_equal(
        result["http_exact"],
        result["plans"][result["names"][0]].run(result["images"]),
    )

    # Scaling half: only meaningful where the workers can actually run in
    # parallel.  A single-core container shares one core among 4 processes,
    # so there we only require the cluster not to collapse under routing
    # overhead.
    if cores >= NUM_WORKERS:
        assert speedup >= SCALING_FLOOR, (
            f"cluster speedup {speedup:.2f}x below the {SCALING_FLOOR}x floor"
        )
    elif cores >= 2:
        # Fewer cores than workers: partial parallelism, partial floor.
        assert speedup >= 1.2, (
            f"cluster speedup {speedup:.2f}x shows no parallel gain on "
            f"{cores} cores"
        )
    else:
        # Compute per request dwarfs IPC, so even time-sliced on one core
        # the cluster must stay within ~2.5x of the in-process service.
        assert cluster_rps > 0.4 * single_rps, (
            "cluster throughput collapsed under IPC overhead "
            f"({cluster_rps:.0f} vs {single_rps:.0f} req/s on one core)"
        )
