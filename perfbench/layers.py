"""The traced run's per-layer numbers, and the closure ladder built from them.

Two sources, neither inside the program:

* deltas of the server's own ``/metrics`` families, scraped from outside
  before and after the traced phase;
* timed calls from here into each inner layer's public function, on the
  workload's exact inputs, made after the load phases while the server
  is idle.

A layer's self time is its time minus the time of the layer it calls on
the same input.  The request-path ladder (client -> transport -> edge ->
cluster hop -> scheduler wait -> plan ops) is measured on the predict lane,
which every workload has; lane-specific numbers of a lane the workload
does not issue read 0.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.api import PredictResult
from repro.api.codec import (
    decode_predict_result,
    encode_predict_request,
    encode_predict_result,
)
from repro.runtime.montecarlo import run_plan_samples, sample_crossbar_weights
from repro.runtime.plan import ConvOp, DenseOp, InferencePlan
from repro.runtime.wire import decode_array, encode_array
from repro.serve.cluster import PlanCluster
from repro.serve.http import EdgeCore
from repro.serve.registry import PlanRegistry
from repro.serve.service import InferenceService

from server import MODEL, Scrape
from workloads import NUM_SAMPLES, Oracle, Phase, Workload

#: The acceptance bound of the latency ledger: the ladder must explain the
#: end-to-end mean to within this share.
CLOSURE_BOUND = 0.10


def _median_ms(fn: Callable[[], object], reps: int, warm: int = 3) -> float:
    for _ in range(warm):
        fn()
    samples = []
    for _ in range(reps):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return float(np.median(samples)) * 1e3


def _interleaved_ms(outer: Callable[[], object], inner: Callable[[], object],
                    reps: int, warm: int = 5) -> Tuple[float, float]:
    """Medians of two calls alternated, so drift hits both alike."""
    for _ in range(warm):
        outer()
        inner()
    a, b = [], []
    for _ in range(reps):
        began = time.perf_counter()
        outer()
        a.append(time.perf_counter() - began)
        began = time.perf_counter()
        inner()
        b.append(time.perf_counter() - began)
    return float(np.median(a)) * 1e3, float(np.median(b)) * 1e3


def _cycled(items: Sequence) -> Callable[[], object]:
    iterator = itertools.cycle(items)
    return lambda: next(iterator)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def op_kind(op) -> str:
    return type(op).__name__.removesuffix("Op").lower()


def mflop_per_row(plan: InferencePlan) -> float:
    """GEMM multiply-adds per input row (2 FLOP each), from the plan's
    symbolic output shapes and its weight shapes."""
    flops = 0
    for op, shape in zip(plan.ops, plan.output_shapes()):
        if isinstance(op, ConvOp):
            flops += 2 * int(np.prod(shape)) * op.weight.shape[1]
        elif isinstance(op, DenseOp):
            flops += 2 * op.weight.shape[0] * op.weight.shape[1]
    return flops / 1e6


def op_times_ms(plan: InferencePlan, images: Callable[[], np.ndarray],
                reps: int) -> List[float]:
    """Median time of each ``op.run``, in ``plan.ops`` order.

    Values are freed after their last use, as ``InferencePlan.run`` does,
    so each op allocates into the same recycled memory it would there.
    """
    last_use = {slot: index for index, op in enumerate(plan.ops) for slot in op.inputs}
    per_op: List[List[float]] = [[] for _ in plan.ops]
    for rep in range(reps + 3):
        values = {0: np.asarray(images(), dtype=np.float64)}
        for index, op in enumerate(plan.ops):
            began = time.perf_counter()
            values[op.output] = op.run(*(values[slot] for slot in op.inputs))
            if rep >= 3:
                per_op[index].append(time.perf_counter() - began)
            for slot in op.inputs:
                if last_use[slot] == index and slot != plan.output:
                    values.pop(slot, None)
    return [float(np.median(samples)) * 1e3 for samples in per_op]


def in_process(workload: Workload, oracle: Oracle, plan_dir, artifact) -> Dict[str, float]:
    """Timed calls into each inner layer on the workload's predict inputs."""
    rows = workload.predict_pool[0].shape[0]
    # Fewer repetitions of the 256-row calls keep every workload's traced
    # run to a few seconds of in-process timing.
    reps = 30 if rows > 64 else 100
    keys = [("predict", i) for i in range(len(workload.predict_pool))]
    requests = [workload.request(key) for key in keys]
    images = _cycled(workload.predict_pool)
    out: Dict[str, float] = {}

    # repro.api: what HttpClient does around the exchange.
    bodies = [json.dumps(encode_predict_request(r), allow_nan=False).encode("utf-8")
              for r in requests]
    responses = [
        json.dumps(encode_predict_result(PredictResult(
            logits=oracle.expected[key], request_id=f"rid-{i:027d}", **MODEL,
        )), allow_nan=False).encode("utf-8")
        for i, key in enumerate(keys)
    ]
    next_request = _cycled(requests)
    next_response = _cycled(responses)
    out["api.encode_ms"] = _median_ms(lambda: json.dumps(
        encode_predict_request(next_request()), allow_nan=False).encode("utf-8"), reps)
    out["api.decode_ms"] = _median_ms(lambda: decode_predict_result(
        json.loads(next_response().decode("utf-8"))), reps)
    out["api.request_bytes"] = float(np.mean([len(b) for b in bodies]))
    out["api.response_bytes"] = float(np.mean([len(b) for b in responses]))

    # repro.runtime.wire on the request images.
    payloads = [encode_array(array) for array in workload.predict_pool]
    next_payload = _cycled(payloads)
    out["wire.encode_ms"] = _median_ms(lambda: encode_array(images()), reps)
    out["wire.decode_ms"] = _median_ms(lambda: decode_array(next_payload()), reps)

    # repro.serve.http and repro.serve.cluster, each minus the in-process
    # service on the same request.
    service = InferenceService(PlanRegistry(plan_dir))
    core = EdgeCore(service)
    try:
        next_body = _cycled(bodies)

        def edge() -> None:
            body = next_body()
            headers = {"content-type": "application/json",
                       "content-length": str(len(body))}
            response = core.handle("POST", "/v1/predict", headers, body)
            if response.status != 200:
                raise RuntimeError(f"in-process edge answered {response.status}")

        next_typed = _cycled(requests)
        edge_ms, service_ms = _interleaved_ms(
            edge, lambda: service.predict_request(next_typed()), reps)
        out["http.self_ms"] = edge_ms - service_ms

        began = time.perf_counter()
        cluster = PlanCluster(plan_dir, num_workers=2)
        try:
            cluster.wait_ready()
            out["cluster.ready_s"] = time.perf_counter() - began
            cluster_ms, service_ms = _interleaved_ms(
                lambda: cluster.predict_request(next_typed()),
                lambda: service.predict_request(next_typed()), reps, warm=20)
            out["cluster.hop_ms"] = cluster_ms - service_ms
        finally:
            cluster.close()
    finally:
        core.jobs.close()
        service.close()

    # repro.serve.registry: a cold get deserialises the artifact.
    registries = [PlanRegistry(plan_dir) for _ in range(7)]
    cold = iter(registries)
    out["registry.load_ms"] = _median_ms(
        lambda: next(cold).get(MODEL["model"], MODEL["bits"], MODEL["mapping"]),
        reps=5, warm=2)

    # repro.runtime.plan: whole plan, then each op in program order.
    plan = InferencePlan.load(artifact)
    out["plan.run_ms"] = _median_ms(lambda: plan.run(images()), reps, warm=30)
    for index, (op, ms) in enumerate(zip(plan.ops, op_times_ms(plan, images, reps))):
        out[f"plan.op.{index}.{op_kind(op)}_ms"] = ms
    out["plan.mflop_per_row"] = mflop_per_row(plan)
    out["plan.achieved_gflops"] = out["plan.mflop_per_row"] * rows / out["plan.run_ms"]

    # repro.runtime.montecarlo, on the ensemble lane's draws.
    out["montecarlo.sample_ms"] = out["montecarlo.run_ms"] = 0.0
    out["montecarlo.stack_mb"] = 0.0
    if workload.hot:
        colds = iter(workload.cold)
        out["montecarlo.sample_ms"] = _median_ms(lambda: sample_crossbar_weights(
            plan, (draw := next(colds)).sigma, NUM_SAMPLES,
            rng=np.random.default_rng(draw.seed)), reps=5, warm=1)
        hot = workload.hot[0]
        stacks = sample_crossbar_weights(plan, hot.sigma, NUM_SAMPLES,
                                         rng=np.random.default_rng(hot.seed))
        ensemble_images = _cycled(workload.ensemble_pool)
        out["montecarlo.run_ms"] = _median_ms(lambda: run_plan_samples(
            plan, ensemble_images(), stacks, NUM_SAMPLES), reps=20)
        out["montecarlo.stack_mb"] = sum(a.nbytes for a in stacks.values()) / 1e6
    return out


def from_scrapes(before: Scrape, after: Scrape) -> Dict[str, float]:
    """Server-side per-layer numbers over the traced phase."""
    def delta(name: str, **match: str) -> float:
        return after.delta(before, name, **match)

    def mean_ms(name: str, **match: str) -> float:
        return 1e3 * _ratio(delta(name + "_sum", **match), delta(name + "_count", **match))

    routed = delta("repro_ring_routed_total")
    predicts = delta("repro_requests_total", lane="predict")
    hits = delta("repro_ensemble_cache_hits_total")
    misses = delta("repro_ensemble_cache_misses_total")
    return {
        "http.edge_ms": mean_ms("repro_http_request_latency_seconds",
                                route="/v1/predict"),
        "http.non_2xx": after.non_2xx() - before.non_2xx(),
        "cluster.shm_bytes_per_request": _ratio(
            delta("repro_cluster_shm_bytes_total"), routed),
        "cluster.shm_segments_per_request": _ratio(
            delta("repro_cluster_shm_segments_total", event="created"), routed),
        "cluster.primary_share": _ratio(
            delta("repro_ring_routed_total", role="primary"), routed),
        "cluster.failovers": delta("repro_ring_failover_total"),
        "scheduler.wait_ms": mean_ms("repro_scheduler_batch_wait_seconds"),
        "scheduler.rows_per_batch": _ratio(
            delta("repro_scheduler_batch_rows_sum"),
            delta("repro_scheduler_batch_rows_count")),
        "scheduler.requests_per_batch": _ratio(
            predicts, delta("repro_scheduler_batches_total")),
        "service.predict_ms": mean_ms("repro_request_latency_seconds", lane="predict"),
        "service.ensemble_ms": mean_ms("repro_request_latency_seconds", lane="ensemble"),
        "service.cache_hit_ratio": _ratio(hits, hits + misses),
        "service.ensembles_rejected": delta("repro_ensembles_rejected_total"),
    }


def error_rate(phases: Sequence[Phase]) -> float:
    """Requests that failed, were refused or answered wrongly, over attempted."""
    return _ratio(sum(p.failed for p in phases), sum(len(p.records) for p in phases))


def ladder(metrics: Dict[str, float]) -> List[Tuple[str, float]]:
    """Self times along the predict's blocking path, outermost first."""
    ops = sum(v for k, v in metrics.items() if k.startswith("plan.op."))
    return [
        ("client (api encode + decode)", metrics["api.encode_ms"] + metrics["api.decode_ms"]),
        ("transport", metrics["http.transport_ms"]),
        ("edge self", metrics["http.self_ms"]),
        ("cluster hop", metrics["cluster.hop_ms"]),
        ("scheduler wait", metrics["scheduler.wait_ms"]),
        ("plan ops", ops),
    ]


def per_layer(
    workload: Workload,
    oracle: Oracle,
    plan_dir,
    artifact,
    untraced: Phase,
    traced: Phase,
    before: Scrape,
    after: Scrape,
    client_before: Dict[str, int],
    client_after: Dict[str, int],
) -> Dict[str, float]:
    metrics = from_scrapes(before, after)
    metrics.update(in_process(workload, oracle, plan_dir, artifact))
    requests = client_after["requests"] - client_before["requests"]
    metrics["api.connections_opened"] = float(
        client_after["connections_opened"] - client_before["connections_opened"])
    metrics["api.pool_reuse_ratio"] = _ratio(
        client_after["connections_reused"] - client_before["connections_reused"], requests)
    metrics["api.retries"] = float(client_after["retries"] - client_before["retries"])

    traced_ms = traced.latencies_ms("predict")
    e2e_mean = float(np.mean(traced_ms)) if len(traced_ms) else 0.0
    metrics["http.transport_ms"] = (e2e_mean - metrics["http.edge_ms"]
                                    - metrics["api.encode_ms"] - metrics["api.decode_ms"])
    metrics["trace.overhead_ms"] = (float(np.median(traced_ms))
                                    - float(np.median(untraced.latencies_ms("predict"))))
    metrics["trace.unattributed_ms"] = e2e_mean - sum(v for _, v in ladder(metrics))
    metrics["error_rate"] = error_rate([untraced, traced])
    metrics["e2e_mean_ms"] = e2e_mean
    return metrics


def print_closure(workload: Workload, metrics: Dict[str, float], stream=sys.stderr) -> None:
    """The ladder of self times for one predict, next to the e2e mean."""
    e2e = metrics["e2e_mean_ms"]
    print(f"closure: one predict on {workload.name} (seed {workload.seed}), "
          f"e2e mean {e2e:.3f} ms", file=stream)
    for name, value in ladder(metrics):
        print(f"  {name:32s} {value:9.3f} ms", file=stream)
    remainder = metrics["trace.unattributed_ms"]
    flagged = abs(remainder) > CLOSURE_BOUND * e2e
    print(f"  {'unattributed':32s} {remainder:9.3f} ms"
          f"{'  FLAG: over 10% of the e2e mean' if flagged else ''}", file=stream)
