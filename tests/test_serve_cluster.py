"""Tests for the sharded multi-process serving cluster.

Certifies the three cluster contracts: results are exactly what an
in-process service produces (the pickle boundary adds nothing, even for a
4 MiB request), the
model-key partition is stable and total, and shutdown drains in-flight
work instead of dropping it.  One cluster is shared per module — spawning
worker processes is the expensive part.
"""

from __future__ import annotations

import os
import queue
import select
import signal
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import (
    ApiBackpressure,
    ApiServerError,
    BackendClosed,
    EnsembleRequest,
    InvalidRequest,
    ModelNotFound,
    PredictRequest,
    WorkerDied,
    connect,
)
from repro.models import make_mlp
from repro.runtime import InferencePlan, compile_model, decode_array
from repro.serve import (
    InferenceService,
    PlanCluster,
    PlanKey,
    PlanRegistry,
    PlanServer,
    canary_bucket,
    shard_index,
)
from repro.serve.cluster import _FramedSocket, _WorkerClient, _worker_main
from tests.test_serve_http import _predict_body, _request

MODEL_NAMES = ("alpha", "beta", "gamma")

#: The wide model's request: 128 rows of 4096 float64 inputs, 4 MiB.
WIDE_ROWS, WIDE_INPUTS = 128, 4096


def _wait_pending(worker, count, timeout=60.0):
    """Block until ``count`` requests sit in a worker handle's pending
    table, so a following ``close()`` provably has them in flight."""
    deadline = time.monotonic() + timeout
    while worker.load() < count:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"only {worker.load()} of {count} requests reached the worker"
            )
        time.sleep(0.001)


@pytest.fixture(scope="module")
def cluster_env(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-plans")
    registry = PlanRegistry(directory)
    plans = {}
    for seed, name in enumerate(MODEL_NAMES):
        model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                         quantizer_bits=4, seed=seed)
        registry.publish_model(model, name, 4, "acm")
        plans[name] = compile_model(model)
    wide = make_mlp(input_size=WIDE_INPUTS, hidden_sizes=(16,), mapping="acm",
                    quantizer_bits=4, seed=0)
    registry.publish_model(wide, "wide", 4, "acm")
    cluster = PlanCluster(directory, num_workers=2, max_batch=16)
    cluster.wait_ready(timeout=120)
    images = np.random.default_rng(3).normal(size=(6, 1, 4, 4))
    yield SimpleNamespace(
        directory=directory, registry=registry, plans=plans,
        cluster=cluster, images=images, wide_plan=compile_model(wide),
        wide_images=np.random.default_rng(1).normal(
            size=(WIDE_ROWS, WIDE_INPUTS)),
    )
    cluster.close()


class TestSharding:
    def test_partition_is_stable_total_and_in_range(self):
        keys = [PlanKey(f"m{i}", bits, mapping)
                for i in range(20)
                for bits in (1, 4, None)
                for mapping in ("acm", "de", "bc")]
        for workers in (1, 2, 3, 7):
            shards = [shard_index(key, workers) for key in keys]
            assert all(0 <= shard < workers for shard in shards)
            # Pure function: same key, same shard, every time.
            assert shards == [shard_index(key, workers) for key in keys]
        # With enough keys the hash uses every worker.
        assert set(shard_index(key, 2) for key in keys) == {0, 1}

    def test_worker_for_matches_shard_index(self, cluster_env):
        for name in MODEL_NAMES:
            assert cluster_env.cluster.worker_for(name, 4, "acm") == shard_index(
                PlanKey(name, 4, "acm"), cluster_env.cluster.num_workers
            )

    def test_invalid_worker_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            shard_index(PlanKey("m", 4, "acm"), 0)
        with pytest.raises(ValueError):
            PlanCluster(tmp_path, num_workers=0)
        # The shared-memory transport is gone; so is its knob.
        with pytest.raises(TypeError):
            PlanCluster(tmp_path, shm_threshold=0)
        # So is the worker's handler pool: the scheduler queue is the
        # only queue, and the old knob fails loudly on both surfaces.
        with pytest.raises(TypeError):
            PlanCluster(tmp_path, handler_threads=4)
        with pytest.raises(ValueError, match="unknown cluster"):
            connect(f"cluster:{tmp_path}?handler_threads=4")


class TestClusterRequests:
    def test_predict_exact_for_every_model(self, cluster_env):
        cases = [(name, plan, cluster_env.images)
                 for name, plan in cluster_env.plans.items()]
        # A 4 MiB batch crosses the worker pipe as one pickle, bit-exact.
        cases.append(("wide", cluster_env.wide_plan, cluster_env.wide_images))
        for name, plan, images in cases:
            logits = cluster_env.cluster.predict_request(PredictRequest(
                images, model=name, bits=4, mapping="acm",
            )).logits
            np.testing.assert_array_equal(logits, plan.run(images))

    def test_single_sample_request_drops_batch_axis(self, cluster_env):
        # The MLP plans take flat (16,) samples; a single flat vector must
        # come back as (10,) logits, not a one-row batch.
        sample = cluster_env.images[0].reshape(-1)
        logits = cluster_env.cluster.predict_request(PredictRequest(
            sample, model="alpha", bits=4, mapping="acm",
        )).logits
        assert logits.shape == (10,)
        np.testing.assert_array_equal(
            logits, cluster_env.plans["alpha"].run(sample[None])[0]
        )

    def test_concurrent_requests_across_models_all_exact(self, cluster_env):
        def predict(name, index):
            return cluster_env.cluster.predict_request(PredictRequest(
                cluster_env.images[index], model=name, bits=4, mapping="acm",
            )).logits

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                (name, index, pool.submit(predict, name, index))
                for index in range(len(cluster_env.images))
                for name in MODEL_NAMES
            ]
            for name, index, future in futures:
                expected = cluster_env.plans[name].run(
                    cluster_env.images[index:index + 1]
                )
                np.testing.assert_allclose(future.result(timeout=60),
                                           expected, atol=1e-10, rtol=0)

    def test_ensemble_bit_identical_to_in_process_service(self, cluster_env):
        kwargs = dict(model="beta", bits=4, mapping="acm",
                      sigma_fraction=0.2, num_samples=7, seed=5)
        via_cluster = cluster_env.cluster.ensemble_request(EnsembleRequest(
            cluster_env.images, **kwargs,
        ))
        with InferenceService(PlanRegistry(cluster_env.directory)) as reference:
            in_process = reference.ensemble_request(EnsembleRequest(
                cluster_env.images, **kwargs,
            ))
        np.testing.assert_array_equal(via_cluster.mean_logits,
                                      in_process.mean_logits)
        np.testing.assert_array_equal(via_cluster.predictions,
                                      in_process.predictions)
        np.testing.assert_array_equal(via_cluster.vote_counts,
                                      in_process.vote_counts)

    def test_unknown_model_raises_keyerror_in_caller(self, cluster_env):
        with pytest.raises(ModelNotFound, match="unknown"):
            cluster_env.cluster.predict_request(PredictRequest(
                cluster_env.images, model="unknown", bits=4, mapping="acm",
            ))

    def test_malformed_geometry_raises_valueerror_in_caller(self, cluster_env):
        with pytest.raises(InvalidRequest, match="incompatible"):
            cluster_env.cluster.predict_request(PredictRequest(
                np.zeros((2, 3, 3)), model="alpha", bits=4, mapping="acm",
            ))

    def test_late_published_model_is_served_after_refresh(self, cluster_env):
        late = make_mlp(input_size=16, hidden_sizes=(6,), mapping="de",
                        quantizer_bits=6, seed=11)
        cluster_env.registry.publish_model(late, "late", 6, "de")
        logits = cluster_env.cluster.predict_request(PredictRequest(
            cluster_env.images, model="late", bits=6, mapping="de",
        )).logits
        np.testing.assert_array_equal(logits,
                                      compile_model(late).run(cluster_env.images))


class TestClusterIntrospection:
    def test_models_lists_catalogue_with_shards(self, cluster_env):
        listed = {entry["name"]: entry for entry in cluster_env.cluster.models()}
        for name in MODEL_NAMES:
            entry = listed[f"{name}__4b__acm"]
            assert entry["digest"] == cluster_env.registry.digest(name, 4, "acm")
            assert entry["worker"] == cluster_env.cluster.worker_for(name, 4, "acm")

    def test_stats_summary_covers_every_worker(self, cluster_env):
        cluster_env.cluster.predict_request(PredictRequest(
            cluster_env.images, model="alpha", bits=4, mapping="acm",
        ))
        summary = cluster_env.cluster.stats_summary()
        assert set(summary) == {"worker-0", "worker-1"}
        total_requests = sum(
            stats.get("num_requests", 0)
            for worker_stats in summary.values()
            for name, stats in worker_stats.items()
            if name != "ensemble_cache"
        )
        assert total_requests >= 1

    def test_http_front_end_over_cluster(self, cluster_env):
        with PlanServer(cluster_env.cluster, own_backend=False) as server:
            status, body = _request(
                server.address, "POST", "/v1/predict",
                _predict_body(cluster_env.images, model="gamma", bits=4,
                              mapping="acm"),
            )
            assert status == 200
            np.testing.assert_array_equal(
                decode_array(body["logits"]),
                cluster_env.plans["gamma"].run(cluster_env.images),
            )
            status, body = _request(
                server.address, "POST", "/v1/predict",
                _predict_body(cluster_env.images, model="missing", bits=4,
                              mapping="acm"),
            )
            assert status == 404
            status, body = _request(server.address, "GET", "/v1/models")
            assert status == 200
            assert {"worker"} <= set(body["models"][0])
        # own_backend=False: the cluster survives the server.
        cluster_env.cluster.predict_request(PredictRequest(
            cluster_env.images[:1], model="alpha", bits=4, mapping="acm",
        ))


class TestClusterLifecycle:
    def test_close_drains_inflight_requests(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        model = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                         quantizer_bits=4, seed=0)
        registry.publish_model(model, "solo", 4, "acm")
        plan = compile_model(model)
        images = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        cluster = PlanCluster(tmp_path / "plans", num_workers=1)
        cluster.wait_ready(timeout=120)
        request = PredictRequest(images, model="solo", bits=4, mapping="acm")
        worker = cluster._workers[0]
        with ThreadPoolExecutor(max_workers=8) as pool:
            # A stopped worker cannot answer, so all 8 requests are in
            # flight together however slowly the client threads start.
            os.kill(worker.process.pid, signal.SIGSTOP)
            try:
                futures = [pool.submit(cluster.predict_request, request)
                           for _ in range(8)]
                _wait_pending(worker, len(futures))
            finally:
                os.kill(worker.process.pid, signal.SIGCONT)
            cluster.close()
            for future in futures:
                np.testing.assert_array_equal(future.result(timeout=10).logits,
                                              plan.run(images))

    def test_closed_cluster_rejects_requests(self, tmp_path):
        cluster = PlanCluster(tmp_path / "plans", num_workers=1)
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(BackendClosed):
            cluster.predict_request(PredictRequest(
                np.zeros((1, 1, 4, 4)), model="m", bits=4, mapping="acm",
            ))
        with pytest.raises(RuntimeError):
            cluster.stats_summary()


class TestWorkerDeath:
    """A dead worker strands nothing: typed failures, shard exclusion, restart.

    Pinned to ``replicas=1``: these tests certify the single-owner
    fail-fast semantics the ring must degrade to (with R >= 2 a dead
    shard fails over instead — covered by ``TestReplicatedDeath``).
    """

    @pytest.fixture
    def death_env(self, tmp_path):
        directory = tmp_path / "plans"
        registry = PlanRegistry(directory)
        # Big enough that an ensemble request is reliably still in flight
        # when the worker process is killed underneath it.
        model = make_mlp(input_size=256, hidden_sizes=(256, 256),
                         mapping="acm", quantizer_bits=4, seed=0)
        registry.publish_model(model, "big", 4, "acm")
        small = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                         quantizer_bits=4, seed=1)
        registry.publish_model(small, "small", 4, "acm")
        cluster = PlanCluster(directory, num_workers=2, replicas=1)
        cluster.wait_ready(timeout=120)
        yield SimpleNamespace(cluster=cluster, directory=directory,
                              plans={"big": compile_model(model),
                                     "small": compile_model(small)})
        cluster.close()

    @staticmethod
    def _kill_worker(cluster, index):
        worker = cluster._workers[index]
        worker.process.kill()
        worker.process.join(timeout=30)

    @staticmethod
    def _wait_dead(cluster, index, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if cluster._workers[index].dead:
                return
            time.sleep(0.01)
        raise AssertionError(f"worker {index} never marked dead")

    def test_inflight_futures_fail_with_typed_worker_died(self, death_env):
        from repro.api.errors import WorkerDied

        cluster = death_env.cluster
        shard = cluster.worker_for("big", 4, "acm")
        images = np.random.default_rng(2).normal(size=(32, 256))
        worker = cluster._workers[shard]
        # A heavyweight ensemble keeps the worker busy while we kill it.
        future = worker.submit("ensemble", EnsembleRequest(
            images, model="big", bits=4, mapping="acm", sigma_fraction=0.1,
            num_samples=64, seed=0,
        ))
        self._kill_worker(cluster, shard)
        with pytest.raises(WorkerDied):
            future.result(timeout=60)

    def test_dead_shard_is_excluded_and_restartable(self, death_env):
        from repro.api import ClusterClient, PredictRequest, WorkerDied

        cluster = death_env.cluster
        shard = cluster.worker_for("big", 4, "acm")
        other_models = [name for name in ("big", "small")
                        if cluster.worker_for(name, 4, "acm") != shard]
        self._kill_worker(cluster, shard)
        self._wait_dead(cluster, shard)
        assert cluster.dead_workers == [shard]

        images = np.random.default_rng(3).normal(size=(4, 256))
        # New requests to the dead shard fail fast with the typed error...
        with pytest.raises(WorkerDied):
            cluster.predict_request(PredictRequest(
                images, model="big", bits=4, mapping="acm",
            ))
        client = ClusterClient(cluster, own_backend=False)
        with pytest.raises(WorkerDied):
            client.predict(PredictRequest(images=images, model="big",
                                          mapping="acm", bits=4))
        # ...while every other shard keeps serving...
        for name in other_models:
            small_images = np.random.default_rng(4).normal(size=(3, 16))
            np.testing.assert_array_equal(
                cluster.predict_request(PredictRequest(
                    small_images, model=name, bits=4, mapping="acm",
                )).logits,
                death_env.plans[name].run(small_images),
            )
        # ...and monitoring reports the dead shard instead of failing
        # (the parent-side transport/supervisor blocks stay available).
        summary = cluster.stats_summary()
        assert summary[f"worker-{shard}"]["status"] == {"dead": True}
        assert summary[f"worker-{shard}"]["supervisor"]["breaker_open"] is False

        # Restart re-admits the shard with exact results.
        cluster.restart_worker(shard)
        assert cluster.dead_workers == []
        np.testing.assert_array_equal(
            cluster.predict_request(PredictRequest(
                images, model="big", bits=4, mapping="acm",
            )).logits,
            death_env.plans["big"].run(images),
        )

    def test_restart_worker_validates_index(self, death_env):
        with pytest.raises(ValueError):
            death_env.cluster.restart_worker(99)


class TestReplicatedDeath:
    """With replicas >= 2, a dead shard degrades a model, never downs it."""

    @pytest.fixture
    def replica_env(self, tmp_path):
        directory = tmp_path / "plans"
        registry = PlanRegistry(directory)
        plans = {}
        for seed, name in enumerate(("rep-a", "rep-b")):
            model = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                             quantizer_bits=4, seed=seed)
            registry.publish_model(model, name, 4, "acm")
            plans[name] = compile_model(model)
        cluster = PlanCluster(directory, num_workers=2, replicas=2)
        cluster.wait_ready(timeout=120)
        yield SimpleNamespace(cluster=cluster, registry=registry, plans=plans)
        cluster.close()

    @staticmethod
    def _kill_and_wait(cluster, index, timeout=30.0):
        import time

        worker = cluster._workers[index]
        worker.process.kill()
        worker.process.join(timeout=timeout)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if cluster._workers[index].dead:
                return
            time.sleep(0.01)
        raise AssertionError(f"worker {index} never marked dead")

    def test_every_model_survives_one_dead_worker_bit_exact(self, replica_env):
        cluster = replica_env.cluster
        for name in replica_env.plans:
            assert cluster.replicas_for(name, 4, "acm") in ((0, 1), (1, 0))
        self._kill_and_wait(cluster, 0)
        images = np.random.default_rng(7).normal(size=(5, 16))
        for name, plan in replica_env.plans.items():
            np.testing.assert_array_equal(
                cluster.predict_request(PredictRequest(
                    images, model=name, bits=4, mapping="acm",
                )).logits,
                plan.run(images),
            )
        # The skips are visible on the failover counter for models whose
        # primary was the dead worker.
        families = {f.name: f for f in cluster.metrics.collect()}
        failovers = sum(s.value for s in
                        families["repro_ring_failover_total"].samples)
        primaries = [name for name in replica_env.plans
                     if cluster.worker_for(name, 4, "acm") == 0]
        if primaries:
            assert failovers >= len(primaries)

    def test_health_distinguishes_degraded_from_down(self, replica_env):
        cluster = replica_env.cluster
        status, detail = cluster.health_summary()
        assert status == "ok"
        for info in detail["models"].values():
            assert info == {"replicas": 2, "live": 2, "state": "ok"}
        self._kill_and_wait(cluster, 0)
        status, detail = cluster.health_summary()
        assert status == "degraded"
        assert detail["worker-0"]["alive"] is False
        # One replica down: every model degraded to R-1, none down.
        for info in detail["models"].values():
            assert info == {"replicas": 2, "live": 1, "state": "degraded"}
        self._kill_and_wait(cluster, 1)
        _, detail = cluster.health_summary()
        for info in detail["models"].values():
            assert info == {"replicas": 2, "live": 0, "state": "down"}

    def test_all_replicas_dead_surfaces_typed_error(self, replica_env):
        from repro.api.errors import WorkerDied

        cluster = replica_env.cluster
        self._kill_and_wait(cluster, 0)
        self._kill_and_wait(cluster, 1)
        images = np.random.default_rng(8).normal(size=(2, 16))
        with pytest.raises(WorkerDied) as excinfo:
            cluster.predict_request(PredictRequest(
                images, model="rep-a", bits=4, mapping="acm",
            ))
        assert excinfo.value.breaker_open is False

    def test_rolling_restart_is_zero_downtime(self, replica_env):
        cluster = replica_env.cluster
        images = np.random.default_rng(9).normal(size=(3, 16))
        for index in range(cluster.num_workers):
            cluster.restart_worker(index)
            # Immediately after each restart every model answers exactly —
            # no dead window, no WorkerDied, no stale registry.
            for name, plan in replica_env.plans.items():
                np.testing.assert_array_equal(
                    cluster.predict_request(PredictRequest(
                        images, model=name, bits=4, mapping="acm",
                    )).logits,
                    plan.run(images),
                )
        assert cluster.dead_workers == []
        summary = cluster.stats_summary()
        for index in range(cluster.num_workers):
            assert summary[f"worker-{index}"]["supervisor"]["restarts"] == 1

    def test_replica_routing_counters_and_admin_detail(self, replica_env):
        cluster = replica_env.cluster
        images = np.random.default_rng(10).normal(size=(2, 16))
        cluster.predict_request(PredictRequest(
            images, model="rep-a", bits=4, mapping="acm",
        ))
        families = {f.name: f for f in cluster.metrics.collect()}
        routed = {dict(s.labels)["role"]: s.value
                  for s in families["repro_ring_routed_total"].samples}
        assert routed.get("primary", 0) >= 1
        replicas = {dict(s.labels)["kind"]: s.value
                    for s in families["repro_ring_replicas"].samples}
        assert replicas == {"configured": 2.0, "effective": 2.0}
        live = {dict(s.labels)["model"]: s.value
                for s in
                families["repro_ring_model_replicas_live"].samples}
        assert set(live) == {"rep-a__4b__acm", "rep-b__4b__acm"}
        assert all(value == 2.0 for value in live.values())
        for entry in cluster.describe_workers():
            assert entry["retiring"] is False
            served = entry["serves"]
            assert set(served) == {"primary", "replica"}
            # R=2 over 2 workers: every worker owns every key in one role.
            assert len(served["primary"]) + len(served["replica"]) == 2

    def test_replicas_clamped_to_worker_count(self, replica_env):
        cluster = replica_env.cluster
        assert cluster.replicas == 2
        assert cluster.effective_replicas == 2
        owners = cluster.replicas_for("rep-a", 4, "acm")
        assert len(owners) == len(set(owners)) == 2

    def test_invalid_replicas_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PlanCluster(tmp_path, num_workers=1, replicas=0)


class TestShardTable:
    """Each shard's state is one handle, swapped whole on a restart."""

    def test_concurrent_restarts_lose_no_update(self, tmp_path):
        directory = tmp_path / "plans"
        model = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                         quantizer_bits=4, seed=0)
        PlanRegistry(directory).publish_model(model, "solo", 4, "acm")
        cluster = PlanCluster(directory, num_workers=2, replicas=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cluster.wait_ready(timeout=120)
            stop = threading.Event()
            seen = {0: [], 1: []}

            def read():
                while not stop.is_set():
                    for entry in cluster.describe_workers():
                        seen[entry["index"]].append(entry["restarts"])

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            # Four restarters on two cores, two per shard: replacement is
            # serialised, so each builds on its predecessor's incarnation.
            restarters = [
                threading.Thread(target=cluster.restart_worker,
                                 args=(call % 2,), daemon=True)
                for call in range(4)
            ]
            for thread in restarters:
                thread.start()
            for thread in restarters:
                thread.join(timeout=120)
                assert not thread.is_alive()
            stop.set()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert [worker.incarnation for worker in cluster._workers] == [2, 2]
            for counts in seen.values():
                assert counts and counts == sorted(counts)
            supervisor = {name: stats["supervisor"]["restarts"]
                          for name, stats in cluster.stats_summary().items()}
            assert supervisor == {"worker-0": 2, "worker-1": 2}
            images = np.random.default_rng(23).normal(size=(2, 16))
            np.testing.assert_array_equal(
                cluster.predict_request(PredictRequest(
                    images, model="solo", bits=4, mapping="acm",
                )).logits,
                compile_model(model).run(images),
            )
        finally:
            sys.setswitchinterval(interval)
            cluster.close()


def _rollout_flips(cluster):
    """``repro_rollout_flips_total`` per action, summed over every family
    of that name in one cluster scrape (the parent's and each worker's)."""
    counts = {}
    for family in cluster.metrics_families():
        if family.name == "repro_rollout_flips_total":
            for sample in family.samples:
                action = dict(sample.labels)["action"]
                counts[action] = counts.get(action, 0.0) + sample.value
    return counts


class TestClusterRollout:
    """Canary, promote and rollback driven through the cluster parent,
    for a version published after the workers indexed the directory."""

    @pytest.fixture
    def rollout_env(self, tmp_path):
        directory = tmp_path / "plans"
        registry = PlanRegistry(directory)
        v1 = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                      quantizer_bits=4, seed=20)
        registry.publish_model(v1, "roll", 4, "acm")
        cluster = PlanCluster(directory, num_workers=2, replicas=2)
        cluster.wait_ready(timeout=120)
        v2 = compile_model(make_mlp(input_size=16, hidden_sizes=(6,),
                                    mapping="acm", quantizer_bits=4, seed=21))
        # Published after start: neither worker has indexed it yet.
        registry.publish(v2, "roll", 4, "acm", version=2)
        yield SimpleNamespace(cluster=cluster, v1=compile_model(v1), v2=v2)
        cluster.close()

    @staticmethod
    def _served(cluster, images, request_id):
        return cluster.predict_request(PredictRequest(
            images, model="roll", bits=4, mapping="acm",
            request_id=request_id,
        )).logits

    def test_canary_promote_rollback_serve_the_chosen_version(
        self, rollout_env
    ):
        cluster = rollout_env.cluster
        images = np.random.default_rng(22).normal(size=(4, 16))
        expected = {1: rollout_env.v1.run(images),
                    2: rollout_env.v2.run(images)}
        assert not np.array_equal(expected[1], expected[2])
        request_ids = [f"rollout-{index}" for index in range(16)]

        cluster.set_canary("roll", 4, "acm", version=2, fraction=0.5)
        sides = set()
        for request_id in request_ids:
            version = 2 if canary_bucket(request_id) < 0.5 else 1
            sides.add(version)
            assert np.array_equal(
                self._served(cluster, images, request_id), expected[version]
            ), request_id
        assert sides == {1, 2}

        assert cluster.promote("roll", 4, "acm")["active"] == 2
        for request_id in request_ids:
            assert np.array_equal(
                self._served(cluster, images, request_id), expected[2])

        assert cluster.rollback("roll", 4, "acm")["active"] == 1
        for request_id in request_ids:
            assert np.array_equal(
                self._served(cluster, images, request_id), expected[1])

    def test_each_rollout_action_counts_one_flip(self, rollout_env):
        cluster = rollout_env.cluster
        before = _rollout_flips(cluster)
        for action, flip in (
            ("canary", lambda: cluster.set_canary("roll", 4, "acm",
                                                  version=2, fraction=0.5)),
            ("promote", lambda: cluster.promote("roll", 4, "acm")),
            ("rollback", lambda: cluster.rollback("roll", 4, "acm")),
        ):
            flip()
            after = _rollout_flips(cluster)
            moved = {name: after.get(name, 0.0) - before.get(name, 0.0)
                     for name in ("canary", "promote", "rollback")}
            assert moved == {name: 1.0 if name == action else 0.0
                             for name in moved}, action
            before = after


class _StubContext:
    """A multiprocessing context whose worker process never starts.

    The test keeps ``worker_end``, the worker's end of the handle's socket
    pair, and plays the worker on it.
    """

    def __init__(self):
        self.worker_end = None

    def Process(self, target, args, **kwargs):
        # The handle closes its copy once the process "started".
        self.worker_end = args[0].dup()
        return SimpleNamespace(start=lambda: None, join=lambda timeout=None: None,
                               is_alive=lambda: False)


def _answer_shutdown(end):
    """Play the worker on ``end`` in the background: read frames until the
    shutdown sentinel, then acknowledge it, as ``_worker_main`` does."""
    peer = _FramedSocket(end)

    def serve():
        try:
            while peer.recv() is not None:
                pass
            peer.send((None, True, "closed"))
        except (EOFError, OSError):
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _within(seconds, function):
    """``function()``'s result, or AssertionError if it blocks too long."""
    results = queue.Queue()
    threading.Thread(target=lambda: results.put(function()), daemon=True).start()
    try:
        return results.get(timeout=seconds)
    except queue.Empty:
        raise AssertionError(f"{function} blocked for {seconds} s") from None


class TestPipeSendLocking:
    def test_load_and_replies_proceed_while_a_send_is_blocked(self):
        context = _StubContext()
        worker = _WorkerClient(context, 0, "unused", 1)
        peer = _FramedSocket(context.worker_end)
        try:
            first = worker.submit("predict", "small")
            assert peer.recv() == (0, "predict", "small")
            # 4 MiB outgrows the socket buffers: while nobody reads, the
            # second request's frame write blocks part-way.
            large = np.arange(1 << 19, dtype=np.float64)
            sender = threading.Thread(
                target=worker.submit, args=("predict", large), daemon=True
            )
            sender.start()
            readable, _, _ = select.select([context.worker_end], [], [], 5.0)
            assert readable
            sender.join(0.2)
            assert sender.is_alive()
            # The second request is stuck in the socket write: the router's
            # load signal and the receiver's reply delivery must not wait.
            assert _within(5.0, worker.load) == 2
            peer.send((0, True, "done"))
            assert _within(5.0, lambda: first.result(timeout=10.0)) == "done"
            request_id, kind, payload = _within(5.0, peer.recv)
            assert (request_id, kind) == (1, "predict")
            np.testing.assert_array_equal(payload, large)
            sender.join(5.0)
            assert not sender.is_alive()
            assert worker.load() == 1
        finally:
            answering = _answer_shutdown(context.worker_end)
            worker.close(timeout=5.0)
            answering.join(5.0)
            context.worker_end.close()
        assert not answering.is_alive()
        assert worker.load() == 0

    def test_failed_send_pops_the_future_and_marks_the_shard_dead(self):
        context = _StubContext()
        worker = _WorkerClient(context, 0, "unused", 1)
        # The worker reads no more: the handle's next write fails (EPIPE)
        # while its receiver still waits for replies.
        context.worker_end.shutdown(socket.SHUT_RD)
        try:
            with pytest.raises(WorkerDied):
                worker.submit("predict", "rows")
            assert worker.dead
            assert worker.load() == 0
        finally:
            context.worker_end.close()
            worker.close(timeout=5.0)


class _CapturingSocket:
    """A socket stand-in that records the bytes of each ``sendmsg``,
    taking at most ``limit`` bytes per call (a short write)."""

    def __init__(self, limit=None):
        self.data = bytearray()
        self.calls = 0
        self.limit = limit

    def sendmsg(self, views):
        chunk = b"".join(views)[:self.limit]
        self.data += chunk
        self.calls += 1
        if self.calls > 1 << 16:
            raise AssertionError("the sender is not making progress")
        return len(chunk)


def _frame_bytes(message) -> bytes:
    captured = _CapturingSocket()
    _FramedSocket(captured).send(message)
    return bytes(captured.data)


def _round_trip(message, limit=None):
    """Send ``message`` through a real socket pair, ``limit`` bytes per
    ``sendmsg`` call at most; returns (received message, sendmsg calls)."""
    left, right = socket.socketpair()
    calls = []

    class Limited:
        def sendmsg(self, views):
            calls.append(len(views))
            taken, budget = [], limit
            for view in views:
                if budget is not None and budget <= 0:
                    break
                part = view if budget is None else view[:budget]
                taken.append(part)
                if budget is not None:
                    budget -= part.nbytes
            return left.sendmsg(taken)

    try:
        sender = threading.Thread(
            target=_FramedSocket(Limited()).send, args=(message,), daemon=True)
        sender.start()
        received = _within(30.0, _FramedSocket(right).recv)
        sender.join(5.0)
        assert not sender.is_alive()
        return received, len(calls)
    finally:
        left.close()
        right.close()


def _assert_same_array(got, want):
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.writeable


class TestWorkerFrames:
    """Pickle-5 frames on the worker socket: structure in band, contiguous
    arrays out of band as raw bytes."""

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.empty((0, 3)),
        np.zeros((0,), dtype=np.int8),
        np.arange(24.0).reshape(4, 6)[:, ::2],  # non-contiguous: in band
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(10, dtype=">f8"),
        np.arange(7, dtype=">i4").reshape(7, 1),
        np.array([True, False, True]),
        np.random.default_rng(5).normal(size=(2, 3, 4)),
    ], ids=["0d", "empty", "empty-int8", "strided", "fortran", "big-endian",
            "big-endian-int", "bool", "float64"])
    def test_arrays_round_trip(self, array):
        message = (7, "predict", {"rows": array, "tag": "x"})
        (request_id, kind, payload), _ = _round_trip(message)
        assert (request_id, kind, payload["tag"]) == (7, "predict", "x")
        _assert_same_array(payload["rows"], array)

    def test_contiguous_arrays_travel_out_of_band(self):
        rows = np.random.default_rng(6).normal(size=(64, 128))
        frame = _frame_bytes((1, "predict", PredictRequest(
            rows, model="m", bits=4, mapping="acm")))
        meta_len, count = struct.unpack_from("<II", frame)
        assert count == 1
        assert struct.unpack_from("<Q", frame, 8) == (rows.nbytes,)
        assert len(frame) == 8 + 8 + meta_len + rows.nbytes
        assert frame.endswith(rows.tobytes())
        # A non-contiguous view cannot be referenced: it stays in band.
        frame = _frame_bytes(rows[:, ::2])
        assert struct.unpack_from("<II", frame)[1] == 0

    def test_typed_errors_keep_their_fields(self):
        errors = [
            WorkerDied("gone", worker_index=3, breaker_open=True),
            ApiBackpressure("busy", retry_after=2.5),
            ModelNotFound("no such model"),
        ]
        (request_id, ok, payload), _ = _round_trip((4, False, errors))
        assert (request_id, ok) == (4, False)
        assert [type(error) for error in payload] == [type(e) for e in errors]
        assert (payload[0].worker_index, payload[0].breaker_open) == (3, True)
        assert payload[1].retry_after == 2.5
        assert [error.message for error in payload] == [
            error.message for error in errors]

    def test_large_payload_survives_short_writes(self):
        rows = np.random.default_rng(7).normal(size=(WIDE_ROWS, WIDE_INPUTS))
        assert rows.nbytes == 4 << 20
        request = PredictRequest(rows, model="wide", bits=4, mapping="acm")
        (request_id, kind, received), calls = _round_trip(
            (9, "predict", request), limit=1 << 16)
        assert (request_id, kind) == (9, "predict")
        assert calls > rows.nbytes // (1 << 16)
        _assert_same_array(received.images, rows)
        assert received.model == "wide"

    def test_short_writes_resume_mid_view(self):
        message = (0, "ping", [np.arange(100.0), b"abc", np.arange(5)])
        whole = _frame_bytes(message)
        for limit in (1, 7, 8, 9, 100):
            captured = _CapturingSocket(limit)
            _FramedSocket(captured).send(message)
            assert bytes(captured.data) == whole
            assert captured.calls == -(-len(whole) // limit)

    def test_eof_inside_a_frame_is_eof(self):
        frame = _frame_bytes((1, True, np.arange(1000.0)))
        for cut in (0, 3, 8, 20, len(frame) - 1):
            left, right = socket.socketpair()
            try:
                left.sendall(frame[:cut])
                left.close()
                with pytest.raises(EOFError):
                    _FramedSocket(right).recv()
            finally:
                right.close()

    def test_truncated_reply_marks_the_shard_dead(self):
        context = _StubContext()
        worker = _WorkerClient(context, 0, "unused", 1)
        try:
            future = worker.submit("predict", "rows")
            # Read the request, so closing is a clean EOF, not a reset.
            request = _FramedSocket(context.worker_end).recv()
            assert request == (0, "predict", "rows")
            frame = _frame_bytes((0, True, np.arange(4096.0)))
            # The worker dies mid-reply: half of the reply's array arrives.
            context.worker_end.sendall(frame[:len(frame) - 4096 * 4])
            context.worker_end.close()
            with pytest.raises(WorkerDied):
                future.result(timeout=10.0)
            assert worker.dead
            with pytest.raises(WorkerDied):
                worker.submit("predict", "rows")
        finally:
            worker.close(timeout=5.0)


@pytest.fixture(scope="module")
def parity_env(tmp_path_factory):
    """Plans for the worker-parity tests: a predict model heavy enough that
    requests pile up behind a running batch, a light one, and an ensemble
    model whose cold draws take far longer than a light predict."""
    directory = tmp_path_factory.mktemp("parity-plans")
    registry = PlanRegistry(directory)
    models = {
        "heavy": make_mlp(input_size=4, hidden_sizes=(1024, 1024),
                          mapping="acm", quantizer_bits=4, seed=30),
        "light": make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                          quantizer_bits=4, seed=31),
        "draws": make_mlp(input_size=64, hidden_sizes=(128, 128),
                          mapping="acm", quantizer_bits=4, seed=32),
    }
    for name, model in models.items():
        registry.publish_model(model, name, 4, "acm")
    return SimpleNamespace(
        directory=directory,
        plans={name: compile_model(model) for name, model in models.items()},
    )


def _stopped_burst(cluster, requests):
    """Submit every request to the sole worker while its process is
    stopped, then resume it: the whole burst is in the worker's pipe at
    once, however slowly the parent sends it."""
    worker = cluster._workers[0]
    os.kill(worker.process.pid, signal.SIGSTOP)
    try:
        futures = [worker.submit("predict", request) for request in requests]
        _wait_pending(worker, len(futures))
    finally:
        os.kill(worker.process.pid, signal.SIGCONT)
    return futures


class TestWorkerParity:
    """A cluster worker queues and sheds load the way ``local:`` does: the
    scheduler queue is its only queue."""

    def test_concurrent_predicts_coalesce_past_any_handler_cap(
        self, parity_env
    ):
        rng = np.random.default_rng(40)
        batches = [rng.normal(size=(8, 4)) for _ in range(48)]
        with PlanCluster(parity_env.directory, num_workers=1) as cluster:
            cluster.wait_ready(timeout=120)
            cluster.predict_request(PredictRequest(
                batches[0], model="heavy", bits=4, mapping="acm"))  # warm
            futures = _stopped_burst(cluster, [
                PredictRequest(rows, model="heavy", bits=4, mapping="acm")
                for rows in batches
            ])
            for rows, future in zip(batches, futures):
                np.testing.assert_allclose(
                    future.result(timeout=60).logits,
                    parity_env.plans["heavy"].run(rows), atol=1e-10, rtol=0)
            stats = cluster.stats_summary()["worker-0"]["heavy__4b__acm"]
        # A worker admitting four requests at a time (the removed handler
        # pool's default) could coalesce at most 4 x 8 = 32 rows.
        assert stats["max_rows_per_batch"] > 32
        assert stats["num_batches"] < 48

    def test_max_queue_depth_sheds_a_burst(self, parity_env):
        rng = np.random.default_rng(41)
        batches = [rng.normal(size=(64, 4)) for _ in range(48)]
        with PlanCluster(parity_env.directory, num_workers=1,
                         max_queue_depth=4) as cluster:
            cluster.wait_ready(timeout=120)
            futures = _stopped_burst(cluster, [
                PredictRequest(rows, model="heavy", bits=4, mapping="acm")
                for rows in batches
            ])
            rejected = 0
            for rows, future in zip(batches, futures):
                try:
                    logits = future.result(timeout=60).logits
                except ApiBackpressure:
                    rejected += 1
                    continue
                # 64 rows fill a batch alone: served ones are bit-exact.
                np.testing.assert_array_equal(
                    logits, parity_env.plans["heavy"].run(rows))
        assert 0 < rejected < len(batches)

    def test_predict_is_not_queued_behind_ensembles(self, parity_env):
        images = np.random.default_rng(42).normal(size=(128, 64))
        rows = np.random.default_rng(43).normal(size=(8, 16))
        with PlanCluster(parity_env.directory, num_workers=1) as cluster:
            cluster.wait_ready(timeout=120)
            cluster.predict_request(PredictRequest(
                rows, model="light", bits=4, mapping="acm"))  # warm
            worker = cluster._workers[0]
            # Four cold (distinct-seed) draws, each far slower than a
            # light predict; the pipe is FIFO, so all four are running in
            # the worker before it reads the predict below.
            ensembles = [
                worker.submit("ensemble", EnsembleRequest(
                    images, model="draws", bits=4, mapping="acm",
                    sigma_fraction=0.1, num_samples=128, seed=seed))
                for seed in range(4)
            ]
            _wait_pending(worker, len(ensembles))
            logits = cluster.predict_request(PredictRequest(
                rows, model="light", bits=4, mapping="acm")).logits
            in_flight = sum(not future.done() for future in ensembles)
            for future in ensembles:
                future.result(timeout=120)
        np.testing.assert_array_equal(logits,
                                      parity_env.plans["light"].run(rows))
        assert in_flight == len(ensembles)


class TestWorkerLoop:
    """``_worker_main`` on a thread of this process, over a real socket pair."""

    @staticmethod
    def _serve(directory, messages, timeout=60.0):
        """Send ``messages`` and the shutdown sentinel to a worker loop;
        return every reply up to and including its acknowledgement."""
        parent_end, child = socket.socketpair()
        parent = _FramedSocket(parent_end)
        loop = threading.Thread(target=_worker_main,
                                args=(child, str(directory), 64),
                                daemon=True)
        loop.start()
        for message in messages:
            parent.send(message)
        parent.send(None)
        replies = []
        while not replies or replies[-1][0] is not None:
            readable, _, _ = select.select([parent_end], [], [], timeout)
            assert readable, "the worker loop stopped answering"
            replies.append(parent.recv())
        loop.join(timeout)
        assert not loop.is_alive()
        parent.close()
        return replies

    def test_shutdown_answers_every_request_before_the_ack(self, parity_env):
        rng = np.random.default_rng(44)
        predicts = {index: rng.normal(size=(8, 4)) for index in range(12)}
        images = rng.normal(size=(16, 64))
        messages = [
            (12, "ensemble", EnsembleRequest(
                images, model="draws", bits=4, mapping="acm",
                sigma_fraction=0.1, num_samples=32, seed=1)),
            *((index, "predict", PredictRequest(
                rows, model="heavy", bits=4, mapping="acm"))
              for index, rows in predicts.items()),
            (13, "ping", None),
        ]
        replies = self._serve(parity_env.directory, messages)
        assert replies[-1] == (None, True, "closed")
        answered = {request_id: (ok, payload)
                    for request_id, ok, payload in replies[:-1]}
        assert sorted(answered) == list(range(14))
        failed = {request_id: payload
                  for request_id, (ok, payload) in answered.items() if not ok}
        assert all(ok for ok, _ in answered.values()), (
            "failed replies (id: payload): "
            + ", ".join(f"{request_id}: {payload!r}"
                        for request_id, payload in sorted(failed.items()))
        )
        for index, rows in predicts.items():
            np.testing.assert_allclose(
                answered[index][1].logits,
                parity_env.plans["heavy"].run(rows), atol=1e-10, rtol=0)
        assert answered[12][1].mean_logits.shape == (16, 10)
        assert answered[13][1] == "pong"

    def test_failed_batch_answers_every_request_with_the_error(
        self, parity_env, monkeypatch
    ):
        def broken_run(plan, images):
            time.sleep(0.01)  # let the requests behind the first coalesce
            raise ArithmeticError("runner failed")

        monkeypatch.setattr(InferencePlan, "run", broken_run)
        rows = np.random.default_rng(45).normal(size=(2, 16))
        messages = [(index, "predict", PredictRequest(
            rows, model="light", bits=4, mapping="acm")) for index in range(6)]
        replies = self._serve(parity_env.directory, messages, timeout=10.0)
        assert sorted(reply[0] for reply in replies[:-1]) == list(range(6))
        for _, ok, payload in replies[:-1]:
            assert not ok
            assert isinstance(payload, ApiServerError)
            assert "runner failed" in str(payload)

    def test_unpicklable_reply_degrades_to_a_message(
        self, parity_env, monkeypatch
    ):
        monkeypatch.setattr(InferenceService, "stats_summary",
                            lambda service: {"hook": lambda: None})
        replies = self._serve(parity_env.directory, [(0, "stats", None)])
        assert len(replies) == 2
        request_id, ok, payload = replies[0]
        assert (request_id, ok) == (0, False)
        assert isinstance(payload, RuntimeError)
        assert str(payload).startswith("dict: ")
