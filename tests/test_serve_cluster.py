"""Tests for the sharded multi-process serving cluster.

Certifies the three cluster contracts: results are exactly what an
in-process service produces (the pickle boundary adds nothing), the
model-key partition is stable and total, and shutdown drains in-flight
work instead of dropping it.  One cluster is shared per module — spawning
worker processes is the expensive part.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import (
    BackendClosed,
    EnsembleRequest,
    InvalidRequest,
    ModelNotFound,
    PredictRequest,
)
from repro.models import make_mlp
from repro.runtime import compile_model, decode_array
from repro.serve import (
    InferenceService,
    PlanCluster,
    PlanKey,
    PlanRegistry,
    PlanServer,
    shard_index,
)
from tests.test_serve_http import _predict_body, _request

MODEL_NAMES = ("alpha", "beta", "gamma")


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
    cluster = PlanCluster(directory, num_workers=2, max_batch=16,
                          max_wait_ms=2.0)
    cluster.wait_ready(timeout=120)
    images = np.random.default_rng(3).normal(size=(6, 1, 4, 4))
    yield SimpleNamespace(
        directory=directory, registry=registry, plans=plans,
        cluster=cluster, images=images,
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
        with pytest.raises(ValueError):
            PlanCluster(tmp_path, num_workers=2, handler_threads=0)


class TestClusterRequests:
    def test_predict_exact_for_every_model(self, cluster_env):
        for name, plan in cluster_env.plans.items():
            logits = cluster_env.cluster.predict_request(PredictRequest(
                cluster_env.images, model=name, bits=4, mapping="acm",
            )).logits
            np.testing.assert_array_equal(logits, plan.run(cluster_env.images))

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
        cluster = PlanCluster(tmp_path / "plans", num_workers=1,
                              max_wait_ms=50.0)
        cluster.wait_ready(timeout=120)
        request = PredictRequest(images, model="solo", bits=4, mapping="acm")
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cluster.predict_request, request)
                       for _ in range(8)]
            _wait_pending(cluster._workers[0], len(futures))
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
        cluster = PlanCluster(directory, num_workers=2, replicas=1,
                              handler_threads=2)
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
        cluster = PlanCluster(directory, num_workers=2, replicas=2,
                              handler_threads=2)
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
