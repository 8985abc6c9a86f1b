"""Shared-memory transport tests: exactness, thresholds, and leak hygiene.

The transport contract certified here:

* offload→restore is a bit-exact round trip for every wire-relevant dtype
  and for the protocol's message shape (array-carrying dataclasses; any
  other payload passes through untouched);
* the size threshold really partitions traffic — small payloads stay on
  the pickle path, large ones travel as descriptors;
* **no segment outlives its message**: consuming a descriptor unlinks it,
  a cluster round trip leaves ``/dev/shm`` exactly as it found it, worker
  death triggers the parent's prefix sweep, and ``stats_summary`` segment
  gauges return to zero after a drain.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import (
    EnsembleRequest,
    EnsembleResult,
    InvalidRequest,
    ModelNotFound,
    PredictRequest,
    WorkerDied,
)
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import PlanCluster, PlanRegistry
from repro.serve.shm import (
    DEFAULT_SHM_THRESHOLD,
    SegmentStats,
    ShmRef,
    cleanup_prefix,
    list_segments,
    offload_array,
    offload_payload,
    restore_array,
    restore_payload,
    unlink_segment,
)
from tests.test_serve_cluster import _wait_pending

PREFIX = "rpstest_"


@pytest.fixture(autouse=True)
def _no_leftover_segments():
    """Every test starts and must end with a clean test prefix."""
    cleanup_prefix(PREFIX)
    yield
    leaked = list_segments(PREFIX)
    cleanup_prefix(PREFIX)
    assert leaked == [], f"test leaked shm segments: {leaked}"


def _names():
    counter = iter(range(1000))
    return lambda: f"{PREFIX}{next(counter)}"


class TestOffloadRestore:
    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32", "int64"])
    def test_round_trip_is_exact_bits(self, dtype):
        rng = np.random.default_rng(7)
        if dtype.startswith("float"):
            array = rng.normal(size=(13, 5)).astype(dtype)
        else:
            array = rng.integers(-2**30, 2**30, size=(13, 5)).astype(dtype)
        ref = offload_array(array, f"{PREFIX}rt")
        assert isinstance(ref, ShmRef)
        assert ref.nbytes == array.nbytes
        restored = restore_array(ref)
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    def test_restore_consumes_the_segment(self):
        array = np.arange(8, dtype=np.float64)
        ref = offload_array(array, f"{PREFIX}once")
        restore_array(ref)
        assert list_segments(PREFIX) == []
        with pytest.raises(FileNotFoundError):
            restore_array(ref)

    def test_non_contiguous_and_zero_size_arrays(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        sliced = base[:, ::2]  # non-contiguous view
        ref = offload_array(sliced, f"{PREFIX}nc")
        np.testing.assert_array_equal(restore_array(ref), sliced)
        empty = np.zeros((0, 3), dtype=np.float64)
        ref = offload_array(empty, f"{PREFIX}empty")
        restored = restore_array(ref)
        assert restored.shape == (0, 3) and restored.dtype == np.float64

    def test_unlink_segment_is_idempotent(self):
        offload_array(np.zeros(4), f"{PREFIX}unlink")
        assert unlink_segment(f"{PREFIX}unlink") is True
        assert unlink_segment(f"{PREFIX}unlink") is False


def _result(mean_logits, confidence):
    rows = len(confidence)
    return EnsembleResult(
        model="m", bits=4, mapping="acm", mean_logits=mean_logits,
        predictions=np.zeros(rows, dtype=np.int64), confidence=confidence,
        vote_counts=np.zeros((rows, 1), dtype=np.int64),
        sigma_fraction=0.1, num_samples=5, seed=0,
    )


class TestPayloadWalk:
    def test_threshold_partitions_dataclass_payloads(self):
        big = np.zeros((64, 64), dtype=np.float64)   # 32 KiB
        small = np.zeros(4, dtype=np.float64)
        payload = _result(big, small)
        encoded, names = offload_payload(payload, big.nbytes, _names())
        assert len(names) == 1
        assert isinstance(encoded.mean_logits, ShmRef)
        assert encoded.confidence is small       # under threshold: pickled
        assert encoded.model == "m"
        decoded = restore_payload(encoded)
        np.testing.assert_array_equal(decoded.mean_logits, big)
        assert decoded.confidence is small

    def test_disabled_thresholds_pass_through(self):
        request = PredictRequest(images=np.zeros((32, 32)), model="m",
                                 mapping="acm", bits=4)
        for threshold in (None, -1):
            encoded, names = offload_payload(request, threshold, _names())
            assert encoded is request and names == []
        # Only dataclasses are walked: anything else is left to pickle.
        array = np.zeros((32, 32))
        encoded, names = offload_payload(array, 0, _names())
        assert encoded is array and names == []

    def test_threshold_zero_moves_everything(self):
        payload = _result(np.ones((1, 2)), np.zeros(1))
        encoded, names = offload_payload(payload, 0, _names())
        assert len(names) == 4
        decoded = restore_payload(encoded)
        np.testing.assert_array_equal(decoded.mean_logits, np.ones((1, 2)))

    def test_dataclass_round_trip(self):
        result = EnsembleResult(
            model="m", bits=4, mapping="acm",
            mean_logits=np.random.default_rng(0).normal(size=(6, 10)),
            predictions=np.arange(6),
            confidence=np.full(6, 0.5),
            vote_counts=np.zeros((6, 10), dtype=np.int64),
            sigma_fraction=0.1, num_samples=5, seed=0,
        )
        encoded, names = offload_payload(result, 0, _names())
        assert names, "no field was offloaded"
        assert isinstance(encoded.mean_logits, ShmRef)
        assert encoded.model == "m"
        decoded = restore_payload(encoded)
        assert isinstance(decoded, EnsembleResult)
        for field in ("mean_logits", "predictions", "confidence",
                      "vote_counts"):
            np.testing.assert_array_equal(getattr(decoded, field),
                                          getattr(result, field))

    def test_stats_ledger_counts_both_directions(self):
        stats = SegmentStats()
        array = np.zeros((128, 16), dtype=np.float64)
        request = PredictRequest(images=array, model="m", mapping="acm",
                                 bits=4)
        encoded, _ = offload_payload(request, 0, _names(), stats)
        restored = restore_payload(encoded, stats)
        np.testing.assert_array_equal(restored.images, array)
        snapshot = stats.snapshot()
        assert snapshot["segments_created"] == 1
        assert snapshot["segments_consumed"] == 1
        assert snapshot["bytes_sent"] == array.nbytes
        assert snapshot["bytes_received"] == array.nbytes

    def test_cleanup_prefix_sweeps_only_its_prefix(self):
        offload_array(np.zeros(4), f"{PREFIX}keepA")
        offload_array(np.zeros(4), f"{PREFIX}other_B")
        assert cleanup_prefix(f"{PREFIX}other_") == 1
        assert list_segments(PREFIX) == [f"{PREFIX}keepA"]
        cleanup_prefix(PREFIX)


@pytest.fixture(scope="module")
def shm_cluster(tmp_path_factory):
    """A one-worker cluster forced entirely onto the shm transport."""
    directory = tmp_path_factory.mktemp("shm-plans")
    registry = PlanRegistry(directory)
    model = make_mlp(input_size=64, hidden_sizes=(8,), mapping="acm",
                     quantizer_bits=4, seed=0)
    registry.publish_model(model, "shmmlp", 4, "acm")
    cluster = PlanCluster(directory, num_workers=1, shm_threshold=0,
                          max_batch=512, handler_threads=2)
    cluster.wait_ready(timeout=180)
    images = np.random.default_rng(3).normal(size=(96, 64))
    yield SimpleNamespace(cluster=cluster, plan=compile_model(model),
                          images=images)
    cluster.close()


class TestClusterShmTransport:
    def test_cluster_prefixes_cannot_collide_across_clusters(self, shm_cluster):
        # The cluster id is "_"-terminated, so cluster 1's close-time sweep
        # can never match cluster 11's segments in the same process.
        base = shm_cluster.cluster._shm_base
        assert base.endswith("_")
        sibling = base[:-1] + "1_"  # what cluster id N1 would produce
        assert not sibling.startswith(base)

    def test_predict_bit_identical_and_segments_accounted(self, shm_cluster):
        before = list_segments(shm_cluster.cluster._shm_base)
        logits = shm_cluster.cluster.predict_request(PredictRequest(
            shm_cluster.images, model="shmmlp", bits=4, mapping="acm",
        )).logits
        np.testing.assert_array_equal(logits,
                                      shm_cluster.plan.run(shm_cluster.images))
        assert logits.dtype == np.float64
        transport = shm_cluster.cluster.stats_summary()["worker-0"]["transport"]
        assert transport["segments_created"] >= 1   # the request batch
        assert transport["segments_consumed"] >= 1  # the response logits
        assert transport["bytes_sent"] >= shm_cluster.images.nbytes
        assert transport["active_segments"] == 0
        assert list_segments(shm_cluster.cluster._shm_base) == before == []

    def test_ensemble_bit_identical_over_shm(self, shm_cluster):
        from repro.serve import InferenceService

        kwargs = dict(model="shmmlp", bits=4, mapping="acm",
                      sigma_fraction=0.15, num_samples=5, seed=9)
        via_shm = shm_cluster.cluster.ensemble_request(EnsembleRequest(
            shm_cluster.images, **kwargs,
        ))
        with InferenceService(
            PlanRegistry(shm_cluster.cluster.catalogue.directory)
        ) as reference:
            in_process = reference.ensemble_request(EnsembleRequest(
                shm_cluster.images, **kwargs,
            ))
        for field in ("mean_logits", "predictions", "confidence",
                      "vote_counts"):
            np.testing.assert_array_equal(getattr(via_shm, field),
                                          getattr(in_process, field))
        assert list_segments(shm_cluster.cluster._shm_base) == []

    def test_errors_still_cross_the_boundary(self, shm_cluster):
        with pytest.raises(ModelNotFound):
            shm_cluster.cluster.predict_request(PredictRequest(
                shm_cluster.images, model="ghost", bits=4, mapping="acm",
            ))
        with pytest.raises(InvalidRequest, match="incompatible"):
            shm_cluster.cluster.predict_request(PredictRequest(
                np.zeros((2, 3)), model="shmmlp", bits=4, mapping="acm",
            ))
        assert list_segments(shm_cluster.cluster._shm_base) == []


class TestLeakRegression:
    """Worker death and shutdown may not leave a single orphaned segment."""

    def test_clean_shutdown_leaves_no_segments(self, tmp_path):
        directory = tmp_path / "plans"
        registry = PlanRegistry(directory)
        model = make_mlp(input_size=64, hidden_sizes=(6,), mapping="acm",
                         quantizer_bits=4, seed=1)
        registry.publish_model(model, "m", 4, "acm")
        images = np.random.default_rng(1).normal(size=(64, 64))
        # _wait_pending holds close() until all six requests are in flight
        # (two handler threads serve them pairwise).
        cluster = PlanCluster(directory, num_workers=1, shm_threshold=0,
                              max_batch=256, handler_threads=2)
        base = cluster._shm_base
        cluster.wait_ready(timeout=180)
        request = PredictRequest(images, model="m", bits=4, mapping="acm")
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(cluster.predict_request, request)
                       for _ in range(6)]
            _wait_pending(cluster._workers[0], len(futures))
            cluster.close()  # drains in-flight work first
            for future in futures:
                assert future.result(timeout=30).logits.shape == (64, 10)
        assert list_segments(base) == []

    def test_worker_sigkill_triggers_parent_sweep(self, tmp_path):
        directory = tmp_path / "plans"
        registry = PlanRegistry(directory)
        model = make_mlp(input_size=256, hidden_sizes=(128,), mapping="acm",
                         quantizer_bits=4, seed=2)
        registry.publish_model(model, "big", 4, "acm")
        images = np.random.default_rng(2).normal(size=(64, 256))
        cluster = PlanCluster(directory, num_workers=1, shm_threshold=0,
                              max_batch=256, handler_threads=2)
        base = cluster._shm_base
        try:
            cluster.wait_ready(timeout=180)
            # Stack up slow ensembles so request segments are in flight
            # when the SIGKILL lands.
            worker = cluster._workers[0]
            futures = [
                worker.submit("ensemble", EnsembleRequest(
                    images, model="big", bits=4, mapping="acm",
                    sigma_fraction=0.1, num_samples=64, seed=seed,
                ))
                for seed in range(3)
            ]
            worker.process.kill()
            worker.process.join(timeout=60)
            for future in futures:
                with pytest.raises(WorkerDied):
                    future.result(timeout=60)
            # The receiver's sweep runs right after it fails the futures.
            deadline = 30.0
            import time

            end = time.monotonic() + deadline
            while time.monotonic() < end and list_segments(base):
                time.sleep(0.05)
            assert list_segments(base) == []
            transport = cluster.stats_summary()["worker-0"]["transport"]
            assert transport["active_segments"] == 0
        finally:
            cluster.close()
        assert list_segments(base) == []
