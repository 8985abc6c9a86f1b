"""Tests for the plan-serving subsystem (registry, scheduler, service)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    ApiBackpressure,
    ApiServerError,
    ApiTimeout,
    BackendClosed,
    EnsembleRequest,
    InvalidRequest,
    PredictRequest,
)
from repro.data.dataset import ArrayDataset
from repro.models import make_lenet, make_mlp
from repro.runtime import InferencePlan, compile_model
from repro.serve import (
    InferenceService,
    MicroBatchScheduler,
    PlanKey,
    PlanRegistry,
)
from repro.train.evaluate import evaluate_accuracy


def small_mlp(mapping="acm", bits=4, seed=0):
    return make_mlp(input_size=16, hidden_sizes=(8,), mapping=mapping,
                    quantizer_bits=bits, seed=seed)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class TestPlanKey:
    def test_canonical_round_trip(self):
        for key in (PlanKey("lenet", 4, "acm"), PlanKey("vgg9", None, "de")):
            assert PlanKey.parse(key.canonical()) == key

    def test_parse_rejects_foreign_names(self):
        assert PlanKey.parse("checkpoint") is None
        assert PlanKey.parse("a__bogus__c") is None


class TestPlanRegistry:
    @pytest.fixture
    def registry(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans", capacity=4)
        for mapping, seed in (("acm", 0), ("de", 1), ("bc", 2)):
            registry.publish_model(small_mlp(mapping=mapping, seed=seed),
                                   "mlp", 4, mapping)
        return registry

    def test_scan_indexes_artifacts_without_loading(self, tmp_path):
        plan = compile_model(small_mlp())
        plan.save(tmp_path / "mlp__4b__acm.npz")
        plan.save(tmp_path / "not-a-plan-key.npz")
        registry = PlanRegistry(tmp_path, capacity=2)
        assert registry.keys() == [PlanKey("mlp", 4, "acm")]
        assert registry.cached_keys == []  # nothing deserialised yet

    def test_get_loads_lazily_and_caches(self, registry, rng):
        registry._loaded.clear()
        inputs = rng.normal(size=(3, 1, 4, 4))
        first = registry.get("mlp", 4, "acm")
        assert registry.misses == 1
        second = registry.get("mlp", 4, "acm")
        assert second is first and registry.hits == 1
        expected = compile_model(small_mlp()).run(inputs)
        np.testing.assert_array_equal(first.run(inputs), expected)

    def test_lru_eviction_and_reload_round_trip(self, tmp_path, rng):
        registry = PlanRegistry(tmp_path, capacity=1)
        registry.publish_model(small_mlp(mapping="acm", seed=0), "mlp", 4, "acm")
        reference = registry.get("mlp", 4, "acm")
        registry.publish_model(small_mlp(mapping="de", seed=1), "mlp", 4, "de")
        assert registry.evictions == 1
        assert registry.cached_keys == [PlanKey("mlp", 4, "de")]
        # The evicted plan reloads transparently from disk, bit-identically.
        inputs = rng.normal(size=(4, 1, 4, 4))
        reloaded = registry.get("mlp", 4, "acm")
        assert reloaded is not reference
        np.testing.assert_array_equal(reloaded.run(inputs), reference.run(inputs))

    def test_unknown_key_raises_with_catalogue(self, registry):
        with pytest.raises(KeyError, match="mlp__4b__acm"):
            registry.get("resnet", 4, "acm")

    def test_digest_lookup(self, registry, rng):
        digest = registry.digest("mlp", 4, "de")
        assert len(digest) == 64
        assert registry.digest("mlp", 4, "de") == digest  # stable
        plan = registry.get_by_digest(digest[:16])
        inputs = rng.normal(size=(2, 1, 4, 4))
        np.testing.assert_array_equal(
            plan.run(inputs), registry.get("mlp", 4, "de").run(inputs)
        )
        with pytest.raises(KeyError):
            registry.get_by_digest("0" * 16)

    def test_digests_distinguish_contents(self, registry):
        digests = {registry.digest("mlp", 4, m) for m in ("acm", "de", "bc")}
        assert len(digests) == 3

    def test_refresh_preserves_entries_and_their_digest_cache(self, registry):
        """Regression: pollers refresh per request; re-scans must not throw
        away memoised digests (full re-hash of every artifact per poll)."""
        digest = registry.digest("mlp", 4, "acm")
        entry = registry.entry("mlp", 4, "acm")
        assert entry._digest is not None
        registry.refresh()
        assert registry.entry("mlp", 4, "acm") is entry
        assert registry.digest("mlp", 4, "acm") == digest
        # A genuinely replaced artifact still changes digest (the stat
        # signature invalidates the memo).
        other = PlanRegistry(registry.directory)
        other.publish_model(small_mlp(seed=7), "mlp", 4, "acm")
        registry.refresh()
        assert registry.digest("mlp", 4, "acm") != digest

    def test_fp32_bits_round_trip(self, tmp_path):
        registry = PlanRegistry(tmp_path)
        registry.publish_model(small_mlp(bits=None), "mlp", None, "acm")
        assert (tmp_path / "mlp__fp32__acm.npz").exists()
        assert registry.get("mlp", None, "acm").num_crossbar_layers == 2


# ---------------------------------------------------------------------- #
# Scheduler
# ---------------------------------------------------------------------- #
class TestMicroBatchScheduler:
    def test_lone_request_does_not_wait(self):
        """An idle scheduler executes a lone request at once: there is no
        coalescing window for it to sit out."""
        waits = []
        with MicroBatchScheduler(
            lambda x: x * 2.0,
            on_batch=lambda requests, rows, wait: waits.append(wait),
        ) as scheduler:
            for _ in range(50):
                result = scheduler.submit(np.ones((1, 4))).result(timeout=10)
                np.testing.assert_array_equal(result, 2.0 * np.ones((1, 4)))
        assert list(scheduler.stats.batches) == [(1, 1)] * 50
        assert np.median(waits) < 1e-3

    def test_overfull_queue_splits_into_multiple_microbatches(self):
        """More queued rows than max_batch must yield several capped batches."""
        release = threading.Event()

        def runner(x):
            release.wait(10)
            return x + 1.0

        with MicroBatchScheduler(runner, max_batch=4) as scheduler:
            futures = [scheduler.submit(np.full((1, 2), i)) for i in range(10)]
            release.set()
            results = [future.result(timeout=10) for future in futures]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, np.full((1, 2), i + 1.0))
        stats = scheduler.stats
        assert stats.num_requests == 10
        assert stats.num_rows == 10
        assert stats.max_rows_per_batch <= 4
        assert stats.num_batches >= 3  # ceil(10 / 4), first batch may be smaller

    def test_concurrent_requests_coalesce(self):
        """Requests queued while a batch executes ride in the next one."""
        release = threading.Event()

        def runner(x):
            release.wait(10)
            return x

        with MicroBatchScheduler(runner, max_batch=64) as scheduler:
            futures = [scheduler.submit(np.zeros((1, 2))) for _ in range(8)]
            release.set()
            for future in futures:
                future.result(timeout=10)
        assert scheduler.stats.num_batches <= 2

    def test_multi_row_requests_scatter_correctly(self):
        with MicroBatchScheduler(lambda x: x.sum(axis=1, keepdims=True),
                                 max_batch=16) as scheduler:
            first = scheduler.submit(np.ones((2, 3)))
            second = scheduler.submit(np.full((3, 3), 2.0))
            np.testing.assert_array_equal(first.result(10), np.full((2, 1), 3.0))
            np.testing.assert_array_equal(second.result(10), np.full((3, 1), 6.0))

    def test_oversized_request_runs_as_its_own_batch(self):
        with MicroBatchScheduler(lambda x: x, max_batch=4) as scheduler:
            result = scheduler.submit(np.zeros((9, 2))).result(timeout=10)
        assert result.shape == (9, 2)
        assert scheduler.stats.max_rows_per_batch == 9

    def test_request_that_would_overflow_cap_opens_next_batch(self):
        """Coalescing must hold back a request that would breach max_batch."""
        release = threading.Event()

        def runner(x):
            release.wait(10)
            return x

        with MicroBatchScheduler(runner, max_batch=64) as scheduler:
            first = scheduler.submit(np.zeros((60, 2)))
            second = scheduler.submit(np.ones((60, 2)))
            release.set()
            first.result(timeout=10)
            second.result(timeout=10)
        assert scheduler.stats.num_batches == 2
        assert scheduler.stats.max_rows_per_batch == 60

    def test_runner_exception_fails_the_batch_only(self):
        def runner(x):
            if np.isnan(x).any():
                raise ValueError("poisoned batch")
            return x

        with MicroBatchScheduler(runner, max_batch=4) as scheduler:
            bad = scheduler.submit(np.full((1, 2), np.nan))
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(timeout=10)
            good = scheduler.submit(np.zeros((1, 2)))
            np.testing.assert_array_equal(good.result(timeout=10), np.zeros((1, 2)))

    def test_submit_after_close_raises(self):
        scheduler = MicroBatchScheduler(lambda x: x, max_batch=2)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(np.zeros((1, 2)))

    def test_close_flushes_queued_requests(self):
        def runner(x):
            time.sleep(0.01)
            return x

        scheduler = MicroBatchScheduler(runner, max_batch=1)
        futures = [scheduler.submit(np.full((1, 1), i)) for i in range(5)]
        scheduler.close()
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(timeout=10),
                                          np.full((1, 1), i))

    def test_rejects_empty_requests(self):
        with MicroBatchScheduler(lambda x: x, max_batch=2) as scheduler:
            with pytest.raises(ValueError):
                scheduler.submit(np.zeros((0, 3)))

    def test_scheduler_rejects_bad_max_batch_values(self):
        runner = lambda rows: rows  # noqa: E731
        for bad in ("turbo", "auto", 0, True):
            with pytest.raises(ValueError, match="positive int"):
                MicroBatchScheduler(runner, max_batch=bad)

    def test_coalescing_window_is_not_a_parameter(self, tmp_path):
        # The scheduler only coalesces what is already queued.
        with pytest.raises(TypeError, match="max_wait_ms"):
            MicroBatchScheduler(lambda x: x, max_wait_ms=2.0)
        with pytest.raises(TypeError, match="max_wait_ms"):
            InferenceService(PlanRegistry(tmp_path), max_wait_ms=2.0)

    def test_heterogeneous_shapes_degrade_to_per_request_runs(self):
        """Requests that cannot stack must each run alone, not fail together."""
        release = threading.Event()

        def runner(x):
            release.wait(10)
            return x * 2.0

        with MicroBatchScheduler(runner, max_batch=8) as scheduler:
            narrow = scheduler.submit(np.ones((1, 3)))
            wide = scheduler.submit(np.ones((1, 5)))
            release.set()
            np.testing.assert_array_equal(narrow.result(10), np.full((1, 3), 2.0))
            np.testing.assert_array_equal(wide.result(10), np.full((1, 5), 2.0))


# ---------------------------------------------------------------------- #
# Service
# ---------------------------------------------------------------------- #
class TestInferenceService:
    @pytest.fixture
    def served(self, tmp_path):
        model = make_lenet(mapping="acm", quantizer_bits=4, seed=0)
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(model, "lenet", 4, "acm")
        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(40, 1, 16, 16)), rng.integers(0, 10, size=40)
        )
        return model, registry, dataset

    def test_predict_bit_equivalent_to_runtime_evaluation(self, served):
        """The acceptance bar: serving must not change deterministic results."""
        model, registry, dataset = served
        plan = compile_model(model)
        with InferenceService(registry, max_batch=16) as service:
            logits = service.predict_request(PredictRequest(
                dataset.images, model="lenet", bits=4, mapping="acm"
            )).logits
            np.testing.assert_allclose(logits, plan.run(dataset.images),
                                       atol=1e-10, rtol=0)
            served_accuracy = float(
                (logits.argmax(axis=-1) == dataset.labels).sum() / len(dataset)
            )
        assert served_accuracy == evaluate_accuracy(model, dataset, use_runtime=True)

    def test_concurrent_single_requests_are_batched_and_correct(self, served):
        model, registry, dataset = served
        plan = compile_model(model)
        expected = plan.run(dataset.images)
        with InferenceService(registry, max_batch=16) as service:
            with ThreadPoolExecutor(max_workers=8) as clients:
                results = list(clients.map(
                    lambda i: service.predict_request(PredictRequest(
                        dataset.images[i], model="lenet", bits=4, mapping="acm"
                    )).logits,
                    range(len(dataset)),
                ))
            stats = service.stats["lenet__4b__acm"]
        np.testing.assert_allclose(np.stack(results), expected, atol=1e-10, rtol=0)
        assert stats.num_requests == len(dataset)
        assert stats.num_batches <= stats.num_requests

    def test_single_sample_request_drops_batch_axis(self, served):
        model, registry, dataset = served
        with InferenceService(registry) as service:
            logits = service.predict_request(PredictRequest(
                dataset.images[0], model="lenet", bits=4, mapping="acm"
            )).logits
        assert logits.shape == (10,)

    def test_ensemble_deterministic_under_fixed_seed(self, served):
        _, registry, dataset = served
        images = dataset.images[:6]
        with InferenceService(registry) as service:
            kwargs = dict(model="lenet", bits=4, mapping="acm",
                          sigma_fraction=0.2, num_samples=9, seed=11)
            first = service.ensemble_request(EnsembleRequest(images, **kwargs))
            second = service.ensemble_request(EnsembleRequest(images, **kwargs))
            other_seed = service.ensemble_request(EnsembleRequest(
                images, **{**kwargs, "seed": 12},
            ))
        np.testing.assert_array_equal(first.mean_logits, second.mean_logits)
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.confidence, second.confidence)
        assert not np.array_equal(first.mean_logits, other_seed.mean_logits)

    def test_ensemble_aggregates_votes(self, served):
        _, registry, dataset = served
        with InferenceService(registry) as service:
            response = service.ensemble_request(EnsembleRequest(
                dataset.images[:5], model="lenet", bits=4, mapping="acm",
                sigma_fraction=0.15, num_samples=7, seed=3,
            ))
        assert response.mean_logits.shape == (5, 10)
        assert response.vote_counts.shape == (5, 10)
        assert (response.vote_counts.sum(axis=-1) == 7).all()
        assert ((response.confidence > 0) & (response.confidence <= 1.0)).all()
        # The majority class is the one the counts say won.
        np.testing.assert_array_equal(
            response.predictions, response.vote_counts.argmax(axis=-1)
        )

    def test_zero_sigma_ensemble_matches_deterministic_predict(self, served):
        model, registry, dataset = served
        images = dataset.images[:4]
        with InferenceService(registry) as service:
            deterministic = service.predict_request(PredictRequest(
                images, model="lenet", bits=4, mapping="acm"
            )).logits
            ensemble = service.ensemble_request(EnsembleRequest(
                images, model="lenet", bits=4, mapping="acm",
                sigma_fraction=0.0, num_samples=3, seed=0,
            ))
        np.testing.assert_allclose(ensemble.mean_logits, deterministic, atol=1e-12)
        assert (ensemble.confidence == 1.0).all()

    def test_malformed_request_rejected_before_batching(self, served):
        """A bad shape must fail its own caller, not poison the micro-batch."""
        _, registry, dataset = served
        with InferenceService(registry, max_batch=16) as service:
            # A valid request is in the scheduler while the malformed ones
            # arrive; they are rejected before they can join its batch.
            good = service.scheduler_for("lenet", 4, "acm").submit(
                dataset.images[:1]
            )
            with pytest.raises(InvalidRequest, match="incompatible"):
                service.predict_request(PredictRequest(
                    np.zeros((2, 3, 16, 16)), model="lenet", bits=4,
                    mapping="acm",
                ))
            with pytest.raises(InvalidRequest, match="incompatible"):
                service.predict_request(PredictRequest(
                    np.zeros((1, 9, 9)), model="lenet", bits=4, mapping="acm"
                ))
            # The concurrent valid request is unaffected.
            assert good.result(timeout=10).shape == (1, 10)

    def test_closed_service_rejects_requests(self, served):
        _, registry, dataset = served
        service = InferenceService(registry)
        service.predict_request(PredictRequest(
            dataset.images[:2], model="lenet", bits=4, mapping="acm"
        ))
        service.close()
        with pytest.raises(RuntimeError):
            service.scheduler_for("lenet", 4, "acm")
        with pytest.raises(BackendClosed):
            service.predict_request(PredictRequest(
                dataset.images[:2], model="lenet", bits=4, mapping="acm"
            ))
        with pytest.raises(BackendClosed):
            service.ensemble_request(EnsembleRequest(
                dataset.images[:2], model="lenet", bits=4, mapping="acm",
                sigma_fraction=0.1, num_samples=2,
            ))

    def test_each_predict_is_counted_once_whatever_its_outcome(
        self, served, monkeypatch
    ):
        _, registry, dataset = served
        run = InferencePlan.run
        gate = threading.Event()
        gate.set()

        def gated_run(plan, images):
            assert gate.wait(10.0)
            if np.isnan(images).any():
                raise ArithmeticError("runner failed")
            return run(plan, images)

        monkeypatch.setattr(InferencePlan, "run", gated_run)
        images = dataset.images[:2]
        request = PredictRequest(images, model="lenet", bits=4, mapping="acm")
        with InferenceService(registry) as service:
            service.predict_request(request)
            with pytest.raises(InvalidRequest):
                service.predict_request(replace(request, images=images[:, 0]))
            with pytest.raises(ApiServerError, match="runner failed"):
                service.predict_request(
                    replace(request, images=np.full_like(images, np.nan)))
            gate.clear()
            with pytest.raises(ApiTimeout):
                service.predict_request(request, timeout=0.05)
            gate.set()  # the timed-out request is counted as it resolves
            requests = service.metrics.counter(
                "repro_requests_total", labels=("model", "lane", "outcome"))
            latency = service.metrics.histogram(
                "repro_request_latency_seconds", labels=("model", "lane"))
            labels = dict(model="lenet__4b__acm", lane="predict")
            deadline = time.monotonic() + 10.0
            while latency.count(**labels) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert requests.value(**labels, outcome="ok") == 2
            assert requests.value(**labels, outcome="error") == 2
            assert latency.count(**labels) == 4
        with InferenceService(registry, max_queue_depth=0) as service:
            with pytest.raises(ApiBackpressure):
                service.predict_request(request)
            assert service.metrics.counter(
                "repro_requests_total", labels=("model", "lane", "outcome"),
            ).value(**labels, outcome="error") == 1

    def test_both_request_flavours_serve_the_same_pinned_plan(self, served):
        """A republish must not split deterministic vs ensemble responses."""
        model, registry, dataset = served
        images = dataset.images[:3]
        with InferenceService(registry) as service:
            before = service.predict_request(PredictRequest(
                images, model="lenet", bits=4, mapping="acm"
            )).logits
            # Republish different weights under the same key mid-flight.
            other = make_lenet(mapping="acm", quantizer_bits=4, seed=99)
            registry.publish_model(other, "lenet", 4, "acm")
            after = service.predict_request(PredictRequest(
                images, model="lenet", bits=4, mapping="acm"
            )).logits
            ensemble = service.ensemble_request(EnsembleRequest(
                images, model="lenet", bits=4, mapping="acm",
                sigma_fraction=0.0, num_samples=2, seed=0,
            ))
        np.testing.assert_array_equal(after, before)
        np.testing.assert_allclose(ensemble.mean_logits, before, atol=1e-12)


class TestOneMonteCarloEngine:
    """Offline sweeps and served ensembles must compute the same bits.

    Both run the float64 plan through ``run_plan_samples``; with the images
    of one request inside one offline step (B·S within ``_STEP_IMAGES``),
    a seeded ensemble and a seeded sweep are the same program.
    """

    @pytest.mark.parametrize("name", ["lenet", "mlp"])
    def test_served_ensemble_equals_offline_sweep(self, tmp_path, name):
        from repro.runtime import montecarlo, monte_carlo_accuracy, monte_carlo_logits

        if name == "lenet":
            model = make_lenet(mapping="acm", quantizer_bits=4, seed=0)
            shape = (1, 16, 16)
        else:
            model, shape = small_mlp(), (1, 4, 4)
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(model, name, 4, "acm")
        plan = compile_model(model)
        rng = np.random.default_rng(4)
        images = rng.normal(size=(8,) + shape)
        labels = rng.integers(0, 10, size=8)
        sigma, samples, seed = 0.15, 25, 11
        assert len(images) * samples <= montecarlo._STEP_IMAGES  # one step
        with InferenceService(registry, max_batch=16) as service:
            served = service.ensemble_request(EnsembleRequest(
                images, model=name, bits=4, mapping="acm",
                sigma_fraction=sigma, num_samples=samples, seed=seed,
            ))
        offline = monte_carlo_logits(plan, images, sigma, samples,
                                     rng=np.random.default_rng(seed))
        assert np.array_equal(served.mean_logits, offline.mean(axis=0))

        accuracies = monte_carlo_accuracy(
            plan, ArrayDataset(images, labels), sigma, samples,
            rng=np.random.default_rng(seed),
        )
        offline_correct = int(np.rint(accuracies * len(labels)).sum())
        served_correct = int(served.vote_counts[np.arange(len(labels)), labels].sum())
        assert offline_correct == served_correct


# ---------------------------------------------------------------------- #
# Ensemble weight-stack cache
# ---------------------------------------------------------------------- #
class TestEnsembleWeightStackCache:
    """Repeated identical ensemble requests must skip Monte-Carlo resampling.

    Sampling the per-crossbar weight stacks is the image-independent cost of
    an ensemble request; the service caches them per
    ``(plan, sigma, num_samples, seed)`` draw identity.
    """

    @pytest.fixture
    def served(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(small_mlp(), "mlp", 4, "acm")
        images = np.random.default_rng(1).normal(size=(5, 1, 4, 4))
        return registry, images

    @staticmethod
    def _counting(monkeypatch):
        import repro.serve.service as service_module

        calls = []
        real = service_module.sample_crossbar_weights

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "sample_crossbar_weights", wrapper)
        return calls

    def test_identical_requests_resample_once_and_stay_bit_identical(
        self, served, monkeypatch
    ):
        registry, images = served
        calls = self._counting(monkeypatch)
        kwargs = dict(model="mlp", bits=4, mapping="acm",
                      sigma_fraction=0.2, num_samples=6, seed=9)
        with InferenceService(registry) as service:
            first = service.ensemble_request(EnsembleRequest(images, **kwargs))
            second = service.ensemble_request(EnsembleRequest(images, **kwargs))
            assert len(calls) == 1  # the regression: no resampling
            assert service.ensemble_cache_hits == 1
            assert service.ensemble_cache_misses == 1
            np.testing.assert_array_equal(first.mean_logits, second.mean_logits)
            np.testing.assert_array_equal(first.vote_counts, second.vote_counts)
            np.testing.assert_array_equal(first.predictions, second.predictions)
            # Different images under the same draw identity: still no
            # resampling (the stacks are image-independent).
            service.ensemble_request(EnsembleRequest(images[:2], **kwargs))
            assert len(calls) == 1

    @pytest.mark.parametrize("change", [
        {"seed": 10}, {"sigma_fraction": 0.25}, {"num_samples": 7},
    ])
    def test_changed_draw_identity_resamples(self, served, monkeypatch, change):
        registry, images = served
        calls = self._counting(monkeypatch)
        kwargs = dict(model="mlp", bits=4, mapping="acm",
                      sigma_fraction=0.2, num_samples=6, seed=9)
        with InferenceService(registry) as service:
            baseline = service.ensemble_request(
                EnsembleRequest(images, **kwargs)
            )
            changed = service.ensemble_request(
                EnsembleRequest(images, **{**kwargs, **change})
            )
            assert len(calls) == 2
            assert not np.array_equal(baseline.mean_logits, changed.mean_logits)

    def test_cache_is_bounded_lru(self, served, monkeypatch):
        registry, images = served
        calls = self._counting(monkeypatch)
        with InferenceService(registry, ensemble_cache_size=2) as service:
            for seed in (1, 2, 3):  # seed 1 evicted by seed 3
                service.ensemble_request(EnsembleRequest(
                    images, model="mlp", bits=4, mapping="acm",
                    sigma_fraction=0.1, num_samples=3, seed=seed,
                ))
            assert len(calls) == 3
            service.ensemble_request(EnsembleRequest(  # seed 3 still cached
                images, model="mlp", bits=4, mapping="acm",
                sigma_fraction=0.1, num_samples=3, seed=3,
            ))
            assert len(calls) == 3
            # seed 1 re-samples
            evicted = service.ensemble_request(EnsembleRequest(
                images, model="mlp", bits=4, mapping="acm",
                sigma_fraction=0.1, num_samples=3, seed=1,
            ))
            assert len(calls) == 4
            assert evicted.seed == 1

    def test_cached_result_matches_fresh_service_bitwise(self, served):
        """A cache hit must serve the exact bits a cold service computes."""
        registry, images = served
        kwargs = dict(model="mlp", bits=4, mapping="acm",
                      sigma_fraction=0.15, num_samples=5, seed=4)
        with InferenceService(registry) as warm:
            warm.ensemble_request(EnsembleRequest(images, **kwargs))
            hit = warm.ensemble_request(EnsembleRequest(images, **kwargs))
        with InferenceService(registry) as cold:
            fresh = cold.ensemble_request(EnsembleRequest(images, **kwargs))
        np.testing.assert_array_equal(hit.mean_logits, fresh.mean_logits)
        np.testing.assert_array_equal(hit.vote_counts, fresh.vote_counts)


# ---------------------------------------------------------------------- #
# Catalogue / stats hooks behind the HTTP front-end
# ---------------------------------------------------------------------- #
class TestServiceCatalogue:
    def test_models_lists_catalogue_with_digests(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(small_mlp(seed=0), "mlp", 4, "acm")
        registry.publish_model(small_mlp(mapping="de", seed=1), "mlp", 4, "de")
        with InferenceService(registry) as service:
            listed = service.models()
        assert [entry["name"] for entry in listed] == ["mlp__4b__acm", "mlp__4b__de"]
        for entry in listed:
            assert entry["digest"] == registry.digest(
                entry["model"], entry["bits"], entry["mapping"]
            )
            assert entry["size_bytes"] > 0

    def test_models_sees_externally_published_artifacts(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        with InferenceService(registry) as service:
            assert service.models() == []
            # Another process drops an artifact into the directory.
            other = PlanRegistry(tmp_path / "plans")
            other.publish_model(small_mlp(), "late", 4, "acm")
            assert [entry["name"] for entry in service.models()] == ["late__4b__acm"]

    def test_first_request_serves_an_externally_published_plan(self, tmp_path):
        # The registry re-scans on a miss, so no listing or refresh has to
        # come first: the very first request for the new key is served.
        registry = PlanRegistry(tmp_path / "plans")
        images = np.random.default_rng(5).normal(size=(3, 16))
        with InferenceService(registry) as service:
            model = small_mlp(seed=3)
            PlanRegistry(tmp_path / "plans").publish_model(model, "late", 4,
                                                           "acm")
            logits = service.predict_request(PredictRequest(
                images, model="late", bits=4, mapping="acm",
            )).logits
        np.testing.assert_array_equal(logits, compile_model(model).run(images))

    def test_stats_summary_is_json_ready(self, tmp_path):
        import json

        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(small_mlp(), "mlp", 4, "acm")
        images = np.zeros((3, 1, 4, 4))
        with InferenceService(registry) as service:
            service.predict_request(PredictRequest(
                images, model="mlp", bits=4, mapping="acm"
            ))
            summary = service.stats_summary()
        assert summary["mlp__4b__acm"]["num_requests"] == 1
        assert summary["mlp__4b__acm"]["num_rows"] == 3
        assert summary["ensemble_cache"] == {"hits": 0, "misses": 0, "size": 0}
        json.dumps(summary)  # must serialise without custom encoders
