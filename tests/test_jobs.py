"""The experiment-as-a-service subsystem: study jobs + versioned rollout.

Three contracts are pinned down here:

* **Resumable jobs** (:class:`repro.serve.jobs.JobManager`) — a submitted
  :class:`StudySpec` decomposes into idempotent cells whose results are
  checkpointed (atomic write-rename) after every completion; a manager
  restart re-executes *only* the missing cells and the resumed result is
  bit-identical to an uninterrupted run.  Transient backend failures
  (``WorkerDied`` and friends) retry the cell; typed request errors fail
  the job with the error resurrected on resume.
* **Versioned rollout** (:mod:`repro.serve.registry` +
  :class:`InferenceService`) — ``__vN`` artifacts publish alongside v1,
  a deterministic per-request-id hash routes exactly the configured
  canary fraction, and promote/rollback flip the active version
  atomically under concurrent load with zero errors.
* **Adaptive micro-batch cap** (:class:`AdaptiveMaxBatch`) — the
  probe-don't-tune controller doubles the cap while per-row latency
  holds, settles permanently at the knee, and is opt-in via
  ``max_batch="auto"``.

Bitwise oracles: a seeded ensemble and a deterministic predict are pure
functions of (artifact, request), so direct plan/service calls over the
same geometry are exact references.  Canary/concurrency tests run with
``max_batch=1`` so every request executes as its own batch and the
per-request oracle stays well-defined (BLAS kernels may differ in the
last bit between a coalesced gemm and a lone gemv).
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.api.codec import (
    decode_study_spec,
    decode_study_status,
    encode_study_spec,
    encode_study_status,
)
from repro.api.errors import (
    ApiTimeout,
    InvalidRequest,
    ModelNotFound,
    WorkerDied,
)
from repro.api.types import (
    EnsembleRequest,
    PredictRequest,
    StudyStatus,
    study_spec,
)
from repro.models import make_mlp
from repro.serve import (
    AdaptiveMaxBatch,
    InferenceService,
    JobManager,
    MicroBatchScheduler,
    PlanKey,
    PlanRegistry,
    canary_bucket,
)
from repro.serve.jobs import CHECKPOINT_FORMAT

SEED = 20260808
MODELS = (("alpha", 4, "acm"), ("beta", None, "de"))
SIGMAS = (0.0, 0.15)
NUM_SAMPLES = 5


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    """A plan directory holding the two study models (published once)."""
    directory = tmp_path_factory.mktemp("job-plans")
    registry = PlanRegistry(directory)
    for seed, (name, bits, mapping) in enumerate(MODELS):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping=mapping,
                         quantizer_bits=bits, seed=seed)
        registry.publish_model(model, name, bits, mapping)
    return directory


@pytest.fixture(scope="module")
def study_inputs():
    rng = np.random.default_rng(SEED)
    images = rng.normal(size=(6, 16))
    labels = rng.integers(0, 10, size=6)
    return images, labels


@pytest.fixture
def service(plan_dir):
    backend = InferenceService(PlanRegistry(plan_dir))
    yield backend
    backend.close()


def _spec(study_inputs, request_id=None):
    images, labels = study_inputs
    return study_spec(
        images=images,
        models=[(name, mapping, bits) for name, bits, mapping in MODELS],
        sigmas=SIGMAS,
        num_samples=NUM_SAMPLES,
        seed=7,
        labels=labels,
        request_id=request_id,
    )


def _reference_cells(backend, spec):
    """The oracle: every cell issued synchronously, spec decomposition order."""
    cells = []
    for index in range(spec.cell_count):
        selector, sigma = spec.cell(index)
        cells.append(backend.ensemble_request(EnsembleRequest(
            images=spec.images, model=selector.model,
            mapping=selector.mapping, bits=selector.bits,
            sigma_fraction=sigma, num_samples=spec.num_samples,
            seed=spec.seed,
        )))
    return cells


def _assert_results_identical(result_a, result_b):
    assert len(result_a.cells) == len(result_b.cells)
    for cell_a, cell_b in zip(result_a.cells, result_b.cells):
        assert (cell_a.model, cell_a.bits, cell_a.mapping) == (
            cell_b.model, cell_b.bits, cell_b.mapping)
        assert cell_a.sigma_fraction == cell_b.sigma_fraction
        assert np.array_equal(cell_a.mean_logits, cell_b.mean_logits)
        assert np.array_equal(cell_a.predictions, cell_b.predictions)
        assert np.array_equal(cell_a.confidence, cell_b.confidence)
        assert cell_a.accuracy == cell_b.accuracy


# ---------------------------------------------------------------------- #
# JobManager lifecycle
# ---------------------------------------------------------------------- #
class TestJobManager:
    def test_study_matches_synchronous_ensembles_bitwise(
        self, service, study_inputs
    ):
        spec = _spec(study_inputs)
        manager = JobManager(service)
        try:
            job_id = manager.submit(spec)
            status = manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        assert status.state == "done"
        assert status.cells_done == status.cells_total == spec.cell_count
        result = status.result
        assert result is not None and result.job_id == job_id
        # Cells come back model-major / sigma-minor — the spec's own
        # decomposition order — and bit-identical to synchronous calls.
        references = _reference_cells(service, spec)
        _, labels = study_inputs
        for index, (cell, reference) in enumerate(
            zip(result.cells, references)
        ):
            selector, sigma = spec.cell(index)
            assert (cell.model, cell.bits, cell.mapping) == (
                selector.model, selector.bits, selector.mapping)
            assert cell.sigma_fraction == sigma
            assert np.array_equal(cell.mean_logits, reference.mean_logits)
            assert np.array_equal(cell.predictions, reference.predictions)
            assert np.array_equal(cell.confidence, reference.confidence)
            assert cell.accuracy == pytest.approx(
                float((np.asarray(reference.predictions) == labels).mean()))

    def test_submit_rejects_non_spec(self, service):
        manager = JobManager(service)
        try:
            with pytest.raises(InvalidRequest):
                manager.submit({"models": []})
        finally:
            manager.close()

    def test_submit_rejects_bad_and_duplicate_job_ids(
        self, service, study_inputs
    ):
        spec = _spec(study_inputs)
        manager = JobManager(service)
        try:
            for bad in ("", ".hidden", "a/b", "x" * 65, "spaced id"):
                with pytest.raises(InvalidRequest):
                    manager.submit(spec, job_id=bad)
            job_id = manager.submit(spec, job_id="fixed-id")
            with pytest.raises(InvalidRequest):
                manager.submit(spec, job_id="fixed-id")
            manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()

    def test_unknown_job_id_raises_model_not_found(self, service):
        manager = JobManager(service)
        try:
            with pytest.raises(ModelNotFound):
                manager.status("no-such-job")
            with pytest.raises(ModelNotFound):
                manager.execution_counts("no-such-job")
        finally:
            manager.close()

    def test_unknown_model_fails_job_with_typed_error(
        self, service, study_inputs
    ):
        images, _ = study_inputs
        spec = study_spec(images=images, models=[("ghost", "acm", 4)],
                          sigmas=[0.0], num_samples=2)
        manager = JobManager(service)
        try:
            job_id = manager.submit(spec)
            status = manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        assert status.failed
        assert status.error_code == "model_not_found"
        assert status.result is None

    def test_wait_times_out_while_running(self, service, study_inputs):
        release = threading.Event()

        class _Slow:
            def ensemble_request(self, request):
                release.wait(30.0)
                return service.ensemble_request(request)

        manager = JobManager(_Slow())
        try:
            job_id = manager.submit(_spec(study_inputs))
            with pytest.raises(ApiTimeout):
                manager.wait(job_id, timeout=0.05)
            assert manager.status(job_id).state == "running"
        finally:
            release.set()
            manager.close()

    def test_closed_manager_rejects_submission(self, service, study_inputs):
        manager = JobManager(service)
        manager.close()
        with pytest.raises(RuntimeError):
            manager.submit(_spec(study_inputs))


# ---------------------------------------------------------------------- #
# Cancellation
# ---------------------------------------------------------------------- #
class TestCancel:
    def test_cancel_running_job_unblocks_waiters(self, service, study_inputs):
        release = threading.Event()
        started = threading.Event()

        class _Gated:
            def ensemble_request(self, request):
                started.set()
                release.wait(30.0)
                return service.ensemble_request(request)

        manager = JobManager(_Gated())
        try:
            job_id = manager.submit(_spec(study_inputs))
            assert started.wait(10.0)
            status = manager.cancel(job_id)
            assert status.state == "cancelled"
            assert status.cancelled and status.terminal
            assert status.result is None
            # Waiters see the terminal state immediately, not a timeout.
            assert manager.wait(job_id, timeout=5.0).state == "cancelled"
            # The in-flight cell finishes after cancellation; its result
            # is discarded, never recorded.
            done_before = status.cells_done
            release.set()
            time.sleep(0.2)
            after = manager.status(job_id)
            assert after.state == "cancelled"
            assert after.cells_done == done_before
        finally:
            release.set()
            manager.close()

    def test_cancel_is_idempotent_and_terminal_is_a_noop(
        self, service, study_inputs
    ):
        manager = JobManager(service)
        try:
            job_id = manager.submit(_spec(study_inputs))
            done = manager.wait(job_id, timeout=60.0)
            assert done.state == "done"
            # Cancelling a finished job reports "done", not "cancelled".
            assert manager.cancel(job_id).state == "done"
            assert manager.status(job_id).result is not None
        finally:
            manager.close()
        with pytest.raises(ModelNotFound):
            manager.cancel("no-such-job")

    def test_cancelled_checkpoint_is_terminal_across_restart(
        self, service, study_inputs, tmp_path
    ):
        release = threading.Event()
        started = threading.Event()

        class _Gated:
            def ensemble_request(self, request):
                started.set()
                release.wait(30.0)
                return service.ensemble_request(request)

        first = JobManager(_Gated(), checkpoint_dir=tmp_path)
        try:
            job_id = first.submit(_spec(study_inputs))
            assert started.wait(10.0)
            assert first.cancel(job_id).state == "cancelled"
            # Double-cancel stays cancelled.
            assert first.cancel(job_id).state == "cancelled"
        finally:
            release.set()
            first.close()
        document = json.loads(
            (tmp_path / f"{job_id}.json").read_text(encoding="utf-8"))
        assert document["state"] == "cancelled"

        second = JobManager(service, checkpoint_dir=tmp_path)
        try:
            # Terminal: the job is queryable but never re-executes.
            assert second.resume() == []
            restored = second.status(job_id)
            assert restored.state == "cancelled"
            assert restored.result is None
            assert second.execution_counts(job_id)["executed"] == 0
        finally:
            second.close()

    def test_wait_study_raises_for_cancelled_job(self, service, study_inputs):
        from repro.api.errors import BackendClosed
        from repro.api.study import wait_study

        release = threading.Event()

        class _Gated:
            def ensemble_request(self, request):
                release.wait(30.0)
                return service.ensemble_request(request)

        manager = JobManager(_Gated())

        class _Poller:
            def get_study(self, job_id):
                return manager.status(job_id)

        try:
            job_id = manager.submit(_spec(study_inputs))
            manager.cancel(job_id)
            with pytest.raises(BackendClosed, match="cancelled"):
                wait_study(_Poller(), job_id, timeout=10.0)
        finally:
            release.set()
            manager.close()

    def test_cancel_through_the_local_client(self, service, study_inputs):
        from repro.api import LocalClient

        client = LocalClient(service, own_backend=False)
        try:
            job_id = client.submit_study(_spec(study_inputs))
            deadline = time.monotonic() + 60
            while not client.get_study(job_id).terminal:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert client.cancel_study(job_id).state == "done"
        finally:
            client.close()


# ---------------------------------------------------------------------- #
# Checkpointing and resume
# ---------------------------------------------------------------------- #
class TestCheckpointResume:
    def test_checkpoint_document_format(self, service, study_inputs, tmp_path):
        spec = _spec(study_inputs)
        manager = JobManager(service, checkpoint_dir=tmp_path / "jobs")
        try:
            job_id = manager.submit(spec)
            manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        path = tmp_path / "jobs" / f"{job_id}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format"] == CHECKPOINT_FORMAT
        assert document["job_id"] == job_id
        assert document["state"] == "done"
        assert sorted(document["cells"]) == [
            str(index) for index in range(spec.cell_count)]
        # The embedded spec must round-trip through the study codec.
        decoded, _ = decode_study_spec(document["spec"])
        assert decoded.cell_count == spec.cell_count
        assert np.array_equal(decoded.images, spec.images)
        # No stray temp files: the write-rename always completes.
        assert list((tmp_path / "jobs").glob(".*.tmp")) == []

    def test_no_checkpoint_dir_keeps_disk_untouched(
        self, service, study_inputs, tmp_path
    ):
        manager = JobManager(service)
        try:
            job_id = manager.submit(_spec(study_inputs))
            manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        assert manager.checkpoint_dir is None
        assert list(tmp_path.iterdir()) == []

    def test_completed_job_resumes_queryable_with_zero_reexecution(
        self, service, study_inputs, tmp_path
    ):
        spec = _spec(study_inputs)
        first = JobManager(service, checkpoint_dir=tmp_path)
        try:
            job_id = first.submit(spec)
            original = first.wait(job_id, timeout=60.0)
        finally:
            first.close()

        second = JobManager(service, checkpoint_dir=tmp_path)
        try:
            assert second.resume() == []  # done jobs don't re-execute
            assert second.job_ids() == [job_id]
            status = second.status(job_id)
            counts = second.execution_counts(job_id)
        finally:
            second.close()
        assert status.state == "done"
        assert counts["executed"] == 0
        assert counts["resumed"] == spec.cell_count
        _assert_results_identical(status.result, original.result)

    def test_interrupted_job_resumes_only_missing_cells(
        self, service, study_inputs, tmp_path
    ):
        spec = _spec(study_inputs)
        first = JobManager(service, checkpoint_dir=tmp_path)
        try:
            job_id = first.submit(spec)
            original = first.wait(job_id, timeout=60.0)
        finally:
            first.close()

        # Rewind the checkpoint to mid-study: half the cells done, state
        # running — exactly what a SIGKILLed manager leaves behind.
        path = tmp_path / f"{job_id}.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        kept = spec.cell_count // 2
        document["state"] = "running"
        document["cells"] = {
            key: value for key, value in document["cells"].items()
            if int(key) < kept
        }
        path.write_text(json.dumps(document), encoding="utf-8")

        second = JobManager(service, checkpoint_dir=tmp_path)
        try:
            assert second.resume() == [job_id]
            status = second.wait(job_id, timeout=60.0)
            counts = second.execution_counts(job_id)
        finally:
            second.close()
        assert status.state == "done"
        # Restored cells were NOT re-executed; only the missing ones ran.
        assert counts["resumed"] == kept
        assert counts["executed"] == spec.cell_count - kept
        # And the stitched-together result is bit-identical to the
        # uninterrupted run.
        _assert_results_identical(status.result, original.result)

    def test_unreadable_checkpoints_skipped_not_fatal(
        self, service, study_inputs, tmp_path
    ):
        (tmp_path / "garbage.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "foreign.json").write_text(
            json.dumps({"format": 999}), encoding="utf-8")
        manager = JobManager(service, checkpoint_dir=tmp_path)
        try:
            assert manager.resume() == []
            assert manager.job_ids() == []
            # The manager still works after skipping the junk.
            job_id = manager.submit(_spec(study_inputs))
            assert manager.wait(job_id, timeout=60.0).state == "done"
        finally:
            manager.close()

    def test_failed_job_error_resurrects_on_resume(
        self, service, study_inputs, tmp_path
    ):
        images, _ = study_inputs
        spec = study_spec(images=images, models=[("ghost", "acm", 4)],
                          sigmas=[0.0], num_samples=2)
        first = JobManager(service, checkpoint_dir=tmp_path)
        try:
            job_id = first.submit(spec)
            first.wait(job_id, timeout=60.0)
        finally:
            first.close()
        second = JobManager(service, checkpoint_dir=tmp_path)
        try:
            assert second.resume() == []
            status = second.wait(job_id, timeout=1.0)
        finally:
            second.close()
        assert status.failed
        assert status.error_code == "model_not_found"
        assert status.error_message


# ---------------------------------------------------------------------- #
# Retry policy
# ---------------------------------------------------------------------- #
class _Flaky:
    """Backend wrapper: the first ``failures`` calls die like a worker."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.calls = 0
        self.lock = threading.Lock()

    def ensemble_request(self, request):
        with self.lock:
            self.calls += 1
            if self.failures > 0:
                self.failures -= 1
                raise WorkerDied("injected worker death")
        return self.inner.ensemble_request(request)


class TestRetries:
    def test_transient_failures_retry_to_bitwise_identical_result(
        self, service, study_inputs
    ):
        spec = _spec(study_inputs)
        clean = JobManager(service)
        flaky = JobManager(_Flaky(service, failures=3), retry_backoff=0.001)
        try:
            clean_id = clean.submit(spec)
            flaky_id = flaky.submit(spec)
            clean_status = clean.wait(clean_id, timeout=60.0)
            flaky_status = flaky.wait(flaky_id, timeout=60.0)
            retries = flaky.execution_counts(flaky_id)["retries"]
        finally:
            clean.close()
            flaky.close()
        assert flaky_status.state == "done"
        assert retries == 3 == flaky_status.retries
        _assert_results_identical(flaky_status.result, clean_status.result)

    def test_retry_budget_exhaustion_fails_job(self, service, study_inputs):
        manager = JobManager(_Flaky(service, failures=10 ** 6),
                             cell_retries=2, retry_backoff=0.001)
        try:
            job_id = manager.submit(_spec(study_inputs))
            status = manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        assert status.failed
        assert status.error_code == "worker_died"

    def test_request_errors_fail_without_retry(self, service, study_inputs):
        class _Rejecting:
            calls = 0

            def ensemble_request(self, request):
                type(self).calls += 1
                raise InvalidRequest("bad request")

        backend = _Rejecting()
        manager = JobManager(backend, max_workers=1, retry_backoff=0.001)
        try:
            job_id = manager.submit(_spec(study_inputs))
            status = manager.wait(job_id, timeout=60.0)
        finally:
            manager.close()
        assert status.failed
        assert status.error_code == "invalid_request"
        # No retry loop: the first typed rejection fails the job.
        assert backend.calls <= 2  # one per in-flight worker at most


# ---------------------------------------------------------------------- #
# Versioned rollout: canary split, promote, rollback
# ---------------------------------------------------------------------- #
@pytest.fixture
def rollout_env(tmp_path):
    """One model at two versions with bit-distinguishable outputs."""
    from repro.runtime import compile_model
    from repro.train.evaluate import plan_for

    directory = tmp_path / "plans"
    registry = PlanRegistry(directory)
    v1_model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                        quantizer_bits=4, seed=1)
    v2_model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                        quantizer_bits=4, seed=2)
    registry.publish(plan_for(v1_model, use_runtime=True), "roll", 4, "acm")
    registry.publish(plan_for(v2_model, use_runtime=True), "roll", 4, "acm",
                     version=2)
    images = np.random.default_rng(SEED).normal(size=(4, 16))
    # max_batch=1: every request executes as its own (oversized) batch, so
    # the per-request bitwise oracle survives concurrency.
    backend = InferenceService(registry, max_batch=1)
    oracles = {
        1: registry.get("roll", 4, "acm").run(images),
        2: registry.get("roll", 4, "acm", version=2).run(images),
    }
    assert not np.array_equal(oracles[1], oracles[2])
    yield backend, images, oracles
    backend.close()


class TestVersionedRollout:
    def test_canary_split_matches_hash_exactly(self, rollout_env):
        service, images, oracles = rollout_env
        fraction = 0.4
        state = service.set_canary("roll", 4, "acm", version=2,
                                   fraction=fraction)
        assert state == {"active": 1, "canary_version": 2,
                         "canary_fraction": fraction, "previous": None}
        routed = {1: 0, 2: 0}
        for index in range(120):
            request_id = f"canary-req-{index:03d}"
            expected = 2 if canary_bucket(request_id) < fraction else 1
            logits = service.predict_request(PredictRequest(
                images, model="roll", mapping="acm", bits=4,
                request_id=request_id,
            )).logits
            assert np.array_equal(logits, oracles[expected]), request_id
            routed[expected] += 1
        # Both sides of the split must actually carry traffic, and the
        # observed counts are exactly the deterministic hash split.
        assert routed[1] > 0 and routed[2] > 0
        counter = service.metrics.counter(
            "repro_canary_requests_total", "", labels=("model", "version"))
        assert counter.value(model="roll__4b__acm", version="v1") == routed[1]
        assert counter.value(model="roll__4b__acm", version="v2") == routed[2]

    def test_requests_without_id_serve_active_version(self, rollout_env):
        # The entry point assigns an id to an id-less request before
        # routing, so it serves the active version unless its assigned id
        # falls in the canary slice — and the echoed id reproduces which.
        service, images, oracles = rollout_env
        request = PredictRequest(images, model="roll", mapping="acm", bits=4)
        service.set_canary("roll", 4, "acm", version=2, fraction=0.0)
        assert np.array_equal(service.predict_request(request).logits,
                              oracles[1])
        service.set_canary("roll", 4, "acm", version=2, fraction=0.5)
        for _ in range(20):
            result = service.predict_request(request)
            expected = 2 if canary_bucket(result.request_id) < 0.5 else 1
            assert np.array_equal(result.logits, oracles[expected])

    def test_promote_then_rollback_flips_all_traffic(self, rollout_env):
        service, images, oracles = rollout_env
        service.set_canary("roll", 4, "acm", version=2, fraction=0.25)
        state = service.promote("roll", 4, "acm")
        assert state == {"active": 2, "canary_version": None,
                         "canary_fraction": 0.0, "previous": 1}
        for index in range(20):
            logits = service.predict_request(PredictRequest(
                images, model="roll", mapping="acm", bits=4,
                request_id=f"post-promote-{index}",
            )).logits
            assert np.array_equal(logits, oracles[2])
        state = service.rollback("roll", 4, "acm")
        assert state == {"active": 1, "canary_version": None,
                         "canary_fraction": 0.0, "previous": 2}
        for index in range(20):
            logits = service.predict_request(PredictRequest(
                images, model="roll", mapping="acm", bits=4,
                request_id=f"post-rollback-{index}",
            )).logits
            assert np.array_equal(logits, oracles[1])

    def test_rollout_admin_validation(self, rollout_env):
        service, _, _ = rollout_env
        with pytest.raises(ValueError):
            service.set_canary("roll", 4, "acm", version=2, fraction=1.5)
        with pytest.raises(KeyError):
            service.set_canary("roll", 4, "acm", version=9, fraction=0.5)
        with pytest.raises(ValueError):
            service.promote("roll", 4, "acm")  # no canary in flight
        with pytest.raises(ValueError):
            service.rollback("roll", 4, "acm")  # nothing promoted yet
        assert service.rollout_status() == {}

    def test_pinned_version_bypasses_rollout(self, rollout_env):
        service, images, oracles = rollout_env
        service.set_canary("roll", 4, "acm", version=2, fraction=1.0)
        service.promote("roll", 4, "acm")
        # A typed request naming version 2 explicitly (via PlanKey routing)
        # is untouched; and resolve() passes versioned keys through.
        registry = service.registry
        pinned = PlanKey("roll", 4, "acm", version=2)
        assert registry.resolve_key(pinned, "any-id") is pinned

    def test_promote_rollback_atomic_under_concurrent_load(self, rollout_env):
        service, images, oracles = rollout_env
        service.set_canary("roll", 4, "acm", version=2, fraction=0.5)
        errors = []
        mismatches = []
        stop = threading.Event()

        def hammer(worker):
            index = 0
            while not stop.is_set():
                request_id = f"load-{worker}-{index}"
                index += 1
                try:
                    logits = service.predict_request(PredictRequest(
                        images, model="roll", mapping="acm", bits=4,
                        request_id=request_id,
                    )).logits
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append(error)
                    return
                # Every response is exactly one artifact's bits — a torn
                # flip (half-old, half-new state) would betray itself here.
                if not (np.array_equal(logits, oracles[1])
                        or np.array_equal(logits, oracles[2])):
                    mismatches.append(request_id)

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                time.sleep(0.02)
                service.promote("roll", 4, "acm", version=2)
                time.sleep(0.02)
                service.rollback("roll", 4, "acm")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert errors == []
        assert mismatches == []


# ---------------------------------------------------------------------- #
# Version grammar (satellite bugfix): __vN parsing is strict + round-trips
# ---------------------------------------------------------------------- #
class TestVersionGrammar:
    @pytest.mark.parametrize("stem, expected", [
        ("lenet__4b__acm", ("lenet", 4, "acm", 1)),
        ("lenet__4b__acm__v2", ("lenet", 4, "acm", 2)),
        ("lenet__fp32__de__v10", ("lenet", None, "de", 10)),
    ])
    def test_parse_accepts_and_round_trips(self, stem, expected):
        key = PlanKey.parse(stem)
        assert key is not None
        assert (key.model, key.bits, key.mapping, key.version) == expected
        assert key.canonical() == stem

    @pytest.mark.parametrize("stem", [
        "lenet__4b__acm__v1",     # would alias the bare 3-part stem
        "lenet__4b__acm__v02",    # leading zero never round-trips
        "lenet__4b__acm__v0",
        "lenet__4b__acm__2",      # missing the v
        "lenet__4b__acm__vtwo",
        "lenet__4b__acm__v2__v3",
        "_rollout",               # the rollout state file is foreign
    ])
    def test_parse_rejects_malformed_version_tokens(self, stem):
        assert PlanKey.parse(stem) is None

    def test_plan_key_rejects_bad_versions(self):
        for version in (0, -1, True, 1.5):
            with pytest.raises(ValueError):
                PlanKey("m", 4, "acm", version=version)

    def test_base_key_and_canonicals(self):
        key = PlanKey("lenet", 4, "acm", version=3)
        assert key.base_canonical() == "lenet__4b__acm"
        assert key.canonical() == "lenet__4b__acm__v3"
        assert key.base_key() == PlanKey("lenet", 4, "acm")
        base = PlanKey("lenet", 4, "acm")
        assert base.base_key() is base

    def test_describe_and_digest_lookup_are_version_aware(self, rollout_env):
        service, images, oracles = rollout_env
        registry = service.registry
        names = {entry["name"] for entry in registry.describe()}
        assert {"roll__4b__acm", "roll__4b__acm__v2"} <= names
        # A digest names immutable content: the v2 digest must load the v2
        # artifact, never its version-1 sibling (the version-blind-collision
        # bug this PR fixes).
        v2_digest = registry.digest("roll", 4, "acm", version=2)
        assert registry.digest("roll", 4, "acm") != v2_digest
        plan = registry.get_by_digest(v2_digest)
        assert np.array_equal(plan.run(images), oracles[2])


# ---------------------------------------------------------------------- #
# Adaptive micro-batch cap (satellite: max_batch="auto")
# ---------------------------------------------------------------------- #
class TestAdaptiveMaxBatch:
    def test_grows_while_per_row_latency_holds(self):
        control = AdaptiveMaxBatch(start=4, limit=64, window=2)
        for _ in range(2):
            control.record(4, 4 * 0.010)
        assert control.cap == 8 and not control.settled
        for _ in range(2):
            control.record(8, 8 * 0.010)
        assert control.cap == 16 and not control.settled

    def test_settles_at_best_cap_on_degradation(self):
        control = AdaptiveMaxBatch(start=4, limit=64, window=2)
        for _ in range(2):
            control.record(4, 4 * 0.012)
        for _ in range(2):
            control.record(8, 8 * 0.010)  # batching amortises: new best
        # Growing to 16 doubles per-row latency: past the knee.
        for _ in range(2):
            control.record(16, 16 * 0.020)
        assert control.settled
        assert control.cap == 8
        # A settled controller never moves again, whatever it sees.
        control.record(8, 8 * 0.001)
        control.record(8, 8 * 0.001)
        assert control.cap == 8

    def test_settles_at_limit_without_degradation(self):
        control = AdaptiveMaxBatch(start=4, limit=8, window=1)
        control.record(4, 4 * 0.010)
        assert control.cap == 8
        control.record(8, 8 * 0.009)
        assert control.settled
        assert control.cap == 8

    def test_ignores_stragglers_and_junk_samples(self):
        control = AdaptiveMaxBatch(start=8, limit=64, window=1)
        control.record(1, 0.010)     # under half the cap: not a probe
        control.record(0, 0.010)     # junk
        control.record(8, -1.0)      # junk
        assert control.cap == 8 and not control.settled
        control.record(8, 8 * 0.010)  # a real probe finally moves it
        assert control.cap == 16

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdaptiveMaxBatch(start=0)
        with pytest.raises(ValueError):
            AdaptiveMaxBatch(start=16, limit=8)
        with pytest.raises(ValueError):
            AdaptiveMaxBatch(window=0)
        with pytest.raises(ValueError):
            AdaptiveMaxBatch(tolerance=0.5)

    def test_scheduler_accepts_auto_and_instances(self):
        runner = lambda rows: rows  # noqa: E731
        scheduler = MicroBatchScheduler(runner, max_batch="auto")
        try:
            assert isinstance(scheduler.adaptive, AdaptiveMaxBatch)
            assert scheduler.max_batch == scheduler.adaptive.cap
        finally:
            scheduler.close()
        control = AdaptiveMaxBatch(start=2, limit=4)
        scheduler = MicroBatchScheduler(runner, max_batch=control)
        try:
            assert scheduler.adaptive is control
            assert scheduler.max_batch == 2
        finally:
            scheduler.close()
        fixed = MicroBatchScheduler(runner, max_batch=16)
        try:
            assert fixed.adaptive is None
            assert fixed.max_batch == 16
        finally:
            fixed.close()

    def test_scheduler_rejects_bad_max_batch_values(self):
        runner = lambda rows: rows  # noqa: E731
        with pytest.raises(ValueError, match="int or 'auto'"):
            MicroBatchScheduler(runner, max_batch="turbo")
        with pytest.raises(ValueError, match="at least 1"):
            MicroBatchScheduler(runner, max_batch=0)
        with pytest.raises(ValueError, match="int or 'auto'"):
            MicroBatchScheduler(runner, max_batch=True)

    def test_service_auto_max_batch_serves_and_reports(self, plan_dir):
        service = InferenceService(PlanRegistry(plan_dir), max_batch="auto")
        try:
            images = np.random.default_rng(3).normal(size=(4, 16))
            logits = service.predict_request(PredictRequest(
                images, model="alpha", mapping="acm", bits=4,
            )).logits
            assert logits.shape == (4, 10)
            summary = service.stats_summary()
            assert summary["alpha__4b__acm"]["max_batch"] >= 1
        finally:
            service.close()


# ---------------------------------------------------------------------- #
# Study status codec sanity (the deep fuzz lives in test_api_codec_fuzz)
# ---------------------------------------------------------------------- #
class TestStudyStatusCodec:
    def test_status_round_trip(self):
        status = StudyStatus(job_id="j1", state="running", cells_total=4,
                             cells_done=1, retries=2)
        decoded = decode_study_status(encode_study_status(status))
        assert (decoded.job_id, decoded.state, decoded.cells_total,
                decoded.cells_done, decoded.retries) == (
            status.job_id, status.state, status.cells_total,
            status.cells_done, status.retries)
        assert decoded.error_code is None and decoded.result is None

    def test_spec_round_trip_is_bit_exact(self, study_inputs):
        spec = _spec(study_inputs, request_id="round-trip")
        decoded, encoding = decode_study_spec(encode_study_spec(spec))
        assert encoding == "b64"
        assert decoded.models == spec.models
        assert decoded.sigmas == spec.sigmas
        assert decoded.num_samples == spec.num_samples
        assert decoded.seed == spec.seed
        assert decoded.request_id == spec.request_id
        assert np.array_equal(decoded.images, spec.images)
        assert decoded.images.dtype == spec.images.dtype
        assert np.array_equal(decoded.labels, spec.labels)
