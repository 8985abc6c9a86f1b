"""The backend-equivalence matrix: one script, three transports, one answer.

This is the acceptance test of the unified client layer: the *same*
sequence of typed calls runs against a ``local:`` backend, a live HTTP
endpoint, and a ``cluster:`` deployment over the same plan directory, and
must produce

* bit-identical float64 predictions (deterministic and ensemble), and
* the identical typed error (class and machine-readable code) for the
  same malformed inputs,

through every backend.  The Fig. 6 sigma sweep helper is part of the
script, so the study protocol itself is certified backend-independent.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import connect
from repro.api.codec import FRAME_CONTENT_TYPE
from repro.api.errors import ApiError
from repro.api.study import variation_sweep_via_client
from repro.api.types import EnsembleRequest, PredictRequest
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import InferenceService, PlanRegistry, PlanServer

MODELS = (("alpha", 4, "acm"), ("beta", None, "de"))
BACKENDS = ("local", "http", "cluster")


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """One plan directory, three live backends, shared evaluation data."""
    directory = tmp_path_factory.mktemp("equivalence-plans")
    registry = PlanRegistry(directory)
    plans = {}
    for seed, (name, bits, mapping) in enumerate(MODELS):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping=mapping,
                         quantizer_bits=bits, seed=seed)
        registry.publish_model(model, name, bits, mapping)
        plans[name] = compile_model(model)

    http_service = InferenceService(PlanRegistry(directory), max_batch=16)
    server = PlanServer(http_service, own_backend=True).start()
    clients = {
        "local": connect(f"local:{directory}?max_batch=16"),
        "http": connect(server.url),
        "cluster": connect(f"cluster:{directory}?workers=2&max_batch=16"),
    }
    clients["cluster"].backend.wait_ready(timeout=120)
    rng = np.random.default_rng(11)
    images = rng.normal(size=(8, 16))
    labels = rng.integers(0, 10, size=8)
    yield SimpleNamespace(directory=directory, plans=plans, clients=clients,
                          images=images, labels=labels,
                          server=server)
    for client in clients.values():
        client.close()
    server.close()


def run_script(client, images, labels):
    """The one client script; must behave identically on every backend."""
    out = {}
    for name, bits, mapping in MODELS:
        out[f"predict:{name}"] = client.predict(PredictRequest(
            images=images, model=name, mapping=mapping, bits=bits)).logits
        out[f"single:{name}"] = client.predict(PredictRequest(
            images=images[0], model=name, mapping=mapping, bits=bits)).logits
        ensemble = client.ensemble(EnsembleRequest(
            images=images, model=name, mapping=mapping, bits=bits,
            sigma_fraction=0.15, num_samples=7, seed=21))
        out[f"ensemble_mean:{name}"] = ensemble.mean_logits
        out[f"ensemble_votes:{name}"] = ensemble.vote_counts
        out[f"ensemble_pred:{name}"] = ensemble.predictions
    sweep = variation_sweep_via_client(
        client, images, labels, model="alpha", mapping="acm", bits=4,
        sigmas=(0.0, 0.2), num_samples=5, seed=3,
    )
    out["sweep_accuracy"] = np.asarray(sweep.accuracies)
    out["sweep_confidence"] = np.asarray(
        [point.mean_confidence for point in sweep.points]
    )
    return out


class TestBitEquivalence:
    def test_same_script_identical_through_every_backend(self, matrix):
        results = {
            backend: run_script(matrix.clients[backend], matrix.images,
                                matrix.labels)
            for backend in BACKENDS
        }
        reference = results["local"]
        # The local backend itself must match the bare compiled plan.
        for name, _, _ in MODELS:
            np.testing.assert_array_equal(
                reference[f"predict:{name}"],
                matrix.plans[name].run(matrix.images),
            )
        for backend in BACKENDS[1:]:
            for key, expected in reference.items():
                actual = results[backend][key]
                assert np.asarray(actual).dtype == np.asarray(expected).dtype, \
                    f"{backend}:{key} dtype drifted"
                np.testing.assert_array_equal(
                    actual, expected,
                    err_msg=f"{backend}:{key} is not bit-identical",
                )

    def test_http_client_rides_the_frame(self, matrix, record_edge):
        # The http leg above certifies frames, not a JSON fallback: every
        # predict and ensemble of the script crosses the edge as a frame
        # and comes back as one.
        seen = record_edge(matrix.server.core)
        run_script(matrix.clients["http"], matrix.images, matrix.labels)
        predictions = [exchange for exchange in seen if exchange.path in (
            "/v1/predict", "/v1/predict_under_variation")]
        assert {exchange.path for exchange in predictions} == {
            "/v1/predict", "/v1/predict_under_variation"}
        assert {(exchange.request_type, exchange.response_type,
                 exchange.status) for exchange in predictions} == {
            (FRAME_CONTENT_TYPE, FRAME_CONTENT_TYPE, 200)}

    def test_same_study_spec_identical_through_every_backend(self, matrix):
        """The async study path: one spec, three backends, identical bits.

        Submits the *same* multi-model :class:`StudySpec` through
        ``submit_study`` on every backend — the local in-process manager,
        the HTTP server's manager, and the cluster — and the
        collected :class:`StudyResult` cells must agree to the last bit,
        accuracy scoring included.
        """
        from repro.api import study_spec, wait_study

        spec = study_spec(
            images=matrix.images,
            models=[(name, mapping, bits) for name, bits, mapping in MODELS],
            sigmas=(0.0, 0.1),
            num_samples=5,
            seed=13,
            labels=matrix.labels,
        )
        results = {}
        for backend in BACKENDS:
            client = matrix.clients[backend]
            job_id = client.submit_study(spec)
            results[backend] = wait_study(client, job_id, timeout=300.0)
        reference = results["local"]
        assert len(reference.cells) == spec.cell_count
        for backend in BACKENDS[1:]:
            result = results[backend]
            assert len(result.cells) == len(reference.cells), backend
            for cell, expected in zip(result.cells, reference.cells):
                assert (cell.model, cell.bits, cell.mapping,
                        cell.sigma_fraction) == (
                    expected.model, expected.bits, expected.mapping,
                    expected.sigma_fraction), backend
                np.testing.assert_array_equal(
                    cell.mean_logits, expected.mean_logits,
                    err_msg=f"{backend}: mean_logits not bit-identical")
                np.testing.assert_array_equal(
                    cell.predictions, expected.predictions,
                    err_msg=f"{backend}: predictions not bit-identical")
                np.testing.assert_array_equal(
                    cell.confidence, expected.confidence,
                    err_msg=f"{backend}: confidence not bit-identical")
                assert cell.accuracy == expected.accuracy, backend

    def test_float64_is_preserved_end_to_end(self, matrix):
        for backend in BACKENDS:
            logits = matrix.clients[backend].predict(PredictRequest(
                images=matrix.images, model="alpha", mapping="acm",
                bits=4)).logits
            assert np.asarray(logits).dtype == np.float64

    def test_catalogues_agree(self, matrix):
        listings = {
            backend: {info.name: info.digest
                      for info in matrix.clients[backend].models()}
            for backend in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert listings["local"] == listings[backend], backend
        assert set(listings["local"]) == {"alpha__4b__acm", "beta__fp32__de"}

    def test_health_everywhere(self, matrix):
        for backend in BACKENDS:
            health = matrix.clients[backend].health()
            assert health.ok and health.models == len(MODELS)


def _typed_failure(client, request, flavour):
    call = client.ensemble if flavour == "ensemble" else client.predict
    try:
        call(request)
    except ApiError as error:
        return type(error), error.code
    raise AssertionError("expected a typed ApiError")


class TestErrorEquivalence:
    CASES = [
        ("unknown model", "predict", dict(model="ghost", mapping="acm")),
        ("unknown ensemble model", "ensemble", dict(model="ghost",
                                                    mapping="acm")),
        ("wrong geometry", "predict", dict(model="alpha", mapping="acm",
                                           bits=4, shape=(2, 3))),
        ("wrong ensemble geometry", "ensemble", dict(model="alpha",
                                                     mapping="acm", bits=4,
                                                     shape=(1, 2, 3))),
        ("wrong mapping key", "predict", dict(model="alpha", mapping="bc",
                                              bits=4)),
    ]

    @pytest.mark.parametrize("label,flavour,spec",
                             CASES, ids=[case[0] for case in CASES])
    def test_same_typed_error_through_every_backend(self, matrix, label,
                                                    flavour, spec):
        shape = spec.pop("shape", (2, 16))
        images = np.zeros(shape)
        outcomes = {}
        for backend in BACKENDS:
            if flavour == "ensemble":
                request = EnsembleRequest(images=images, num_samples=3, **spec)
            else:
                request = PredictRequest(images=images, **spec)
            outcomes[backend] = _typed_failure(matrix.clients[backend],
                                               request, flavour)
        assert all(outcomes[backend] == outcomes["local"]
                   for backend in BACKENDS), f"{label}: {outcomes}"
        spec["shape"] = shape  # restore for parametrize reuse safety

    def test_construction_time_validation_is_backend_free(self, matrix):
        # Bad ensemble parameters never reach a transport: the shared
        # request type rejects them identically for every backend.
        from repro.api import InvalidRequest

        for _ in BACKENDS:
            with pytest.raises(InvalidRequest):
                EnsembleRequest(images=np.zeros((1, 16)), model="alpha",
                                mapping="acm", bits=4, num_samples=0)


class TestEnsembleBackpressureEquivalence:
    """A saturated ensemble lane 429s identically through every backend."""

    @pytest.fixture(scope="class")
    def saturated(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("ebp-equivalence-plans")
        registry = PlanRegistry(directory)
        model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                         quantizer_bits=4, seed=0)
        registry.publish_model(model, "alpha", 4, "acm")
        service = InferenceService(PlanRegistry(directory),
                                   max_concurrent_ensembles=0)
        server = PlanServer(service, own_backend=True).start()
        clients = {
            "local": connect(
                f"local:{directory}?max_concurrent_ensembles=0"
            ),
            "http": connect(server.url),
            "cluster": connect(
                f"cluster:{directory}?workers=1&max_concurrent_ensembles=0"
            ),
        }
        clients["cluster"].backend.wait_ready(timeout=120)
        yield clients
        for client in clients.values():
            client.close()
        server.close()

    def test_saturated_lane_rejects_identically(self, saturated):
        from repro.api import ApiBackpressure

        outcomes = {}
        for backend, client in saturated.items():
            request = EnsembleRequest(images=np.zeros((2, 16)), model="alpha",
                                      mapping="acm", bits=4, num_samples=3)
            with pytest.raises(ApiBackpressure) as excinfo:
                client.ensemble(request)
            assert excinfo.value.retry_after > 0, backend
            outcomes[backend] = (type(excinfo.value), excinfo.value.code)
        assert len(set(outcomes.values())) == 1, outcomes

    def test_deterministic_requests_unaffected_everywhere(self, saturated):
        for backend, client in saturated.items():
            logits = client.predict(PredictRequest(
                images=np.zeros((2, 16)), model="alpha", mapping="acm",
                bits=4)).logits
            assert np.asarray(logits).shape == (2, 10), backend


class TestAsyncClientEquivalence:
    """``asyncio`` consumers get the same truth through ``to_thread``.

    Every call runs as ``asyncio.to_thread`` on one pooled
    :class:`~repro.api.HttpClient`, on an event loop whose executor has
    4 threads, against the ``PlanServer`` edge.  Every
    result must be bit-identical to the in-process reference, every
    failure the same typed error.
    """

    EDGES = ("http",)
    THREADS = 4

    @staticmethod
    def _url(matrix, edge):
        return matrix.server.url

    def _drive(self, matrix, edge, script):
        """Run ``script(client)`` on a loop with a ``THREADS``-wide executor.

        Returns ``(script result, client_stats())``; ``pool_size`` matches
        the executor width, which is the in-flight width.
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.api import HttpClient

        async def main():
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(self.THREADS))
            with HttpClient(self._url(matrix, edge),
                            pool_size=self.THREADS) as client:
                return await script(client), client.client_stats()

        return asyncio.run(main())

    @pytest.mark.parametrize("edge", EDGES)
    def test_results_bit_identical_to_local(self, matrix, edge):
        # Awaited one at a time, as the local reference runs them: the
        # edge coalesces concurrent requests, and a 1-row batch differs
        # from the same row inside a larger batch in the last ULP.
        async def script(api):
            out = {}
            for name, bits, mapping in MODELS:
                out[f"predict:{name}"] = (await asyncio.to_thread(
                    api.predict, PredictRequest(
                        images=matrix.images, model=name, mapping=mapping,
                        bits=bits))).logits
                out[f"single:{name}"] = (await asyncio.to_thread(
                    api.predict, PredictRequest(
                        images=matrix.images[0], model=name, mapping=mapping,
                        bits=bits))).logits
                ensemble = await asyncio.to_thread(
                    api.ensemble, EnsembleRequest(
                        images=matrix.images, model=name, mapping=mapping,
                        bits=bits, sigma_fraction=0.15, num_samples=7,
                        seed=21))
                out[f"ensemble_mean:{name}"] = ensemble.mean_logits
                out[f"ensemble_votes:{name}"] = ensemble.vote_counts
                out[f"ensemble_pred:{name}"] = ensemble.predictions
            return out

        results, _ = self._drive(matrix, edge, script)
        local = matrix.clients["local"]
        for name, bits, mapping in MODELS:
            reference = {
                f"predict:{name}": local.predict(PredictRequest(
                    images=matrix.images, model=name, mapping=mapping,
                    bits=bits)).logits,
                f"single:{name}": local.predict(PredictRequest(
                    images=matrix.images[0], model=name, mapping=mapping,
                    bits=bits)).logits,
            }
            ensemble = local.ensemble(EnsembleRequest(
                images=matrix.images, model=name, mapping=mapping, bits=bits,
                sigma_fraction=0.15, num_samples=7, seed=21))
            reference[f"ensemble_mean:{name}"] = ensemble.mean_logits
            reference[f"ensemble_votes:{name}"] = ensemble.vote_counts
            reference[f"ensemble_pred:{name}"] = ensemble.predictions
            for key, expected in reference.items():
                actual = results[key]
                assert np.asarray(actual).dtype == np.asarray(expected).dtype, \
                    f"async:{edge}:{key} dtype drifted"
                np.testing.assert_array_equal(
                    actual, expected,
                    err_msg=f"async:{edge}:{key} is not bit-identical",
                )

    @pytest.mark.parametrize("edge", EDGES)
    def test_concurrent_predicts_over_pooled_connections(self, matrix, edge):
        """``asyncio.gather`` many predicts: same bits, warm sockets."""
        expected = matrix.clients["local"].predict(PredictRequest(
            images=matrix.images, model="alpha", mapping="acm", bits=4)).logits
        request = PredictRequest(images=matrix.images, model="alpha",
                                 mapping="acm", bits=4)

        async def script(client):
            return await asyncio.gather(*(
                asyncio.to_thread(client.predict, request)
                for _ in range(16)
            ))

        batches, stats = self._drive(matrix, edge, script)
        for batch in batches:
            np.testing.assert_array_equal(batch.logits, expected)
        # 16 requests, at most 4 in flight: reuse must have happened.
        assert stats["connections_opened"] <= self.THREADS, (edge, stats)
        assert stats["connections_reused"] >= 12, (edge, stats)

    @pytest.mark.parametrize("edge", EDGES)
    def test_same_typed_errors_as_local(self, matrix, edge):
        requests = (
            PredictRequest(images=matrix.images, model="ghost", mapping="acm"),
            PredictRequest(images=np.zeros((2, 3)), model="alpha",
                           mapping="acm", bits=4),
        )

        async def failure(client, request):
            try:
                await asyncio.to_thread(client.predict, request)
            except ApiError as error:
                return type(error), error.code
            raise AssertionError("expected a typed ApiError")

        async def script(client):
            return await asyncio.gather(*(
                failure(client, request) for request in requests))

        outcomes, _ = self._drive(matrix, edge, script)
        for request, outcome in zip(requests, outcomes):
            expected = _typed_failure(matrix.clients["local"], request,
                                      "predict")
            assert outcome == expected, edge

    @pytest.mark.parametrize("edge", EDGES)
    def test_study_lifecycle_matches_local(self, matrix, edge):
        """Submit, poll, collect — and cancel-after-done is idempotent."""
        from repro.api import study_spec, wait_study

        spec = study_spec(
            images=matrix.images,
            models=[("alpha", "acm", 4)],
            sigmas=(0.0, 0.1),
            num_samples=5,
            seed=13,
            labels=matrix.labels,
        )
        local_client = matrix.clients["local"]
        reference = wait_study(local_client, local_client.submit_study(spec),
                               timeout=300.0)

        async def script(client):
            job_id = await asyncio.to_thread(client.submit_study, spec)
            status = await asyncio.to_thread(client.get_study, job_id)
            while not status.terminal:
                await asyncio.sleep(0.05)
                status = await asyncio.to_thread(client.get_study, job_id)
            cancelled = await asyncio.to_thread(client.cancel_study, job_id)
            return status, cancelled

        (status, cancelled), _ = self._drive(matrix, edge, script)
        assert status.done and status.result is not None
        # Cancelling a finished job is a no-op reporting the terminal state.
        assert cancelled.done and not cancelled.cancelled
        assert len(status.result.cells) == len(reference.cells)
        for cell, expected in zip(status.result.cells, reference.cells):
            np.testing.assert_array_equal(
                cell.mean_logits, expected.mean_logits,
                err_msg=f"async:{edge}: study mean_logits not bit-identical")
            assert cell.accuracy == expected.accuracy
