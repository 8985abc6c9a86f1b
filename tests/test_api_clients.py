"""Client-layer tests: LocalClient, HttpClient, connect, auth, backpressure.

The cluster-backed client is exercised by the backend-equivalence matrix
(``test_api_equivalence.py``); here the focus is the single-process
surfaces and the two new gateway guards (bearer-token auth and queue-depth
backpressure) end to end through the typed clients.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import (
    ApiAuthError,
    ApiBackpressure,
    ApiConnectionError,
    BackendClosed,
    EnsembleRequest,
    HttpClient,
    InvalidRequest,
    LocalClient,
    ModelNotFound,
    PredictRequest,
    connect,
)
from repro.api.codec import FRAME_CONTENT_TYPE
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import (
    InferenceService,
    MicroBatchScheduler,
    PlanRegistry,
    PlanServer,
)

TOKEN = "shared-secret-token"


def _publish(directory):
    registry = PlanRegistry(directory)
    model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                     quantizer_bits=4, seed=0)
    registry.publish_model(model, "mlp", 4, "acm")
    return registry, compile_model(model)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    directory = tmp_path_factory.mktemp("api-plans")
    registry, plan = _publish(directory)
    service = InferenceService(registry, max_batch=16)
    server = PlanServer(service, own_backend=True, auth_token=TOKEN).start()
    images = np.random.default_rng(1).normal(size=(6, 16))
    yield SimpleNamespace(directory=directory, plan=plan, service=service,
                          server=server, images=images)
    server.close()


class TestLocalClient:
    def test_predict_is_bit_equivalent_to_plan(self, env):
        with connect(f"local:{env.directory}?max_batch=8") as client:
            result = client.predict(
                PredictRequest(images=env.images, model="mlp", mapping="acm",
                               bits=4)
            )
            np.testing.assert_array_equal(result.logits, env.plan.run(env.images))
            assert (result.model, result.bits, result.mapping) == ("mlp", 4, "acm")

    def test_single_sample_drops_batch_axis(self, env):
        with connect(f"local:{env.directory}") as client:
            result = client.predict(
                PredictRequest(images=env.images[0], model="mlp",
                               mapping="acm", bits=4)
            )
            assert result.logits.shape == (10,)

    def test_models_health_and_stats(self, env):
        with connect(f"local:{env.directory}") as client:
            listed = client.models()
            assert [info.name for info in listed] == ["mlp__4b__acm"]
            assert listed[0].worker is None
            assert client.health().ok
            client.predict(PredictRequest(images=env.images, model="mlp",
                                          mapping="acm", bits=4))
            stats = client.stats()
            assert stats["mlp__4b__acm"]["queue_depth"] == 0

    def test_typed_errors(self, env):
        with connect(f"local:{env.directory}") as client:
            with pytest.raises(ModelNotFound):
                client.predict(PredictRequest(images=env.images,
                                              model="ghost", mapping="acm"))
            with pytest.raises(InvalidRequest):
                client.predict(PredictRequest(images=np.zeros((2, 3)),
                                              model="mlp", mapping="acm",
                                              bits=4))
        # Leaving the with-block closed the owned backend.
        with pytest.raises(BackendClosed):
            client.predict(PredictRequest(images=env.images, model="mlp",
                                          mapping="acm", bits=4))

    def test_wrapping_shared_service_leaves_it_open(self, env):
        client = LocalClient(env.service, own_backend=False)
        client.predict(PredictRequest(images=env.images, model="mlp",
                                      mapping="acm", bits=4))
        client.close()
        # Still serving: the module-scoped HTTP tests depend on it too.
        env.service.predict_request(PredictRequest(
            env.images, model="mlp", bits=4, mapping="acm",
        ))


class TestConnectTargets:
    def test_query_parameters_configure_the_service(self, tmp_path):
        with connect(f"local:{tmp_path}/plans?max_batch=5"
                     "&max_queue_depth=9") as client:
            service = client.backend
            assert service.max_batch == 5
            assert service.max_queue_depth == 9

    def test_keyword_options_override_query(self, tmp_path):
        with connect(f"local:{tmp_path}/plans?max_batch=5",
                     max_batch=7) as client:
            assert client.backend.max_batch == 7

    @pytest.mark.parametrize("target", [
        "ftp://host:1",
        "local:",
        "plans/",
        "local:plans?bogus=1",
        # Deleted cluster knobs: the cluster waits out respawns itself and
        # always spawns its workers on the default ring.
        "cluster:plans?worker_died_retries=4",
        "cluster:plans?worker_died_backoff=0.02",
        "cluster:plans?worker_died_backoff_cap=0.25",
        "cluster:plans?start_method=fork",
        "cluster:plans?vnodes=32",
        # Deleted transport knob: every array rides the worker pipe.
        "cluster:plans?shm_threshold=0",
        # Deleted http knobs: one blocking client, one response codec.
        "http://h:1?async=true",
        "http://h:1?encoding=list",
    ])
    def test_bad_targets_raise_value_error(self, target):
        with pytest.raises(ValueError):
            connect(target)

    def test_unknown_keyword_option_raises(self, tmp_path):
        with pytest.raises(ValueError):
            connect(f"local:{tmp_path}/plans", bogus=1)
        with pytest.raises(ValueError, match="unknown cluster: option"):
            connect(f"cluster:{tmp_path}/plans", shm_threshold=0)

    @pytest.mark.parametrize("scheme", ["local", "cluster"])
    def test_precision_is_not_a_parameter(self, scheme, tmp_path):
        # Plans execute in float64 only, so no scheme takes a precision.
        with pytest.raises(ValueError, match="parameter 'precision'"):
            connect(f"{scheme}:{tmp_path}/plans?precision=int8")

    @pytest.mark.parametrize("scheme", ["local", "cluster"])
    def test_removed_batching_knobs_are_rejected(self, scheme, tmp_path):
        # The scheduler is work-conserving: it has no coalescing window and
        # no adaptive cap, so neither knob is accepted any more.
        with pytest.raises(ValueError, match="parameter 'max_wait_ms'"):
            connect(f"{scheme}:{tmp_path}/plans?max_wait_ms=2")
        with pytest.raises(ValueError, match="max_batch"):
            connect(f"{scheme}:{tmp_path}/plans?max_batch=auto")
        with pytest.raises(ValueError, match="max_batch"):
            connect(f"{scheme}:{tmp_path}/plans", max_batch="auto")

    @pytest.mark.parametrize("scheme", ["local", "cluster"])
    def test_removed_plan_cache_capacity_is_rejected(self, scheme, tmp_path):
        # The service pins every plan it serves, so a registry cache bound
        # behind it bounded nothing; the knob is gone.
        with pytest.raises(ValueError, match="parameter 'capacity'"):
            connect(f"{scheme}:{tmp_path}/plans?capacity=2")
        with pytest.raises(ValueError, match="capacity"):
            connect(f"{scheme}:{tmp_path}/plans", capacity=2)

    def test_http_target_builds_http_client(self):
        client = connect("http://127.0.0.1:59999", token="t", retries=0)
        assert isinstance(client, HttpClient)
        assert client.token == "t"

    def test_http_query_parameters_configure_the_client(self):
        client = connect(
            "http://127.0.0.1:59999?retries=5&timeout=120&pool_size=3"
        )
        assert isinstance(client, HttpClient)
        assert client.retries == 5
        assert client.timeout == 120.0
        assert client.pool_size == 3
        assert "?" not in client.base_url
        # Keyword options still win over the query string.
        assert connect("http://127.0.0.1:59999?retries=5", retries=1).retries == 1

    def test_unknown_http_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown http"):
            connect("http://127.0.0.1:59999?bogus=1")
        with pytest.raises(ValueError, match="unknown http"):
            connect("http://127.0.0.1:59999", bogus=1)

    def test_cluster_retry_knobs_flow_from_the_target_string(self, tmp_path):
        with connect(
            f"cluster:{tmp_path / 'rk-plans'}?workers=1&auto_restart=true"
            f"&max_restarts=9&restart_backoff=0.03&max_restart_backoff=0.5"
            f"&stability_window=1.5"
        ) as client:
            assert client.backend.auto_restart is True
            assert client.backend.max_restarts == 9
            assert client.backend.restart_backoff == 0.03
            assert client.backend.max_restart_backoff == 0.5
            assert client.backend.stability_window == 1.5
            # (directory, max_batch, max_queue_depth,
            # max_concurrent_ensembles): no transport, thread-pool or
            # plan-cache knob.
            assert client.backend._worker_config[1:] == (64, None, None)

    def test_cluster_ensemble_timeout_default_exceeds_predict_timeout(self):
        from repro.api import ClusterClient

        # No live cluster needed: only the wrapper's defaults are under test.
        client = ClusterClient(cluster=None, own_backend=False)
        assert client.ensemble_timeout >= 120.0
        assert client.timeout <= client.ensemble_timeout


class TestHttpClient:
    def test_predict_bit_equivalent_over_the_wire(self, env):
        with connect(env.server.url, token=TOKEN) as client:
            result = client.predict(PredictRequest(
                images=env.images, model="mlp", mapping="acm", bits=4))
            np.testing.assert_array_equal(result.logits, env.plan.run(env.images))

    def test_ensemble_matches_in_process(self, env):
        request = EnsembleRequest(images=env.images, model="mlp",
                                  mapping="acm", bits=4, sigma_fraction=0.12,
                                  num_samples=5, seed=9)
        with connect(env.server.url, token=TOKEN) as client:
            via_http = client.ensemble(request)
        in_process = env.service.ensemble_request(request)
        np.testing.assert_array_equal(via_http.mean_logits,
                                      in_process.mean_logits)
        np.testing.assert_array_equal(via_http.predictions,
                                      in_process.predictions)

    def test_models_and_stats(self, env):
        with connect(env.server.url, token=TOKEN) as client:
            listed = client.models()
            assert [info.name for info in listed] == ["mlp__4b__acm"]
            assert "mlp__4b__acm" in client.stats()

    def test_typed_errors_over_http(self, env):
        with connect(env.server.url, token=TOKEN) as client:
            with pytest.raises(ModelNotFound):
                client.predict(PredictRequest(images=env.images,
                                              model="ghost", mapping="acm"))
            with pytest.raises(InvalidRequest):
                client.predict(PredictRequest(images=np.zeros((2, 3)),
                                              model="mlp", mapping="acm",
                                              bits=4))

    def test_unreachable_endpoint_raises_connection_error(self):
        client = HttpClient("http://127.0.0.1:1", retries=1,
                            retry_backoff=0.01, timeout=0.5)
        started = time.monotonic()
        with pytest.raises(ApiConnectionError, match="2 attempt"):
            client.models()
        assert time.monotonic() - started < 30

    def test_socket_timeout_maps_to_api_timeout_without_retry(self, env,
                                                              monkeypatch):
        import socket

        from repro.api import ApiTimeout

        client = HttpClient(env.server.url, token=TOKEN, retries=3,
                            retry_backoff=0.01, timeout=0.5)
        attempts = {"count": 0}

        def timing_out(self, method, path, payload):
            attempts["count"] += 1
            raise socket.timeout("read timed out")

        monkeypatch.setattr(HttpClient, "_attempt", timing_out)
        with pytest.raises(ApiTimeout):
            client.predict(PredictRequest(images=env.images, model="mlp",
                                          mapping="acm", bits=4))
        # The server is still computing; a re-send would only multiply load.
        assert attempts["count"] == 1

    def test_transport_failure_is_retried(self, env, monkeypatch):
        client = HttpClient(env.server.url, token=TOKEN, retries=2,
                            retry_backoff=0.01)
        attempts = {"count": 0}
        real_attempt = HttpClient._attempt

        def flaky(self, method, path, payload):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise ConnectionResetError("dropped mid-flight")
            return real_attempt(self, method, path, payload)

        monkeypatch.setattr(HttpClient, "_attempt", flaky)
        assert client.health().ok
        assert attempts["count"] == 2


class TestFrameRequests:
    """``HttpClient`` predicts and ensembles travel as binary frames.

    Their failures must still resolve to the typed errors ``local:``
    raises: the edge answers every error as JSON, whatever the request's
    form.
    """

    def test_predict_and_ensemble_cross_as_frames(self, env, record_edge):
        seen = record_edge(env.server.core)
        request = EnsembleRequest(images=env.images, model="mlp",
                                  mapping="acm", bits=4, num_samples=5)
        with connect(env.server.url, token=TOKEN) as client:
            logits = client.predict(PredictRequest(
                images=env.images, model="mlp", mapping="acm",
                bits=4)).logits
            ensemble = client.ensemble(request)
        assert [(exchange.path, exchange.request_type, exchange.response_type)
                for exchange in seen] == [
            ("/v1/predict", FRAME_CONTENT_TYPE, FRAME_CONTENT_TYPE),
            ("/v1/predict_under_variation", FRAME_CONTENT_TYPE,
             FRAME_CONTENT_TYPE),
        ]
        np.testing.assert_array_equal(logits, env.plan.run(env.images))
        np.testing.assert_array_equal(
            ensemble.vote_counts,
            env.service.ensemble_request(request).vote_counts)

    def test_unknown_model_is_model_not_found_like_local(self, env,
                                                         record_edge):
        seen = record_edge(env.server.core)
        requests = (
            PredictRequest(images=env.images, model="ghost", mapping="acm"),
            EnsembleRequest(images=env.images, model="ghost", mapping="acm",
                            num_samples=3),
        )
        outcomes = set()
        for target, options in ((f"local:{env.directory}", {}),
                                (env.server.url, {"token": TOKEN})):
            with connect(target, **options) as client:
                for request in requests:
                    call = (client.predict
                            if isinstance(request, PredictRequest)
                            else client.ensemble)
                    with pytest.raises(ModelNotFound) as excinfo:
                        call(request)
                    outcomes.add((type(excinfo.value), excinfo.value.code))
        assert len(outcomes) == 1, outcomes
        assert [(exchange.request_type, exchange.response_type,
                 exchange.status) for exchange in seen] == [
            (FRAME_CONTENT_TYPE, "application/json", 404)] * 2

    def test_backpressure_carries_retry_after_like_local(self, tmp_path,
                                                         record_edge):
        registry, _ = _publish(tmp_path / "plans")
        request = PredictRequest(images=np.zeros((1, 16)), model="mlp",
                                 mapping="acm", bits=4)
        errors = []
        with PlanServer(InferenceService(registry,
                                         max_queue_depth=0)) as server:
            seen = record_edge(server.core)
            for target in (f"local:{tmp_path / 'plans'}?max_queue_depth=0",
                           server.url):
                with connect(target) as client:
                    with pytest.raises(ApiBackpressure) as excinfo:
                        client.predict(request)
                    errors.append(excinfo.value)
        assert len({(type(error), error.code) for error in errors}) == 1
        assert all(error.retry_after > 0 for error in errors)
        assert [(exchange.request_type, exchange.status)
                for exchange in seen] == [(FRAME_CONTENT_TYPE, 429)]

    def test_draining_server_answers_503(self, env, record_edge):
        seen = record_edge(env.server.core)
        env.server.core.draining = True
        try:
            with connect(env.server.url, token=TOKEN) as client:
                with pytest.raises(BackendClosed) as excinfo:
                    client.predict(PredictRequest(
                        images=env.images, model="mlp", mapping="acm",
                        bits=4))
                assert excinfo.value.status == 503
                with pytest.raises(BackendClosed):
                    client.ensemble(EnsembleRequest(
                        images=env.images, model="mlp", mapping="acm",
                        bits=4, num_samples=3))
        finally:
            env.server.core.draining = False
        assert [(exchange.request_type, exchange.status)
                for exchange in seen] == [(FRAME_CONTENT_TYPE, 503)] * 2


class TestAuth:
    def test_healthz_is_open_without_token(self, env):
        client = HttpClient(env.server.url)  # no token
        assert client.health().ok

    def test_missing_token_is_401_api_auth_error(self, env):
        client = HttpClient(env.server.url)
        with pytest.raises(ApiAuthError):
            client.models()

    def test_wrong_token_rejected(self, env):
        client = HttpClient(env.server.url, token="wrong-" + TOKEN)
        with pytest.raises(ApiAuthError):
            client.predict(PredictRequest(images=env.images, model="mlp",
                                          mapping="acm", bits=4))

    def test_raw_401_response_shape(self, env):
        connection = http.client.HTTPConnection(*env.server.address, timeout=30)
        try:
            connection.request("GET", "/v1/models")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 401
        assert body["error"]["code"] == "auth_failed"
        assert response.headers["WWW-Authenticate"] == "Bearer"

    def test_cli_accepts_auth_and_backpressure_flags(self):
        import repro.serve.__main__ as cli

        args = cli.build_parser().parse_args(
            ["--plan-dir", "plans", "--auth-token", "s", "--max-queue-depth",
             "32"]
        )
        assert args.auth_token == "s"
        assert args.max_queue_depth == 32


class TestBackpressure:
    def test_scheduler_reports_queue_depth(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_runner(rows):
            entered.set()
            release.wait(timeout=30)
            return rows

        scheduler = MicroBatchScheduler(slow_runner, max_batch=1)
        try:
            assert scheduler.queue_depth == 0
            scheduler.submit(np.zeros((1, 2)))
            entered.wait(timeout=30)
            # The worker is stuck in the runner; later submissions queue up.
            scheduler.submit(np.zeros((1, 2)))
            scheduler.submit(np.zeros((1, 2)))
            assert scheduler.queue_depth >= 2
        finally:
            release.set()
            scheduler.close()

    def test_local_backpressure_is_typed(self, env):
        # Depth limit 0: every deterministic request finds the queue "full".
        with connect(f"local:{env.directory}?max_queue_depth=0") as client:
            with pytest.raises(ApiBackpressure) as excinfo:
                client.predict(PredictRequest(images=env.images, model="mlp",
                                              mapping="acm", bits=4))
            assert excinfo.value.retry_after > 0
            assert client.backend.queue_depth() == 0

    def test_http_backpressure_is_429_with_retry_after(self, tmp_path):
        registry, _ = _publish(tmp_path / "bp-plans")
        service = InferenceService(registry, max_queue_depth=0)
        with PlanServer(service) as server:
            body = {"model": "mlp", "bits": 4, "mapping": "acm",
                    "images": np.zeros((1, 16)).tolist()}
            connection = http.client.HTTPConnection(*server.address,
                                                    timeout=30)
            try:
                connection.request("POST", "/v1/predict",
                                   body=json.dumps(body).encode())
                response = connection.getresponse()
                parsed = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 429
            assert parsed["error"]["code"] == "backpressure"
            assert int(response.headers["Retry-After"]) >= 1
            # And the typed client surfaces it with the parsed hint.
            with connect(server.url) as client:
                with pytest.raises(ApiBackpressure) as excinfo:
                    client.predict(PredictRequest(images=np.zeros((1, 16)),
                                                  model="mlp", mapping="acm",
                                                  bits=4))
                assert excinfo.value.retry_after >= 1

    def test_ensembles_bypass_the_deterministic_queue_guard(self, env):
        with connect(f"local:{env.directory}?max_queue_depth=0") as client:
            result = client.ensemble(EnsembleRequest(
                images=env.images, model="mlp", mapping="acm", bits=4,
                num_samples=3, seed=1))
            assert result.num_samples == 3


class TestEnsembleBackpressure:
    """The ensemble lane's concurrent-request cap (429 through every path)."""

    def _ensemble(self, client, images, num_samples=3):
        return client.ensemble(EnsembleRequest(
            images=images, model="mlp", mapping="acm", bits=4,
            num_samples=num_samples, seed=1))

    def test_cap_zero_rejects_every_ensemble_locally(self, env):
        with connect(
            f"local:{env.directory}?max_concurrent_ensembles=0"
        ) as client:
            with pytest.raises(ApiBackpressure) as excinfo:
                self._ensemble(client, env.images)
            assert excinfo.value.retry_after > 0
            assert excinfo.value.code == "backpressure"
            lane = client.backend.stats_summary()["ensemble_lane"]
            assert lane == {"max_concurrent": 0, "in_flight": 0, "rejected": 1}

    def test_deterministic_requests_bypass_the_ensemble_cap(self, env):
        with connect(
            f"local:{env.directory}?max_concurrent_ensembles=0"
        ) as client:
            logits = client.predict(PredictRequest(
                images=env.images, model="mlp", mapping="acm", bits=4)).logits
            np.testing.assert_array_equal(logits, env.plan.run(env.images))

    def test_full_lane_rejects_and_frees_on_release(self, tmp_path):
        registry, _ = _publish(tmp_path / "lane-plans")
        service = InferenceService(registry, max_concurrent_ensembles=1)
        with LocalClient(service) as client:
            # Occupy the lane's single slot as an in-flight ensemble would.
            from repro.serve import PlanKey

            service._acquire_ensemble_slot(PlanKey("mlp", 4, "acm"))
            with pytest.raises(ApiBackpressure):
                self._ensemble(client, np.zeros((1, 16)))
            service._release_ensemble_slot()
            result = self._ensemble(client, np.zeros((1, 16)))
            assert result.num_samples == 3
            lane = service.stats_summary()["ensemble_lane"]
            assert lane == {"max_concurrent": 1, "in_flight": 0, "rejected": 1}

    def test_saturated_lane_still_validates_requests_first(self, tmp_path):
        # A malformed ensemble reports its real error, not backpressure.
        registry, _ = _publish(tmp_path / "lane-val-plans")
        service = InferenceService(registry, max_concurrent_ensembles=0)
        with LocalClient(service) as client:
            with pytest.raises(ModelNotFound):
                client.ensemble(EnsembleRequest(
                    images=np.zeros((1, 16)), model="ghost", mapping="acm",
                    num_samples=3))
            with pytest.raises(InvalidRequest):
                client.ensemble(EnsembleRequest(
                    images=np.zeros((1, 3)), model="mlp", mapping="acm",
                    bits=4, num_samples=3))

    def test_http_ensemble_backpressure_is_429_with_retry_after(self, tmp_path):
        registry, _ = _publish(tmp_path / "ebp-plans")
        service = InferenceService(registry, max_concurrent_ensembles=0)
        with PlanServer(service) as server:
            body = {"model": "mlp", "bits": 4, "mapping": "acm",
                    "images": np.zeros((1, 16)).tolist(), "num_samples": 3}
            connection = http.client.HTTPConnection(*server.address,
                                                    timeout=30)
            try:
                connection.request("POST", "/v1/predict_under_variation",
                                   body=json.dumps(body).encode())
                response = connection.getresponse()
                parsed = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 429
            assert parsed["error"]["code"] == "backpressure"
            assert int(response.headers["Retry-After"]) >= 1
            with connect(server.url) as client:
                with pytest.raises(ApiBackpressure) as excinfo:
                    self._ensemble(client, np.zeros((1, 16)))
                assert excinfo.value.retry_after >= 1

    def test_invalid_cap_rejected(self, tmp_path):
        registry, _ = _publish(tmp_path / "cap-plans")
        with pytest.raises(ValueError):
            InferenceService(registry, max_concurrent_ensembles=-1)


class TestStudyHelper:
    def test_sweep_result_rows_and_properties(self, env):
        from repro.api import variation_sweep_via_client

        labels = np.zeros(len(env.images), dtype=np.int64)
        with connect(f"local:{env.directory}") as client:
            sweep = variation_sweep_via_client(
                client, env.images, labels, model="mlp", mapping="acm",
                bits=4, sigmas=(0.0, 0.1), num_samples=3, seed=5,
            )
        assert sweep.sigmas == [0.0, 0.1]
        assert len(sweep.accuracies) == 2
        assert all(0.0 <= acc <= 1.0 for acc in sweep.accuracies)
        rows = sweep.as_rows()
        assert len(rows) == 2 and "sigma=" in rows[0]
        # sigma=0 draws are all identical, so every vote is unanimous.
        assert sweep.points[0].stable_fraction == 1.0

    def test_sweep_rejects_mismatched_labels(self, env):
        from repro.api import variation_sweep_via_client

        with connect(f"local:{env.directory}") as client:
            with pytest.raises(ValueError, match="one per image"):
                variation_sweep_via_client(
                    client, env.images, np.zeros(3), model="mlp",
                    mapping="acm", bits=4,
                )


class TestPackageSurface:
    def test_unknown_attribute_raises(self):
        import repro.api

        with pytest.raises(AttributeError, match="no attribute"):
            repro.api.does_not_exist

    def test_lazy_names_cache_after_first_lookup(self):
        import repro.api

        first = repro.api.HttpClient
        assert repro.api.HttpClient is first
        assert "variation_sweep_via_client" in dir(repro.api)
