"""Fault-injection suite: SIGKILL cluster workers under load, lose nothing.

This is the proof of the self-healing story.  A killer thread SIGKILLs
random workers at randomized points — before a request is submitted, while
a micro-batch is mid-execution, and while responses are in flight — under
concurrent mixed predict/ensemble load from multiple threads.  With
``auto_restart`` on, the supervisor respawns dead shards and the cluster
holds each stranded (idempotent) request until a live owner is back, so
the suite asserts:

* **zero lost requests** — every one of the 200+ requests eventually
  succeeds, *bit-identically* to a single-process reference;
* **typed surfacing discipline** — ``WorkerDied`` reaches the caller only
  when a shard's circuit breaker is open (a crash-looping worker), never
  during ordinary self-healing;
* **no residue** — once the supervisor has healed every kill, no worker
  handle holds a request in flight (every pending table is drained).

Determinism: all load mixes and kill schedules derive from the fixed
seeds below.  A failure replays with the exact same request streams and
kill points (modulo OS scheduling) — do not replace the seeds with
entropy.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import (BackendClosed, ClusterClient, EnsembleRequest,
                       HttpClient, PredictRequest, WorkerDied, study_spec)
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import (InferenceService, JobManager, PlanCluster,
                         PlanRegistry, PlanServer)

#: Fixed seeds — the whole suite replays deterministically from these.
CHAOS_SEED = 20260729
LOAD_THREADS = 4
REQUESTS_PER_THREAD = 60          # 240 total, over the 200-request floor
KILLS = 3

#: One model per load thread: requests for one model are then issued
#: strictly sequentially, so each is its own micro-batch and the
#: bit-exactness oracle (the plan run on the request's own geometry) is
#: well-defined even under concurrency.  (BLAS kernels legitimately differ
#: at the last bit between a coalesced gemm and a lone-request gemv, which
#: is why cross-thread coalescing would break a *bitwise* oracle.)
MODELS = ("chaos-a", "chaos-b", "chaos-c", "chaos-d")

pytestmark = pytest.mark.chaos


def _alive_worker_indices(cluster):
    return [w.index for w in list(cluster._workers)
            if not w.dead and w.process.is_alive()]


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def _respawn_waits(cluster):
    families = {f.name: f for f in cluster.metrics.collect()}
    return sum(s.value for s in
               families["repro_cluster_respawn_waits_total"].samples)


@pytest.fixture
def chaos_env(tmp_path):
    directory = tmp_path / "plans"
    registry = PlanRegistry(directory)
    plans = {}
    for seed, name in enumerate(MODELS):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=seed)
        registry.publish_model(model, name, 4, "acm")
        plans[name] = compile_model(model)
    rng = np.random.default_rng(CHAOS_SEED)
    images = rng.normal(size=(32, 16))
    # The bit-exactness oracle: one in-process service over the same
    # artifacts (ensemble sampling is a pure function of the request).
    reference = InferenceService(PlanRegistry(directory), max_batch=16)
    yield SimpleNamespace(directory=directory, plans=plans, images=images,
                          reference=reference)
    reference.close()


class TestChaosMixedLoad:
    """The headline run: kills at random points, nothing lost, bits exact."""

    def test_no_request_lost_under_random_sigkills(self, chaos_env):
        cluster = PlanCluster(
            chaos_env.directory, num_workers=2, handler_threads=4,
            max_batch=16,
            auto_restart=True, max_restarts=50,   # breaker must never open
            restart_backoff=0.02, stability_window=0.5,
        )
        client = ClusterClient(cluster, own_backend=True)
        try:
            cluster.wait_ready(timeout=180)
            results = {}
            failures = []
            stop_killing = threading.Event()
            kills_done = []
            progress = [0]
            progress_lock = threading.Lock()
            # Kills land when the run has completed this many requests —
            # progress-anchored so the schedule is machine-speed
            # independent: requests are guaranteed to be in flight before,
            # during, and after every kill.
            total = LOAD_THREADS * REQUESTS_PER_THREAD
            milestones = (total // 8, total // 2, (7 * total) // 8)

            def load(thread_index):
                rng = np.random.default_rng(CHAOS_SEED + 1 + thread_index)
                name = MODELS[thread_index]
                for j in range(REQUESTS_PER_THREAD):
                    start = int(rng.integers(0, 24))
                    rows = int(rng.integers(1, 9))
                    batch = chaos_env.images[start:start + rows]
                    try:
                        if rng.random() < 0.25:
                            seed = int(rng.integers(0, 32))
                            out = client.ensemble(EnsembleRequest(
                                images=batch, model=name, mapping="acm",
                                bits=4, sigma_fraction=0.1, num_samples=5,
                                seed=seed))
                            results[(thread_index, j)] = (
                                "ensemble", name, start, rows, seed,
                                out.mean_logits, out.predictions,
                                out.vote_counts,
                            )
                        else:
                            out = client.predict(PredictRequest(
                                images=batch, model=name, mapping="acm",
                                bits=4))
                            results[(thread_index, j)] = (
                                "predict", name, start, rows, None,
                                out.logits,
                            )
                    except Exception as error:  # noqa: BLE001 - recorded
                        failures.append(((thread_index, j), error))
                    finally:
                        with progress_lock:
                            progress[0] += 1

            def killer():
                rng = np.random.default_rng(CHAOS_SEED)
                for milestone in milestones[:KILLS]:
                    while not stop_killing.is_set():
                        with progress_lock:
                            reached = progress[0] >= milestone
                        if reached:
                            break
                        time.sleep(0.005)
                    if stop_killing.is_set():
                        return
                    # A small seeded jitter varies the exact kill point
                    # (pre-submit / mid-batch / mid-response) across the
                    # concurrent request streams.
                    time.sleep(float(rng.uniform(0.0, 0.03)))
                    alive = _alive_worker_indices(cluster)
                    if not alive:
                        continue
                    index = alive[int(rng.integers(len(alive)))]
                    worker = cluster._workers[index]
                    worker.process.kill()
                    kills_done.append(index)

            threads = [threading.Thread(target=load, args=(i,))
                       for i in range(LOAD_THREADS)]
            killer_thread = threading.Thread(target=killer)
            for thread in threads:
                thread.start()
            killer_thread.start()
            for thread in threads:
                thread.join(timeout=600)
                assert not thread.is_alive(), "load thread hung"
            stop_killing.set()
            killer_thread.join(timeout=60)

            # Discipline: with the breaker closed throughout, WorkerDied
            # (or anything else) must never have reached a caller.
            assert failures == [], (
                f"{len(failures)} of {LOAD_THREADS * REQUESTS_PER_THREAD} "
                f"requests failed; first: {failures[0]!r}"
            )
            assert len(results) == LOAD_THREADS * REQUESTS_PER_THREAD
            assert cluster.open_breakers == []
            assert kills_done, "the killer never fired; the run proved nothing"

            # Bit-exactness of every single response against the
            # single-process reference.
            for key, record in results.items():
                kind, name, start, rows, seed = record[:5]
                batch = chaos_env.images[start:start + rows]
                if kind == "predict":
                    np.testing.assert_array_equal(
                        record[5], chaos_env.plans[name].run(batch),
                        err_msg=f"request {key} not bit-identical",
                    )
                else:
                    reference = chaos_env.reference
                    expected = reference.ensemble_request(EnsembleRequest(
                        batch, model=name, bits=4, mapping="acm",
                        sigma_fraction=0.1, num_samples=5, seed=seed,
                    ))
                    np.testing.assert_array_equal(record[5],
                                                  expected.mean_logits)
                    np.testing.assert_array_equal(record[6],
                                                  expected.predictions)
                    np.testing.assert_array_equal(record[7],
                                                  expected.vote_counts)

            # Every kill produces exactly one supervised respawn — the last
            # kill may land as the load drains, so healing is awaited, not
            # assumed instantaneous.
            def _total_restarts():
                summary = cluster.stats_summary()
                return sum(summary[f"worker-{i}"]["supervisor"]["restarts"]
                           for i in range(cluster.num_workers))

            _wait_for(
                lambda: not cluster.dead_workers
                and _total_restarts() == len(kills_done),
                timeout=60,
                what="the supervisor to finish healing every kill",
            )
            assert all(entry["load"] == 0
                       for entry in cluster.describe_workers())
        finally:
            client.close()


class TestRingReplication:
    """The ring leg: with R=2, a SIGKILL'd replica is *invisible*.

    Stronger than the headline run's "zero lost requests": replica
    failover alone must absorb the death — no request may wait for the
    supervisor's respawn (``repro_cluster_respawn_waits_total`` stays 0),
    and any ``WorkerDied`` reaching the client (which the HTTP edge would
    turn into a 503) fails the test.  Zero 503s, bit-identical responses,
    zero requests left pending.
    """

    def _run_mixed_load(self, chaos_env, client, disruption):
        """Drive the standard 4-thread mixed load; fire ``disruption(progress)``
        from a side thread; return (results, failures)."""
        results = {}
        failures = []
        progress = [0]
        progress_lock = threading.Lock()

        def load(thread_index):
            rng = np.random.default_rng(CHAOS_SEED + 1 + thread_index)
            name = MODELS[thread_index]
            for j in range(REQUESTS_PER_THREAD):
                start = int(rng.integers(0, 24))
                rows = int(rng.integers(1, 9))
                batch = chaos_env.images[start:start + rows]
                try:
                    if rng.random() < 0.25:
                        seed = int(rng.integers(0, 32))
                        out = client.ensemble(EnsembleRequest(
                            images=batch, model=name, mapping="acm",
                            bits=4, sigma_fraction=0.1, num_samples=5,
                            seed=seed))
                        results[(thread_index, j)] = (
                            "ensemble", name, start, rows, seed,
                            out.mean_logits, out.predictions,
                            out.vote_counts,
                        )
                    else:
                        out = client.predict(PredictRequest(
                            images=batch, model=name, mapping="acm",
                            bits=4))
                        results[(thread_index, j)] = (
                            "predict", name, start, rows, None, out.logits,
                        )
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(((thread_index, j), error))
                finally:
                    with progress_lock:
                        progress[0] += 1

        def read_progress():
            with progress_lock:
                return progress[0]

        threads = [threading.Thread(target=load, args=(i,))
                   for i in range(LOAD_THREADS)]
        disruptor = threading.Thread(target=disruption,
                                     args=(read_progress,))
        for thread in threads:
            thread.start()
        disruptor.start()
        for thread in threads:
            thread.join(timeout=600)
            assert not thread.is_alive(), "load thread hung"
        disruptor.join(timeout=120)
        assert not disruptor.is_alive(), "disruption thread hung"
        return results, failures

    def _assert_bit_exact(self, chaos_env, results):
        for key, record in results.items():
            kind, name, start, rows, seed = record[:5]
            batch = chaos_env.images[start:start + rows]
            if kind == "predict":
                np.testing.assert_array_equal(
                    record[5], chaos_env.plans[name].run(batch),
                    err_msg=f"request {key} not bit-identical",
                )
            else:
                expected = chaos_env.reference.ensemble_request(EnsembleRequest(
                    batch, model=name, bits=4, mapping="acm",
                    sigma_fraction=0.1, num_samples=5, seed=seed,
                ))
                np.testing.assert_array_equal(record[5],
                                              expected.mean_logits)
                np.testing.assert_array_equal(record[6],
                                              expected.predictions)
                np.testing.assert_array_equal(record[7],
                                              expected.vote_counts)

    def test_zero_503s_while_one_replica_is_sigkilled(self, chaos_env):
        cluster = PlanCluster(
            chaos_env.directory, num_workers=2, replicas=2,
            handler_threads=4, max_batch=16,
            auto_restart=True, max_restarts=50,
            restart_backoff=0.05, stability_window=0.5,
        )
        client = ClusterClient(cluster, own_backend=True)
        kills_done = []
        try:
            cluster.wait_ready(timeout=180)
            total = LOAD_THREADS * REQUESTS_PER_THREAD
            rng = np.random.default_rng(CHAOS_SEED)
            victim = int(rng.integers(2))

            def kill_one_replica(read_progress):
                while read_progress() < total // 3:
                    time.sleep(0.005)
                time.sleep(float(rng.uniform(0.0, 0.03)))
                cluster._workers[victim].process.kill()
                kills_done.append(victim)

            results, failures = self._run_mixed_load(
                chaos_env, client, kill_one_replica
            )
            assert kills_done, "the killer never fired"
            # THE claim: no request failed — failover inside the ring
            # absorbed the dead replica.
            assert failures == [], (
                f"{len(failures)} request(s) surfaced an error (would be "
                f"503s at the HTTP edge); first: {failures[0]!r}"
            )
            assert len(results) == total
            self._assert_bit_exact(chaos_env, results)
            _wait_for(
                lambda: not cluster.dead_workers,
                timeout=60, what="the supervisor to respawn the victim",
            )
            assert all(entry["load"] == 0
                       for entry in cluster.describe_workers())
            # The failover counter recorded the routed-around death.
            families = {f.name: f for f in cluster.metrics.collect()}
            failovers = sum(
                s.value
                for s in families["repro_ring_failover_total"].samples
            )
            assert failovers >= 1
            # ...and no request had to wait for the respawn: the survivor
            # stayed live for every key throughout.
            assert _respawn_waits(cluster) == 0
        finally:
            client.close()

    def test_rolling_restart_under_load_is_zero_downtime(self, chaos_env):
        cluster = PlanCluster(
            chaos_env.directory, num_workers=2, replicas=2,
            handler_threads=4, max_batch=16,
        )
        client = ClusterClient(cluster, own_backend=True)
        restarted = []
        try:
            cluster.wait_ready(timeout=180)
            total = LOAD_THREADS * REQUESTS_PER_THREAD

            def rolling_restart(read_progress):
                # One worker at a time, anchored to load progress so
                # requests are guaranteed in flight around each restart.
                for index, milestone in enumerate((total // 4,
                                                   total // 2)):
                    while read_progress() < milestone:
                        time.sleep(0.005)
                    cluster.restart_worker(index)
                    restarted.append(index)

            results, failures = self._run_mixed_load(
                chaos_env, client, rolling_restart
            )
            assert restarted == [0, 1], "the rolling restart never ran"
            assert failures == [], (
                f"rolling restart surfaced {len(failures)} error(s); "
                f"first: {failures[0]!r}"
            )
            assert len(results) == total
            self._assert_bit_exact(chaos_env, results)
            assert cluster.dead_workers == []
            summary = cluster.stats_summary()
            for i in range(cluster.num_workers):
                supervisor = summary[f"worker-{i}"]["supervisor"]
                assert supervisor["restarts"] == 1
        finally:
            client.close()


class TestRespawnWait:
    """With no live owner, the cluster itself holds a request for the
    respawn — so every front end rides out a worker death, not only
    ``ClusterClient`` — and the wait ends at the request's timeout or on
    ``close()``."""

    def test_http_predict_waits_out_the_respawn(self, chaos_env):
        cluster = PlanCluster(
            chaos_env.directory, num_workers=1, replicas=1,
            handler_threads=2, auto_restart=True, restart_backoff=1.0,
        )
        server = PlanServer(cluster, own_backend=True).start()
        name = MODELS[0]
        batch = chaos_env.images[:4]
        request = PredictRequest(images=batch, model=name, mapping="acm",
                                 bits=4)
        try:
            cluster.wait_ready(timeout=180)
            with HttpClient(server.url) as client:
                client.predict(request)  # the pool now holds a connection
                worker = cluster._workers[0]
                worker.process.kill()
                _wait_for(lambda: cluster.dead_workers == [0], 30,
                          "worker marked dead")
                # The respawn is ~1 s away: the edge must hold the request
                # for it instead of answering 503 worker_died.
                logits = client.predict(request).logits
                np.testing.assert_array_equal(
                    logits, chaos_env.plans[name].run(batch))
                assert client.client_stats()["connections_opened"] == 1
            assert _respawn_waits(cluster) == 1
            assert cluster.stats_summary()["worker-0"]["supervisor"][
                "restarts"] == 1
        finally:
            server.close()

    @pytest.fixture
    def stalled_cluster(self, chaos_env):
        """A dead one-worker cluster whose respawn is a minute away."""
        cluster = PlanCluster(
            chaos_env.directory, num_workers=1, handler_threads=2,
            auto_restart=True, restart_backoff=60.0,
            max_restart_backoff=60.0,
        )
        cluster.wait_ready(timeout=180)
        cluster._workers[0].process.kill()
        _wait_for(lambda: cluster.dead_workers == [0], 30,
                  "worker marked dead")
        yield cluster
        cluster.close()

    def test_wait_is_bounded_by_the_request_timeout(self, stalled_cluster,
                                                    chaos_env):
        start = time.monotonic()
        with pytest.raises(WorkerDied) as excinfo:
            stalled_cluster.predict_request(
                PredictRequest(images=chaos_env.images[:2], model=MODELS[0],
                               mapping="acm", bits=4),
                timeout=0.3)
        elapsed = time.monotonic() - start
        assert excinfo.value.breaker_open is False
        assert 0.3 <= elapsed < 5.0
        assert _respawn_waits(stalled_cluster) == 1

    def test_close_wakes_waiters_with_backend_closed(self, stalled_cluster,
                                                     chaos_env):
        outcome = []

        def issue():
            try:
                stalled_cluster.predict_request(PredictRequest(
                    images=chaos_env.images[:2], model=MODELS[0],
                    mapping="acm", bits=4))
            except Exception as error:  # noqa: BLE001 - recorded
                outcome.append((error, time.monotonic()))

        thread = threading.Thread(target=issue)
        thread.start()
        _wait_for(lambda: _respawn_waits(stalled_cluster) == 1, 30,
                  "the request to start waiting")
        closed_at = time.monotonic()
        stalled_cluster.close()
        thread.join(timeout=30)
        assert not thread.is_alive(), "close() left the waiter hanging"
        error, failed_at = outcome[0]
        assert isinstance(error, BackendClosed)
        assert failed_at - closed_at < 5.0


class TestKillPoints:
    """Targeted kill points: pre-submit, mid-batch, and mid-response."""

    @pytest.fixture
    def healing_cluster(self, chaos_env):
        cluster = PlanCluster(
            chaos_env.directory, num_workers=2, handler_threads=2,
            auto_restart=True, max_restarts=20, restart_backoff=0.02,
            stability_window=0.5,
        )
        client = ClusterClient(cluster, own_backend=True)
        cluster.wait_ready(timeout=180)
        yield SimpleNamespace(cluster=cluster, client=client, **vars(chaos_env))
        client.close()

    def test_kill_before_submit_then_request_succeeds(self, healing_cluster):
        name = MODELS[0]
        shard = healing_cluster.cluster.worker_for(name, 4, "acm")
        healing_cluster.cluster._workers[shard].process.kill()
        batch = healing_cluster.images[:4]
        logits = healing_cluster.client.predict(PredictRequest(
            images=batch, model=name, mapping="acm", bits=4)).logits
        np.testing.assert_array_equal(logits,
                                      healing_cluster.plans[name].run(batch))

    def test_kill_mid_request_then_retry_succeeds(self, healing_cluster):
        name = MODELS[1]
        shard = healing_cluster.cluster.worker_for(name, 4, "acm")
        batch = healing_cluster.images[:8]
        done = []

        def issue():
            out = healing_cluster.client.ensemble(EnsembleRequest(
                images=batch, model=name, mapping="acm", bits=4,
                sigma_fraction=0.1, num_samples=25, seed=3))
            done.append(out)

        thread = threading.Thread(target=issue)
        thread.start()
        time.sleep(0.05)  # let the request reach the worker
        healing_cluster.cluster._workers[shard].process.kill()
        thread.join(timeout=300)
        assert not thread.is_alive() and len(done) == 1
        expected = healing_cluster.reference.ensemble_request(EnsembleRequest(
            batch, model=name, bits=4, mapping="acm", sigma_fraction=0.1,
            num_samples=25, seed=3,
        ))
        np.testing.assert_array_equal(done[0].mean_logits,
                                      expected.mean_logits)
        np.testing.assert_array_equal(done[0].predictions,
                                      expected.predictions)


class TestCircuitBreaker:
    """A crash-looping shard opens its breaker instead of retrying forever."""

    def test_crash_loop_opens_breaker_and_manual_restart_closes_it(
        self, chaos_env
    ):
        max_restarts = 2
        cluster = PlanCluster(
            chaos_env.directory, num_workers=1, handler_threads=2,
            auto_restart=True, max_restarts=max_restarts,
            restart_backoff=0.01, max_restart_backoff=0.05,
            stability_window=60.0,  # a streak never resets mid-test
        )
        client = ClusterClient(cluster, own_backend=True)
        name = MODELS[0]
        batch = chaos_env.images[:2]
        try:
            cluster.wait_ready(timeout=180)
            # Kill every incarnation the moment it appears.
            killed_pids = set()
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if cluster.open_breakers == [0]:
                    break
                worker = cluster._workers[0]
                pid = worker.process.pid
                if pid not in killed_pids and worker.process.is_alive():
                    worker.process.kill()
                    killed_pids.add(pid)
                time.sleep(0.01)
            assert cluster.open_breakers == [0], \
                "breaker never opened under a sustained crash loop"
            # The supervisor spent its budget, then stopped respawning.
            supervisor = cluster.stats_summary()["worker-0"]["supervisor"]
            assert supervisor["breaker_open"] is True
            assert supervisor["restarts"] == max_restarts
            assert supervisor["consecutive_crashes"] == max_restarts

            # Only now may WorkerDied surface — immediately, breaker-marked,
            # without burning the retry budget.
            start = time.monotonic()
            with pytest.raises(WorkerDied) as excinfo:
                client.predict(PredictRequest(images=batch, model=name,
                                              mapping="acm", bits=4))
            assert excinfo.value.breaker_open is True
            assert excinfo.value.worker_index == 0
            assert excinfo.value.code == "worker_died"
            assert time.monotonic() - start < 5.0, \
                "an open breaker must fail fast, not retry"

            # Manual re-admission: restart_worker resets the breaker and
            # the shard serves bit-exact results again.
            cluster.restart_worker(0)
            assert cluster.open_breakers == []
            logits = client.predict(PredictRequest(
                images=batch, model=name, mapping="acm", bits=4)).logits
            np.testing.assert_array_equal(logits,
                                          chaos_env.plans[name].run(batch))
            supervisor = cluster.stats_summary()["worker-0"]["supervisor"]
            assert supervisor["breaker_open"] is False
            assert supervisor["consecutive_crashes"] == 0
        finally:
            client.close()

    def test_supervisor_survives_a_failed_respawn(self, chaos_env):
        # Spawn failure (fd/process exhaustion) during a respawn must not
        # kill the supervisor: the attempt is retried with backoff and the
        # shard still heals.
        cluster = PlanCluster(
            chaos_env.directory, num_workers=1, handler_threads=2,
            auto_restart=True, max_restarts=10, restart_backoff=0.01,
            max_restart_backoff=0.05, stability_window=0.5,
        )
        client = ClusterClient(cluster, own_backend=True)
        try:
            cluster.wait_ready(timeout=180)
            original = cluster._spawn_worker
            spawn_calls = []

            def flaky_spawn(index, incarnation):
                spawn_calls.append(incarnation)
                if len(spawn_calls) == 1:
                    raise OSError("simulated resource exhaustion")
                return original(index, incarnation)

            cluster._spawn_worker = flaky_spawn
            cluster._workers[0].process.kill()
            batch = chaos_env.images[:2]
            logits = client.predict(PredictRequest(
                images=batch, model=MODELS[0], mapping="acm", bits=4)).logits
            np.testing.assert_array_equal(
                logits, chaos_env.plans[MODELS[0]].run(batch))
            assert len(spawn_calls) >= 2, "the failed spawn was not retried"
            supervisor = cluster.stats_summary()["worker-0"]["supervisor"]
            # Only the successful attempt counts as a restart.
            assert supervisor["restarts"] == 1
            assert supervisor["breaker_open"] is False
        finally:
            client.close()

    def test_without_auto_restart_worker_died_surfaces_unretried(
        self, chaos_env
    ):
        # The pre-existing manual mode is unchanged: no supervisor, no
        # client retry loop — the typed error surfaces at once.
        cluster = PlanCluster(chaos_env.directory, num_workers=1,
                              handler_threads=2)
        client = ClusterClient(cluster, own_backend=True)
        try:
            cluster.wait_ready(timeout=180)
            worker = cluster._workers[0]
            worker.process.kill()
            worker.process.join(timeout=60)
            _wait_for(lambda: cluster.dead_workers == [0], 30,
                      "worker marked dead")
            start = time.monotonic()
            with pytest.raises(WorkerDied) as excinfo:
                client.predict(PredictRequest(images=chaos_env.images[:2],
                                              model=MODELS[0], mapping="acm",
                                              bits=4))
            assert excinfo.value.breaker_open is False
            assert time.monotonic() - start < 5.0
        finally:
            client.close()


class TestStudyChaos:
    """The experiment-as-a-service leg: a study survives every death mode.

    One run exercises both failure domains of the job subsystem at once:
    a SIGKILL'd replica mid-study (the cluster fails over and heals —
    never a lost cell) *and* a manager death mid-study (the successor
    re-indexes the checkpoint directory and re-enqueues only the missing
    cells).  The resumed :class:`StudyResult` must be bit-identical to an
    uninterrupted single-process run of the same spec.
    """

    def test_study_survives_replica_sigkill_and_manager_restart(
        self, chaos_env, tmp_path
    ):
        rng = np.random.default_rng(CHAOS_SEED + 99)
        images = chaos_env.images[:8]
        spec = study_spec(
            images=images,
            models=[(name, "acm", 4) for name in MODELS],
            sigmas=(0.0, 0.1, 0.2),
            num_samples=6,
            seed=11,
            labels=rng.integers(0, 10, size=images.shape[0]),
        )
        # The uninterrupted oracle: the same spec through a JobManager over
        # the single-process reference service (cells are pure functions of
        # the seeded request, so backend and interruptions must not matter).
        oracle_manager = JobManager(chaos_env.reference)
        oracle = oracle_manager.wait(
            oracle_manager.submit(spec), timeout=300
        ).result
        oracle_manager.close()

        cluster = PlanCluster(
            chaos_env.directory, num_workers=2, handler_threads=4,
            max_batch=16,
            auto_restart=True, max_restarts=50,
            restart_backoff=0.02, stability_window=0.5,
        )
        client = ClusterClient(cluster, own_backend=True)
        jobs_dir = tmp_path / "jobs"
        try:
            cluster.wait_ready(timeout=180)
            manager = JobManager(client, checkpoint_dir=jobs_dir,
                                 max_workers=2, retry_backoff=0.02)
            job_id = manager.submit(spec)
            # Mid-study — some cells checkpointed, more in flight — SIGKILL
            # one of the R=2 replicas.  Every model stays served by the
            # survivor, so the study keeps progressing while the
            # supervisor respawns the corpse.
            _wait_for(lambda: manager.status(job_id).cells_done >= 2,
                      timeout=240, what="mid-study progress before the kill")
            alive = _alive_worker_indices(cluster)
            assert alive, "no live worker to kill"
            cluster._workers[alive[0]].process.kill()
            # Then kill the *manager* too (drain its pool and drop it) —
            # the worst case: both the executor and a replica died.
            _wait_for(lambda: manager.status(job_id).cells_done >= 4,
                      timeout=240, what="more progress after the kill")
            manager.close()

            successor = JobManager(client, checkpoint_dir=jobs_dir,
                                   max_workers=2, retry_backoff=0.02)
            successor.resume()
            status = successor.wait(job_id, timeout=300)
            counts = successor.execution_counts(job_id)
            successor.close()
        finally:
            client.close()

        assert status.state == "done"
        assert status.cells_done == status.cells_total == spec.cell_count
        # Zero lost cells, zero double-executions: every cell was either
        # restored verbatim from the checkpoint or executed exactly once by
        # the successor.
        assert counts["resumed"] + counts["executed"] == spec.cell_count
        assert counts["resumed"] >= 4  # the pre-close checkpoint survived
        # The headline property: interrupted-and-resumed == uninterrupted,
        # to the last bit, accuracy scoring included.
        result = status.result
        assert result is not None and len(result.cells) == len(oracle.cells)
        for resumed_cell, oracle_cell in zip(result.cells, oracle.cells):
            assert (resumed_cell.model, resumed_cell.bits,
                    resumed_cell.mapping, resumed_cell.sigma_fraction) == (
                oracle_cell.model, oracle_cell.bits,
                oracle_cell.mapping, oracle_cell.sigma_fraction)
            np.testing.assert_array_equal(resumed_cell.mean_logits,
                                          oracle_cell.mean_logits)
            np.testing.assert_array_equal(resumed_cell.predictions,
                                          oracle_cell.predictions)
            np.testing.assert_array_equal(resumed_cell.confidence,
                                          oracle_cell.confidence)
            assert resumed_cell.accuracy == oracle_cell.accuracy
