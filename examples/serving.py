"""One client script, three backends: serving through ``repro.api``.

The walkthrough publishes two trained crossbar-mapped plans into a
registry directory, then runs the *same* typed client script — catalogue
listing, concurrent deterministic predictions, a seeded variation
ensemble, and a Fig. 6-style sigma sweep — against all three backends of
the unified client layer:

1. ``local:DIR``   — in-process :class:`~repro.serve.InferenceService`
   (micro-batching schedulers included);
2. ``http://...``  — a live :class:`~repro.serve.PlanServer` endpoint,
   here with bearer-token auth enabled (the client sends
   ``Authorization: Bearer ...``; a tokenless client gets a typed 401);
3. ``cluster:DIR?workers=N`` — a sharded multi-process
   :class:`~repro.serve.PlanCluster`.

The script only ever touches :func:`repro.api.connect`, the typed
request/response dataclasses, and the :class:`~repro.api.client.Client`
protocol — the backend is one connect-target string.  At the end the
per-backend float64 results are compared and must be **bit-identical**,
which is the unified layer's core guarantee (and what the
backend-equivalence test matrix enforces in CI).

The standalone deployment equivalent is the CLI::

    python -m repro.serve --plan-dir DIR --port 8100 \\
        [--workers N] [--auth-token SECRET] [--max-queue-depth 64]

Run with:  python examples/serving.py [--plan-dir DIR] [--sigma 0.15]
                                      [--workers 2] [--epochs 2]
"""

from __future__ import annotations

import argparse
import contextlib
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import (
    ApiAuthError,
    EnsembleRequest,
    PredictRequest,
    connect,
    variation_sweep_via_client,
)
from repro.data.synthetic import synthetic_mnist
from repro.models import make_lenet, make_mlp
from repro.serve import InferenceService, PlanRegistry, PlanServer
from repro.train.evaluate import evaluate_accuracy
from repro.train.trainer import Trainer, TrainingConfig

AUTH_TOKEN = "example-shared-secret"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan-dir", default=None,
                        help="directory for plan artifacts (default: a temp dir "
                             "removed on exit)")
    parser.add_argument("--sigma", type=float, default=0.15,
                        help="device-variation sigma for the ensemble requests")
    parser.add_argument("--epochs", type=int, default=2,
                        help="training epochs per published model")
    parser.add_argument("--workers", type=int, default=2,
                        help="cluster worker processes for the cluster: "
                             "backend (0 skips the cluster demo)")
    return parser.parse_args()


def publish_models(registry: PlanRegistry, epochs: int):
    """Train two mapped models and publish their frozen plans."""
    train_set, test_set = synthetic_mnist(samples_per_class=30)
    config = TrainingConfig(epochs=epochs, batch_size=32, lr=0.05,
                            activation_bits=8, seed=1)
    for name, model in (
        ("lenet", make_lenet(mapping="acm", quantizer_bits=4, seed=1)),
        ("mlp", make_mlp(mapping="acm", quantizer_bits=4, seed=1)),
    ):
        Trainer(model, train_set, test_set, config).fit()
        entry = registry.publish_model(model, name, 4, "acm")
        accuracy = evaluate_accuracy(model, test_set, use_runtime=True)
        print(f"published {entry.path.name}  digest={entry.digest()[:12]}  "
              f"test accuracy={accuracy:.1%}")
    return test_set


def run_client_script(client, test_set, sigma: float) -> dict:
    """The one script every backend serves; returns its float64 results."""
    # 1. Catalogue: every backend lists the same digests.
    for info in client.models():
        shard = f"  worker {info.worker}" if info.worker is not None else ""
        print(f"    {info.name:24s} digest={info.digest[:12]}{shard}")

    # 2. Concurrent deterministic traffic (micro-batched server-side).
    images = test_set.images[:32]
    with ThreadPoolExecutor(max_workers=8) as pool:
        logits = np.stack(list(pool.map(
            lambda i: client.predict(PredictRequest(
                images=images[i], model="lenet", mapping="acm", bits=4,
            )).logits,
            range(len(images)),
        )))
    print(f"    predict: 32 concurrent single-image requests -> "
          f"predictions {logits.argmax(axis=-1)[:10].tolist()}...")

    # 3. One pre-batched request: a fixed execution geometry, so the
    # logits must be *bit-identical* on every backend.
    batch_logits = client.predict(PredictRequest(
        images=images, model="lenet", mapping="acm", bits=4,
    )).logits

    # 4. A seeded variation ensemble (the Fig. 6 protocol as one request).
    ensemble = client.ensemble(EnsembleRequest(
        images=test_set.images[:8], model="mlp", mapping="acm", bits=4,
        sigma_fraction=sigma, num_samples=25, seed=42,
    ))
    stable = int((np.asarray(ensemble.confidence) == 1.0).sum())
    print(f"    ensemble @ sigma={sigma:.0%}: predictions "
          f"{np.asarray(ensemble.predictions).tolist()} "
          f"({stable}/8 stable under variation)")

    # 5. The sigma sweep, through the same facade.
    sweep = variation_sweep_via_client(
        client, test_set.images[:16], test_set.labels[:16],
        model="lenet", mapping="acm", bits=4,
        sigmas=(0.0, sigma), num_samples=15, seed=7,
    )
    for row in sweep.as_rows():
        print(f"    {row}")

    return {
        "batch_logits": np.asarray(batch_logits),
        "ensemble_mean": np.asarray(ensemble.mean_logits),
        "sweep_accuracy": np.asarray(sweep.accuracies),
        "concurrent_logits": logits,
    }


def main() -> None:
    args = parse_args()
    with contextlib.ExitStack() as stack:
        plan_dir = args.plan_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-plans-")
        )
        run_backends(args, plan_dir)
    # Only a persistent plan directory outlives this script.
    if args.plan_dir:
        print(f"\ndeploy standalone with: python -m repro.serve "
              f"--plan-dir {args.plan_dir} --port 8100 --workers 2 "
              f"--auth-token SECRET --max-queue-depth 64")


def run_backends(args: argparse.Namespace, plan_dir: str) -> None:
    """Publish the models into ``plan_dir`` and drive every backend."""
    print(f"plan directory: {plan_dir}")

    registry = PlanRegistry(plan_dir)
    test_set = publish_models(registry, epochs=args.epochs)
    results = {}

    # Backend 1: in-process.
    target = f"local:{plan_dir}?max_batch=32"
    print(f"\n[local] connect({target!r})")
    with connect(target) as client:
        results["local"] = run_client_script(client, test_set, args.sigma)

    # Backend 2: a live HTTP endpoint with bearer-token auth.
    service = InferenceService(registry, max_batch=32)
    with PlanServer(service, own_backend=True,
                    auth_token=AUTH_TOKEN) as server:
        print(f"\n[http] connect({server.url!r}, token=...)")
        try:
            connect(server.url).models()
        except ApiAuthError as error:
            print(f"    without token: typed {type(error).__name__} "
                  f"(code={error.code}) — as it should be")
        with connect(server.url, token=AUTH_TOKEN) as client:
            results["http"] = run_client_script(client, test_set, args.sigma)

    # Backend 3: a sharded multi-process cluster.
    if args.workers > 0:
        target = f"cluster:{plan_dir}?workers={args.workers}"
        print(f"\n[cluster] connect({target!r})")
        with connect(target) as client:
            client.backend.wait_ready()
            results["cluster"] = run_client_script(client, test_set, args.sigma)

    print("\nbackend equivalence (same script through every backend):")
    reference = results["local"]
    for backend, result in results.items():
        if backend == "local":
            continue
        # Fixed-geometry requests (one batch, seeded ensembles, the sweep)
        # are bit-identical.  The *concurrent* single-image traffic
        # coalesces into backend-specific micro-batch geometries, where
        # BLAS blocking may differ in the last bits — 1e-10 is the serving
        # equivalence bar (same as the test suite's).
        exact = all(
            np.array_equal(result[key], reference[key])
            for key in ("batch_logits", "ensemble_mean", "sweep_accuracy")
        )
        coalesced = bool(np.allclose(
            result["concurrent_logits"], reference["concurrent_logits"],
            atol=1e-10, rtol=0,
        ))
        print(f"  local == {backend}: bit-identical={exact}  "
              f"coalesced traffic within 1e-10: {coalesced}")


if __name__ == "__main__":
    main()
