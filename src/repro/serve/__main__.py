"""``python -m repro.serve`` — serve a plan directory over HTTP.

Builds its backend through the unified client layer
(:func:`repro.api.connect`): ``--workers 0`` (the default) serves the
``local:`` backend in-process, ``--workers N`` the sharded ``cluster:``
backend, and the HTTP front-end (:mod:`repro.serve.http`) exposes either
one to the network.  Remote consumers then connect with the same facade::

    client = repro.api.connect("http://host:8100", token=...)

Examples::

    # Single-process serving of every plan in ./plans on port 8100:
    python -m repro.serve --plan-dir ./plans --port 8100

    # Four serving workers behind the same endpoint (consistent-hash ring,
    # every model served by two replicas):
    python -m repro.serve --plan-dir ./plans --port 8100 --workers 4

    # Edge-hardened: bearer-token auth + 429 backpressure past depth 64:
    python -m repro.serve --plan-dir ./plans --auth-token SECRET \\
        --max-queue-depth 64 --max-concurrent-ensembles 8

    # Production posture: self-healing workers (supervised respawn with a
    # crash-loop circuit breaker):
    python -m repro.serve --plan-dir ./plans --workers 4 --auto-restart

The process serves until interrupted (Ctrl-C), then shuts down
gracefully: in-flight HTTP requests finish, micro-batches drain, worker
processes exit.
"""

from __future__ import annotations

import argparse
import signal
import threading
from typing import List, Optional

from repro.api import connect
from repro.serve.http import PlanServer

#: Set by tests (or a signal handler) to stop a running ``main`` promptly.
_stop = threading.Event()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a directory of compiled inference plans over HTTP.",
    )
    parser.add_argument("--plan-dir", required=True,
                        help="directory of canonically named plan artifacts")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8100,
                        help="bind port; 0 picks an ephemeral port (default: 8100)")
    parser.add_argument("--workers", type=int, default=0,
                        help="serving worker processes; 0 serves in-process "
                             "(default: 0)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="consistent-hash ring replication factor: each "
                             "model served by this many distinct workers, "
                             "capped by --workers; 1 restores single-owner "
                             "sharding (default: 2, cluster backend only)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="micro-batch row cap per scheduler; a batch "
                             "takes only what is already queued (default: 64)")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        help="reject (HTTP 429 + Retry-After) deterministic "
                             "requests once a scheduler queue holds this many "
                             "requests (default: unlimited)")
    parser.add_argument("--max-concurrent-ensembles", type=int, default=None,
                        help="reject (HTTP 429 + Retry-After) ensemble "
                             "requests once this many are mid-flight "
                             "(default: unlimited)")
    parser.add_argument("--auto-restart", action="store_true",
                        help="self-heal the cluster: respawn dead worker "
                             "processes with exponential backoff, opening a "
                             "circuit breaker after repeated crash-loops "
                             "(cluster backend only)")
    parser.add_argument("--max-restarts", type=int, default=5,
                        help="consecutive crashes of one worker before its "
                             "circuit breaker opens (default: 5)")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="require 'Authorization: Bearer TOKEN' on every "
                             "route except /healthz and /metrics "
                             "(default: open)")
    parser.add_argument("--tls-cert", default=None, metavar="PEM",
                        help="serve HTTPS with this certificate chain "
                             "(requires --tls-key)")
    parser.add_argument("--tls-key", default=None, metavar="PEM",
                        help="private key for --tls-cert")
    parser.add_argument("--log-dir", default=None, metavar="DIR",
                        help="write one logfmt file per worker process "
                             "(worker-N.log) carrying every request's trace "
                             "id (cluster backend only)")
    parser.add_argument("--jobs-dir", default=None, metavar="DIR",
                        help="checkpoint study jobs (POST /v1/studies) here "
                             "so interrupted studies resume on restart "
                             "(default: in-memory only)")
    parser.add_argument("--run-for", type=float, default=None,
                        help="serve for N seconds then exit (default: forever)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-request access log")
    return parser


def build_target(args: argparse.Namespace) -> str:
    """The ``repro.api`` connect target the arguments describe."""
    scheme = "cluster" if args.workers >= 1 else "local"
    return f"{scheme}:{args.plan_dir}"


def build_backend(args: argparse.Namespace):
    """The serving backend the arguments describe (service or cluster).

    Routed through :func:`repro.api.connect` so the CLI, the examples, and
    library consumers all construct backends the exact same way.
    """
    options = {"max_batch": args.max_batch}
    if args.max_queue_depth is not None:
        options["max_queue_depth"] = args.max_queue_depth
    if args.max_concurrent_ensembles is not None:
        options["max_concurrent_ensembles"] = args.max_concurrent_ensembles
    if args.workers >= 1:
        options["workers"] = args.workers
        options["replicas"] = args.replicas
        if args.auto_restart:
            options["auto_restart"] = True
            options["max_restarts"] = args.max_restarts
        if args.log_dir is not None:
            options["log_dir"] = args.log_dir
    return connect(build_target(args), **options).backend


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # SIGTERM (docker stop, kubectl delete, subprocess.terminate) takes
        # the same graceful-drain path as Ctrl-C and --run-for.
        signal.signal(signal.SIGTERM, lambda signum, frame: _stop.set())
    except ValueError:
        pass  # not the main thread (in-process tests drive _stop directly)
    if (args.tls_cert is None) != (args.tls_key is None):
        build_parser().error("--tls-cert and --tls-key must be given together")
    backend = build_backend(args)
    server = PlanServer(
        backend, host=args.host, port=args.port, verbose=not args.quiet,
        auth_token=args.auth_token,
        tls_cert=args.tls_cert, tls_key=args.tls_key,
        jobs_dir=args.jobs_dir,
    )
    server.start()
    models = backend.models()
    topology = (
        f"{args.workers} worker process(es), "
        f"R={min(args.replicas, args.workers)} replication"
        if args.workers >= 1 else "in-process service"
    )
    print(f"serving {len(models)} plan(s) at {server.url} ({topology})")
    for entry in models:
        shard = f"  worker {entry['worker']}" if "worker" in entry else ""
        print(f"  {entry['name']:32s} digest={entry['digest'][:12]}{shard}")
    print("endpoints: POST /v1/predict  POST /v1/predict_under_variation  "
          "POST /v1/studies  GET /v1/studies/{id}  DELETE /v1/studies/{id}  "
          "GET /v1/models  GET /v1/stats  GET /healthz  GET /metrics  "
          "GET /admin/workers  POST /admin/restart_worker  POST /admin/drain  "
          "GET /admin/rollout  POST /admin/canary  POST /admin/promote  "
          "POST /admin/rollback")
    guards = []
    if args.auth_token is not None:
        guards.append("bearer-token auth")
    if server.tls:
        guards.append("TLS")
    if args.max_queue_depth is not None:
        guards.append(f"429 backpressure past queue depth {args.max_queue_depth}")
    if args.max_concurrent_ensembles is not None:
        guards.append(f"429 backpressure past "
                      f"{args.max_concurrent_ensembles} concurrent ensemble(s)")
    if args.workers >= 1 and args.auto_restart:
        guards.append(f"self-healing workers (breaker after "
                      f"{args.max_restarts} crash-loops)")
    if guards:
        print(f"guards: {', '.join(guards)}")
    token_hint = ", token=..." if args.auth_token is not None else ""
    print(f"client: repro.api.connect('{server.url}'{token_hint})")
    try:
        _stop.wait(timeout=args.run_for)
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down (draining in-flight requests)...")
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
