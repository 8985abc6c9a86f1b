"""Serving ledger: the end-to-end benchmark of the crossbar-inference stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solo_predict --seed 1 --seconds 10 --trace 0

Starts the default CLI deployment (``python -m repro.serve --workers 2
--quiet``) as a subprocess, drives it through the public pooled client, and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end metrics
with nothing traced; ``--trace 1`` is the separate traced run that gives
the per-layer numbers and prints the closure ladder to stderr.  See
``perfbench/NOTES.md`` for the workloads, the metric-to-layer map, and the
held-out seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Pinned before NumPy loads anywhere in this process (and inherited by the
# server tree, which server.Server pins again explicitly).
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

#: End-to-end metrics (``--trace 0``).  ``p50_ms``/``p90_ms``/``rps`` are the
#: workload's headline lane: predicts on solo_predict and batch_large, the
#: ensembles of connection A on ensemble_mixed.  ``predict_p90_ms`` is the
#: predict lane on every workload (connection B on ensemble_mixed).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "rps": "1/s",
    "predict_p90_ms": "ms",
    "server_peak_rss_mb": "MB",
}

_OPS = ("conv", "activation", "maxpool", "conv", "activation", "maxpool",
        "flatten", "dense", "activation", "dense")

#: Per-layer metrics (``--trace 1``), named ``<module>.<measure>``.
PER_LAYER = {
    "api.encode_ms": "ms",
    "api.decode_ms": "ms",
    "api.request_bytes": "bytes",
    "api.response_bytes": "bytes",
    "api.connections_opened": "count",
    "api.pool_reuse_ratio": "ratio",
    "api.retries": "count",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "http.edge_ms": "ms",
    "http.self_ms": "ms",
    "http.transport_ms": "ms",
    "http.non_2xx": "count",
    "cluster.hop_ms": "ms",
    "cluster.shm_bytes_per_request": "bytes",
    "cluster.shm_segments_per_request": "count",
    "cluster.primary_share": "ratio",
    "cluster.failovers": "count",
    "cluster.ready_s": "s",
    "scheduler.wait_ms": "ms",
    "scheduler.rows_per_batch": "count",
    "scheduler.requests_per_batch": "count",
    "service.predict_ms": "ms",
    "service.ensemble_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.ensembles_rejected": "count",
    "registry.load_ms": "ms",
    "plan.run_ms": "ms",
    **{f"plan.op.{i}.{kind}_ms": "ms" for i, kind in enumerate(_OPS)},
    "plan.mflop_per_row": "MFLOP",
    "plan.achieved_gflops": "GFLOP/s",
    "montecarlo.sample_ms": "ms",
    "montecarlo.run_ms": "ms",
    "montecarlo.stack_mb": "MB",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
    "error_rate": "ratio",
}

#: Server spawns per timed run; ``setup_s`` is their median.
SETUPS = 5
#: Closed-loop traffic before anything is timed: warms the BLAS paths, the
#: pinned plans, the hot draw identities and the pooled connections.
WARMUP_SECONDS = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solo_predict", "batch_large", "ensemble_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(phase) -> None:
    errors = phase.failed - phase.mismatches
    print(f"phase {phase.name}: sent {len(phase.records)} "
          f"succeeded {len(phase.records) - phase.failed} failed {phase.failed} "
          f"(errors {errors}, wrong answers {phase.mismatches}) "
          f"in {phase.elapsed:.3f} s")


def _write_spans(name: str, seed: int, phase) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.jsonl"
    origin = min((r.start for r in phase.records), default=0.0)
    with open(path, "w") as handle:
        for r in phase.records:
            handle.write(json.dumps({
                "request_id": r.request_id, "lane": r.lane, "key": list(r.key),
                "start_ms": (r.start - origin) * 1e3, "ms": r.seconds * 1e3,
                "ok": not isinstance(r.result, Exception),
            }) + "\n")
    return path


def run(args, plan_dir: Path) -> dict:
    from repro.api import connect

    import layers
    from server import Server, compile_sources, host_metadata, publish_plan
    from workloads import Oracle, build, first_responses, percentile, run_phase

    print("host " + json.dumps(host_metadata(), sort_keys=True))
    compile_sources()
    workload = build(args.workload, args.seed)
    artifact = publish_plan(plan_dir)
    oracle = Oracle(workload, artifact, plan_dir)

    setups = []
    server = client = None
    try:
        for _ in range(SETUPS if args.trace == 0 else 1):
            if server is not None:
                client.close()
                server.stop()
            began = time.perf_counter()
            server = Server(plan_dir)
            client = connect(server.url)
            first_responses(client, workload, oracle)
            setups.append(time.perf_counter() - began)

        warmup = run_phase(client, workload, "warmup", WARMUP_SECONDS)
        if args.trace == 0:
            timed = run_phase(client, workload, "timed", args.seconds)
            measured = [timed]
            rss_mb = server.peak_rss_mb()
        else:
            half = args.seconds / 2
            untraced = run_phase(client, workload, "untraced", half)
            before, client_before = server.scrape(), client.client_stats()
            traced = run_phase(client, workload, "traced", half)
            after, client_after = server.scrape(), client.client_stats()
            measured = [untraced, traced]
        for phase in [warmup] + measured:
            phase.check(oracle)
            _report(phase)
        if args.trace == 0:
            headline = timed.latencies_ms(workload.headline)
            metrics = {
                "setup_s": statistics.median(setups),
                "p50_ms": percentile(headline, 50),
                "p90_ms": percentile(headline, 90),
                "rps": timed.rate(workload.headline),
                "predict_p90_ms": percentile(timed.latencies_ms("predict"), 90),
                "server_peak_rss_mb": rss_mb,
            }
            units = END_TO_END
        else:
            metrics = layers.per_layer(workload, oracle, plan_dir, artifact,
                                       untraced, traced, before, after,
                                       client_before, client_after)
            if workload.name != "ensemble_mixed":
                layers.print_closure(workload, metrics)
            print(f"spans: {_write_spans(workload.name, workload.seed, traced)}",
                  file=sys.stderr)
            units = PER_LAYER
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    return {
        "correct": all(phase.mismatches == 0 for phase in [warmup] + measured),
        "attempted": sum(len(phase.records) for phase in measured),
        "failed": sum(phase.failed for phase in measured),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # The server runs in its own session, so a terminated benchmark must
    # unwind through run()'s finally to stop it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "serve" / "__main__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to "
              f"measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from server import become_subreaper, stop_children

    become_subreaper()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
