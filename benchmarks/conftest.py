"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures by calling
the corresponding driver in :mod:`repro.experiments` and printing the rows or
series the paper reports.  The drivers are full training/evaluation runs, so
each benchmark executes exactly once (``rounds=1``) — the interesting output
is the printed table, not the wall-clock statistics.

The scale can be adjusted through the ``REPRO_BENCH_SCALE`` environment
variable (``smoke``, ``fast`` — the default — or ``full``).

BLAS runs single-threaded unless the environment says otherwise, as in
``perfbench``: on a 2-core host a threaded OpenBLAS slows every small batched
execution about tenfold, which swamps what the serving benchmarks measure.
The pin is set before anything imports NumPy, so it takes effect when the
benchmarks run alone.
"""

from __future__ import annotations

import os

for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import SCALE_FAST, SCALE_FULL, SCALE_SMOKE, ExperimentScale


def _select_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "fast").lower()
    if name == "smoke":
        return SCALE_SMOKE
    if name == "full":
        return SCALE_FULL
    return SCALE_FAST


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Scale used by the MNIST-like (LeNet / MLP) benchmarks."""
    return _select_scale()


@pytest.fixture(scope="session")
def bench_scale_conv() -> ExperimentScale:
    """Reduced scale for the CIFAR-like conv networks (VGG-9 / ResNet-20).

    Convolutional training dominates the benchmark wall-clock, so the CIFAR
    benchmarks use a smaller dataset and fewer epochs than the LeNet ones
    unless the full scale is requested explicitly.
    """
    scale = _select_scale()
    if scale is SCALE_FULL:
        return scale
    return replace(scale, samples_per_class=max(20, scale.samples_per_class * 2 // 3),
                   epochs=max(2, scale.epochs - 2))


def run_once(benchmark, function, *args, **kwargs):
    """Execute a driver exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_header(title: str) -> None:
    """Print a section header so benchmark output reads like the paper artefact."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def persist_results(name: str, payload: dict) -> Path:
    """Write the measured numbers of one benchmark to ``BENCH_<name>.json``.

    The perf trajectory across changes lives in these files: each benchmark
    records its measured ratios (never just the pass/fail verdict) together
    with the host core count, the benchmark scale, and a timestamp, so a
    later change can be compared against the committed history instead of a
    fresh run on different hardware.

    * Output directory: ``REPRO_BENCH_RESULTS_DIR`` (default: the
      gitignored ``.bench_out/`` at the repository root, so a plain test
      run leaves the working tree clean).  Refresh the committed
      trajectory in ``benchmarks/`` explicitly with
      ``REPRO_BENCH_RESULTS_DIR=benchmarks``.
    * Timestamp: ``REPRO_BENCH_TIMESTAMP`` when set (so a committed rerun
      can be pinned/reproducible), else the current UNIX time.
    """
    directory = Path(
        os.environ.get("REPRO_BENCH_RESULTS_DIR",
                       Path(__file__).parent.parent / ".bench_out")
    )
    directory.mkdir(parents=True, exist_ok=True)
    timestamp = os.environ.get("REPRO_BENCH_TIMESTAMP")
    record = {
        "benchmark": name,
        "timestamp": float(timestamp) if timestamp else round(time.time(), 3),
        "cores": len(os.sched_getaffinity(0)),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast").lower(),
        **payload,
    }
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
