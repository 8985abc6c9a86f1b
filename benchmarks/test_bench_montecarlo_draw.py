"""Cold Monte-Carlo draw micro-benchmark: the device-realisation layer.

Every Fig. 6 sigma point and every served ensemble whose weight stacks are
not cached starts with :func:`repro.runtime.sample_crossbar_weights`: per
crossbar, a seeded normal draw, the nearest-level snap and the periphery
matmul.  This benchmark records two numbers for that layer:

* ``draw_ms`` — one cold draw of LeNet ACM 4-bit at S=32;
* ``snap_ns_per_element`` — :meth:`UniformQuantizer.snap` on a 32-sample
  perturbed stack of LeNet's largest crossbar (65x256).

Both are timed in a fresh interpreter, so no earlier test's allocator state
or warm caches leak in, over interleaved reps (draw, snap, draw, snap, ...)
and reported as medians with their quartiles.  The numbers are recorded in
``BENCH_montecarlo_draw.json``, not enforced; the test only checks that the
run produced finite, positive timings.

Run alone, the module prints the measurement as JSON::

    PYTHONPATH=src python benchmarks/test_bench_montecarlo_draw.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.models import make_lenet
from repro.runtime import compile_model, sample_crossbar_weights
from repro.xbar.variation import DeviceVariationModel

SIGMA_FRACTION = 0.15
NUM_SAMPLES = 32
WARMUP = 3
REPS = 25


def _quartiles(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def measure(reps: int = REPS) -> dict:
    """Interleaved cold-draw and snap timings, as medians with quartiles."""
    plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
    spec = max((op.spec for op in plan.crossbar_ops),
               key=lambda spec: spec.conductances.size)
    stack = DeviceVariationModel(SIGMA_FRACTION, spec.range).perturb(
        spec.conductances, NUM_SAMPLES, np.random.default_rng(0)
    )
    draw_ms, snap_ns = [], []
    for rep in range(WARMUP + reps):
        start = time.perf_counter()
        sample_crossbar_weights(plan, SIGMA_FRACTION, NUM_SAMPLES,
                                rng=np.random.default_rng(rep))
        middle = time.perf_counter()
        spec.quantizer.snap(stack)
        end = time.perf_counter()
        if rep >= WARMUP:
            draw_ms.append((middle - start) * 1e3)
            snap_ns.append((end - middle) * 1e9 / stack.size)
    return {
        "draw_ms": _quartiles(draw_ms),
        "snap_ns_per_element": _quartiles(snap_ns),
        "snap_shape": list(stack.shape),
        "num_samples": NUM_SAMPLES,
        "reps": reps,
    }


def test_cold_draw_and_snap_are_recorded():
    from benchmarks.conftest import persist_results, print_header

    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), str(root)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    completed = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    outcome = json.loads(completed.stdout)
    draw, snap = outcome["draw_ms"], outcome["snap_ns_per_element"]

    print_header(f"Cold Monte-Carlo draw: LeNet ACM 4-bit, S={NUM_SAMPLES}")
    print(f"draw: {draw['median']:7.2f} ms median (IQR {draw['iqr']:.2f})")
    print(f"snap: {snap['median']:7.2f} ns/element median (IQR {snap['iqr']:.2f})"
          f" on {outcome['snap_shape']}")
    persist_results("montecarlo_draw", {**outcome, "enforced": False})

    for stats in (draw, snap):
        assert all(math.isfinite(value) and value > 0 for value in
                   (stats["median"], stats["q1"], stats["q3"]))


if __name__ == "__main__":
    print(json.dumps(measure()))
