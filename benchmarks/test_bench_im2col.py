"""Conv lowering benchmark: both lowerings against inline references.

Two legs, one record (``BENCH_im2col.json``):

* **im2col** — ``repro.tensor.functional.im2col`` feeds eager conv training
  and its backward, so its copy count is paid on every eager conv forward.
  It materialises the row-major column buffer once
  (``sliding_window_view`` + one ``ascontiguousarray``); the previous
  two-copy implementation is kept inline as the reference.
* **plan conv** — the runtime's :class:`~repro.runtime.plan.ConvOp` lowers
  tap-major, ``(C·kh·kw, N·oh·ow)`` columns with one strided slice copy
  per tap, and computes ``W @ cols``.  The row-major lowering it replaced
  (``im2col`` + ``cols @ W.T`` + an NCHW transpose) is kept inline as the
  reference, on LeNet's real conv geometries plus a strided one.

Both legs assert bit-identity to their reference unconditionally and record
the measured ratio, so a future refactor cannot silently regress the copy
count or drift the bits.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import persist_results, print_header, run_once
from repro.runtime.plan import ConvOp
from repro.tensor.functional import conv_output_size, im2col

#: (batch, channels, height, width, kernel, stride, padding) — 5×5, pad-2
#: kernels on LeNet's input and mid-network map shapes, plus a strided
#: VGG-ish layer so non-unit stride stays covered.
GEOMETRIES = (
    (64, 1, 16, 16, 5, 1, 2),
    (64, 6, 8, 8, 5, 1, 2),
    (32, 32, 16, 16, 3, 2, 1),
)
#: (batch, channels, height, width, out_channels, kernel, stride, padding) —
#: LeNet's two 3×3, pad-1 convs on a 256-image batch, plus the strided layer.
PLAN_GEOMETRIES = (
    (256, 1, 16, 16, 6, 3, 1, 1),
    (256, 6, 8, 8, 16, 3, 1, 1),
    (32, 32, 16, 16, 32, 3, 2, 1),
)
REPEATS = 30
WARMUP = 3
SPEEDUP_FLOOR = 1.0         # enforced on >= 2 cores: never slower than the reference
SINGLE_CORE_GUARD = 0.7


def _im2col_two_copy(images, kernel_size, stride, padding):
    """The previous implementation: one copy per kernel offset + reshape copy."""
    batch, channels, height, width = images.shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h = conv_output_size(height, kernel_h, stride_h, pad_h)
    out_w = conv_output_size(width, kernel_w, stride_w, pad_w)
    if pad_h or pad_w:
        padded = np.pad(images, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    else:
        padded = images
    columns = np.empty(
        (batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=images.dtype
    )
    for y in range(kernel_h):
        y_end = y + stride_h * out_h
        for x in range(kernel_w):
            x_end = x + stride_w * out_w
            columns[:, :, y, x, :, :] = padded[:, :, y:y_end:stride_h,
                                               x:x_end:stride_w]
    columns = columns.transpose(0, 4, 5, 1, 2, 3)
    return columns.reshape(batch * out_h * out_w,
                           channels * kernel_h * kernel_w)


def _row_major_plan_conv(op, images):
    """The previous ``ConvOp.run``: row-major im2col, ``cols @ W.T``, transpose."""
    batch, _, height, width = images.shape
    _, kernel_h, kernel_w = op.kernel_shape
    out_h = conv_output_size(height, kernel_h, op.stride[0], op.padding[0])
    out_w = conv_output_size(width, kernel_w, op.stride[1], op.padding[1])
    columns = im2col(images, (kernel_h, kernel_w), op.stride, op.padding)
    out = columns @ op.weight.T
    out += op.bias
    out = out.reshape(batch, out_h, out_w, op.weight.shape[0])
    return out.transpose(0, 3, 1, 2)


def _median_seconds(function) -> float:
    for _ in range(WARMUP):
        function()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _im2col_comparison() -> dict:
    rng = np.random.default_rng(5)
    cases = []
    for batch, channels, height, width, kernel, stride, padding in GEOMETRIES:
        images = rng.normal(size=(batch, channels, height, width))
        geometry = ((kernel, kernel), (stride, stride), (padding, padding))
        # Bit-identity against the two-copy reference, unconditionally.
        np.testing.assert_array_equal(
            im2col(images, *geometry), _im2col_two_copy(images, *geometry)
        )
        cases.append((images, geometry))

    def run_new() -> None:
        for images, geometry in cases:
            im2col(images, *geometry)

    def run_old() -> None:
        for images, geometry in cases:
            _im2col_two_copy(images, *geometry)

    old_seconds = _median_seconds(run_old)
    new_seconds = _median_seconds(run_new)
    return {
        "two_copy_ms": old_seconds * 1e3,
        "single_copy_ms": new_seconds * 1e3,
        "speedup": old_seconds / new_seconds,
    }


def _plan_conv_comparison() -> dict:
    rng = np.random.default_rng(5)
    cases = []
    for (batch, channels, height, width, out_channels,
         kernel, stride, padding) in PLAN_GEOMETRIES:
        op = ConvOp(
            weight=rng.normal(size=(out_channels, channels * kernel * kernel)),
            bias=rng.normal(size=out_channels),
            kernel_shape=(channels, kernel, kernel),
            stride=(stride, stride),
            padding=(padding, padding),
        )
        images = rng.normal(size=(batch, channels, height, width))
        # Bit-identity against the row-major reference, unconditionally.
        np.testing.assert_array_equal(
            op.run(images), _row_major_plan_conv(op, images)
        )
        cases.append((op, images))

    def run_new() -> None:
        for op, images in cases:
            op.run(images)

    def run_old() -> None:
        for op, images in cases:
            _row_major_plan_conv(op, images)

    old_seconds = _median_seconds(run_old)
    new_seconds = _median_seconds(run_new)
    return {
        "row_major_ms": old_seconds * 1e3,
        "tap_major_ms": new_seconds * 1e3,
        "speedup": old_seconds / new_seconds,
    }


def _comparison() -> dict:
    return {"im2col": _im2col_comparison(), "plan_conv": _plan_conv_comparison()}


@pytest.mark.benchmark(group="int-kernels")
def test_conv_lowerings_not_slower_than_their_references(benchmark):
    outcome = run_once(benchmark, _comparison)
    lowering, plan_conv = outcome["im2col"], outcome["plan_conv"]
    cores = len(os.sched_getaffinity(0))
    sanity_only = bool(os.environ.get("REPRO_BENCH_SANITY_ONLY"))
    floor_enforced = cores >= 2 and not sanity_only

    print_header(f"conv lowering: new vs reference ({cores} core(s))")
    print(f"im2col two-copy:      {lowering['two_copy_ms']:8.3f} ms median")
    print(f"im2col single-copy:   {lowering['single_copy_ms']:8.3f} ms median")
    print(f"speedup: {lowering['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"plan conv row-major:  {plan_conv['row_major_ms']:8.3f} ms median")
    print(f"plan conv tap-major:  {plan_conv['tap_major_ms']:8.3f} ms median")
    print(f"speedup: {plan_conv['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)")

    persist_results("im2col", {
        "two_copy_ms": lowering["two_copy_ms"],
        "single_copy_ms": lowering["single_copy_ms"],
        "speedup": lowering["speedup"],
        "geometries": [list(geometry) for geometry in GEOMETRIES],
        "plan_conv": {
            "row_major_ms": plan_conv["row_major_ms"],
            "tap_major_ms": plan_conv["tap_major_ms"],
            "speedup": plan_conv["speedup"],
            "geometries": [list(geometry) for geometry in PLAN_GEOMETRIES],
        },
        "floor": SPEEDUP_FLOOR,
        "floor_enforced": floor_enforced,
    })

    for name, leg in (("single-copy im2col", lowering),
                      ("tap-major plan conv", plan_conv)):
        if floor_enforced:
            assert leg["speedup"] >= SPEEDUP_FLOOR, (
                f"{name} is slower than its reference ({leg['speedup']:.2f}x)"
            )
        else:
            assert leg["speedup"] >= SINGLE_CORE_GUARD
