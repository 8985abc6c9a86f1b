"""Vectorized Monte-Carlo variation sweeps over a compiled plan.

The eager Fig. 6 protocol pays one full model run per variation draw: every
batch rebuilds every layer's effective weight through the autograd graph with
a fresh perturbation.  Here the variation draws are sampled *once* as a
stacked ``(num_samples, ND, NI)`` perturbation of each crossbar's raw
conductances, realized to per-sample effective weights, and the whole plan is
executed with batched einsum matmuls over the sample axis — a 25-draw sigma
point costs roughly one plan execution instead of 25 eager model runs.

Values stay *sample-invariant* (no sample axis) until they flow through the
first crossbar-backed op, so the early im2col/pooling work before the first
mapped layer is never duplicated across samples.
"""

from __future__ import annotations

import functools
import glob
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.runtime.plan import ConvOp, InferencePlan

#: Fallback cap on ``num_samples * batch`` for convolutional plans when the
#: per-image footprint cannot be derived (no shape information available).
#: The adaptive path below replaces this with a cache-size probe.
_DEFAULT_IMAGE_TARGET = 512

#: Clamp for the adaptive target: below 64 images the batched matmuls lose
#: their BLAS advantage, far above a few thousand the working set is
#: memory-bound regardless of cache size.
_IMAGE_TARGET_BOUNDS = (64, 4096)

#: Fallback last-level cache size when the sysfs topology is unreadable
#: (containers without /sys, non-Linux hosts).
_DEFAULT_LLC_BYTES = 16 * 1024 * 1024


@functools.lru_cache(maxsize=1)
def _last_level_cache_bytes() -> int:
    """Size of the largest data/unified CPU cache, probed from sysfs."""
    best = 0
    for index_dir in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index_dir, "type")) as handle:
                if handle.read().strip() == "Instruction":
                    continue
            with open(os.path.join(index_dir, "size")) as handle:
                text = handle.read().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        factor = units.get(text[-1:].upper())
        digits = text[:-1] if factor else text
        try:
            size = int(digits) * (factor or 1)
        except ValueError:
            continue
        best = max(best, size)
    return best or _DEFAULT_LLC_BYTES


def _per_image_bytes(plan: InferencePlan, sample_shape: Tuple[int, ...]) -> Optional[int]:
    """Peak per-image float32 working set of one plan execution.

    The dominant resident set of a stacked step is one op's input and output
    feature maps plus, for convolutions, the im2col column matrix; the peak
    over ops (bytes per image) is what must stay cache-sized when multiplied
    by ``num_samples * batch``.
    """
    try:
        shapes = plan.output_shapes(tuple(sample_shape))
    except (ValueError, TypeError):
        return None
    slot_shapes: Dict[int, Tuple[int, ...]] = {0: tuple(sample_shape)}
    peak = 0
    for op, out_shape in zip(plan.ops, shapes):
        in_shape = slot_shapes.get(op.inputs[0], ())
        elements = int(np.prod(in_shape)) + int(np.prod(out_shape))
        if isinstance(op, ConvOp):
            kernel_c, kernel_h, kernel_w = op.kernel_shape
            columns = int(np.prod(out_shape[1:])) * kernel_c * kernel_h * kernel_w
            elements += columns
        peak = max(peak, elements)
        slot_shapes[op.output] = out_shape
    return peak * 4 if peak else None


def stacked_image_target(
    plan: InferencePlan, sample_shape: Optional[Tuple[int, ...]] = None
) -> int:
    """Adaptive cap on ``num_samples * batch`` images for stacked execution.

    The target keeps the peak stacked working set (per-image footprint times
    the number of in-flight images) within roughly half the last-level
    cache, so the batched matmuls stay compute-bound instead of being tuned
    to one container's cache hierarchy.  Probed once per (plan, shape) and
    memoised on the plan.
    """
    if sample_shape is None:
        sample_shape = plan.input_shape
    if sample_shape is None:
        return _DEFAULT_IMAGE_TARGET
    key = tuple(int(extent) for extent in sample_shape)
    cache: Dict[Tuple[int, ...], int] = plan.__dict__.setdefault(
        "_image_target_cache", {}
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    per_image = _per_image_bytes(plan, key)
    if not per_image:
        target = _DEFAULT_IMAGE_TARGET
    else:
        low, high = _IMAGE_TARGET_BOUNDS
        target = min(high, max(low, (_last_level_cache_bytes() // 2) // per_image))
    cache[key] = target
    return target


def sample_crossbar_weights(
    plan: InferencePlan,
    sigma_fraction: float,
    num_samples: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, np.ndarray]:
    """Draw per-sample effective weights for every crossbar-backed op.

    Returns a mapping from op index to a ``(num_samples, NO, NI)`` stack.
    Ops are visited in program order with a single generator, so a seeded
    ``rng`` makes the whole draw reproducible.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = rng if rng is not None else np.random.default_rng()
    sampled: Dict[int, np.ndarray] = {}
    for index, op in enumerate(plan.ops):
        spec = getattr(op, "spec", None)
        if spec is not None:
            sampled[index] = spec.sample_weights(sigma_fraction, num_samples, rng)
    return sampled


def run_plan_samples(
    plan: InferencePlan,
    images: np.ndarray,
    sampled_weights: Dict[int, np.ndarray],
    num_samples: int,
    dtype=np.float64,
) -> np.ndarray:
    """Execute the plan once per variation sample, vectorised over samples.

    Returns logits of shape ``(num_samples, batch, num_outputs)``.  With an
    empty ``sampled_weights`` (a plan without crossbar layers) the single
    deterministic result is broadcast across the sample axis.  ``plan`` and
    ``sampled_weights`` must already be in ``dtype``
    (see :meth:`InferencePlan.cast`).
    """
    values: Dict[int, np.ndarray] = {0: np.asarray(images, dtype=dtype)}
    stacked: Dict[int, bool] = {0: False}
    for index, op in enumerate(plan.ops):
        inputs = [values[slot] for slot in op.inputs]
        input_stacked = [stacked[slot] for slot in op.inputs]
        if index in sampled_weights:
            result = op.run_sampled(
                inputs[0], sampled_weights[index], input_stacked[0]
            )
            is_stacked = True
        elif not any(input_stacked):
            result = op.run(*inputs)
            is_stacked = False
        elif op.leading_dims_safe:
            # Mixed stacked/unstacked inputs broadcast naturally: a stacked
            # value carries a leading (num_samples,) axis the op ignores.
            result = op.run(*inputs)
            is_stacked = True
        else:
            # Shape-sensitive op (pool / flatten / conv-without-devices):
            # fold the sample axis into the batch, run, and unfold.
            x = inputs[0]
            folded = x.reshape((-1,) + x.shape[2:])
            result = op.run(folded)
            result = result.reshape(x.shape[:2] + result.shape[1:])
            is_stacked = True
        values[op.output] = result
        stacked[op.output] = is_stacked
        for slot in op.inputs:
            if plan._last_use.get(slot) == index and slot != plan.output:
                values.pop(slot, None)
    logits = values[plan.output]
    if not stacked[plan.output]:
        logits = np.broadcast_to(logits, (num_samples,) + logits.shape)
    return logits


def _prepare(plan: InferencePlan, sampled: Dict[int, np.ndarray], dtype):
    """Cast the plan and the sampled weight stacks to the execution dtype."""
    if np.dtype(dtype) == np.float64:
        return plan, sampled
    return plan.cast(dtype), {k: v.astype(dtype) for k, v in sampled.items()}


def _effective_batch(
    plan: InferencePlan,
    batch_size: int,
    num_samples: int,
    sample_shape: Optional[Tuple[int, ...]] = None,
) -> int:
    """Pick the per-step data batch so stacked feature maps stay cache-sized.

    Dense-only plans keep the caller's batch (bigger matmuls only help);
    convolutional plans cap ``num_samples * batch`` near the adaptive
    :func:`stacked_image_target`.
    """
    if not any(isinstance(op, ConvOp) for op in plan.ops):
        return batch_size
    target = stacked_image_target(plan, sample_shape)
    return max(1, min(batch_size, target // num_samples))


def monte_carlo_logits(
    plan: InferencePlan,
    images: np.ndarray,
    sigma_fraction: float,
    num_samples: int,
    rng: Optional[np.random.Generator] = None,
    dtype=np.float32,
) -> np.ndarray:
    """Sample variation draws and run the plan; logits ``(S, B, outputs)``."""
    sampled = sample_crossbar_weights(plan, sigma_fraction, num_samples, rng=rng)
    exec_plan, sampled = _prepare(plan, sampled, dtype)
    return run_plan_samples(exec_plan, images, sampled, num_samples, dtype=dtype)


def monte_carlo_accuracy(
    plan: InferencePlan,
    dataset: ArrayDataset,
    sigma_fraction: float,
    num_samples: int,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 64,
    dtype=np.float32,
) -> np.ndarray:
    """Per-sample classification accuracies over one set of variation draws.

    Each of the ``num_samples`` draws is held fixed while the whole dataset
    is evaluated (the paper's protocol: program once, then infer), and the
    returned array has one accuracy per draw.  Variation sampling and device
    quantisation always run in float64; plan *execution* defaults to float32,
    whose rounding is negligible next to the injected conductance noise.
    """
    sampled = sample_crossbar_weights(plan, sigma_fraction, num_samples, rng=rng)
    exec_plan, sampled = _prepare(plan, sampled, dtype)
    batch = _effective_batch(
        plan, batch_size, num_samples, sample_shape=dataset.images.shape[1:]
    )
    correct = np.zeros(num_samples, dtype=np.int64)
    for start in range(0, len(dataset), batch):
        images = dataset.images[start:start + batch]
        labels = dataset.labels[start:start + batch]
        logits = run_plan_samples(exec_plan, images, sampled, num_samples, dtype=dtype)
        correct += (logits.argmax(axis=-1) == labels).sum(axis=-1)
    return correct / len(dataset)
