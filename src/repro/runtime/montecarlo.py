"""Vectorized Monte-Carlo variation sweeps over a compiled plan.

The eager Fig. 6 protocol pays one full model run per variation draw: every
batch rebuilds every layer's effective weight through the autograd graph with
a fresh perturbation.  Here the variation draws are sampled *once* as a
stacked ``(num_samples, ND, NI)`` perturbation of each crossbar's raw
conductances, realized to per-sample effective weights, and the whole plan is
executed with batched ``np.matmul`` GEMMs over the sample axis — a 25-draw
sigma point costs roughly one plan execution instead of 25 eager model runs.

Values stay *sample-invariant* (no sample axis) until they flow through the
first crossbar-backed op, so the early conv lowering and pooling work before
the first mapped layer is never duplicated across samples.

There is one engine and one precision: offline sweeps
(:func:`monte_carlo_accuracy`) and served ensembles
(:meth:`repro.serve.InferenceService.ensemble_request`) both run the float64
plan through :func:`run_plan_samples`, so for the same images and seed they
compute the same bits.  Convolutional plans step through a dataset with at
most :data:`_STEP_IMAGES` stacked images in flight.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.runtime.plan import ConvOp, InferencePlan

#: Cap on ``num_samples * batch`` images per step for convolutional plans.
#: A fixed constant (not a host probe), so a seeded sweep computes the same
#: bits on every machine.  Of 400/800/1600 it was the fastest at S=25 on a
#: 2-core x86_64 host with one BLAS thread (400 was faster at S=100).
_STEP_IMAGES = 1600


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
) -> np.ndarray:
    """Execute the plan once per variation sample, vectorised over samples.

    Returns float64 logits of shape ``(num_samples, batch, num_outputs)``.
    With an empty ``sampled_weights`` (a plan without crossbar layers) the
    single deterministic result is broadcast across the sample axis.
    """
    values: Dict[int, np.ndarray] = {0: np.asarray(images, dtype=np.float64)}
    stacked: Dict[int, bool] = {0: False}
    for index, op in enumerate(plan.ops):
        inputs = [values[slot] for slot in op.inputs]
        input_stacked = [stacked[slot] for slot in op.inputs]
        if index in sampled_weights:
            result = op.run_sampled(inputs[0], sampled_weights[index])
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
            # Shape-sensitive op (global pool / flatten / conv-without-
            # devices): fold the sample axis into the batch, run, and unfold.
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


def _effective_batch(plan: InferencePlan, batch_size: int, num_samples: int) -> int:
    """Pick the per-step data batch so stacked feature maps stay bounded.

    Dense-only plans keep the caller's batch (bigger matmuls only help);
    convolutional plans cap ``num_samples * batch`` at :data:`_STEP_IMAGES`.
    """
    if not any(isinstance(op, ConvOp) for op in plan.ops):
        return batch_size
    return max(1, min(batch_size, _STEP_IMAGES // num_samples))


def monte_carlo_logits(
    plan: InferencePlan,
    images: np.ndarray,
    sigma_fraction: float,
    num_samples: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample variation draws and run the plan; logits ``(S, B, outputs)``.

    This is the program a served ensemble runs, so for the same seeded
    ``rng`` its mean over samples is bit-identical to the served
    ``mean_logits``.
    """
    sampled = sample_crossbar_weights(plan, sigma_fraction, num_samples, rng=rng)
    return run_plan_samples(plan, images, sampled, num_samples)


def monte_carlo_accuracy(
    plan: InferencePlan,
    dataset: ArrayDataset,
    sigma_fraction: float,
    num_samples: int,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 64,
) -> np.ndarray:
    """Per-sample classification accuracies over one set of variation draws.

    Each of the ``num_samples`` draws is held fixed while the whole dataset
    is evaluated (the paper's protocol: program once, then infer), and the
    returned array has one accuracy per draw.  Draws and execution run in
    float64 through the same :func:`run_plan_samples` a served ensemble
    uses; convolutional plans step through the dataset
    ``_STEP_IMAGES // num_samples`` images at a time.
    """
    sampled = sample_crossbar_weights(plan, sigma_fraction, num_samples, rng=rng)
    batch = _effective_batch(plan, batch_size, num_samples)
    correct = np.zeros(num_samples, dtype=np.int64)
    for start in range(0, len(dataset), batch):
        images = dataset.images[start:start + batch]
        labels = dataset.labels[start:start + batch]
        logits = run_plan_samples(plan, images, sampled, num_samples)
        correct += (logits.argmax(axis=-1) == labels).sum(axis=-1)
    return correct / len(dataset)
