"""Inference evaluation under device variation (the paper's Fig. 6 protocol).

After training, zero-mean Gaussian variation is added to every crossbar
conductance and inference accuracy is measured without any fine-tuning.  The
paper averages 25 variation samples per data point; :func:`variation_sweep`
repeats the measurement for a list of sigma values and returns the mean and
standard deviation per point.

Two execution paths back every helper here:

* the **compiled runtime** (:mod:`repro.runtime`): the model is frozen into
  an :class:`~repro.runtime.plan.InferencePlan` and variation draws are
  evaluated as one vectorized Monte-Carlo pass — the default whenever the
  model can be compiled;
* the **eager reference path**: the original per-batch evaluation through
  the layer stack, kept as the ground truth the runtime is tested against
  and as the fallback for models the compiler does not know.

``use_runtime=None`` (the default) tries the runtime and silently falls
back; ``True`` insists (raising :class:`PlanCompilationError` if the model
cannot be compiled, or :class:`ValueError` if per-layer variation is
currently enabled on the model); ``False`` forces the eager path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.mapping.mapped_layer import _MappedBase
from repro.nn.losses import count_correct
from repro.nn.module import Module
from repro.runtime.engine import compile_model, plan_accuracy, try_compile
from repro.runtime.montecarlo import monte_carlo_accuracy
from repro.runtime.plan import InferencePlan
from repro.tensor import Tensor, no_grad


def _mapped_layers(model: Module) -> List[_MappedBase]:
    return [module for module in model.modules() if isinstance(module, _MappedBase)]


def plan_for(model: Module, use_runtime: Optional[bool] = True) -> Optional[InferencePlan]:
    """Resolve the runtime/eager choice to a plan (or ``None`` for eager).

    A model with per-layer variation currently enabled (``set_variation``)
    must evaluate eagerly — the plan freezes ideal weights and would silently
    drop the variation — so ``use_runtime=None`` falls back in that case.

    This is the canonical "trained model -> deployable plan" builder: the
    serving registry (:meth:`repro.serve.registry.PlanRegistry.publish_model`)
    uses it so published artifacts carry exactly the semantics the evaluation
    helpers are tested against.
    """
    if use_runtime is False:
        return None
    variation_active = any(layer.variation is not None for layer in _mapped_layers(model))
    if use_runtime is True:
        if variation_active:
            raise ValueError(
                "cannot compile a model with per-layer variation enabled; "
                "disable it with set_variation(0.0) and use the Monte-Carlo "
                "engine (evaluate_under_variation / variation_sweep) instead"
            )
        return compile_model(model)
    if variation_active:
        return None
    return try_compile(model)


def evaluate_accuracy(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 64,
    use_runtime: Optional[bool] = None,
) -> float:
    """Classification accuracy of ``model`` on ``dataset`` (no gradients)."""
    plan = plan_for(model, use_runtime)
    if plan is not None:
        return plan_accuracy(plan, dataset, batch_size=batch_size)
    was_training = model.training
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start:start + batch_size]
            labels = dataset.labels[start:start + batch_size]
            logits = model(Tensor(images))
            correct += count_correct(logits, labels)
    if was_training:
        model.train()
    return correct / len(dataset)


def evaluate_under_variation(
    model: Module,
    dataset: ArrayDataset,
    sigma_fraction: float,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 64,
    use_runtime: Optional[bool] = None,
) -> float:
    """Accuracy with one sample of device variation applied to every mapped layer.

    No retraining or calibration is performed and the model's stored
    conductances are left untouched.  On the runtime path one perturbation is
    drawn per crossbar and held fixed for the whole dataset; on the eager
    path the draw is applied when each layer builds its conductance tensor.
    """
    layers = _mapped_layers(model)
    if not layers and sigma_fraction > 0:
        raise ValueError(
            "evaluate_under_variation requires a model with crossbar-mapped layers"
        )
    plan = plan_for(model, use_runtime)
    if plan is not None:
        if sigma_fraction == 0.0:
            return plan_accuracy(plan, dataset, batch_size=batch_size)
        accuracies = monte_carlo_accuracy(
            plan, dataset, sigma_fraction, num_samples=1, rng=rng,
            batch_size=batch_size,
        )
        return float(accuracies[0])
    rng = rng if rng is not None else np.random.default_rng()
    # The caller's rng drives this evaluation only; each layer's own seeded
    # variation stream is restored afterwards so later bare set_variation
    # calls stay reproducible.
    saved_rngs = [layer._variation_rng for layer in layers]
    for layer in layers:
        layer.set_variation(sigma_fraction, rng=rng)
    try:
        return evaluate_accuracy(model, dataset, batch_size=batch_size, use_runtime=False)
    finally:
        for layer, saved in zip(layers, saved_rngs):
            layer.set_variation(0.0)
            layer._variation_rng = saved


@dataclass
class VariationSweepResult:
    """Accuracy statistics of a variation sweep.

    Attributes
    ----------
    sigmas:
        The sigma values (as fractions of the conductance range) swept.
    mean_accuracy, std_accuracy:
        Per-sigma mean and standard deviation of accuracy across samples.
    samples:
        Raw per-sample accuracies, keyed by sigma.
    """

    sigmas: List[float] = field(default_factory=list)
    mean_accuracy: List[float] = field(default_factory=list)
    std_accuracy: List[float] = field(default_factory=list)
    samples: Dict[float, List[float]] = field(default_factory=dict)

    def record(self, sigma: float, accuracies: Sequence[float]) -> None:
        """Append one sigma point's raw accuracies and their statistics."""
        self.sigmas.append(float(sigma))
        self.mean_accuracy.append(float(np.mean(accuracies)))
        self.std_accuracy.append(float(np.std(accuracies)))
        self.samples[float(sigma)] = [float(a) for a in accuracies]


def variation_sweep(
    model: Module,
    dataset: ArrayDataset,
    sigmas: Sequence[float],
    num_samples: int = 25,
    seed: int = 0,
    batch_size: int = 64,
    use_runtime: Optional[bool] = None,
) -> VariationSweepResult:
    """Sweep device-variation sigma and average accuracy over repeated draws.

    On the runtime path the model is compiled once and each sigma point's
    ``num_samples`` draws are evaluated as a single vectorized Monte-Carlo
    pass; the eager path runs one full model evaluation per draw.

    Parameters
    ----------
    model:
        A trained model with crossbar-mapped layers.
    dataset:
        The evaluation dataset.
    sigmas:
        Sigma values as fractions of the conductance range (e.g. 0.05 = 5 %).
    num_samples:
        Number of independent variation draws per sigma (the paper uses 25).
    seed:
        Seed of the random generator that drives the variation draws.
    use_runtime:
        ``None`` compiles when possible and falls back to eager; ``True``
        forces the compiled path; ``False`` forces the eager reference path.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    if not _mapped_layers(model) and any(sigma > 0 for sigma in sigmas):
        raise ValueError(
            "variation_sweep requires a model with crossbar-mapped layers"
        )
    result = VariationSweepResult()
    rng = np.random.default_rng(seed)
    plan = plan_for(model, use_runtime)
    for sigma in sigmas:
        if sigma == 0.0:
            if plan is not None:
                accuracies = [plan_accuracy(plan, dataset, batch_size=batch_size)]
            else:
                accuracies = [
                    evaluate_accuracy(
                        model, dataset, batch_size=batch_size, use_runtime=False
                    )
                ]
        elif plan is not None:
            accuracies = monte_carlo_accuracy(
                plan, dataset, sigma, num_samples=num_samples, rng=rng,
                batch_size=batch_size,
            )
        else:
            accuracies = [
                evaluate_under_variation(
                    model, dataset, sigma, rng=rng, batch_size=batch_size,
                    use_runtime=False,
                )
                for _ in range(num_samples)
            ]
        result.record(sigma, accuracies)
    return result
