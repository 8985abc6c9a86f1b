"""Driver for the paper's Fig. 6: inference accuracy under device variation.

Protocol: train the VGG-9 network on the CIFAR-like task at a given device
precision with each mapping, then — without any fine-tuning — add zero-mean
Gaussian variation to every programmed conductance and measure inference
accuracy, averaging multiple independent variation draws per sigma.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentScale, SCALE_FAST, dataset_for, model_for
from repro.train.evaluate import VariationSweepResult, variation_sweep
from repro.train.trainer import Trainer, TrainingConfig


@dataclass
class VariationStudyResult:
    """Inference accuracy versus device-variation sigma (Fig. 6).

    Attributes
    ----------
    network:
        Network evaluated (the paper uses VGG-9 on CIFAR-10).
    bits:
        Device precisions studied (panels of Fig. 6).
    sigmas:
        Variation sigmas swept, as fractions of the conductance range.
    accuracy:
        ``accuracy[bits][mapping]`` is the per-sigma mean accuracy list.
    sweeps:
        The raw :class:`VariationSweepResult` objects, same keying.
    """

    network: str
    bits: List[int] = field(default_factory=list)
    sigmas: List[float] = field(default_factory=list)
    accuracy: Dict[int, Dict[str, List[float]]] = field(default_factory=dict)
    sweeps: Dict[int, Dict[str, VariationSweepResult]] = field(default_factory=dict)

    def accuracy_at(self, bits: int, mapping: str, sigma: float) -> float:
        """Mean accuracy of one mapping at one precision and sigma."""
        index = self.sigmas.index(sigma)
        return self.accuracy[bits][mapping][index]

    def best_mapping_at(self, bits: int, sigma: float) -> str:
        """Mapping with the highest mean accuracy at one (bits, sigma) point."""
        index = self.sigmas.index(sigma)
        return max(self.accuracy[bits], key=lambda name: self.accuracy[bits][name][index])

    def as_rows(self) -> List[str]:
        """Formatted rows, one per (precision, sigma) point."""
        rows = []
        for bits in self.bits:
            for index, sigma in enumerate(self.sigmas):
                cells = "  ".join(
                    f"{mapping}={self.accuracy[bits][mapping][index] * 100.0:6.2f}%"
                    for mapping in self.accuracy[bits]
                )
                rows.append(f"{self.network:8s} {bits}-bit  sigma={sigma * 100.0:5.1f}%  {cells}")
        return rows


def run_variation_study(
    network: str = "vgg9",
    bits: Sequence[int] = (1, 3, 4, 6),
    sigmas: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25),
    mappings: Sequence[str] = ("de", "acm", "bc"),
    scale: ExperimentScale = SCALE_FAST,
    seed: int = 1,
    use_runtime: Optional[bool] = None,
    max_workers: Optional[int] = 1,
) -> VariationStudyResult:
    """Reproduce the Fig. 6 device-variation study.

    For every precision in ``bits`` and every mapping, the network is trained
    once and then evaluated under every sigma in ``sigmas`` with
    ``scale.variation_samples`` independent variation draws per point.  The
    evaluation goes through the compiled inference runtime by default
    (``use_runtime=None`` falls back to eager when the model cannot be
    compiled; ``False`` forces the eager reference path).

    The (bits, mapping) cells share nothing — each regenerates its
    deterministic dataset and trains from ``seed`` — so ``max_workers``
    above 1 trains them over a process pool (``None`` = one worker per
    core) and returns a bit-identical result.  Workers are spawned, so a
    script that sets ``max_workers`` must guard its entry point with
    ``if __name__ == "__main__"``.
    """
    cells = [(precision, mapping) for precision in bits for mapping in mappings]
    result = VariationStudyResult(
        network=network, bits=list(bits), sigmas=[float(s) for s in sigmas]
    )
    run_cell = functools.partial(
        _train_and_sweep, network=network, sigmas=result.sigmas, scale=scale,
        seed=seed, use_runtime=use_runtime,
    )
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers <= 1 or len(cells) <= 1:
        sweeps = list(map(run_cell, cells))
    else:
        with ProcessPoolExecutor(
            max_workers=min(max_workers, len(cells)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as executor:
            sweeps = list(executor.map(run_cell, cells))
    for (precision, mapping), sweep in zip(cells, sweeps):
        result.accuracy.setdefault(precision, {})[mapping] = list(sweep.mean_accuracy)
        result.sweeps.setdefault(precision, {})[mapping] = sweep
    return result


def _train_and_sweep(
    cell: Tuple[Optional[int], str],
    network: str,
    sigmas: List[float],
    scale: ExperimentScale,
    seed: int,
    use_runtime: Optional[bool],
) -> VariationSweepResult:
    """Train one (bits, mapping) cell and sweep it over ``sigmas``.

    Module-level so it pickles into :class:`ProcessPoolExecutor` workers.
    """
    precision, mapping = cell
    train_set, test_set = dataset_for(network, scale)
    model = model_for(network, mapping, quantizer_bits=precision, scale=scale, seed=seed)
    config = TrainingConfig(
        epochs=scale.epochs,
        batch_size=scale.batch_size,
        lr=scale.lr,
        activation_bits=8,
        seed=seed,
    )
    Trainer(model, train_set, test_set, config).fit()
    return variation_sweep(
        model,
        test_set,
        sigmas=sigmas,
        num_samples=scale.variation_samples,
        seed=seed,
        use_runtime=use_runtime,
    )
