"""Device-to-device variation model.

Following the paper (Section IV, Fig. 4b), programmed conductances deviate
from their target value by zero-mean Gaussian noise whose standard deviation
is expressed as a percentage of the conductance range.  Variation is applied
*after* training, to the deployed weights, and inference accuracy is then
evaluated without retraining — exactly the protocol of the paper's Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.xbar.quantization import ConductanceRange


@dataclass
class DeviceVariationModel:
    """Zero-mean Gaussian conductance variation.

    The model only adds noise; clipping the perturbed conductances back into
    ``[Gmin, Gmax]`` is part of realising them on the devices (the
    quantiser's snap, or an explicit clip), which every caller does once.

    Attributes
    ----------
    sigma_fraction:
        Standard deviation of the perturbation, as a fraction of the
        conductance range span (the paper sweeps 0 to 25 %).
    range:
        Conductance range whose span scales the perturbation.
    """

    sigma_fraction: float = 0.0
    range: ConductanceRange = ConductanceRange()

    def __post_init__(self) -> None:
        if self.sigma_fraction < 0:
            raise ValueError("sigma_fraction must be non-negative")

    @property
    def sigma_absolute(self) -> float:
        """The perturbation standard deviation in conductance units."""
        return self.sigma_fraction * self.range.span

    def perturb(
        self,
        conductances: np.ndarray,
        num_samples: int,
        rng: Optional[np.random.Generator] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw ``num_samples`` independent perturbations in one stacked array.

        Returns an array of shape ``(num_samples,) + conductances.shape``.
        The normal draw fills the stack sample by sample, so ``[0]`` of a
        one-sample stack is bit-identical to an unstacked draw from the same
        generator state; the Monte-Carlo engine evaluates all draws of a
        sigma point with one batched pass.

        ``out``, a float64 C-contiguous array of that shape, receives the
        stack instead of a fresh allocation (the Monte-Carlo engine reuses
        one chunk buffer across a draw).  It is filled with standard normals,
        scaled and shifted in place: bitwise the same values as
        ``rng.normal(0.0, sigma) + conductances``, whose ``0.0 + sigma * z``
        adds nothing.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        conductances = np.asarray(conductances, dtype=np.float64)
        shape = (num_samples,) + conductances.shape
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        if self.sigma_fraction == 0.0:
            out[...] = conductances
            return out
        rng = rng if rng is not None else np.random.default_rng()
        rng.standard_normal(out=out)
        out *= self.sigma_absolute
        out += conductances
        return out
