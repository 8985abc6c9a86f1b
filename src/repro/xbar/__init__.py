"""Crossbar-array device models.

This package models the device non-idealities studied in the paper's
evaluation (Section IV):

* **Limited weight precision** — synapse conductances can only take ``2^B``
  discrete states in a range ``[Gmin, Gmax]`` (:mod:`repro.xbar.quantization`;
  its ``UniformQuantizer`` is the only code that maps a conductance to a
  device state).
* **Non-linear weight update** — a potentiation/depression pulse changes the
  conductance by a state-dependent amount; the paper assumes symmetric
  up/down non-linearity (:mod:`repro.xbar.device`).
* **Device variation** — programmed conductances deviate from their targets
  by zero-mean Gaussian noise (:mod:`repro.xbar.variation`); the model only
  adds the noise, and realising the result clips it into the range.
* **Array organisation** — large matrices are tiled over fixed-size crossbar
  arrays; :mod:`repro.xbar.crossbar` models programming and analog readout of
  a tile, and computes the tile counts used by the hardware cost model.
"""

from repro.xbar.quantization import ConductanceRange, UniformQuantizer
from repro.xbar.device import (
    DeviceModel,
    LinearDevice,
    NonlinearDevice,
    NonlinearUpdateRule,
    LinearUpdateRule,
)
from repro.xbar.variation import DeviceVariationModel
from repro.xbar.crossbar import CrossbarArray, CrossbarTiling

__all__ = [
    "ConductanceRange",
    "UniformQuantizer",
    "DeviceModel",
    "LinearDevice",
    "NonlinearDevice",
    "NonlinearUpdateRule",
    "LinearUpdateRule",
    "DeviceVariationModel",
    "CrossbarArray",
    "CrossbarTiling",
]
