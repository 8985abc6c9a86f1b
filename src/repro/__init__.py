"""Reproduction of the DAC 2020 paper on device-non-ideality-resilient mapping
of neural networks to crossbar arrays (Kazemi et al.).

The package is organised as a stack of substrates topped by the paper's core
contribution:

``repro.tensor``
    A reverse-mode automatic-differentiation engine on top of NumPy.
``repro.nn`` / ``repro.optim``
    Neural-network layers, losses, and SGD-family optimisers built on the
    autograd engine (the TensorFlow substitute used by the paper).
``repro.data``
    Synthetic, deterministic MNIST-like and CIFAR-like classification tasks
    (the datasets themselves cannot be downloaded in this environment).
``repro.xbar``
    Crossbar-array device models: conductance quantisation, symmetric
    non-linear weight update, Gaussian device variation, and array tiling.
``repro.mapping``
    The paper's core contribution: periphery matrices (ACM, DE, BC), the
    ``W = S @ M`` decomposition with its sufficient conditions, and mapped
    (non-negative) layers usable inside any network.
``repro.models``
    LeNet, VGG-9, ResNet-20 and MLP factories, in baseline or mapped form.
``repro.train``
    Training loops with quantisation / non-linear-update hooks, and inference
    evaluation under device variation.
``repro.runtime``
    Compile-once / run-many inference: trained models are frozen into
    serialisable execution plans (realized effective weights, pure-NumPy
    ops) and the Fig. 6 variation protocol runs as a vectorized Monte-Carlo
    sweep over the plan.
``repro.serve``
    The plan-serving subsystem: a multi-model plan registry (a catalogue
    with content digests), a work-conserving micro-batching scheduler, and
    an inference service with deterministic and variation-ensemble requests
    that loads each served plan once.
``repro.api``
    The unified typed client layer over the serving stack: one ``Client``
    protocol with interchangeable in-process, HTTP, and cluster backends
    (``repro.api.connect("local:DIR" | "http://host:port" |
    "cluster:DIR?workers=N")``), shared request/response dataclasses, and
    a typed error hierarchy with stable machine-readable codes.
``repro.hardware``
    A NeuroSim-style analytical area/energy/delay estimator used to reproduce
    the paper's Table I.
``repro.experiments``
    One driver per paper figure/table (Fig. 5a-h, Fig. 6, Table I).
"""

from repro.tensor import Tensor
from repro.mapping import (
    PeripheryMatrix,
    acm_periphery,
    bc_periphery,
    de_periphery,
    decompose,
    MappedLinear,
    MappedConv2d,
)
from repro.runtime import InferencePlan, compile_model, try_compile

__version__ = "1.1.0"

__all__ = [
    "Tensor",
    "PeripheryMatrix",
    "acm_periphery",
    "bc_periphery",
    "de_periphery",
    "decompose",
    "MappedLinear",
    "MappedConv2d",
    "InferencePlan",
    "compile_model",
    "try_compile",
    "__version__",
]
