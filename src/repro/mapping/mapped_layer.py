"""Crossbar-mapped dense and convolutional layers.

A mapped layer stores the non-negative crossbar matrix ``M`` (one row per
physical crossbar column) as its trainable parameter and applies the fixed
periphery matrix ``S`` of the chosen mapping, so that the layer's effective
signed weight is ``W = S @ M``.  Training therefore happens directly in the
mapped parameterisation, exactly as in the paper: ``M`` is kept non-negative
(projected SGD), optionally quantised to the device precision with a
straight-through estimator, and optionally updated through a non-linear
device update rule (see :class:`repro.optim.SGD`).

The BC mapping's reference column is a physical column whose devices are
*fixed* at the mid-range conductance; it is stored as a non-trainable buffer
and concatenated to the trainable part in the forward pass.  Being a real
column of devices, it is still subject to device variation at inference time.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.mapping.periphery import PeripheryMatrix, periphery_for
from repro.nn.module import Module, Parameter
from repro.nn import init
from repro.tensor import Tensor, functional, is_grad_enabled
from repro.xbar.quantization import ConductanceRange, UniformQuantizer
from repro.xbar.variation import DeviceVariationModel


def _default_weight_scale(fan_in: int) -> float:
    """Conductance full-scale used when the caller does not specify one.

    The scale is chosen so that the BC mapping (whose representable weight
    range is half the conductance span) covers exactly the Kaiming-uniform
    initialisation interval, while DE and ACM get twice that range — the same
    relative relationship the paper describes for a device range [0, Gmax].
    """
    return 2.0 * math.sqrt(6.0 / fan_in)


class _MappedBase(Module):
    """Shared machinery for the mapped dense and convolutional layers."""

    def __init__(
        self,
        num_outputs: int,
        fan_in: int,
        mapping: str,
        weight_scale: Optional[float],
        quantizer_bits: Optional[int],
        rng: Optional[np.random.Generator],
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.mapping = mapping.lower()
        self.num_outputs = num_outputs
        self.fan_in = fan_in
        scale = weight_scale if weight_scale is not None else _default_weight_scale(fan_in)
        if scale <= 0:
            raise ValueError("weight_scale must be positive")
        self.conductance_range = ConductanceRange(0.0, scale)
        self.periphery: PeripheryMatrix = periphery_for(self.mapping, num_outputs)
        self.quantizer: Optional[UniformQuantizer] = None
        if quantizer_bits is not None:
            self.quantizer = UniformQuantizer(quantizer_bits, self.conductance_range)

        signed_init = init.kaiming_uniform((num_outputs, fan_in), rng)
        crossbar_init = self._initial_crossbar_matrix(signed_init, rng)

        if self.mapping == "bc":
            # The trainable part excludes the fixed reference column.  The
            # reference devices are programmed to the mid-range conductance,
            # or to the nearest representable device state when the devices
            # are quantised.
            reference_value = self.conductance_range.midpoint
            if self.quantizer is not None:
                reference_value = float(self.quantizer.snap(np.array([reference_value]))[0])
            self.crossbar = Parameter(
                crossbar_init[:num_outputs], constraint="non_negative", name="crossbar"
            )
            self.register_buffer("reference_column", np.full((1, fan_in), reference_value))
        else:
            self.crossbar = Parameter(
                crossbar_init, constraint="non_negative", name="crossbar"
            )

        #: Variation model applied at inference time (None = ideal devices).
        self.variation: Optional[DeviceVariationModel] = None
        # Spawn the variation stream off the initialisation generator: a
        # seeded model gets reproducible variation draws by default, and
        # spawning does not advance the parent stream, so initial weights are
        # unchanged relative to not having a variation stream at all.
        self._variation_rng = self._spawn_variation_rng(rng)
        self._effective_weight_cache: Optional[Tensor] = None

    @staticmethod
    def _spawn_variation_rng(rng: np.random.Generator) -> np.random.Generator:
        try:
            return rng.spawn(1)[0]
        except (AttributeError, TypeError, ValueError):  # pragma: no cover
            # Generators wrapping bit generators without a seed sequence
            # cannot spawn; fall back to an independent unseeded stream.
            return np.random.default_rng()

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #
    def _initial_crossbar_matrix(
        self, signed_weight: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Map a signed initial weight matrix into the crossbar parameterisation.

        DE and BC admit an exact, clip-free decomposition of the Kaiming
        initialisation, so that is used directly.  For ACM (and any general
        chained periphery matrix) the exact decomposition of a random signed
        matrix is a random walk along the column chain whose range exceeds the
        conductance window for wide layers; clipping it would leave a large
        fraction of devices pinned at the range boundaries and destabilise
        quantised training.  ACM layers are therefore initialised directly in
        the mapped parameterisation: conductances are drawn uniformly from the
        central half of the device range, which yields zero-mean,
        triangular-distributed effective weights with full headroom on every
        device.
        """
        g_max = self.conductance_range.g_max
        midpoint = self.conductance_range.midpoint
        if self.mapping == "bc":
            # The reference devices sit at mid-range conductance; with a
            # quantiser present they are programmed to the nearest device
            # state, and the free columns are initialised relative to that
            # *realised* reference so initial weights remain zero-centred.
            reference_value = midpoint
            if self.quantizer is not None:
                reference_value = float(self.quantizer.snap(np.array([midpoint]))[0])
            free = np.clip(signed_weight + reference_value, 0.0, g_max)
            reference = np.full((1, signed_weight.shape[1]), midpoint)
            return np.concatenate([free, reference], axis=0)
        if self.mapping == "de":
            positive = np.clip(signed_weight, 0.0, g_max)
            negative = np.clip(-signed_weight, 0.0, g_max)
            stacked = np.empty((2 * signed_weight.shape[0], signed_weight.shape[1]))
            stacked[0::2] = positive
            stacked[1::2] = negative
            return stacked
        # ACM and other chained peripheries: direct device-range-aware init.
        num_columns = self.periphery.num_columns
        return rng.uniform(
            0.25 * g_max, 0.75 * g_max, size=(num_columns, signed_weight.shape[1])
        )

    # ------------------------------------------------------------------ #
    # Effective weights
    # ------------------------------------------------------------------ #
    def _crossbar_tensor(self) -> Tensor:
        """The realised crossbar matrix (trainable + fixed rows) as a tensor.

        Any inference-time variation is drawn first; the conductances are
        then clipped into the device range once — by the quantiser's
        straight-through snap, or by a plain clip for full-precision devices.
        """
        if self.mapping == "bc":
            reference = Tensor(self.reference_column)
            full = Tensor.concatenate([self.crossbar, reference], axis=0)
        else:
            full = self.crossbar
        if self.variation is not None and not self.training:
            full = Tensor(self.variation.perturb(full.data, 1, self._variation_rng)[0])
        if self.quantizer is not None:
            return self.quantizer.quantize_ste(full)
        return full.clip(self.conductance_range.g_min, self.conductance_range.g_max)

    def _cache_usable(self) -> bool:
        """Whether the effective weight is a constant that may be memoised.

        Only in eval mode, with no variation active and gradients globally
        disabled, is the effective weight a pure function of the stored
        conductances; anything else (training, STE gradients, per-forward
        variation draws) must rebuild it.
        """
        return not self.training and self.variation is None and not is_grad_enabled()

    def _invalidate_cache(self) -> None:
        self._effective_weight_cache = None

    def effective_weight_tensor(self) -> Tensor:
        """The signed weight ``W = S @ M`` as a differentiable tensor.

        In eval mode with no variation active (and gradients disabled) the
        realized weight is cached, so repeated inference batches stop paying
        the periphery matmul and re-quantisation; the cache is dropped on
        mode switches, :meth:`set_variation`, :meth:`clip_conductances` and
        :meth:`~repro.nn.module.Module.load_state_dict`.
        """
        if self._cache_usable():
            if self._effective_weight_cache is None:
                periphery = Tensor(self.periphery.matrix)
                self._effective_weight_cache = periphery.matmul(self._crossbar_tensor())
            return self._effective_weight_cache
        periphery = Tensor(self.periphery.matrix)
        return periphery.matmul(self._crossbar_tensor())

    def effective_weight(self) -> np.ndarray:
        """The signed weight matrix currently realised by the layer (NumPy copy)."""
        return self.effective_weight_tensor().data.copy()

    def conductances(self) -> np.ndarray:
        """The non-negative crossbar matrix including any fixed reference rows."""
        if self.mapping == "bc":
            return np.concatenate([self.crossbar.data, self.reference_column], axis=0).copy()
        return self.crossbar.data.copy()

    @property
    def num_crossbar_columns(self) -> int:
        """Number of physical crossbar columns used by this layer (``ND``)."""
        return self.periphery.num_columns

    @property
    def num_devices(self) -> int:
        """Total number of synapse devices used by this layer."""
        return self.num_crossbar_columns * self.fan_in

    # ------------------------------------------------------------------ #
    # Device variation control (used by evaluation under variation)
    # ------------------------------------------------------------------ #
    def set_variation(
        self,
        sigma_fraction: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Enable (or disable with 0.0) device variation for inference."""
        self._invalidate_cache()
        if sigma_fraction == 0.0:
            self.variation = None
            return
        self.variation = DeviceVariationModel(
            sigma_fraction=sigma_fraction, range=self.conductance_range
        )
        if rng is not None:
            self._variation_rng = rng

    def clip_conductances(self) -> None:
        """Project the trainable crossbar matrix into the device range in place."""
        self._invalidate_cache()
        np.clip(
            self.crossbar.data,
            self.conductance_range.g_min,
            self.conductance_range.g_max,
            out=self.crossbar.data,
        )


class MappedLinear(_MappedBase):
    """Fully-connected layer realised on a non-negative crossbar array.

    Parameters
    ----------
    in_features, out_features:
        Logical layer dimensions (signed weight is ``out_features x in_features``).
    mapping:
        ``"acm"``, ``"de"`` or ``"bc"``.
    bias:
        Whether to add a digital (periphery) bias; the bias is not stored on
        the crossbar and is unaffected by device non-idealities.
    weight_scale:
        Conductance full scale ``Gmax``; defaults to twice the Kaiming bound.
    quantizer_bits:
        Device precision in bits; ``None`` trains with full-precision
        conductances (the paper's FP32 case).
    rng:
        Random generator for initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        mapping: str = "acm",
        bias: bool = True,
        weight_scale: Optional[float] = None,
        quantizer_bits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        super().__init__(
            num_outputs=out_features,
            fan_in=in_features,
            mapping=mapping,
            weight_scale=weight_scale,
            quantizer_bits=quantizer_bits,
            rng=rng,
        )
        self.in_features = in_features
        self.out_features = out_features
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            generator = rng if rng is not None else np.random.default_rng()
            self.bias: Optional[Parameter] = Parameter(
                init.uniform((out_features,), -bound, bound, generator), name="bias"
            )
        else:
            self.bias = None

    def forward(self, inputs: Tensor) -> Tensor:
        weight = self.effective_weight_tensor()
        output = inputs.matmul(weight.T)
        if self.bias is not None:
            output = output + self.bias
        return output


class MappedConv2d(_MappedBase):
    """2-D convolution realised on a non-negative crossbar array.

    The flattened kernel matrix (``out_channels x in_channels*kh*kw``) is the
    signed weight that gets factored through the periphery matrix; the
    convolution itself is lowered to a matrix product against the crossbar
    (im2col), which matches how crossbar accelerators execute convolutions.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        mapping: str = "acm",
        bias: bool = True,
        weight_scale: Optional[float] = None,
        quantizer_bits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        fan_in = in_channels * kernel_size * kernel_size
        super().__init__(
            num_outputs=out_channels,
            fan_in=fan_in,
            mapping=mapping,
            weight_scale=weight_scale,
            quantizer_bits=quantizer_bits,
            rng=rng,
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        if bias:
            bound = 1.0 / math.sqrt(fan_in)
            generator = rng if rng is not None else np.random.default_rng()
            self.bias: Optional[Parameter] = Parameter(
                init.uniform((out_channels,), -bound, bound, generator), name="bias"
            )
        else:
            self.bias = None

    def forward(self, inputs: Tensor) -> Tensor:
        weight = self.effective_weight_tensor()
        return functional.conv2d_from_matrix(
            inputs,
            weight,
            kernel_shape=(self.in_channels, self.kernel_size, self.kernel_size),
            bias=self.bias,
            stride=self.stride,
            padding=self.padding,
        )
