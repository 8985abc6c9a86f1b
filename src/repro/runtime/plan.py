"""Frozen execution plans for compiled inference.

An :class:`InferencePlan` is the immutable artifact produced by compiling a
trained :class:`~repro.nn.module.Module` for inference
(:func:`repro.runtime.engine.compile_model`).  Every weight-bearing layer is
lowered to a *realized* effective-weight ndarray — the periphery matrix is
applied once and the device quantisation is applied once — together with a
pure-NumPy op (matmul, tap-major conv, activation, pooling, normalisation).
Executing a plan therefore pays none of the training-time costs: no autograd
graph, no per-batch ``W = S @ M`` rebuild, no per-batch re-quantisation.

Convolutions lower *tap-major*: the input becomes ``(C·kh·kw, N·oh·ow)``
columns, one strided slice copy per kernel tap, and the GEMM is
``W @ columns`` (the unrolled-GEMM convolution of Chellapilla et al., 2006,
with the operands swapped).  The GEMM's ``(C_out, N, oh, ow)`` block is
returned as an NCHW transpose view, so activations stay channel-major in
memory through the elementwise and pooling ops.  The eager layers keep the
row-major :func:`~repro.tensor.functional.im2col`, so trained weights do
not depend on the plan's lowering.

Crossbar-backed ops additionally keep a :class:`CrossbarSpec` — the raw
programmed conductances, periphery matrix and device model — so the
Monte-Carlo engine (:mod:`repro.runtime.montecarlo`) can redraw device
variation without recompiling, reproducing exactly what the eager layers do
at inference time: perturb the raw conductances, clip them to the device
range, re-quantise, then apply the periphery.

Plans are serialisable (:meth:`InferencePlan.save` /
:meth:`InferencePlan.load`), which makes them a self-contained deployment
unit: the file holds every array and op attribute needed to serve the model,
independent of the module tree that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.tensor.functional import conv_output_size
from repro.xbar.quantization import ConductanceRange, UniformQuantizer
from repro.xbar.variation import DeviceVariationModel


class PlanCompilationError(Exception):
    """Raised when a module cannot be lowered to an inference plan."""


#: Float64 bytes of perturbed conductances one chunk of a Monte-Carlo draw
#: realises at a time (:meth:`CrossbarSpec.sample_weights`).
_DRAW_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------- #
# Crossbar freeze artifact
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CrossbarSpec:
    """The physical-device description frozen out of one mapped layer.

    Attributes
    ----------
    conductances:
        The raw programmed crossbar matrix ``M`` of shape ``(ND, NI)``,
        including any fixed reference rows (BC), *before* clipping and
        quantisation — variation is applied to these raw values, exactly as
        the eager layer does.
    periphery:
        The fixed signed periphery matrix ``S`` of shape ``(NO, ND)``.
    g_min, g_max:
        Device conductance range.
    quantizer_bits:
        Device precision; ``None`` for full-precision conductances.
    """

    conductances: np.ndarray
    periphery: np.ndarray
    g_min: float
    g_max: float
    quantizer_bits: Optional[int] = None

    @property
    def range(self) -> ConductanceRange:
        return ConductanceRange(self.g_min, self.g_max)

    @cached_property
    def quantizer(self) -> Optional[UniformQuantizer]:
        if self.quantizer_bits is None:
            return None
        return UniformQuantizer(self.quantizer_bits, self.range)

    def finalize(self, conductances: np.ndarray) -> np.ndarray:
        """Clip (and quantise, if the devices are discrete) conductances.

        This is the device-realisation step the eager layers apply on every
        forward pass; the plan applies it once at compile time and once per
        Monte-Carlo draw.
        """
        return self._realize(np.array(conductances, dtype=np.float64))

    def _realize(self, values: np.ndarray) -> np.ndarray:
        """:meth:`finalize` in place on a float64 buffer; returns it."""
        quantizer = self.quantizer
        if quantizer is None:
            return np.clip(values, self.g_min, self.g_max, out=values)
        # mode="clip" only stops np.take from staging the gather in a
        # temporary; every state index is in range.
        return np.take(
            quantizer.levels, quantizer.state_index(values), out=values, mode="clip"
        )

    def base_weight(self) -> np.ndarray:
        """The realized effective signed weight ``W = S @ finalize(M)``."""
        return self.periphery @ self.finalize(self.conductances)

    def sample_weights(
        self, sigma_fraction: float, num_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``num_samples`` variation-perturbed effective weights at once.

        Returns a stacked array of shape ``(num_samples, NO, NI)``.  Each
        sample perturbs the raw conductances with zero-mean Gaussian noise,
        clips back into the device range, re-quantises, and applies the
        periphery matrix — the same pipeline the eager layer runs per batch,
        vectorised over samples.

        The stack is realised in chunks of samples sized by
        :data:`_DRAW_CHUNK_BYTES`.  One chunk workspace is allocated per
        call: each chunk's noise is drawn into it, realised in place, and
        multiplied by the periphery straight into the preallocated output,
        so the peak memory is the returned stack plus one workspace and the
        snap's temporaries.  Successive normal draws continue one generator
        stream and each sample's matmul is independent, so the result is
        bit-identical to realising all samples at once.
        """
        variation = DeviceVariationModel(
            sigma_fraction=sigma_fraction, range=self.range
        )
        out = np.empty(
            (num_samples, self.periphery.shape[0], self.conductances.shape[1])
        )
        chunk = max(1, _DRAW_CHUNK_BYTES // (self.conductances.size * 8))
        workspace = np.empty((min(chunk, num_samples),) + self.conductances.shape)
        for start in range(0, num_samples, chunk):
            stop = min(start + chunk, num_samples)
            noisy = variation.perturb(
                self.conductances, stop - start, rng, out=workspace[:stop - start]
            )
            np.matmul(self.periphery, self._realize(noisy), out=out[start:stop])
        return out


# ---------------------------------------------------------------------- #
# Plan ops
# ---------------------------------------------------------------------- #
@dataclass
class PlanOp:
    """Base class: one pure-NumPy operation of the frozen program.

    ``inputs`` are value-slot indices and ``output`` is the slot this op
    writes.  ``leading_dims_safe`` marks ops whose computation broadcasts
    over arbitrary leading axes, which the Monte-Carlo engine uses to run
    sample-stacked values without reshaping.
    """

    inputs: Tuple[int, ...] = (0,)
    output: int = 0

    leading_dims_safe = False

    def run(self, *values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given per-sample input shapes (no batch axis).

        The default covers every shape-preserving op (activations,
        normalisation, elementwise addition); shape-changing ops override it.
        Symbolic propagation lets the plan cache its layer geometry without
        ever pushing a sample through the program.
        """
        return shapes[0]


@dataclass
class DenseOp(PlanOp):
    """``y = x @ W.T + b`` with a frozen effective weight."""

    weight: np.ndarray = None
    bias: Optional[np.ndarray] = None
    spec: Optional[CrossbarSpec] = None

    leading_dims_safe = True  # matmul broadcasts over leading axes

    def run(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
        if self.bias is not None:
            out += self.bias
        return out

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = shapes[0]
        if shape[-1] != self.weight.shape[1]:
            raise ValueError(
                f"input has {shape[-1]} features but the frozen weight expects "
                f"{self.weight.shape[1]}"
            )
        return shape[:-1] + (self.weight.shape[0],)

    def run_sampled(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Apply per-sample weights ``(S, NO, NI)``; returns ``(S, B, NO)``.

        Implemented as a batched BLAS matmul over the sample axis; a
        sample-invariant input broadcasts against the weight stack.
        """
        out = np.matmul(x, weights.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias
        return out


@dataclass
class ConvOp(PlanOp):
    """Tap-major convolution against a frozen ``(C_out, C_in*kh*kw)`` matrix.

    The input is lowered to tap-major columns ``(C·kh·kw, N·oh·ow)`` by
    :func:`_tap_columns` and multiplied as ``weight @ columns``, so the
    GEMM writes a channel-major ``(C_out, N, oh, ow)`` block.  The NCHW
    result is a transpose *view* of that block: activations stay
    channel-major in memory through the elementwise and pooling ops, and
    the next conv's lowering reads its channels as contiguous planes.
    """

    weight: np.ndarray = None
    bias: Optional[np.ndarray] = None
    kernel_shape: Tuple[int, int, int] = (1, 1, 1)  # (C_in, kh, kw)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    spec: Optional[CrossbarSpec] = None

    def _geometry(self, height: int, width: int) -> Tuple[int, int]:
        _, kernel_h, kernel_w = self.kernel_shape
        out_h = conv_output_size(height, kernel_h, self.stride[0], self.padding[0])
        out_w = conv_output_size(width, kernel_w, self.stride[1], self.padding[1])
        return out_h, out_w

    def _check_channels(self, channels: int) -> None:
        if channels != self.kernel_shape[0]:
            raise ValueError(
                f"input has {channels} channels but the frozen kernel expects "
                f"{self.kernel_shape[0]}"
            )

    def _gemm(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """The bias-free ``(..., C_out, N, oh, ow)`` block ``weight @ columns``
        over any leading axes of ``x`` and ``weight``.

        The columns are freed on return, before any epilogue runs.
        """
        self._check_channels(x.shape[-3])
        out_h, out_w = self._geometry(*x.shape[-2:])
        columns = _tap_columns(
            x, self.kernel_shape[1:], self.stride, self.padding, (out_h, out_w)
        )
        out = np.matmul(weight, columns)
        return out.reshape(out.shape[:-1] + (x.shape[-4], out_h, out_w))

    def _add_bias(self, block: np.ndarray) -> None:
        if self.bias is not None:
            block += self.bias[:, None, None, None]

    def _convolve(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        block = self._gemm(x, weight)
        self._add_bias(block)
        return np.swapaxes(block, -3, -4)

    def run_relu_maxpool(
        self, x: np.ndarray, pool: "MaxPoolOp", weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``pool.run(relu(conv(x)))`` with the epilogue on the pooled block.

        The raw GEMM block is max-pooled first, then the bias and ReLU are
        applied in place to the pooled quarter.  This is bitwise the op-by-op
        chain: rounding ``x + b`` is monotone, so the window maximum of the
        biased values is the biased window maximum, and ReLU commutes with
        max.  A NaN propagates from the same window element either way, and
        ``np.maximum(x, 0.0)`` gives ``+0.0`` for ``-0.0`` as for every
        negative ``x``, so a zero maximum's sign cannot differ either
        (``TestConvLoweringFuzz`` pins all of this bit for bit).
        ``weight`` defaults to the frozen weight; a ``(S, C_out, K)`` stack
        runs the sampled form.
        """
        block = self._gemm(x, self.weight if weight is None else weight)
        (kh, kw), (sh, sw) = pool.kernel, pool.stride
        out_h = conv_output_size(block.shape[-2], kh, sh, 0)
        out_w = conv_output_size(block.shape[-1], kw, sw, 0)
        # The block is private, so the column pass may write into it when
        # its taps do not overlap; only the pooled quarter is allocated.
        rows = _max_taps(block, kw, sw, out_w, -1, in_place=kw <= sw)
        pooled = _max_taps(rows, kh, sh, out_h, -2)
        self._add_bias(pooled)
        np.maximum(pooled, 0.0, out=pooled)
        return np.swapaxes(pooled, -3, -4)

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._convolve(x, self.weight)

    def run_sampled(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Apply per-sample kernels ``(S, C_out, K)``; returns 5-D output.

        The sample axis rides through the lowering as a leading axis.  When
        the input is still sample-invariant (the layers before the first
        crossbar layer), the columns are built once and broadcast against
        the weight stack, so the sample axis appears only in the matmul.
        """
        return self._convolve(x, weights)

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = shapes[0]
        self._check_channels(channels)
        out_h, out_w = self._geometry(height, width)
        return (self.weight.shape[0], out_h, out_w)


def _tap_columns(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """Lower ``(..., N, C, H, W)`` to tap-major columns ``(..., C·kh·kw, N·oh·ow)``.

    One copy pads the input and moves its channels ahead of the batch;
    then each of the ``kh * kw`` taps fills its ``(..., C, N, oh, ow)``
    slot of a ``(..., C, kh, kw, N, oh, ow)`` buffer with one strided 2-D
    slice copy.  The buffer reshapes to the columns for free, and row
    ``c·kh·kw + y·kw + z`` matches the weight matrix's channel-major column
    order.  Each tap moves whole ``oh × ow`` planes, where a row-major
    ``(N·oh·ow, C·kh·kw)`` layout gathers ``C·kh·kw`` scattered elements per
    output pixel.  Leading axes (a Monte-Carlo sample axis) pass through.
    """
    *leading, batch, channels, height, width = x.shape
    leading = tuple(leading)
    (kernel_h, kernel_w), (stride_h, stride_w) = kernel, stride
    pad_h, pad_w = padding
    out_h, out_w = out_size
    source = np.swapaxes(x, -3, -4)  # (..., C, N, H, W), a view
    if pad_h or pad_w:
        padded = np.zeros(
            leading + (channels, batch, height + 2 * pad_h, width + 2 * pad_w),
            dtype=x.dtype,
        )
        padded[..., pad_h:pad_h + height, pad_w:pad_w + width] = source
        source = padded
    columns = np.empty(
        leading + (channels, kernel_h, kernel_w, batch, out_h, out_w), dtype=x.dtype
    )
    for y in range(kernel_h):
        for z in range(kernel_w):
            columns[..., y, z, :, :, :] = source[
                ..., y:y + stride_h * out_h:stride_h, z:z + stride_w * out_w:stride_w
            ]
    return columns.reshape(
        leading + (channels * kernel_h * kernel_w, batch * out_h * out_w)
    )


@dataclass
class ActivationOp(PlanOp):
    """Elementwise activation (``relu`` / ``tanh`` / ``sigmoid`` / ``softmax``)."""

    kind: str = "relu"

    leading_dims_safe = True

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "sigmoid":
            return 1.0 / (1.0 + np.exp(-x))
        if self.kind == "softmax":
            shifted = x - x.max(axis=-1, keepdims=True)
            exponentials = np.exp(shifted)
            return exponentials / exponentials.sum(axis=-1, keepdims=True)
        raise ValueError(f"unknown activation kind {self.kind!r}")


@dataclass
class BatchNormOp(PlanOp):
    """Frozen batch normalisation using the module's running statistics.

    ``param_shape`` re-creates the broadcast the eager layer uses in eval
    mode, expressed with *trailing* axes only so the op is agnostic to any
    leading batch/sample axes: ``(-1, 1, 1)`` for 2-D feature maps and
    ``(-1,)`` for flat features.
    """

    mean: np.ndarray = None
    var: np.ndarray = None
    gamma: np.ndarray = None
    beta: np.ndarray = None
    eps: float = 1e-5
    param_shape: Tuple[int, ...] = (-1,)

    leading_dims_safe = True

    def run(self, x: np.ndarray) -> np.ndarray:
        shape = self.param_shape
        mean = self.mean.reshape(shape)
        var = self.var.reshape(shape)
        normalised = (x - mean) / (var + self.eps) ** 0.5
        return normalised * self.gamma.reshape(shape) + self.beta.reshape(shape)


@dataclass
class MaxPoolOp(PlanOp):
    """Max pooling over the trailing ``(H, W)`` axes of ``(..., C, H, W)``."""

    kernel: Tuple[int, int] = (2, 2)
    stride: Tuple[int, int] = (2, 2)

    leading_dims_safe = True

    def run(self, x: np.ndarray) -> np.ndarray:
        return _pool(x, self.kernel, self.stride, reducer="max")

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        return _pool_shape(shapes[0], self.kernel, self.stride)


@dataclass
class AvgPoolOp(PlanOp):
    """Average pooling over the trailing ``(H, W)`` axes of ``(..., C, H, W)``."""

    kernel: Tuple[int, int] = (2, 2)
    stride: Tuple[int, int] = (2, 2)

    leading_dims_safe = True

    def run(self, x: np.ndarray) -> np.ndarray:
        return _pool(x, self.kernel, self.stride, reducer="avg")

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        return _pool_shape(shapes[0], self.kernel, self.stride)


@dataclass
class GlobalAvgPoolOp(PlanOp):
    """Global average pooling, reducing ``(N, C, H, W)`` to ``(N, C)``."""

    def run(self, x: np.ndarray) -> np.ndarray:
        # A reduction follows its input's memory order, and so does the
        # layout of its result: a channel-major conv output would pool to an
        # F-ordered (N, C), which the next dense GEMM rounds differently from
        # the C-ordered rows it gets after the Monte-Carlo fold's contiguous
        # copy.  Reducing a contiguous array gives both paths the same sums
        # in the same layout, so sample k of a sampled run stays bitwise
        # ``plan.run``.
        return np.ascontiguousarray(x).mean(axis=(2, 3))

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        return (shapes[0][0],)


@dataclass
class FlattenOp(PlanOp):
    """Flatten all non-batch dimensions."""

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def infer_shape(self, *shapes: Tuple[int, ...]) -> Tuple[int, ...]:
        size = 1
        for extent in shapes[0]:
            size *= extent
        return (size,)


@dataclass
class AddOp(PlanOp):
    """Elementwise addition of two values (residual connections)."""

    leading_dims_safe = True

    def run(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y


def _pool(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    reducer: str,
) -> np.ndarray:
    """Pool over the two trailing axes with binary ufuncs on strided views.

    Max pooling is separable: it reduces each row's ``kw`` column taps,
    then the ``kh`` rows of that, so an overlapping window reads each input
    once per direction.  Max is exact in any order, and NaNs and ties pick
    the same element as a tap-by-tap fold.  Average pooling accumulates the
    ``kh * kw`` window slices in the eager ``avg_pool2d`` loop's order.
    Binary ufuncs over strided views beat both a materialised window
    tensor and an axis reduction by a wide margin.  Any leading axes — a batch, or
    a Monte-Carlo sample axis before it — pass through without being folded
    (and so copied) into one.
    """
    height, width = x.shape[-2:]
    out_h = conv_output_size(height, kernel[0], stride[0], 0)
    out_w = conv_output_size(width, kernel[1], stride[1], 0)
    if reducer == "max":
        rows = _max_taps(x, kernel[1], stride[1], out_w, axis=-1)
        return _max_taps(rows, kernel[0], stride[0], out_h, axis=-2)
    accumulated: Optional[np.ndarray] = None
    for y in range(kernel[0]):
        for z in range(kernel[1]):
            part = x[
                ..., y:y + stride[0] * out_h:stride[0], z:z + stride[1] * out_w:stride[1]
            ]
            if accumulated is None:
                accumulated = np.array(part, copy=True)
            else:
                accumulated += part
    return accumulated / (kernel[0] * kernel[1])


def _max_taps(
    x: np.ndarray, taps: int, stride: int, size: int, axis: int,
    in_place: bool = False,
) -> np.ndarray:
    """Max of ``taps`` strided slices of ``x`` along ``axis`` (-1 or -2).

    The result is a new array, or with ``in_place`` the first slice of
    ``x`` itself, which is only sound when no later slice reads what an
    earlier one overwrote (``taps <= stride``).
    """
    def tap(offset: int) -> np.ndarray:
        window = slice(offset, offset + stride * size, stride)
        return x[..., window] if axis == -1 else x[..., window, :]

    if in_place:
        accumulated, first = tap(0), 1
    elif taps == 1:
        return np.array(tap(0), copy=True)
    else:
        # The first two taps meet in one ufunc call rather than a copy of
        # the first and a pass over it.
        accumulated, first = np.maximum(tap(0), tap(1)), 2
    for offset in range(first, taps):
        np.maximum(accumulated, tap(offset), out=accumulated)
    return accumulated


@dataclass
class _ConvReluMaxPool:
    """One execution step for a ``ConvOp → relu → MaxPoolOp`` chain whose
    intermediate values have no other consumer (see
    :meth:`ConvOp.run_relu_maxpool`).  It stands in for the three ops in
    :meth:`InferencePlan.run` and the Monte-Carlo engine; ``plan.ops``
    keeps them."""

    conv: ConvOp
    pool: MaxPoolOp

    leading_dims_safe = False

    @property
    def inputs(self) -> Tuple[int, ...]:
        return self.conv.inputs

    @property
    def output(self) -> int:
        return self.pool.output

    def run(self, x: np.ndarray) -> np.ndarray:
        return self.conv.run_relu_maxpool(x, self.pool)

    def run_sampled(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return self.conv.run_relu_maxpool(x, self.pool, weights)


def _pool_shape(
    shape: Tuple[int, ...], kernel: Tuple[int, int], stride: Tuple[int, int]
) -> Tuple[int, ...]:
    channels, height, width = shape
    out_h = conv_output_size(height, kernel[0], stride[0], 0)
    out_w = conv_output_size(width, kernel[1], stride[1], 0)
    return (channels, out_h, out_w)


def _execution_steps(
    ops: List[PlanOp], readers: Dict[int, int], output: int
) -> List[Tuple[int, object]]:
    """``(index of first op, step)`` pairs covering ``ops`` in order.

    A step is an op, or a :class:`_ConvReluMaxPool` for three consecutive
    ops ``ConvOp → ActivationOp("relu") → MaxPoolOp`` whose two
    intermediate slots each have exactly one reader and are not the plan
    output.
    """
    steps: List[Tuple[int, object]] = []
    index = 0
    while index < len(ops):
        op, *chain = ops[index:index + 3]
        if (isinstance(op, ConvOp) and len(chain) == 2
                and isinstance(chain[0], ActivationOp) and chain[0].kind == "relu"
                and isinstance(chain[1], MaxPoolOp)
                and chain[0].inputs == (op.output,)
                and chain[1].inputs == (chain[0].output,)
                and all(readers.get(slot) == 1 and slot != output
                        for slot in (op.output, chain[0].output))):
            steps.append((index, _ConvReluMaxPool(op, chain[1])))
            index += 3
        else:
            steps.append((index, op))
            index += 1
    return steps


# ---------------------------------------------------------------------- #
# The plan itself
# ---------------------------------------------------------------------- #
@dataclass
class InferencePlan:
    """A frozen, immutable, serialisable inference program.

    ``ops`` execute in order over a flat value store; slot 0 is the network
    input and ``output`` is the slot holding the logits.  All arrays are
    plain ndarrays — executing a plan never touches the autograd engine.
    """

    ops: List[PlanOp] = field(default_factory=list)
    output: int = 0
    num_slots: int = 1
    source: str = ""
    input_shape: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.input_shape is not None:
            self.input_shape = tuple(int(extent) for extent in self.input_shape)
        # Last-use index per slot, so intermediate values free eagerly.
        self._last_use: Dict[int, int] = {}
        readers: Dict[int, int] = {}
        for index, op in enumerate(self.ops):
            for slot in op.inputs:
                self._last_use[slot] = index
                readers[slot] = readers.get(slot, 0) + 1
        self._steps = _execution_steps(self.ops, readers, self.output)
        self._shape_cache: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}

    @property
    def crossbar_ops(self) -> List[PlanOp]:
        """The ops backed by physical crossbar devices (variation targets)."""
        return [op for op in self.ops if getattr(op, "spec", None) is not None]

    @property
    def num_crossbar_layers(self) -> int:
        return len(self.crossbar_ops)

    def output_shapes(
        self, input_shape: Optional[Tuple[int, ...]] = None
    ) -> List[Tuple[int, ...]]:
        """Per-op output shapes (batch axis excluded), in program order.

        Shapes are propagated symbolically through :meth:`PlanOp.infer_shape`
        — no sample is executed — and memoised per input shape, so repeated
        lookups (hardware estimation, request validation) are free.  With no
        argument the shape captured at compile time is used.
        """
        if input_shape is None:
            input_shape = self.input_shape
        if input_shape is None:
            raise ValueError(
                "this plan has no compile-time input shape; pass input_shape "
                "explicitly"
            )
        key = tuple(int(extent) for extent in input_shape)
        cached = self._shape_cache.get(key)
        if cached is not None:
            return cached
        slot_shapes: Dict[int, Tuple[int, ...]] = {0: key}
        shapes: List[Tuple[int, ...]] = []
        for op in self.ops:
            shape = op.infer_shape(*(slot_shapes[slot] for slot in op.inputs))
            slot_shapes[op.output] = shape
            shapes.append(shape)
        self._shape_cache[key] = shapes
        return shapes

    def run(self, images: np.ndarray) -> np.ndarray:
        """Execute the plan on one input batch; returns the logits ndarray.

        Each conv → ReLU → max-pool chain runs as one fused step, bitwise
        equal to running its three ops one by one.
        """
        values: Dict[int, np.ndarray] = {0: np.asarray(images, dtype=np.float64)}
        for index, step in self._steps:
            values[step.output] = step.run(*(values[slot] for slot in step.inputs))
            for slot in step.inputs:
                if self._last_use.get(slot) == index and slot != self.output:
                    values.pop(slot, None)
        return values[self.output]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    _ARRAY_FIELDS = ("weight", "bias", "mean", "var", "gamma", "beta")
    _SCALAR_FIELDS = ("kind", "kernel_shape", "stride", "padding", "kernel", "eps",
                      "param_shape")

    @staticmethod
    def _normalize_path(path) -> str:
        """Mirror ``np.savez``'s implicit ``.npz`` suffix on both ends.

        ``np.savez_compressed`` appends ``.npz`` to suffix-less paths at save
        time; without the same normalisation, ``load`` could not open a plan
        saved under the bare name.
        """
        path = str(path)
        return path if path.endswith(".npz") else path + ".npz"

    def save(self, path) -> None:
        """Serialise the plan to a single ``.npz`` deployment artifact."""
        arrays: Dict[str, np.ndarray] = {}
        header: List[dict] = []
        for index, op in enumerate(self.ops):
            entry = {
                "type": type(op).__name__,
                "inputs": list(op.inputs),
                "output": op.output,
            }
            for name in self._SCALAR_FIELDS:
                if hasattr(op, name):
                    value = getattr(op, name)
                    entry[name] = list(value) if isinstance(value, tuple) else value
            for name in self._ARRAY_FIELDS:
                value = getattr(op, name, None)
                if isinstance(value, np.ndarray):
                    key = f"op{index}.{name}"
                    arrays[key] = value
                    entry[name] = key
            spec = getattr(op, "spec", None)
            if spec is not None:
                arrays[f"op{index}.conductances"] = spec.conductances
                arrays[f"op{index}.periphery"] = spec.periphery
                entry["spec"] = {
                    "g_min": spec.g_min,
                    "g_max": spec.g_max,
                    "quantizer_bits": spec.quantizer_bits,
                }
            header.append(entry)
        meta = {
            "ops": header,
            "output": self.output,
            "num_slots": self.num_slots,
            "source": self.source,
            "input_shape": list(self.input_shape) if self.input_shape else None,
        }
        np.savez_compressed(
            self._normalize_path(path),
            __plan__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )

    @classmethod
    def load(cls, path) -> "InferencePlan":
        """Load a plan previously produced by :meth:`save`.

        Artifacts lowered to an integer or float32 execution mode (a meta
        ``precision`` other than ``float64``, or integer op entries) are
        refused with a ``ValueError`` naming the precision or op type:
        plans execute in float64 only, and the float64 artifact is the one
        to republish.
        """
        op_types = {
            klass.__name__: klass
            for klass in (DenseOp, ConvOp, ActivationOp, BatchNormOp, MaxPoolOp,
                          AvgPoolOp, GlobalAvgPoolOp, FlattenOp, AddOp)
        }
        tuple_fields = {"kernel_shape", "stride", "padding", "kernel", "param_shape"}
        with np.load(cls._normalize_path(path)) as archive:
            meta = json.loads(bytes(archive["__plan__"]).decode())
            precision = meta.get("precision", "float64")
            if precision != "float64":
                raise ValueError(
                    f"plan artifact was lowered to precision {precision!r}; "
                    f"only float64 plans are supported"
                )
            ops: List[PlanOp] = []
            for index, entry in enumerate(meta["ops"]):
                op_type = entry.pop("type")
                klass = op_types.get(op_type)
                if klass is None:
                    raise ValueError(
                        f"plan artifact op {index} has unsupported type "
                        f"{op_type!r}; only float64 plans are supported"
                    )
                kwargs = {"inputs": tuple(entry.pop("inputs")),
                          "output": entry.pop("output")}
                spec_meta = entry.pop("spec", None)
                for name, value in entry.items():
                    if name in cls._ARRAY_FIELDS:
                        kwargs[name] = archive[value]
                    elif name in tuple_fields:
                        kwargs[name] = tuple(value)
                    else:
                        kwargs[name] = value
                if spec_meta is not None:
                    kwargs["spec"] = CrossbarSpec(
                        conductances=archive[f"op{index}.conductances"],
                        periphery=archive[f"op{index}.periphery"],
                        g_min=spec_meta["g_min"],
                        g_max=spec_meta["g_max"],
                        quantizer_bits=spec_meta["quantizer_bits"],
                    )
                ops.append(klass(**kwargs))
        input_shape = meta.get("input_shape")
        return cls(ops=ops, output=meta["output"], num_slots=meta["num_slots"],
                   source=meta.get("source", ""),
                   input_shape=tuple(input_shape) if input_shape else None)
