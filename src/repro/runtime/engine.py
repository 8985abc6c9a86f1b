"""Compile a trained module tree into a frozen :class:`InferencePlan`.

The compiler walks the module tree with a per-type lowering registry: every
supported layer appends one or more pure-NumPy ops to the plan and returns
the value slot holding its output.  Mapped layers are *frozen* — the raw
crossbar conductances are snapshotted into a :class:`CrossbarSpec` and the
effective signed weight ``W = S @ quantize(M)`` is realized once, so the
compiled program never rebuilds it.

Modules with no registered lowering raise :class:`PlanCompilationError`;
callers that want graceful degradation (the evaluation helpers in
:mod:`repro.train.evaluate`) use :func:`try_compile` and fall back to the
eager reference path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.mapping.mapped_layer import MappedConv2d, MappedLinear, _MappedBase
from repro.nn.activations import ReLU, Sigmoid, Softmax, Tanh
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
)
from repro.nn.module import Module, Sequential
from repro.runtime.plan import (
    ActivationOp,
    AddOp,
    AvgPoolOp,
    BatchNormOp,
    ConvOp,
    CrossbarSpec,
    DenseOp,
    FlattenOp,
    GlobalAvgPoolOp,
    InferencePlan,
    MaxPoolOp,
    PlanCompilationError,
)


class _PlanBuilder:
    """Accumulates ops and allocates value slots during lowering."""

    def __init__(self) -> None:
        self.ops = []
        self.num_slots = 1  # slot 0 is the network input

    def emit(self, op, *input_slots: int) -> int:
        op.inputs = tuple(input_slots)
        op.output = self.num_slots
        self.num_slots += 1
        self.ops.append(op)
        return op.output

    def lower(self, module: Module, slot: int) -> int:
        for klass in type(module).__mro__:
            handler = _LOWERINGS.get(klass)
            if handler is not None:
                return handler(self, module, slot)
        raise PlanCompilationError(
            f"no lowering registered for {type(module).__name__}; "
            "register one with repro.runtime.engine.register_lowering"
        )


_LOWERINGS: Dict[Type[Module], Callable[[_PlanBuilder, Module, int], int]] = {}


def register_lowering(module_type: Type[Module]):
    """Register the lowering handler for a module class (decorator).

    The handler receives ``(builder, module, input_slot)`` and must return
    the slot index holding the module's output.  Handlers are resolved along
    the module's MRO, so registering a base class covers its subclasses.
    """

    def decorator(handler):
        _LOWERINGS[module_type] = handler
        return handler

    return decorator


def compile_model(
    model: Module,
    name: str = "",
    input_shape: Optional[Tuple[int, ...]] = None,
    optimize: bool = False,
) -> InferencePlan:
    """Freeze ``model`` into an :class:`InferencePlan`.

    The plan always captures *inference* semantics: batch normalisation uses
    the running statistics, dropout is a no-op, and mapped layers realize
    their effective weight with quantisation applied and no variation —
    variation is re-applied per draw by the Monte-Carlo engine.  Any active
    per-layer variation state on the eager model is ignored.

    ``input_shape`` is the per-sample shape the plan records for shape
    queries (:meth:`InferencePlan.output_shapes`, :func:`trace_shapes`);
    when omitted it is taken from the model's ``example_input_shape``
    attribute, which every built-in model exposes.  ``optimize=True``
    additionally runs the plan-level optimiser
    (:func:`repro.runtime.optimize.optimize_plan`): exact BatchNorm folding
    and flatten collapsing.
    """
    builder = _PlanBuilder()
    output = builder.lower(model, 0)
    if input_shape is None:
        input_shape = getattr(model, "example_input_shape", None)
    plan = InferencePlan(
        ops=builder.ops,
        output=output,
        num_slots=builder.num_slots,
        source=name or type(model).__name__,
        input_shape=tuple(input_shape) if input_shape is not None else None,
    )
    if plan.input_shape is not None:
        # Populate the shape cache eagerly; a geometry mismatch between the
        # advertised input shape and the frozen ops surfaces at compile time
        # as a compilation error (so try_compile's eager fallback applies).
        try:
            plan.output_shapes()
        except (ValueError, TypeError) as error:
            raise PlanCompilationError(
                f"model advertises example_input_shape {plan.input_shape} "
                f"but its frozen ops reject it: {error}"
            ) from None
    if optimize:
        from repro.runtime.optimize import optimize_plan

        plan = optimize_plan(plan)
    return plan


def try_compile(model: Module, name: str = "") -> Optional[InferencePlan]:
    """Compile ``model`` or return ``None`` if any module is unsupported."""
    try:
        return compile_model(model, name=name)
    except PlanCompilationError:
        return None


# ---------------------------------------------------------------------- #
# Plan-level evaluation helpers
# ---------------------------------------------------------------------- #
def plan_logits(
    plan: InferencePlan, images: np.ndarray, batch_size: Optional[int] = None
) -> np.ndarray:
    """Run a plan over ``images``, optionally in batches, returning logits."""
    images = np.asarray(images, dtype=np.float64)
    if batch_size is None or len(images) <= batch_size:
        return plan.run(images)
    pieces = [
        plan.run(images[start:start + batch_size])
        for start in range(0, len(images), batch_size)
    ]
    return np.concatenate(pieces, axis=0)


def plan_accuracy(
    plan: InferencePlan, dataset: ArrayDataset, batch_size: int = 64
) -> float:
    """Classification accuracy of a compiled plan on ``dataset``."""
    from repro.nn.losses import count_correct

    correct = 0
    for start in range(0, len(dataset), batch_size):
        logits = plan.run(dataset.images[start:start + batch_size])
        labels = dataset.labels[start:start + batch_size]
        correct += count_correct(logits, labels)
    return correct / len(dataset)


def trace_shapes(
    plan: InferencePlan, input_shape: Optional[Tuple[int, ...]] = None
) -> List[Tuple[object, Tuple[int, ...]]]:
    """Per-op ``(op, output_shape)`` pairs (batch dimension excluded).

    Shapes come from the plan's symbolic shape propagation
    (:meth:`InferencePlan.output_shapes`) — no sample is executed.  With no
    ``input_shape`` the shape recorded at compile time is used; passing one
    overrides it (e.g. to estimate hardware cost at a different resolution).
    """
    return list(zip(plan.ops, plan.output_shapes(input_shape)))


# ---------------------------------------------------------------------- #
# Leaf lowerings
# ---------------------------------------------------------------------- #
def _freeze_mapped(layer: _MappedBase) -> Tuple[np.ndarray, Optional[np.ndarray], CrossbarSpec]:
    spec = CrossbarSpec(
        conductances=layer.conductances(),
        periphery=layer.periphery.matrix.copy(),
        g_min=layer.conductance_range.g_min,
        g_max=layer.conductance_range.g_max,
        quantizer_bits=layer.quantizer.bits if layer.quantizer is not None else None,
    )
    bias = layer.bias.data.copy() if layer.bias is not None else None
    return spec.base_weight(), bias, spec


@register_lowering(MappedLinear)
def _lower_mapped_linear(builder, layer, slot):
    weight, bias, spec = _freeze_mapped(layer)
    return builder.emit(DenseOp(weight=weight, bias=bias, spec=spec), slot)


@register_lowering(Linear)
def _lower_linear(builder, layer, slot):
    bias = layer.bias.data.copy() if layer.bias is not None else None
    return builder.emit(DenseOp(weight=layer.weight.data.copy(), bias=bias), slot)


@register_lowering(MappedConv2d)
def _lower_mapped_conv(builder, layer, slot):
    weight, bias, spec = _freeze_mapped(layer)
    op = ConvOp(
        weight=weight,
        bias=bias,
        kernel_shape=(layer.in_channels, layer.kernel_size, layer.kernel_size),
        stride=(layer.stride, layer.stride),
        padding=(layer.padding, layer.padding),
        spec=spec,
    )
    return builder.emit(op, slot)


@register_lowering(Conv2d)
def _lower_conv(builder, layer, slot):
    bias = layer.bias.data.copy() if layer.bias is not None else None
    op = ConvOp(
        weight=layer.weight.data.reshape(layer.out_channels, -1).copy(),
        bias=bias,
        kernel_shape=(layer.in_channels, layer.kernel_size, layer.kernel_size),
        stride=(layer.stride, layer.stride),
        padding=(layer.padding, layer.padding),
    )
    return builder.emit(op, slot)


@register_lowering(ReLU)
def _lower_relu(builder, layer, slot):
    return builder.emit(ActivationOp(kind="relu"), slot)


@register_lowering(Tanh)
def _lower_tanh(builder, layer, slot):
    return builder.emit(ActivationOp(kind="tanh"), slot)


@register_lowering(Sigmoid)
def _lower_sigmoid(builder, layer, slot):
    return builder.emit(ActivationOp(kind="sigmoid"), slot)


@register_lowering(Softmax)
def _lower_softmax(builder, layer, slot):
    # Axis 1 equals the last axis only for 2-D inputs, which the compiler
    # cannot know; accept the unambiguous case only (others fall back to
    # eager execution via try_compile).
    if layer.axis != -1:
        raise PlanCompilationError("only last-axis softmax (axis=-1) can be compiled")
    return builder.emit(ActivationOp(kind="softmax"), slot)


@register_lowering(BatchNorm2d)
def _lower_batchnorm2d(builder, layer, slot):
    op = BatchNormOp(
        mean=layer.running_mean.copy(),
        var=layer.running_var.copy(),
        gamma=layer.gamma.data.copy(),
        beta=layer.beta.data.copy(),
        eps=layer.eps,
        param_shape=(-1, 1, 1),
    )
    return builder.emit(op, slot)


@register_lowering(BatchNorm1d)
def _lower_batchnorm1d(builder, layer, slot):
    op = BatchNormOp(
        mean=layer.running_mean.copy(),
        var=layer.running_var.copy(),
        gamma=layer.gamma.data.copy(),
        beta=layer.beta.data.copy(),
        eps=layer.eps,
        param_shape=(-1,),
    )
    return builder.emit(op, slot)


@register_lowering(MaxPool2d)
def _lower_maxpool(builder, layer, slot):
    kernel = (layer.kernel_size, layer.kernel_size)
    stride = (layer.stride, layer.stride) if layer.stride is not None else kernel
    return builder.emit(MaxPoolOp(kernel=kernel, stride=stride), slot)


@register_lowering(AvgPool2d)
def _lower_avgpool(builder, layer, slot):
    kernel = (layer.kernel_size, layer.kernel_size)
    stride = (layer.stride, layer.stride) if layer.stride is not None else kernel
    return builder.emit(AvgPoolOp(kernel=kernel, stride=stride), slot)


@register_lowering(GlobalAvgPool2d)
def _lower_global_avgpool(builder, layer, slot):
    return builder.emit(GlobalAvgPoolOp(), slot)


@register_lowering(Flatten)
def _lower_flatten(builder, layer, slot):
    return builder.emit(FlattenOp(), slot)


@register_lowering(Identity)
def _lower_identity(builder, layer, slot):
    return slot


@register_lowering(Dropout)
def _lower_dropout(builder, layer, slot):
    return slot  # inference-time dropout is the identity


# ---------------------------------------------------------------------- #
# Container / model lowerings
# ---------------------------------------------------------------------- #
@register_lowering(Sequential)
def _lower_sequential(builder, module, slot):
    for layer in module:
        slot = builder.lower(layer, slot)
    return slot


def _register_model_lowerings() -> None:
    """Register handlers for the model classes; imported lazily to avoid cycles."""
    from repro.models.lenet import LeNet
    from repro.models.mlp import MLP
    from repro.models.resnet import BasicBlock, ResNet20
    from repro.models.vgg import VGG9

    @register_lowering(MLP)
    def _lower_mlp(builder, model, slot):
        return builder.lower(model.network, slot)

    @register_lowering(LeNet)
    def _lower_lenet(builder, model, slot):
        return builder.lower(model.classifier, builder.lower(model.features, slot))

    @register_lowering(VGG9)
    def _lower_vgg9(builder, model, slot):
        return builder.lower(model.classifier, builder.lower(model.features, slot))

    @register_lowering(BasicBlock)
    def _lower_basic_block(builder, block, slot):
        shortcut = builder.lower(block.shortcut, slot)
        main = builder.lower(block.conv1, slot)
        main = builder.lower(block.bn1, main)
        main = builder.lower(block.relu, main)
        main = builder.lower(block.conv2, main)
        main = builder.lower(block.bn2, main)
        merged = builder.emit(AddOp(), main, shortcut)
        return builder.emit(ActivationOp(kind="relu"), merged)

    @register_lowering(ResNet20)
    def _lower_resnet(builder, model, slot):
        slot = builder.lower(model.stem, slot)
        slot = builder.lower(model.stages, slot)
        slot = builder.lower(model.head, slot)
        return builder.lower(model.fc, slot)


_register_model_lowerings()
