"""Compiled inference runtime: freeze mapped models into execution plans.

This package is the compile-once / run-many counterpart of the eager layer
stack.  A trained :class:`~repro.nn.module.Module` is compiled into a frozen
:class:`~repro.runtime.plan.InferencePlan` whose weight-bearing layers hold
*realized* effective weights (periphery applied once, quantisation applied
once) and whose ops are pure NumPy — no autograd graph, no per-batch weight
rebuild.  On top of the plan, :mod:`repro.runtime.montecarlo` vectorises the
paper's Fig. 6 variation protocol: device-variation draws are sampled as one
stacked perturbation per crossbar and evaluated with batched ``np.matmul``
GEMMs over the sample axis.
Plans and Monte-Carlo sweeps execute in float64 only, so an offline sweep and
a served ensemble over the same images and seed compute the same bits.

* :func:`compile_model` / :func:`try_compile` — lower a module tree to a plan.
* :class:`InferencePlan` — the frozen, serialisable deployment unit
  (``plan.save(path)`` / ``InferencePlan.load(path)``).
* :func:`plan_accuracy` / :func:`plan_logits` — deterministic plan execution.
* :func:`monte_carlo_accuracy` / :func:`monte_carlo_logits` — vectorized
  variation sweeps.
"""

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
    PlanOp,
)
from repro.runtime.engine import (
    compile_model,
    plan_accuracy,
    plan_logits,
    register_lowering,
    trace_shapes,
    try_compile,
)
from repro.runtime.montecarlo import (
    monte_carlo_accuracy,
    monte_carlo_logits,
    run_plan_samples,
    sample_crossbar_weights,
)
from repro.runtime.optimize import optimize_plan
from repro.runtime.wire import WireFormatError, decode_array, encode_array

__all__ = [
    "ActivationOp",
    "AddOp",
    "AvgPoolOp",
    "BatchNormOp",
    "ConvOp",
    "CrossbarSpec",
    "DenseOp",
    "FlattenOp",
    "GlobalAvgPoolOp",
    "InferencePlan",
    "MaxPoolOp",
    "PlanCompilationError",
    "PlanOp",
    "compile_model",
    "plan_accuracy",
    "plan_logits",
    "register_lowering",
    "trace_shapes",
    "try_compile",
    "WireFormatError",
    "decode_array",
    "encode_array",
    "monte_carlo_accuracy",
    "monte_carlo_logits",
    "optimize_plan",
    "run_plan_samples",
    "sample_crossbar_weights",
]
