"""Plan-level compile optimisations on the frozen ndarray IR.

Two rewrites, both exact on the frozen arrays (no approximation — only the
usual float reassociation, far below the 1e-10 equivalence budget):

* **BatchNorm folding** — a :class:`BatchNormOp` that is the sole consumer of
  a preceding :class:`DenseOp` / :class:`ConvOp` output collapses into that
  op: the affine ``y * scale + shift`` (with ``scale = gamma / sqrt(var +
  eps)`` and ``shift = beta - mean * scale``) is absorbed into the frozen
  effective weight and bias.  For crossbar-backed ops the scale is folded
  into the *periphery matrix* rather than the realized weight, so the
  Monte-Carlo engine's per-draw ``S @ finalize(M + noise)`` pipeline picks up
  the normalisation automatically and fused plans stay variation-correct.
* **Flatten collapsing** — a :class:`FlattenOp` fed by another
  :class:`FlattenOp` is the identity and is dropped.

Removed ops alias their output slot to their input's, so downstream consumers
(and the plan output) are remapped without renumbering the value store.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.runtime.plan import (
    BatchNormOp,
    ConvOp,
    DenseOp,
    FlattenOp,
    InferencePlan,
    PlanOp,
)


def _fold_batchnorm(prev: PlanOp, bn: BatchNormOp) -> Optional[PlanOp]:
    """Fuse ``bn`` into the weight-bearing op producing its input, or None.

    Refuses shape-mismatched pairs (a BN whose channel count differs from
    the producer's output rows, or a broadcast layout that does not match
    the producer type) rather than guessing.
    """
    expected_shape = (-1, 1, 1) if isinstance(prev, ConvOp) else (-1,)
    if tuple(bn.param_shape) != expected_shape:
        return None
    scale = bn.gamma / (bn.var + bn.eps) ** 0.5
    if scale.ndim != 1 or scale.shape[0] != prev.weight.shape[0]:
        return None
    shift = bn.beta - bn.mean * scale
    weight = prev.weight * scale[:, None]
    bias = shift if prev.bias is None else prev.bias * scale + shift
    replacements = {"weight": weight, "bias": bias}
    spec = getattr(prev, "spec", None)
    if spec is not None:
        replacements["spec"] = dataclasses.replace(
            spec, periphery=spec.periphery * scale[:, None]
        )
    return dataclasses.replace(prev, **replacements)


def optimize_plan(
    plan: InferencePlan,
    fold_batchnorm: bool = True,
    collapse_flatten: bool = True,
) -> InferencePlan:
    """Return an optimised twin of ``plan`` (the input is left untouched).

    BatchNorm ops are folded only when their input slot has exactly one
    consumer and is not the plan output, so residual topologies that reuse a
    pre-normalisation value keep their semantics.
    """
    consumers: Dict[int, int] = {}
    for op in plan.ops:
        for slot in op.inputs:
            consumers[slot] = consumers.get(slot, 0) + 1

    alias: Dict[int, int] = {}

    def resolve(slot: int) -> int:
        return alias.get(slot, slot)

    new_ops: List[PlanOp] = []
    producer: Dict[int, int] = {}  # slot -> index into new_ops
    for op in plan.ops:
        inputs = tuple(resolve(slot) for slot in op.inputs)
        if collapse_flatten and isinstance(op, FlattenOp):
            feeder = producer.get(inputs[0])
            if feeder is not None and isinstance(new_ops[feeder], FlattenOp):
                alias[op.output] = inputs[0]
                continue
        if fold_batchnorm and isinstance(op, BatchNormOp):
            feeder = producer.get(inputs[0])
            if (
                feeder is not None
                and isinstance(new_ops[feeder], (DenseOp, ConvOp))
                and consumers.get(op.inputs[0], 0) == 1
                and op.inputs[0] != plan.output
            ):
                fused = _fold_batchnorm(new_ops[feeder], op)
                if fused is not None:
                    new_ops[feeder] = fused
                    alias[op.output] = inputs[0]
                    continue
        clone = dataclasses.replace(op, inputs=inputs)
        producer[clone.output] = len(new_ops)
        new_ops.append(clone)
    return InferencePlan(
        ops=new_ops,
        output=resolve(plan.output),
        num_slots=plan.num_slots,
        source=plan.source,
        input_shape=plan.input_shape,
    )
