"""Tests for plan-level compile optimisations (BatchNorm folding, flatten collapse)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import make_lenet, make_resnet20, make_vgg9
from repro.runtime import compile_model, monte_carlo_logits, optimize_plan
from repro.runtime.plan import (
    BatchNormOp,
    DenseOp,
    FlattenOp,
    InferencePlan,
)


class TestBatchNormFolding:
    @pytest.mark.parametrize("mapping,bits", [("acm", 4), ("de", None), ("bc", 3)])
    def test_vgg9_fused_plan_bit_equivalent(self, mapping, bits, rng):
        plan = compile_model(make_vgg9(mapping=mapping, quantizer_bits=bits, seed=7))
        fused = optimize_plan(plan)
        assert not any(isinstance(op, BatchNormOp) for op in fused.ops)
        assert len(fused.ops) < len(plan.ops)
        inputs = rng.normal(size=(3, 3, 16, 16))
        np.testing.assert_allclose(fused.run(inputs), plan.run(inputs),
                                   atol=1e-10, rtol=0)

    def test_resnet_residual_topology_fused_plan_bit_equivalent(self, rng):
        plan = compile_model(
            make_resnet20(mapping="acm", quantizer_bits=4, blocks_per_stage=1, seed=7)
        )
        fused = optimize_plan(plan)
        assert not any(isinstance(op, BatchNormOp) for op in fused.ops)
        inputs = rng.normal(size=(2, 3, 16, 16))
        np.testing.assert_allclose(fused.run(inputs), plan.run(inputs),
                                   atol=1e-10, rtol=0)

    def test_fused_crossbar_specs_keep_monte_carlo_equivalent(self, rng):
        """Folding into the periphery must leave variation draws consistent."""
        plan = compile_model(make_vgg9(mapping="acm", quantizer_bits=4, seed=7))
        fused = optimize_plan(plan)
        inputs = rng.normal(size=(2, 3, 16, 16))
        baseline = monte_carlo_logits(plan, inputs, 0.1, 3,
                                      rng=np.random.default_rng(5))
        folded = monte_carlo_logits(fused, inputs, 0.1, 3,
                                    rng=np.random.default_rng(5))
        np.testing.assert_allclose(folded, baseline, atol=1e-10, rtol=0)

    def test_plan_without_batchnorm_unchanged(self, rng):
        plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        fused = optimize_plan(plan)
        assert len(fused.ops) == len(plan.ops)
        inputs = rng.normal(size=(2, 1, 16, 16))
        np.testing.assert_array_equal(fused.run(inputs), plan.run(inputs))

    def test_batchnorm_with_shared_input_not_folded(self, rng):
        """A BN whose input is consumed elsewhere must stay materialised."""
        weight = rng.normal(size=(4, 4))
        from repro.runtime.plan import AddOp

        ops = [
            DenseOp(weight=weight, inputs=(0,), output=1),
            BatchNormOp(
                mean=rng.normal(size=4), var=rng.uniform(0.5, 2.0, size=4),
                gamma=rng.normal(size=4), beta=rng.normal(size=4),
                param_shape=(-1,), inputs=(1,), output=2,
            ),
            AddOp(inputs=(2, 1), output=3),
        ]
        plan = InferencePlan(ops=ops, output=3, num_slots=4)
        optimized = optimize_plan(plan)
        assert any(isinstance(op, BatchNormOp) for op in optimized.ops)
        inputs = rng.normal(size=(5, 4))
        np.testing.assert_allclose(optimized.run(inputs), plan.run(inputs),
                                   atol=1e-12)

    def test_compile_model_optimize_flag(self, rng):
        model = make_vgg9(mapping="de", quantizer_bits=4, seed=1)
        fused = compile_model(model, optimize=True)
        assert not any(isinstance(op, BatchNormOp) for op in fused.ops)
        inputs = rng.normal(size=(2, 3, 16, 16))
        np.testing.assert_allclose(
            fused.run(inputs), compile_model(model).run(inputs), atol=1e-10, rtol=0
        )


class TestFlattenCollapse:
    def test_consecutive_flattens_collapse_to_one(self, rng):
        weight = rng.normal(size=(3, 12))
        ops = [
            FlattenOp(inputs=(0,), output=1),
            FlattenOp(inputs=(1,), output=2),
            DenseOp(weight=weight, inputs=(2,), output=3),
        ]
        plan = InferencePlan(ops=ops, output=3, num_slots=4)
        optimized = optimize_plan(plan)
        assert sum(isinstance(op, FlattenOp) for op in optimized.ops) == 1
        inputs = rng.normal(size=(4, 2, 3, 2))
        np.testing.assert_array_equal(optimized.run(inputs), plan.run(inputs))

    def test_flatten_chain_of_three_collapses(self, rng):
        ops = [
            FlattenOp(inputs=(0,), output=1),
            FlattenOp(inputs=(1,), output=2),
            FlattenOp(inputs=(2,), output=3),
        ]
        plan = InferencePlan(ops=ops, output=3, num_slots=4)
        optimized = optimize_plan(plan)
        assert len(optimized.ops) == 1
        inputs = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(optimized.run(inputs), plan.run(inputs))

    def test_output_slot_remapped_when_tail_op_removed(self, rng):
        """The plan output must follow the alias of a removed trailing op."""
        ops = [
            FlattenOp(inputs=(0,), output=1),
            FlattenOp(inputs=(1,), output=2),
        ]
        plan = InferencePlan(ops=ops, output=2, num_slots=3)
        optimized = optimize_plan(plan)
        inputs = rng.normal(size=(2, 6))
        np.testing.assert_array_equal(optimized.run(inputs), plan.run(inputs))


class TestOptimizedPlanMetadata:
    def test_input_shape_and_shape_cache_preserved(self):
        plan = compile_model(make_vgg9(mapping="acm", quantizer_bits=4, seed=0))
        fused = optimize_plan(plan)
        assert fused.input_shape == plan.input_shape
        assert fused.output_shapes()[-1] == plan.output_shapes()[-1]

    def test_optimized_plan_round_trips_through_disk(self, tmp_path, rng):
        plan = compile_model(make_vgg9(mapping="bc", quantizer_bits=4, seed=2))
        fused = optimize_plan(plan)
        fused.save(tmp_path / "fused.npz")
        loaded = InferencePlan.load(tmp_path / "fused.npz")
        inputs = rng.normal(size=(2, 3, 16, 16))
        np.testing.assert_array_equal(loaded.run(inputs), fused.run(inputs))
