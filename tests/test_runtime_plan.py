"""Tests for the compiled inference runtime (plan, engine, Monte-Carlo)."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping import MappedConv2d, MappedLinear
from repro.models import make_lenet, make_mlp, make_resnet20, make_vgg9
from repro.nn.module import Module
from repro.runtime import (
    ActivationOp,
    AvgPoolOp,
    ConvOp,
    CrossbarSpec,
    FlattenOp,
    GlobalAvgPoolOp,
    InferencePlan,
    MaxPoolOp,
    PlanCompilationError,
    compile_model,
    monte_carlo_accuracy,
    monte_carlo_logits,
    plan_accuracy,
    plan_logits,
    run_plan_samples,
    sample_crossbar_weights,
    trace_shapes,
    try_compile,
)
from repro.serve import PlanArtifactError, PlanRegistry
from repro.tensor import Tensor, no_grad
from repro.runtime.plan import _ConvReluMaxPool, _max_taps, _pool
from repro.tensor.functional import conv2d_from_matrix, conv_output_size


def eager_logits(model, inputs: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(inputs)).data


MAPPINGS = ("acm", "de", "bc")
PRECISIONS = (4, None)


class TestPlanEagerEquivalence:
    """Compiled output must match eager output at sigma=0 within 1e-10."""

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("bits", PRECISIONS)
    def test_mlp_equivalence(self, mapping, bits, rng):
        model = make_mlp(
            input_size=36, hidden_sizes=(12,), mapping=mapping,
            quantizer_bits=bits, seed=7,
        )
        inputs = rng.normal(size=(5, 1, 6, 6))
        plan = compile_model(model)
        np.testing.assert_allclose(
            plan.run(inputs), eager_logits(model, inputs), atol=1e-10, rtol=0
        )

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("bits", PRECISIONS)
    def test_lenet_equivalence(self, mapping, bits, rng):
        model = make_lenet(mapping=mapping, quantizer_bits=bits, seed=7)
        inputs = rng.normal(size=(3, 1, 16, 16))
        plan = compile_model(model)
        np.testing.assert_allclose(
            plan.run(inputs), eager_logits(model, inputs), atol=1e-10, rtol=0
        )

    def test_vgg9_equivalence(self, rng):
        model = make_vgg9(mapping="acm", quantizer_bits=4, seed=7)
        inputs = rng.normal(size=(2, 3, 16, 16))
        plan = compile_model(model)
        np.testing.assert_allclose(
            plan.run(inputs), eager_logits(model, inputs), atol=1e-10, rtol=0
        )

    def test_resnet_equivalence_with_residual_blocks(self, rng):
        model = make_resnet20(mapping="de", quantizer_bits=4, blocks_per_stage=1, seed=7)
        inputs = rng.normal(size=(2, 3, 16, 16))
        plan = compile_model(model)
        np.testing.assert_allclose(
            plan.run(inputs), eager_logits(model, inputs), atol=1e-10, rtol=0
        )

    def test_baseline_model_equivalence(self, rng):
        model = make_lenet(mapping="baseline", seed=7)
        inputs = rng.normal(size=(3, 1, 16, 16))
        plan = compile_model(model)
        np.testing.assert_allclose(
            plan.run(inputs), eager_logits(model, inputs), atol=1e-10, rtol=0
        )


class TestCompiler:
    def test_unknown_module_raises(self):
        class Strange(Module):
            def forward(self, inputs):
                return inputs

        with pytest.raises(PlanCompilationError):
            compile_model(Strange())

    def test_try_compile_returns_none_for_unknown(self):
        class Strange(Module):
            def forward(self, inputs):
                return inputs

        assert try_compile(Strange()) is None

    def test_inconsistent_example_input_shape_is_a_compilation_error(self):
        """A stale advertised shape must trigger the eager fallback, not crash."""
        model = make_mlp(input_size=16, hidden_sizes=(8,), seed=0)
        model.input_size = 99  # example_input_shape now contradicts the layers
        with pytest.raises(PlanCompilationError):
            compile_model(model)
        assert try_compile(model) is None

    def test_crossbar_layer_count(self):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        plan = compile_model(model)
        assert plan.num_crossbar_layers == 2

    def test_baseline_plan_has_no_crossbar_layers(self):
        model = make_mlp(input_size=16, hidden_sizes=(8,), seed=0)
        plan = compile_model(model)
        assert plan.num_crossbar_layers == 0

    def test_bc_spec_includes_reference_row(self):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="bc",
                         quantizer_bits=4, seed=0)
        plan = compile_model(model)
        first = plan.crossbar_ops[0]
        # BC uses NO + 1 physical columns; the extra row is the reference.
        assert first.spec.conductances.shape == (8 + 1, 16)
        assert first.spec.periphery.shape == (8, 8 + 1)

    def test_trace_shapes_reports_conv_geometry(self):
        model = make_lenet(mapping="acm", quantizer_bits=4, seed=0)
        plan = compile_model(model)
        conv_shapes = [
            shape for op, shape in trace_shapes(plan, (1, 16, 16))
            if isinstance(op, ConvOp)
        ]
        assert conv_shapes == [(6, 16, 16), (16, 8, 8)]

    def test_compile_records_model_input_shape(self):
        plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        assert plan.input_shape == (1, 16, 16)
        # trace_shapes needs no input shape for a plan compiled from a model.
        assert trace_shapes(plan) == trace_shapes(plan, (1, 16, 16))

    def test_output_shapes_match_executed_shapes(self, rng):
        model = make_lenet(mapping="de", quantizer_bits=4, seed=1)
        plan = compile_model(model)
        inputs = rng.normal(size=(2, 1, 16, 16))
        values = {0: inputs}
        for op, symbolic in zip(plan.ops, plan.output_shapes()):
            values[op.output] = op.run(*(values[slot] for slot in op.inputs))
            assert values[op.output].shape[1:] == symbolic

    def test_output_shapes_memoised_and_overridable(self):
        plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        assert plan.output_shapes() is plan.output_shapes()
        # LeNet's flatten feeds a fixed-width dense layer, so a resolution
        # the frozen weights cannot accept fails symbolically (no execution).
        with pytest.raises(ValueError):
            plan.output_shapes((1, 20, 20))
        # A fully convolutional network propagates other resolutions fine.
        resnet = compile_model(
            make_resnet20(mapping="acm", quantizer_bits=4, blocks_per_stage=1, seed=0)
        )
        assert resnet.output_shapes((3, 24, 24))[0] == (8, 24, 24)

    def test_output_shapes_without_input_shape_raises(self):
        plan = InferencePlan(ops=[FlattenOp(inputs=(0,), output=1)], output=1,
                             num_slots=2)
        with pytest.raises(ValueError):
            plan.output_shapes()
        assert plan.output_shapes((3, 4)) == [(12,)]

    def test_plan_batched_execution_matches_single_pass(self, rng):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm", seed=0)
        plan = compile_model(model)
        inputs = rng.normal(size=(10, 1, 4, 4))
        np.testing.assert_allclose(
            plan_logits(plan, inputs, batch_size=3), plan.run(inputs), atol=1e-12
        )


class TestMonteCarlo:
    @pytest.fixture
    def plan(self):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        return compile_model(model)

    def test_zero_sigma_matches_deterministic_run(self, plan, rng):
        inputs = rng.normal(size=(4, 1, 4, 4))
        logits = monte_carlo_logits(plan, inputs, 0.0, 3,
                                    rng=np.random.default_rng(0))
        expected = plan.run(inputs)
        for sample in range(3):
            np.testing.assert_allclose(logits[sample], expected, atol=1e-12)

    def test_sampled_weights_shapes_and_determinism(self, plan):
        first = sample_crossbar_weights(plan, 0.1, 5, rng=np.random.default_rng(3))
        second = sample_crossbar_weights(plan, 0.1, 5, rng=np.random.default_rng(3))
        assert set(first) == {op_index for op_index, op in enumerate(plan.ops)
                              if getattr(op, "spec", None) is not None}
        for op_index, stack in first.items():
            weight = plan.ops[op_index].weight
            assert stack.shape == (5,) + weight.shape
            np.testing.assert_array_equal(stack, second[op_index])

    def test_vectorized_matmul_matches_per_sample_loop(self):
        """Sample k of the batched run is bitwise ``plan.run`` with draw k.

        Differential check of the sample-stacked execution (batched GEMMs,
        fold-free pooling, folded global pooling and flatten) against the
        plain plan carrying each sampled weight in turn.
        """
        for plan in _sampled_execution_plans():
            inputs = np.random.default_rng(1).normal(size=(5,) + plan.input_shape)
            sampled = sample_crossbar_weights(plan, 0.15, 4,
                                              rng=np.random.default_rng(1))
            logits = run_plan_samples(plan, inputs, sampled, 4)
            for sample in range(4):
                ops = [
                    dataclasses.replace(op, weight=sampled[index][sample])
                    if index in sampled else op
                    for index, op in enumerate(plan.ops)
                ]
                single = dataclasses.replace(plan, ops=ops)
                np.testing.assert_array_equal(logits[sample], single.run(inputs))

    def test_monte_carlo_accuracy_shape_and_range(self, plan):
        from repro.data.dataset import ArrayDataset

        rng = np.random.default_rng(0)
        dataset = ArrayDataset(
            rng.normal(size=(30, 1, 4, 4)), rng.integers(0, 10, size=30)
        )
        accuracies = monte_carlo_accuracy(
            plan, dataset, 0.2, 7, rng=np.random.default_rng(1), batch_size=8
        )
        assert accuracies.shape == (7,)
        assert ((accuracies >= 0.0) & (accuracies <= 1.0)).all()

    def test_conv_plan_monte_carlo_shapes(self, rng):
        model = make_lenet(mapping="bc", quantizer_bits=3, seed=1)
        plan = compile_model(model)
        inputs = rng.normal(size=(4, 1, 16, 16))
        logits = monte_carlo_logits(plan, inputs, 0.1, 6, rng=np.random.default_rng(2))
        assert logits.shape == (6, 4, 10)
        # Different draws must produce different logits at sigma > 0.
        assert not np.allclose(logits[0], logits[1])


def _sampled_execution_plans():
    """MLP, ResNet-20 (one block per stage), LeNet per mapping and precision,
    and LeNet with its max pools swapped for average pools."""
    models = [
        make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                 quantizer_bits=4, seed=0),
        make_resnet20(mapping="acm", quantizer_bits=4, blocks_per_stage=1, seed=0),
    ] + [
        make_lenet(mapping=mapping, quantizer_bits=bits, seed=0)
        for mapping in MAPPINGS for bits in PRECISIONS
    ]
    plans = [compile_model(model) for model in models]
    lenet = plans[2]
    plans.append(dataclasses.replace(lenet, ops=[
        AvgPoolOp(inputs=op.inputs, output=op.output, kernel=op.kernel,
                  stride=op.stride)
        if isinstance(op, MaxPoolOp) else op
        for op in lenet.ops
    ]))
    return plans


def _oracle_draw(plan, sigma_fraction, num_samples, rng):
    """Reference device realisation, op-major from one generator.

    Each crossbar's raw conductances get Gaussian noise, are clipped into the
    device range and, for discrete devices, moved to the nearest level by an
    arg-min over the full level table; the periphery matrix then maps each
    sample to its effective weight.
    """
    sampled = {}
    for index, op in enumerate(plan.ops):
        spec = getattr(op, "spec", None)
        if spec is None:
            continue
        noise = rng.normal(0.0, sigma_fraction * (spec.g_max - spec.g_min),
                           size=(num_samples,) + spec.conductances.shape)
        realized = np.clip(spec.conductances + noise, spec.g_min, spec.g_max)
        if spec.quantizer_bits is not None:
            levels = np.linspace(spec.g_min, spec.g_max, 2 ** spec.quantizer_bits)
            realized = levels[np.abs(realized[..., None] - levels).argmin(axis=-1)]
        sampled[index] = np.matmul(spec.periphery, realized)
    return sampled


def _spec_of(layer) -> CrossbarSpec:
    return CrossbarSpec(
        conductances=layer.conductances(), periphery=layer.periphery.matrix,
        g_min=layer.conductance_range.g_min, g_max=layer.conductance_range.g_max,
        quantizer_bits=layer.quantizer.bits if layer.quantizer is not None else None,
    )


class TestDrawBits:
    """Seeded variation draws are pinned bit for bit."""

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("bits", PRECISIONS)
    # 40 samples span several draw chunks of LeNet's 65x256 crossbar, the
    # last one ragged; 7 fit in one.
    @pytest.mark.parametrize("num_samples", [1, 7, 40])
    def test_sampled_weights_equal_the_oracle(self, mapping, bits, num_samples):
        plan = compile_model(make_lenet(mapping=mapping, quantizer_bits=bits, seed=0))
        sampled = sample_crossbar_weights(
            plan, 0.15, num_samples, rng=np.random.default_rng(num_samples)
        )
        expected = _oracle_draw(plan, 0.15, num_samples, np.random.default_rng(num_samples))
        assert set(sampled) == set(expected)
        for index, stack in sampled.items():
            np.testing.assert_array_equal(stack, expected[index])

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("bits", PRECISIONS)
    @pytest.mark.parametrize("kind", ["linear", "conv"])
    def test_eager_draw_equals_one_sample_plan_draw(self, mapping, bits, kind):
        if kind == "linear":
            layer = MappedLinear(12, 5, mapping=mapping, quantizer_bits=bits,
                                 rng=np.random.default_rng(4))
        else:
            layer = MappedConv2d(2, 4, 3, mapping=mapping, quantizer_bits=bits,
                                 rng=np.random.default_rng(4))
        layer.eval()
        layer.set_variation(0.15, rng=np.random.default_rng(9))
        expected = _spec_of(layer).sample_weights(0.15, 1, np.random.default_rng(9))[0]
        np.testing.assert_array_equal(layer.effective_weight(), expected)

    def test_cold_draw_peak_memory_stays_below_one_and_a_half_stacks(self):
        plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        tracemalloc.start()
        try:
            sampled = sample_crossbar_weights(plan, 0.1, 256, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = sum(stack.nbytes for stack in sampled.values())
        assert peak < 1.5 * stack_bytes, f"peak {peak / stack_bytes:.2f}x the stacks"


@st.composite
def conv_cases(draw):
    """A small random conv geometry with seeded weights, bias and inputs."""
    batch = draw(st.integers(1, 5))
    channels = draw(st.integers(1, 4))
    height, width = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    out_channels = draw(st.integers(1, 5))
    kernel_h, kernel_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    padding = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    num_samples = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = ConvOp(
        weight=rng.normal(size=(out_channels, channels * kernel_h * kernel_w)),
        bias=rng.normal(size=out_channels),
        kernel_shape=(channels, kernel_h, kernel_w),
        stride=stride,
        padding=padding,
    )
    images = rng.normal(size=(num_samples, batch, channels, height, width))
    weights = rng.normal(size=(num_samples,) + op.weight.shape)
    return op, images, weights


#: Values that test the fused epilogue's exactness claims: NaN and the
#: infinities propagate, and the zeros carry signs.
_SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0)


def _sprinkle(draw, rng, array):
    """``array`` with a drawn share of its elements set to special values."""
    share = draw(st.sampled_from((0.0, 0.05, 0.3)))
    hits = rng.random(array.shape) < share
    array[hits] = rng.choice(_SPECIAL_VALUES, size=int(hits.sum()))
    return array


@st.composite
def pool_windows(draw, height, width):
    """A max pool that fits an ``height × width`` map: odd, even and
    overlapping (stride < kernel) windows."""
    kernel = (draw(st.integers(1, min(3, height))),
              draw(st.integers(1, min(3, width))))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return kernel, stride


@st.composite
def fused_cases(draw):
    """A conv → ReLU → max-pool plan (inputs and weights with special
    values, sometimes no bias), its input and a weight stack."""
    op, images, weights = draw(conv_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        op = dataclasses.replace(op, bias=None)
    if draw(st.booleans()):
        # Zero weights turn zero inputs into signed-zero products.
        op.weight[rng.random(op.weight.shape) < 0.3] = 0.0
    out_h, out_w = op.infer_shape(images.shape[-3:])[1:]
    kernel, stride = draw(pool_windows(out_h, out_w))
    images = _sprinkle(draw, rng, images)
    plan = InferencePlan(
        ops=[dataclasses.replace(op, inputs=(0,), output=1),
             ActivationOp(inputs=(1,), output=2, kind="relu"),
             MaxPoolOp(inputs=(2,), output=3, kernel=kernel, stride=stride)],
        output=3, num_slots=4,
    )
    return plan, images, weights


def _op_by_op(plan, images):
    """The plan's output from each op's own ``run``, one op at a time."""
    values = {0: images}
    for op in plan.ops:
        values[op.output] = op.run(*(values[slot] for slot in op.inputs))
    return values[plan.output]


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _unfused(plan):
    """A copy of ``plan`` that executes its ops one by one."""
    copy = dataclasses.replace(plan)
    copy._steps = list(enumerate(copy.ops))
    return copy


def _layout(array):
    """The strides of the axes longer than one (a unit axis's stride is
    arbitrary)."""
    return tuple(stride for stride, extent in zip(array.strides, array.shape)
                 if extent > 1)


def _tap_order_max(x, kernel, stride):
    """Max pooling as a fold over the window taps in row-major order."""
    out_h = conv_output_size(x.shape[-2], kernel[0], stride[0], 0)
    out_w = conv_output_size(x.shape[-1], kernel[1], stride[1], 0)
    taps = [x[..., y:y + stride[0] * out_h:stride[0],
              z:z + stride[1] * out_w:stride[1]]
            for y in range(kernel[0]) for z in range(kernel[1])]
    accumulated = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(accumulated, tap, out=accumulated)
    return accumulated, np.stack(taps)


class TestConvLoweringFuzz:
    """Differential checks of the tap-major plan conv over random geometries."""

    @settings(max_examples=40, deadline=None)
    @given(conv_cases())
    def test_plan_conv_matches_eager_conv(self, case):
        op, images, _ = case
        with no_grad():
            expected = conv2d_from_matrix(
                Tensor(images[0]), Tensor(op.weight), op.kernel_shape,
                Tensor(op.bias), op.stride, op.padding,
            ).data
        np.testing.assert_allclose(op.run(images[0]), expected, atol=1e-10, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(conv_cases())
    def test_sample_k_is_run_with_weight_k(self, case):
        op, images, weights = case
        invariant = op.run_sampled(images[0], weights)
        stacked = op.run_sampled(images, weights)
        for sample, weight in enumerate(weights):
            single = dataclasses.replace(op, weight=weight)
            np.testing.assert_array_equal(invariant[sample], single.run(images[0]))
            np.testing.assert_array_equal(stacked[sample], single.run(images[sample]))

    @settings(max_examples=40, deadline=None)
    @given(conv_cases())
    def test_global_pool_is_layout_independent(self, case):
        op, images, _ = case
        view = op.run(images[0])
        pool = GlobalAvgPoolOp()
        pooled, expected = pool.run(view), pool.run(np.ascontiguousarray(view))
        np.testing.assert_array_equal(pooled, expected)
        # The layout matters too: the next GEMM rounds an F-ordered operand
        # differently from a C-ordered one.
        assert pooled.strides == expected.strides


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(fused_cases())
    def test_fused_run_is_the_op_by_op_chain(self, case):
        plan, images, _ = case
        assert [type(step) for _, step in plan._steps] == [_ConvReluMaxPool]
        fused, expected = plan.run(images[0]), _op_by_op(plan, images[0])
        _assert_bitwise(fused, expected)
        # Same memory order too, so the GEMMs downstream round alike.
        assert _layout(fused) == _layout(expected)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(fused_cases())
    def test_fused_sample_k_is_plan_run_with_weight_k(self, case):
        plan, images, weights = case
        rows = images[0]
        channels = rows.shape[1]
        # A drawn 1×1 conv ahead of the chain makes its input sample-stacked.
        mix = np.random.default_rng(0).normal(size=(len(weights), channels, channels))
        prefix = ConvOp(inputs=(0,), output=1, weight=mix[0],
                        kernel_shape=(channels, 1, 1))
        conv, relu, pool = plan.ops
        prefixed = InferencePlan(ops=[
            prefix,
            dataclasses.replace(conv, inputs=(1,), output=2),
            dataclasses.replace(relu, inputs=(2,), output=3),
            dataclasses.replace(pool, inputs=(3,), output=4),
        ], output=4, num_slots=5)
        for candidate, sampled in (
            (plan, {0: weights}),  # sample-invariant input, drawn conv
            (prefixed, {0: mix}),  # stacked input, conv without draws (fold)
            (prefixed, {0: mix, 1: weights}),  # stacked input, drawn conv
        ):
            assert isinstance(candidate._steps[-1][1], _ConvReluMaxPool)
            logits = run_plan_samples(candidate, rows, sampled, len(weights))
            _assert_bitwise(logits, run_plan_samples(
                _unfused(candidate), rows, sampled, len(weights)))
            if 1 not in sampled and candidate is prefixed:
                # The fold runs S·N rows through one GEMM, which rounds
                # differently from N rows, fused or not.
                continue
            for sample in range(len(weights)):
                single = dataclasses.replace(candidate, ops=[
                    dataclasses.replace(op, weight=sampled[index][sample])
                    if index in sampled else op
                    for index, op in enumerate(candidate.ops)
                ])
                _assert_bitwise(logits[sample], single.run(rows))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_separable_max_pool_matches_the_stacked_windows(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=0,
                                         max_size=2)))
        height, width = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        x = _sprinkle(data.draw, rng, rng.normal(size=shape + (height, width)))
        if data.draw(st.booleans()):
            x = np.swapaxes(x, -1, -2)  # a non-contiguous, transposed map
        kernel, stride = data.draw(pool_windows(*x.shape[-2:]))
        pooled = _pool(x, kernel, stride, reducer="max")
        folded, windows = _tap_order_max(x, kernel, stride)
        _assert_bitwise(pooled, folded)
        # The fused epilogue's column pass writes into its private block
        # when the column taps do not overlap.
        (kh, kw), (sh, sw) = kernel, stride
        if kw <= sw:
            out_h, out_w = folded.shape[-2:]
            rows = _max_taps(x.copy(), kw, sw, out_w, -1, in_place=True)
            _assert_bitwise(_max_taps(rows, kh, sh, out_h, -2), folded)
        np.testing.assert_array_equal(pooled, np.max(windows, axis=0))


class TestPlanSerialization:
    @pytest.mark.parametrize("factory,sample_shape", [
        (lambda: make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                          quantizer_bits=4, seed=0), (1, 4, 4)),
        (lambda: make_lenet(mapping="de", quantizer_bits=None, seed=0), (1, 16, 16)),
        (lambda: make_resnet20(mapping="bc", quantizer_bits=4,
                               blocks_per_stage=1, seed=0), (3, 16, 16)),
    ])
    def test_save_load_round_trip(self, factory, sample_shape, tmp_path, rng):
        model = factory()
        plan = compile_model(model)
        path = tmp_path / "plan.npz"
        plan.save(path)
        loaded = InferencePlan.load(path)
        inputs = rng.normal(size=(2,) + sample_shape)
        np.testing.assert_array_equal(plan.run(inputs), loaded.run(inputs))
        assert loaded.num_crossbar_layers == plan.num_crossbar_layers

    def test_save_load_round_trip_without_npz_suffix(self, tmp_path, rng):
        """np.savez appends .npz; load must apply the same normalisation."""
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm", seed=0)
        plan = compile_model(model)
        bare = tmp_path / "model"  # no suffix on purpose
        plan.save(bare)
        loaded = InferencePlan.load(bare)
        inputs = rng.normal(size=(2, 1, 4, 4))
        np.testing.assert_array_equal(plan.run(inputs), loaded.run(inputs))

    def test_save_load_preserves_input_shape(self, tmp_path):
        plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        plan.save(tmp_path / "plan.npz")
        loaded = InferencePlan.load(tmp_path / "plan.npz")
        assert loaded.input_shape == (1, 16, 16)
        assert loaded.output_shapes() == plan.output_shapes()

    def test_loaded_plan_supports_monte_carlo(self, tmp_path, rng):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        plan = compile_model(model)
        path = tmp_path / "plan.npz"
        plan.save(path)
        loaded = InferencePlan.load(path)
        inputs = rng.normal(size=(3, 1, 4, 4))
        original = monte_carlo_logits(plan, inputs, 0.1, 4,
                                      rng=np.random.default_rng(9))
        reloaded = monte_carlo_logits(loaded, inputs, 0.1, 4,
                                      rng=np.random.default_rng(9))
        np.testing.assert_allclose(original, reloaded, atol=1e-12)


def _rewrite_artifact(path, edit) -> None:
    """Re-save a plan artifact after ``edit`` mutates its (meta, arrays)."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays.pop("__plan__")).decode())
    edit(meta, arrays)
    np.savez_compressed(
        path,
        __plan__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )


def _lower_first_dense(meta, arrays) -> None:
    """Rewrite the first dense op as the entry int8 artifacts used to carry."""
    index, entry = next((index, entry) for index, entry in enumerate(meta["ops"])
                        if entry["type"] == "DenseOp")
    weight = arrays[entry["weight"]]
    entry.update(type="Int" + entry["type"], precision="int8",
                 q_weight=f"op{index}.q_weight", scales=f"op{index}.scales")
    arrays[f"op{index}.q_weight"] = np.zeros(weight.shape, dtype=np.int8)
    arrays[f"op{index}.scales"] = np.ones(weight.shape[0])
    meta["precision"] = "int8"


class TestLegacyArtifacts:
    """Artifacts written when plans still carried an execution precision."""

    @pytest.fixture
    def saved(self, tmp_path):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        plan = compile_model(model)
        path = tmp_path / "plan.npz"
        plan.save(path)
        return plan, path

    def test_float64_precision_meta_loads_bit_identically(self, saved, rng):
        plan, path = saved
        _rewrite_artifact(path, lambda meta, _: meta.update(precision="float64"))
        loaded = InferencePlan.load(path)
        inputs = rng.normal(size=(5, 1, 4, 4))
        np.testing.assert_array_equal(loaded.run(inputs), plan.run(inputs))

    def test_integer_op_entries_are_refused(self, saved):
        _, path = saved

        def edit(meta, arrays):
            _lower_first_dense(meta, arrays)
            meta.pop("precision")  # the op type alone must be enough

        _rewrite_artifact(path, edit)
        with pytest.raises(ValueError, match=r"unsupported type 'IntDense"):
            InferencePlan.load(path)

    def test_lowered_precision_meta_is_refused(self, saved):
        _, path = saved
        _rewrite_artifact(path, lambda meta, _: meta.update(precision="float32"))
        with pytest.raises(ValueError, match="float32"):
            InferencePlan.load(path)

    def test_registry_surfaces_refusal_as_artifact_error(self, tmp_path):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        entry = PlanRegistry(tmp_path).publish(compile_model(model),
                                               "alpha", 4, "acm")
        _rewrite_artifact(entry.path, _lower_first_dense)
        with pytest.raises(PlanArtifactError, match="int8"):
            PlanRegistry(tmp_path).get("alpha", 4, "acm")


class TestAdaptiveStackingTarget:
    """The Monte-Carlo step adapts to the sample count, never to the host."""

    def test_conv_plan_steps_by_module_constant(self):
        from repro.runtime import montecarlo

        conv_plan = compile_model(make_lenet(mapping="acm", quantizer_bits=4, seed=0))
        step = montecarlo._STEP_IMAGES
        assert montecarlo._effective_batch(conv_plan, 512, num_samples=4) == \
            min(512, step // 4)
        assert montecarlo._effective_batch(conv_plan, 8, num_samples=4) == 8
        assert montecarlo._effective_batch(conv_plan, 64, num_samples=4 * step) == 1

    def test_dense_plan_keeps_caller_batch(self):
        from repro.runtime import montecarlo

        plan = compile_model(make_mlp(input_size=16, hidden_sizes=(8,), seed=0))
        assert montecarlo._effective_batch(plan, 999, num_samples=8) == 999


class TestEvaluateIntegration:
    """The train.evaluate helpers must agree across runtime and eager paths."""

    @pytest.fixture
    def setup(self):
        from repro.data.dataset import ArrayDataset

        rng = np.random.default_rng(0)
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                         quantizer_bits=4, seed=0)
        dataset = ArrayDataset(
            rng.normal(size=(25, 1, 4, 4)), rng.integers(0, 10, size=25)
        )
        return model, dataset

    def test_accuracy_identical_between_paths(self, setup):
        from repro.train.evaluate import evaluate_accuracy

        model, dataset = setup
        assert evaluate_accuracy(model, dataset, use_runtime=True) == \
            evaluate_accuracy(model, dataset, use_runtime=False)

    def test_variation_sweep_runtime_reproducible(self, setup):
        from repro.train.evaluate import variation_sweep

        model, dataset = setup
        first = variation_sweep(model, dataset, sigmas=[0.0, 0.2],
                                num_samples=4, seed=5, use_runtime=True)
        second = variation_sweep(model, dataset, sigmas=[0.0, 0.2],
                                 num_samples=4, seed=5, use_runtime=True)
        assert first.mean_accuracy == second.mean_accuracy
        assert len(first.samples[0.2]) == 4
        assert len(first.samples[0.0]) == 1

    def test_active_variation_falls_back_to_eager(self, setup):
        from repro.train.evaluate import plan_for

        model, dataset = setup
        layer = next(m for m in model.modules() if hasattr(m, "set_variation"))
        layer.set_variation(0.1)
        try:
            assert plan_for(model, None) is None
            with pytest.raises(ValueError):
                plan_for(model, True)
        finally:
            layer.set_variation(0.0)
        assert plan_for(model, None) is not None

    def test_runtime_flag_forced_compile_failure_raises(self):
        from repro.train.evaluate import evaluate_accuracy

        class Strange(Module):
            def forward(self, inputs):
                return inputs

        from repro.data.dataset import ArrayDataset

        dataset = ArrayDataset(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(PlanCompilationError):
            evaluate_accuracy(Strange(), dataset, use_runtime=True)
