"""Unit tests for the reverse-mode autograd engine.

Analytical gradients of every primitive operation are checked against central
finite differences on small random inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.tensor import stack
from repro.xbar.quantization import ConductanceRange, UniformQuantizer


def numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``function`` at ``array``."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


def check_gradient(build_output, array: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd and numerical gradients for a scalar-producing graph."""
    tensor = Tensor(array.copy(), requires_grad=True)
    output = build_output(tensor)
    output.backward()
    analytic = tensor.grad

    def scalar_function(values: np.ndarray) -> float:
        return build_output(Tensor(values)).item()

    numeric = numerical_gradient(scalar_function, array.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestBasicProperties:
    def test_tensor_wraps_numpy_array(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4
        assert tensor.numpy().dtype == np.float64

    def test_requires_grad_defaults_false(self):
        assert not Tensor([1.0]).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_item_returns_float(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)

    def test_detach_breaks_graph(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        detached = (tensor * 2).detach()
        assert not detached.requires_grad

    def test_zeros_ones_randn_factories(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)
        generated = Tensor.randn((4, 4), rng=np.random.default_rng(0))
        assert generated.shape == (4, 4)

    def test_backward_requires_scalar(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestNoGrad:
    def test_no_grad_disables_tracking(self):
        tensor = Tensor([1.0], requires_grad=True)
        with no_grad():
            result = tensor * 3
        assert not result.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestElementwiseGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_gradient(lambda t: (5.0 - t).sum(), rng.normal(size=(3, 4)))

    def test_mul(self, rng):
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t * Tensor(other)).sum(), rng.normal(size=(3, 4)))

    def test_div(self, rng):
        other = rng.uniform(1.0, 2.0, size=(3, 4))
        check_gradient(lambda t: (t / Tensor(other)).sum(), rng.normal(size=(3, 4)))

    def test_div_gradient_of_denominator(self, rng):
        numerator = rng.normal(size=(3, 3))
        check_gradient(
            lambda t: (Tensor(numerator) / t).sum(), rng.uniform(1.0, 2.0, size=(3, 3))
        )

    def test_neg(self, rng):
        check_gradient(lambda t: (-t).sum(), rng.normal(size=(4,)))

    def test_pow(self, rng):
        check_gradient(lambda t: (t ** 3).sum(), rng.uniform(0.5, 2.0, size=(3, 3)))

    def test_exp(self, rng):
        check_gradient(lambda t: t.exp().sum(), rng.normal(size=(3, 3)))

    def test_log(self, rng):
        check_gradient(lambda t: t.log().sum(), rng.uniform(0.5, 3.0, size=(3, 3)))

    def test_relu(self, rng):
        values = rng.normal(size=(4, 4))
        values[np.abs(values) < 0.1] = 0.5  # keep away from the kink
        check_gradient(lambda t: t.relu().sum(), values)

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh().sum(), rng.normal(size=(3, 3)))

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(3, 3)))

    def test_abs(self, rng):
        values = rng.normal(size=(3, 3))
        values[np.abs(values) < 0.1] = 0.7
        check_gradient(lambda t: t.abs().sum(), values)

    def test_sqrt(self, rng):
        check_gradient(lambda t: t.sqrt().sum(), rng.uniform(0.5, 2.0, size=(3,)))

    def test_clip_gradient_masked_outside_range(self):
        tensor = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        tensor.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0, 0.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestBroadcasting:
    def test_add_broadcast_row(self, rng):
        row = rng.normal(size=(1, 4))
        check_gradient(lambda t: (t + Tensor(row)).sum(), rng.normal(size=(3, 4)))

    def test_add_broadcast_gradient_of_small_operand(self, rng):
        big = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(big) + t).sum(), rng.normal(size=(4,)))

    def test_mul_broadcast_scalar(self, rng):
        check_gradient(lambda t: (t * 2.5).sum(), rng.normal(size=(2, 3)))

    def test_broadcast_accumulates_to_correct_shape(self):
        small = Tensor(np.ones((1, 3)), requires_grad=True)
        big = Tensor(np.ones((4, 3)), requires_grad=True)
        (small * big).sum().backward()
        assert small.grad.shape == (1, 3)
        np.testing.assert_allclose(small.grad, np.full((1, 3), 4.0))


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        other = rng.normal(size=(4, 5))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), rng.normal(size=(3, 4)))

    def test_matmul_gradient_of_rhs(self, rng):
        left = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), rng.normal(size=(4, 2)))

    def test_matmul_value(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_chained_matmul_gradients(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 4))
        check_gradient(lambda t: ((t @ Tensor(b)) @ Tensor(b)).sum(), a)


class TestReductionsAndShapes:
    def test_sum_axis(self, rng):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_gradient(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), rng.normal(size=(3, 4))
        )

    def test_mean(self, rng):
        check_gradient(lambda t: (t.mean() * 10.0), rng.normal(size=(4, 4)))

    def test_mean_axis_tuple(self, rng):
        check_gradient(
            lambda t: (t.mean(axis=(1, 2)) ** 2).sum(), rng.normal(size=(2, 3, 4))
        )

    def test_var(self, rng):
        check_gradient(lambda t: t.var(axis=0).sum(), rng.normal(size=(5, 3)))

    def test_max_gradient_flows_to_maximum(self):
        tensor = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        tensor.max(axis=1).sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0.0, 1.0, 0.0]])

    def test_max_tie_splits_gradient(self):
        tensor = Tensor([[2.0, 2.0]], requires_grad=True)
        tensor.max(axis=1).sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0.5, 0.5]])

    def test_reshape(self, rng):
        check_gradient(lambda t: (t.reshape(6, 2) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_flatten(self, rng):
        check_gradient(lambda t: (t.flatten() ** 2).sum(), rng.normal(size=(2, 3, 4)))

    def test_transpose(self, rng):
        other = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t.T @ Tensor(other)).sum(), rng.normal(size=(3, 4)))

    def test_transpose_with_axes(self, rng):
        check_gradient(
            lambda t: (t.transpose((2, 0, 1)) ** 2).sum(), rng.normal(size=(2, 3, 4))
        )

    def test_getitem(self, rng):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_getitem_fancy_index_accumulates(self):
        tensor = Tensor(np.arange(4.0), requires_grad=True)
        picked = tensor[np.array([0, 0, 2])]
        picked.sum().backward()
        np.testing.assert_allclose(tensor.grad, [2.0, 0.0, 1.0, 0.0])

    def test_pad2d(self, rng):
        check_gradient(lambda t: (t.pad2d(1) ** 2).sum(), rng.normal(size=(1, 2, 3, 3)))

    def test_concatenate(self, rng):
        left = rng.normal(size=(2, 3))
        check_gradient(
            lambda t: Tensor.concatenate([t, Tensor(left)], axis=0).sum() + (t ** 2).sum(),
            rng.normal(size=(2, 3)),
        )

    def test_stack(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        stacked = stack([a, b], axis=0)
        assert stacked.shape == (2, 2, 3)
        stacked.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))


class TestSoftmaxAndQuantize:
    def test_softmax_rows_sum_to_one(self, rng):
        probabilities = Tensor(rng.normal(size=(5, 7))).softmax(axis=-1)
        np.testing.assert_allclose(probabilities.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(4, 6))
        direct = Tensor(logits).log_softmax(axis=-1).data
        via_softmax = np.log(Tensor(logits).softmax(axis=-1).data)
        np.testing.assert_allclose(direct, via_softmax, atol=1e-10)

    def test_log_softmax_gradient(self, rng):
        check_gradient(
            lambda t: (t.log_softmax(axis=-1) * Tensor(np.eye(3))).sum(),
            rng.normal(size=(3, 3)),
        )

    # The straight-through quantiser is the device quantiser's autograd op.
    QUANTIZER = UniformQuantizer(2, ConductanceRange(0.0, 1.5))  # 0, .5, 1, 1.5

    def test_quantize_ste_snaps_to_levels(self):
        quantized = self.QUANTIZER.quantize_ste(Tensor([0.1, 0.4, 0.8]))
        np.testing.assert_allclose(quantized.data, [0.0, 0.5, 1.0])

    def test_quantize_ste_passes_gradient_through(self):
        tensor = Tensor([0.1, 0.4, 0.8], requires_grad=True)
        self.QUANTIZER.quantize_ste(tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, [1.0, 1.0, 1.0])


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self):
        tensor = Tensor([2.0], requires_grad=True)
        ((tensor * 3) + (tensor * 4)).sum().backward()
        np.testing.assert_allclose(tensor.grad, [7.0])

    def test_diamond_graph(self, rng):
        check_gradient(
            lambda t: ((t * 2) + (t ** 2) * (t * 3)).sum(), rng.normal(size=(3,))
        )

    def test_zero_grad_clears_gradient(self):
        tensor = Tensor([1.0], requires_grad=True)
        (tensor * 2).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None

    def test_deep_chain_does_not_recurse(self):
        tensor = Tensor([1.0], requires_grad=True)
        value = tensor
        for _ in range(500):
            value = value + 1.0
        value.sum().backward()
        np.testing.assert_allclose(tensor.grad, [1.0])

    def test_comparison_returns_numpy_bool(self):
        result = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(result, np.ndarray)
        np.testing.assert_array_equal(result, [False, True])
