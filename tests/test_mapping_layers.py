"""Unit tests for the crossbar-mapped dense and convolutional layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping.mapped_layer import MappedConv2d, MappedLinear
from repro.mapping.regularization import effective_weight_range
from repro.nn.layers import Conv2d
from repro.optim import SGD
from repro.tensor import Tensor, functional


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestMappedLinearConstruction:
    @pytest.mark.parametrize("mapping,columns", [("acm", 6), ("bc", 6), ("de", 10)])
    def test_crossbar_column_count(self, mapping, columns):
        layer = MappedLinear(4, 5, mapping=mapping, rng=make_rng())
        assert layer.num_crossbar_columns == columns
        assert layer.num_devices == columns * 4

    def test_crossbar_parameter_is_non_negative_constrained(self):
        layer = MappedLinear(4, 3, mapping="acm", rng=make_rng())
        assert layer.crossbar.constraint == "non_negative"
        assert (layer.crossbar.data >= 0).all()

    def test_bc_reference_column_is_buffer_not_parameter(self):
        layer = MappedLinear(4, 3, mapping="bc", rng=make_rng())
        parameter_names = [name for name, _ in layer.named_parameters()]
        assert "crossbar" in parameter_names
        assert all("reference" not in name for name in parameter_names)
        np.testing.assert_allclose(
            layer.reference_column, layer.conductance_range.midpoint
        )

    def test_bc_reference_snaps_to_device_state_when_quantized(self):
        layer = MappedLinear(4, 3, mapping="bc", quantizer_bits=2, rng=make_rng())
        reference_value = layer.reference_column[0, 0]
        assert np.isclose(reference_value, layer.quantizer.levels).any()

    def test_rejects_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MappedLinear(0, 3)
        with pytest.raises(ValueError):
            MappedLinear(3, 4, weight_scale=-1.0)

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ValueError):
            MappedLinear(3, 4, mapping="unknown")

    def test_conductances_include_reference_for_bc(self):
        layer = MappedLinear(4, 3, mapping="bc", rng=make_rng())
        assert layer.conductances().shape == (4, 4)

    def test_weight_scale_sets_conductance_range(self):
        layer = MappedLinear(4, 3, mapping="acm", weight_scale=2.5, rng=make_rng())
        assert layer.conductance_range.g_max == pytest.approx(2.5)


class TestMappedLinearForward:
    def test_output_shape(self):
        layer = MappedLinear(6, 4, mapping="acm", rng=make_rng())
        assert layer(Tensor(np.zeros((3, 6)))).shape == (3, 4)

    @pytest.mark.parametrize("mapping", ["acm", "de", "bc"])
    def test_forward_equals_effective_weight_product(self, mapping, rng):
        layer = MappedLinear(5, 4, mapping=mapping, rng=make_rng(1))
        inputs = rng.normal(size=(7, 5))
        expected = inputs @ layer.effective_weight().T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(inputs)).data, expected, atol=1e-10)

    @pytest.mark.parametrize("mapping", ["acm", "de", "bc"])
    def test_effective_weight_equals_periphery_times_crossbar(self, mapping):
        layer = MappedLinear(5, 4, mapping=mapping, rng=make_rng(2))
        expected = layer.periphery.matrix @ layer.conductances()
        np.testing.assert_allclose(layer.effective_weight(), expected, atol=1e-12)

    def test_no_bias_option(self):
        layer = MappedLinear(4, 3, mapping="acm", bias=False, rng=make_rng())
        assert layer.bias is None

    def test_quantized_forward_uses_quantized_conductances(self, rng):
        layer = MappedLinear(5, 4, mapping="acm", quantizer_bits=2, rng=make_rng(3))
        weight = layer.effective_weight()
        quantized_crossbar = layer.quantizer.snap(layer.conductances())
        expected = layer.periphery.matrix @ quantized_crossbar
        np.testing.assert_allclose(weight, expected, atol=1e-12)

    def test_effective_weight_range_respects_mapping_limits(self):
        """BC can only reach half the signed range of DE/ACM (paper Section II)."""
        for mapping in ("acm", "de", "bc"):
            layer = MappedLinear(4, 3, mapping=mapping, weight_scale=1.0, rng=make_rng())
            low, high = effective_weight_range(mapping, g_max=1.0)
            weight = layer.effective_weight()
            assert weight.min() >= low - 1e-9
            assert weight.max() <= high + 1e-9

    def test_gradients_flow_to_crossbar_and_bias(self, rng):
        layer = MappedLinear(5, 4, mapping="acm", rng=make_rng(4))
        layer(Tensor(rng.normal(size=(3, 5)))).sum().backward()
        assert layer.crossbar.grad is not None
        assert layer.crossbar.grad.shape == layer.crossbar.shape
        assert layer.bias.grad is not None

    def test_acm_gradient_couples_adjacent_outputs(self, rng):
        """The gradient on an interior crossbar column is the difference of the
        gradients of the two outputs that share it."""
        layer = MappedLinear(3, 4, mapping="acm", bias=False, rng=make_rng(5))
        inputs = rng.normal(size=(2, 3))
        output = layer(Tensor(inputs))
        upstream = rng.normal(size=output.shape)
        output.backward(upstream)
        weight_grad = upstream.T @ inputs  # gradient w.r.t. the signed weight W
        expected_crossbar_grad = layer.periphery.matrix.T @ weight_grad
        np.testing.assert_allclose(layer.crossbar.grad, expected_crossbar_grad, atol=1e-10)


class TestMappedLinearTraining:
    @pytest.mark.parametrize("mapping", ["acm", "de", "bc"])
    def test_crossbar_stays_non_negative_after_sgd(self, mapping, rng):
        layer = MappedLinear(6, 4, mapping=mapping, rng=make_rng(6))
        optimizer = SGD(layer.parameters(), lr=0.5)
        for _ in range(20):
            inputs = Tensor(rng.normal(size=(8, 6)))
            loss = (layer(inputs) ** 2).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert (layer.crossbar.data >= 0).all()

    def test_clip_conductances_enforces_gmax(self):
        layer = MappedLinear(4, 3, mapping="acm", rng=make_rng(7))
        layer.crossbar.data[0, 0] = layer.conductance_range.g_max * 10
        layer.clip_conductances()
        assert layer.crossbar.data.max() <= layer.conductance_range.g_max

    def test_simple_regression_learns(self, rng):
        """A mapped layer can fit a small signed linear map despite M >= 0."""
        target_weight = rng.normal(size=(2, 4))
        inputs = rng.normal(size=(64, 4))
        targets = inputs @ target_weight.T
        layer = MappedLinear(4, 2, mapping="acm", rng=make_rng(8))
        optimizer = SGD(layer.parameters(), lr=0.1)
        for _ in range(300):
            predictions = layer(Tensor(inputs))
            loss = ((predictions - Tensor(targets)) ** 2).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.01


class TestVariationInjection:
    def test_variation_only_active_in_eval_mode(self, rng):
        layer = MappedLinear(5, 4, mapping="acm", rng=make_rng(9))
        layer.set_variation(0.2, rng=np.random.default_rng(0))
        inputs = Tensor(rng.normal(size=(3, 5)))
        layer.train()
        clean = layer(inputs).data
        reference = inputs.data @ (layer.periphery.matrix @ np.clip(
            layer.conductances(), 0, layer.conductance_range.g_max)).T + layer.bias.data
        np.testing.assert_allclose(clean, reference, atol=1e-10)
        layer.eval()
        noisy = layer(inputs).data
        assert not np.allclose(noisy, clean)

    def test_set_variation_zero_disables(self, rng):
        layer = MappedLinear(5, 4, mapping="acm", rng=make_rng(10))
        layer.set_variation(0.2)
        layer.set_variation(0.0)
        assert layer.variation is None

    def test_variation_does_not_mutate_stored_conductances(self, rng):
        layer = MappedLinear(5, 4, mapping="acm", rng=make_rng(11))
        before = layer.crossbar.data.copy()
        layer.set_variation(0.3, rng=np.random.default_rng(1))
        layer.eval()
        layer(Tensor(rng.normal(size=(2, 5))))
        np.testing.assert_allclose(layer.crossbar.data, before)

    def test_bc_reference_column_also_subject_to_variation(self, rng):
        """The BC reference is made of real devices, so it is perturbed too."""
        layer = MappedLinear(5, 4, mapping="bc", bias=False, rng=make_rng(12))
        layer.eval()
        inputs = Tensor(np.ones((1, 5)))
        clean = layer(inputs).data
        draws = []
        for seed in range(5):
            layer.set_variation(0.25, rng=np.random.default_rng(seed))
            draws.append(layer(inputs).data)
        layer.set_variation(0.0)
        spread = np.std([d - clean for d in draws], axis=0)
        assert spread.max() > 0


class TestMappedConv2d:
    def test_output_shape(self):
        layer = MappedConv2d(3, 8, 3, padding=1, mapping="acm", rng=make_rng())
        assert layer(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    @pytest.mark.parametrize("mapping", ["acm", "de", "bc"])
    def test_matches_standard_conv_with_same_effective_weight(self, mapping, rng):
        mapped = MappedConv2d(2, 4, 3, padding=1, mapping=mapping, rng=make_rng(13))
        reference = Conv2d(2, 4, 3, padding=1, rng=make_rng(14))
        reference.weight.data[...] = mapped.effective_weight().reshape(4, 2, 3, 3)
        reference.bias.data[...] = mapped.bias.data
        inputs = rng.normal(size=(2, 2, 6, 6))
        np.testing.assert_allclose(
            mapped(Tensor(inputs)).data, reference(Tensor(inputs)).data, atol=1e-10
        )

    def test_gradients_flow(self, rng):
        layer = MappedConv2d(2, 4, 3, padding=1, mapping="acm", rng=make_rng(15))
        layer(Tensor(rng.normal(size=(2, 2, 6, 6)))).sum().backward()
        assert layer.crossbar.grad is not None
        assert layer.crossbar.grad.shape == layer.crossbar.shape

    def test_stride(self):
        layer = MappedConv2d(3, 8, 3, stride=2, padding=1, mapping="de", rng=make_rng())
        assert layer(Tensor(np.zeros((1, 3, 8, 8)))).shape == (1, 8, 4, 4)

    def test_fan_in_includes_kernel_area(self):
        layer = MappedConv2d(3, 8, 5, mapping="acm", rng=make_rng())
        assert layer.fan_in == 3 * 25
        assert layer.num_devices == (8 + 1) * 75

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            MappedConv2d(0, 4, 3)
        with pytest.raises(ValueError):
            MappedConv2d(3, 4, 0)
