"""Unit and property-based tests for conductance ranges and quantisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor
from repro.xbar.quantization import ConductanceRange, UniformQuantizer


class TestConductanceRange:
    def test_defaults(self):
        conductance_range = ConductanceRange()
        assert conductance_range.g_min == 0.0
        assert conductance_range.g_max == 1.0
        assert conductance_range.span == 1.0
        assert conductance_range.midpoint == 0.5

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ConductanceRange(1.0, 0.5)

    def test_rejects_negative_minimum(self):
        with pytest.raises(ValueError):
            ConductanceRange(-0.1, 1.0)

    def test_clip(self):
        conductance_range = ConductanceRange(0.0, 2.0)
        np.testing.assert_allclose(
            conductance_range.clip(np.array([-1.0, 1.0, 3.0])), [0.0, 1.0, 2.0]
        )

    def test_contains(self):
        conductance_range = ConductanceRange(0.0, 1.0)
        assert conductance_range.contains(np.array([0.0, 0.5, 1.0]))
        assert not conductance_range.contains(np.array([1.5]))

    def test_nonzero_minimum(self):
        conductance_range = ConductanceRange(0.2, 1.0)
        assert conductance_range.span == pytest.approx(0.8)
        assert conductance_range.midpoint == pytest.approx(0.6)


class TestUniformQuantizer:
    def test_level_count(self):
        assert UniformQuantizer(3).num_levels == 8
        assert len(UniformQuantizer(3).levels) == 8

    def test_levels_span_range(self):
        quantizer = UniformQuantizer(4, ConductanceRange(0.0, 2.0))
        assert quantizer.levels[0] == 0.0
        assert quantizer.levels[-1] == 2.0

    def test_step_size(self):
        quantizer = UniformQuantizer(2, ConductanceRange(0.0, 3.0))
        assert quantizer.step == pytest.approx(1.0)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            UniformQuantizer(0)
        with pytest.raises(ValueError):
            UniformQuantizer(17)

    def test_quantize_array_snaps_to_levels(self):
        quantizer = UniformQuantizer(2)  # levels 0, 1/3, 2/3, 1
        result = quantizer.snap(np.array([0.1, 0.4, 0.9]))
        np.testing.assert_allclose(result, [0.0, 1.0 / 3.0, 1.0])

    def test_quantize_array_clips_out_of_range(self):
        quantizer = UniformQuantizer(3)
        result = quantizer.snap(np.array([-0.5, 1.5]))
        np.testing.assert_allclose(result, [0.0, 1.0])

    def test_quantize_matches_tensor_path(self, rng):
        """The array path and the STE tensor path must program identical states."""
        quantizer = UniformQuantizer(3, ConductanceRange(0.0, 1.6))
        values = rng.uniform(-0.2, 1.8, size=(40, 7))
        via_array = quantizer.snap(values)
        via_tensor = quantizer.quantize_ste(Tensor(values)).data
        np.testing.assert_array_equal(via_array, via_tensor)

    def test_midpoint_tie_consistency(self):
        """Exact half-step values must quantise identically on both paths."""
        quantizer = UniformQuantizer(2, ConductanceRange(0.0, 1.0))
        midpoint = np.array([0.5])
        assert quantizer.snap(midpoint)[0] == pytest.approx(
            quantizer.quantize_ste(Tensor(midpoint)).data[0]
        )

    def test_ste_gradient_passthrough(self):
        quantizer = UniformQuantizer(2)
        tensor = Tensor(np.array([0.3, 0.6]), requires_grad=True)
        quantizer.quantize_ste(tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, [1.0, 1.0])

    def test_ste_gradient_masked_outside_range(self):
        quantizer = UniformQuantizer(2)
        tensor = Tensor(np.array([-0.5, 0.5]), requires_grad=True)
        quantizer.quantize_ste(tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0])

    def test_state_index(self):
        quantizer = UniformQuantizer(2)
        np.testing.assert_array_equal(
            quantizer.state_index(np.array([0.0, 0.34, 1.0])), [0, 1, 3]
        )

    def test_scalar_input_keeps_its_shape(self):
        quantizer = UniformQuantizer(2)
        assert quantizer.state_index(0.34).shape == ()
        assert quantizer.snap(0.34) == pytest.approx(1.0 / 3.0)

    # ------------------------------------------------------------------ #
    # Property-based tests
    # ------------------------------------------------------------------ #
    @given(
        bits=st.integers(min_value=1, max_value=8),
        values=st.lists(st.floats(-2.0, 4.0, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantization_is_idempotent(self, bits, values):
        quantizer = UniformQuantizer(bits, ConductanceRange(0.0, 2.0))
        once = quantizer.snap(np.array(values))
        twice = quantizer.snap(once)
        np.testing.assert_allclose(once, twice)

    @given(
        bits=st.integers(min_value=1, max_value=8),
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantization_error_bounded_by_half_step(self, bits, values):
        quantizer = UniformQuantizer(bits)
        array = np.array(values)
        quantized = quantizer.snap(array)
        assert np.abs(quantized - array).max() <= quantizer.step / 2 + 1e-12

    @given(
        bits=st.integers(min_value=1, max_value=8),
        values=st.lists(st.floats(-1.0, 3.0, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantized_values_are_valid_levels(self, bits, values):
        quantizer = UniformQuantizer(bits)
        quantized = quantizer.snap(np.array(values))
        for value in quantized:
            assert np.isclose(value, quantizer.levels).any()

    @given(bits=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_levels_are_monotone_and_uniform(self, bits):
        quantizer = UniformQuantizer(bits)
        differences = np.diff(quantizer.levels)
        assert (differences > 0).all()
        np.testing.assert_allclose(differences, quantizer.step)


def _argmin_index(quantizer, values):
    """Oracle: index of the nearest level by arg-min over the full table."""
    values = quantizer.range.clip(np.asarray(values, dtype=np.float64))
    return np.abs(values[..., None] - quantizer.levels).argmin(axis=-1)


class TestSnap:
    """The O(N)-memory snap must agree exactly with the full argmin table."""

    def _argmin_reference(self, quantizer, values):
        return quantizer.levels[_argmin_index(quantizer, values)]

    @given(
        bits=st.integers(min_value=1, max_value=16),
        g_min=st.floats(0.0, 2.0),
        span=st.floats(1e-3, 10.0),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_snap_and_state_index_match_argmin(self, bits, g_min, span, data):
        """Exact levels, exact midpoints, their float neighbours, out of range."""
        quantizer = UniformQuantizer(bits, ConductanceRange(g_min, g_min + span))
        levels, top = quantizer.levels, quantizer.num_levels - 1
        picks = np.array(data.draw(
            st.lists(st.integers(0, top), min_size=1, max_size=8)
        ))
        lower = np.minimum(picks, top - 1)
        midpoints = (levels[lower] + levels[lower + 1]) / 2.0
        anchors = np.concatenate([levels[picks], midpoints])
        outside = np.array(data.draw(
            st.lists(st.floats(0.0, 2.0 * span), min_size=1, max_size=4)
        ))
        inside = np.array(data.draw(
            st.lists(st.floats(g_min, g_min + span), max_size=8)
        ))
        values = np.concatenate([
            anchors,
            np.nextafter(anchors, -np.inf),
            np.nextafter(anchors, np.inf),
            quantizer.range.g_min - outside,
            quantizer.range.g_max + outside,
            inside,
        ])
        expected = _argmin_index(quantizer, values)
        np.testing.assert_array_equal(quantizer.state_index(values), expected)
        np.testing.assert_array_equal(quantizer.snap(values), levels[expected])

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_snap_matches_argmin_on_random_values(self, bits, rng):
        quantizer = UniformQuantizer(bits, ConductanceRange(0.0, 1.0))
        values = rng.uniform(-0.2, 1.2, size=(64, 32))
        np.testing.assert_array_equal(
            quantizer.snap(values), self._argmin_reference(quantizer, values)
        )

    def test_snap_matches_argmin_at_exact_midpoints(self):
        quantizer = UniformQuantizer(3, ConductanceRange(0.0, 1.0))
        midpoints = (quantizer.levels[:-1] + quantizer.levels[1:]) / 2.0
        np.testing.assert_array_equal(
            quantizer.snap(midpoints), self._argmin_reference(quantizer, midpoints)
        )

    def test_snap_handles_stacked_arrays(self, rng):
        quantizer = UniformQuantizer(4, ConductanceRange(0.0, 2.0))
        stacked = rng.uniform(0, 2, size=(5, 7, 11))
        flat = quantizer.snap(stacked.reshape(-1))
        np.testing.assert_array_equal(quantizer.snap(stacked).reshape(-1), flat)

    def test_snap_nonzero_minimum_range(self, rng):
        quantizer = UniformQuantizer(4, ConductanceRange(0.5, 1.5))
        values = rng.uniform(0.0, 2.0, size=200)
        np.testing.assert_array_equal(
            quantizer.snap(values), self._argmin_reference(quantizer, values)
        )
