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


#: The conductance ranges the exactness tests sweep: the unit range, an
#: offset sub-range, and a microsiemens-scale range of tiny magnitudes.
EXACTNESS_RANGES = [(0.0, 1.0), (0.1, 0.7), (1e-6, 3e-5)]

#: Largest ``points x levels`` oracle table one exactness case evaluates.
_ORACLE_BUDGET = 1 << 26


def _full_table_snap(quantizer, values):
    """``levels[|x - levels|.argmin()]`` over the full table, in row chunks."""
    values = quantizer.range.clip(values)
    rows = max(1, _ORACLE_BUDGET // (64 * quantizer.num_levels))
    index = np.concatenate([
        np.abs(values[start:start + rows, None] - quantizer.levels).argmin(-1)
        for start in range(0, values.size, rows)
    ])
    return index, quantizer.levels[index]


def _within_ulps(anchors, ulps=300):
    """Every float64 within ``ulps`` steps of each anchor, both directions."""
    below, above, values = anchors, anchors, [anchors]
    for _ in range(ulps):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        values += [below, above]
    return np.concatenate(values)


def _first_upper_winners(quantizer):
    """The first float64 past each midpoint the full-table arg-min sends up.

    Found independently of the quantiser's own table: step up one ulp at a
    time from just below the rounded midpoint until the upper level wins.
    """
    levels = quantizer.levels
    lower, upper = levels[:-1], levels[1:]
    candidate = np.nextafter((lower + upper) / 2.0, -np.inf)
    for _ in range(8):
        candidate = np.nextafter(candidate, -np.inf)
    found = np.full(lower.shape, np.nan)
    for _ in range(32):
        wins = np.abs(candidate - upper) < np.abs(candidate - lower)
        fresh = wins & np.isnan(found)
        found[fresh] = candidate[fresh]
        candidate = np.nextafter(candidate, np.inf)
    assert not np.isnan(found).any()
    return found


class TestSnapExactness:
    """The one-compare snap equals the full-table arg-min bit for bit."""

    @pytest.mark.parametrize("g_min,g_max", EXACTNESS_RANGES)
    @pytest.mark.parametrize("bits", range(1, 17))
    def test_matches_full_table_around_levels_and_boundaries(self, bits, g_min, g_max):
        """Every value within 300 ulps of a level or a decision boundary.

        Up to 8 bits every level and boundary is an anchor.  Above that the
        full-table oracle over every anchor would cost about 5 * 10^12
        comparisons, so an evenly strided subset (always including both
        ends of the range) stays within :data:`_ORACLE_BUDGET`.
        """
        quantizer = UniformQuantizer(bits, ConductanceRange(g_min, g_max))
        boundaries = _first_upper_winners(quantizer)
        anchors = np.concatenate([quantizer.levels, boundaries])
        if bits > 8:
            limit = max(8, _ORACLE_BUDGET // (601 * quantizer.num_levels))
            levels = np.linspace(0, quantizer.num_levels - 1, limit // 2).astype(int)
            picks = np.linspace(0, boundaries.size - 1, limit // 2).astype(int)
            anchors = np.concatenate([quantizer.levels[levels], boundaries[picks]])
        values = _within_ulps(anchors)
        index, snapped = _full_table_snap(quantizer, values)
        np.testing.assert_array_equal(quantizer.state_index(values), index)
        np.testing.assert_array_equal(quantizer.snap(values), snapped)

    @given(
        bits=st.integers(min_value=1, max_value=16),
        which=st.sampled_from(EXACTNESS_RANGES),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_table_on_drawn_values(self, bits, which, data):
        g_min, g_max = which
        quantizer = UniformQuantizer(bits, ConductanceRange(g_min, g_max))
        span = g_max - g_min
        values = np.array(data.draw(st.lists(
            st.floats(g_min - span, g_max + span, allow_nan=False), min_size=1,
            max_size=64,
        )))
        index, snapped = _full_table_snap(quantizer, values)
        np.testing.assert_array_equal(quantizer.state_index(values), index)
        np.testing.assert_array_equal(quantizer.snap(values), snapped)

    @pytest.mark.parametrize("g_min,g_max", EXACTNESS_RANGES)
    def test_non_finite_values_pin_to_the_range_ends(self, g_min, g_max):
        quantizer = UniformQuantizer(4, ConductanceRange(g_min, g_max))
        values = np.array([np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):  # NaN's cast to an index
            np.testing.assert_array_equal(quantizer.state_index(values), [0, 15, 0])
            np.testing.assert_array_equal(quantizer.snap(values), [g_min, g_max, g_min])

    def test_boundary_table_is_memoised_and_read_only(self):
        first = UniformQuantizer(5, ConductanceRange(0.1, 0.7))
        second = UniformQuantizer(5, ConductanceRange(0.1, 0.7))
        assert first._boundaries is second._boundaries
        assert not first._boundaries.flags.writeable
        np.testing.assert_array_equal(first._boundaries, _first_upper_winners(first))
