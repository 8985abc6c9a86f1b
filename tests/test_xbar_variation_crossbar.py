"""Unit tests for the device-variation model and the crossbar tile model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.plan import CrossbarSpec
from repro.xbar.crossbar import CrossbarArray, CrossbarTiling
from repro.xbar.quantization import ConductanceRange, UniformQuantizer
from repro.xbar.variation import DeviceVariationModel


class TestDeviceVariation:
    def test_zero_sigma_is_identity(self, rng):
        conductances = rng.uniform(0, 1, size=(5, 5))
        perturbed = DeviceVariationModel(0.0).perturb(conductances, 1, rng=rng)
        np.testing.assert_allclose(perturbed[0], conductances)

    def test_zero_sigma_returns_copy(self, rng):
        conductances = rng.uniform(0, 1, size=(3, 3))
        perturbed = DeviceVariationModel(0.0).perturb(conductances, 1)
        perturbed[:] = -1
        assert (conductances >= 0).all()

    def test_perturbation_statistics(self):
        model = DeviceVariationModel(0.1, range=ConductanceRange(0.0, 2.0))
        conductances = np.full((200, 200), 1.0)
        perturbed = model.perturb(conductances, 1, rng=np.random.default_rng(0))
        noise = perturbed[0] - conductances
        assert abs(noise.mean()) < 0.005
        assert noise.std() == pytest.approx(0.2, rel=0.05)  # 10 % of span 2.0

    def test_clipping_keeps_range(self):
        """Perturbation only adds noise; programming a tile clips it back."""
        model = DeviceVariationModel(0.5, range=ConductanceRange(0.0, 1.0))
        noisy = model.perturb(np.full((1, 1000), 0.95), 1, rng=np.random.default_rng(1))[0]
        assert noisy.max() > 1.0 and noisy.min() < 0.0
        tile = CrossbarArray(rows=1, cols=1000, variation=model,
                             rng=np.random.default_rng(1))
        programmed = tile.program(np.full((1, 1000), 0.95))
        np.testing.assert_array_equal(programmed, np.clip(noisy, 0.0, 1.0))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            DeviceVariationModel(-0.1)

    def test_sigma_absolute_scales_with_span(self):
        model = DeviceVariationModel(0.15, range=ConductanceRange(0.0, 4.0))
        assert model.sigma_absolute == pytest.approx(0.6)

    def test_deterministic_given_seeded_rng(self, rng):
        conductances = rng.uniform(0, 1, size=(4, 4))
        model = DeviceVariationModel(0.1)
        first = model.perturb(conductances, 3, rng=np.random.default_rng(7))
        second = model.perturb(conductances, 3, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)

    def test_one_sample_stack_is_stream_identical_to_a_plain_draw(self, rng):
        conductances = rng.uniform(0, 1, size=(4, 6))
        model = DeviceVariationModel(0.1)
        stacked = model.perturb(conductances, 1, rng=np.random.default_rng(11))
        noise = np.random.default_rng(11).normal(0.0, 0.1, size=conductances.shape)
        np.testing.assert_array_equal(stacked[0], conductances + noise)


class TestCrossbarArray:
    def test_program_and_exact_readout(self, rng):
        tile = CrossbarArray(rows=8, cols=6)
        matrix = rng.uniform(0, 1, size=(8, 6))
        tile.program(matrix)
        inputs = rng.normal(size=(4, 8))
        np.testing.assert_allclose(tile.matmat(inputs), inputs @ matrix, atol=1e-12)

    def test_matvec(self, rng):
        tile = CrossbarArray(rows=5, cols=3)
        matrix = rng.uniform(0, 1, size=(5, 3))
        tile.program(matrix)
        vector = rng.normal(size=5)
        np.testing.assert_allclose(tile.matvec(vector), vector @ matrix, atol=1e-12)

    def test_program_rejects_negative_conductances(self):
        tile = CrossbarArray(rows=2, cols=2)
        with pytest.raises(ValueError):
            tile.program(np.array([[0.5, -0.1], [0.2, 0.3]]))

    def test_program_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CrossbarArray(rows=2, cols=2).program(np.zeros((3, 3)))

    def test_program_quantizes(self):
        quantizer = UniformQuantizer(1)  # two states: 0 and 1
        tile = CrossbarArray(rows=2, cols=2, quantizer=quantizer)
        programmed = tile.program(np.array([[0.1, 0.9], [0.4, 0.6]]))
        assert set(np.unique(programmed)).issubset({0.0, 1.0})

    def test_program_applies_variation(self):
        variation = DeviceVariationModel(0.1)
        tile = CrossbarArray(rows=4, cols=4, variation=variation, rng=np.random.default_rng(0))
        target = np.full((4, 4), 0.5)
        programmed = tile.program(target)
        assert not np.allclose(programmed, target)

    def test_read_noise_perturbs_output(self, rng):
        tile = CrossbarArray(rows=4, cols=4, read_noise_sigma=0.01, rng=np.random.default_rng(0))
        tile.program(rng.uniform(0, 1, size=(4, 4)))
        inputs = rng.normal(size=(2, 4))
        noisy = tile.matmat(inputs)
        assert not np.allclose(noisy, inputs @ tile.conductances)

    def test_matvec_validates_shape(self):
        tile = CrossbarArray(rows=3, cols=2)
        with pytest.raises(ValueError):
            tile.matvec(np.zeros(5))
        with pytest.raises(ValueError):
            tile.matmat(np.zeros((2, 5)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CrossbarArray(rows=0, cols=4)
        with pytest.raises(ValueError):
            CrossbarArray(rows=4, cols=4, read_noise_sigma=-1.0)

    def test_utilisation(self):
        tile = CrossbarArray(rows=2, cols=2)
        tile.program(np.array([[0.0, 0.5], [0.0, 0.7]]))
        assert tile.utilisation() == pytest.approx(0.5)


class TestCrossbarTiling:
    def test_single_tile_when_matrix_fits(self, rng):
        matrix = rng.uniform(0, 1, size=(16, 8))
        tiling = CrossbarTiling(matrix, tile_rows=32, tile_cols=32)
        assert tiling.num_tiles == 1

    def test_tile_count_for_large_matrix(self, rng):
        matrix = rng.uniform(0, 1, size=(200, 150))
        tiling = CrossbarTiling(matrix, tile_rows=128, tile_cols=128)
        assert tiling.num_tiles == 4  # 2 row tiles x 2 col tiles

    def test_count_tiles_static(self):
        assert CrossbarTiling.count_tiles(200, 150, 128, 128) == 4
        assert CrossbarTiling.count_tiles(128, 128, 128, 128) == 1
        with pytest.raises(ValueError):
            CrossbarTiling.count_tiles(0, 10)

    def test_programmed_matrix_round_trip(self, rng):
        matrix = rng.uniform(0, 1, size=(50, 70))
        tiling = CrossbarTiling(matrix, tile_rows=32, tile_cols=32)
        np.testing.assert_allclose(tiling.programmed_matrix(), matrix, atol=1e-12)

    def test_matmat_matches_dense_product(self, rng):
        matrix = rng.uniform(0, 1, size=(60, 45))
        tiling = CrossbarTiling(matrix, tile_rows=32, tile_cols=32)
        inputs = rng.normal(size=(5, 60))
        np.testing.assert_allclose(tiling.matmat(inputs), inputs @ matrix, atol=1e-10)

    def test_matmat_with_quantization_matches_quantized_dense(self, rng):
        quantizer = UniformQuantizer(3)
        matrix = rng.uniform(0, 1, size=(40, 20))
        tiling = CrossbarTiling(matrix, tile_rows=16, tile_cols=16, quantizer=quantizer)
        inputs = rng.normal(size=(3, 40))
        expected = inputs @ quantizer.snap(matrix)
        np.testing.assert_allclose(tiling.matmat(inputs), expected, atol=1e-10)

    def test_rejects_negative_matrix(self):
        with pytest.raises(ValueError):
            CrossbarTiling(np.array([[-0.1, 0.2], [0.3, 0.4]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            CrossbarTiling(np.zeros((2, 2, 2)))

    def test_matmat_validates_input_shape(self, rng):
        tiling = CrossbarTiling(rng.uniform(0, 1, size=(10, 5)))
        with pytest.raises(ValueError):
            tiling.matmat(np.zeros((2, 7)))

    @given(
        rows=st.integers(min_value=1, max_value=60),
        cols=st.integers(min_value=1, max_value=60),
        tile=st.integers(min_value=4, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiled_product_always_matches_dense(self, rows, cols, tile):
        rng = np.random.default_rng(rows * 100 + cols)
        matrix = rng.uniform(0, 1, size=(rows, cols))
        tiling = CrossbarTiling(matrix, tile_rows=tile, tile_cols=tile)
        inputs = rng.normal(size=(2, rows))
        np.testing.assert_allclose(tiling.matmat(inputs), inputs @ matrix, atol=1e-9)


class TestPerturbStack:
    def test_shape_and_independence(self):
        model = DeviceVariationModel(sigma_fraction=0.1)
        base = np.full((4, 5), 0.5)
        stack = model.perturb(base, 6, rng=np.random.default_rng(0))
        assert stack.shape == (6, 4, 5)
        assert not np.allclose(stack[0], stack[1])

    def test_zero_sigma_returns_copies(self):
        model = DeviceVariationModel(sigma_fraction=0.0)
        base = np.full((3, 3), 0.25)
        stack = model.perturb(base, 4)
        np.testing.assert_array_equal(stack, np.broadcast_to(base, (4, 3, 3)))
        stack[0, 0, 0] = 99.0  # must be writable, not a broadcast view
        assert base[0, 0] == 0.25

    def test_stack_respects_clipping(self):
        """A Monte-Carlo stack is clipped once, when ``finalize`` realises it."""
        spec = CrossbarSpec(conductances=np.full((8, 8), 0.5), periphery=np.eye(8),
                            g_min=0.0, g_max=1.0)
        model = DeviceVariationModel(sigma_fraction=0.5, range=spec.range)
        noisy = model.perturb(spec.conductances, 16, rng=np.random.default_rng(1))
        assert noisy.min() < 0.0 and noisy.max() > 1.0
        realized = spec.sample_weights(0.5, 16, np.random.default_rng(1))
        assert realized.min() >= 0.0 and realized.max() <= 1.0
        np.testing.assert_array_equal(realized, np.clip(noisy, 0.0, 1.0))

    def test_matches_sequential_perturb_statistics(self):
        model = DeviceVariationModel(
            sigma_fraction=0.1, range=ConductanceRange(0.0, 1.0)
        )
        base = np.full((10, 10), 0.5)
        stack = model.perturb(base, 400, rng=np.random.default_rng(2))
        deviations = stack - base
        assert abs(deviations.mean()) < 0.005
        assert abs(deviations.std() - model.sigma_absolute) < 0.005

    def test_rejects_non_positive_sample_count(self):
        model = DeviceVariationModel(sigma_fraction=0.1)
        with pytest.raises(ValueError):
            model.perturb(np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("sigma_fraction", [0.0, 0.15])
    def test_out_buffer_holds_the_same_bits_as_a_normal_draw(self, sigma_fraction):
        """``out=`` fills the buffer with ``rng.normal(0, sigma) + base``'s bits."""
        model = DeviceVariationModel(sigma_fraction, ConductanceRange(0.1, 0.7))
        base = np.random.default_rng(3).uniform(0.1, 0.7, size=(6, 9))
        buffer = np.full((5, 6, 9), np.nan)
        stack = model.perturb(base, 5, rng=np.random.default_rng(4), out=buffer)
        assert stack is buffer
        expected = np.random.default_rng(4).normal(
            0.0, model.sigma_absolute, size=(5, 6, 9)) + base
        np.testing.assert_array_equal(stack.view(np.int64), expected.view(np.int64))

    def test_out_buffer_of_the_wrong_shape_is_refused(self):
        model = DeviceVariationModel(sigma_fraction=0.1)
        with pytest.raises(ValueError, match="shape"):
            model.perturb(np.zeros((2, 2)), 3, out=np.empty((2, 2, 2)))


class TestTilingNonAligned:
    """matmat must equal the dense product on non-tile-aligned shapes."""

    @pytest.mark.parametrize("rows,cols,tile_rows,tile_cols", [
        (130, 70, 64, 64),   # both dimensions overhang
        (128, 70, 64, 64),   # only columns overhang
        (130, 64, 64, 64),   # only rows overhang
        (63, 65, 64, 64),    # one tile under / just over
        (5, 200, 64, 64),    # short and wide
        (97, 3, 32, 16),     # rectangular tiles
    ])
    def test_matmat_matches_dense_product(self, rows, cols, tile_rows, tile_cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        matrix = rng.uniform(0, 1, size=(rows, cols))
        tiling = CrossbarTiling(
            matrix, tile_rows=tile_rows, tile_cols=tile_cols
        )
        inputs = rng.normal(size=(7, rows))
        np.testing.assert_allclose(tiling.matmat(inputs), inputs @ matrix, atol=1e-9)
        assert tiling.num_tiles == CrossbarTiling.count_tiles(
            rows, cols, tile_rows, tile_cols
        )

    def test_non_aligned_quantized_matmat_matches_quantized_dense(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 1, size=(70, 33))
        quantizer = UniformQuantizer(4)
        tiling = CrossbarTiling(matrix, tile_rows=32, tile_cols=32,
                                quantizer=quantizer)
        inputs = rng.normal(size=(3, 70))
        expected = inputs @ quantizer.snap(matrix)
        np.testing.assert_allclose(tiling.matmat(inputs), expected, atol=1e-9)
