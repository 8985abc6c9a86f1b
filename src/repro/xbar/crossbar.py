"""Crossbar-array tile model.

A :class:`CrossbarArray` holds one physical tile of non-negative conductances
and models programming (write) and analog matrix-vector readout, including the
device non-idealities from the other modules of this package: limited
precision, programming (device) variation, and optional read noise.

:class:`CrossbarTiling` partitions an arbitrary-size non-negative matrix over
fixed-size tiles, which the hardware cost model (:mod:`repro.hardware`) uses
to count arrays, ADCs and wire lengths for the different mapping schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.xbar.quantization import ConductanceRange, UniformQuantizer
from repro.xbar.variation import DeviceVariationModel


class CrossbarArray:
    """One physical crossbar tile storing a non-negative conductance matrix.

    The tile is organised as ``rows x cols`` where rows carry the input
    voltages and columns accumulate currents, i.e. the stored matrix maps an
    input vector of length ``rows`` to an output vector of length ``cols``
    via ``output = input @ G``.

    Parameters
    ----------
    rows, cols:
        Physical dimensions of the tile.
    quantizer:
        Optional conductance quantiser applied when programming.
    variation:
        Optional device-variation model applied when programming.
    read_noise_sigma:
        Standard deviation of additive Gaussian noise on each analog column
        current at read time, as a fraction of the full-scale column current.
    rng:
        Random generator for variation and read noise.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        quantizer: Optional[UniformQuantizer] = None,
        variation: Optional[DeviceVariationModel] = None,
        read_noise_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        if read_noise_sigma < 0:
            raise ValueError("read_noise_sigma must be non-negative")
        self.rows = rows
        self.cols = cols
        self.quantizer = quantizer
        self.variation = variation
        self.read_noise_sigma = read_noise_sigma
        self._rng = rng if rng is not None else np.random.default_rng()
        conductance_range = (
            quantizer.range if quantizer is not None
            else (variation.range if variation is not None else ConductanceRange())
        )
        self.range = conductance_range
        self.conductances = np.zeros((rows, cols))

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #
    def program(self, target: np.ndarray) -> np.ndarray:
        """Program the tile to the target conductance matrix.

        The target is clipped to the conductance range and quantised to the
        available device states (the quantiser's snap clips), then perturbed
        by device variation and clipped back into the range.  The
        actually-programmed conductances are stored and returned.
        """
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (self.rows, self.cols):
            raise ValueError(
                f"target shape {target.shape} does not match tile ({self.rows}, {self.cols})"
            )
        if (target < 0).any():
            raise ValueError("crossbar conductances must be non-negative")
        if self.quantizer is not None:
            programmed = self.quantizer.snap(target)
        else:
            programmed = self.range.clip(target)
        if self.variation is not None:
            noisy = self.variation.perturb(programmed, 1, self._rng)[0]
            programmed = self.range.clip(noisy)
        self.conductances = programmed
        return programmed.copy()

    # ------------------------------------------------------------------ #
    # Analog readout
    # ------------------------------------------------------------------ #
    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Analog matrix-vector product for a single input vector."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.rows,):
            raise ValueError(f"expected input of shape ({self.rows},), got {inputs.shape}")
        currents = inputs @ self.conductances
        return self._add_read_noise(currents)

    def matmat(self, inputs: np.ndarray) -> np.ndarray:
        """Analog matrix-matrix product for a batch of input vectors (N, rows)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise ValueError(
                f"expected inputs of shape (N, {self.rows}), got {inputs.shape}"
            )
        currents = inputs @ self.conductances
        return self._add_read_noise(currents)

    def _add_read_noise(self, currents: np.ndarray) -> np.ndarray:
        if self.read_noise_sigma == 0.0:
            return currents
        full_scale = self.rows * self.range.g_max
        noise = self._rng.normal(0.0, self.read_noise_sigma * full_scale, size=currents.shape)
        return currents + noise

    def utilisation(self) -> float:
        """Fraction of devices programmed to a non-minimum conductance."""
        return float((self.conductances > self.range.g_min).mean())


@dataclass
class TilePlacement:
    """Location of one tile within a tiled matrix."""

    row_start: int
    col_start: int
    rows: int
    cols: int


class CrossbarTiling:
    """Partition a large non-negative matrix over fixed-size crossbar tiles.

    Parameters
    ----------
    matrix:
        The non-negative matrix to map, of shape ``(rows, cols)`` where rows
        correspond to inputs and columns to crossbar columns.
    tile_rows, tile_cols:
        Physical tile dimensions (e.g. 128x128).
    quantizer, variation, read_noise_sigma, rng:
        Forwarded to every :class:`CrossbarArray` tile.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        tile_rows: int = 128,
        tile_cols: int = 128,
        quantizer: Optional[UniformQuantizer] = None,
        variation: Optional[DeviceVariationModel] = None,
        read_noise_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("CrossbarTiling expects a 2-D matrix")
        if (matrix < 0).any():
            raise ValueError("crossbar matrices must be non-negative")
        self.matrix_shape = matrix.shape
        self.tile_rows = tile_rows
        self.tile_cols = tile_cols
        self._rng = rng if rng is not None else np.random.default_rng()

        self.tiles: List[CrossbarArray] = []
        self.placements: List[TilePlacement] = []
        rows, cols = matrix.shape
        for row_start in range(0, rows, tile_rows):
            for col_start in range(0, cols, tile_cols):
                block = matrix[row_start:row_start + tile_rows, col_start:col_start + tile_cols]
                tile = CrossbarArray(
                    rows=block.shape[0],
                    cols=block.shape[1],
                    quantizer=quantizer,
                    variation=variation,
                    read_noise_sigma=read_noise_sigma,
                    rng=self._rng,
                )
                tile.program(block)
                self.tiles.append(tile)
                self.placements.append(
                    TilePlacement(row_start, col_start, block.shape[0], block.shape[1])
                )

    @property
    def num_tiles(self) -> int:
        """Number of physical tiles used."""
        return len(self.tiles)

    def programmed_matrix(self) -> np.ndarray:
        """Reassemble the actually-programmed matrix from all tiles."""
        assembled = np.zeros(self.matrix_shape)
        for tile, placement in zip(self.tiles, self.placements):
            assembled[
                placement.row_start:placement.row_start + placement.rows,
                placement.col_start:placement.col_start + placement.cols,
            ] = tile.conductances
        return assembled

    def matmat(self, inputs: np.ndarray) -> np.ndarray:
        """Compute ``inputs @ matrix`` using the programmed tiles.

        Partial products from tiles that share output columns are accumulated
        digitally, exactly as a tiled accelerator would after ADC conversion.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.matrix_shape[0]:
            raise ValueError(
                f"expected inputs of shape (N, {self.matrix_shape[0]}), got {inputs.shape}"
            )
        outputs = np.zeros((inputs.shape[0], self.matrix_shape[1]))
        for tile, placement in zip(self.tiles, self.placements):
            input_slice = inputs[:, placement.row_start:placement.row_start + placement.rows]
            outputs[:, placement.col_start:placement.col_start + placement.cols] += tile.matmat(
                input_slice
            )
        return outputs

    @staticmethod
    def count_tiles(rows: int, cols: int, tile_rows: int = 128, tile_cols: int = 128) -> int:
        """Number of tiles needed for a ``rows x cols`` matrix (no instantiation)."""
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        row_tiles = -(-rows // tile_rows)
        col_tiles = -(-cols // tile_cols)
        return row_tiles * col_tiles
