"""Conductance ranges and uniform quantisation of crossbar weights.

The paper assumes synapse conductances in ``[Gmin, Gmax]`` (with ``Gmin = 0``
for simplicity) and ``2^B`` equally spaced states for a ``B``-bit device.
During training the crossbar matrix ``M`` is quantised to these states with a
straight-through estimator, following the DoReFa-style recipe the paper cites.

:class:`UniformQuantizer` holds the only nearest-level search: training's
straight-through estimator, compiled plans, Monte-Carlo draws and tile
programming all map a conductance to a device state through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.tensor import Tensor


@dataclass(frozen=True)
class ConductanceRange:
    """The representable conductance range of a synapse device.

    Attributes
    ----------
    g_min, g_max:
        Minimum and maximum programmable conductance.  The paper sets
        ``g_min = 0`` for its analysis; the class supports a non-zero minimum
        as well because real devices have a finite off conductance.
    """

    g_min: float = 0.0
    g_max: float = 1.0

    def __post_init__(self) -> None:
        if self.g_max <= self.g_min:
            raise ValueError("g_max must be strictly greater than g_min")
        if self.g_min < 0:
            raise ValueError("conductances cannot be negative")

    @property
    def span(self) -> float:
        """Width of the conductance range."""
        return self.g_max - self.g_min

    @property
    def midpoint(self) -> float:
        """Middle of the range; the BC mapping fixes its bias column here."""
        return 0.5 * (self.g_min + self.g_max)

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip values into the representable range."""
        return np.clip(values, self.g_min, self.g_max)

    def contains(self, values: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Return True if every value lies inside the range (within tolerance)."""
        values = np.asarray(values)
        return bool(
            (values >= self.g_min - tolerance).all()
            and (values <= self.g_max + tolerance).all()
        )


class UniformQuantizer:
    """Uniform quantiser over a conductance range.

    Parameters
    ----------
    bits:
        Device precision ``B``; the quantiser exposes ``2^B`` levels.
    range:
        The conductance range the levels span.
    """

    def __init__(self, bits: int, conductance_range: ConductanceRange = ConductanceRange()):
        if bits < 1:
            raise ValueError("bits must be at least 1")
        if bits > 16:
            raise ValueError("bits above 16 are not meaningful for crossbar devices")
        self.bits = int(bits)
        self.range = conductance_range
        self.num_levels = 2 ** self.bits
        self.levels = np.linspace(
            conductance_range.g_min, conductance_range.g_max, self.num_levels
        )

    @property
    def step(self) -> float:
        """Spacing between adjacent quantisation levels."""
        return self.range.span / (self.num_levels - 1)

    def snap(self, values: np.ndarray) -> np.ndarray:
        """Clip values into the range and snap each to its nearest level.

        Ties (values exactly half-way between two levels) resolve to the
        lower level, exactly like an arg-min over the full level table.
        """
        return self.levels[self.state_index(values)]

    def state_index(self, values: np.ndarray) -> np.ndarray:
        """Clip values into the range and return each nearest level's index."""
        return self._nearest_index(self.range.clip(np.asarray(values, dtype=np.float64)))

    def quantize_ste(self, tensor: Tensor) -> Tensor:
        """Clip and snap a tensor with a straight-through estimator backward.

        The clip keeps its gradient mask (zero outside the range); the snap
        passes the gradient through unchanged, the DoReFa-style recipe.
        """
        clipped = tensor.clip(self.range.g_min, self.range.g_max)

        def backward(grad: np.ndarray) -> None:
            if clipped.requires_grad:
                clipped._accumulate(grad)

        data = self.levels[self._nearest_index(clipped.data)]
        return Tensor._make(data, (clipped,), backward, "quantize_ste")

    def _nearest_index(self, clipped: np.ndarray) -> np.ndarray:
        """Index of the nearest level of each in-range value, in O(N) memory.

        The rounded candidate index can be off by one in floating point, so
        it is compared against its upper and then its lower neighbour; the
        strict/non-strict comparisons make ties resolve to the lower level.
        """
        shape = np.shape(clipped)
        clipped = np.reshape(clipped, -1)
        top = self.num_levels - 1
        index = np.rint((clipped - self.range.g_min) / self.step).astype(np.int64)
        np.clip(index, 0, top, out=index)
        lower = np.maximum(index - 1, 0)
        upper = np.minimum(index + 1, top)
        best = self._distance(clipped, index)
        distance = self._distance(clipped, upper)
        np.copyto(index, upper, where=distance < best)
        np.minimum(best, distance, out=best)
        self._distance(clipped, lower, out=distance)
        np.copyto(index, lower, where=distance <= best)
        return index.reshape(shape)

    def _distance(
        self, clipped: np.ndarray, index: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``|clipped - levels[index]|``, computed in one buffer.

        Indices are always in range; ``mode="clip"`` only stops ``np.take``
        from staging the gather in a temporary copy of ``out``.
        """
        out = np.take(self.levels, index, out=out, mode="clip")
        np.subtract(clipped, out, out=out)
        return np.abs(out, out=out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UniformQuantizer(bits={self.bits}, "
            f"range=[{self.range.g_min}, {self.range.g_max}])"
        )
