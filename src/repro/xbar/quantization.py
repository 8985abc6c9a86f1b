"""Conductance ranges and uniform quantisation of crossbar weights.

The paper assumes synapse conductances in ``[Gmin, Gmax]`` (with ``Gmin = 0``
for simplicity) and ``2^B`` equally spaced states for a ``B``-bit device.
During training the crossbar matrix ``M`` is quantised to these states with a
straight-through estimator, following the DoReFa-style recipe the paper cites.

:class:`UniformQuantizer` holds the only nearest-level search: training's
straight-through estimator, compiled plans, Monte-Carlo draws and tile
programming all map a conductance to a device state through it.  The search
is one compare per value: a truncated estimate of the value's interval
between two levels, then a compare against that interval's precomputed
decision boundary.  The boundary table is exact in float64, so the result is
bitwise the arg-min of ``|value - level|`` over the full level table, ties
resolving to the lower level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        self._boundaries = _decision_boundaries(
            self.bits, conductance_range.g_min, conductance_range.g_max
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
        """Index of the nearest level of each in-range value, one compare each.

        The truncated position ``(x - g_min) / step`` names a candidate
        interval ``[levels[k], levels[k + 1]]``; ``x >= boundary[k]`` then
        picks its upper level.  The candidate only has to be within one of
        the true interval, since a value just outside it still lands on the
        correct side of the boundary, so its rounding never matters.  The
        candidate is clipped on both sides: NaN casts to an arbitrary integer
        (the most negative one on x86) and so maps to level 0, as the
        arg-min does.
        """
        shape = np.shape(clipped)
        clipped = np.reshape(clipped, -1)
        position = np.subtract(clipped, self.range.g_min)
        position /= self.step
        index = position.astype(np.intp)
        np.clip(index, 0, self.num_levels - 2, out=index)
        # The gathered boundaries reuse the position buffer; mode="clip"
        # only stops np.take from staging the gather in a temporary.
        boundary = np.take(self._boundaries, index, out=position, mode="clip")
        index += np.greater_equal(clipped, boundary)
        return index.reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UniformQuantizer(bits={self.bits}, "
            f"range=[{self.range.g_min}, {self.range.g_max}])"
        )


@lru_cache(maxsize=32)
def _decision_boundaries(bits: int, g_min: float, g_max: float) -> np.ndarray:
    """Read-only table of the float64 decision boundaries between levels.

    ``boundary[k]`` is the smallest float64 ``x`` in
    ``(levels[k], levels[k + 1]]`` with
    ``|x - levels[k + 1]| < |x - levels[k]|`` evaluated in float64, so a
    value goes to the upper level exactly when ``x >= boundary[k]`` and an
    exact tie stays on the lower one.  Rounding is monotone, so that
    predicate flips once across the interval; every entry is found at once
    by bisection over the (order-preserving) bit patterns of non-negative
    float64s.  Memoised per ``(bits, g_min, g_max)``.
    """
    levels = np.linspace(g_min, g_max, 2 ** bits) + 0.0  # -0.0 -> +0.0
    lower, upper = levels[:-1], levels[1:]
    # Invariant: the predicate is false at ``low`` and true at ``high``.
    low = lower.view(np.int64).copy()
    high = upper.view(np.int64).copy()
    while (high - low > 1).any():
        middle = low + (high - low) // 2
        x = middle.view(np.float64)
        upper_wins = np.abs(x - upper) < np.abs(x - lower)
        high = np.where(upper_wins, middle, high)
        low = np.where(upper_wins, low, middle)
    boundaries = high.view(np.float64)
    boundaries.flags.writeable = False
    return boundaries
