"""Rounding kernels over a uniform grid of spacing delta.

A value is rounded by scaling it with theta = base**n, rounding the scaled
value to an integer, and scaling back.  Deterministic modes implement the
classic floor/ceiling and round-to-nearest tie rules; stochastic modes round
down with a probability tabulated over the grid fraction f, and :data:`SR`,
proximity-proportional rounding, is the two-node table p(f) = 1 - f.

All kernels accept scalars or numpy arrays and are pure given an explicit
:class:`~srlab.streams.RandomStream`; stochastic kernels consume exactly one
uniform draw per rounded element, including elements already on the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .streams import RandomStream

__all__ = [
    "RoundingSpec",
    "DeterministicMode",
    "ProbabilityTable",
    "SR",
    "RoundingMode",
    "grid_fraction",
    "rounding_thresholds",
    "stochastic_round_with",
    "round_values",
]


@dataclass(frozen=True)
class RoundingSpec:
    """Grid description: ``n`` fractional digits in ``base`` (2 or 10).

    The grid step is ``delta = base**-n`` and the scaling factor is
    ``theta = base**n``; ``n = 0`` means rounding to integers.
    """

    n: int = 0
    base: int = 2

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"fractional-digit count must be a non-negative integer, got {self.n!r}")
        if self.base not in (2, 10):
            raise ValueError(f"base must be 2 or 10, got {self.base!r}")
        # base**n is a finite double exactly up to n = 1023 (base 2) and 308 (base 10);
        # comparing n never builds base**n for a huge n
        if self.n > {2: sys.float_info.max_exp - 1, 10: sys.float_info.max_10_exp}[self.base]:
            raise ValueError(f"grid scale {self.base}**{self.n} overflows a double")

    @property
    def theta(self) -> float:
        return float(self.base ** self.n)

    @property
    def delta(self) -> float:
        return 1.0 / self.theta


class DeterministicMode(Enum):
    """Deterministic rounding rules."""

    FLOOR = "floor"
    CEILING = "ceil"
    HALF_UP = "half-up"
    HALF_DOWN = "half-down"
    HALF_EVEN = "half-even"
    HALF_ODD = "half-odd"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Tabulated probability of rounding down versus grid fraction.

    ``grid`` holds fractions in [0, 1] with endpoints 0 and 1; ``p[j]`` is
    the probability of rounding down at fraction ``grid[j]``.  Between nodes
    the probability is interpolated linearly.  Tables are frozen, with
    read-only float64 copies of the arrays, so no caller can change one.
    """

    grid: np.ndarray
    p: np.ndarray
    label: str = "table"

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.float64)  # copies: the caller's arrays stay writable
        p = np.array(self.p, dtype=np.float64)
        if grid.ndim != 1 or p.ndim != 1 or grid.size != p.size or grid.size < 2:
            raise ValueError("grid and p must be 1-D arrays of equal length >= 2")
        if grid[0] != 0.0 or grid[-1] != 1.0 or not np.all(np.diff(grid) > 0):  # NaN fails too
            raise ValueError("grid must increase strictly from 0 to 1")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        grid.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if not isinstance(other, ProbabilityTable):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.p, other.p)
        )


# np.interp on these two nodes computes (-1)*f + 1, which rounds exactly as 1.0 - f
SR = ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0], label="sr")

RoundingMode = Union[DeterministicMode, ProbabilityTable]


def _prepare(x, spec: RoundingSpec):
    """(values, scalar flag); the values must be finite, also once scaled."""
    arr = np.asarray(x, dtype=np.float64)
    # IEEE rounding is monotonic, so the largest |x| decides whether any
    # theta*x overflows; Python floats give inf there without a warning.
    largest = float(np.abs(arr).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("values to round must be finite")
    if math.isinf(largest * spec.theta):
        raise ValueError(f"values scaled by the grid scale {spec.base}**{spec.n} overflow a double")
    return arr, np.isscalar(x) or arr.ndim == 0


def _scaled(arr: np.ndarray, spec: RoundingSpec) -> np.ndarray:
    """theta*x with a one-ulp snap so grid values scale to exact integers."""
    xt = arr * spec.theta
    nearest = np.rint(xt)
    snap = np.abs(xt - nearest) <= np.spacing(np.abs(xt))
    return np.where(snap, nearest, xt)


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def grid_fraction(x, spec: RoundingSpec):
    """Fractional position of x within its grid interval, in [0, 1).

    Defined via the floor convention, so negative values use the grid point
    below them.
    """
    arr, scalar = _prepare(x, spec)
    xt = _scaled(arr, spec)
    return _ret(xt - np.floor(xt), scalar)


def rounding_thresholds(x, mode: RoundingMode, spec: RoundingSpec):
    """Per-value half of stochastic rounding: ``(lower, t)`` on the scaled grid.

    ``lower`` is the scaled grid floor of x and ``t`` its probability of
    rounding down; grid points get ``t = 2.0``, above every draw.  A draw u
    in [0, 1) rounds x to ``(lower + (u >= t)) / theta``, so repeated
    roundings of the same values work out ``(lower, t)`` only once.  The
    studies also convert ``t`` once, to the integer thresholds that their
    53-bit draws are compared with (``streams._draw_thresholds``).
    """
    arr, _ = _prepare(x, spec)
    xt = _scaled(arr, spec)
    lower = np.floor(xt)
    frac = xt - lower
    if not isinstance(mode, ProbabilityTable):
        raise TypeError(f"expected a stochastic mode, got {mode!r}")
    p_down = np.interp(frac, mode.grid, mode.p).clip(0.0, 1.0)  # ndarray.clip skips np.clip's dispatch layer
    return lower, np.where(frac > 0.0, p_down, 2.0)


def stochastic_round_with(x, mode: RoundingMode, spec: RoundingSpec, uniforms):
    """Stochastic rounding driven by caller-supplied uniforms in [0, 1).

    ``uniforms`` must have one draw per element of ``x``.  An element rounds
    up exactly when its draw is >= its probability of rounding down; grid
    points never move.  The thresholds come from :func:`rounding_thresholds`,
    once per value.
    """
    lower, t = rounding_thresholds(x, mode, spec)
    u = np.asarray(uniforms, dtype=np.float64)
    if u.shape != lower.shape:
        raise ValueError(f"need one uniform per element: {u.shape} vs {lower.shape}")
    return _ret((lower + (u >= t)) / spec.theta, lower.ndim == 0)


def round_values(x, mode: RoundingMode, spec: RoundingSpec, rng: RandomStream | None = None):
    """Round to the grid with any mode.

    Deterministic modes ignore ``rng`` and draw nothing; ties (scaled
    fraction exactly one half) follow the mode's rule, and parity for the
    half-even/half-odd rules is judged on the scaled integer grid.
    Stochastic modes take one draw from ``rng`` per element, and only once
    the values and the mode have passed their checks.
    """
    if isinstance(mode, DeterministicMode):
        arr, scalar = _prepare(x, spec)
        xt = _scaled(arr, spec)
        lower = np.floor(xt)
        if mode is DeterministicMode.FLOOR:
            return _ret(lower / spec.theta, scalar)
        if mode is DeterministicMode.CEILING:
            return _ret(np.ceil(xt) / spec.theta, scalar)
        frac = xt - lower
        up = frac > 0.5
        tie = frac == 0.5
        if mode is DeterministicMode.HALF_UP:
            up = up | tie
        elif mode is DeterministicMode.HALF_EVEN:
            up = up | (tie & (lower % 2.0 != 0.0))
        elif mode is DeterministicMode.HALF_ODD:
            up = up | (tie & (lower % 2.0 == 0.0))
        # HALF_DOWN keeps ties on the lower neighbour.
        return _ret((lower + up) / spec.theta, scalar)
    if rng is None:
        raise ValueError("stochastic modes need a RandomStream")
    lower, t = rounding_thresholds(x, mode, spec)
    u = rng.uniform(lower.shape)
    return _ret((lower + (u >= t)) / spec.theta, lower.ndim == 0)
