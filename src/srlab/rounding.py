"""Rounding kernels over a uniform grid of spacing delta.

A value is rounded by scaling it with theta = base**n, rounding the scaled
value to an integer, and scaling back.  Every mode gives each value a
probability p_down of rounding down to its lower grid neighbour.
Stochastic modes tabulate p_down over the grid fraction f, and :data:`SR`,
proximity-proportional rounding, is the two-node table p(f) = 1 - f.  The
deterministic rules (floor, ceiling and the round-to-nearest tie rules)
are the corner of that family where p_down is 0 or 1, so one formula
rounds with every mode, and a zero result is always +0.0.

All kernels accept scalars or numpy arrays and are pure given an explicit
:class:`~srlab.streams.RandomStream`; stochastic kernels consume exactly one
uniform draw per rounded element, including elements already on the grid,
and deterministic ones take none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .streams import RandomStream, _integer

__all__ = [
    "RoundingSpec",
    "DeterministicMode",
    "ProbabilityTable",
    "SR",
    "RoundingMode",
    "grid_fraction",
    "rounding_thresholds",
    "round_values",
]


def _unit_interval(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, if every element lies in [0, 1] (NaN does not)."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class RoundingSpec:
    """Grid description: ``n`` fractional digits (an integer >= 0) in ``base`` (2 or 10).

    The grid step is ``delta = base**-n`` and the scaling factor is
    ``theta = base**n``; ``n = 0`` means rounding to integers.
    """

    n: int = 0
    base: int = 2

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "fractional-digit count n"))
        object.__setattr__(self, "base", _integer(self.base, "base"))
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
    the probability is interpolated linearly.  Tables are frozen, and
    ``grid`` and ``p`` are read-only float64 copies of the arrays, which
    cannot be made writable, so no caller can change one.
    """

    grid: np.ndarray
    p: np.ndarray
    label: str = "table"

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        grid = np.array(self.grid, dtype=np.float64)  # copies: the caller's arrays stay writable
        p = np.array(self.p, dtype=np.float64)
        if grid.ndim != 1 or p.ndim != 1 or grid.size != p.size or grid.size < 2:
            raise ValueError("grid and p must be 1-D arrays of equal length >= 2")
        if grid[0] != 0.0 or grid[-1] != 1.0 or not np.all(np.diff(grid) > 0):  # NaN fails too
            raise ValueError("grid must increase strictly from 0 to 1")
        _unit_interval(p, "probabilities")
        # np.interp copies read-only arrays on every call, so rounding reads
        # these writable copies, and callers get arrays over immutable bytes,
        # which no one can make writable again
        object.__setattr__(self, "_nodes", (grid, p))
        for name, arr in (("grid", grid), ("p", p)):
            object.__setattr__(self, name, np.frombuffer(arr.tobytes()))

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


def _to_grid(x, spec: RoundingSpec) -> np.ndarray:
    """theta*x as float64, with a one-ulp snap so grid values scale to exact
    integers; x must be finite, also once scaled."""
    arr = np.asarray(x, dtype=np.float64)
    # IEEE rounding is monotonic, so the largest |x| decides whether any
    # theta*x overflows; Python floats give inf there without a warning.
    largest = float(np.abs(arr).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("values to round must be finite")
    if math.isinf(largest * spec.theta):
        raise ValueError(f"values scaled by the grid scale {spec.base}**{spec.n} overflow a double")
    xt = arr * spec.theta
    nearest = np.rint(xt)
    snap = np.abs(xt - nearest) <= np.spacing(np.abs(xt))
    return np.where(snap, nearest, xt)


def _ret(values):
    """The one scalar rule of the public kernels: a float for a 0-d result, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def grid_fraction(x, spec: RoundingSpec):
    """Fractional position of x within its grid interval, in [0, 1).

    Defined via the floor convention, so negative values use the grid point
    below them.
    """
    xt = _to_grid(x, spec)
    return _ret(xt - np.floor(xt))


def rounding_thresholds(x, mode: RoundingMode, spec: RoundingSpec):
    """Per-value half of rounding with any mode: ``(lower, T)`` on the scaled grid.

    ``lower`` is the scaled grid floor of x and ``T`` the uint64 threshold
    ceil(p_down * 2**53), from its probability p_down of rounding down;
    grid points get ``T = 2**54``, above every draw.  A 53-bit draw b rounds
    x to ``(lower + (b >= T)) / theta``, so repeated roundings of the same
    values work out ``(lower, T)`` only once.  A deterministic mode's ``T``
    is 0 where its rule rounds up and 2**53 where it rounds down, so every
    draw gives the rule's result.
    """
    xt = _to_grid(x, spec)
    lower = np.floor(xt)
    frac = xt - lower
    D = DeterministicMode
    if isinstance(mode, ProbabilityTable):
        p_down = np.interp(frac, *mode._nodes).clip(0.0, 1.0)  # ndarray.clip skips np.clip's dispatch layer
    elif not isinstance(mode, D):
        raise TypeError(f"expected a rounding mode, got {mode!r}")
    elif mode in (D.FLOOR, D.CEILING):
        p_down = float(mode is D.FLOOR)
    else:
        # ties are decided on the scaled grid, against the midpoint, which is
        # exact where frac is not (-1 < xt < 0); parity is that of lower
        mid, odd = lower + 0.5, lower % 2.0 != 0.0
        tie_up = {D.HALF_UP: True, D.HALF_DOWN: False, D.HALF_EVEN: odd, D.HALF_ODD: ~odd}[mode]
        p_down = 1.0 - ((xt > mid) | ((xt == mid) & tie_up))
    # p_down * 2**53 is exact, so b >= T exactly when b * 2**-53 >= p_down
    return lower, np.where(frac > 0.0, np.ceil(p_down * 2.0**53), 2.0**54).astype(np.uint64)


def round_values(x, mode: RoundingMode, spec: RoundingSpec, rng: RandomStream | None = None):
    """Round to the grid with any mode, by the formula of :func:`rounding_thresholds`.

    Deterministic modes ignore ``rng`` and draw nothing: their thresholds
    are 0 or 2**53, so the draw b = 0 gives the rule's result.  Ties (scaled
    value exactly halfway) follow the mode's rule, and parity for the
    half-even/half-odd rules is judged on the scaled integer grid.
    Stochastic modes take one draw from ``rng`` per element, and only once
    the values and the mode have passed their checks.
    """
    stochastic = isinstance(mode, ProbabilityTable)
    if stochastic and rng is None:
        raise ValueError("stochastic modes need a RandomStream")
    lower, T = rounding_thresholds(x, mode, spec)
    b = rng.uniform(lower.shape) * 2.0**53 if stochastic else 0  # exactly the 53-bit draw of u
    return _ret((lower + (b >= T)) / spec.theta)
