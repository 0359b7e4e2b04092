"""Closed-form and empirical round-off error metrics.

Variance uses the population (1/N) normalization throughout.  Relative
error against an exact value of zero is reported as absent rather than
infinite so downstream aggregation is never poisoned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rounding import RoundingSpec, grid_fraction

__all__ = [
    "StatsSummary",
    "WorstCaseBranches",
    "ContourGrid",
    "sr_variance_theoretical",
    "variance_bound",
    "summarize",
    "worst_case_rel_error",
    "contour_grid",
]


@dataclass(frozen=True)
class StatsSummary:
    """Sample mean, absolute bias, population variance and relative error.

    ``mean_abs_rel_err`` is None when the exact value is zero; ``n_it_mean``
    is only populated by iterative experiments.
    """

    mu: float
    abs_bias: float
    variance: float
    mean_abs_rel_err: float | None
    n_samples: int
    n_it_mean: float | None = None


@dataclass(frozen=True)
class WorstCaseBranches:
    """Two-branch worst-case relative error of a rounded product.

    ``e_down`` occurs with probability ``p`` (the first factor rounding
    down), ``e_up`` with probability ``1 - p``.
    """

    e_down: float
    e_up: float
    p: float


@dataclass(frozen=True)
class ContourGrid:
    """Worst-case error branches evaluated on a dense cell-centre grid."""

    x1: np.ndarray
    x2: np.ndarray
    e_down: np.ndarray
    e_up: np.ndarray
    p: np.ndarray


def sr_variance_theoretical(x, spec: RoundingSpec):
    """Variance of proximity-proportional stochastic rounding at x.

    Equals (f - f^2) / theta^2 with f the scaled grid fraction; zero on the
    grid and at most 1/(2 theta)^2.
    """
    f = grid_fraction(x, spec)
    f = np.asarray(f, dtype=np.float64)
    v = (f - f * f) / (spec.theta * spec.theta)
    return float(v) if v.ndim == 0 else v


def variance_bound(spec: RoundingSpec) -> float:
    """Upper bound (1/(2 theta))^2 on the stochastic-rounding variance."""
    return (1.0 / (2.0 * spec.theta)) ** 2


def summarize(rounded_outcomes, exact: float, n_it_mean: float | None = None) -> StatsSummary:
    """Summary statistics of rounded outcomes against the exact value."""
    arr = np.asarray(rounded_outcomes, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one outcome")
    mu = float(np.mean(arr))
    if exact == 0.0:
        rel = None
    else:
        rel = float(np.mean(np.abs(arr - exact))) / abs(exact)
    return StatsSummary(
        mu=mu,
        abs_bias=abs(mu - exact),
        variance=float(np.var(arr)),
        mean_abs_rel_err=rel,
        n_samples=int(arr.size),
        n_it_mean=n_it_mean,
    )


def _branches(x1, x2):
    lower = np.floor(x1)
    prod = x1 * x2
    e_down = np.abs(1.0 - lower / prod)
    e_up = np.abs(1.0 - (lower + 1.0) / prod)
    p = 1.0 - (x1 - lower)
    return e_down, e_up, p


def worst_case_rel_error(x1: float, x2: float) -> WorstCaseBranches:
    """Worst-case relative error branches of a rounded product to integers.

    Requires x1 strictly inside an interval (i, i+1) with integer i >= 0 and
    x2 strictly inside (0, 1); integer inputs are degenerate for the
    two-branch analysis and are rejected.
    """
    x1 = float(x1)
    x2 = float(x2)
    if not (np.isfinite(x1) and np.isfinite(x2)):
        raise ValueError("inputs must be finite")
    if x1 <= 0.0 or x1 == np.floor(x1):
        raise ValueError("x1 must be positive and strictly between integers")
    if not 0.0 < x2 < 1.0:
        raise ValueError("x2 must lie strictly inside (0, 1)")
    e_down, e_up, p = _branches(x1, x2)
    return WorstCaseBranches(float(e_down), float(e_up), float(p))


def contour_grid(x1_range=(0.0, 5.0), x2_range=(0.0, 1.0), resolution=(200, 200)) -> ContourGrid:
    """Worst-case error branches on a (len(x1), len(x2)) cell-centre grid.

    Cell centres sit half a cell away from the range edges, which keeps x1
    off integers and x2 inside (0, 1) for the default ranges.
    """
    n1, n2 = int(resolution[0]), int(resolution[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be positive")
    lo1, hi1 = map(float, x1_range)
    lo2, hi2 = map(float, x2_range)
    if not np.all(np.isfinite((lo1, hi1, lo2, hi2))):
        raise ValueError("ranges must be finite")
    if not (hi1 > lo1 >= 0.0 and hi2 > lo2 >= 0.0 and hi2 <= 1.0):
        raise ValueError("ranges must be positive, with x2 within [0, 1]")
    x1 = lo1 + (np.arange(n1) + 0.5) * (hi1 - lo1) / n1
    x2 = lo2 + (np.arange(n2) + 0.5) * (hi2 - lo2) / n2
    if np.any(x1 == np.floor(x1)) or np.any(x2 <= 0.0) or np.any(x2 >= 1.0):
        raise ValueError("grid cells must avoid integer x1 and the x2 endpoints")
    # e_down and e_up come out (n1, n2) and fresh; p depends on x1 alone
    e_down, e_up, p = _branches(x1[:, None], x2[None, :])
    return ContourGrid(x1=x1, x2=x2, e_down=e_down, e_up=e_up, p=np.broadcast_to(p, (n1, n2)).copy())
