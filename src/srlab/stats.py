"""Closed-form and empirical round-off error metrics.

Variance uses the population (1/N) normalization throughout.  Relative
error against an exact value of zero is reported as absent rather than
infinite so downstream aggregation is never poisoned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rounding import RoundingSpec, _ret, grid_fraction
from .streams import _integer, _real

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
    return _ret((f - f * f) / (spec.theta * spec.theta))


def variance_bound(spec: RoundingSpec) -> float:
    """Upper bound (1/(2 theta))^2 on the stochastic-rounding variance."""
    return (1.0 / (2.0 * spec.theta)) ** 2


def summarize(rounded_outcomes, exact: float, n_it_mean: float | None = None) -> StatsSummary:
    """Summary statistics of rounded outcomes against the exact value.

    Outcomes and ``exact`` must be finite, and so must every statistic: outcomes
    whose mean, variance or error overflows are refused, and no RuntimeWarning escapes.
    """
    arr = np.asarray(rounded_outcomes, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one outcome")
    if not np.all(np.isfinite(arr)):
        raise ValueError("outcomes must be finite")
    if not math.isfinite(exact):
        raise ValueError(f"exact must be a finite real number, got {exact!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.mean(arr))
        variance = float(np.var(arr))
        rel = None if exact == 0.0 else float(np.mean(np.abs(arr - exact))) / abs(exact)
    abs_bias = abs(mu - exact)
    if not all(map(math.isfinite, (mu, variance, abs_bias, rel or 0.0))):
        raise ValueError("the statistics of the outcomes overflow a double")
    return StatsSummary(
        mu=mu,
        abs_bias=abs_bias,
        variance=variance,
        mean_abs_rel_err=rel,
        n_samples=int(arr.size),
        n_it_mean=n_it_mean,
    )


def _branches(x1, x2):
    """Branches (e_down, e_up, p) of the products x1 x2, each x1 strictly between integers; a product
    so close to 0 that a branch is not finite is refused, and no RuntimeWarning escapes."""
    lower = np.floor(x1)
    if np.any(x1 == lower):
        raise ValueError("x1 must lie strictly between integers")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prod = x1 * x2
        e_down = np.abs(1.0 - lower / prod)
        e_up = np.abs(1.0 - (lower + 1.0) / prod)
    if not (np.all(np.isfinite(e_down)) and np.all(np.isfinite(e_up))):
        raise ValueError("x1 * x2 is too small: its error branches overflow a double")
    p = 1.0 - (x1 - lower)
    return e_down, e_up, p


def worst_case_rel_error(x1: float, x2: float) -> WorstCaseBranches:
    """Worst-case relative error branches of a rounded product to integers.

    Requires x1 strictly inside an interval (i, i+1) with integer i >= 0 and
    x2 strictly inside (0, 1), both real numbers; integer inputs are
    degenerate for the two-branch analysis and are rejected.
    """
    x1, x2 = _real(x1, "x1"), _real(x2, "x2")
    if not x2 < 1.0:
        raise ValueError("x2 must lie strictly inside (0, 1)")
    e_down, e_up, p = _branches(x1, x2)
    return WorstCaseBranches(float(e_down), float(e_up), float(p))


def contour_grid(x1_max: float = 5.0, resolution: int = 200) -> ContourGrid:
    """Worst-case error branches on the cell centres of a square grid over
    (0, x1_max) x (0, 1), ``resolution`` cells a side.

    Cell centres sit half a cell away from the edges, which keeps x2 inside
    (0, 1); a grid whose x1 hits an integer, or whose products are too small
    for finite branches, is refused.
    """
    x1_max, n = _real(x1_max, "x1_max"), _integer(resolution, "resolution", 1)
    x1 = (np.arange(n) + 0.5) * x1_max / n
    x2 = (np.arange(n) + 0.5) / n
    # e_down and e_up come out (n, n) and fresh; p depends on x1 alone
    e_down, e_up, p = _branches(x1[:, None], x2[None, :])
    return ContourGrid(x1=x1, x2=x2, e_down=e_down, e_up=e_up, p=np.broadcast_to(p, (n, n)).copy())
