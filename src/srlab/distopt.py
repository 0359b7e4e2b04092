"""Optimization of stochastic-rounding probability distributions.

For a grid fraction f, rounding down with probability p has variance
``V(p) = delta^2 (p - p^2)`` and bias ``B(p) = delta ((1 - p) - f)``.  A
weighted objective ``theta1 V^2 + theta2 B^2`` plus indicator penalties for
variance/bias limits is minimized per grid node by particle swarm search,
producing a :class:`~srlab.rounding.ProbabilityTable`.  Tables are meant to
be computed offline and persisted; rounding never re-runs the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rounding import ProbabilityTable
from .streams import RandomStream, draws_at, substream_phases

__all__ = [
    "MopConfig",
    "PsoConfig",
    "Preset",
    "variance_of_p",
    "bias_of_p",
    "objective",
    "pso_minimize",
    "preset_config",
    "optimize_table",
]

PENALTY_DEFAULT = 1e10


@dataclass(frozen=True)
class MopConfig:
    """Weights, limits and penalties of the scalarized objective.

    ``theta1``/``theta2`` weigh squared variance and squared bias and must
    sum to one.  A limit (``v_max``/``b_max``) comes with a positive penalty
    (``k1``/``k2``) added whenever the limit is reached or exceeded; absent
    limits must have zero penalty.
    """

    theta1: float
    theta2: float
    v_max: float | None = None
    b_max: float | None = None
    k1: float = 0.0
    k2: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        if self.theta1 < 0.0 or self.theta2 < 0.0:
            raise ValueError("weights must be non-negative")
        if abs(self.theta1 + self.theta2 - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        if (self.v_max is None) != (self.k1 == 0.0):
            raise ValueError("k1 must be positive exactly when v_max is set")
        if (self.b_max is None) != (self.k2 == 0.0):
            raise ValueError("k2 must be positive exactly when b_max is set")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters; the search interval is fixed to [0, 1]."""

    swarm_size: int = 50
    iterations: int = 200
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    velocity_clamp: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


class Preset(Enum):
    """Named objective configurations for the shipped distributions."""

    BIAS_MIN = "bias-min"
    VAR_MIN_FLOOR = "var-min-floor"
    VAR_MIN_CEIL = "var-min-ceil"
    NEAREST_LIKE = "nearest-like"
    D1 = "d1"
    D2 = "d2"


def preset_config(preset: Preset) -> MopConfig:
    """The fixed objective configuration behind a preset."""
    if preset in (Preset.VAR_MIN_FLOOR, Preset.VAR_MIN_CEIL):
        return MopConfig(theta1=1.0, theta2=0.0)
    if preset is Preset.BIAS_MIN:
        return MopConfig(theta1=0.0, theta2=1.0)
    if preset is Preset.NEAREST_LIKE:
        return MopConfig(theta1=0.98, theta2=0.02)
    if preset is Preset.D1:
        return MopConfig(theta1=0.5, theta2=0.5)
    if preset is Preset.D2:
        return MopConfig(theta1=0.5, theta2=0.5, b_max=0.05, k2=PENALTY_DEFAULT)
    raise ValueError(f"unknown preset {preset!r}")


def variance_of_p(p, delta: float = 1.0):
    """Rounding variance delta^2 (p - p^2); maximal at p = 1/2."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("p must lie in [0, 1]")
    v = (delta * delta) * (arr - arr * arr)
    return float(v) if v.ndim == 0 else v


def bias_of_p(p, f, delta: float = 1.0):
    """Rounding bias delta ((1 - p) - f); zero exactly when p = 1 - f."""
    arr = np.asarray(p, dtype=np.float64)
    fr = np.asarray(f, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("p must lie in [0, 1]")
    if np.any(fr < 0.0) or np.any(fr > 1.0):
        raise ValueError("f must lie in [0, 1]")
    b = delta * ((1.0 - arr) - fr)
    return float(b) if b.ndim == 0 else b


def objective(p, f, cfg: MopConfig):
    """Scalarized objective theta1 V^2 + theta2 B^2 plus indicator penalties.

    Out-of-bounds p is clamped to [0, 1] before evaluation.  A penalty fires
    when its constraint value reaches the limit (closed interval).
    """
    arr = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    v = variance_of_p(arr, cfg.delta)
    b = bias_of_p(arr, f, cfg.delta)
    total = cfg.theta1 * v * v + cfg.theta2 * b * b
    if cfg.v_max is not None:
        total = total + cfg.k1 * (v >= cfg.v_max)
    if cfg.b_max is not None:
        total = total + cfg.k2 * (np.abs(b) >= cfg.b_max)
    return float(total) if np.ndim(total) == 0 else total


def _pso_batch(fitness, phases: np.ndarray, cfg: PsoConfig):
    """Synchronous PSO on [0, 1] for a batch of independent 1-D problems.

    ``fitness`` maps an (m, swarm) position array to objective values of the
    same shape; row j draws from the stream phase ``phases[j]`` only, so a
    batch run is bit-identical to solving each row on its own.
    """
    m = phases.size
    s = cfg.swarm_size
    phases = np.asarray(phases, dtype=np.uint64).reshape(m, 1)
    counter = 0

    def draw_block():
        nonlocal counter
        u = draws_at(phases, np.arange(counter, counter + s, dtype=np.uint64)[None, :])
        counter += s
        return u

    # Stratified start: one particle per 1/s bin keeps narrow feasible bands
    # (penalty presets) populated from iteration zero.
    x = (np.arange(s)[None, :] + draw_block()) / s
    v = np.zeros_like(x)
    pbest = x.copy()
    fp = np.asarray(fitness(x), dtype=np.float64)
    rows = np.arange(m)
    gi = np.argmin(fp, axis=1)
    g = pbest[rows, gi]
    fg = fp[rows, gi]
    for _ in range(cfg.iterations):
        rp = draw_block()
        rg = draw_block()
        v = cfg.inertia * v + cfg.cognitive * rp * (pbest - x) + cfg.social * rg * (g[:, None] - x)
        v = np.clip(v, -cfg.velocity_clamp, cfg.velocity_clamp)
        x = x + v
        # Reflective walls: one bounce suffices since |v| <= clamp <= 1, and
        # bouncing keeps sampling dense next to 0 and 1 where clamped swarms
        # stall on boundary plateaus.
        low = x < 0.0
        high = x > 1.0
        x = np.where(low, -x, x)
        x = np.where(high, 2.0 - x, x)
        v = np.where(low | high, -v, v)
        fx = np.asarray(fitness(x), dtype=np.float64)
        improved = fx < fp
        pbest = np.where(improved, x, pbest)
        fp = np.where(improved, fx, fp)
        bi = np.argmin(fp, axis=1)
        bf = fp[rows, bi]
        better = bf < fg
        g = np.where(better, pbest[rows, bi], g)
        fg = np.where(better, bf, fg)
    return g, fg


def pso_minimize(fitness, cfg: PsoConfig, stream: RandomStream | None = None):
    """Minimize a scalar fitness on [0, 1]; returns (p_star, fitness_star).

    ``fitness`` must accept numpy arrays elementwise.  The swarm draws from
    ``stream`` (fresh, unconsumed) or from ``RandomStream(cfg.seed)``.
    """
    if stream is None:
        stream = RandomStream(cfg.seed)
    phases = np.asarray([stream.phase], dtype=np.uint64)
    g, fg = _pso_batch(lambda p: fitness(p), phases, cfg)
    return float(g[0]), float(fg[0])


def optimize_table(
    preset_or_cfg,
    grid_size: int = 1001,
    pso: PsoConfig | None = None,
    label: str | None = None,
) -> ProbabilityTable:
    """Optimize the rounding probability at each fraction grid node.

    The objective depends on the input only through its grid fraction, so
    each node f_j = j/(grid_size - 1) is an independent scalar problem; node
    j draws from substream j of the swarm seed, which makes the result
    independent of how the nodes are batched.  The variance-only presets
    have the two exact optima p = 0 and p = 1; the floor/ceiling preset
    names pin which endpoint the table stores, and no swarm runs for them.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    preset = preset_or_cfg if isinstance(preset_or_cfg, Preset) else None
    cfg = preset_config(preset) if preset is not None else preset_or_cfg
    if not isinstance(cfg, MopConfig):
        raise TypeError("expected a Preset or MopConfig")
    pso = pso or PsoConfig()
    fgrid = np.linspace(0.0, 1.0, grid_size)
    if label is None:
        label = preset.value if preset is not None else "custom"
    if preset in (Preset.VAR_MIN_FLOOR, Preset.VAR_MIN_CEIL):
        p_star = np.full(grid_size, 1.0 if preset is Preset.VAR_MIN_FLOOR else 0.0)
    else:
        phases = substream_phases(RandomStream(pso.seed).phase, np.arange(grid_size))
        p_star, _ = _pso_batch(lambda p: objective(p, fgrid[:, None], cfg), phases, pso)
    return ProbabilityTable(grid=fgrid, p=p_star, label=label)
