"""Optimization of stochastic-rounding probability distributions.

For a grid fraction f, rounding down with probability p has variance
``V(p) = delta^2 (p - p^2)`` and bias ``B(p) = delta ((1 - p) - f)``.  A
weighted objective ``theta1 V^2 + theta2 B^2`` plus indicator penalties for
variance/bias limits is minimized per grid node by particle swarm search,
producing a :class:`~srlab.rounding.ProbabilityTable`.  Tables are meant to
be computed offline and persisted; rounding never re-runs the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .rounding import ProbabilityTable, _ret, _unit_interval
from .streams import _INV_2_53, _U_GOLDEN, RandomStream, _integer, _mix_shift, _real, _steps, substream_phases

__all__ = [
    "MopConfig",
    "PsoConfig",
    "Preset",
    "variance_of_p",
    "bias_of_p",
    "objective",
    "preset_config",
    "optimize_table",
]

PENALTY_DEFAULT = 1e10
_ONE_BITS = np.float64(1.0).view(np.uint64)
_BLOCK_NODES = 256  # per swarm call: 100 KB swarm arrays of 50 particles, inside a 2 MB L2


@dataclass(frozen=True)
class MopConfig:
    """Weights, limits and penalties of the scalarized objective.

    ``theta1``/``theta2`` weigh squared variance and squared bias and must
    sum to one.  A limit (``v_max``/``b_max``) comes with a positive penalty
    (``k1``/``k2``) added whenever the limit is reached or exceeded; absent
    limits must have zero penalty.  Every field set must be a real number
    (an int or float, not a bool): ``delta`` finite and positive, the others
    finite and non-negative.  So must the objective's bound
    ``theta1 (delta^2/4)^2 + theta2 delta^2 + k1 + k2`` be finite.
    """

    theta1: float
    theta2: float
    v_max: float | None = None
    b_max: float | None = None
    k1: float = 0.0
    k2: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        names = ("theta1", "theta2", "k1", "k2", *(n for n in ("v_max", "b_max") if getattr(self, n) is not None))
        t1, t2, k1, k2, *_ = [_real(getattr(self, name), name, zero=True) for name in names]
        d = _real(self.delta, "delta")
        if abs(self.theta1 + self.theta2 - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        if (self.v_max is None) != (k1 == 0.0):
            raise ValueError("k1 must be positive exactly when v_max is set")
        if (self.b_max is None) != (k2 == 0.0):
            raise ValueError("k2 must be positive exactly when b_max is set")
        # V <= delta^2/4 and |B| <= delta; Python floats in the objective's order, rounding being monotone
        if not np.isfinite(t1 * (d * d / 4.0) * (d * d / 4.0) + t2 * d * d + k1 + k2):
            raise ValueError("the objective overflows: theta1 (delta^2/4)^2 + theta2 delta^2 + k1 + k2 must be finite")


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings; only ``iterations`` (an integer >= 1) and ``seed`` (in [0, 2^64)) can be set.

    The rest are fixed, and recorded with each table: 50 particles on [0, 1],
    inertia 0.729, cognitive and social weights 1.49445 (the constriction
    values of Clerc and Kennedy) and a velocity clamp of 0.5.
    """

    swarm_size: int = field(default=50, init=False)
    iterations: int = 200
    inertia: float = field(default=0.729, init=False)
    cognitive: float = field(default=1.49445, init=False)
    social: float = field(default=1.49445, init=False)
    velocity_clamp: float = field(default=0.5, init=False)
    seed: int = 0

    def __post_init__(self):
        _integer(self.iterations, "iterations", 1)
        _integer(self.seed, "seed", bits=64)


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


def _objective_config(target) -> MopConfig:
    """The objective of an ``optimize_table`` target; a MopConfig whose objective ignores f is refused."""
    if isinstance(target, Preset):
        return preset_config(target)
    if not isinstance(target, MopConfig):
        raise TypeError("expected a Preset or MopConfig")
    if target.theta2 == 0.0 and target.b_max is None:
        raise ValueError("theta2 = 0 without b_max: the objective ignores f, and p = 0 and p = 1 tie at every "
                         "node; use the preset var-min-floor or var-min-ceil")
    return target


def variance_of_p(p, delta: float = 1.0):
    """Rounding variance delta^2 (p - p^2); maximal at p = 1/2."""
    arr = _unit_interval(p, "p")
    return _ret((delta * delta) * (arr - arr * arr))


def bias_of_p(p, f, delta: float = 1.0):
    """Rounding bias delta ((1 - p) - f); zero exactly when p = 1 - f."""
    arr = _unit_interval(p, "p")
    return _ret(delta * ((1.0 - arr) - _unit_interval(f, "f")))


def objective(p, f, cfg: MopConfig):
    """Scalarized objective theta1 V^2 + theta2 B^2 plus indicator penalties.

    Out-of-bounds p is clamped to [0, 1] before evaluation; a NaN p, which
    no clamp moves, is refused.  A penalty fires when its constraint value
    reaches the limit (closed interval).
    """
    arr = _unit_interval(np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0), "p")
    fr = _unit_interval(f, "f")
    shape = np.broadcast_shapes(arr.shape, fr.shape)
    return _ret(_objective_into(arr, fr, cfg, *(np.empty(shape) for _ in range(3))))


def _objective_into(p, f, cfg: MopConfig, out, v, b):
    """The objective of p in [0, 1] at fractions f, written into ``out``.

    ``out``, ``v`` and ``b`` are float64 arrays of the broadcast shape of p
    and f; ``v`` and ``b`` are scratch.  V and B are computed as in
    ``variance_of_p`` and ``bias_of_p``, without their range checks, and
    the operations and their order are those of ``theta1 * V * V +
    theta2 * B * B``, then each penalty, less scaling by delta = 1 and, for
    theta1 = 0, the term +0 (V >= +0 on [0, 1]), since +0 + y is y for y >= +0.
    """
    np.subtract(p, np.multiply(p, p, out=v), out=v)
    np.subtract(np.subtract(1.0, p, out=b), f, out=b)
    if cfg.delta != 1.0:  # x * 1.0 is x
        v *= cfg.delta * cfg.delta
        b *= cfg.delta
    hits = [] if cfg.v_max is None else [(cfg.k1, v >= cfg.v_max)]
    if cfg.b_max is not None:
        hits.append((cfg.k2, np.abs(b, out=out) >= cfg.b_max))
    if cfg.theta1 == 0.0:
        np.multiply(np.multiply(cfg.theta2, b, out=out), b, out=out)
    else:
        np.multiply(np.multiply(cfg.theta1, v, out=out), v, out=out)
        out += np.multiply(np.multiply(cfg.theta2, b, out=v), b, out=v)
    for k, hit in hits:
        out += np.multiply(k, hit, out=v)
    return out


def _pso_batch(f: np.ndarray, mop: MopConfig, phases: np.ndarray, pso: PsoConfig):
    """Synchronous PSO on [0, 1] of the objective of ``mop``, one problem per row.

    ``f`` is the (m, swarm) float64 array of fractions, row j holding the
    fraction of problem j in every column.  Row j draws from the stream
    phase ``phases[j]`` only, so a batch run is bit-identical to solving
    each row on its own.  Block k of a row is its draws k s .. k s + s - 1:
    block 0 is the stratified start, and iteration i takes blocks 2i + 1
    (cognitive) and 2i + 2 (social).

    An iteration runs in place in the swarm's arrays and the three buffers,
    with the operations in the order of ``inertia * v + cognitive * rp *
    (pbest - x) + social * rg * (g - x)``.  ``c * rp`` for the draw rp = b *
    2**-53 is one pass, b * (c * 2**-53): for the fixed c = 1.49445, c *
    2**-53 is a normal double and so exact, and both round b * c * 2**-53.
    The selects are branch-free and give the bits of the ``np.where``
    selects they replace, because a position is never NaN or -0.0:
    positions start at (j + u) / s >= +0, velocities are finite because the
    coefficients are, IEEE addition yields -0.0 only from two -0.0 operands,
    and a reflected position is |x| or 2 - |x|.
    - A position is outside [0, 1] exactly when its bits, read as uint64,
      exceed those of 1.0, since negative doubles have the top bit set.
      Such a particle's velocity changes sign by an xor of the sign bit.
    - The fixed clamp, 0.5, is at most 1, so positions lie in [-1, 2] and
      one reflection brings a particle back into [0, 1].  There,
      ``min(|x|, 2 - |x|)`` is -x below 0, x inside [0, 1] and 2 - x above
      1, as the selects give; 2 - |x| is exact for |x| in [1, 2].
    - pbest takes x where fx < fp by the uint64 blend ``a ^ ((a ^ b) &
      mask)``, and fp is the running minimum with the same bits: fx is
      finite (``MopConfig`` bounds it) and never -0.0, its first term being
      a positive weight times a square, so equal values have equal bits.
    """
    m = phases.size
    s = pso.swarm_size
    buffers = tuple(np.empty((3, m, s)))
    diff, r, _ = buffers  # diff also receives fx, which is dead once the bests have taken it
    mask, tmp = (buf.view(np.uint64) for buf in buffers[1:])
    # block k's states are block 0's plus k s GOLDEN, one element added to each: a
    # broadcast column of phases would make numpy loop row by row
    states = np.add(np.asarray(phases, dtype=np.uint64)[:, None], _steps(np.arange(s)))
    offset = np.empty(1, dtype=np.uint64)  # an array: a uint64 scalar product warns on overflow

    def block(k):  # block k's 53-bit integer draws, in tmp's memory as int64; r's memory mixes
        np.multiply(k * s, _U_GOLDEN, out=offset)
        return _mix_shift(np.add(states, offset, out=tmp), mask).view(np.int64)

    # Stratified start: one particle per 1/s bin keeps narrow feasible bands
    # (penalty presets) populated from iteration zero.
    x = (np.arange(s) + np.multiply(block(0), _INV_2_53, out=r)) / s
    v = np.zeros_like(x)
    pbest = x.copy()
    fp = _objective_into(x, f, mop, np.empty_like(x), *buffers[1:])
    rows = np.arange(m)
    gi = np.argmin(fp, axis=1)
    g = pbest[rows, gi]
    fg = fp[rows, gi]
    x_bits, v_bits, pbest_bits = x.view(np.uint64), v.view(np.uint64), pbest.view(np.uint64)
    scales = pso.cognitive * _INV_2_53, pso.social * _INV_2_53
    for i in range(pso.iterations):
        v *= pso.inertia
        for k, scale, best in zip((2 * i + 1, 2 * i + 2), scales, (pbest, g[:, None])):
            np.multiply(block(k), scale, out=r)
            r *= np.subtract(best, x, out=diff)
            v += r
        np.clip(v, -pso.velocity_clamp, pso.velocity_clamp, out=v)
        x += v
        # Reflective walls: bouncing keeps sampling dense next to 0 and 1,
        # where clamped swarms stall on boundary plateaus.
        v_bits ^= np.left_shift(np.greater(x_bits, _ONE_BITS, out=tmp), 63, out=tmp)
        np.abs(x, out=x)
        np.minimum(x, np.subtract(2.0, x, out=diff), out=x)
        fx = _objective_into(x, f, mop, *buffers)
        np.negative(np.less(fx, fp, out=mask), out=mask)
        pbest_bits ^= np.bitwise_and(np.bitwise_xor(pbest_bits, x_bits, out=tmp), mask, out=tmp)
        np.minimum(fp, fx, out=fp)
        bi = np.argmin(fp, axis=1)
        bf = fp[rows, bi]
        better = bf < fg
        g = np.where(better, pbest[rows, bi], g)
        fg = np.where(better, bf, fg)
    return g, fg


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
    independent of how the nodes are batched (``_BLOCK_NODES``).  The
    variance-only presets have the two exact optima p = 0 and p = 1; their
    names pin which endpoint the table stores, and no swarm runs for them.
    """
    grid_size = _integer(grid_size, "grid_size", 2)
    preset = preset_or_cfg if isinstance(preset_or_cfg, Preset) else None
    cfg = _objective_config(preset_or_cfg)
    pso = pso or PsoConfig()
    fgrid = np.linspace(0.0, 1.0, grid_size)
    if label is None:
        label = preset.value if preset is not None else "custom"
    if preset in (Preset.VAR_MIN_FLOOR, Preset.VAR_MIN_CEIL):
        p_star = np.full(grid_size, 1.0 if preset is Preset.VAR_MIN_FLOOR else 0.0)
    else:
        phases = substream_phases(RandomStream(pso.seed).phase, np.arange(grid_size))
        p_star = np.empty(grid_size)
        for j in range(0, grid_size, _BLOCK_NODES):  # contiguous fractions: numpy loops over a column row by row
            f = np.repeat(fgrid[j:j + _BLOCK_NODES, None], pso.swarm_size, axis=1)
            p_star[j:j + _BLOCK_NODES] = _pso_batch(f, cfg, phases[j:j + _BLOCK_NODES], pso)[0]
    return ProbabilityTable(grid=fgrid, p=p_star, label=label)
