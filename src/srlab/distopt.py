"""Optimization of stochastic-rounding probability distributions.

On a grid of step delta, rounding down with probability p at grid fraction f
has variance delta^2 (p - p^2) and bias delta ((1 - p) - f).  A table is a
function of f alone, so delta drops out, and this module works at delta = 1:
``V(p) = p - p^2`` and ``B(p) = (1 - p) - f``.  The weighted objective
``theta1 V^2 + theta2 B^2``, plus ``PENALTY`` where |B| reaches an optional
cap, is minimized per grid node by particle swarm search, producing a
:class:`~srlab.rounding.ProbabilityTable`.  Tables are meant to be computed
offline and persisted; rounding never re-runs the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rounding import ProbabilityTable, _ret, _unit_interval
from .streams import _INV_2_53, _U_GOLDEN, RandomStream, _carve, _integer, _mix_shift, _real, _steps, substream_phases

__all__ = [
    "MopConfig",
    "Preset",
    "variance_of_p",
    "bias_of_p",
    "objective",
    "preset_config",
    "optimize_table",
]

PENALTY = 1e10  # added to the objective wherever |B| >= b_max
_ONE_BITS = np.float64(1.0).view(np.uint64)
# Nodes per swarm call: nine carved 200 KB arrays of 50 particles (1.84 MB) fit a core's
# 2 MB L2, and 1001 nodes take two calls.  512 ran the four swarm presets 6 % faster than
# 256 (0.92 MB) and 18 % faster than 128, and 1024 (3.7 MB) was 22 % slower.
_BLOCK_NODES = 512
# The swarm's settings, recorded under these names with each table: 50 particles on [0, 1],
# 200 iterations, inertia 0.729, cognitive and social weights 1.49445 (the constriction
# values of Clerc and Kennedy) and a velocity clamp of 0.5.
_SWARM = {"swarm_size": 50, "iterations": 200, "inertia": 0.729, "cognitive": 1.49445, "social": 1.49445,
          "velocity_clamp": 0.5}


@dataclass(frozen=True)
class MopConfig:
    """Weights and bias cap of the scalarized objective.

    ``theta1``/``theta2`` weigh squared variance and squared bias and must
    sum to one; a set ``b_max`` adds ``PENALTY`` wherever |B| reaches it.
    Every field set must be a finite non-negative real number (an int or
    float, not a bool).  As V <= 1/4 and |B| <= 1 at delta = 1, the
    objective is at most theta1/16 + theta2 + PENALTY, so always finite.
    """

    theta1: float
    theta2: float
    b_max: float | None = None

    def __post_init__(self):
        for name in ("theta1", "theta2", *(("b_max",) if self.b_max is not None else ())):
            _real(getattr(self, name), name, zero=True)
        if abs(self.theta1 + self.theta2 - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")


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
        return MopConfig(theta1=0.5, theta2=0.5, b_max=0.05)
    raise ValueError(f"unknown preset {preset!r}")


def _provenance(preset: Preset, seed: int) -> dict:
    """A preset table's provenance: its objective under the seven keys table files have always carried
    (no variance cap, ``k2`` the penalty of a set cap, delta 1), the swarm settings plus the seed, the seed."""
    cfg = preset_config(preset)
    mop = {"theta1": cfg.theta1, "theta2": cfg.theta2, "v_max": None, "b_max": cfg.b_max, "k1": 0.0,
           "k2": 0.0 if cfg.b_max is None else PENALTY, "delta": 1.0}
    return {"mop": mop, "pso": {**_SWARM, "seed": seed}, "seed": seed}


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


def variance_of_p(p):
    """Rounding variance p - p^2 at delta = 1; maximal at p = 1/2."""
    arr = _unit_interval(p, "p")
    return _ret(arr - arr * arr)


def bias_of_p(p, f):
    """Rounding bias (1 - p) - f at delta = 1; zero exactly when p = 1 - f."""
    return _ret((1.0 - _unit_interval(p, "p")) - _unit_interval(f, "f"))


def objective(p, f, cfg: MopConfig):
    """Scalarized objective theta1 V^2 + theta2 B^2 at delta = 1, plus ``PENALTY`` where |B| >= b_max.

    Out-of-bounds p is clamped to [0, 1] before evaluation; a NaN p, which
    no clamp moves, is refused.  The penalty fires when |B| reaches the cap
    (closed interval).
    """
    arr = _unit_interval(np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0), "p")
    fr = _unit_interval(f, "f")
    shape = np.broadcast_shapes(arr.shape, fr.shape)
    return _ret(_objective_into(arr, fr, cfg, *(np.empty(shape) for _ in range(3))))


def _objective_into(p, f, cfg: MopConfig, out, v, b):
    """The objective of p in [0, 1] at fractions f, written into ``out``.

    ``out``, ``v`` and ``b`` are float64 arrays of the broadcast shape of p
    and f; ``v`` and ``b`` are scratch.  V = p - p^2 and B = (1 - p) - f,
    both at delta = 1, are computed as in ``variance_of_p`` and
    ``bias_of_p``, without their range checks, and the operations and
    their order are those of ``theta1 * V * V + theta2 * B * B``, then the
    penalty, less, for theta1 = 0, V and the term +0 (V >= +0 on [0, 1]),
    since +0 + y is y for y >= +0.
    """
    np.subtract(np.subtract(1.0, p, out=b), f, out=b)
    hit = None if cfg.b_max is None else np.abs(b, out=out) >= cfg.b_max
    if cfg.theta1 == 0.0:
        np.multiply(np.multiply(cfg.theta2, b, out=out), b, out=out)
    else:
        np.subtract(p, np.multiply(p, p, out=v), out=v)
        np.multiply(np.multiply(cfg.theta1, v, out=out), v, out=out)
        out += np.multiply(np.multiply(cfg.theta2, b, out=v), b, out=v)
    if hit is not None:
        out += np.multiply(PENALTY, hit, out=v)
    return out


def _pso_batch(f: np.ndarray, mop: MopConfig, phases: np.ndarray):
    """Synchronous PSO on [0, 1] of the objective of ``mop``, one problem per row, with the settings ``_SWARM``.

    ``f`` holds the fractions, row j that of problem j, as an (m, 1) column
    or an (m, swarm) array; the call copies it into every column, as numpy
    loops over a broadcast column row by row.  Row j draws from the stream
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
      finite, at most theta1/16 + theta2 + ``PENALTY`` by construction, and
      never -0.0, its first term being a positive weight times a square, so
      equal values have equal bits.
    """
    m = phases.size
    s, iterations, inertia, cognitive, social, clamp = _SWARM.values()
    # every array of the call, f's copy too, starts on a 64-byte boundary: at 16 or 48 mod 64,
    # where 32-byte loads straddle cache lines, a 256-node block's mix took 40 us, against 34 at 0
    *buffers, x, v, pbest, fp, f_rows, states = _carve(*[((m, s), np.float64)] * 8, ((m, s), np.uint64))
    np.copyto(f_rows, f)
    diff, r, _ = buffers  # diff also receives fx, which is dead once the bests have taken it
    mask, tmp = (buf.view(np.uint64) for buf in buffers[1:])
    # block k's states are block 0's plus k s GOLDEN, one element added to each: a
    # broadcast column of phases would make numpy loop row by row
    np.add(np.asarray(phases, dtype=np.uint64)[:, None], _steps(np.arange(s)), out=states)
    offset = np.empty(1, dtype=np.uint64)  # an array: a uint64 scalar product warns on overflow

    def block(k):  # block k's 53-bit integer draws, in tmp's memory as int64; r's memory mixes
        np.multiply(k * s, _U_GOLDEN, out=offset)
        return _mix_shift(np.add(states, offset, out=tmp), mask).view(np.int64)

    # Stratified start: one particle per 1/s bin keeps narrow feasible bands
    # (penalty presets) populated from iteration zero.
    np.add(np.arange(s), np.multiply(block(0), _INV_2_53, out=r), out=x)
    x /= s
    v.fill(0.0)
    np.copyto(pbest, x)
    _objective_into(x, f_rows, mop, fp, *buffers[1:])
    rows = np.arange(m)
    gi = np.argmin(fp, axis=1)
    g = pbest[rows, gi]
    fg = fp[rows, gi]
    x_bits, v_bits, pbest_bits = x.view(np.uint64), v.view(np.uint64), pbest.view(np.uint64)
    scales = cognitive * _INV_2_53, social * _INV_2_53
    for i in range(iterations):
        v *= inertia
        for k, scale, best in zip((2 * i + 1, 2 * i + 2), scales, (pbest, g[:, None])):
            np.multiply(block(k), scale, out=r)
            r *= np.subtract(best, x, out=diff)
            v += r
        np.clip(v, -clamp, clamp, out=v)
        x += v
        # Reflective walls: bouncing keeps sampling dense next to 0 and 1,
        # where clamped swarms stall on boundary plateaus.
        v_bits ^= np.left_shift(np.greater(x_bits, _ONE_BITS, out=tmp), 63, out=tmp)
        np.abs(x, out=x)
        np.minimum(x, np.subtract(2.0, x, out=diff), out=x)
        fx = _objective_into(x, f_rows, mop, *buffers)
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
    seed: int = 0,
) -> ProbabilityTable:
    """Optimize the rounding probability at each fraction grid node.

    The objective depends on the input only through its grid fraction, so
    each node f_j = j/(grid_size - 1) is an independent scalar problem; node
    j draws from substream j of ``seed``, an integer in [0, 2^64), which
    makes the result independent of how the nodes are batched
    (``_BLOCK_NODES``).  The variance-only presets have the two exact
    optima p = 0 and p = 1; their names pin which endpoint the table
    stores, and no swarm runs for them.  A preset's table is labelled with
    the preset's name, a ``MopConfig``'s with ``"custom"``.
    """
    grid_size = _integer(grid_size, "grid_size", 2)
    seed = _integer(seed, "seed", bits=64)  # checked here: the var-min presets build no stream
    preset = preset_or_cfg if isinstance(preset_or_cfg, Preset) else None
    cfg = _objective_config(preset_or_cfg)
    fgrid = np.linspace(0.0, 1.0, grid_size)
    if preset in (Preset.VAR_MIN_FLOOR, Preset.VAR_MIN_CEIL):
        p_star = np.full(grid_size, 1.0 if preset is Preset.VAR_MIN_FLOOR else 0.0)
    else:
        phases = substream_phases(RandomStream(seed).phase, np.arange(grid_size))
        p_star = np.empty(grid_size)
        for j in range(0, grid_size, _BLOCK_NODES):
            nodes = slice(j, j + _BLOCK_NODES)
            p_star[nodes] = _pso_batch(fgrid[nodes, None], cfg, phases[nodes])[0]
    return ProbabilityTable(grid=fgrid, p=p_star, label="custom" if preset is None else preset.value)
