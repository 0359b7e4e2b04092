"""Monte-Carlo rounding studies: summation, Newton square roots, inner
products, and the variance-bound validation grid.

Every study is parameterized by a rounding mode and a seed.  Repetition r
draws ``draws_at(phase_r, j)``, j = 0, 1, ..., from substream ``16 + r`` of
the root stream, so blocks of repetitions give the same results as one at a
time, whatever their size (``_BLOCK_DRAWS``, chosen for the cache); input
data comes from the low-numbered substreams and is generated once per seed,
independent of the rounding mode under test.  Every mode is a probability
of rounding down, so every mode runs through the same engine: a
deterministic rule's probabilities are 0 or 1, so its study runs one
repetition, whose draws cannot change the result.  Studies that round the
same values in every repetition work out each value's rounding threshold
once per study, so a repetition costs one comparison per draw, made
between integers: ``_repeat`` compares each 53-bit draw, taken by counter,
with the threshold converted once to an integer, which is exact, and never
builds the double draw.  The Newton study rounds new values at every step.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rounding import SR, DeterministicMode, RoundingMode, RoundingSpec, rounding_thresholds, stochastic_round_with
from .stats import StatsSummary, sr_variance_theoretical, summarize, variance_bound
from .streams import RandomStream, _draw_thresholds, _integer, _mix_shift, _steps, draws_at, substream_phases

__all__ = [
    "CaseId",
    "NewtonConfig",
    "ExperimentReport",
    "SQRT_TEST_VALUES",
    "DOT_SIZES",
    "gen_case_inputs",
    "run_summation_experiment",
    "run_sqrt_experiment",
    "gen_sine_vectors",
    "run_inner_product_experiment",
    "VarianceBoundGrid",
    "validate_variance_bound",
]

_REP_STREAM_BASE = 16
# Whole repetitions of at most this many draws in all (or one, if larger)
# make a block.  A block costs some 20 numpy calls whatever its size; 2**16
# (six 10 000-draw rows, 1.1 MB of buffers, inside a core's 2 MB L2) ran sum
# and varbound 15-22 % faster than 2**14, and 2**17 (2.2 MB) was slower.
_BLOCK_DRAWS = 1 << 16
# Newton steps whose draws take one call; 4-16 ran the sqrt study alike, 1
# (a call per step) 15 % and 32 (draws past convergence) 8 % slower.
_NEWTON_STEPS = 8

SQRT_TEST_VALUES = (0.30146, 6.55501, 51.16904, 357.00272, 8133.27762)
DOT_SIZES = (50, 200, 400, 600, 800, 1000)


class CaseId(Enum):
    """Summation input cases: repeated/non-repeated values over one or two
    unit intervals."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


# samples, upper range bound, quantize to one decimal digit (forces repeats)
_CASE_PARAMS = {
    CaseId.I: (10_000, 1.0, True),
    CaseId.II: (10_000, 2.0, True),
    CaseId.III: (10, 1.0, False),
    CaseId.IV: (20, 2.0, False),
}


@dataclass(frozen=True)
class NewtonConfig:
    """Square-root iteration settings; convergence is |x_{k+1} - x_k| <= tol; ``n_max`` is an integer >= 1."""

    x0: float = 1.0
    tol: float = 1e-5
    n_max: int = 100
    spec: RoundingSpec = RoundingSpec(3, 10)

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0!r}")
        _integer(self.n_max, "n_max", 1)


@dataclass(frozen=True)
class ExperimentReport:
    """One table row: a rounding mode's statistics for one experiment subject."""

    label: str
    subject: str
    summary: StatsSummary | None
    seed: int
    n_reps: int
    digest: str
    n_breakdowns: int = 0
    n_nonconverged: int = 0
    not_solvable: bool = False


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _check_reps(n_reps: int) -> None:
    """Reject a repetition count below 1, also for a mode that runs one."""
    if n_reps < 1:
        raise ValueError(f"n_reps must be at least 1, got {n_reps}")


def _rep_phases(seed: int, n_reps: int) -> np.ndarray:
    """Stream phases of repetitions 0 .. n_reps - 1 (substreams 16 + r)."""
    return substream_phases(RandomStream(seed).phase, _REP_STREAM_BASE + np.arange(n_reps))


def _repeat(seed: int, n_reps: int, n_draws: int, t, outcome) -> np.ndarray:
    """One outcome per repetition, computed in blocks of repetitions.

    Element j of repetition r hits when ``draws_at(phase_r, j)``, draw j of
    substream 16 + r, is >= ``t[r, j]`` (``t`` broadcast to (n_reps,
    n_draws)).  ``outcome(rows, hit, scratch)`` maps a slice of repetitions,
    their bool hits and float64 scratch of hit's shape, the block's spent
    draws, to one value per repetition.
    """
    phases = _rep_phases(seed, n_reps)[:, None]
    steps = _steps(np.arange(n_draws))
    thresholds = np.broadcast_to(_draw_thresholds(t), (n_reps, n_draws))
    block = max(1, _BLOCK_DRAWS // n_draws)
    z, tmp = np.empty((2, min(block, n_reps), n_draws), dtype=np.uint64)  # the states, then the draws
    hits = np.empty(z.shape, dtype=bool)
    out = np.empty(n_reps)
    for start in range(0, n_reps, block):
        rows = slice(start, start + block)
        k = min(block, n_reps - start)
        b = _mix_shift(np.add(phases[rows], steps, out=z[:k]), tmp[:k])
        out[rows] = outcome(rows, np.greater_equal(b, thresholds[rows], out=hits[:k]), b.view(np.float64))
    return out


def _rounding_study(values, exact, combine, mode, subject, n_reps, seed) -> ExperimentReport:
    """Summarize the outcomes of integer roundings of ``values``.

    Row r of ``_repeat`` is repetition r, where element j takes draw j and
    rounds to ``lower[j] + hit[j]``.  ``combine(lower)`` returns the
    ``_repeat`` outcome that maps (rows, hit, scratch) to one outcome per
    row.  A deterministic mode runs one repetition: its thresholds are 0 or
    1, so its draws cannot change the result.
    """
    _check_reps(n_reps)
    lower, t = rounding_thresholds(values, mode, RoundingSpec())
    n_reps = 1 if isinstance(mode, DeterministicMode) else n_reps
    outcomes = _repeat(seed, n_reps, values.size, t, combine(lower))
    return ExperimentReport(
        label=mode.label,
        subject=subject,
        summary=summarize(outcomes, exact),
        seed=seed,
        n_reps=outcomes.size,
        digest=_digest(values),
    )


def gen_case_inputs(case: CaseId, seed: int) -> np.ndarray:
    """Uniform inputs for a summation case, fixed for a given seed.

    Repeated-value cases quantize the draws to one decimal digit, which
    yields roughly a thousand copies of each tenth (including the tie value
    one half); the small cases are redrawn until all values are distinct.
    """
    n, hi, quantize = _CASE_PARAMS[case]
    tag = list(CaseId).index(case) + 1
    rng = RandomStream(seed).substream(tag)
    x = rng.uniform(n) * hi
    if quantize:
        return np.round(x, 1)
    while np.unique(x).size < n:
        x = rng.uniform(n) * hi
    return x


def run_summation_experiment(case: CaseId, mode: RoundingMode, n_reps: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Repeat the rounded summation of a case's inputs and summarize.

    Deterministic modes run one repetition (their variance is identically
    zero); stochastic modes run ``n_reps`` repetitions on fresh substreams.
    """
    xs = gen_case_inputs(case, seed)
    return _rounding_study(xs, float(np.sum(xs)), _sum_rows, mode, case.value, n_reps, seed)


def _sum_rows(lower):
    # integer-valued sums below 2**53 are exact, so the count of hits added
    # to the sum of the floors is the sum of the rounded values
    total = np.sum(lower)
    return lambda rows, hit, scratch: total + hit.sum(axis=1)


def _newton_many(a: float, mode: RoundingMode, cfg: NewtonConfig, phases: np.ndarray):
    """Rounded Newton square roots of ``a``, one run per repetition, in lockstep.

    A run rounds the radicand once, to fa, and from x_0 = ``cfg.x0`` step k
    rounds the quotient q = fl(fa / x_{k-1}) and then x_k = fl(0.5 (x_{k-1} + q)).
    It converges at the first k with |x_k - x_{k-1}| <= tol, breaks down when
    fa or an iterate that a later step divides by is zero, and otherwise
    stops after ``n_max`` steps with its last iterate.  Returns (value, n_it,
    converged, breakdown), with value NaN for a breakdown.

    Repetition r takes draw 0 of its phase for the radicand, then 2k - 1 and
    2k at step k, so results are bit-identical to a serial loop.  The active
    repetitions are kept compact and draw for ``_NEWTON_STEPS`` steps per
    call.  A deterministic mode draws too, but its thresholds are 0 or 1,
    so the draws cannot change its result.
    """
    n = phases.size
    fa = stochastic_round_with(np.full(n, float(a)), mode, cfg.spec, draws_at(phases, 0))
    # a zero rounded radicand breaks down, as does a zero iterate before a quotient
    breakdown = (fa == 0.0) | (cfg.x0 == 0.0)
    value = np.full(n, np.nan)
    n_it = np.full(n, cfg.n_max, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    # the active repetitions: original index, rounded radicand, iterate, phase
    rid = np.flatnonzero(~breakdown)
    fa, x = fa[rid], np.full(rid.size, float(cfg.x0))
    ph = phases[rid]
    for k in range(1, cfg.n_max + 1):
        if rid.size == 0:
            break
        j = 2 * ((k - 1) % _NEWTON_STEPS)
        if j == 0:
            u = draws_at(ph[:, None], np.arange(2 * k - 1, 2 * min(k + _NEWTON_STEPS - 1, cfg.n_max) + 1))
        q = stochastic_round_with(fa / x, mode, cfg.spec, u[:, j])
        x, x_old = stochastic_round_with(0.5 * (x + q), mode, cfg.spec, u[:, j + 1]), x
        conv = np.abs(x - x_old) <= cfg.tol
        stop = conv | ((x == 0.0) & (k < cfg.n_max))
        if stop.any():
            done = rid[conv]
            value[done], converged[done], n_it[done] = x[conv], True, k
            breakdown[rid[stop & ~conv]] = True
            keep = ~stop
            rid, fa, x, ph, u = rid[keep], fa[keep], x[keep], ph[keep], u[keep]
    value[rid] = x
    return value, n_it, converged, breakdown


def run_sqrt_experiment(
    a: float,
    mode: RoundingMode,
    cfg: NewtonConfig | None = None,
    n_reps: int = 10_000,
    seed: int = 0,
) -> ExperimentReport:
    """Repeat the rounded square root of ``a`` and summarize against sqrt(a).

    Errors are measured against the root of the unrounded ``a``, so they
    include the error of rounding the radicand as well as that of the
    iteration.  Deterministic modes run one repetition.

    Breakdown repetitions are counted and excluded from the value statistics;
    non-converged repetitions contribute their last iterate but not the mean
    iteration count.  A report where every repetition broke down is flagged
    not solvable.
    """
    cfg = cfg or NewtonConfig()
    if not a > 0.0:
        raise ValueError(f"radicand must be positive, got {a!r}")
    _check_reps(n_reps)
    n_reps = 1 if isinstance(mode, DeterministicMode) else n_reps
    value, n_it, convs, breakdown = _newton_many(a, mode, cfg, _rep_phases(seed, n_reps))
    values = value[~breakdown]  # a breakdown never converges
    if values.size == 0:
        summary = None
    else:
        n_it_mean = float(np.mean(n_it[convs])) if convs.any() else None
        summary = summarize(values, math.sqrt(a), n_it_mean=n_it_mean)
    return ExperimentReport(
        label=mode.label,
        subject=repr(float(a)),
        summary=summary,
        seed=seed,
        n_reps=breakdown.size,
        digest=_digest(np.asarray([a])),
        n_breakdowns=int(np.sum(breakdown)),
        n_nonconverged=int(values.size - np.sum(convs)),
        not_solvable=values.size == 0,
    )


def gen_sine_vectors(n: int):
    """(sin(y), y) with y equidistant over the closed interval [0, 2*pi]."""
    if n < 2:
        raise ValueError("need at least two points")
    y = (2.0 * np.pi) * np.arange(n) / (n - 1.0)
    return np.sin(y), y


def run_inner_product_experiment(size: int, mode: RoundingMode, n_reps: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Repeat the integer-rounded inner product of the sine vectors of ``size``."""
    x, y = gen_sine_vectors(size)

    def products(lower):
        def outcome(rows, hit, r):
            np.add(lower, hit, out=r)
            return np.multiply(r[:, :size], r[:, size:], out=r[:, :size]).sum(axis=1)
        return outcome

    # x takes draws 0 .. size-1 and y takes size .. 2*size-1; the integer
    # grid needs no product rounding
    return _rounding_study(np.concatenate([x, y]), float(np.dot(x, y)), products, mode, str(size), n_reps, seed)


@dataclass(frozen=True)
class VarianceBoundGrid:
    """Per-x empirical and theoretical variances plus the uniform bound."""

    x: np.ndarray
    v_empirical: np.ndarray
    v_theoretical: np.ndarray
    bound: float


def validate_variance_bound(
    n_bits: int = 4,
    x_max: float = 2.0,
    step: float = 1e-4,
    draws: int = 10_000,
    seed: int = 0,
) -> VarianceBoundGrid:
    """Empirical vs. theoretical rounding variance over a fine x grid; grid
    point j is repetition j, so its ``draws`` roundings use substream 16 + j."""
    if not (step > 0.0 and 0.0 <= x_max < math.inf):
        raise ValueError(f"need step > 0 and a finite x_max >= 0, got step={step!r}, x_max={x_max!r}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    spec = RoundingSpec(n_bits, 2)
    n_pts = int(round(x_max / step)) + 1
    xs = np.arange(n_pts) * step
    lower, t = rounding_thresholds(xs, SR, spec)

    def var_rows(rows, hit, x):
        # the steps of np.var(x, axis=1), in place in the block's scratch,
        # which gives its bits without its temporaries
        np.add(lower[rows, None], hit, out=x)
        x *= 1.0 / spec.theta  # exact: theta is a power of two
        mean = np.add.reduce(x, axis=1, keepdims=True)
        mean /= draws
        x -= mean
        np.square(x, out=x)
        v = np.add.reduce(x, axis=1)
        v /= draws
        return v

    v_emp = _repeat(seed, n_pts, draws, t[:, None], var_rows)
    return VarianceBoundGrid(
        x=xs,
        v_empirical=v_emp,
        v_theoretical=np.asarray(sr_variance_theoretical(xs, spec)),
        bound=variance_bound(spec),
    )
