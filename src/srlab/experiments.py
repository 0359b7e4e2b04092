"""Monte-Carlo rounding studies: summation, Newton square roots, inner
products, and the variance-bound validation grid.

Every study is parameterized by a rounding mode and a seed.  Repetition r
takes draw j = 0, 1, ... (``draws_at(phase_r, j)``) of substream ``16 + r``
of the root stream, so blocks of repetitions give the same results as one
at a time, whatever their size (``_BLOCK_DRAWS``, chosen for the cache);
input data comes from the low-numbered substreams and is generated once per
seed, independent of the rounding mode under test.  Every mode is a
probability of rounding down, so every mode runs through the same engine: a
deterministic rule's probabilities are 0 or 1, so its study runs one
repetition, whose draws cannot change the result.  Every study decides a
rounding between integers: it compares the 53-bit draw, taken by counter,
with the value's integer threshold from ``rounding_thresholds``, and never
builds the double draw.  Studies that round the same values in every
repetition (``_repeat``) work out each value's threshold once per study, so
a repetition costs one comparison per draw; the Newton study rounds new
values at every step.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rounding import SR, DeterministicMode, RoundingMode, RoundingSpec, rounding_thresholds
from .stats import StatsSummary, sr_variance_theoretical, summarize, variance_bound
from .streams import RandomStream, _carve, _integer, _mix_shift, _real, _steps, substream_phases

__all__ = [
    "CaseId",
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
# (six 10 000-draw rows, 1.18 MB carved, inside a core's 2 MB L2) ran sum
# and varbound 15-22 % faster than 2**14 and 4 % faster than 2**15, and
# 2**17 (2.37 MB) was 16 % slower.
_BLOCK_DRAWS = 1 << 16
# Newton steps whose draws take one call; 4-16 ran the sqrt study alike, 1
# (a call per step) 15 % and 32 (draws past convergence) 8 % slower.
_NEWTON_STEPS = 8
# the square-root study's one stopping rule: a run converges at |x_k - x_{k-1}| <= _NEWTON_TOL
# and stops after _NEWTON_MAX steps
_NEWTON_TOL = 1e-5
_NEWTON_MAX = 100
_SQRT_SPEC = RoundingSpec(3, 10)  # the square-root study's grid: three decimal digits, as in the paper

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
class ExperimentReport:
    """One table row: a rounding mode's statistics for one experiment subject."""

    summary: StatsSummary | None
    n_reps: int
    digest: str
    n_breakdowns: int = 0
    n_nonconverged: int = 0


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _runs(mode: RoundingMode, n_reps, name: str = "n_reps") -> int:
    """Repetitions that a study of ``mode`` runs: ``n_reps``, an integer >= 1
    (checked for every mode), or one for a deterministic mode."""
    n_reps = _integer(n_reps, name, 1)
    return 1 if isinstance(mode, DeterministicMode) else n_reps


def _rep_phases(seed: int, n_reps: int) -> np.ndarray:
    """Stream phases of repetitions 0 .. n_reps - 1 (substreams 16 + r)."""
    return substream_phases(RandomStream(seed).phase, _REP_STREAM_BASE + np.arange(n_reps))


def _repeat(seed: int, n_reps: int, n_draws: int, T, outcome) -> np.ndarray:
    """One outcome per repetition, computed in blocks of repetitions.

    Element j of repetition r hits when its 53-bit draw j of substream
    16 + r is >= ``T[r, j]`` (``T`` broadcast to (n_reps, n_draws)).
    ``outcome(rows, hit, scratch)`` maps a slice of repetitions, their bool
    hits and float64 scratch of hit's shape, the block's spent draws, to
    one value per repetition.
    """
    phases = _rep_phases(seed, n_reps)[:, None]
    block = max(1, _BLOCK_DRAWS // n_draws)
    shape, T = (min(block, n_reps), n_draws), np.asarray(T)
    # the states (then the draws), scratch, hits, steps and a per-draw T, each on a 64-byte boundary
    z, tmp, hits, steps, row = _carve((shape, np.uint64), (shape, np.uint64), (shape, bool), ((n_draws,), np.uint64),
                                      (T.shape if T.ndim == 1 else (0,), T.dtype))
    np.copyto(steps, _steps(np.arange(n_draws)))
    if T.ndim == 1:
        np.copyto(row, T)
        T = row
    thresholds = np.broadcast_to(T, (n_reps, n_draws))
    out = np.empty(n_reps)
    for start in range(0, n_reps, block):
        rows = slice(start, start + block)
        k = min(block, n_reps - start)
        b = _mix_shift(np.add(phases[rows], steps, out=z[:k]), tmp[:k])
        out[rows] = outcome(rows, np.greater_equal(b, thresholds[rows], out=hits[:k]), b.view(np.float64))
    return out


def _rounding_study(values, exact, combine, mode, n_reps, seed) -> ExperimentReport:
    """Summarize the outcomes of integer roundings of ``values``.

    Row r of ``_repeat`` is repetition r, where element j takes draw j and
    rounds to ``lower[j] + hit[j]``.  ``combine(lower)`` returns the
    ``_repeat`` outcome that maps (rows, hit, scratch) to one outcome per
    row.  A deterministic mode runs one repetition: its thresholds are 0 or
    2**53, so its draws cannot change the result.
    """
    n_reps = _runs(mode, n_reps)
    lower, T = rounding_thresholds(values, mode, RoundingSpec())
    outcomes = _repeat(seed, n_reps, values.size, T, combine(lower))
    return ExperimentReport(
        summary=summarize(outcomes, exact),
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
    return _rounding_study(xs, float(np.sum(xs)), _sum_rows, mode, n_reps, seed)


def _sum_rows(lower):
    # integer-valued sums below 2**53 are exact, so the count of hits added
    # to the sum of the floors is the sum of the rounded values
    total = np.sum(lower)
    return lambda rows, hit, scratch: total + hit.sum(axis=1)


def _newton_many(a: float, mode: RoundingMode, spec: RoundingSpec, phases: np.ndarray):
    """Rounded Newton square roots of ``a``, one run per repetition, in lockstep.

    A run rounds the radicand once, to fa, and from x_0 = 1 step k
    rounds the quotient q = fl(fa / x_{k-1}) and then x_k = fl(0.5 (x_{k-1} + q)).
    It converges at the first k with |x_k - x_{k-1}| <= ``_NEWTON_TOL``,
    breaks down when fa or an iterate that a later step divides by is zero,
    and otherwise stops after ``_NEWTON_MAX`` steps with its last iterate.
    Returns (value, n_it, converged, breakdown), with value NaN for a
    breakdown.

    Repetition r takes draw 0 of its phase for the radicand, then 2k - 1 and
    2k at step k, so results are bit-identical to a serial loop.  The active
    repetitions are kept compact and draw for ``_NEWTON_STEPS`` steps per
    call.  A deterministic mode draws too, but its thresholds are 0 or
    2**53, so the draws cannot change its result.
    """

    def draws(ph, counters):  # the 53-bit draws at ``counters`` of the runs with phases ``ph``
        z = np.add(ph[:, None], _steps(counters))
        return _mix_shift(z, np.empty_like(z))

    def rounded(x, b):  # x rounds up where its draw b passes its threshold
        lower, T = rounding_thresholds(x, mode, spec)
        return (lower + (b >= T)) / spec.theta

    n = phases.size
    fa = rounded(a, draws(phases, [0])[:, 0])  # a's one threshold against the n draws
    breakdown = fa == 0.0
    value = np.full(n, np.nan)
    n_it = np.full(n, _NEWTON_MAX, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    # the active repetitions: original index, rounded radicand, iterate, phase
    rid = np.flatnonzero(~breakdown)
    fa, x = fa[rid], np.ones(rid.size)
    ph = phases[rid]
    for k in range(1, _NEWTON_MAX + 1):
        if rid.size == 0:
            break
        j = 2 * ((k - 1) % _NEWTON_STEPS)
        if j == 0:
            b = draws(ph, np.arange(2 * k - 1, 2 * min(k + _NEWTON_STEPS - 1, _NEWTON_MAX) + 1))
        q = rounded(fa / x, b[:, j])
        x, x_old = rounded(0.5 * (x + q), b[:, j + 1]), x
        conv = np.abs(x - x_old) <= _NEWTON_TOL
        stop = conv | ((x == 0.0) & (k < _NEWTON_MAX))
        if stop.any():
            done = rid[conv]
            value[done], converged[done], n_it[done] = x[conv], True, k
            breakdown[rid[stop & ~conv]] = True
            keep = ~stop
            rid, fa, x, ph, b = rid[keep], fa[keep], x[keep], ph[keep], b[keep]
    value[rid] = x
    return value, n_it, converged, breakdown


def run_sqrt_experiment(a: float, mode: RoundingMode, spec: RoundingSpec = _SQRT_SPEC, n_reps: int = 10_000,
                        seed: int = 0) -> ExperimentReport:
    """Repeat the rounded square root of ``a`` on the grid ``spec`` and summarize against sqrt(a).

    Every run stops at |x_k - x_{k-1}| <= 1e-5 or after 100 steps.  Errors
    are measured against the root of the unrounded ``a``, so they include
    the error of rounding the radicand as well as that of the iteration.
    Deterministic modes run one repetition.

    Breakdown repetitions are counted and excluded from the value statistics;
    non-converged repetitions contribute their last iterate but not the mean
    iteration count.  A report where every repetition broke down has no
    summary.
    """
    a = _real(a, "radicand")
    n_reps = _runs(mode, n_reps)
    value, n_it, convs, breakdown = _newton_many(a, mode, spec, _rep_phases(seed, n_reps))
    values = value[~breakdown]  # a breakdown never converges
    if values.size == 0:
        summary = None
    else:
        n_it_mean = float(np.mean(n_it[convs])) if convs.any() else None
        summary = summarize(values, math.sqrt(a), n_it_mean=n_it_mean)
    return ExperimentReport(
        summary=summary,
        n_reps=breakdown.size,
        digest=_digest(np.asarray([a])),
        n_breakdowns=int(np.sum(breakdown)),
        n_nonconverged=int(values.size - np.sum(convs)),
    )


def gen_sine_vectors(n: int):
    """(sin(y), y) with y equidistant over the closed interval [0, 2*pi]."""
    n = _integer(n, "vector size n", 2)
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
    return _rounding_study(np.concatenate([x, y]), float(np.dot(x, y)), products, mode, n_reps, seed)


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
    step, x_max, draws = _real(step, "step"), _real(x_max, "x_max", zero=True), _integer(draws, "draws", 1)
    spec = RoundingSpec(n_bits, 2)
    ratio = x_max / step  # inf when the quotient overflows
    n_pts = _integer(round(ratio) + 1 if ratio < math.inf else ratio, "grid size x_max / step + 1", 1)
    # from 2**53 on, every double scaled by theta is an integer: no x rounds, and the error of
    # var_rows' mean of equal doubles, not a rounding variance, would be reported against the bound
    if x_max * spec.theta >= 2.0**53:
        raise ValueError(f"x_max * 2**n_bits must be below 2**53, got x_max {x_max!r} with n_bits {spec.n}")
    x_last = (n_pts - 1) * step  # the largest point built, past x_max where x_max / step rounds up
    if x_last * spec.theta >= 2.0**53:
        raise ValueError(f"the last grid point x * 2**n_bits must be below 2**53, got x {x_last!r}, n_bits {spec.n}")
    xs = np.arange(n_pts) * step
    lower, T = rounding_thresholds(xs, SR, spec)

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

    v_emp = _repeat(seed, n_pts, draws, T[:, None], var_rows)
    return VarianceBoundGrid(
        x=xs,
        v_empirical=v_emp,
        v_theoretical=np.asarray(sr_variance_theoretical(xs, spec)),
        bound=variance_bound(spec),
    )
