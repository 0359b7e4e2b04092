"""Independent oracles shared by the test suite.

Most of what is here is computed from first principles (exact rational
arithmetic, binomial moments, dense scans, polynomial roots, plain numpy
expressions) so it can check the library without reusing its code paths.
The scalar study routines at the end are the exception: they round with
the library's ``round_values``, one repetition at a time from a
``RandomStream``.  They check the study engines' draw bookkeeping (which
draw of which substream rounds which value), not the rounding kernels.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from srlab.distopt import _SWARM
from srlab.rounding import DeterministicMode, RoundingMode, RoundingSpec, grid_fraction, round_values
from srlab.streams import RandomStream


def varhat_mean_std(n, pi, delta):
    """Exact mean/std of the population-variance estimate of n two-point
    draws (values 0 and delta, up-probability pi), via binomial moments."""
    f1 = n * pi
    f2 = n * (n - 1) * pi**2
    f3 = n * (n - 1) * (n - 2) * pi**3
    f4 = n * (n - 1) * (n - 2) * (n - 3) * pi**4
    es1 = f1
    es2 = f2 + f1
    es3 = f3 + 3 * f2 + f1
    es4 = f4 + 6 * f3 + 7 * f2 + f1
    et = n * es1 - es2
    et2 = n * n * es2 - 2 * n * es3 + es4
    mean = delta**2 * et / n**2
    var = delta**4 * (et2 - et * et) / n**4
    return mean, math.sqrt(max(var, 0.0))


def equal_weight_root(f):
    """Real root in [0, 1] of 2p^3 - 3p^2 + 2p - (1 - f) = 0."""
    roots = np.roots([2.0, -3.0, 2.0, -(1.0 - f)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = real[(real >= -1e-9) & (real <= 1 + 1e-9)]
    assert inside.size == 1
    return float(np.clip(inside[0], 0.0, 1.0))


def sr_thresholds(x, spec):
    """Proximity stochastic rounding's threshold in closed form: the
    probability 1 - f of rounding down at grid fraction f, and 2.0, above
    every draw, on grid points."""
    f = grid_fraction(x, spec)
    return np.where(f > 0.0, 1.0 - f, 2.0)


def deterministic_round_reference(x, spec):
    """Each deterministic rule applied to x: {mode: rounded values}.

    The scaled double is x * theta, snapped to the nearest integer when it
    lies within one ulp of it (the library's convention, so grid values
    stay put).  Its floor lo and its fraction come from the double's exact
    integer ratio, so every rule's choice between lo and lo + 1, ties
    included, is exact.  Rounded values are (lo + up) / theta, so a zero
    result is +0.0.
    """
    theta = spec.theta
    rows = []
    for v in np.asarray(x, dtype=np.float64).ravel().tolist():
        xt = v * theta
        nearest = float(round(xt))
        n, d = (nearest if abs(xt - nearest) <= math.ulp(xt) else xt).as_integer_ratio()
        lo, r = divmod(n, d)  # the fraction is r / d, in [0, 1)
        rows.append((lo, (2 * r > d) - (2 * r < d), r > 0))
    lo, half, off = (np.array(column) for column in zip(*rows))
    above, tie, odd = half > 0, half == 0, lo % 2 == 1
    D = DeterministicMode
    ups = {
        D.FLOOR: np.zeros(lo.shape, dtype=bool),
        D.CEILING: off,
        D.HALF_UP: above | tie,
        D.HALF_DOWN: above,
        D.HALF_EVEN: above | (tie & odd),
        D.HALF_ODD: above | (tie & ~odd),
    }
    return {mode: (lo + up) / theta for mode, up in ups.items()}


def _two_point(x):
    """Exact down/up outcomes of rounding x to integers: {value: probability}."""
    x = Fraction(x)
    lo = math.floor(x)
    frac = x - lo
    if frac == 0:
        return {Fraction(lo): Fraction(1)}
    return {Fraction(lo): 1 - frac, Fraction(lo + 1): frac}


def chained_sum_distribution(xs):
    """Distribution of rounding-as-you-accumulate: fl(...fl(fl(x1)+x2)...+xn)."""
    dist = _two_point(xs[0])
    for x in xs[1:]:
        x = Fraction(x)
        new = {}
        for val, pr in dist.items():
            for out, q in _two_point(val + x).items():
                new[out] = new.get(out, Fraction(0)) + pr * q
        dist = new
    return dist


def elementwise_sum_distribution(xs):
    """Distribution of the sum of independently rounded terms."""
    dist = {Fraction(0): Fraction(1)}
    for x in xs:
        new = {}
        for val, pr in dist.items():
            for out, q in _two_point(x).items():
                new[val + out] = new.get(val + out, Fraction(0)) + pr * q
        dist = new
    return dist


def elementwise_sum_moments(xs, table=None):
    """Exact (mean, variance) of the sum of independently integer-rounded
    terms: sum(floor(x) + 1 - p_down) and sum(p_down * (1 - p_down)).

    Each fraction f comes from exact rational arithmetic on the double.
    p_down is 1 - f for proximity stochastic rounding (``table=None``) and
    the table's own linear interpolation at f otherwise; grid points never
    move, whatever the table says at f = 0.
    """
    values, counts = np.unique(np.asarray(xs, dtype=np.float64), return_counts=True)
    mean = var = Fraction(0)
    for x, count in zip(values.tolist(), counts.tolist()):
        q = Fraction(x)
        lo = math.floor(q)
        f = q - lo
        if f == 0:
            mean += count * lo
            continue
        p_down = 1 - f if table is None else Fraction(float(np.interp(float(f), table.grid, table.p)))
        mean += count * (lo + 1 - p_down)
        var += count * p_down * (1 - p_down)
    return float(mean), float(var)


def rounded_radicand_sqrt_error(a, table, digits):
    """Expected relative error E|sqrt(fl(a)) - sqrt(a)| / sqrt(a) when a is
    rounded once to ``digits`` decimal places by a probability table.

    The grid neighbours and the fraction f come from exact decimal
    arithmetic on ``repr(a)``; the probability of rounding down is the
    table's own linear interpolation at f.  This is the error the rounded
    radicand carries before any Newton step.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(repr(float(a)))
        scaled = d.scaleb(digits)
        lo = scaled.to_integral_value(rounding="ROUND_FLOOR")
        f = scaled - lo
        if f == 0:
            return 0.0
        root = d.sqrt()
        err_down = abs(lo.scaleb(-digits).sqrt() - root) / root
        err_up = abs((lo + 1).scaleb(-digits).sqrt() - root) / root
    p_down = float(np.interp(float(f), table.grid, table.p))
    return p_down * float(err_down) + (1.0 - p_down) * float(err_up)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    """The SplitMix64 finalizer in exact Python-int arithmetic."""
    z = int(z) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_unmix(z):
    """The inverse of ``splitmix64_mix``: the state that mixes to ``z``.

    Each xor-shift ``y = x ^ (x >> s)`` is undone by iterating ``x = y ^
    (x >> s)``, which fixes s more leading bits per step, and each odd
    multiplier by its inverse modulo 2^64."""
    z = int(z) & _MASK64
    for shift, mul in ((31, None), (27, 0x94D049BB133111EB), (30, 0xBF58476D1CE4E5B9)):
        if mul is not None:
            z = (z * pow(mul, -1, 1 << 64)) & _MASK64
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x
    return z


def splitmix64_draw(phase, counter):
    """Draw ``counter`` of the stream with ``phase``, in exact Python-int
    arithmetic: (mix64(phase + (counter + 1) * GOLDEN) >> 11) * 2**-53."""
    return (splitmix64_mix(int(phase) + (int(counter) + 1) * _GOLDEN) >> 11) * 2.0**-53


def reference_draws(phase, counters):
    """``splitmix64_draw`` for broadcast arrays of phases and counters, as
    plain uint64 numpy expressions that allocate a fresh array each."""
    state = np.asarray(phase, dtype=np.uint64) + (
        np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def reference_objective(p, f, cfg):
    """The scalarized objective as plain numpy expressions, one temporary
    per operation: theta1 V^2 + theta2 B^2 at delta = 1, then the penalty
    1e10 where |B| >= b_max."""
    arr = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    v = arr - arr * arr
    b = (1.0 - arr) - np.asarray(f, dtype=np.float64)
    total = cfg.theta1 * v * v + cfg.theta2 * b * b
    if cfg.b_max is not None:
        total = total + 1e10 * (np.abs(b) >= cfg.b_max)
    return total


def reference_pso_batch(fitness, phases, iterations):
    """The particle swarm written with ``np.where`` selects and a fresh
    array per operation, with the constants of ``_SWARM`` and ``iterations``
    iterations; ``fitness(x)`` maps (m, swarm) positions to values, and row
    j draws ``reference_draws(phases[j], counters)``."""
    m = phases.size
    s, w, c1, c2, clamp = (_SWARM[k] for k in ("swarm_size", "inertia", "cognitive", "social", "velocity_clamp"))
    phases = np.asarray(phases, dtype=np.uint64).reshape(m, 1)
    counter = 0

    def draw_block():
        nonlocal counter
        u = reference_draws(phases, np.arange(counter, counter + s, dtype=np.uint64)[None, :])
        counter += s
        return u

    x = (np.arange(s)[None, :] + draw_block()) / s
    v = np.zeros_like(x)
    pbest = x.copy()
    fp = np.asarray(fitness(x), dtype=np.float64)
    rows = np.arange(m)
    gi = np.argmin(fp, axis=1)
    g = pbest[rows, gi]
    fg = fp[rows, gi]
    for _ in range(iterations):
        rp = draw_block()
        rg = draw_block()
        v = w * v + c1 * rp * (pbest - x) + c2 * rg * (g[:, None] - x)
        v = np.clip(v, -clamp, clamp)
        x = x + v
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


def format_number_reference(value):
    """CSV cell text as the writer formatted it before its float fast path:
    17 significant digits, blanks for absent."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


class BreakdownError(ArithmeticError):
    """A rounded operand or iterate became zero, so a quotient is undefined."""


def rounded_sum(xs, mode: RoundingMode, spec: RoundingSpec = RoundingSpec(), rng: RandomStream | None = None) -> float:
    """Sum of element-wise rounded values (one draw per element when stochastic)."""
    return float(np.sum(round_values(np.asarray(xs, dtype=np.float64), mode, spec, rng)))


def newton_sqrt_rounded(a: float, mode: RoundingMode | None, spec: RoundingSpec, tol: float, n_max: int,
                        rng: RandomStream | None = None, x0: float = 1.0):
    """One rounded Newton square-root run from ``x0`` on the grid ``spec``; returns (value, n_it, converged).

    It converges at the first step k with |x_k - x_{k-1}| <= ``tol`` and
    otherwise stops after ``n_max`` steps.  The radicand is rounded once up
    front; each step rounds the quotient and then the halved sum.
    ``mode=None`` runs the iteration in plain double precision.  Raises :class:`BreakdownError` when the rounded radicand or
    an iterate hits zero.
    """
    a = float(a)
    if a <= 0.0:
        raise ValueError("radicand must be positive")
    if mode is None:
        fl = lambda v: v
    else:
        fl = lambda v: round_values(v, mode, spec, rng)
    fa = fl(a)
    if fa == 0.0:
        raise BreakdownError(f"rounded radicand of {a} is zero")
    x = float(x0)
    for k in range(1, n_max + 1):
        if x == 0.0:
            raise BreakdownError("iterate rounded to zero")
        q = fl(fa / x)
        x_new = fl(0.5 * (x + q))
        if abs(x_new - x) <= tol:
            return x_new, k, True
        x = x_new
    return x, n_max, False


def rounded_inner_product(x, y, mode: RoundingMode, spec: RoundingSpec = RoundingSpec(), rng: RandomStream | None = None) -> float:
    """Inner product of element-wise rounded vectors.

    With integer rounding the term products are already on the grid and are
    summed directly; with a finer grid each product is rounded again.  Draw
    order for stochastic modes: all of x, then all of y, then (if needed)
    the products.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    prod = round_values(x, mode, spec, rng) * round_values(y, mode, spec, rng)
    if spec.n == 0:
        return float(np.sum(prod))
    return float(np.sum(round_values(prod, mode, spec, rng)))


def copy_at(a, offset: int) -> np.ndarray:
    """A C-contiguous copy of ``a`` whose data starts at ``offset`` mod 64, a view into a uint8 buffer."""
    a = np.asarray(a)
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    out = np.ndarray(a.shape, a.dtype, buf, -buf.ctypes.data % 64 + offset)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out
