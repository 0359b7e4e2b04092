"""Independent oracles shared by the test suite.

Everything here is computed from first principles (exact rational
arithmetic, binomial moments, dense scans, polynomial roots) so it can
check the library without reusing its code paths.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


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
    per operation: theta1 V^2 + theta2 B^2, then each penalty."""
    arr = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    v = (cfg.delta * cfg.delta) * (arr - arr * arr)
    b = cfg.delta * ((1.0 - arr) - np.asarray(f, dtype=np.float64))
    total = cfg.theta1 * v * v + cfg.theta2 * b * b
    if cfg.v_max is not None:
        total = total + cfg.k1 * (v >= cfg.v_max)
    if cfg.b_max is not None:
        total = total + cfg.k2 * (np.abs(b) >= cfg.b_max)
    return total


def reference_pso_batch(fitness, phases, cfg):
    """The particle swarm written with ``np.where`` selects and a fresh
    array per operation; ``fitness(x)`` maps (m, swarm) positions to
    values, and row j draws ``reference_draws(phases[j], counters)``."""
    m = phases.size
    s = cfg.swarm_size
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
    for _ in range(cfg.iterations):
        rp = draw_block()
        rg = draw_block()
        v = cfg.inertia * v + cfg.cognitive * rp * (pbest - x) + cfg.social * rg * (g[:, None] - x)
        v = np.clip(v, -cfg.velocity_clamp, cfg.velocity_clamp)
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
