"""Independent output oracles and golden fingerprints.

Nothing here imports srlab.  Every reference value is computed from first
principles and the outputs are read with the standard ``csv`` and ``json``
modules:

- the counter-based SplitMix64 stream is re-implemented on Python integers,
  only to regenerate the summation inputs a seed defines;
- per-element rounding is a two-point distribution, so a sum or an inner
  product of independently rounded terms has exact moments (mean, variance,
  fourth cumulant), and each Monte-Carlo row is checked against them with a
  z-bound;
- the variance-bound rows use a Bernstein bound on the binomial up-count;
- contour cells and optimized tables are checked against their closed forms.

Each check returns ``(rows_attempted, rows_failed, messages)``; a message
that starts with ``NOTE`` reports a finding that fails no row.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math

import numpy as np

# z-bound for Monte-Carlo means and variances (two-sided normal tail ~3e-12).
Z_MC = 7.0
# failure probability per row for the Bernstein bound on varbound rows.
ALPHA_VARBOUND = 1e-12
# optimized-table tolerance on p; the swarm lands within ~5e-9 of each optimum.
P_TOL = 1e-6
# nearest-like tolerance on the objective, the one srlab's own acceptance test
# (c05) allows; the swarm stops up to ~1.7e-9 above a minimum.
OBJ_TOL = 1e-8
# The nearest-like objective has two local minima, near p = 0.01 and p = 0.99,
# whose values cross at f = 1/2.  srlab pins the table to the global one only
# outside this band of f (test_threshold_shape); inside it the swarm may end in
# either, and at a few seeds does so next to f = 1/2.  Such a node is reported
# as a note, not as a failed row.
NEAREST_LIKE_TIE_BAND = (0.45, 0.55)
NOTE = "note: "
D2_BIAS_CAP = 0.05

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_SALT = 0xD1B54A32D192ED03
_STREAM_SALT = 0x8BB84B93962EACC9
_CASES = {  # samples, upper bound, quantized to one decimal, substream tag
    "I": (10_000, 1.0, True, 1),
    "II": (10_000, 2.0, True, 2),
    "III": (10, 1.0, False, 3),
    "IV": (20, 2.0, False, 4),
}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- counter-based stream (documented draw contract) -----------------------


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _root_phase(seed: int) -> int:
    return _mix64((seed & _MASK64) ^ _SEED_SALT)


def _child_phase(phase: int, index: int) -> int:
    return _mix64(phase ^ _mix64((index & _MASK64) ^ _STREAM_SALT))


def _draw(phase: int, j: int) -> float:
    return (_mix64(phase + (j + 1) * _GOLDEN) >> 11) * 2.0 ** -53


def case_inputs(case: str, seed: int) -> list[float]:
    """The summation inputs of a case: draws of substream ``tag``, scaled."""
    n, hi, quantize, tag = _CASES[case]
    phase = _child_phase(_root_phase(seed), tag)
    counter = 0
    while True:
        xs = [_draw(phase, j) * hi for j in range(counter, counter + n)]
        counter += n
        if quantize:
            return [float(v) for v in np.round(np.asarray(xs), 1)]
        if len(set(xs)) == n:
            return xs


# --- exact moments of element-wise rounding to integers ---------------------


class Table:
    """A rounding-down probability table read from a distribution file."""

    def __init__(self, payload: dict):
        self.grid = [float(v) for v in payload["grid"]]
        self.p = [float(v) for v in payload["p"]]

    def p_down(self, f: float) -> float:
        j = min(max(bisect.bisect_right(self.grid, f) - 1, 0), len(self.grid) - 2)
        g0, g1 = self.grid[j], self.grid[j + 1]
        p = self.p[j] + (self.p[j + 1] - self.p[j]) * (f - g0) / (g1 - g0)
        return min(max(p, 0.0), 1.0)


def _half_even(x: float) -> float:
    lower = math.floor(x)
    frac = x - lower
    up = frac > 0.5 or (frac == 0.5 and lower % 2 != 0)
    return float(lower + up)


def rounding_outcomes(x: float, mode: str, tables: dict) -> list[tuple[float, float]]:
    """Exact outcomes of rounding ``x`` to an integer: [(value, probability)]."""
    if mode == "cr":
        return [(_half_even(x), 1.0)]
    lower = math.floor(x)
    f = x - lower
    if f == 0.0:
        return [(float(lower), 1.0)]
    p_down = 1.0 - f if mode == "sr" else tables[mode].p_down(f)
    return [(float(lower), p_down), (float(lower + 1), 1.0 - p_down)]


def _moments(outcomes):
    """(mean, variance, fourth cumulant) of a finite distribution."""
    mean = sum(v * p for v, p in outcomes)
    m2 = sum(p * (v - mean) ** 2 for v, p in outcomes)
    m4 = sum(p * (v - mean) ** 4 for v, p in outcomes)
    return mean, m2, m4 - 3.0 * m2 * m2


def _product(a, b):
    return [(va * vb, pa * pb) for va, pa in a for vb, pb in b]


def sum_moments(term_outcomes):
    """Exact (mean, variance, fourth cumulant) of a sum of independent terms."""
    mean = var = k4 = 0.0
    for outcomes in term_outcomes:
        m, v, k = _moments(outcomes)
        mean += m
        var += v
        k4 += k
    return mean, var, k4


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def check_mc_row(row: dict, exact: float, moments, reps: int) -> str | None:
    """Check one Monte-Carlo summary row against exact moments.

    ``abs_bias = |mu - exact|`` hides the sign of the error, so the mean is
    checked through the triangle inequality ``||mu - exact| - |B|| <= |mu - E|``.
    ``rel_err`` is a mean absolute deviation, which a sample bounds exactly
    between the absolute bias and the root-mean-square deviation.
    """
    mean, var, k4 = moments
    abs_bias = float(row["abs_bias"])
    v = float(row["variance"])
    rel = float(row["rel_err"])
    if not all(math.isfinite(t) for t in (abs_bias, v, rel)):
        return "non-finite value"
    eps = 1e-9 * max(1.0, abs(exact))
    bias = abs(mean - exact)
    if var == 0.0:
        if v != 0.0:
            return f"variance {v!r} should be exactly 0"
        if abs(abs_bias - bias) > eps:
            return f"abs_bias {abs_bias!r} != exact {bias!r}"
    else:
        tol_mean = Z_MC * math.sqrt(var / reps) + eps
        if abs(abs_bias - bias) > tol_mean:
            return f"abs_bias {abs_bias!r} vs expected {bias!r} (tolerance {tol_mean:.3g})"
        expect_v = var * (reps - 1) / reps
        tol_var = Z_MC * math.sqrt(max(2.0 * var * var + k4, 0.0) / reps) + eps
        if abs(v - expect_v) > tol_var:
            return f"variance {v!r} vs expected {expect_v!r} (tolerance {tol_var:.3g})"
    mad = rel * abs(exact)
    if not (abs_bias - eps <= mad <= math.sqrt(v + abs_bias * abs_bias) + eps):
        return f"rel_err {rel!r} outside [abs_bias, rms] / |exact|"
    return None


# --- file readers ----------------------------------------------------------


def _read_csv(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"header {got!r}, expected {header!r}")
        return [dict(zip(header, r)) for r in reader if len(r) == len(header)]


def _rows_result(expected_rows: int, rows, check_one):
    """(attempted, failed, messages): each expected row that is missing,
    surplus or rejected by ``check_one`` fails, up to ``expected_rows``."""
    failed = abs(len(rows) - expected_rows)
    messages = [f"{len(rows)} rows, expected {expected_rows}"] if failed else []
    for i, row in enumerate(rows[:expected_rows]):
        try:
            problem = check_one(i, row)
        except (KeyError, ValueError, TypeError) as exc:
            problem = f"unreadable row: {exc}"
        if problem:
            failed += 1
            if len(messages) < 5:
                messages.append(f"row {i}: {problem}")
    return expected_rows, min(failed, expected_rows), messages


def load_tables(paths) -> dict:
    tables = {}
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        tables[str(payload["label"]).lower()] = Table(payload)
    return tables


# --- per-kind oracles ------------------------------------------------------


def check_sum(path, spec, seed, tables):
    cases, modes, reps = spec["cases"], spec["modes"], spec["reps"]
    header = ["case", "mode", "abs_bias", "variance", "rel_err", "n"]
    rows = _read_csv(path, header)
    order = [(c, m) for c in cases for m in modes]
    inputs = {c: case_inputs(c, seed) for c in cases}

    def one(i, row):
        case, mode = order[i]
        if (row["case"], row["mode"]) != (case, mode):
            return f"labels {row['case']},{row['mode']} expected {case},{mode}"
        n_expect = 1 if mode == "cr" else reps
        if int(row["n"]) != n_expect:
            return f"n {row['n']} expected {n_expect}"
        xs = inputs[case]
        moments = sum_moments(rounding_outcomes(x, mode, tables) for x in xs)
        return check_mc_row(row, math.fsum(xs), moments, n_expect)

    return _rows_result(len(order), rows, one)


def sine_vectors(n: int):
    y = [(2.0 * math.pi) * k / (n - 1.0) for k in range(n)]
    return [math.sin(v) for v in y], y


def check_dot(path, spec, seed, tables):
    sizes, modes, reps = spec["sizes"], spec["modes"], spec["reps"]
    rows = _read_csv(path, ["n", "mode", "abs_bias", "variance", "rel_err"])
    order = [(n, m) for n in sizes for m in modes]

    def one(i, row):
        n, mode = order[i]
        if (int(row["n"]), row["mode"]) != (n, mode):
            return f"labels {row['n']},{row['mode']} expected {n},{mode}"
        x, y = sine_vectors(n)
        terms = (
            _product(rounding_outcomes(a, mode, tables), rounding_outcomes(b, mode, tables))
            for a, b in zip(x, y)
        )
        exact = math.fsum(a * b for a, b in zip(x, y))
        return check_mc_row(row, exact, sum_moments(terms), 1 if mode == "cr" else reps)

    return _rows_result(len(order), rows, one)


def check_sqrt(path, spec, seed, tables):
    """No closed form exists for rounded Newton iterates: only raises and
    non-finite values count, plus the row layout and breakdown counts."""
    values, modes, reps = spec["values"], spec["modes"], spec["reps"]
    header = ["a", "mode", "delta", "mu", "abs_bias", "variance", "rel_err", "n_it_mean", "breakdowns"]
    rows = _read_csv(path, header)
    order = [(a, m) for a in values for m in modes]

    def one(i, row):
        a, mode = order[i]
        if (float(row["a"]), row["mode"]) != (a, mode):
            return f"labels {row['a']},{row['mode']} expected {a},{mode}"
        for key in ("delta", "mu", "abs_bias", "variance", "rel_err", "n_it_mean"):
            if row[key] != "" and not math.isfinite(float(row[key])):
                return f"{key} is not finite: {row[key]}"
        if row["mu"] == "" and int(row["breakdowns"]) == 0:
            return "no statistics although nothing broke down"
        if not 0 <= int(row["breakdowns"]) <= (1 if mode == "cr" else reps):
            return f"breakdowns {row['breakdowns']} out of range"
        return None

    return _rows_result(len(order), rows, one)


def _bernstein_dev(n: int, q: float, alpha: float) -> float:
    """t with P(|Binomial(n, q) - n q| >= t) <= alpha (Bernstein)."""
    ell = math.log(2.0 / alpha)
    s2 = n * q * (1.0 - q)
    return ell / 3.0 + math.sqrt(ell * ell / 9.0 + 2.0 * ell * s2)


def check_varbound(path, spec, seed, tables):
    """v_empirical is the population variance of ``draws`` two-point draws
    with up-probability f, so |v - (f - f^2)/theta^2| = delta^2 |p_hat - f|
    |1 - p_hat - f| <= delta^2 |k/draws - f|, and k is binomial."""
    theta = float(2 ** spec["bits"])
    delta = 1.0 / theta
    step, draws = spec["step"], spec["draws"]
    n_pts = int(round(spec["xmax"] / step)) + 1
    bound = (1.0 / (2.0 * theta)) ** 2
    rows = _read_csv(path, ["x", "v_empirical", "v_theoretical", "bound"])

    def one(j, row):
        x = j * step
        if float(row["x"]) != x:
            return f"x {row['x']} expected {x!r}"
        scaled = x * theta
        nearest = float(np.rint(scaled))
        if abs(scaled - nearest) <= math.ulp(abs(scaled)):
            scaled = nearest
        f = scaled - math.floor(scaled)
        v_ref = (f - f * f) / (theta * theta)
        v_emp = float(row["v_empirical"])
        if not _close(float(row["v_theoretical"]), v_ref, abs_tol=1e-15 * bound):
            return f"v_theoretical {row['v_theoretical']} expected {v_ref!r}"
        if float(row["bound"]) != bound:
            return f"bound {row['bound']} expected {bound!r}"
        if not 0.0 <= v_emp <= bound * (1.0 + 1e-12):
            return f"v_empirical {v_emp!r} outside [0, bound]"
        tol = delta * delta * _bernstein_dev(draws, f, ALPHA_VARBOUND) / draws + 1e-12 * bound
        if abs(v_emp - v_ref) > tol:
            return f"v_empirical {v_emp!r} vs {v_ref!r} (tolerance {tol:.3g})"
        return None

    return _rows_result(n_pts, rows, one)


def check_contour(path, spec, seed, tables):
    res, x1_max = spec["res"], spec["x1_max"]
    rows = _read_csv(path, ["x1", "x2", "e_down", "e_up", "p"])

    def one(k, row):
        i, j = divmod(k, res)
        x1 = (i + 0.5) * x1_max / res  # cell centres of [0, x1_max] x [0, 1]
        x2 = (j + 0.5) / res
        lower = math.floor(x1)
        prod = x1 * x2
        expect = {
            "x1": x1,
            "x2": x2,
            "e_down": abs(1.0 - lower / prod),
            "e_up": abs(1.0 - (lower + 1.0) / prod),
            "p": 1.0 - (x1 - lower),
        }
        for key, want in expect.items():
            if not _close(float(row[key]), want, rel=1e-12, abs_tol=1e-15):
                return f"{key} {row[key]} expected {want!r}"
        return None

    return _rows_result(res * res, rows, one)


def _d1_root(f: float) -> float:
    """Unique real root in [0, 1] of 2p^3 - 3p^2 + 2p - (1 - f), the
    stationary point of (V^2 + B^2)/2; the cubic is strictly increasing."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if 2 * mid**3 - 3 * mid**2 + 2 * mid - (1.0 - f) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _nearest_like_objective(p: float, f: float) -> float:
    v = p - p * p
    b = 1.0 - p - f
    return 0.98 * v * v + 0.02 * b * b


def _nearest_like_minima(f: float) -> list[float]:
    """Local minimizers in [0, 1] of 0.98 V^2 + 0.02 B^2: the real roots of
    its derivative, a cubic, where its second derivative is positive.  For
    0 <= f <= 1 the endpoints are minima only when they are such roots."""
    roots = np.roots([0.98 * 2.0, -0.98 * 3.0, 0.98 + 0.02, -0.02 * (1.0 - f)])
    real = [min(max(float(r.real), 0.0), 1.0) for r in roots if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1.0 + 1e-9]
    return [p for p in real if 3.0 * 1.96 * p * p - 2.0 * 2.94 * p + 1.0 > 0.0]


def _check_nearest_like(p: float, f: float):
    """(problem, note) for one nearest-like node: it must lie at the global
    minimum, or inside ``NEAREST_LIKE_TIE_BAND`` at the other local one."""
    got = _nearest_like_objective(p, f)
    values = {q: _nearest_like_objective(q, f) for q in _nearest_like_minima(f)}
    best = min(values.values())
    if got - best <= OBJ_TOL:
        return None, None
    nearest = min(values, key=lambda q: abs(q - p))
    lo, hi = NEAREST_LIKE_TIE_BAND
    if lo <= f <= hi and got - values[nearest] <= OBJ_TOL:
        return None, got - best
    return f"objective {got!r} above optimum {best!r}", None


def check_table(path, spec, seed, tables):
    """Optimized tables against their closed-form optima."""
    preset, n = spec["preset"], spec["grid_size"]
    try:
        with open(path) as fh:
            payload = json.load(fh)
        grid = [float(v) for v in payload["grid"]]
        ps = [float(v) for v in payload["p"]]
        header_ok = (
            payload["format_version"] == 1
            and payload["label"] == preset
            and float(payload["delta"]) == 1.0
            and payload["provenance"]["seed"] == seed
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return n, n, [f"unreadable table: {exc}"]
    rows = list(zip(grid, ps)) if len(grid) == len(ps) else []

    def one(j, row):
        f, p = row
        if not header_ok:
            return "header fields (format_version, label, delta, seed) are wrong"
        if abs(f - j / (n - 1)) > 1e-15:
            return f"grid node {f!r} expected {j / (n - 1)!r}"
        if not 0.0 <= p <= 1.0:
            return f"p {p!r} outside [0, 1]"
        if preset == "bias-min":
            want = 1.0 - f
        elif preset == "var-min-floor":
            want = 1.0
        elif preset == "var-min-ceil":
            want = 0.0
        elif preset == "d1":
            want = _d1_root(f)
        elif preset == "d2":
            if abs(1.0 - p - f) > D2_BIAS_CAP:
                return f"|bias| {abs(1.0 - p - f)!r} above the cap"
            want = min(max(_d1_root(f), 1.0 - f - D2_BIAS_CAP), 1.0 - f + D2_BIAS_CAP)
        elif preset == "nearest-like":
            problem, excess = _check_nearest_like(p, f)
            if excess is not None:
                other_basin.append((f, excess))
            return problem
        else:
            return f"unknown preset {preset}"
        return None if abs(p - want) <= P_TOL else f"p {p!r} expected {want!r}"

    other_basin = []
    attempted, failed, messages = _rows_result(n, rows, one)
    if other_basin:
        nodes = ", ".join(f"f={f:g} (+{excess:.2g})" for f, excess in other_basin)
        messages.append(f"{NOTE}{len(other_basin)} node(s) at the local minimum that is not global, "
                        f"within the band srlab leaves open: {nodes}")
    return attempted, failed, messages


CHECKS = {
    "table": check_table,
    "sum": check_sum,
    "dot": check_dot,
    "sqrt": check_sqrt,
    "varbound": check_varbound,
    "contour": check_contour,
}


def check_file(kind: str, path, spec: dict, seed: int, table_paths=()):
    """Run the oracle of ``kind`` on one output file."""
    try:
        tables = load_tables(table_paths)
        return CHECKS[kind](path, spec, seed, tables)
    except (OSError, ValueError, KeyError) as exc:
        rows = spec["rows"]
        return rows, rows, [f"cannot check {path}: {exc}"]
