"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints one PASS/FAIL line, and
asserts at the stated tolerance.  Expected total runtime is a few minutes;
the heavy optimized tables are built once per session by the fixtures.
"""

import hashlib
import math
import sys

import numpy as np

from oracles import (
    chained_sum_distribution,
    elementwise_sum_distribution,
    equal_weight_root,
    rounded_radicand_sqrt_error,
    varhat_mean_std,
)
import srlab.cli
from srlab import distopt
from srlab.cli import main as cli_main
from srlab.distopt import Preset, bias_of_p, objective, preset_config
from srlab.experiments import (
    DOT_SIZES,
    SQRT_TEST_VALUES,
    CaseId,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from srlab.rounding import (
    SR,
    DeterministicMode,
    RoundingSpec,
    grid_fraction,
    round_values,
)
from srlab.stats import contour_grid, sr_variance_theoretical, variance_bound
from srlab.streams import RandomStream

D = DeterministicMode


def report(number, name, failures):
    status = "PASS" if not failures else f"FAIL ({'; '.join(failures)})"
    # the real stdout, so the line survives pytest's capture in any run mode
    print(f"ACCEPTANCE {number:>3} {name}: {status}", file=sys.__stdout__)
    assert not failures, f"criterion {number}: {failures}"


def test_c01_deterministic_rule_table():
    expected = {
        D.FLOOR: [1.0, 0.0, -1.0, -2.0],
        D.CEILING: [2.0, 1.0, 0.0, -1.0],
        D.HALF_UP: [2.0, 1.0, 0.0, -2.0],
        D.HALF_DOWN: [2.0, 0.0, -1.0, -2.0],
        D.HALF_EVEN: [2.0, 0.0, 0.0, -2.0],
        D.HALF_ODD: [2.0, 1.0, -1.0, -2.0],
    }
    spec = RoundingSpec()
    failures = []
    for mode, cells in expected.items():
        for value, want in zip([1.6, 0.5, -0.5, -1.6], cells):
            got = round_values(value, mode, spec)
            if got != want:
                failures.append(f"{mode.value}({value}) = {got}, want {want}")
    report("c1", "deterministic rule table (24 cells)", failures)


def test_c02_variance_bound_grid():
    spec = RoundingSpec(4, 2)
    grid = validate_variance_bound(n_bits=4, x_max=2.0, step=1e-3, draws=10_000, seed=0)
    failures = []
    bound = 2.0**-10
    if grid.bound != bound:
        failures.append(f"bound {grid.bound}")
    frac = np.asarray(grid_fraction(grid.x, spec))
    for j in range(grid.x.size):
        _, std = varhat_mean_std(10_000, frac[j], spec.delta)
        if grid.v_empirical[j] > bound + 5 * std:
            failures.append(f"empirical {grid.v_empirical[j]} above bound at x={grid.x[j]}")
    # theoretical curve equals the closed form and the two-branch form
    closed = (frac - frac * frac) / spec.theta**2
    if not np.array_equal(grid.v_theoretical, closed):
        failures.append("theoretical curve deviates from closed form")
    lo = np.asarray(round_values(grid.x, D.FLOOR, spec))
    p_up = (grid.x - lo) / spec.delta
    two_branch = (lo - grid.x) ** 2 * (1 - p_up) + (lo + spec.delta - grid.x) ** 2 * p_up
    if not np.allclose(grid.v_theoretical, two_branch, rtol=1e-12, atol=1e-20):
        failures.append("theoretical curve deviates from two-branch form")
    on_grid = np.isclose(grid.x * 16.0, np.round(grid.x * 16.0), atol=1e-9)
    if not np.all(grid.v_empirical[on_grid] == 0.0):
        failures.append("nonzero variance on grid multiples")
    if int(on_grid.sum()) != 17:
        failures.append(f"expected 17 grid multiples, saw {on_grid.sum()}")
    report("c2", "variance bound over [0,2] (subsampled fig grid)", failures)


def test_c03_unbiasedness():
    draws = 100_000
    failures = []
    xs = RandomStream(2025).uniform(100) * 4.0 - 2.0
    for base in (2, 10):
        for n in (0, 3, 4):
            spec = RoundingSpec(n, base)
            v = np.asarray(sr_variance_theoretical(xs, spec))
            root = RandomStream(base * 1000 + n)
            for j, x in enumerate(xs):
                out = round_values(np.full(draws, x), SR, spec, root.substream(j))
                tol = 4.0 * math.sqrt(v[j] / draws)
                err = abs(out.mean() - x)
                if err > tol and v[j] > 0:
                    failures.append(f"mean off by {err:.2e} > {tol:.2e} at x={x}, n={n}, base={base}")
                if v[j] == 0 and err != 0:
                    failures.append(f"grid point moved at x={x}")
    report("c3", "unbiased sample means (100 x, n in {0,3,4})", failures)


def test_c04_sum_and_product_identities():
    failures = []
    rng = RandomStream(11)
    # exact enumeration: accumulate-then-round vs round-then-accumulate
    for n_terms in (2, 3):
        for _ in range(30):
            xs = [float(u * 6.0 - 2.0) for u in rng.uniform(n_terms)]
            if chained_sum_distribution(xs) != elementwise_sum_distribution(xs):
                failures.append(f"distribution mismatch for {xs}")
    # the identity also holds with subtraction: negate terms
    xs = [2.3, -1.7, 0.4]
    if chained_sum_distribution(xs) != elementwise_sum_distribution(xs):
        failures.append("distribution mismatch with negative terms")
    # integer products are fixed points of integer rounding
    spec = RoundingSpec()
    a = round_values(rng.uniform(1000) * 40.0 - 20.0, SR, spec, rng)
    b = round_values(rng.uniform(1000) * 40.0 - 20.0, SR, spec, rng)
    prod = a * b
    if not np.array_equal(round_values(prod, SR, spec, rng), prod):
        failures.append("integer product moved under rounding")
    report("c4", "sum distributivity and product identity", failures)


def _scan_minima(cfg, fgrid, points=10**6):
    """Dense-scan oracle for the scalarized objective, one minimum per node.

    At each point, total = base + theta2 b^2 (+ 1e10 [|b| >= b_max]), where
    base = theta1 v^2, v = p - p^2 and b = (1 - p) - f.
    The points are walked in spans of 2^15, which stay in cache while every
    node is evaluated.
    """
    span = 2**15
    p = np.linspace(0.0, 1.0, points)
    v = p - p * p
    base = cfg.theta1 * v * v
    q = 1.0 - p
    minima = np.full(fgrid.size, np.inf)
    for start in range(0, points, span):
        qs, bases = q[start:start + span], base[start:start + span]
        b, total = np.empty(qs.size), np.empty(qs.size)
        for j, f in enumerate(fgrid):
            np.subtract(qs, f, out=b)
            np.multiply(cfg.theta2, b, out=total)
            total *= b
            total += bases
            if cfg.b_max is not None:
                np.greater_equal(np.abs(b, out=b), cfg.b_max, out=b)
                total += np.multiply(1e10, b, out=b)
            minima[j] = min(minima[j], total.min())
    return minima


def test_c05_optimizer_vs_brute_force(tables_1001):
    failures = []
    for preset, table in tables_1001.items():
        cfg = preset_config(preset)
        got = objective(table.p, table.grid, cfg)
        scan = _scan_minima(cfg, table.grid)
        worst = float(np.max(got - scan))
        if worst > 1e-8:
            failures.append(f"{preset.value}: optimizer above scan minimum by {worst:.2e}")
    bias_min = tables_1001[Preset.BIAS_MIN]
    if np.max(np.abs(bias_min.p - (1.0 - bias_min.grid))) > 1e-3:
        failures.append("bias-min table deviates from proximity rule")
    d1 = tables_1001[Preset.D1]
    j_half = (d1.grid.size - 1) // 2
    if abs(d1.p[j_half] - 0.5) > 1e-3 or abs(d1.p[j_half] - equal_weight_root(0.5)) > 1e-3:
        failures.append(f"equal-weight p at one half = {d1.p[j_half]}")
    d2 = tables_1001[Preset.D2]
    j8 = int(round(0.8 * (d2.grid.size - 1)))
    if abs(d2.p[j8] - 0.15) > 1e-2:
        failures.append(f"capped-bias p at 0.8 = {d2.p[j8]}")
    if abs(abs(bias_of_p(d2.p[j8], 0.8)) - 0.05) > 1e-3:
        failures.append(f"capped-bias |bias| at 0.8 = {abs(bias_of_p(d2.p[j8], 0.8))}")
    report("c5", "optimizer matches 1e6-point scans (5 presets x 1001 nodes)", failures)


def test_c06_bias_cap(tables_1001):
    d2 = tables_1001[Preset.D2]
    worst = float(np.max(np.abs(bias_of_p(d2.p, d2.grid))))
    failures = [] if worst <= 0.05 + 1e-3 else [f"max |bias| {worst}"]
    report("c6", "bias cap holds at every node", failures)


def test_c07_summation_orderings(tables_1001):
    failures = []
    d1 = tables_1001[Preset.D1]
    d2 = tables_1001[Preset.D2]
    for case in (CaseId.I, CaseId.II):
        res = {}
        for label, mode in (("sr", SR), ("d2", d2), ("d1", d1), ("cr", D.HALF_EVEN)):
            rep = run_summation_experiment(case, mode, n_reps=10_000, seed=0)
            res[label] = rep.summary
        v = {k: s.variance for k, s in res.items()}
        if not (v["sr"] > v["d2"] > v["d1"] > v["cr"] == 0.0):
            failures.append(f"case {case.value} variance ordering {v}")
        e = {k: s.mean_abs_rel_err for k, s in res.items()}
        if not e["cr"] > e["sr"]:
            failures.append(f"case {case.value} relative-error ordering {e}")
        # descending chain over the stochastic modes, with ten percent slack
        if not (e["sr"] >= 0.9 * e["d1"] and e["d1"] >= 0.9 * e["d2"]):
            failures.append(f"case {case.value} stochastic error chain {e}")
        if case is CaseId.I and not 1400.0 <= v["sr"] <= 1950.0:
            failures.append(f"case I sr variance {v['sr']}")
    report("c7", "summation orderings and variance scale", failures)


def test_c08_newton_study(tables_1001):
    failures = []
    d1 = tables_1001[Preset.D1]
    milli = RoundingSpec(3, 10)
    for a in SQRT_TEST_VALUES:
        rep = run_sqrt_experiment(a, d1, milli, n_reps=10_000, seed=0)
        err = rep.summary.mean_abs_rel_err
        # the radicand is rounded once per repetition, so err already carries
        # E|sqrt(fl(a)) - sqrt(a)|/sqrt(a) before Newton starts; the 2e-4
        # allowance is for what the iteration adds on top of it
        radicand = rounded_radicand_sqrt_error(a, d1, digits=milli.n)
        if err - radicand >= 2e-4:
            failures.append(
                f"equal-weight error {err:.2e} at a={a}: radicand term {radicand:.2e}, "
                f"excess {err - radicand:.2e} >= 2e-4"
            )
    ints = RoundingSpec(0, 10)
    for label, mode in (("sr", SR), ("cr", D.HALF_EVEN), ("d1", d1), ("d2", tables_1001[Preset.D2])):
        rep = run_sqrt_experiment(0.30146, mode, ints, n_reps=10_000, seed=0)
        if rep.n_breakdowns == 0:
            failures.append(f"no breakdowns for {label} at 0.30146")
    cr = run_sqrt_experiment(51.16904, D.HALF_EVEN, ints, seed=0)
    if (cr.summary.mu, cr.summary.n_it_mean) != (7.0, 6.0):
        failures.append(f"integer-grid run gave ({cr.summary.mu}, {cr.summary.n_it_mean})")
    report("c8", "square-root study", failures)


def test_c09_inner_product_narrative(tables_1001):
    failures = []
    d1 = tables_1001[Preset.D1]
    d2 = tables_1001[Preset.D2]
    modes = (("sr", SR), ("cr", D.HALF_EVEN), ("d1", d1), ("d2", d2))
    res50 = {}
    res1000 = {}
    for label, mode in modes:
        res50[label] = run_inner_product_experiment(50, mode, n_reps=10_000, seed=0).summary
        res1000[label] = run_inner_product_experiment(1000, mode, n_reps=10_000, seed=0).summary
    biases = {k: s.abs_bias for k, s in res1000.items()}
    if min(biases, key=biases.get) != "sr":
        failures.append(f"bias ranking {biases}")
    variances = {k: s.variance for k, s in res1000.items()}
    if max(variances, key=variances.get) != "sr":
        failures.append(f"variance ranking {variances}")
    for size in DOT_SIZES:
        cr = run_inner_product_experiment(size, D.HALF_EVEN, seed=0)
        if cr.summary.variance != 0.0:
            failures.append(f"deterministic variance nonzero at n={size}")
    if not res1000["sr"].mean_abs_rel_err < res1000["cr"].mean_abs_rel_err:
        failures.append("no crossover at n=1000")
    if not res50["cr"].mean_abs_rel_err < res50["sr"].mean_abs_rel_err:
        failures.append("no deterministic advantage at n=50")
    report("c9", "inner-product narrative", failures)


def test_c10_worst_case_grid():
    failures = []
    g = contour_grid(5.0, 200)
    i = np.floor(g.x1)[:, None]
    prod = g.x1[:, None] * g.x2[None, :]
    small = (prod <= i / 2) & (i >= 1)
    min_branch = np.minimum(g.e_down, g.e_up)
    if small.any() and min_branch[small].min() < 1.0 - 1e-12:
        failures.append(f"branch error {min_branch[small].min()} below one")
    if not small.any():
        failures.append("no cells in the small-product region")
    below_one = np.floor(g.x1) == 0
    if not np.all(g.e_down[below_one, :] == 1.0):
        failures.append("down branch not identically one below x1=1")
    report("c10", "worst-case product error grid (200x200)", failures)


def _c11_invocations(tmp_path, monkeypatch):
    """c11's canonical CLI runs at seed 1: (output name, argv without --out).

    Sets the swarm's iterations to 60 for the rest of the test, and writes
    the d1 table that the sum run loads to ``tmp_path / "d1.json"``.
    """
    monkeypatch.setitem(distopt._SWARM, "iterations", 60)
    d1_path = tmp_path / "d1.json"
    cli_main(["optimize", "--preset", "d1", "--grid-size", "41", "--seed", "1", "--out", str(d1_path)])
    return [
        ("optimize.json", ["optimize", "--preset", "d2", "--grid-size", "41", "--seed", "1"]),
        ("sum.csv", ["experiment", "sum", "--case", "I,III", "--modes", "sr,cr,d1",
                     "--table", str(d1_path), "--reps", "100", "--seed", "1"]),
        ("sqrt.csv", ["experiment", "sqrt", "--values", "6.55501", "--modes", "sr,cr",
                      "--reps", "100", "--seed", "1"]),
        ("dot.csv", ["experiment", "dot", "--sizes", "50,200", "--modes", "sr,cr",
                     "--reps", "100", "--seed", "1"]),
        ("varbound.csv", ["experiment", "varbound", "--step", "0.01", "--draws", "500",
                          "--seed", "1"]),
        ("contour.csv", ["experiment", "contour", "--res", "50", "--seed", "1"]),
    ]


def test_c11_cli_reproducibility(tmp_path, capsys, monkeypatch):
    failures = []
    invocations = _c11_invocations(tmp_path, monkeypatch)
    for name, args in invocations:
        first = tmp_path / ("a_" + name)
        second = tmp_path / ("b_" + name)
        if cli_main(args + ["--out", str(first)]) != 0:
            failures.append(f"nonzero exit for {name}")
        if cli_main(args + ["--out", str(second)]) != 0:
            failures.append(f"nonzero exit for {name} rerun")
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name} not byte-identical")
    capsys.readouterr()
    cli_main(["round", "0.4", "--mode", "sr", "--seed", "7", "--count", "5"])
    once = capsys.readouterr().out
    cli_main(["round", "0.4", "--mode", "sr", "--seed", "7", "--count", "5"])
    if once != capsys.readouterr().out:
        failures.append("round output not reproducible")
    report("c11", "CLI runs byte-identical for equal seeds", failures)


# sha256 of every output of c11's runs.  The reproducibility contract makes
# these fixed; a change that alters one changes program output and must say so.
C11_DIGESTS = {
    "d1.json": "b99783e8de169de6a5192425c9b14d4034f03b2ff4bcb5c4a47d0ef0cd41b8e0",
    "optimize.json": "4fb3b93b65e66238f0fe6e340eee1e79bea790ded11aa600df39e93f145be852",
    "sum.csv": "abe1caf390090aedbcbf72d28be428292aef69785893171ea45524c937788ac6",
    "sqrt.csv": "96c180c381bfefb8728f606a9c6b5967846a26d6fa503547106f1733e025be52",
    "dot.csv": "a13b61234257e772f3dfc4ddc4a2bb19dccd153b5d4779261a4d0867ddf7c2b7",
    "varbound.csv": "97e605f85e6132d5aee29e59064eac0ab964c293f53793c535c3964685935eee",
    "contour.csv": "be6e523b8c5035b9ba79f11df67b3626694f853b9e7a0bb0100cea07e803a33a",
}


def test_c11_output_fingerprints(tmp_path, capsys, monkeypatch):
    invocations = _c11_invocations(tmp_path, monkeypatch)
    for name, args in invocations:
        assert cli_main(args + ["--out", str(tmp_path / name)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ["d1.json"] + [name for name, _ in invocations]
    }
    assert got == C11_DIGESTS


def test_reproduce_matches_the_separate_commands(tmp_path, capsys, monkeypatch):
    # reproduce with its table patched to c11's runs: the separate commands' bytes, so c11's digests
    separate, together = tmp_path / "separate", tmp_path / "together"
    separate.mkdir()
    together.mkdir()
    runs = [("d1.json", ["optimize", "--preset", "d1", "--grid-size", "41"])]
    for name, argv in _c11_invocations(separate, monkeypatch):
        assert argv[-2:] == ["--seed", "1"]  # reproduce adds the seed
        runs.append((name, [a.replace(str(separate), "{dir}") for a in argv[:-2]]))
        assert cli_main(argv + ["--out", str(separate / name)]) == 0
    monkeypatch.setattr(srlab.cli, "_PAPER_RUNS", runs)
    assert cli_main(["reproduce", "--out", str(together), "--seed", "1"]) == 0
    assert sorted(p.name for p in together.iterdir()) == sorted(C11_DIGESTS)
    for name, digest in C11_DIGESTS.items():
        assert (together / name).read_bytes() == (separate / name).read_bytes(), name
        assert hashlib.sha256((together / name).read_bytes()).hexdigest() == digest, name


# sha256 of a summation run at the paper's 10 000 repetitions, on case III
# with c11's d1 table; fixed by the reproducibility contract like C11_DIGESTS.
PAPER_SUM_DIGEST = "e904ecf51dc60c3bcbce5c4f8398adfcf30709871182b3162654e103144893ec"


def test_paper_count_sum_fingerprint(tmp_path, capsys, monkeypatch):
    _c11_invocations(tmp_path, monkeypatch)
    out = tmp_path / "sum.csv"
    assert cli_main(["experiment", "sum", "--case", "III", "--modes", "sr,cr,d1",
                     "--table", str(tmp_path / "d1.json"), "--reps", "10000",
                     "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_SUM_DIGEST
