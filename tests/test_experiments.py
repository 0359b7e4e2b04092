import math

import numpy as np
import pytest

from oracles import (
    BreakdownError,
    elementwise_sum_moments,
    newton_sqrt_rounded,
    rounded_inner_product,
    rounded_sum,
    varhat_mean_std,
)
from srlab import experiments
from srlab.cli import _BUILTIN_MODES
from srlab.experiments import (
    SQRT_TEST_VALUES,
    CaseId,
    NewtonConfig,
    _newton_many,
    gen_case_inputs,
    gen_sine_vectors,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from srlab.rounding import SR, DeterministicMode, ProbabilityTable, RoundingSpec, round_values
from srlab.stats import summarize
from srlab.streams import RandomStream, draws_at

D = DeterministicMode
INT = RoundingSpec()
MILLI = RoundingSpec(3, 10)


class TestCaseInputs:
    def test_shapes_and_ranges(self):
        for case, (n, hi) in {
            CaseId.I: (10_000, 1.0),
            CaseId.II: (10_000, 2.0),
            CaseId.III: (10, 1.0),
            CaseId.IV: (20, 2.0),
        }.items():
            x = gen_case_inputs(case, seed=0)
            assert x.size == n
            assert np.all((x >= 0.0) & (x <= hi))

    def test_repeats_where_expected(self):
        x1 = gen_case_inputs(CaseId.I, seed=0)
        assert np.unique(x1).size < 30  # one-decimal quantization
        assert np.sum(x1 == 0.5) > 700
        x3 = gen_case_inputs(CaseId.III, seed=0)
        assert np.unique(x3).size == x3.size
        x4 = gen_case_inputs(CaseId.IV, seed=0)
        assert np.unique(x4).size == x4.size

    def test_fixed_per_seed(self):
        assert np.array_equal(gen_case_inputs(CaseId.II, 5), gen_case_inputs(CaseId.II, 5))
        assert not np.array_equal(gen_case_inputs(CaseId.II, 5), gen_case_inputs(CaseId.II, 6))

    @pytest.mark.parametrize("case, hi", [(CaseId.III, 1.0), (CaseId.IV, 2.0)])
    def test_small_case_redraws_a_repeated_value(self, case, hi, monkeypatch):
        # no tested seed draws a repeat among 10 or 20 values, so the first draw is made to repeat one
        real, draws = RandomStream.uniform, []

        def uniform(stream, size=None):
            u = real(stream, size)
            draws.append(u.copy())
            if len(draws) == 1:
                u[-1] = u[0]
            return u

        monkeypatch.setattr(RandomStream, "uniform", uniform)
        x = gen_case_inputs(case, seed=0)
        assert len(draws) == 2 and np.array_equal(x, draws[1] * hi)
        assert not np.array_equal(draws[0], draws[1])  # the redraw continues the same substream


class TestRoundedSum:
    def test_integer_inputs_exact(self):
        xs = np.arange(10.0)
        rng = RandomStream(0)
        assert rounded_sum(xs, D.HALF_EVEN) == 45.0
        assert rounded_sum(xs, SR, INT, rng) == 45.0

    def test_tie_streak_rounds_to_even_zero(self):
        xs = np.full(40, 0.5)
        assert rounded_sum(xs, D.HALF_EVEN) == 0.0

    def test_single_value_unbiased(self):
        root = RandomStream(1)
        outs = [rounded_sum([0.4], SR, INT, root.substream(r)) for r in range(4000)]
        assert abs(np.mean(outs) - 0.4) < 3 * math.sqrt(0.24 / 4000)


class TestSummationExperiment:
    def test_deterministic_single_evaluation(self):
        rep = run_summation_experiment(CaseId.I, D.HALF_EVEN, n_reps=10_000, seed=0)
        assert rep.summary.variance == 0.0
        assert rep.summary.n_samples == 1
        assert rep.n_reps == 1

    def test_even_interval_bias_cancellation(self):
        rep = run_summation_experiment(CaseId.IV, D.HALF_EVEN, seed=0)
        # 20 elements, each deterministic error at most one half
        assert rep.summary.abs_bias <= 10.0

    def test_stochastic_beats_deterministic_on_repeats(self):
        sr = run_summation_experiment(CaseId.I, SR, n_reps=1000, seed=0)
        cr = run_summation_experiment(CaseId.I, D.HALF_EVEN, seed=0)
        assert sr.summary.variance > 0.0
        assert cr.summary.mean_abs_rel_err > sr.summary.mean_abs_rel_err

    def test_case_one_matches_exact_moments(self, d1_table):
        # Within 4 standard errors of the closed forms; the sum of 10 000
        # two-point terms is close to normal, so a sample variance has a
        # standard error of about var * sqrt(2 / n).
        n = 10_000
        xs = gen_case_inputs(CaseId.I, seed=0)
        for mode, table in ((SR, None), (d1_table, d1_table)):
            mean, var = elementwise_sum_moments(xs, table)
            s = run_summation_experiment(CaseId.I, mode, n_reps=n, seed=0).summary
            assert abs(s.mu - mean) < 4 * math.sqrt(var / n), mode.label
            assert abs(s.variance - var) < 4 * var * math.sqrt(2 / n), mode.label

    def test_reproducible_reports(self):
        a = run_summation_experiment(CaseId.III, SR, n_reps=500, seed=3)
        b = run_summation_experiment(CaseId.III, SR, n_reps=500, seed=3)
        assert a == b


def _past_one_block(width, extra):
    """Repetitions of ``width`` draws that fill one block and leave ``extra``
    rows for a second, partial one."""
    return max(1, experiments._BLOCK_DRAWS // width) + extra


def _newton_rows(a, mode, cfg, seed, n_reps):
    """``_newton_many`` on repetitions 0 .. n_reps - 1 as one
    (breakdown, value, n_it, converged) row each, None for a breakdown."""
    value, n_it, conv, breakdown = _newton_many(a, mode, cfg, experiments._rep_phases(seed, n_reps))
    assert np.isnan(value[breakdown]).all()
    return [(True, None, None, None) if b else (False, v, k, c)
            for b, v, k, c in zip(breakdown.tolist(), value.tolist(), n_it.tolist(), conv.tolist())]


class TestRepetitionEngine:
    """The blocked studies against the scalar routines on substream 16 + r.

    The repetition counts from ``_past_one_block`` cross a block boundary
    and end in a partial block.
    """

    @pytest.mark.parametrize("case, n_reps", [(CaseId.III, 2000), (CaseId.I, 3), (CaseId.III, _past_one_block(10, 447)),
                                              (CaseId.I, _past_one_block(10_000, 1))])
    def test_summation_matches_scalar(self, case, n_reps, d1_table):
        xs = gen_case_inputs(case, seed=4)
        root = RandomStream(4)
        for mode in (SR, d1_table):
            rep = run_summation_experiment(case, mode, n_reps=n_reps, seed=4)
            ref = [rounded_sum(xs, mode, INT, root.substream(16 + r)) for r in range(n_reps)]
            assert rep.summary == summarize(ref, float(np.sum(xs)))

    @pytest.mark.parametrize("size, n_reps", [(50, 400), (200, 100), (50, _past_one_block(100, 45)),
                                              (200, _past_one_block(400, 7))])
    def test_inner_product_matches_scalar(self, size, n_reps):
        x, y = gen_sine_vectors(size)
        root = RandomStream(6)
        rep = run_inner_product_experiment(size, SR, n_reps=n_reps, seed=6)
        ref = [rounded_inner_product(x, y, SR, INT, root.substream(16 + r)) for r in range(n_reps)]
        assert rep.summary == summarize(ref, float(np.dot(x, y)))

    @pytest.mark.parametrize("block_rows", [1, 4, 5])
    def test_repeat_hits_are_draws_at_thresholds(self, block_rows, monkeypatch):
        # blocks of one row, of four rows, and of five with a partial last block of two
        n_reps, n_draws = 12, 5
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_rows * n_draws)
        u = draws_at(experiments._rep_phases(7, n_reps)[:, None], np.arange(n_draws))
        t_col = np.random.default_rng(1).random(n_draws)
        t_col[1] = 2.0  # the grid-point sentinel: never hit
        t_row = np.random.default_rng(2).random((n_reps, 1))
        for t in (t_col, t_row):
            hits, sizes = np.zeros(u.shape, dtype=bool), []

            def record(rows, hit, scratch):
                assert scratch.dtype == np.float64 and scratch.shape == hit.shape
                hits[rows] = hit
                sizes.append(hit.shape[0])
                return hit.sum(axis=1)

            out = experiments._repeat(7, n_reps, n_draws, t, record)
            expected = u >= np.broadcast_to(t, u.shape)
            assert np.array_equal(hits, expected)
            assert out.tolist() == expected.sum(axis=1).tolist()
            assert sizes == [min(block_rows, n_reps - start) for start in range(0, n_reps, block_rows)]
            assert hits.any() and not hits.all()
        assert not (u >= t_col)[:, 1].any()

    def test_variance_bound_matches_scalar(self):
        grid = validate_variance_bound(step=0.01, draws=500, seed=2)
        spec = RoundingSpec(4, 2)
        root = RandomStream(2)
        for j, x in enumerate(grid.x):
            outs = round_values(np.full(500, x), SR, spec, root.substream(16 + j))
            assert grid.v_empirical[j] == np.var(outs)

    @pytest.mark.parametrize("n_bits", [0, 60])
    def test_variance_bound_matches_scalar_at_extreme_bits(self, n_bits):
        # the grid is scaled to put 100 steps of 0.03 grid cells under x_max,
        # so the draws at both ends of the bit range round off the grid
        delta = 2.0 ** -n_bits
        grid = validate_variance_bound(n_bits=n_bits, x_max=3.0 * delta, step=0.03 * delta, draws=500, seed=2)
        assert grid.x.size == 101 and np.any(grid.v_empirical > 0.0)
        spec = RoundingSpec(n_bits, 2)
        root = RandomStream(2)
        for j, x in enumerate(grid.x):
            outs = round_values(np.full(500, x), SR, spec, root.substream(16 + j))
            assert grid.v_empirical[j] == np.var(outs)

    def test_variance_bound_partial_block_matches_scalar(self):
        # these draws put 32 grid points in a block: 33 points fill one block
        # and leave a last block of one row
        draws = experiments._BLOCK_DRAWS // 32
        assert experiments._BLOCK_DRAWS // draws == 32
        grid = validate_variance_bound(n_bits=3, x_max=0.32, step=0.01, draws=draws, seed=5)
        assert grid.x.size == 33
        spec = RoundingSpec(3, 2)
        root = RandomStream(5)
        ref = [np.var(round_values(np.full(draws, x), SR, spec, root.substream(16 + j)))
               for j, x in enumerate(grid.x)]
        assert grid.v_empirical.tolist() == ref

    def test_deterministic_reports_do_not_depend_on_the_draws(self, monkeypatch):
        # a rule's thresholds are 0 or 1, so its one repetition gives the same
        # report with the draws of seed 1 in place of those of seed 0
        def reports(mode):
            return [
                *(run_summation_experiment(case, mode, n_reps=50) for case in (CaseId.I, CaseId.IV)),
                *(run_inner_product_experiment(size, mode, n_reps=50) for size in (50, 200)),
                *(run_sqrt_experiment(a, mode, NewtonConfig(spec=spec), n_reps=50)
                  for spec in (MILLI, RoundingSpec(0, 10)) for a in SQRT_TEST_VALUES),
            ]

        modes = [*D, SR]
        seed0 = [reports(mode) for mode in modes]
        rep_phases = experiments._rep_phases
        monkeypatch.setattr(experiments, "_rep_phases", lambda seed, n_reps: rep_phases(seed + 1, n_reps))
        seed1 = [reports(mode) for mode in modes]
        assert seed0[:-1] == seed1[:-1]
        assert all(rep.n_reps == 1 for rows in seed0[:-1] for rep in rows)
        assert all(a != b for a, b in zip(seed0[-1], seed1[-1]))  # SR's draws do matter

    def test_results_do_not_depend_on_block_size(self, monkeypatch, d1_table):
        def run():
            sums = [run_summation_experiment(case, mode, n_reps=n_reps, seed=3)
                    for case, n_reps in ((CaseId.I, 13), (CaseId.III, 700)) for mode in (SR, d1_table)]
            dot = run_inner_product_experiment(50, SR, n_reps=700, seed=3)
            return sums, dot, validate_variance_bound(step=0.01, draws=700, seed=3).v_empirical.tobytes()

        results = []
        for block_draws in (1 << 10, 1 << 14, 1 << 16, 1 << 20):
            monkeypatch.setattr(experiments, "_BLOCK_DRAWS", block_draws)
            results.append(run())
        assert all(result == results[0] for result in results[1:])

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            run_summation_experiment(CaseId.III, SR, n_reps=0)
        with pytest.raises(ValueError):
            run_inner_product_experiment(50, SR, n_reps=0)
        with pytest.raises(ValueError):
            run_sqrt_experiment(2.0, SR, n_reps=0)
        with pytest.raises(ValueError):
            run_sqrt_experiment(-1.0, SR)
        with pytest.raises(ValueError):
            run_summation_experiment(CaseId.III, D.HALF_EVEN, n_reps=0)
        with pytest.raises(ValueError):
            run_sqrt_experiment(2.0, D.HALF_EVEN, n_reps=0)
        with pytest.raises(ValueError):
            validate_variance_bound(step=0.0)
        with pytest.raises(ValueError):
            validate_variance_bound(x_max=-1.0)
        with pytest.raises(ValueError):
            validate_variance_bound(draws=0)
        for n_max in (0, 2.5, True, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                NewtonConfig(n_max=n_max)
        assert NewtonConfig(n_max=np.int64(3)).n_max == 3


class TestNewton:
    def test_plain_double_precision(self):
        cfg = NewtonConfig()
        value, n_it, conv = newton_sqrt_rounded(4.0, None, cfg)
        assert conv and abs(value - 2.0) <= cfg.tol
        assert n_it <= 12

    def test_plain_converges_for_all_magnitudes(self):
        cfg = NewtonConfig()
        for a in SQRT_TEST_VALUES:
            value, n_it, conv = newton_sqrt_rounded(a, None, cfg)
            assert conv and n_it <= 12
            assert abs(value - math.sqrt(a)) <= cfg.tol * max(1.0, math.sqrt(a))

    def test_integer_grid_reference_run(self):
        cfg = NewtonConfig(spec=RoundingSpec(0, 10))
        assert newton_sqrt_rounded(51.16904, D.HALF_EVEN, cfg) == (7.0, 6, True)

    def test_integer_grid_two_cycle_detected(self):
        cfg = NewtonConfig(spec=RoundingSpec(0, 10))
        value, n_it, conv = newton_sqrt_rounded(6.55501, D.HALF_EVEN, cfg)
        assert (value, n_it, conv) == (3.0, 100, False)

    def test_small_radicand_breaks_down(self):
        cfg = NewtonConfig(spec=RoundingSpec(0, 10))
        with pytest.raises(BreakdownError):
            newton_sqrt_rounded(0.30146, D.HALF_EVEN, cfg)

    def test_milli_grid_reference_runs(self):
        cfg = NewtonConfig()
        assert newton_sqrt_rounded(0.30146, D.HALF_EVEN, cfg) == (0.548, 4, True)
        assert newton_sqrt_rounded(357.00272, D.HALF_EVEN, cfg) == (18.894, 8, True)

    def test_invalid_radicand(self):
        with pytest.raises(ValueError):
            newton_sqrt_rounded(-1.0, None, NewtonConfig())

    def test_vectorized_path_matches_scalar(self):
        cfg = NewtonConfig()
        root = RandomStream(7)
        phases = np.asarray([root.substream(16 + r).phase for r in range(50)], dtype=np.uint64)
        value, n_it, conv, breakdown = _newton_many(6.55501, SR, cfg, phases)
        for r in range(50):
            got = newton_sqrt_rounded(6.55501, SR, cfg, root.substream(16 + r))
            assert got == (value[r], n_it[r], conv[r])
        assert not breakdown.any()

    @pytest.mark.parametrize("spec", [RoundingSpec(0, 10), MILLI, RoundingSpec(2, 2)])
    def test_vectorized_deterministic_matches_scalar(self, spec):
        cfg = NewtonConfig(spec=spec)
        for mode in D:
            for a in (*SQRT_TEST_VALUES, 0.7, 1.4):
                value, n_it, conv, breakdown = _newton_many(a, mode, cfg, experiments._rep_phases(0, 1))
                try:
                    expected = (False, *newton_sqrt_rounded(a, mode, cfg))
                except BreakdownError:
                    assert breakdown.tolist() == [True] and np.isnan(value[0])
                    continue
                assert (breakdown[0], value[0], n_it[0], conv[0]) == expected

    @pytest.mark.parametrize("spec, n_max, x0", [(MILLI, 100, 1.0), (RoundingSpec(0, 10), 100, 1.0), (MILLI, 3, 1.0),
                                                 (RoundingSpec(0, 10), 13, 1.0), (MILLI, 13, 0.0)])
    @pytest.mark.parametrize("mode_name", ["sr", "d1", "d2"])
    def test_engine_matches_scalar_per_repetition(self, mode_name, spec, n_max, x0, d1_table, d2_table):
        # n_max 3 stops inside the first draw block and 13 inside the second
        # (neither is a multiple of its size); the integer grid breaks down
        # at 0.30146 and cycles at 6.55501, and x0 = 0 breaks down everywhere
        mode = {"sr": SR, "d1": d1_table, "d2": d2_table}[mode_name]
        cfg = NewtonConfig(x0=x0, n_max=n_max, spec=spec)
        root = RandomStream(11)
        for a in (0.30146, 6.55501, 8133.27762):
            got = _newton_rows(a, mode, cfg, seed=11, n_reps=40)
            ref = []
            for r in range(40):
                try:
                    ref.append((False, *newton_sqrt_rounded(a, mode, cfg, root.substream(16 + r))))
                except BreakdownError:
                    ref.append((True, None, None, None))
            assert got == ref, (a, mode_name)
        if x0 == 0.0:
            assert all(row[0] for row in got)

    def test_engine_reports_breakdowns_and_nonconvergence(self):
        # the cases above meet both: SR on the integer grid breaks down at
        # 0.30146 in some repetitions, and from x0 = 1 the milli grid needs
        # 11 to 18 steps at 8133.27762, so n_max 13 leaves some repetitions
        # unconverged in the second draw block and converges others there
        rows = _newton_rows(0.30146, SR, NewtonConfig(spec=RoundingSpec(0, 10)), seed=2, n_reps=200)
        assert 0 < sum(row[0] for row in rows) < 200
        rows = _newton_rows(8133.27762, SR, NewtonConfig(n_max=13), seed=2, n_reps=200)
        unconverged = [n_it for _, _, n_it, conv in rows if not conv]
        assert unconverged and set(unconverged) == {13}
        assert any(conv and n_it > experiments._NEWTON_STEPS for _, _, n_it, conv in rows)

    def test_newton_results_do_not_depend_on_step_block(self, monkeypatch, d1_table):
        def run():
            out = []
            for spec, n_max in ((MILLI, 100), (RoundingSpec(0, 10), 100), (RoundingSpec(0, 10), 13), (MILLI, 3)):
                cfg = NewtonConfig(n_max=n_max, spec=spec)
                for a in SQRT_TEST_VALUES:
                    for mode in (SR, d1_table):
                        phases = experiments._rep_phases(5, 300)
                        out.append(b"".join(v.tobytes() for v in _newton_many(a, mode, cfg, phases)))
            return out

        default = experiments._NEWTON_STEPS
        results = []
        for steps in (1, 2, 3, default, 101):
            monkeypatch.setattr(experiments, "_NEWTON_STEPS", steps)
            results.append(run())
        assert all(result == results[0] for result in results[1:])

    def test_config_rejects_non_finite_settings(self):
        for kwargs in ({"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1e-5}, {"x0": math.nan}, {"x0": math.inf},
                       {"n_max": 0}):
            with pytest.raises(ValueError):
                NewtonConfig(**kwargs)


class TestSqrtExperiment:
    def test_deterministic_iteration_count_is_integer(self):
        rep = run_sqrt_experiment(357.00272, D.HALF_EVEN)
        assert rep.summary.n_it_mean == float(int(rep.summary.n_it_mean))
        assert rep.summary.variance == 0.0

    def test_integer_grid_small_radicand(self):
        cfg = NewtonConfig(spec=RoundingSpec(0, 10))
        cr = run_sqrt_experiment(0.30146, D.HALF_EVEN, cfg)
        assert cr.not_solvable and cr.summary is None and cr.n_breakdowns == 1
        sr = run_sqrt_experiment(0.30146, SR, cfg, n_reps=2000, seed=0)
        assert sr.n_breakdowns > 0
        assert not sr.not_solvable

    def test_nonconvergence_reported_with_value(self):
        cfg = NewtonConfig(spec=RoundingSpec(0, 10))
        rep = run_sqrt_experiment(6.55501, D.HALF_EVEN, cfg)
        assert rep.summary.mu == 3.0
        assert rep.summary.n_it_mean is None
        assert rep.n_nonconverged == 1

    def test_reproducible(self):
        a = run_sqrt_experiment(51.16904, SR, n_reps=300, seed=5)
        b = run_sqrt_experiment(51.16904, SR, n_reps=300, seed=5)
        assert a == b


class TestSineVectors:
    def test_endpoints_and_zeros(self):
        x, y = gen_sine_vectors(3)
        assert np.allclose(y, [0.0, np.pi, 2 * np.pi])
        assert np.max(np.abs(x)) < 1e-15

    def test_range(self):
        x, y = gen_sine_vectors(1000)
        assert np.all(np.abs(x) <= 1.0)
        assert y[0] == 0.0 and np.isclose(y[-1], 2 * np.pi)

    def test_exact_inner_product_magnitude(self):
        x, y = gen_sine_vectors(1000)
        direct = sum(float(xi) * float(yi) for xi, yi in zip(x, y))
        assert abs(np.dot(x, y) - direct) < 1e-9
        assert abs(direct - (-999.0)) < 2.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            gen_sine_vectors(1)


class TestInnerProduct:
    def test_integer_vectors_exact(self):
        x = np.arange(5.0)
        y = np.arange(5.0) - 2.0
        assert rounded_inner_product(x, y, SR, INT, RandomStream(0)) == float(np.dot(x, y))

    def test_single_term_unbiased(self):
        root = RandomStream(2)
        outs = [
            rounded_inner_product([0.4], [1.0], SR, INT, root.substream(r)) for r in range(4000)
        ]
        assert abs(np.mean(outs) - 0.4) < 3 * math.sqrt(0.24 / 4000)

    def test_zero_vector(self):
        z = np.zeros(8)
        y = np.linspace(0, 2, 8)
        assert rounded_inner_product(z, y, D.FLOOR, INT) == 0.0
        assert rounded_inner_product(z, y, SR, INT, RandomStream(3)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rounded_inner_product([1.0], [1.0, 2.0], SR, INT, RandomStream(0))

    def test_draw_budget_integer_vs_fine_grid(self):
        x = np.linspace(0.1, 0.9, 11)
        y = np.linspace(1.1, 1.9, 11)
        rng = RandomStream(4)
        rounded_inner_product(x, y, SR, INT, rng)
        assert rng.counter == 22  # two draws per term on the integer grid
        rng = RandomStream(4)
        rounded_inner_product(x, y, SR, MILLI, rng)
        assert rng.counter == 33  # plus one draw per term product

    def test_experiment_deterministic_mode(self):
        rep = run_inner_product_experiment(50, D.HALF_EVEN)
        assert rep.summary.variance == 0.0
        assert rep.n_reps == 1

    def test_experiment_keeps_exact_zero_terms_at_zero(self):
        # p = 0.5 at f = 0 as well, so only the grid-point rule keeps
        # x[0] = y[0] = 0 at zero.  The reference rounds by hand from the
        # draws of substream 16 + r: x takes 0 .. size-1, y size .. 2*size-1.
        half = ProbabilityTable(grid=[0.0, 1.0], p=[0.5, 0.5], label="half")
        size, n_reps = 50, 200
        x, y = gen_sine_vectors(size)
        v = np.concatenate([x, y])
        lower = np.floor(v)
        off_grid = v != lower
        assert not off_grid[0] and not off_grid[size]
        root = RandomStream(5)
        kept, moved = [], []
        for r in range(n_reps):
            up = root.substream(16 + r).uniform(2 * size) >= 0.5
            for out, rounded in ((kept, lower + (up & off_grid)), (moved, lower + up)):
                out.append(float(np.sum(rounded[:size] * rounded[size:])))
        exact = float(np.dot(x, y))
        rep = run_inner_product_experiment(size, half, n_reps=n_reps, seed=5)
        assert rep.summary == summarize(kept, exact)
        assert summarize(moved, exact) != summarize(kept, exact)

    def test_experiment_reproducible(self):
        a = run_inner_product_experiment(50, SR, n_reps=200, seed=8)
        b = run_inner_product_experiment(50, SR, n_reps=200, seed=8)
        assert a == b


class TestVarianceBoundGrid:
    def test_fig_style_grid(self):
        grid = validate_variance_bound(step=1e-3, draws=10_000, seed=0)
        assert grid.x.size == 2001
        assert grid.bound == 2.0**-10
        # exact zeros wherever x is a grid multiple
        on_grid = grid.v_theoretical == 0.0
        assert on_grid.sum() == 17
        assert np.all(grid.v_empirical[on_grid] == 0.0)
        # two-point samples can never exceed the bound
        assert np.all(grid.v_empirical <= grid.bound)
        # empirical matches theoretical within five standard errors
        spec = RoundingSpec(4, 2)
        from srlab.rounding import grid_fraction

        pi = np.asarray(grid_fraction(grid.x, spec))
        for j in range(grid.x.size):
            mean, std = varhat_mean_std(10_000, pi[j], spec.delta)
            assert abs(grid.v_empirical[j] - mean) <= 5 * std + 1e-15

    def test_theoretical_matches_two_branch_formula(self):
        grid = validate_variance_bound(step=1e-3, draws=100, seed=0)
        spec = RoundingSpec(4, 2)
        lo = np.asarray(round_values(grid.x, D.FLOOR, spec))
        p_up = (grid.x - lo) / spec.delta
        two_branch = (lo - grid.x) ** 2 * (1 - p_up) + (lo + spec.delta - grid.x) ** 2 * p_up
        assert np.allclose(grid.v_theoretical, two_branch, rtol=1e-12, atol=1e-20)


def test_mode_labels(d1_table):
    assert D.HALF_EVEN.label == "half-even"
    assert SR.label == "sr"
    assert d1_table.label == "d1"
    for mode in D:  # a label is the --modes token that names the mode
        assert _BUILTIN_MODES[mode.label] is mode
