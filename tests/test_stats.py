import math
import warnings

import numpy as np
import pytest

from srlab.rounding import RoundingSpec
from srlab.stats import (
    contour_grid,
    sr_variance_theoretical,
    summarize,
    variance_bound,
    worst_case_rel_error,
)
from srlab.streams import RandomStream


def _population_variance(samples):
    return summarize(samples, 0.0).variance


class TestPopulationVariance:
    def test_constant(self):
        assert _population_variance([3, 3, 3]) == 0.0

    def test_two_points(self):
        assert _population_variance([0, 1]) == 0.25

    def test_four_points(self):
        assert _population_variance([0, 0, 1, 1]) == 0.25

    def test_empty(self):
        with pytest.raises(ValueError):
            _population_variance([])


class TestTheoreticalVariance:
    def test_zero_on_grid(self):
        spec = RoundingSpec(4, 2)
        assert sr_variance_theoretical(0.125, spec) == 0.0
        assert sr_variance_theoretical(7.0, spec) == 0.0

    def test_integer_tie_point(self):
        assert sr_variance_theoretical(0.5, RoundingSpec()) == 0.25

    def test_four_bit_tie_point(self):
        # 2^-5 sits halfway between four-bit grid points
        assert sr_variance_theoretical(2.0**-5, RoundingSpec(4, 2)) == 2.0**-10

    def test_bounded_with_equality_only_at_half(self):
        spec = RoundingSpec(3, 2)
        x = RandomStream(1).uniform(5000) * 4.0 - 2.0
        v = sr_variance_theoretical(x, spec)
        assert np.all(v <= variance_bound(spec))
        tie = 0.5 * spec.delta
        assert sr_variance_theoretical(tie, spec) == variance_bound(spec)


class TestVarianceBound:
    def test_integers(self):
        assert variance_bound(RoundingSpec()) == 0.25

    def test_four_bits(self):
        assert variance_bound(RoundingSpec(4, 2)) == 2.0**-10

    def test_three_decimals(self):
        assert variance_bound(RoundingSpec(3, 10)) == 2.5e-7


class TestSummarize:
    def test_exact_outcomes(self):
        s = summarize([5.0, 5.0, 5.0], 5.0)
        assert (s.abs_bias, s.variance, s.mean_abs_rel_err) == (0.0, 0.0, 0.0)
        assert s.n_samples == 3

    def test_spread(self):
        s = summarize([4.0, 6.0], 5.0)
        assert (s.mu, s.abs_bias, s.variance, s.mean_abs_rel_err) == (5.0, 0.0, 1.0, 0.2)

    def test_offset(self):
        s = summarize([5.0, 5.0], 4.0)
        assert (s.abs_bias, s.variance, s.mean_abs_rel_err) == (1.0, 0.0, 0.25)

    def test_zero_exact_flags_relative_error(self):
        s = summarize([0.5, -0.5], 0.0)
        assert s.mean_abs_rel_err is None
        assert s.variance == 0.25

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize([], 1.0)

    def test_negative_exact(self):
        s = summarize([-4.0, -6.0], -4.0)
        assert (s.mu, s.abs_bias, s.variance, s.mean_abs_rel_err) == (-5.0, 1.0, 1.0, 0.25)

    @pytest.mark.parametrize("outcomes, exact, message", [
        ([math.inf, 1.0], 1.0, "^outcomes must be finite$"),
        ([math.nan, 1.0], 1.0, "^outcomes must be finite$"),
        ([1.0, 2.0], math.nan, "^exact must be a finite real number, got nan$"),
        ([1e308, 1e308], 1.0, "^the statistics of the outcomes overflow a double$"),
        ([1.7e308, -1.7e308], 0.0, "^the statistics of the outcomes overflow a double$"),
        ([1.0, 2.0], 1e-320, "^the statistics of the outcomes overflow a double$"),
    ], ids=["inf", "nan", "nan-exact", "mean-overflows", "variance-overflows", "error-overflows"])
    def test_non_finite_refused_without_warnings(self, outcomes, exact, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                summarize(outcomes, exact)


class TestWorstCase:
    def test_below_one(self):
        b = worst_case_rel_error(0.5, 0.5)
        assert b.e_down == 1.0
        assert b.e_up == 3.0
        assert b.p == 0.5

    def test_product_exactly_half(self):
        b = worst_case_rel_error(0.8, 0.625)
        assert b.e_up == 1.0

    def test_interval_above_one(self):
        b = worst_case_rel_error(1.5, 0.4)
        assert np.isclose(b.e_down, abs(1 - 1 / 0.6))
        assert np.isclose(b.e_up, abs(1 - 2 / 0.6))
        assert b.p == 0.5

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            worst_case_rel_error(2.0, 0.5)
        with pytest.raises(ValueError):
            worst_case_rel_error(0.5, 1.0)
        with pytest.raises(ValueError):
            worst_case_rel_error(-0.5, 0.5)
        with pytest.raises(ValueError, match="finite"):
            worst_case_rel_error(np.nan, 0.5)
        # x1 and x2 are real numbers, and both branches of their product must be finite
        with pytest.raises(ValueError, match=r"^x1 must be a finite positive real number, got '1.5'$"):
            worst_case_rel_error("1.5", 0.5)
        for x1, x2 in ((10**400, 0.5), (0.5, 10**400)):  # an int with no double, not float()'s OverflowError
            with pytest.raises(ValueError, match=r"^x[12] must be a finite positive real number, got 1000"):
                worst_case_rel_error(x1, x2)
        with pytest.raises(ValueError, match=r"^x1 \* x2 is too small: its error branches overflow a double$"):
            worst_case_rel_error(1e-310, 0.5)

    def test_down_branch_is_one_below_one(self):
        rng = RandomStream(2)
        for _ in range(200):
            x1 = rng.uniform() * 0.98 + 0.01
            x2 = rng.uniform() * 0.98 + 0.01
            assert worst_case_rel_error(x1, x2).e_down == 1.0

    def test_small_products_error_at_least_one(self):
        rng = RandomStream(3)
        checked = 0
        while checked < 500:
            x1 = rng.uniform() * 4.0 + 1.0
            x2 = rng.uniform()
            i = np.floor(x1)
            if x1 == i or not 0 < x2 < 1 or x1 * x2 > i / 2:
                continue
            b = worst_case_rel_error(x1, x2)
            assert min(b.e_down, b.e_up) >= 1.0 - 1e-12
            checked += 1


class TestContourGrid:
    def test_shapes_and_cells(self):
        g = contour_grid(5.0, 200)
        assert g.e_down.shape == (200, 200)
        assert np.all(g.x1 != np.floor(g.x1))
        assert np.all((g.x2 > 0) & (g.x2 < 1))

    def test_down_branch_constant_below_one(self):
        g = contour_grid(1.0, 50)
        assert np.all(g.e_down == 1.0)

    def test_error_grows_as_x2_shrinks(self):
        g = contour_grid(5.0, 100)
        assert g.e_up[:, 0].min() > g.e_up[:, -1].max()
        assert g.e_up.max() > 100.0

    def test_half_product_locus(self):
        g = contour_grid(5.0, 400)
        prod = g.x1[:, None] * g.x2[None, :]
        i = np.floor(g.x1)[:, None]
        near = np.abs(prod - i / 2) < 1e-3
        near &= i >= 1
        assert near.any()
        assert np.allclose(g.e_down[near], 1.0, atol=0.02)

    def test_invalid_ranges(self):
        # x1 spans (0, x1_max), which must be a finite positive real, and x2 spans (0, 1)
        for bad in (np.inf, np.nan, 0.0, True):
            with pytest.raises(ValueError, match="x1_max must be a finite positive real"):
                contour_grid(bad, 10)
