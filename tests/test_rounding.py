import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import deterministic_round_reference, sr_thresholds
from srlab.rounding import (
    SR,
    DeterministicMode,
    ProbabilityTable,
    RoundingSpec,
    grid_fraction,
    round_values,
    rounding_thresholds,
)
from srlab.streams import RandomStream, _draw_thresholds

D = DeterministicMode
INT = RoundingSpec()
MILLI = RoundingSpec(3, 10)
EDGE_SPECS = (INT, MILLI, RoundingSpec(4, 2), RoundingSpec(52, 2))


def _edge_values():
    """2**19 values in [-8, 8), grid points, values just below them, and
    tiny negatives whose fraction rounds to 1.0."""
    x = (RandomStream(2024).uniform(1 << 19) - 0.5) * 16.0
    edges = [0.0, -0.0, 3.0, -3.0, np.nextafter(1.0, 0.0), np.nextafter(-2.0, -3.0), -1e-300, -5e-324]
    return np.concatenate([x, edges])


class TestRoundingSpec:
    def test_theta_and_delta(self):
        s = RoundingSpec(4, 2)
        assert s.theta == 16.0
        assert s.delta * s.theta == 1.0
        assert RoundingSpec(3, 10).theta == 1000.0
        assert RoundingSpec(3, 10).delta * 1000.0 == 1.0  # within one ulp after rounding

    def test_integer_grid(self):
        assert RoundingSpec(0, 2).delta == 1.0
        assert RoundingSpec(0, 10).delta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundingSpec(-1)
        with pytest.raises(ValueError):
            RoundingSpec(2, 3)

    @pytest.mark.parametrize("base, largest", [(2, 1023), (10, 308)])
    def test_largest_grid_scale(self, base, largest):
        assert RoundingSpec(largest, base).theta == float(base**largest)
        for n in (largest + 1, 10**18):  # refused without building base**n
            with pytest.raises(ValueError, match=f"grid scale {base}\\*\\*{n} overflows a double"):
                RoundingSpec(n, base)

    def test_scaled_overflow_rejected_without_warnings(self):
        # 2**1023 itself is finite; 1e300 * 2**1023 is not
        spec = RoundingSpec(1023, 2)
        calls = [
            lambda: round_values(1e300, D.FLOOR, spec),
            lambda: grid_fraction(-1e300, spec),
            lambda: round_values(1e300, D.HALF_EVEN, spec),
            lambda: round_values(1e300, SR, spec, RandomStream(0)),
            lambda: rounding_thresholds(np.array([1.0, -1e300]), SR, spec),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="overflow"):
                    call()
        assert round_values(1.5, D.FLOOR, spec) == 1.5


# Deterministic rule tables: value -> expected result per mode at delta = 1.
_DETERMINISTIC_CELLS = [
    (D.FLOOR, [1.0, 0.0, -1.0, -2.0]),
    (D.CEILING, [2.0, 1.0, 0.0, -1.0]),
    (D.HALF_UP, [2.0, 1.0, 0.0, -2.0]),
    (D.HALF_DOWN, [2.0, 0.0, -1.0, -2.0]),
    (D.HALF_EVEN, [2.0, 0.0, 0.0, -2.0]),
    (D.HALF_ODD, [2.0, 1.0, -1.0, -2.0]),
]


class TestDeterministic:
    @pytest.mark.parametrize("mode,expected", _DETERMINISTIC_CELLS)
    def test_reference_cells(self, mode, expected):
        values = [1.6, 0.5, -0.5, -1.6]
        got = [round_values(v, mode, INT) for v in values]
        assert got == expected

    def test_half_odd_tie(self):
        assert round_values(0.5, D.HALF_ODD, INT) == 1.0

    def test_parity_on_scaled_grid(self):
        # 0.75 at one fractional bit scales to 1.5; the even neighbour is 2.
        half = RoundingSpec(1, 2)
        assert round_values(0.75, D.HALF_EVEN, half) == 1.0
        assert round_values(0.25, D.HALF_EVEN, half) == 0.0

    def test_array_input(self):
        got = round_values(np.array([1.6, 0.5, -0.5, -1.6]), D.HALF_EVEN, INT)
        assert np.array_equal(got, [2.0, 0.0, 0.0, -2.0])

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                round_values(bad, D.FLOOR, INT)

    def test_rules_match_exact_reference_bit_for_bit(self):
        for spec in EDGE_SPECS:
            # the edge values never tie, so add ties and their neighbours;
            # -1/2 + 2**-54 at INT is a near-tie whose fraction rounds to 1/2
            ties = (np.arange(-64, 64) + 0.5) * spec.delta
            x = np.concatenate([_edge_values(), ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)])
            for mode, expected in deterministic_round_reference(x, spec).items():
                got = round_values(x, mode, spec)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (spec, mode)

    def test_zero_results_are_positive(self):
        # -0.0 itself, and values in (-delta, 0) that ceil and the half rules round up
        assert math.copysign(1.0, round_values(-0.0, D.FLOOR, INT)) == 1.0
        assert math.copysign(1.0, round_values(-0.3, D.CEILING, INT)) == 1.0
        x = np.array([-0.0, 0.0, -0.3, -0.5, -0.7, -1e-300, -5e-324])
        for spec in (INT, MILLI, RoundingSpec(4, 2)):
            for mode in D:
                got = round_values(x * spec.delta, mode, spec)
                scalars = np.array([round_values(v, mode, spec) for v in x * spec.delta])
                for out in (got, scalars):
                    assert (out == 0.0).any() and not np.signbit(out[out == 0.0]).any(), (spec, mode)

    def test_thresholds_are_zero_one_or_two(self):
        x = _edge_values()[::64]
        for spec in EDGE_SPECS:
            for mode in D:
                assert np.isin(rounding_thresholds(x, mode, spec)[1], [0.0, 1.0, 2.0]).all(), (spec, mode)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53])
    def test_draws_cannot_change_a_rule(self, u):
        # the studies' compare: the 53-bit draw b = u * 2**53 against the integer thresholds
        x = _edge_values()[::16]
        b = np.full(x.shape, u * 2.0**53).astype(np.uint64)
        for spec in EDGE_SPECS:
            for mode in D:
                lower, t = rounding_thresholds(x, mode, spec)
                got = (lower + (b >= _draw_thresholds(t))) / spec.theta
                assert np.array_equal(got.view(np.int64), round_values(x, mode, spec).view(np.int64)), (spec, mode)

    def test_wrong_mode_type(self):
        with pytest.raises(TypeError):
            round_values(1.0, "floor", INT, RandomStream(0))
        with pytest.raises(ValueError, match="RandomStream"):
            round_values(1.0, SR, INT)


def _floor(x, spec):
    return round_values(x, D.FLOOR, spec)


class TestFloorToGrid:
    def test_positive_fraction(self):
        assert _floor(0.4, INT) == 0.0

    def test_negative_value(self):
        assert _floor(-1.6, INT) == -2.0

    def test_milli_grid(self):
        # scaled value 301.46 floors to 301
        assert _floor(0.30146, MILLI) == 0.301

    def test_snap_guard(self):
        # 0.301 scales to 300.99999999999994 without the one-ulp snap
        assert _floor(0.301, MILLI) == 0.301
        assert grid_fraction(0.301, MILLI) == 0.0

    def test_negative_fraction_convention(self):
        assert grid_fraction(-0.25, INT) == 0.75
        assert _floor(-0.25, INT) == -1.0


def _sr_down_up(x, spec):
    """(p_down, p_up) of SR: a draw u in [0, 1) rounds down when u < t, which
    has probability min(t, 1); the grid-point threshold is 2.0."""
    return np.minimum(rounding_thresholds(x, SR, spec)[1], 1.0), grid_fraction(x, spec)


class TestSrProbabilities:
    def test_proximity(self):
        assert _sr_down_up(0.4, INT) == (0.6, 0.4)

    def test_grid_point(self):
        assert _sr_down_up(3.0, INT) == (1.0, 0.0)

    def test_milli_example(self):
        # scaled value 301.625
        assert _sr_down_up(0.301625, MILLI) == (0.375, 0.625)

    def test_thresholds_match_closed_form_bit_for_bit(self):
        x = _edge_values()
        for spec in EDGE_SPECS:
            t = rounding_thresholds(x, SR, spec)[1]
            assert np.array_equal(t.view(np.int64), sr_thresholds(x, spec).view(np.int64))

    def test_pair_sums_to_one_exactly(self):
        rng = RandomStream(99)
        x = (rng.uniform(20_000) - 0.5) * 8.0
        for spec in (INT, MILLI, RoundingSpec(4, 2)):
            down, up = _sr_down_up(x, spec)
            assert np.all(down + up == 1.0)
            assert np.all((down >= 0.0) & (down <= 1.0))


class TestTableProbability:
    def setup_method(self):
        self.table = ProbabilityTable(grid=[0.0, 0.5, 1.0], p=[1.0, 0.5, 0.0], label="t")

    def test_node_lookup(self):
        # f = 0 and f = 1 are grid points: their threshold 2.0 lies above every
        # draw, whatever the table says there
        for f, p in zip(self.table.grid, self.table.p):
            assert rounding_thresholds(f, self.table, INT)[1] == (p if 0.0 < f < 1.0 else 2.0)

    def test_linear_midpoint(self):
        two = ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0])
        assert rounding_thresholds(0.5, two, INT)[1] == 0.5

    def test_hand_interpolation(self):
        assert rounding_thresholds(0.25, self.table, INT)[1] == 0.75

    def test_sr_is_the_two_node_table(self):
        assert SR == ProbabilityTable([0, 1], [1, 0], "sr")

    def test_tables_are_frozen_with_read_only_copies(self):
        grid, p = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0])
        table = ProbabilityTable(grid, p, "t")
        for t in (table, SR):
            for arr in (t.grid, t.p):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.25
            with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
                t.p = p
        grid[1] = p[1] = 0.25  # the caller's arrays stay writable and apart
        assert table.grid[1] == table.p[1] == 0.5

    def test_rounding_does_not_copy_the_table(self):
        # np.interp copies read-only arrays on every call, so a call would cost the table's size
        grid = np.linspace(0.0, 1.0, 200_001)
        table = ProbabilityTable(grid, 1.0 - grid)
        x = RandomStream(5).uniform(10) * 8.0
        rounding_thresholds(x, table, INT)
        tracemalloc.start()
        try:
            rounding_thresholds(x, table, INT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ProbabilityTable(grid=[0.0, 0.5], p=[1.0, 0.0])  # must end at 1
        with pytest.raises(ValueError):
            ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 1.5])
        with pytest.raises(ValueError):
            ProbabilityTable(grid=[0.0, 0.5, 0.5, 1.0], p=[1.0, 0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="equal length"):
            ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.5, 0.0])

    @pytest.mark.parametrize("label", [5, None, b"x"])
    def test_label_must_be_a_string(self, label):
        # write_distribution would write such a label, and read_distribution refuse it
        with pytest.raises(ValueError, match=f"^label must be a string, got {re.escape(repr(label))}$"):
            ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0], label=label)

    @pytest.mark.parametrize("grid, p", [
        ([0.0, np.nan, 1.0], [1.0, 0.5, 0.0]),
        ([0.0, 1.0], [np.nan, 0.0]),
        ([0.0, 0.5, 1.0], [1.0, np.nan, 0.0]),
        ([0.0, 1.0], [np.nan, np.nan]),
    ])
    def test_nan_rejected(self, grid, p):
        with pytest.raises(ValueError):
            ProbabilityTable(grid=grid, p=p)


class TestRoundStochastic:
    def test_grid_point_fixed_and_consumes_draw(self):
        rng = RandomStream(0)
        assert round_values(2.0, SR, INT, rng) == 2.0
        assert rng.counter == 1

    def test_one_draw_per_element(self):
        rng = RandomStream(0)
        round_values(np.ones(37) * 5.0, SR, INT, rng)
        assert rng.counter == 37

    def test_support(self):
        rng = RandomStream(1)
        out = round_values(np.full(1000, 0.4), SR, INT, rng)
        assert set(np.unique(out)) == {0.0, 1.0}

    def test_unbiased_mean(self):
        rng = RandomStream(2)
        out = round_values(np.full(100_000, 0.4), SR, INT, rng)
        # two-point outcome variance: 0.6 * 0.4^2 + 0.4 * 0.6^2 = 0.24
        stderr = np.sqrt(0.24 / 100_000)
        assert abs(out.mean() - 0.4) < 3 * stderr

    def test_variance_matches_two_branch_value(self):
        rng = RandomStream(3)
        out = round_values(np.full(100_000, 0.4), SR, INT, rng)
        # stderr of the variance estimate from exact central moments:
        # mu4 = 0.6*0.4^4 + 0.4*0.6^4 = 0.0672, sigma^4 = 0.0576
        stderr = np.sqrt((0.0672 - 0.0576) / 100_000)
        assert abs(np.var(out) - 0.24) < 3 * stderr

    def test_deterministic_mode_rejected(self):
        # a deterministic mode given a stream rounds by its rule and draws nothing
        rng = RandomStream(0)
        for mode, expected in _DETERMINISTIC_CELLS:
            assert [round_values(v, mode, INT, rng) for v in (1.6, 0.5, -0.5, -1.6)] == expected
        assert rng.counter == 0

    @pytest.mark.parametrize("x, mode, error", [
        (0.4, "floor", TypeError), (np.array([0.4, np.nan]), SR, ValueError),
        (-np.inf, ProbabilityTable([0.0, 1.0], [0.5, 0.5]), ValueError),
    ], ids=["not-a-mode", "sr-nan", "table-inf"])
    def test_failed_call_takes_no_draw(self, x, mode, error):
        rng = RandomStream(0)
        with pytest.raises(error):
            round_values(x, mode, INT, rng)
        assert rng.counter == 0

    def test_table_mode(self):
        floorish = ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 1.0], label="one")
        rng = RandomStream(4)
        out = round_values(np.linspace(0, 1, 17), floorish, INT, rng)
        assert np.array_equal(out, np.zeros(17) + np.floor(np.linspace(0, 1, 17)))

    def test_table_never_moves_grid_points(self):
        ceilish = ProbabilityTable(grid=[0.0, 1.0], p=[0.0, 0.0], label="zero")
        rng = RandomStream(5)
        assert round_values(3.0, ceilish, INT, rng) == 3.0
        # p = 0.5 at f = 0 as well: 2.25 has threshold 0.5, a grid point one above every draw
        half = ProbabilityTable(grid=[0.0, 1.0], p=[0.5, 0.5], label="half")
        g = np.arange(-5.0, 6.0)
        assert np.array_equal(rounding_thresholds(g, half, INT)[1], np.full(g.shape, 2.0))
        assert rounding_thresholds(2.25, half, INT)[1] == 0.5
        for _ in range(20):
            assert np.array_equal(round_values(g, half, INT, rng), g)

    def test_thresholds(self):
        lower, t = rounding_thresholds(np.array([0.25, 2.0, -1.75]), SR, INT)
        assert np.array_equal(lower, [0.0, 2.0, -2.0])
        assert np.array_equal(t, [0.75, 2.0, 0.75])
        table = ProbabilityTable(grid=[0.0, 0.5, 1.0], p=[1.0, 0.4, 0.0])
        lower, t = rounding_thresholds(np.array([0.25, 3.0]), table, INT)
        assert np.array_equal(lower, [0.0, 3.0])
        assert np.array_equal(t, [0.7, 2.0])
        with pytest.raises(TypeError):
            rounding_thresholds(0.5, "floor", INT)


class TestSharedProperties:
    def test_grid_idempotence_all_modes(self):
        table = ProbabilityTable(grid=[0.0, 0.5, 1.0], p=[1.0, 0.4, 0.0])
        rng = RandomStream(6)
        for spec in (INT, MILLI, RoundingSpec(4, 2)):
            # canonical grid doubles, same arithmetic the kernels emit
            g = np.arange(-2000, 2000) / spec.theta
            for mode in list(D):
                assert np.array_equal(round_values(g, mode, spec), g)
            for mode in (SR, table):
                assert np.array_equal(round_values(g, mode, spec, rng), g)

    def test_double_rounding_is_identity(self):
        rng = RandomStream(9)
        x = (rng.uniform(2000) - 0.5) * 10.0
        for spec in (INT, MILLI, RoundingSpec(4, 2)):
            for mode in list(D):
                once = round_values(x, mode, spec)
                assert np.array_equal(round_values(once, mode, spec), once)
            once = round_values(x, SR, spec, rng)
            assert np.array_equal(round_values(once, SR, spec, rng), once)

    def test_rounding_error_within_one_step(self):
        rng = RandomStream(7)
        x = (rng.uniform(5000) - 0.5) * 20.0
        for spec in (INT, RoundingSpec(4, 2)):
            for mode in list(D):
                err = np.abs(round_values(x, mode, spec) - x)
                assert np.all(err <= spec.delta * (1 + 1e-12))
            err = np.abs(round_values(x, SR, spec, rng) - x)
            off = grid_fraction(x, spec) > 0
            assert np.all(err[off] < spec.delta)

    def test_platform_independent_determinism(self):
        a = round_values(np.full(100, 0.7), SR, MILLI, RandomStream(123))
        b = round_values(np.full(100, 0.7), SR, MILLI, RandomStream(123))
        assert np.array_equal(a, b)

    def test_round_values_dispatch(self):
        assert round_values(1.6, D.HALF_EVEN, INT) == 2.0
        with pytest.raises(ValueError):
            round_values(1.6, SR, INT)
        assert round_values(1.6, SR, INT, RandomStream(0)) in (1.0, 2.0)

    def test_integer_product_identity(self):
        # products of integer-rounded factors are already on the integer grid
        rng = RandomStream(8)
        x1 = rng.uniform(1000) * 10.0
        x2 = rng.uniform(1000) * 10.0
        r1 = round_values(x1, SR, INT, rng)
        r2 = round_values(x2, SR, INT, rng)
        prod = r1 * r2
        assert np.array_equal(round_values(prod, SR, INT, rng), prod)
