import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import copy_at, equal_weight_root, reference_objective, reference_pso_batch
from srlab import distopt
from srlab.distopt import (
    MopConfig,
    Preset,
    _SWARM,
    _pso_batch,
    bias_of_p,
    objective,
    optimize_table,
    preset_config,
    variance_of_p,
)
from srlab.streams import _INV_2_53, RandomStream, substream_phases

SWARM_PRESETS = (Preset.BIAS_MIN, Preset.NEAREST_LIKE, Preset.D1, Preset.D2)


def scan_objective_min(cfg, fs, points=10**6):
    """Independent brute-force oracle: dense scan of the scalarized objective
    (penalty 1e10 where |B| >= b_max), one minimum per fraction in ``fs``."""
    p = np.linspace(0.0, 1.0, points)
    v = p - p * p
    var_term = cfg.theta1 * v * v
    minima = []
    for f in fs:
        b = (1.0 - p) - f
        total = var_term + cfg.theta2 * b * b
        if cfg.b_max is not None:
            total = total + 1e10 * (np.abs(b) >= cfg.b_max)
        minima.append(total.min())
    return minima


class TestConfigs:
    def test_preset_values(self):
        assert preset_config(Preset.BIAS_MIN) == MopConfig(theta1=0.0, theta2=1.0)
        assert preset_config(Preset.VAR_MIN_FLOOR) == MopConfig(theta1=1.0, theta2=0.0)
        assert preset_config(Preset.VAR_MIN_CEIL) == MopConfig(theta1=1.0, theta2=0.0)
        assert preset_config(Preset.NEAREST_LIKE) == MopConfig(theta1=0.98, theta2=0.02)
        assert preset_config(Preset.D1) == MopConfig(theta1=0.5, theta2=0.5)
        assert preset_config(Preset.D2) == MopConfig(theta1=0.5, theta2=0.5, b_max=0.05)
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("d1")  # a preset's value, not the Preset

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MopConfig(theta1=0.6, theta2=0.6)
        with pytest.raises(ValueError):
            MopConfig(theta1=-0.1, theta2=1.1)

    @pytest.mark.parametrize("fields", [
        {"theta1": math.nan, "theta2": 0.5},
        {"theta1": 0.5, "theta2": math.nan},
        {"theta1": math.inf, "theta2": 0.5},
        {"theta1": 0.5, "theta2": -math.inf},
        {"theta1": 0.5, "theta2": 0.5, "b_max": math.nan},
        {"theta1": 0.5, "theta2": 0.5, "b_max": math.inf},
        {"theta1": 0.5, "theta2": 0.5, "b_max": -math.inf},
        {"theta1": 0.5, "theta2": np.float32(math.nan)},
        {"theta1": 10**400, "theta2": 0.5},  # an int with no double, not numpy's TypeError
        {"theta1": 0.5, "theta2": 0.5, "b_max": 10**400},
    ])
    def test_non_finite_fields_rejected(self, fields):
        with pytest.raises(ValueError, match="finite"):
            MopConfig(**fields)

    def test_penalty_limit_coupling(self):
        # the one penalty comes with the bias cap: no variance cap, penalty or delta can be set
        assert [field.name for field in dataclasses.fields(MopConfig)] == ["theta1", "theta2", "b_max"]
        for name, value in (("k2", 1e10), ("k1", 1.0), ("v_max", 0.2), ("delta", 1.0)):
            with pytest.raises(TypeError, match=f"'{name}'"):
                MopConfig(theta1=0.5, theta2=0.5, b_max=0.05, **{name: value})
        # |B| = 0.0625 at f = 0.4375 reaches the cap, and adds 1e10; |B| = 0.05 at f = 0.45 adds nothing
        capped, free = MopConfig(theta1=0.5, theta2=0.5, b_max=0.0625), MopConfig(theta1=0.5, theta2=0.5)
        assert objective(0.5, 0.4375, capped) == objective(0.5, 0.4375, free) + 1e10
        assert objective(0.5, 0.45, capped) == objective(0.5, 0.45, free)

    def test_objective_finite_and_never_negative_zero_up_to_the_bound(self):
        # the swarm's uint64 blend needs finite values without -0.0; V <= 1/4 and |B| <= 1 bound it by
        # theta1/16 + theta2 + 1e10, which a cap of 0, reached everywhere, comes near
        p = np.concatenate([np.linspace(0.0, 1.0, 2001), np.nextafter(0.5, [0.0, 1.0])])
        f = np.concatenate([np.linspace(0.0, 1.0, 21), [0.3, 0.7]])[:, None]
        weights = [(t, 1.0 - t) for t in (0.0, -0.0, 1e-9, 0.5, 0.98, 1.0)] + [(1.0, -0.0)]
        for theta1, theta2 in weights:
            for cap in (None, 0.0, 0.05):
                cfg = MopConfig(theta1=theta1, theta2=theta2, b_max=cap)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = objective(p, f, cfg)
                assert np.all(np.isfinite(values)) and not np.any(np.signbit(values)), cfg
                assert values.max() <= theta1 / 16 + theta2 + (0.0 if cap is None else 1e10), cfg
                assert cap != 0.0 or values.min() >= 1e10, cfg

    @pytest.mark.parametrize("fields", [
        {"theta1": True, "theta2": False},
        {"theta1": 0.5, "theta2": np.True_},
        {"theta1": 0.5, "theta2": 0.5, "b_max": True},
        {"theta1": 0.5, "theta2": 0.5, "b_max": np.bool_(1)},
        {"theta1": "0.5", "theta2": 0.5},
        {"theta1": 0.5, "theta2": 0.5, "b_max": "0.05"},
    ])
    def test_non_numbers_rejected(self, fields):
        with pytest.raises(ValueError, match=r"^(theta1|theta2|b_max) must be a finite non-negative real number, got "):
            MopConfig(**fields)

    def test_python_and_numpy_numbers_accepted(self):
        MopConfig(theta1=0, theta2=1, b_max=np.int64(1))
        MopConfig(theta1=np.float64(0.5), theta2=np.float32(0.5), b_max=np.float32(2.5))


class TestObjectivePieces:
    def test_variance_endpoints(self):
        assert variance_of_p(0.0) == 0.0
        assert variance_of_p(1.0) == 0.0

    def test_variance_values(self):
        assert variance_of_p(0.5) == 0.25
        assert np.isclose(variance_of_p(0.1), 0.09)
        p = RandomStream(0).uniform(100)
        assert np.allclose(variance_of_p(p), variance_of_p(1.0 - p))

    @pytest.mark.parametrize("delta", [-2.0, 0.0, -0.0, math.nan, math.inf, True, np.True_, "2", None,
                                       pytest.param(10**400, id="10**400")])
    def test_bad_delta_rejected(self, delta):
        # V and B are taken at delta = 1, which no argument sets: a delta by position or by name is refused
        for call in (lambda: variance_of_p(0.25, delta), lambda: bias_of_p(0.25, 0.5, delta),
                     lambda: variance_of_p(0.25, delta=delta), lambda: bias_of_p(0.25, 0.5, delta=delta)):
            with pytest.raises(TypeError):
                call()

    def test_bias_zero_at_matching_p(self):
        f = RandomStream(1).uniform(50)
        assert np.allclose(bias_of_p(1.0 - f, f), 0.0)
        assert bias_of_p(1.0, 0.0) == 0.0

    def test_bias_value(self):
        assert np.isclose(bias_of_p(0.15, 0.8), 0.05)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            variance_of_p(1.5)
        with pytest.raises(ValueError):
            bias_of_p(0.5, 1.5)
        # NaN lies in no interval, and no clamp moves a NaN p
        d1 = preset_config(Preset.D1)
        for name, call in (("p", lambda: variance_of_p(np.nan)), ("f", lambda: bias_of_p(0.5, np.nan)),
                           ("f", lambda: objective(0.5, np.nan, d1)), ("p", lambda: objective(np.nan, 0.5, d1))):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
                call()

    def test_objective_examples(self):
        bias_min = preset_config(Preset.BIAS_MIN)
        assert objective(0.75, 0.25, bias_min) == 0.0  # dyadic: bias exactly zero
        assert objective(0.7, 0.3, bias_min) < 1e-30
        var_min = preset_config(Preset.VAR_MIN_FLOOR)
        assert objective(0.0, 0.3, var_min) == 0.0
        d1 = preset_config(Preset.D1)
        assert objective(0.5, 0.5, d1) == 0.5 * 0.25**2

    def test_objective_clamps(self):
        d1 = preset_config(Preset.D1)
        assert objective(1.7, 0.5, d1) == objective(1.0, 0.5, d1)

    def test_penalty_fires_on_closed_boundary(self):
        # dyadic values so the bias hits the cap exactly
        cfg = MopConfig(theta1=0.5, theta2=0.5, b_max=0.0625)
        assert objective(0.5, 0.4375, cfg) > 1e9  # bias == cap: penalized
        assert objective(0.5, 0.45, cfg) < 1.0  # strictly inside
        d2 = preset_config(Preset.D2)
        assert objective(0.1, 0.8, d2) > 1e9  # bias 0.1 >= 0.05
        assert objective(0.2, 0.8, d2) < 1.0


class TestOptimizeTable:
    def test_bias_min_matches_proximity_rule(self):
        table = optimize_table(Preset.BIAS_MIN, grid_size=101)
        assert np.max(np.abs(table.p - (1.0 - table.grid))) < 1e-3

    def test_var_min_endpoints_pinned(self):
        floor_t = optimize_table(Preset.VAR_MIN_FLOOR, grid_size=21)
        ceil_t = optimize_table(Preset.VAR_MIN_CEIL, grid_size=21)
        assert np.all(floor_t.p == 1.0)
        assert np.all(ceil_t.p == 0.0)
        assert floor_t.label == "var-min-floor"

    def test_matches_brute_force_scan(self):
        for preset in Preset:
            cfg = preset_config(preset)
            table = optimize_table(preset, grid_size=21)
            for j, scan in enumerate(scan_objective_min(cfg, table.grid)):
                got = objective(table.p[j], table.grid[j], cfg)
                assert got <= scan + 1e-8

    def test_equal_weight_root_oracle(self, d1_table):
        for f in (0.2, 0.35, 0.5, 0.65, 0.9):
            j = int(round(f * (d1_table.grid.size - 1)))
            assert abs(d1_table.p[j] - equal_weight_root(f)) < 1e-3
        j_half = (d1_table.grid.size - 1) // 2
        assert abs(d1_table.p[j_half] - 0.5) < 1e-3

    def test_equal_weight_symmetry(self, d1_table):
        p = d1_table.p
        assert np.max(np.abs(p + p[::-1] - 1.0)) < 2e-3

    def test_equal_weight_variance_never_above_proximity_rule(self, d1_table):
        v_opt = variance_of_p(d1_table.p)
        v_sr = variance_of_p(1.0 - d1_table.grid)
        assert np.all(v_opt <= v_sr + 1e-12)

    def test_capped_bias_at_node(self, d2_table):
        j = int(round(0.8 * (d2_table.grid.size - 1)))
        assert abs(d2_table.p[j] - 0.15) < 1e-2
        assert abs(abs(bias_of_p(d2_table.p[j], 0.8)) - 0.05) < 1e-3

    def test_capped_bias_feasible_everywhere(self, d2_table):
        bias = np.abs(bias_of_p(d2_table.p, d2_table.grid))
        assert bias.max() <= 0.05 + 1e-3

    def test_threshold_shape(self, tables_1001):
        table = tables_1001[Preset.NEAREST_LIKE]
        f = table.grid
        assert np.all(table.p[f < 0.45] >= 0.99)
        assert np.all(table.p[f > 0.55] <= 0.01)

    def test_nodes_match_scalar_solver(self, d1_table):
        cfg = preset_config(Preset.D1)
        for j in (0, 250, 777):  # node j alone, on substream j of seed 0
            phase = np.asarray([RandomStream(0).substream(j).phase], dtype=np.uint64)
            p, _ = _pso_batch(np.full((1, _SWARM["swarm_size"]), d1_table.grid[j]), cfg, phase)
            assert p[0] == d1_table.p[j]

    def test_paper_count_tables_pinned(self, tables_1001):
        # sha256 of each preset's 1001-node p at seed 0
        expected = {
            Preset.BIAS_MIN: "ce855126994432702b182ecefdb5661a00431e074eb748564c14dfae62a88ccc",
            Preset.VAR_MIN_FLOOR: "09a0bd223e0069a8c18a31fdc6161311ced75738170cc504d4d5cb71e3b26359",
            Preset.VAR_MIN_CEIL: "6ef7cad281b0f497955a2b3ee60c8285fcc186eec9b6aae6d0af7bbb115366de",
            Preset.NEAREST_LIKE: "50d9618ee899cb6128fbefc47cbd399659fbbd0a1f57d89712e9d709d084e40c",
            Preset.D1: "920b0633199acb73309fe4288c349a029e51a694003a8dc2909b195a0a4141b9",
            Preset.D2: "5e291d0193354464758fc4e4ac031d0049b9e3eb7ed8decc91f6fa16078334b3",
        }
        assert {preset: hashlib.sha256(table.p.tobytes()).hexdigest()
                for preset, table in tables_1001.items()} == expected

    def test_variance_only_config_refused(self, monkeypatch):
        # no bias weight and no bias limit: the objective ignores f, and p = 0 and p = 1 tie
        for theta2 in (0.0, -0.0):
            with pytest.raises(ValueError, match="var-min-floor or var-min-ceil"):
                optimize_table(MopConfig(theta1=1.0, theta2=theta2), grid_size=11)
        monkeypatch.setitem(distopt._SWARM, "iterations", 5)
        table = optimize_table(MopConfig(theta1=1.0, theta2=0.0, b_max=0.3), grid_size=11)
        assert table.label == "custom"

    def test_bad_seeds_rejected(self):
        # checked before any work, also by the var-min presets, which build no stream
        for preset in Preset:
            for seed in (-1, 1.5, True, 2**64, np.int64(-1), "0", None):
                with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
                    optimize_table(preset, grid_size=3, seed=seed)
        table = optimize_table(Preset.VAR_MIN_FLOOR, grid_size=3, seed=np.uint64(2**64 - 1))
        assert table.p.tolist() == [1.0, 1.0, 1.0]

    def test_custom_config_label(self):
        cfg = MopConfig(theta1=0.25, theta2=0.75)
        table = optimize_table(cfg, grid_size=11)
        assert table.label == "custom"
        with pytest.raises(TypeError):
            optimize_table("d1", grid_size=11)
        with pytest.raises(TypeError):  # a table's label is its preset's name, or "custom"
            optimize_table(cfg, grid_size=11, label="x")


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def reference_table(cfg, grid_size, seed):
    """(p, fitness) per node from the np.where swarm and objective of oracles.py."""
    fgrid = np.linspace(0.0, 1.0, grid_size)
    phases = substream_phases(RandomStream(seed).phase, np.arange(grid_size))
    return reference_pso_batch(lambda p: reference_objective(p, fgrid[:, None], cfg), phases, _SWARM["iterations"])


class TestReferenceSwarm:
    """The in-place swarm gives the bits of the np.where swarm in oracles.py."""

    @pytest.mark.parametrize("seed", [0, 7, 345805177])
    @pytest.mark.parametrize("preset", SWARM_PRESETS, ids=lambda p: p.value)
    def test_presets_at_41_nodes(self, preset, seed):
        g, _ = reference_table(preset_config(preset), 41, seed)
        assert np.array_equal(bits(optimize_table(preset, grid_size=41, seed=seed).p), bits(g))

    def test_presets_at_1001_nodes(self, tables_1001):
        for preset in SWARM_PRESETS:
            g, _ = reference_table(preset_config(preset), 1001, 0)
            assert np.array_equal(bits(tables_1001[preset].p), bits(g)), preset
            g, _ = reference_table(preset_config(preset), 1001, 345805177)
            assert np.array_equal(bits(optimize_table(preset, grid_size=1001, seed=345805177).p), bits(g)), preset

    @pytest.mark.parametrize(
        "mop, pso",  # pso: the swarm's (seed, iterations)
        [
            (MopConfig(theta1=0.25, theta2=0.75), (3, 200)),
            (MopConfig(theta1=0.3, theta2=0.7, b_max=0.1), (4, 200)),
            (MopConfig(theta1=0.0, theta2=1.0, b_max=0.02), (5, 200)),
            (MopConfig(theta1=0.9, theta2=0.1, b_max=0.24), (6, 80)),
            # a cap of 0 is reached everywhere: every value carries the penalty, and ties abound
            (MopConfig(theta1=0.5, theta2=0.5, b_max=0.0), (7, 40)),
            # a -0.0 weight: its term is -0.0; optimize_table refuses it (the objective
            # ignores f), so only the swarm call runs
            (MopConfig(theta1=1.0, theta2=-0.0), (8, 40)),
            (MopConfig(theta1=-0.0, theta2=1.0), (9, 40)),
        ],
    )
    def test_custom_configs(self, mop, pso, monkeypatch):
        seed, iterations = pso
        monkeypatch.setitem(distopt._SWARM, "iterations", iterations)
        g, fg = reference_table(mop, 101, seed)
        if mop.theta2 == 0.0 and mop.b_max is None:
            with pytest.raises(ValueError, match="var-min"):
                optimize_table(mop, grid_size=101, seed=seed)
        else:
            assert np.array_equal(bits(optimize_table(mop, grid_size=101, seed=seed).p), bits(g))
        # all 101 nodes in one swarm call: positions and fitness alike, and the same bits
        # whether f is freshly allocated or starts at 16 mod 64
        f = np.repeat(np.linspace(0.0, 1.0, 101)[:, None], _SWARM["swarm_size"], axis=1)
        phases = substream_phases(RandomStream(seed).phase, np.arange(101))
        for f_in in (f, copy_at(f, 16)):
            got = _pso_batch(f_in, mop, phases)
            assert np.array_equal(bits(got[0]), bits(g)) and np.array_equal(bits(got[1]), bits(fg))

    def test_objective_matches_reference(self):
        p = np.concatenate([np.linspace(-0.5, 1.5, 2001), [0.0, 1.0, 0.5]])
        f = np.linspace(0.0, 1.0, 11)[:, None]
        configs = [preset_config(preset) for preset in Preset] + [
            MopConfig(theta1=0.3, theta2=0.7, b_max=0.1)]
        for cfg in configs:
            assert np.array_equal(bits(objective(p, f, cfg)), bits(reference_objective(p, f, cfg)))
            assert bits(objective(0.3, 0.6, cfg)) == bits(reference_objective(0.3, 0.6, cfg))

    def test_fixed_constants_meet_the_swarm_conditions(self):
        # _pso_batch folds c * 2**-53 into one pass, exact only if that product is, and
        # reflects once, enough only if the clamp is at most 1
        for c in (_SWARM["cognitive"], _SWARM["social"]):
            assert Fraction(c * _INV_2_53) == Fraction(c) / 2**53
        assert 0.0 < _SWARM["velocity_clamp"] <= 1.0

    def test_random_configs_match_reference(self, monkeypatch):
        # 300 seeded configurations of the in-place swarm and objective, against the
        # np.where swarm and the one-temporary-per-operation objective of oracles.py
        rng = np.random.default_rng(20240607)
        seen = set()
        for _ in range(300):
            theta1 = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
            b_max = float(rng.uniform(0.01, 0.3)) if rng.random() < 0.4 else None
            mop = MopConfig(theta1=theta1, theta2=1.0 - theta1, b_max=b_max)
            iterations = int(rng.integers(1, 25))
            monkeypatch.setitem(distopt._SWARM, "iterations", iterations)
            f = np.concatenate([[0.0, 1.0], rng.random(int(rng.integers(0, 6)))])[:, None]
            phases = rng.integers(0, 2**64, f.size, dtype=np.uint64)
            g, fg = reference_pso_batch(lambda p: reference_objective(p, f, mop), phases, iterations)
            f_rows = np.repeat(f, _SWARM["swarm_size"], axis=1)
            got = _pso_batch(f_rows, mop, phases)
            assert np.array_equal(bits(got[0]), bits(g)) and np.array_equal(bits(got[1]), bits(fg)), (mop, iterations)
            seen.add((theta1 == 0.0, b_max is not None))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}  # theta1 = 0 with a cap too

    def test_table_does_not_depend_on_node_block(self, monkeypatch):
        # one node per block, then blocks of 7, 256 and more nodes than the grid
        monkeypatch.setitem(distopt._SWARM, "iterations", 3)

        def run():
            return [optimize_table(preset, grid_size=n, seed=9).p.tobytes()
                    for n in (255, 256, 257, 513) for preset in (Preset.BIAS_MIN, Preset.D2)]

        results = [run()]
        for nodes in (1, 7, 256, 1000):
            monkeypatch.setattr(distopt, "_BLOCK_NODES", nodes)
            results.append(run())
        assert all(result == results[0] for result in results[1:])
