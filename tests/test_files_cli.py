import argparse
import inspect
import json

import numpy as np
import pytest

import srlab.cli
from oracles import format_number_reference
from srlab import (
    DOT_SIZES,
    SQRT_TEST_VALUES,
    CaseId,
    NewtonConfig,
    PsoConfig,
    RoundingSpec,
    optimize_table,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from srlab.cli import main
from srlab.files import (
    format_number,
    read_distribution,
    write_csv,
    write_distribution,
)
from srlab.rounding import ProbabilityTable
from srlab.stats import contour_grid


@pytest.fixture()
def small_table():
    return ProbabilityTable(grid=np.linspace(0, 1, 5), p=[1.0, 0.7, 0.5, 0.3, 0.0], label="demo")


def _write_json(path, payload):
    path.write_text(json.dumps(payload))  # NaN and inf as JSON's NaN and Infinity
    return path


class TestDistributionFiles:
    def test_round_trip_identity(self, tmp_path, small_table):
        path = tmp_path / "t.json"
        write_distribution(path, small_table, delta=1.0, provenance={"seed": 3})
        loaded = read_distribution(path)
        assert loaded.table == small_table
        assert loaded.delta == 1.0
        second = tmp_path / "t2.json"
        write_distribution(second, loaded.table, delta=loaded.delta, provenance=loaded.provenance)
        assert path.read_bytes() == second.read_bytes()

    def test_floats_survive_exactly(self, tmp_path):
        table = ProbabilityTable(grid=[0.0, 0.1, 1.0], p=[1.0, 1 / 3, 0.0], label="x")
        path = tmp_path / "t.json"
        write_distribution(path, table)
        loaded = read_distribution(path)
        assert np.array_equal(loaded.table.grid, table.grid)
        assert np.array_equal(loaded.table.p, table.p)

    def test_invalid_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "label": "x"}')
        with pytest.raises(ValueError):
            read_distribution(bad)
        worse = tmp_path / "worse.json"
        worse.write_text(
            '{"format_version": 99, "label": "x", "delta": 1.0, "grid": [0.0, 1.0], "p": [1.0, 0.0]}'
        )
        with pytest.raises(ValueError):
            read_distribution(worse)
        good = {"format_version": 1, "label": "x", "delta": 1.0, "grid": [0.0, 1.0], "p": [1.0, 0.0], "provenance": {}}
        read_distribution(_write_json(tmp_path / "good.json", good))
        for field, value in [("format_version", 1.5), ("format_version", True), ("format_version", "1"),
                             ("delta", float("nan")), ("delta", -3), ("delta", float("inf")), ("delta", 0),
                             ("provenance", [1, 2]), ("label", 5),
                             # JSON numbers only: no strings or booleans that float() would convert
                             ("delta", "0.5"), ("delta", True), ("grid", [False, True]), ("grid", ["0", 1.0]),
                             ("grid", 0.5), ("p", [True, False]), ("p", ["1", 0]), ("p", [[1.0], [0.0]])]:
            path = _write_json(tmp_path / f"{field}.json", good | {field: value})
            with pytest.raises(ValueError, match=f"{path}: not a valid distribution file: .*{field}"):
                read_distribution(path)
        integers = read_distribution(_write_json(tmp_path / "ints.json", good | {"delta": 2, "grid": [0, 1], "p": [1, 0]}))
        assert integers.delta == 2.0 and integers.table == ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0], label="x")
        huge = _write_json(tmp_path / "huge.json", good | {"p": [1, 10**400]})
        with pytest.raises(ValueError, match=f"{huge}: not a valid distribution file"):
            read_distribution(huge)

    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(3) == "3"
        assert format_number(0.1) == "0.10000000000000001"
        assert float(format_number(1 / 3)) == 1 / 3

    def test_write_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (None, "x")])
        assert path.read_text() == "a,b\n1,0.5\n,x\n"
        # a str row is a line already formatted; cell rows around it are formatted as before
        assert write_csv(path, ["a", "b"], [(1, 0.5), "2,0.25", (None, "x"), ",y"]) == 4
        assert path.read_text() == "a,b\n1,0.5\n2,0.25\n,x\n,y\n"

    def test_format_number_cells(self):
        cells = [
            (None, ""), ("x,y", "x,y"), (True, "True"), (np.bool_(False), "False"), (7, "7"),
            (np.int64(-12), "-12"), (np.float32(0.1), "0.10000000149011612"),
            (np.float64(1 / 3), "0.33333333333333331"), (-0.0, "-0"), (float("nan"), "nan"),
            (np.float64("nan"), "nan"), (float("inf"), "inf"), (np.float64(-np.inf), "-inf"),
            (1.0, "1"), (0.1, "0.10000000000000001"),
        ]
        for value, text in cells:
            assert format_number(value) == text == format_number_reference(value), value

    def test_write_csv_streams_an_iterator(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = zip([0.5, np.float64(0.25), 3], ["a", None, True])
        assert write_csv(path, ["x", "y"], rows) == 3
        assert path.read_text() == "x,y\n0.5,a\n0.25,\n3,True\n"
        assert write_csv(path, ["x"], iter([])) == 0
        assert path.read_text() == "x\n"


def run_cli(*argv):
    return main(list(argv))


class TestRoundCommand:
    def test_deterministic_prints_once(self, capsys):
        assert run_cli("round", "1.6", "--mode", "half-even", "--count", "5") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["2"]

    @pytest.mark.parametrize("x, mode", [("-0.3", "ceil"), ("-0.3", "half-up"), ("-0.3", "half-down"),
                                         ("-0.3", "half-even"), ("-0.3", "half-odd"), ("-0", "floor")])
    def test_zero_prints_without_sign(self, capsys, x, mode):
        assert run_cli("round", x, "--mode", mode) == 0
        assert capsys.readouterr().out == "0\n"

    def test_stochastic_support(self, capsys):
        assert run_cli("round", "0.4", "--mode", "sr", "--seed", "7", "--count", "5") == 0
        values = {float(line) for line in capsys.readouterr().out.split()}
        assert values <= {0.0, 1.0}

    def test_unknown_mode_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "nope")
        assert exc.value.code == 2
        assert "available" in capsys.readouterr().err

    def test_table_mode(self, tmp_path, capsys, small_table):
        path = tmp_path / "t.json"
        write_distribution(path, small_table)
        assert run_cli("round", "0.4", "--mode", "table", "--table", str(path), "--count", "3") == 0
        values = {float(line) for line in capsys.readouterr().out.split()}
        assert values <= {0.0, 1.0}

    def test_nan_table_is_usage_error_naming_the_file(self, tmp_path, capsys):
        nan = tmp_path / "nan.json"
        nan.write_text('{"format_version": 1, "label": "nan", "delta": 1.0, "grid": [0.0, 1.0], "p": [NaN, NaN]}')
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "table", "--table", str(nan), "--count", "3")
        assert exc.value.code == 2
        assert str(nan) in capsys.readouterr().err

    def test_table_mode_takes_the_first_file_whatever_the_labels(self, tmp_path, capsys):
        down, up = tmp_path / "down.json", tmp_path / "up.json"
        write_distribution(down, ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 1.0], label="d1"))
        write_distribution(up, ProbabilityTable(grid=[0.0, 1.0], p=[0.0, 0.0], label="D1"))
        assert run_cli("round", "0.4", "--mode", "table", "--table", str(down), "--table", str(up),
                       "--count", "4") == 0
        assert capsys.readouterr().out.split() == ["0"] * 4
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "d1", "--table", str(down), "--table", str(up))
        assert exc.value.code == 2


class TestOptimizeCommand:
    def test_preset_writes_distribution(self, tmp_path, capsys):
        out = tmp_path / "bias.json"
        code = run_cli(
            "optimize", "--preset", "bias-min", "--grid-size", "41",
            "--iterations", "60", "--out", str(out),
        )
        assert code == 0
        loaded = read_distribution(out)
        assert np.max(np.abs(loaded.table.p - (1.0 - loaded.table.grid))) < 1e-3
        assert loaded.provenance["pso"]["iterations"] == 60
        assert "bias" in capsys.readouterr().out

    def test_capped_preset_respects_cap(self, tmp_path):
        out = tmp_path / "d2.json"
        run_cli("optimize", "--preset", "d2", "--grid-size", "101", "--out", str(out))
        loaded = read_distribution(out)
        from srlab.distopt import bias_of_p

        assert np.max(np.abs(bias_of_p(loaded.table.p, loaded.table.grid))) <= 0.051

    def test_var_min_floor_all_ones(self, tmp_path):
        out = tmp_path / "floor.json"
        run_cli("optimize", "--preset", "var-min-floor", "--grid-size", "21",
                "--iterations", "40", "--out", str(out))
        loaded = read_distribution(out)
        assert np.all(loaded.table.p == 1.0)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "mop.json"
        cfg.write_text(json.dumps({"theta1": 0.5, "theta2": 0.5}))
        out = tmp_path / "custom.json"
        assert run_cli("optimize", "--config", str(cfg), "--grid-size", "15",
                       "--iterations", "40", "--out", str(out)) == 0
        assert read_distribution(out).table.label == "custom"

    def test_missing_config_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("optimize", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("srlab: ")
        assert not (tmp_path / "x.json").exists()

    def test_needs_exactly_one_source(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("optimize", "--out", "x.json")
        assert exc.value.code == 2

    def test_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("optimize", "--preset", "zzz", "--out", "x.json")
        assert exc.value.code == 2


class TestExperimentCommands:
    def _tables(self, tmp_path):
        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        run_cli("optimize", "--preset", "d1", "--grid-size", "41", "--iterations", "60",
                "--out", str(d1))
        run_cli("optimize", "--preset", "d2", "--grid-size", "41", "--iterations", "60",
                "--out", str(d2))
        return d1, d2

    def test_sum_csv(self, tmp_path):
        d1, d2 = self._tables(tmp_path)
        out = tmp_path / "sum.csv"
        code = run_cli(
            "experiment", "sum", "--case", "III", "--modes", "sr,cr,d1,d2",
            "--table", str(d1), "--table", str(d2),
            "--reps", "300", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case,mode,abs_bias,variance,rel_err,n"
        assert len(lines) == 5
        cr_row = next(line for line in lines if ",cr," in line)
        assert cr_row.split(",")[3] == "0"

    def test_aliases_of_one_mode_each_get_a_row(self, tmp_path):
        out = tmp_path / "sum.csv"
        assert run_cli("experiment", "sum", "--case", "III", "--modes", "cr,half-even", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["cr", "half-even"]
        assert rows[0][2:] == rows[1][2:]

    def test_unknown_mode_without_table(self, tmp_path, capsys):
        out = tmp_path / "sum.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "III", "--modes", "sr,d1",
                    "--reps", "10", "--out", str(out))
        assert exc.value.code == 2

    def test_missing_table_file(self, tmp_path):
        out = tmp_path / "sum.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "III", "--modes", "sr",
                    "--table", str(tmp_path / "absent.json"), "--out", str(out))
        assert exc.value.code == 1

    def test_malformed_table_is_usage_error_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "III", "--modes", "sr",
                    "--table", str(bad), "--out", str(tmp_path / "sum.csv"))
        assert exc.value.code == 2
        usage, message = capsys.readouterr().err.splitlines()
        assert message.startswith("srlab: error: ") and str(bad) in message
        assert not (tmp_path / "sum.csv").exists()
        # well-formed JSON with invalid contents: a NaN delta
        nan_delta = _write_json(tmp_path / "nan.json", {"format_version": 1, "label": "x", "delta": float("nan"),
                                                        "grid": [0.0, 1.0], "p": [1.0, 0.0]})
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "table", "--table", str(nan_delta))
        assert exc.value.code == 2
        usage, message = capsys.readouterr().err.splitlines()
        assert message.startswith("srlab: error: ") and str(nan_delta) in message and "delta" in message
        # a string probability that float() would have taken
        text_p = _write_json(tmp_path / "text.json", {"format_version": 1, "label": "x", "delta": 1.0,
                                                      "grid": [0.0, 1.0], "p": ["1", 0.0]})
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "table", "--table", str(text_p), "--count", "2")
        assert exc.value.code == 2
        usage, message = capsys.readouterr().err.splitlines()
        assert message.startswith("srlab: error: ") and str(text_p) in message

    @pytest.mark.parametrize("labels, culprit, clash", [
        (("d1", "D1"), 1, "t0.json"), (("sr", "d1"), 0, "a builtin mode"), (("d1", "Half-Even"), 1, "a builtin mode"),
        (("", "d1"), 0, "non-empty"), (("d1", "a,b"), 1, "commas"), (("d1 ", "d2"), 0, "surrounding spaces"),
    ])
    def test_clashing_table_labels_are_usage_errors(self, labels, culprit, clash, tmp_path, capsys):
        paths = [tmp_path / f"t{i}.json" for i in range(2)]
        for path, label in zip(paths, labels):
            write_distribution(path, ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0], label=label))
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "III", "--modes", "d1", "--reps", "10",
                    "--table", str(paths[0]), "--table", str(paths[1]), "--out", str(tmp_path / "sum.csv"))
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert str(paths[culprit]) in message and clash in message
        assert not (tmp_path / "sum.csv").exists()

    @pytest.mark.parametrize("res", [1, 7, 100])
    @pytest.mark.parametrize("x1_max", [5.0, 3.7])
    def test_contour_cells_match_the_float_rows(self, res, x1_max):
        grid = contour_grid((0.0, x1_max), (0.0, 1.0), (res, res))
        columns = (*np.meshgrid(grid.x1, grid.x2, indexing="ij"), grid.e_down, grid.e_up, grid.p)
        expected = [",".join(format_number_reference(v) for v in row)
                    for row in zip(*(c.ravel().tolist() for c in columns))]
        header, rows = srlab.cli._contour_study(argparse.Namespace(res=res, x1_max=x1_max))
        assert header == ["x1", "x2", "e_down", "e_up", "p"] and isinstance(rows, list)
        assert rows == expected

    def test_varbound_cells_match_the_float_rows(self):
        args = argparse.Namespace(bits=3, xmax=0.5, step=0.05, draws=40, seed=4)
        grid = srlab.cli.validate_variance_bound(n_bits=3, x_max=0.5, step=0.05, draws=40, seed=4)
        expected = [",".join(format_number_reference(v) for v in (x, ve, vt, grid.bound))
                    for x, ve, vt in zip(grid.x, grid.v_empirical, grid.v_theoretical)]
        header, rows = srlab.cli._varbound_study(args)
        assert header == ["x", "v_empirical", "v_theoretical", "bound"] and isinstance(rows, list)
        assert rows == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "contour", "--res", "3"],
            ["optimize", "--preset", "d1", "--grid-size", "5", "--iterations", "2"],
        ],
    )
    def test_unwritable_out_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran the work before checking --out")

        monkeypatch.setattr(srlab.cli, "optimize_table", no_work)
        monkeypatch.setattr(srlab.cli, "_contour_study", no_work)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_out_in_missing_directory_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(srlab.cli, "_contour_study", None)  # never reached
        out = tmp_path / "missing" / "c.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "contour", "--res", "3", "--out", str(out))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: ") and str(out) in err and len(err.splitlines()) == 1

    def test_bad_case(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "V", "--modes", "sr",
                    "--out", str(tmp_path / "x.csv"))
        assert exc.value.code == 2

    def test_sqrt_csv_with_breakdown_column(self, tmp_path):
        out = tmp_path / "sqrt.csv"
        code = run_cli(
            "experiment", "sqrt", "--values", "0.30146,51.16904", "--n", "0", "--base", "10",
            "--modes", "sr,cr", "--reps", "200", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,mode,delta,mu,abs_bias,variance,rel_err,n_it_mean,breakdowns"
        cr_small = next(l for l in lines[1:] if l.split(",")[1] == "cr" and float(l.split(",")[0]) == 0.30146)
        fields = cr_small.split(",")
        assert fields[3] == "" and fields[-1] == "1"  # fully broken down

    def test_dot_csv(self, tmp_path):
        out = tmp_path / "dot.csv"
        assert run_cli("experiment", "dot", "--sizes", "50", "--modes", "sr,cr",
                       "--reps", "100", "--seed", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,mode,abs_bias,variance,rel_err"
        assert len(lines) == 3

    def test_varbound_csv(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli("experiment", "varbound", "--bits", "4", "--step", "0.01",
                       "--draws", "400", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,v_empirical,v_theoretical,bound"
        assert len(lines) == 202
        bound = float(lines[1].split(",")[3])
        assert bound == 2.0**-10
        assert all(float(l.split(",")[1]) <= bound for l in lines[1:])

    def test_contour_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("experiment", "contour", "--res", "20", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,e_down,e_up,p"
        assert len(lines) == 401

    def test_byte_identical_reruns(self, tmp_path):
        d1, _ = self._tables(tmp_path)
        for args, name in [
            (("experiment", "sum", "--case", "IV", "--modes", "sr,cr", "--reps", "50",
              "--seed", "3"), "sum.csv"),
            (("experiment", "dot", "--sizes", "50", "--modes", "sr", "--reps", "50",
              "--seed", "3"), "dot.csv"),
            (("experiment", "varbound", "--step", "0.05", "--draws", "100"), "var.csv"),
        ]:
            first = tmp_path / ("a_" + name)
            second = tmp_path / ("b_" + name)
            assert run_cli(*args, "--out", str(first)) == 0
            assert run_cli(*args, "--out", str(second)) == 0
            assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "sum", "--case", "III", "--reps", "0"],
        ["experiment", "varbound", "--step", "0"],
        ["experiment", "varbound", "--draws", "0"],
        ["experiment", "varbound", "--xmax", "-1"],
        ["experiment", "sqrt", "--values", "-1"],
        ["experiment", "contour", "--res", "0"],
        ["optimize", "--preset", "d1", "--grid-size", "1"],
        # the swarm's constants are fixed: their flags are gone
        ["optimize", "--preset", "d1", "--swarm", "1"],
        ["optimize", "--preset", "d1", "--velocity-clamp", "2"],
        ["optimize", "--preset", "d1", "--inertia", "inf"],
        ["optimize", "--preset", "d1", "--cognitive", "1e-300"],
        ["round", "1.5", "--n", "400", "--base", "10"],
        ["round", "1e300", "--n", "1023"],
        ["experiment", "sum", "--case", ","],
        ["experiment", "sqrt", "--values", ""],
        ["experiment", "dot", "--sizes", " "],
        ["round", "0.4", "--mode", "sr", "--count", "-3"],
        ["round", "0.4", "--mode", "sr", "--count", "0"],
        ["experiment", "sum", "--case", "III", "--modes", "cr", "--reps", "0"],
        ["experiment", "sqrt", "--values", "0.30146", "--modes", "cr", "--reps", "0"],
        ["experiment", "sqrt", "--values", "2", "--modes", "sr", "--reps", "5", "--tol", "nan"],
        ["experiment", "sqrt", "--values", "2", "--modes", "sr", "--reps", "5", "--tol", "inf"],
        ["experiment", "contour", "--x1-max", "inf"],
        # 2e14 grid points (1.6 PB) exceed any address space, so nothing is allocated
        ["experiment", "varbound", "--step", "1e-14"],
        ["optimize", "--config", '{"theta1": NaN, "theta2": 0.5}'],
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "delta": NaN}'],
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "b_max": NaN, "k2": 1e10}'],
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "b_max": 0.05, "k2": Infinity}'],
        # finite fields whose objective overflows, and a penalty that rewards
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "delta": 1e200}'],
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "v_max": 0.2, "k1": -1.0}'],
        # raise statements reached only by these inputs
        ["experiment", "dot", "--sizes", "1"],
        ["experiment", "sum", "--modes", ","],
        ["round", "0.4", "--mode", "table"],
        ["experiment", "contour", "--x1-max", "2", "--res", "1"],  # the one cell's x1 is the integer 1
        # table labels that no --modes token can name, refused before the swarm runs
        ["optimize", "--preset", "d1", "--label", "sr"],
        ["optimize", "--preset", "d1", "--label", "Half-Even"],
        ["optimize", "--preset", "d1", "--label", ""],
        ["optimize", "--preset", "d1", "--label", "d1,d2"],
        ["optimize", "--preset", "d1", "--label", " d1"],
        # a repeated mode or subject would write the same row twice
        ["experiment", "sum", "--case", "III", "--modes", "sr,sr", "--reps", "10"],
        ["experiment", "sum", "--case", "III", "--modes", "SR, sr", "--reps", "10"],
        ["experiment", "sum", "--case", "III,iii", "--modes", "sr", "--reps", "10"],
        ["experiment", "sqrt", "--values", "2,2.0", "--modes", "sr", "--reps", "10"],
        ["experiment", "dot", "--sizes", "50,050", "--modes", "sr", "--reps", "10"],
        ["round", "0.4", "--mode", "sr,cr"],
        # numbers too large to round or to hold in an int64
        ["experiment", "varbound", "--xmax", "1e300", "--step", "1e-300"],
        ["experiment", "sqrt", "--values", "2", "--modes", "sr", "--reps", "3",
         "--max-iter", "100000000000000000000000"],
        ["round", "0.4", "--n", "100000000000000000000000"],
        # an objective that ignores f, and booleans where numbers belong
        ["optimize", "--config", '{"theta1": 1.0, "theta2": 0.0}'],
        ["optimize", "--config", '{"theta1": 1.0, "theta2": -0.0, "v_max": 0.2, "k1": 1.0}'],
        ["optimize", "--config", '{"theta1": true, "theta2": false}'],
        ["optimize", "--config", '{"theta1": 0.5, "theta2": 0.5, "b_max": 0.05, "k2": true}'],
        # a seed outside [0, 2**64) names no stream of its own
        ["optimize", "--preset", "d1", "--grid-size", "5", "--iterations", "3", "--seed", "18446744073709551616"],
        ["optimize", "--preset", "d1", "--seed", "-1"],
        ["optimize", "--preset", "var-min-floor", "--seed", "-1"],
        ["round", "0.4", "--mode", "sr", "--seed", "-1"],
        ["round", "0.4", "--seed", "18446744073709551616"],
        ["experiment", "sum", "--case", "III", "--reps", "10", "--seed", "-1"],
        ["experiment", "sqrt", "--values", "2", "--modes", "cr", "--seed", "18446744073709551616"],
        ["experiment", "dot", "--sizes", "50", "--reps", "10", "--seed", "-1"],
        ["experiment", "varbound", "--step", "0.5", "--draws", "10", "--seed", "-1"],
    ],
)
def test_bad_input_is_one_line_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    config = None
    if "--config" in argv:  # the argument after it is the config file's text
        i = argv.index("--config") + 1
        config = tmp_path / "mop.json"
        config.write_text(argv[i])
        argv = [*argv[:i], str(config), *argv[i + 1:]]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *([] if argv[0] == "round" else ["--out", str(out)]))
    assert exc.value.code == 2
    usage, message = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: srlab")
    assert message.startswith("srlab: error: ")
    assert config is None or str(config) in message
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    # the parser restates the paper's parameters; each must stay the library's own default
    def defaults(func):
        return {name: param.default for name, param in inspect.signature(func).parameters.items()}

    def parse(*argv):
        return srlab.cli.build_parser().parse_args([*argv, *([] if argv[0] == "round" else ["--out", "x.csv"])])

    opt, pso = parse("optimize"), PsoConfig()
    assert (opt.iterations, opt.seed) == (pso.iterations, pso.seed)
    assert opt.grid_size == defaults(optimize_table)["grid_size"]
    sqrt, newton = parse("experiment", "sqrt"), NewtonConfig()
    assert (sqrt.tol, sqrt.max_iter, RoundingSpec(sqrt.n, sqrt.base)) == (newton.tol, newton.n_max, newton.spec)
    assert tuple(float(a) for a in sqrt.values.split(",")) == SQRT_TEST_VALUES
    assert parse("experiment", "sum").case.split(",") == [case.value for case in CaseId]
    assert tuple(int(n) for n in parse("experiment", "dot").sizes.split(",")) == DOT_SIZES
    for study, run in (("sum", run_summation_experiment), ("sqrt", run_sqrt_experiment),
                       ("dot", run_inner_product_experiment)):
        args = parse("experiment", study)
        assert (args.reps, args.seed) == (defaults(run)["n_reps"], defaults(run)["seed"]), study
    var, bound = parse("experiment", "varbound"), defaults(validate_variance_bound)
    assert (var.bits, var.xmax, var.step, var.draws, var.seed) == (
        bound["n_bits"], bound["x_max"], bound["step"], bound["draws"], bound["seed"])
    con, grid = parse("experiment", "contour"), defaults(contour_grid)
    assert ((0.0, con.x1_max), (0.0, 1.0), (con.res, con.res)) == (
        grid["x1_range"], grid["x2_range"], grid["resolution"])
    rnd = parse("round", "0.5")
    assert RoundingSpec(rnd.n, rnd.base) == RoundingSpec()
