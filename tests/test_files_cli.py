import json

import numpy as np
import pytest

from srlab.cli import main
from srlab.files import (
    format_number,
    read_distribution,
    write_csv,
    write_distribution,
)
from srlab.rounding import ProbabilityTable


@pytest.fixture()
def small_table():
    return ProbabilityTable(grid=np.linspace(0, 1, 5), p=[1.0, 0.7, 0.5, 0.3, 0.0], label="demo")


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

    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(3) == "3"
        assert format_number(0.1) == "0.10000000000000001"
        assert float(format_number(1 / 3)) == 1 / 3

    def test_write_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (None, "x")])
        assert path.read_text() == "a,b\n1,0.5\n,x\n"


def run_cli(*argv):
    return main(list(argv))


class TestRoundCommand:
    def test_deterministic_prints_once(self, capsys):
        assert run_cli("round", "1.6", "--mode", "half-even", "--count", "5") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["2"]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "contour", "--res", "3"],
            ["optimize", "--preset", "d1", "--grid-size", "5", "--iterations", "2"],
        ],
    )
    def test_unwritable_out_exits_1(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

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
        ["optimize", "--preset", "d1", "--swarm", "1"],
        ["optimize", "--preset", "d1", "--velocity-clamp", "2"],
        ["optimize", "--preset", "d1", "--inertia", "inf"],
        ["round", "1.5", "--n", "400", "--base", "10"],
        ["round", "1e300", "--n", "1023"],
        ["experiment", "sum", "--case", ","],
        ["experiment", "sqrt", "--values", ""],
        ["experiment", "dot", "--sizes", " "],
    ],
)
def test_bad_input_is_one_line_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *([] if argv[0] == "round" else ["--out", str(out)]))
    assert exc.value.code == 2
    usage, message = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: srlab")
    assert message.startswith("srlab: error: ")
    assert not out.exists()
