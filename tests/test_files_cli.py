import argparse
import dataclasses
import hashlib
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
    RoundingSpec,
    optimize_table,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from srlab import distopt
from srlab.cli import build_parser, main
from srlab.files import (
    format_number,
    read_distribution,
    write_csv,
    write_distribution,
)
from srlab.rounding import SR, ProbabilityTable, round_values
from srlab.streams import RandomStream
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
        write_distribution(path, small_table, provenance={"seed": 3})
        loaded = read_distribution(path)
        assert loaded.table == small_table
        # a file's version and delta are always 1, so the table and provenance are all a read returns
        assert [field.name for field in dataclasses.fields(loaded)] == ["table", "provenance"]
        assert "delta" not in inspect.signature(write_distribution).parameters
        with pytest.raises(TypeError):  # a delta passed by position is not taken for the provenance
            write_distribution(tmp_path / "x.json", small_table, 1.0)
        second = tmp_path / "t2.json"
        write_distribution(second, loaded.table, provenance=loaded.provenance)
        assert path.read_bytes() == second.read_bytes()

    def test_floats_survive_exactly(self, tmp_path):
        table = ProbabilityTable(grid=[0.0, 0.1, 1.0], p=[1.0, 1 / 3, 0.0], label="x")
        path = tmp_path / "t.json"
        write_distribution(path, table)
        loaded = read_distribution(path)
        assert np.array_equal(loaded.table.grid, table.grid)
        assert np.array_equal(loaded.table.p, table.p)

    @pytest.mark.parametrize("kwargs", [
        {"provenance": {"seed": float("inf")}}, {"provenance": {"mop": {"b_max": float("-inf")}}},
        {"provenance": {"seed": np.float32(0.5)}}, {"provenance": {"seed": np.bool_(True)}},
        {"provenance": {"seeds": {1, 2}}}, {"provenance": {(0, 1): "key"}},
        {"provenance": {"seed": float("nan")}}, {"provenance": {"seed": np.int64(3)}},
        {"provenance": [1]}, {"provenance": 0}, {"provenance": ""},
    ])
    def test_refused_write_leaves_the_file_alone(self, kwargs, tmp_path, small_table):
        # provenance that is no dict, or has no standard JSON text, fails before any byte is written
        path, absent = tmp_path / "t.json", tmp_path / "absent.json"
        write_distribution(path, small_table)
        before = path.read_bytes()
        for target in (path, absent):
            with pytest.raises((TypeError, ValueError)):
                write_distribution(target, small_table, **kwargs)
        assert path.read_bytes() == before and not absent.exists()

    def test_invalid_files_rejected(self, tmp_path, capsys):
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
                             ("delta", 10**400),  # a 401-digit integer literal, which has no double
                             ("grid", 0.5), ("p", [True, False]), ("p", ["1", 0]), ("p", [[1.0], [0.0]]),
                             # delta is the JSON number 1, the one delta written: any other is refused
                             ("delta", 2), ("delta", 2.0), ("delta", 0.5), ("delta", "1"), ("delta", None)]:
            path = _write_json(tmp_path / f"{field}.json", good | {field: value})
            with pytest.raises(ValueError, match=f"{path}: not a valid distribution file: .*{field}"):
                read_distribution(path)
        # what the reader accepts, written again, reads back equal: delta 1 or 1.0, an integer grid,
        # provenance present or absent
        expected = ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 0.0], label="x")
        for variant in ({"delta": 1}, {"delta": 1.0, "grid": [0, 1], "p": [1, 0]}, {"provenance": {"seed": 3}}):
            for payload in (good | variant, {k: v for k, v in (good | variant).items() if k != "provenance"}):
                first = read_distribution(_write_json(tmp_path / "accepted.json", payload))
                assert first.table == expected and first.provenance == payload.get("provenance", {})
                write_distribution(tmp_path / "again.json", first.table, provenance=first.provenance)
                assert read_distribution(tmp_path / "again.json") == first
        # a table file with another delta is a usage error on the command line, and no report is written
        two = _write_json(tmp_path / "two.json", good | {"delta": 2})
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "sum", "--case", "III", "--modes", "x", "--table", str(two),
                    "--out", str(tmp_path / "sum.csv"))
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message == f"srlab: error: {two}: not a valid distribution file: delta must be 1, got 2"
        assert not (tmp_path / "sum.csv").exists()
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


def _no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran the work before checking the input")

    for name in ("optimize_table", "_sum_study", "_sqrt_study", "_dot_study", "_varbound_study", "_contour_study"):
        monkeypatch.setattr(srlab.cli, name, no_work)


class TestRoundCommand:
    def test_deterministic_prints_once(self, capsys):
        for count in ("5", str(2**16 + 1)):
            assert run_cli("round", "1.6", "--mode", "half-even", "--count", count) == 0
            out = capsys.readouterr().out.strip().splitlines()
            assert out == ["2"]

    @pytest.mark.parametrize("count", [1, 64, 65, 129])
    def test_count_prints_what_scalar_calls_print(self, count, tmp_path, capsys, small_table, monkeypatch):
        # --count k rounds blocks of up to _ROUND_BLOCK values, each taking the next draws of one
        # stream; blocks of 64, not 2**16, keep the k scalar calls of the reference cheap
        monkeypatch.setattr(srlab.cli, "_ROUND_BLOCK", 64)
        path = tmp_path / "t.json"
        write_distribution(path, small_table)
        for label, mode in (("sr", SR), ("demo", small_table)):
            assert run_cli("round", "0.30146", "--mode", label, "--table", str(path), "--n", "3", "--base", "10",
                           "--seed", "3", "--count", str(count)) == 0
            rng = RandomStream(3)
            expected = [f"{round_values(0.30146, mode, RoundingSpec(3, 10), rng):.17g}\n" for _ in range(count)]
            assert capsys.readouterr().out == "".join(expected)

    def test_count_across_full_blocks(self, capsys):
        # two blocks, of 2**16 and 34 464 values: the sha256 of what 100 000 scalar calls printed
        assert srlab.cli._ROUND_BLOCK == 2**16
        assert run_cli("round", "0.4", "--mode", "sr", "--seed", "7", "--count", "100000") == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "6ba71b1529f664a0697ca18af0d8e8f5a52ef5701dab8506f59f878399c419bb"

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
        assert run_cli("round", "0.4", "--mode", "demo", "--table", str(path), "--count", "3") == 0
        values = {float(line) for line in capsys.readouterr().out.split()}
        assert values <= {0.0, 1.0}

    def test_nan_table_is_usage_error_naming_the_file(self, tmp_path, capsys):
        nan = tmp_path / "nan.json"
        nan.write_text('{"format_version": 1, "label": "nan", "delta": 1.0, "grid": [0.0, 1.0], "p": [NaN, NaN]}')
        with pytest.raises(SystemExit) as exc:
            run_cli("round", "0.4", "--mode", "table", "--table", str(nan), "--count", "3")
        assert exc.value.code == 2
        assert str(nan) in capsys.readouterr().err

    def test_mode_names_a_table_by_its_label(self, tmp_path, capsys):
        down, up, table = tmp_path / "down.json", tmp_path / "up.json", tmp_path / "table.json"
        write_distribution(down, ProbabilityTable(grid=[0.0, 1.0], p=[1.0, 1.0], label="d1"))
        write_distribution(up, ProbabilityTable(grid=[0.0, 1.0], p=[0.0, 0.0], label="d2"))
        write_distribution(table, ProbabilityTable(grid=[0.0, 1.0], p=[0.0, 0.0]))  # the default label, "table"
        assert run_cli("round", "0.4", "--mode", "d1", "--table", str(up), "--table", str(down), "--count", "4") == 0
        assert capsys.readouterr().out.split() == ["0"] * 4
        with pytest.raises(SystemExit) as exc:  # "table" is no mode of its own
            run_cli("round", "0.4", "--mode", "table", "--table", str(down), "--table", str(up))
        assert exc.value.code == 2
        assert "unknown mode 'table'" in capsys.readouterr().err
        assert run_cli("round", "0.4", "--mode", "table", "--table", str(down), "--table", str(table),
                       "--count", "4") == 0
        assert capsys.readouterr().out.split() == ["1"] * 4


class TestOptimizeCommand:
    def test_preset_writes_distribution(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(distopt._SWARM, "iterations", 60)
        out = tmp_path / "bias.json"
        code = run_cli("optimize", "--preset", "bias-min", "--grid-size", "41", "--out", str(out))
        assert code == 0
        loaded = read_distribution(out)
        assert np.max(np.abs(loaded.table.p - (1.0 - loaded.table.grid))) < 1e-3
        assert loaded.provenance["pso"]["iterations"] == 60
        assert "bias" in capsys.readouterr().out

    def test_provenance_records_the_swarm(self, tmp_path):
        # each preset's objective under the seven keys table files carry, in their order and
        # with their bytes, then the swarm's fixed settings and the seed, then the seed again
        mop = '"v_max": null, "b_max": {}, "k1": 0.0, "k2": {}, "delta": 1.0}}'
        records = {
            "bias-min": '{"theta1": 0.0, "theta2": 1.0, ' + mop.format("null", "0.0"),
            "var-min-floor": '{"theta1": 1.0, "theta2": 0.0, ' + mop.format("null", "0.0"),
            "var-min-ceil": '{"theta1": 1.0, "theta2": 0.0, ' + mop.format("null", "0.0"),
            "nearest-like": '{"theta1": 0.98, "theta2": 0.02, ' + mop.format("null", "0.0"),
            "d1": '{"theta1": 0.5, "theta2": 0.5, ' + mop.format("null", "0.0"),
            "d2": '{"theta1": 0.5, "theta2": 0.5, ' + mop.format("0.05", "10000000000.0"),
        }
        assert sorted(records) == sorted(preset.value for preset in distopt.Preset)
        for preset, record in records.items():
            out = tmp_path / f"{preset}.json"
            assert run_cli("optimize", "--preset", preset, "--grid-size", "5", "--seed", str(2**64 - 1),
                           "--out", str(out)) == 0
            provenance = read_distribution(out).provenance
            assert list(provenance) == ["mop", "pso", "seed"]
            assert json.dumps(provenance["mop"]) == record
            assert list(provenance["pso"].items()) == [
                ("swarm_size", 50), ("iterations", 200), ("inertia", 0.729), ("cognitive", 1.49445),
                ("social", 1.49445), ("velocity_clamp", 0.5), ("seed", 2**64 - 1)]
            assert provenance["seed"] == 2**64 - 1

    def test_capped_preset_respects_cap(self, tmp_path):
        out = tmp_path / "d2.json"
        run_cli("optimize", "--preset", "d2", "--grid-size", "101", "--out", str(out))
        loaded = read_distribution(out)
        from srlab.distopt import bias_of_p

        assert np.max(np.abs(bias_of_p(loaded.table.p, loaded.table.grid))) <= 0.051

    def test_var_min_floor_all_ones(self, tmp_path):
        out = tmp_path / "floor.json"
        run_cli("optimize", "--preset", "var-min-floor", "--grid-size", "21", "--out", str(out))
        loaded = read_distribution(out)
        assert np.all(loaded.table.p == 1.0)

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        # a preset is the one source, and --config is no option; the subcommand's usage may wrap,
        # so only the last line is read
        out = str(tmp_path / "x.json")
        for argv, message in (
                (("optimize", "--out", out), "srlab optimize: error: the following arguments are required: --preset"),
                (("optimize", "--preset", "d1", "--config", "c.json", "--out", out),
                 "srlab: error: unrecognized arguments: --config c.json")):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == message
        assert not (tmp_path / "x.json").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("optimize", "--preset", "zzz", "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("srlab optimize: error: argument --preset: invalid choice: 'zzz'")
        assert not (tmp_path / "x.json").exists()


class TestExperimentCommands:
    def _tables(self, tmp_path, monkeypatch):
        monkeypatch.setitem(distopt._SWARM, "iterations", 60)
        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        run_cli("optimize", "--preset", "d1", "--grid-size", "41", "--out", str(d1))
        run_cli("optimize", "--preset", "d2", "--grid-size", "41", "--out", str(d2))
        return d1, d2

    def test_sum_csv(self, tmp_path, monkeypatch):
        d1, d2 = self._tables(tmp_path, monkeypatch)
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
        for contents in (b"{oops", b"\xff{"):  # not JSON, and not UTF-8, which JSON text is
            bad.write_bytes(contents)
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
        grid = contour_grid(x1_max, res)
        assert grid.p.shape == (res,)  # p depends on x1 alone
        columns = (*np.meshgrid(grid.x1, grid.x2, indexing="ij"), grid.e_down, grid.e_up,
                   np.broadcast_to(grid.p[:, None], (res, res)))
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
            ["optimize", "--preset", "d1", "--grid-size", "5"],
        ],
    )
    def test_unwritable_out_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        _no_work(monkeypatch)
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
        # on the paper's grid (three decimals) cr rounds the radicand 0.0001 to 0, a breakdown
        out = tmp_path / "sqrt.csv"
        code = run_cli(
            "experiment", "sqrt", "--values", "0.0001,51.16904",
            "--modes", "sr,cr", "--reps", "200", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,mode,delta,mu,abs_bias,variance,rel_err,n_it_mean,breakdowns"
        assert {l.split(",")[2] for l in lines[1:]} == {"0.001"}
        cr_small = next(l for l in lines[1:] if l.split(",")[1] == "cr" and float(l.split(",")[0]) == 0.0001)
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

    def test_varbound_refuses_a_grid_finer_than_a_double(self, tmp_path, capsys):
        # from x_max 2**n_bits = 2**53 on, no x rounds, and the variance reported would be
        # the error of a mean of equal doubles, far above the bound
        out = tmp_path / "v.csv"
        for bits in ("60", "600"):
            with pytest.raises(SystemExit) as exc:
                run_cli("experiment", "varbound", "--bits", bits, "--step", "0.1", "--xmax", "0.3",
                        "--draws", "1000", "--out", str(out))
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"srlab: error: x_max * 2**n_bits must be below 2**53, got x_max 0.3 with n_bits {bits}")
            assert not out.exists()
        with pytest.raises(ValueError, match=r"^x_max \* 2\*\*n_bits must be below 2\*\*53"):
            validate_variance_bound(n_bits=51, x_max=4.0, step=1.0, draws=1)
        assert validate_variance_bound(n_bits=50, x_max=4.0, step=1.0, draws=1).x.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_varbound_refuses_a_grid_that_ends_past_the_limit(self, tmp_path, capsys):
        # x_max / step = 1.58 rounds up, so the grid ends at 2.4, past x_max 1.9, and 2.4 * 2**52 >= 2**53
        out = tmp_path / "v.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "varbound", "--bits", "52", "--xmax", "1.9", "--step", "1.2",
                    "--draws", "1000", "--out", str(out))
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "srlab: error: the last grid point x * 2**n_bits must be below 2**53, got x 2.4, n_bits 52")
        assert not out.exists()
        with pytest.raises(ValueError, match=r"^the last grid point x \* 2\*\*n_bits .* got x 2\.4, n_bits 52$"):
            validate_variance_bound(n_bits=52, x_max=1.9, step=1.2, draws=1)
        assert validate_variance_bound(n_bits=51, x_max=1.9, step=1.2, draws=1).x.tolist() == [0.0, 1.2, 2.4]

    def test_contour_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("experiment", "contour", "--res", "20", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,e_down,e_up,p"
        assert len(lines) == 401

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        d1, _ = self._tables(tmp_path, monkeypatch)
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


class TestOneProcess:
    def test_parser_built_once_across_main_calls(self, monkeypatch, capsys):
        # the one parser is built on import; main calls only use it
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(srlab.cli, "build_parser", counting_build)
        assert run_cli("round", "1.6") == 0 and run_cli("round", "0.4", "--mode", "ceil") == 0
        assert builds == []
        assert capsys.readouterr().out == "2\n1\n"

    def test_a_study_patched_after_a_main_call_runs(self, tmp_path, monkeypatch, capsys):
        assert run_cli("round", "1.6") == 0  # the parser exists before the patch
        monkeypatch.setattr(srlab.cli, "_contour_study", lambda args: (["a", "b"], [(1, "x"), (2.5, "y")]))
        out = tmp_path / "c.csv"
        assert run_cli("experiment", "contour", "--out", str(out)) == 0
        assert out.read_text() == "a,b\n1,x\n2.5,y\n"

    def test_help_lists_reproduce(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "reproduce" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_reproduce_into_no_directory_exits_1(self, kind, tmp_path, capsys, monkeypatch):
        _no_work(monkeypatch)
        target = tmp_path / "repro"
        if kind == "file":
            target.write_text("")
        with pytest.raises(SystemExit) as exc:
            run_cli("reproduce", "--out", str(target))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: ") and str(target) in err and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ([] if kind == "missing" else ["repro"])

    @pytest.mark.parametrize("order", [1, -1])  # reversed, contour, which draws nothing, runs first
    def test_reproduce_bad_seed_exits_2_before_any_work(self, order, tmp_path, capsys, monkeypatch):
        _no_work(monkeypatch)
        monkeypatch.setattr(srlab.cli, "_PAPER_RUNS", srlab.cli._PAPER_RUNS[::order])
        with pytest.raises(SystemExit) as exc:
            run_cli("reproduce", "--out", str(tmp_path), "--seed", "-1")
        assert exc.value.code == 2
        usage, message = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: srlab") and message == "srlab: error: seed must be an integer in [0, 2**64), got -1"
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_checks_every_out_before_any_work(self, tmp_path, capsys, monkeypatch):
        _no_work(monkeypatch)
        (tmp_path / "contour.csv").mkdir()  # the last run's output is a directory
        with pytest.raises(SystemExit) as exc:
            run_cli("reproduce", "--out", str(tmp_path))
        assert exc.value.code == 1
        assert str(tmp_path / "contour.csv") in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["contour.csv"]

    @pytest.mark.parametrize("argv", [["reproduce"], ["experiment", "sum"], ["optimize", "--preset", "d1"]])
    def test_empty_out_exits_1_before_any_work(self, argv, tmp_path, capsys, monkeypatch):
        # an empty --out names no file: reproduce must not write into the working directory, nor sum run its study
        _no_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", "")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("srlab: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


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
        ["experiment", "sqrt", "--values", "nan", "--modes", "sr", "--reps", "5"],
        ["experiment", "varbound", "--step", "inf"],
        ["experiment", "contour", "--x1-max", "inf"],
        # 2e14 grid points (1.6 PB) exceed any address space, so nothing is allocated
        ["experiment", "varbound", "--step", "1e-14"],
        # NaN where a real belongs, and values that are no numbers
        ["round", "nan", "--mode", "sr"],
        ["experiment", "varbound", "--step", "nan"],
        ["experiment", "varbound", "--xmax", "nan"],
        ["experiment", "contour", "--x1-max", "nan"],
        ["experiment", "sqrt", "--values", "abc"],
        ["experiment", "dot", "--sizes", "2.5"],
        # raise statements reached only by these inputs
        ["experiment", "dot", "--sizes", "1"],
        ["experiment", "sum", "--modes", ","],
        ["round", "0.4", "--mode", "table"],
        ["experiment", "contour", "--x1-max", "2", "--res", "1"],  # the one cell's x1 is the integer 1
        # counts and reals just outside their range, at its low end
        ["round", "0.4", "--n", "-1"],
        ["experiment", "varbound", "--bits", "-1"],
        ["experiment", "contour", "--x1-max", "0"],
        ["experiment", "sqrt", "--values", "0", "--modes", "cr"],
        ["experiment", "dot", "--sizes", "50", "--modes", "sr", "--reps", "0"],
        # a repeated mode or subject would write the same row twice
        ["experiment", "sum", "--case", "III", "--modes", "sr,sr", "--reps", "10"],
        ["experiment", "sum", "--case", "III", "--modes", "SR, sr", "--reps", "10"],
        ["experiment", "sum", "--case", "III,iii", "--modes", "sr", "--reps", "10"],
        ["experiment", "sqrt", "--values", "2,2.0", "--modes", "sr", "--reps", "10"],
        ["experiment", "dot", "--sizes", "50,050", "--modes", "sr", "--reps", "10"],
        ["round", "0.4", "--mode", "sr,cr"],
        # numbers too large to round or to hold in an int64
        ["experiment", "varbound", "--xmax", "1e300", "--step", "1e-300"],
        ["experiment", "sqrt", "--values", "2", "--modes", "sr", "--reps", "100000000000000000000000"],
        ["round", "0.4", "--n", "100000000000000000000000"],
        # a grid size refused where no swarm runs, an unknown case, the least count refused (2**62), a negative step
        ["optimize", "--preset", "var-min-ceil", "--grid-size", "1"],
        ["experiment", "sum", "--case", "V"],
        ["experiment", "contour", "--res", "4611686018427387904"],
        ["experiment", "varbound", "--step", "-1"],
        # a seed outside [0, 2**64) names no stream of its own
        ["optimize", "--preset", "d1", "--grid-size", "5", "--seed", "18446744073709551616"],
        ["optimize", "--preset", "d1", "--seed", "-1"],
        ["optimize", "--preset", "var-min-floor", "--seed", "-1"],
        ["round", "0.4", "--mode", "sr", "--seed", "-1"],
        ["round", "0.4", "--seed", "18446744073709551616"],
        ["experiment", "sum", "--case", "III", "--reps", "10", "--seed", "-1"],
        ["experiment", "sqrt", "--values", "2", "--modes", "cr", "--seed", "18446744073709551616"],
        ["experiment", "dot", "--sizes", "50", "--reps", "10", "--seed", "-1"],
        ["experiment", "varbound", "--step", "0.5", "--draws", "10", "--seed", "-1"],
        # a radicand that is not finite, and counts outside [least, 2**62)
        ["experiment", "sqrt", "--values", "inf", "--modes", "cr"],
        ["round", "0.4", "--mode", "sr", "--count", "18446744073709551616"],
        ["experiment", "contour", "--res", "18446744073709551616"],
        ["experiment", "dot", "--sizes", "50,1", "--reps", "3"],
        # products whose error branches overflow, a base that RoundingSpec alone refuses,
        # and a table label without its --table file
        ["experiment", "contour", "--x1-max", "1e-310", "--res", "2"],
        ["experiment", "contour", "--x1-max", "1e308", "--res", "3"],
        ["round", "0.4", "--base", "3"],
        ["experiment", "sqrt", "--values", "2", "--modes", "d1"],
        # counts that numpy cannot size (np.arange(2**63 - 1) is empty), a radicand of -0.0,
        # and a radicand that overflows once scaled by the grid
        ["experiment", "sqrt", "--values", "2", "--modes", "sr", "--reps", "9223372036854775807"],
        ["experiment", "dot", "--sizes", "9223372036854775807", "--modes", "cr", "--reps", "1"],
        ["optimize", "--preset", "d1", "--grid-size", "9223372036854775807"],
        ["experiment", "sqrt", "--values", "-0.0", "--modes", "cr"],
        ["experiment", "sqrt", "--values", "1e308", "--modes", "cr"],
        # the square-root study's stopping rule (1e-5, at most 100 steps) has no flags
        ["experiment", "sqrt", "--values", "2", "--modes", "cr", "--tol", "1e-5"],
        ["experiment", "sqrt", "--values", "2", "--modes", "cr", "--max-iter", "100"],
        # grid sizes x_max / step + 1 beyond every count, and a quotient that overflows
        ["experiment", "varbound", "--xmax", "9223372036854775000", "--step", "1"],
        ["experiment", "varbound", "--xmax", "1e20", "--step", "1"],
        ["experiment", "varbound", "--xmax", "1e308", "--step", "1e-308"],
        # a bad seed is refused by every command, also one that draws nothing
        ["experiment", "contour", "--res", "2", "--seed", "-1"],
        ["experiment", "contour", "--res", "2", "--seed", "18446744073709551616"],
        # the swarm's settings are fixed and have no flags
        ["optimize", "--preset", "d1", "--iterations", "5"],
        # a preset is the one source of an objective: --config and --label are gone
        ["optimize", "--preset", "d1", "--config", "c.json"],
        ["optimize", "--preset", "d1", "--label", "x"],
        # the square-root study runs on the paper's grid: --n and --base are gone
        ["experiment", "sqrt", "--n", "3"],
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


@pytest.mark.parametrize("argv, message", [
    (["round", "0.4", "--mode", "sr,cr"], "--mode names one mode, got 'sr,cr'"),
    (["round", "0.4", "--mode", ","], "--mode needs at least one value"),
    (["experiment", "sum", "--modes", "sr,SR"], "bad --modes value 'sr,SR': a value is repeated"),
    (["experiment", "sum", "--modes", ","], "--modes needs at least one value"),
    (["experiment", "sum", "--modes", "sr,d1"], "bad --modes value 'sr,d1': unknown mode 'd1'; available: "),
])
def test_modes_share_the_comma_list_parser(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *([] if argv[0] == "round" else ["--out", str(out)]))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"srlab: error: {message}")
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    # the parser restates the paper's parameters; each must stay the library's own default
    def defaults(func):
        return {name: param.default for name, param in inspect.signature(func).parameters.items()}

    def parse(*argv):
        return srlab.cli.build_parser().parse_args([*argv, *([] if argv[0] == "round" else ["--out", "x.csv"])])

    opt = parse("optimize", "--preset", "d1")
    assert (opt.grid_size, opt.seed) == (defaults(optimize_table)["grid_size"], defaults(optimize_table)["seed"])
    sqrt = parse("experiment", "sqrt")
    # the command has no grid flags: it rounds on, and writes the delta of, the library's default grid
    assert not hasattr(sqrt, "n") and not hasattr(sqrt, "base")
    assert srlab.cli._SQRT_SPEC is defaults(run_sqrt_experiment)["spec"] == RoundingSpec(3, 10)
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
    assert (con.x1_max, con.res) == (grid["x1_max"], grid["resolution"])
    rnd = parse("round", "0.5")
    assert RoundingSpec(rnd.n, rnd.base) == RoundingSpec()
