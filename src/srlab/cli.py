"""Command-line front end.

Subcommands: ``optimize`` (persist a probability table), ``round`` (round
values interactively), ``experiment`` with the studies ``sum``, ``sqrt``,
``dot``, ``varbound`` and ``contour``, and ``reproduce`` (the paper's seven
runs in one process).  All randomness flows from ``--seed`` (default 0,
never wall-clock), and equal invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .distopt import Preset, _provenance, bias_of_p, optimize_table, variance_of_p
from .experiments import (
    DOT_SIZES,
    SQRT_TEST_VALUES,
    CaseId,
    _SQRT_SPEC,
    _runs,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from .files import format_number, read_distribution, write_csv, write_distribution
from .rounding import SR, DeterministicMode, RoundingSpec, round_values
from .stats import contour_grid
from .streams import RandomStream, _integer

_ROUND_BLOCK = 1 << 16  # values per round_values call of ``round --count``, which bounds its memory
_BUILTIN_MODES = {m.label: m for m in (*DeterministicMode, SR)} | {"cr": DeterministicMode.HALF_EVEN}


def _check_label(label, where) -> None:
    """Reject a table label that no ``--modes`` token can name."""
    if not label or "," in label or label != label.strip():
        raise ValueError(f"{where}: table label {label!r} must be non-empty, without commas or surrounding spaces")
    if label.lower() in _BUILTIN_MODES:
        raise ValueError(f"{where}: table label {label!r} clashes with a builtin mode")


def _modes(text, paths, flag="--modes"):
    """The (token, mode) pairs that the comma list ``text`` names: builtin modes, and the tables of the
    ``--table`` files ``paths`` by case-insensitive label, which a token can name and no two files share."""
    known, files = dict(_BUILTIN_MODES), {}
    for path in paths or []:
        table = read_distribution(path).table
        _check_label(table.label, path)  # keeps table labels off the builtin names
        key = table.label.lower()
        if key in files:
            raise ValueError(f"{path}: table label {table.label!r} clashes with {files[key]}")
        known[key], files[key] = table, path

    def lookup(token):
        token = token.lower()
        if token not in known:
            raise ValueError(f"unknown mode {token!r}; available: {', '.join(sorted(known))}")
        return token

    return [(token, known[token]) for token in _subjects(text, lookup, flag)]


def _subjects(text, parse, flag):
    """Parse a comma list of study subjects; an empty list is an error."""
    try:
        subjects = [parse(token.strip()) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {flag} value {text!r}: {exc}") from exc
    if not subjects:
        raise ValueError(f"{flag} needs at least one value")
    if len(set(subjects)) < len(subjects):
        raise ValueError(f"bad {flag} value {text!r}: a value is repeated")
    return subjects


def _cmd_optimize(args) -> int:
    preset = Preset(args.preset)
    table = optimize_table(preset, grid_size=args.grid_size, seed=args.seed)
    write_distribution(args.out, table, provenance=_provenance(preset, args.seed))
    bias = bias_of_p(table.p, table.grid)
    var = variance_of_p(table.p)
    print(f"wrote {args.out}: {table.label}, {table.grid.size} nodes")
    print(f"bias     min {bias.min():.6g}  max {bias.max():.6g}")
    print(f"variance min {var.min():.6g}  max {var.max():.6g}")
    return 0


def _cmd_round(args) -> int:
    (_, mode), *rest = _modes(args.mode, args.table, "--mode")
    if rest:
        raise ValueError(f"--mode names one mode, got {args.mode!r}")
    count = _runs(mode, args.count, "--count")
    spec = RoundingSpec(args.n, args.base)
    rng = RandomStream(args.seed)
    for start in range(0, count, _ROUND_BLOCK):  # one stream: the draws of ``count`` scalar calls, in order
        block = round_values(np.full(min(_ROUND_BLOCK, count - start), args.x), mode, spec, rng)
        print("\n".join(f"{v:.17g}" for v in block.tolist()))
    return 0


def _cmd_experiment(args) -> int:
    header, rows = globals()[f"_{args.experiment}_study"](args)
    print(f"wrote {args.out} ({write_csv(args.out, header, rows)} rows)")
    return 0


def _per_mode(args, header, subjects, run, cells):
    """(header, rows) of a study: row ``cells(subject, token, run(subject, mode))``
    for each subject, then each requested mode."""
    modes = _modes(args.modes, args.table)
    return header, [cells(s, token, run(s, mode)) for s in subjects for token, mode in modes]


def _error_stats(s):
    return s.abs_bias, s.variance, s.mean_abs_rel_err


def _sum_study(args):
    return _per_mode(
        args, ["case", "mode", "abs_bias", "variance", "rel_err", "n"],
        _subjects(args.case, lambda token: CaseId(token.upper()), "--case"),
        lambda case, mode: run_summation_experiment(case, mode, n_reps=args.reps, seed=args.seed),
        lambda case, token, rep: (case.value, token, *_error_stats(rep.summary), rep.summary.n_samples))


def _sqrt_study(args):
    def cells(a, token, rep):  # run_sqrt_experiment rounds on its default grid, _SQRT_SPEC
        s = rep.summary
        stats = (None,) * 5 if s is None else (s.mu, *_error_stats(s), s.n_it_mean)
        return (a, token, _SQRT_SPEC.delta, *stats, rep.n_breakdowns)

    return _per_mode(
        args, ["a", "mode", "delta", "mu", "abs_bias", "variance", "rel_err", "n_it_mean", "breakdowns"],
        _subjects(args.values, float, "--values"),
        lambda a, mode: run_sqrt_experiment(a, mode, n_reps=args.reps, seed=args.seed), cells)


def _dot_study(args):
    return _per_mode(
        args, ["n", "mode", "abs_bias", "variance", "rel_err"], _subjects(args.sizes, int, "--sizes"),
        lambda n, mode: run_inner_product_experiment(n, mode, n_reps=args.reps, seed=args.seed),
        lambda n, token, rep: (n, token, *_error_stats(rep.summary)))


def _varbound_study(args):
    grid = validate_variance_bound(
        n_bits=args.bits, x_max=args.xmax, step=args.step, draws=args.draws, seed=args.seed)
    bound = format_number(grid.bound)
    cols = zip(grid.x.tolist(), grid.v_empirical.tolist(), grid.v_theoretical.tolist())
    rows = [f"{x:.17g},{ve:.17g},{vt:.17g},{bound}" for x, ve, vt in cols]
    return ["x", "v_empirical", "v_theoretical", "bound"], rows


def _contour_study(args):
    grid = contour_grid(args.x1_max, args.res)
    # a list (the benchmark's write_csv span calls len()) of preformatted lines, floats as
    # format_number writes them; x1, x2 and p (one per x1) repeat, so are formatted once
    x1, x2, p = ([format_number(v) for v in c.tolist()] for c in (grid.x1, grid.x2, grid.p))
    return ["x1", "x2", "e_down", "e_up", "p"], [
        f"{a},{b},{dn:.17g},{up:.17g},{pa}"
        for a, pa, dns, ups in zip(x1, p, grid.e_down, grid.e_up) for b, dn, up in zip(x2, dns.tolist(), ups.tolist())]


def _add_common_experiment_args(p, with_modes=True):
    if with_modes:
        p.add_argument("--modes", default="sr,cr", help="comma list of modes (builtin or table labels)")
        p.add_argument("--table", action="append", metavar="FILE", help="distribution file; adds its label as a mode")
        p.add_argument("--reps", type=int, default=10_000, help="repetitions per stochastic mode")
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srlab", description=__doc__)
    seeded = argparse.ArgumentParser(add_help=False)  # the parent of every subcommand
    seeded.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", parents=[seeded], help="optimize a rounding probability table")
    p_opt.add_argument("--preset", required=True, choices=[p.value for p in Preset], help="a named objective config")
    p_opt.add_argument("--grid-size", type=int, default=1001)
    p_opt.add_argument("--out", required=True, help="output JSON path")

    p_round = sub.add_parser("round", parents=[seeded], help="round one value and print the result(s)")
    p_round.add_argument("x", type=float)
    p_round.add_argument("--mode", default="half-even",
                         help="floor, ceil, half-up, half-down, half-even, half-odd, cr, sr, or a table label")
    p_round.add_argument("--n", type=int, default=0, help="fractional digits (default 0: integers)")
    p_round.add_argument("--base", type=int, default=2, help="2 or 10 (default 2)")
    p_round.add_argument("--count", type=int, default=1, help="number of stochastic draws to print")
    p_round.add_argument("--table", action="append", metavar="FILE")

    p_exp = sub.add_parser("experiment", help="run a study and write a CSV report")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    p_sum = exp_sub.add_parser("sum", parents=[seeded], help="rounded summation study")
    p_sum.add_argument("--case", default="I,II,III,IV", help="comma list from I,II,III,IV")
    _add_common_experiment_args(p_sum)

    p_sqrt = exp_sub.add_parser("sqrt", parents=[seeded], help="rounded Newton square-root study")
    p_sqrt.add_argument("--values", default=",".join(repr(v) for v in SQRT_TEST_VALUES))
    _add_common_experiment_args(p_sqrt)

    p_dot = exp_sub.add_parser("dot", parents=[seeded], help="rounded inner-product study")
    p_dot.add_argument("--sizes", default=",".join(str(n) for n in DOT_SIZES))
    _add_common_experiment_args(p_dot)

    p_var = exp_sub.add_parser("varbound", parents=[seeded], help="variance-bound validation grid")
    p_var.add_argument("--bits", type=int, default=4)
    p_var.add_argument("--xmax", type=float, default=2.0)
    p_var.add_argument("--step", type=float, default=1e-4)
    p_var.add_argument("--draws", type=int, default=10_000)
    _add_common_experiment_args(p_var, with_modes=False)

    p_con = exp_sub.add_parser("contour", parents=[seeded], help="worst-case product error grid")
    p_con.add_argument("--res", type=int, default=200)
    p_con.add_argument("--x1-max", type=float, default=5.0)
    _add_common_experiment_args(p_con, with_modes=False)

    p_rep = sub.add_parser("reproduce", parents=[seeded], help="run the paper's seven commands in this process")
    p_rep.add_argument("--out", dest="dir", metavar="DIR", required=True, help="directory for the seven files")

    return parser


def _check_out(path) -> None:
    """Fail before any work when ``--out`` is a directory, empty, or its directory is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _run(args) -> int:
    """Check ``--seed`` and ``--out``, then run the handler (and study) the parsed command names, looked up now."""
    _integer(args.seed, "seed", bits=64)
    if getattr(args, "out", None) is not None:
        _check_out(args.out)
    return globals()[f"_cmd_{args.command}"](args)


_PARSER = build_parser()  # the process's one parser, which every main call uses
_PAPER_MODES = ("--modes", "sr,cr,d1,d2", "--table", "d1.json", "--table", "d2.json")
_PAPER_RUNS = (  # (output file, argv) in order; reproduce puts output files (argv's, --out) in DIR, adds --seed
    ("d1.json", ("optimize", "--preset", "d1")),
    ("d2.json", ("optimize", "--preset", "d2")),
    ("sum.csv", ("experiment", "sum", *_PAPER_MODES)),
    ("sqrt.csv", ("experiment", "sqrt", *_PAPER_MODES)),
    ("dot.csv", ("experiment", "dot", *_PAPER_MODES)),
    ("varbound.csv", ("experiment", "varbound")),
    ("contour.csv", ("experiment", "contour")),
)


def _cmd_reproduce(args) -> int:
    """Parse every paper run and check its ``--out`` before running any, each as its own command."""
    paths = {name: os.path.join(args.dir, name) if args.dir else "" for name, _ in _PAPER_RUNS}  # "" is refused
    runs = [_PARSER.parse_args([*(paths.get(a, a) for a in argv), "--seed", str(args.seed), "--out", paths[name]])
            for name, argv in _PAPER_RUNS]
    for run in runs:
        _check_out(run.out)
    for run in runs:
        _run(run)
    return 0


def main(argv=None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except OSError as exc:  # a file that cannot be opened or written
        parser.exit(1, f"srlab: {exc}\n")
    except ValueError as exc:  # bad input, including a file with invalid contents
        parser.error(str(exc))
    except OverflowError as exc:  # a number too large to convert, such as an int64 count
        parser.error(f"number out of range: {exc}")
    except MemoryError as exc:  # a request too large to allocate
        parser.error(f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())
