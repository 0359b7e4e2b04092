"""Command-line front end.

Subcommands: ``optimize`` (build and persist a probability table),
``round`` (round values interactively), and ``experiment`` with the study
runners ``sum``, ``sqrt``, ``dot``, ``varbound`` and ``contour``.  All
randomness flows from ``--seed`` (default 0, never wall-clock), and equal
invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys

from .distopt import (
    MopConfig,
    Preset,
    PsoConfig,
    bias_of_p,
    optimize_table,
    preset_config,
    variance_of_p,
)
from .experiments import (
    DOT_SIZES,
    SQRT_TEST_VALUES,
    CaseId,
    NewtonConfig,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from .files import format_number, read_distribution, write_csv, write_distribution
from .rounding import SR, DeterministicMode, RoundingSpec, round_values
from .stats import contour_grid
from .streams import RandomStream

_BUILTIN_MODES = {m.label: m for m in (*DeterministicMode, SR)} | {"cr": DeterministicMode.HALF_EVEN}


def _check_label(label, where) -> None:
    """Reject a table label that no ``--modes`` token can name."""
    if not label or "," in label or label != label.strip():
        raise ValueError(f"{where}: table label {label!r} must be non-empty, without commas or surrounding spaces")
    if label.lower() in _BUILTIN_MODES:
        raise ValueError(f"{where}: table label {label!r} clashes with a builtin mode")


def _load_tables(paths):
    """Tables by case-insensitive label, which a ``--modes`` token can name and no two files share."""
    tables, files = {}, {}
    for path in paths or []:
        table = read_distribution(path).table
        _check_label(table.label, path)
        key = table.label.lower()
        if key in files:
            raise ValueError(f"{path}: table label {table.label!r} clashes with {files[key]}")
        tables[key], files[key] = table, path
    return tables


def _resolve_modes(spec_text, tables):
    known = _BUILTIN_MODES | tables  # _check_label keeps table labels off the builtin names
    modes = {}
    for token in spec_text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token in modes:
            raise ValueError(f"mode {token!r} requested twice")
        if token not in known:
            raise ValueError(f"unknown mode {token!r}; available: {', '.join(sorted(known))}")
        modes[token] = known[token]
    if not modes:
        raise ValueError("no modes requested")
    return list(modes.items())


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
    if (args.preset is None) == (args.config is None):
        raise ValueError("give exactly one of --preset or --config")
    if args.label is not None:
        _check_label(args.label, "--label")
    if args.preset is not None:
        names = [p.value for p in Preset]
        if args.preset not in names:
            raise ValueError(f"unknown preset {args.preset!r}; choose from {', '.join(names)}")
        target = Preset(args.preset)
        mop = preset_config(target)
    else:
        with open(args.config) as fh:
            text = fh.read()
        try:
            mop = target = MopConfig(**json.loads(text))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.config}: invalid objective config: {exc}") from exc
    pso = PsoConfig(swarm_size=args.swarm, iterations=args.iterations, inertia=args.inertia, cognitive=args.cognitive,
                    social=args.social, velocity_clamp=args.velocity_clamp, seed=args.seed)
    table = optimize_table(target, grid_size=args.grid_size, pso=pso, label=args.label)
    provenance = {"mop": dataclasses.asdict(mop), "pso": dataclasses.asdict(pso), "seed": pso.seed}
    write_distribution(args.out, table, delta=mop.delta, provenance=provenance)
    bias = bias_of_p(table.p, table.grid, mop.delta)
    var = variance_of_p(table.p, mop.delta)
    print(f"wrote {args.out}: {table.label}, {table.grid.size} nodes")
    print(f"bias     min {bias.min():.6g}  max {bias.max():.6g}")
    print(f"variance min {var.min():.6g}  max {var.max():.6g}")
    return 0


def _cmd_round(args) -> int:
    token = args.mode.strip().lower()
    if token == "table":  # the first file, whatever the labels
        if not args.table:
            raise ValueError("--mode table needs a --table file")
        mode = [read_distribution(path).table for path in args.table][0]
    else:
        modes = _resolve_modes(token, _load_tables(args.table))
        if len(modes) > 1:
            raise ValueError(f"--mode names one mode, got {args.mode!r}")
        mode = modes[0][1]
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    spec = RoundingSpec(args.n, args.base)
    rng = RandomStream(args.seed)
    count = 1 if isinstance(mode, DeterministicMode) else args.count
    for _ in range(count):
        print(f"{round_values(args.x, mode, spec, rng):.17g}")
    return 0


def _cmd_experiment(args) -> int:
    header, rows = args.study(args)
    print(f"wrote {args.out} ({write_csv(args.out, header, rows)} rows)")
    return 0


def _per_mode(args, header, subjects, run, cells):
    """(header, rows) of a study: row ``cells(subject, token, run(subject, mode))``
    for each subject, then each requested mode."""
    modes = _resolve_modes(args.modes, _load_tables(args.table))
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
    cfg = NewtonConfig(tol=args.tol, n_max=args.max_iter, spec=RoundingSpec(args.n, args.base))

    def cells(a, token, rep):
        s = rep.summary
        stats = (None,) * 5 if s is None else (s.mu, *_error_stats(s), s.n_it_mean)
        return (a, token, cfg.spec.delta, *stats, rep.n_breakdowns)

    return _per_mode(
        args, ["a", "mode", "delta", "mu", "abs_bias", "variance", "rel_err", "n_it_mean", "breakdowns"],
        _subjects(args.values, float, "--values"),
        lambda a, mode: run_sqrt_experiment(a, mode, cfg, n_reps=args.reps, seed=args.seed), cells)


def _dot_study(args):
    sizes = _subjects(args.sizes, int, "--sizes")
    if min(sizes) < 2:
        raise ValueError("sizes must be at least 2")
    return _per_mode(
        args, ["n", "mode", "abs_bias", "variance", "rel_err"], sizes,
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
    grid = contour_grid((0.0, args.x1_max), (0.0, 1.0), (args.res, args.res))
    # a list (the benchmark's write_csv span calls len()) of preformatted lines, floats as
    # format_number writes them; x1, x2 and p (p depends on x1 alone) repeat, so are formatted once
    x1, x2, p = ([format_number(v) for v in c.tolist()] for c in (grid.x1, grid.x2, grid.p[:, 0]))
    return ["x1", "x2", "e_down", "e_up", "p"], [
        f"{a},{b},{dn:.17g},{up:.17g},{pa}"
        for a, pa, dns, ups in zip(x1, p, grid.e_down, grid.e_up) for b, dn, up in zip(x2, dns.tolist(), ups.tolist())]


def _add_common_experiment_args(p, study, with_modes=True):
    p.set_defaults(handler=_cmd_experiment, study=study)
    if with_modes:
        p.add_argument("--modes", default="sr,cr", help="comma list of modes (builtin or table labels)")
        p.add_argument("--table", action="append", metavar="FILE", help="distribution file; adds its label as a mode")
        p.add_argument("--reps", type=int, default=10_000, help="repetitions per stochastic mode")
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize a rounding probability table")
    p_opt.set_defaults(handler=_cmd_optimize)
    p_opt.add_argument("--preset", help=f"one of {', '.join(p.value for p in Preset)}")
    p_opt.add_argument("--config", help="JSON file with objective-config fields")
    p_opt.add_argument("--grid-size", type=int, default=1001)
    p_opt.add_argument("--swarm", type=int, default=50)
    p_opt.add_argument("--iterations", type=int, default=200)
    p_opt.add_argument("--inertia", type=float, default=0.729)
    p_opt.add_argument("--cognitive", type=float, default=1.49445)
    p_opt.add_argument("--social", type=float, default=1.49445)
    p_opt.add_argument("--velocity-clamp", type=float, default=0.5)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--label", default=None, help="override the stored label")
    p_opt.add_argument("--out", required=True, help="output JSON path")

    p_round = sub.add_parser("round", help="round one value and print the result(s)")
    p_round.set_defaults(handler=_cmd_round)
    p_round.add_argument("x", type=float)
    p_round.add_argument("--mode", default="half-even",
                         help="floor, ceil, half-up, half-down, half-even, half-odd, cr, sr, or table")
    p_round.add_argument("--n", type=int, default=0, help="fractional digits (default 0: integers)")
    p_round.add_argument("--base", type=int, choices=(2, 10), default=2)
    p_round.add_argument("--seed", type=int, default=0)
    p_round.add_argument("--count", type=int, default=1, help="number of stochastic draws to print")
    p_round.add_argument("--table", action="append", metavar="FILE")

    p_exp = sub.add_parser("experiment", help="run a study and write a CSV report")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    p_sum = exp_sub.add_parser("sum", help="rounded summation study")
    p_sum.add_argument("--case", default="I,II,III,IV", help="comma list from I,II,III,IV")
    _add_common_experiment_args(p_sum, _sum_study)

    p_sqrt = exp_sub.add_parser("sqrt", help="rounded Newton square-root study")
    p_sqrt.add_argument("--values", default=",".join(repr(v) for v in SQRT_TEST_VALUES))
    p_sqrt.add_argument("--n", type=int, default=3, help="fractional digits (default 3)")
    p_sqrt.add_argument("--base", type=int, choices=(2, 10), default=10)
    p_sqrt.add_argument("--tol", type=float, default=1e-5)
    p_sqrt.add_argument("--max-iter", type=int, default=100)
    _add_common_experiment_args(p_sqrt, _sqrt_study)

    p_dot = exp_sub.add_parser("dot", help="rounded inner-product study")
    p_dot.add_argument("--sizes", default=",".join(str(n) for n in DOT_SIZES))
    _add_common_experiment_args(p_dot, _dot_study)

    p_var = exp_sub.add_parser("varbound", help="variance-bound validation grid")
    p_var.add_argument("--bits", type=int, default=4)
    p_var.add_argument("--xmax", type=float, default=2.0)
    p_var.add_argument("--step", type=float, default=1e-4)
    p_var.add_argument("--draws", type=int, default=10_000)
    _add_common_experiment_args(p_var, _varbound_study, with_modes=False)

    p_con = exp_sub.add_parser("contour", help="worst-case product error grid")
    p_con.add_argument("--res", type=int, default=200)
    p_con.add_argument("--x1-max", type=float, default=5.0)
    _add_common_experiment_args(p_con, _contour_study, with_modes=False)

    return parser


def _check_out(path) -> None:
    """Fail before any work when ``--out`` is a directory or its directory is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.handler(args)
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
