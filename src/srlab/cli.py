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
import json
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
from .files import read_distribution, write_csv, write_distribution
from .rounding import SR, DeterministicMode, RoundingSpec, round_values
from .stats import contour_grid
from .streams import RandomStream

_BUILTIN_MODES = {
    "floor": DeterministicMode.FLOOR,
    "ceil": DeterministicMode.CEILING,
    "half-up": DeterministicMode.HALF_UP,
    "half-down": DeterministicMode.HALF_DOWN,
    "half-even": DeterministicMode.HALF_EVEN,
    "half-odd": DeterministicMode.HALF_ODD,
    "cr": DeterministicMode.HALF_EVEN,
    "sr": SR,
}


def _load_tables(paths, parser):
    tables = {}
    for path in paths or []:
        try:
            loaded = read_distribution(path)
        except OSError as exc:
            parser.exit(1, f"srlab: cannot read table file: {exc}\n")
        except ValueError as exc:
            parser.exit(1, f"srlab: {exc}\n")
        tables[loaded.table.label.lower()] = loaded.table
    return tables


def _resolve_modes(spec_text, tables, parser):
    pairs = []
    for token in spec_text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token in _BUILTIN_MODES:
            pairs.append((token, _BUILTIN_MODES[token]))
        elif token in tables:
            pairs.append((token, tables[token]))
        else:
            known = sorted(set(_BUILTIN_MODES) | set(tables))
            parser.error(f"unknown mode {token!r}; available: {', '.join(known)}")
    if not pairs:
        parser.error("no modes requested")
    return pairs


def _pso_from_args(args) -> PsoConfig:
    return PsoConfig(
        swarm_size=args.swarm,
        iterations=args.iterations,
        inertia=args.inertia,
        cognitive=args.cognitive,
        social=args.social,
        velocity_clamp=args.velocity_clamp,
        seed=args.seed,
    )


def _cmd_optimize(args, parser) -> int:
    if (args.preset is None) == (args.config is None):
        parser.error("give exactly one of --preset or --config")
    if args.preset is not None:
        try:
            target = Preset(args.preset)
        except ValueError:
            parser.error(f"unknown preset {args.preset!r}; choose from "
                         f"{', '.join(p.value for p in Preset)}")
        mop = preset_config(target)
    else:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
            mop = MopConfig(**raw)
        except OSError as exc:
            parser.exit(1, f"srlab: cannot read config: {exc}\n")
        except (TypeError, ValueError) as exc:
            parser.error(f"invalid objective config: {exc}")
        target = mop
    pso = _pso_from_args(args)
    table = optimize_table(target, grid_size=args.grid_size, pso=pso, label=args.label)
    provenance = {
        "mop": dataclasses.asdict(mop),
        "pso": dataclasses.asdict(pso),
        "seed": pso.seed,
    }
    try:
        write_distribution(args.out, table, delta=mop.delta, provenance=provenance)
    except OSError as exc:
        parser.exit(1, f"srlab: cannot write {args.out}: {exc}\n")
    bias = bias_of_p(table.p, table.grid, mop.delta)
    var = variance_of_p(table.p, mop.delta)
    print(f"wrote {args.out}: {table.label}, {table.grid.size} nodes")
    print(f"bias     min {bias.min():.6g}  max {bias.max():.6g}")
    print(f"variance min {var.min():.6g}  max {var.max():.6g}")
    return 0


def _cmd_round(args, parser) -> int:
    tables = _load_tables(args.table, parser)
    token = args.mode.strip().lower()
    if token == "table":
        if not tables:
            parser.error("--mode table needs a --table file")
        mode = next(iter(tables.values()))
    else:
        token, mode = _resolve_modes(token, tables, parser)[0]
    spec = RoundingSpec(args.n, args.base)
    rng = RandomStream(args.seed)
    count = 1 if isinstance(mode, DeterministicMode) else args.count
    for _ in range(count):
        value = round_values(args.x, mode, spec, rng)
        print(f"{value:.17g}")
    return 0


def _write_report(path, header, rows, parser) -> int:
    try:
        write_csv(path, header, rows)
    except OSError as exc:
        parser.exit(1, f"srlab: cannot write {path}: {exc}\n")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_exp_sum(args, parser) -> int:
    tables = _load_tables(args.table, parser)
    modes = _resolve_modes(args.modes, tables, parser)
    try:
        cases = [CaseId(token.strip().upper()) for token in args.case.split(",") if token.strip()]
    except ValueError:
        parser.error(f"unknown case in {args.case!r}; choose from I,II,III,IV")
    rows = []
    for case in cases:
        for token, mode in modes:
            rep = run_summation_experiment(case, mode, n_reps=args.reps, seed=args.seed)
            s = rep.summary
            rows.append((case.value, token, s.abs_bias, s.variance, s.mean_abs_rel_err, s.n_samples))
    return _write_report(args.out, ["case", "mode", "abs_bias", "variance", "rel_err", "n"], rows, parser)


def _cmd_exp_sqrt(args, parser) -> int:
    tables = _load_tables(args.table, parser)
    modes = _resolve_modes(args.modes, tables, parser)
    spec = RoundingSpec(args.n, args.base)
    cfg = NewtonConfig(tol=args.tol, n_max=args.max_iter, spec=spec)
    values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    rows = []
    for a in values:
        for token, mode in modes:
            rep = run_sqrt_experiment(a, mode, cfg, n_reps=args.reps, seed=args.seed)
            s = rep.summary
            rows.append(
                (
                    a,
                    token,
                    spec.delta,
                    None if s is None else s.mu,
                    None if s is None else s.abs_bias,
                    None if s is None else s.variance,
                    None if s is None else s.mean_abs_rel_err,
                    None if s is None else s.n_it_mean,
                    rep.n_breakdowns,
                )
            )
    header = ["a", "mode", "delta", "mu", "abs_bias", "variance", "rel_err", "n_it_mean", "breakdowns"]
    return _write_report(args.out, header, rows, parser)


def _cmd_exp_dot(args, parser) -> int:
    tables = _load_tables(args.table, parser)
    modes = _resolve_modes(args.modes, tables, parser)
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"bad --sizes value {args.sizes!r}")
    if any(n < 2 for n in sizes):
        parser.error("sizes must be at least 2")
    rows = []
    for n in sizes:
        for token, mode in modes:
            rep = run_inner_product_experiment(n, mode, n_reps=args.reps, seed=args.seed)
            s = rep.summary
            rows.append((n, token, s.abs_bias, s.variance, s.mean_abs_rel_err))
    return _write_report(args.out, ["n", "mode", "abs_bias", "variance", "rel_err"], rows, parser)


def _cmd_exp_varbound(args, parser) -> int:
    grid = validate_variance_bound(
        n_bits=args.bits, x_max=args.xmax, step=args.step, draws=args.draws, seed=args.seed
    )
    rows = [
        (grid.x[j], grid.v_empirical[j], grid.v_theoretical[j], grid.bound)
        for j in range(grid.x.size)
    ]
    return _write_report(args.out, ["x", "v_empirical", "v_theoretical", "bound"], rows, parser)


def _cmd_exp_contour(args, parser) -> int:
    grid = contour_grid((0.0, args.x1_max), (0.0, 1.0), (args.res, args.res))
    rows = []
    for i in range(grid.x1.size):
        for j in range(grid.x2.size):
            rows.append((grid.x1[i], grid.x2[j], grid.e_down[i, j], grid.e_up[i, j], grid.p[i, j]))
    return _write_report(args.out, ["x1", "x2", "e_down", "e_up", "p"], rows, parser)


def _add_common_experiment_args(p, with_modes=True):
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
    _add_common_experiment_args(p_sum)

    p_sqrt = exp_sub.add_parser("sqrt", help="rounded Newton square-root study")
    p_sqrt.add_argument("--values", default=",".join(repr(v) for v in SQRT_TEST_VALUES))
    p_sqrt.add_argument("--n", type=int, default=3, help="fractional digits (default 3)")
    p_sqrt.add_argument("--base", type=int, choices=(2, 10), default=10)
    p_sqrt.add_argument("--tol", type=float, default=1e-5)
    p_sqrt.add_argument("--max-iter", type=int, default=100)
    _add_common_experiment_args(p_sqrt)

    p_dot = exp_sub.add_parser("dot", help="rounded inner-product study")
    p_dot.add_argument("--sizes", default=",".join(str(n) for n in DOT_SIZES))
    _add_common_experiment_args(p_dot)

    p_var = exp_sub.add_parser("varbound", help="variance-bound validation grid")
    p_var.add_argument("--bits", type=int, default=4)
    p_var.add_argument("--xmax", type=float, default=2.0)
    p_var.add_argument("--step", type=float, default=1e-4)
    p_var.add_argument("--draws", type=int, default=10_000)
    _add_common_experiment_args(p_var, with_modes=False)

    p_con = exp_sub.add_parser("contour", help="worst-case product error grid")
    p_con.add_argument("--res", type=int, default=200)
    p_con.add_argument("--x1-max", type=float, default=5.0)
    _add_common_experiment_args(p_con, with_modes=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "optimize": _cmd_optimize,
        "round": _cmd_round,
        "sum": _cmd_exp_sum,
        "sqrt": _cmd_exp_sqrt,
        "dot": _cmd_exp_dot,
        "varbound": _cmd_exp_varbound,
        "contour": _cmd_exp_contour,
    }
    handler = handlers[args.experiment if args.command == "experiment" else args.command]
    try:
        return handler(args, parser)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
