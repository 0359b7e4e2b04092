"""The benchmark's workloads: the srlab command lines a user would type.

Each workload has a set-up (tables the studies load, built once per
reproduction) and a pass (the commands that are timed).  Counts come in two
profiles: ``full`` for measurement and ``smoke`` for a run of a few seconds
that still reaches every workload, oracle and traced layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PRESETS = ("bias-min", "var-min-floor", "var-min-ceil", "nearest-like", "d1", "d2")
STUDY_MODES = ("sr", "cr", "d1", "d2")
SQRT_VALUES = (0.30146, 6.55501, 51.16904, 357.00272, 8133.27762)
VARBOUND_XMAX = 2.0
CONTOUR_X1_MAX = 5.0


@dataclass(frozen=True)
class Call:
    """One ``srlab`` invocation, its output file and what its oracle needs.

    ``reps`` counts repetitions, one substream's work each: ``n_reps`` of
    each study row as srlab reports it, one per varbound grid point, and one
    per optimized table node (node j runs its swarm on substream j).
    ``nodes`` counts optimized table nodes.
    """

    argv: tuple
    out: str
    kind: str
    spec: dict = field(hash=False)
    reps: int = 0
    nodes: int = 0

    @property
    def rows(self) -> int:
        return self.spec["rows"]

    @property
    def uses_tables(self) -> bool:
        """Whether the command loads the set-up's tables (``--table``)."""
        return self.kind in ("sum", "dot", "sqrt")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    calls: tuple

    @property
    def reps(self) -> int:
        return sum(c.reps for c in self.calls)

    @property
    def nodes(self) -> int:
        return sum(c.nodes for c in self.calls)

    @property
    def setup_nodes(self) -> int:
        return sum(c.nodes for c in self.setup)


PROFILES = {
    "full": {"grid": 1001, "bulk_reps": 100, "small_reps": 600,
             "varbound_step": 2e-3, "varbound_draws": 10_000, "contour_res": 100},
    "smoke": {"grid": 101, "bulk_reps": 40, "small_reps": 100,
              "varbound_step": 0.02, "varbound_draws": 500, "contour_res": 20},
}


def _table(preset: str, grid: int) -> Call:
    spec = {"preset": preset, "grid_size": grid, "rows": grid}
    argv = ("optimize", "--preset", preset, "--grid-size", str(grid))
    return Call(argv, f"{preset}.json", "table", spec, reps=grid, nodes=grid)


def _study(kind: str, extra: tuple, spec: dict, subjects: int, reps: int) -> Call:
    modes = STUDY_MODES
    spec = dict(spec, modes=list(modes), reps=reps, rows=subjects * len(modes))
    argv = ("experiment", kind) + extra + ("--modes", ",".join(modes), "--reps", str(reps))
    # deterministic modes run once; stochastic ones run every repetition
    n_reps = subjects * sum(1 if m == "cr" else reps for m in modes)
    return Call(argv, f"{kind}.csv", kind, spec, reps=n_reps)


def build(name: str, profile: str = "full") -> Workload:
    """The workload ``name`` at the counts of ``profile``."""
    c = PROFILES[profile]
    grid = c["grid"]
    tables = (_table("d1", grid), _table("d2", grid))
    if name == "study-bulk":
        cases = ["I", "II"]
        step, draws = c["varbound_step"], c["varbound_draws"]
        n_pts = int(round(VARBOUND_XMAX / step)) + 1
        res = c["contour_res"]
        calls = (
            _study("sum", ("--case", ",".join(cases)), {"cases": cases}, len(cases), c["bulk_reps"]),
            Call(
                ("experiment", "varbound", "--bits", "4", "--xmax", repr(VARBOUND_XMAX),
                 "--step", repr(step), "--draws", str(draws)),
                "varbound.csv", "varbound",
                {"bits": 4, "xmax": VARBOUND_XMAX, "step": step, "draws": draws, "rows": n_pts},
                reps=n_pts,
            ),
            Call(
                ("experiment", "contour", "--res", str(res), "--x1-max", repr(CONTOUR_X1_MAX)),
                "contour.csv", "contour",
                {"res": res, "x1_max": CONTOUR_X1_MAX, "rows": res * res},
            ),
        )
        return Workload(name, tables, calls)
    if name == "study-small":
        cases = ["III", "IV"]
        reps = c["small_reps"]
        values = list(SQRT_VALUES)
        calls = (
            _study("sum", ("--case", ",".join(cases)), {"cases": cases}, len(cases), reps),
            _study("dot", ("--sizes", "50"), {"sizes": [50]}, 1, reps),
            _study("sqrt", ("--values", ",".join(repr(v) for v in values)), {"values": values},
                   len(values), reps),
        )
        return Workload(name, tables, calls)
    if name == "optimize":
        return Workload(name, (), tuple(_table(p, grid) for p in PRESETS))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("study-bulk", "study-small", "optimize")
