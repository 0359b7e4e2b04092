"""Span tracing of srlab's layers from outside the package.

``Tracer.install`` replaces every public function of the seven srlab modules
(and the public ``RandomStream`` methods) with a wrapper that records a
span: its layer, its function, the rounding mode of the kernel call it runs
under and the optimizer preset it runs under.  The wrapper is bound at every
binding site, because modules import each other's functions with ``from ...
import``; patching only the defining module would silently miss calls.
``Tracer.restore`` puts every original back.

Spans are aggregated as they close: a span's self time is its duration minus
the durations of the spans it called, so the layers' self times plus the
root's own time add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "files", "experiments", "stats", "distopt", "rounding", "streams")
KERNELS = ("round_values", "round_stochastic", "stochastic_round_with", "round_deterministic")
# format_number runs once per CSV cell, called only from write_csv inside the
# files layer; a span there would cost more than the cell it times.
SKIP = {("files", "format_number")}
USELESS_PRESETS = ("var-min-floor", "var-min-ceil")  # result overwritten after the swarm
EXACT_COUNTS = (
    "streams.draws",
    "streams.substreams",
    "rounding.elements",
    "experiments.reps",
    "experiments.newton_iters",
    "distopt.objective_evals",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    def __init__(self, srlab_modules: dict):
        self.modules = srlab_modules  # layer name -> module, plus "srlab" -> package
        self.frames = [[0.0]]  # child-time accumulators; frames[0] is the root
        self.self_s = defaultdict(float)  # (layer, func, mode, preset) -> seconds
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.mode = None  # mode class of the outermost rounding kernel in progress
        self.preset = None  # preset of the optimize_table call in progress
        self.patched = []  # (owner, name, original)
        self.wall_s = 0.0
        self._start = None

    # --- hooks: context set around a call, counts taken from its result ---

    def _kernel_enter(self, args, kwargs):
        if self.mode is not None:
            return False
        rounding = self.modules["rounding"]
        mode = _arg(args, kwargs, 1, "mode")
        if mode is rounding.SR:
            self.mode = "sr"
        elif isinstance(mode, rounding.ProbabilityTable):
            self.mode = "table"
        else:
            self.mode = "det"
        size = int(np.size(_arg(args, kwargs, 0, "x")))
        self.counts["rounding.calls"] += 1
        self.counts["rounding.elements"] += size
        self.counts["rounding.elements." + self.mode] += size
        return True

    def _kernel_undo(self, outermost):
        if outermost:
            self.mode = None

    def _table_enter(self, args, kwargs):
        previous = self.preset
        target = _arg(args, kwargs, 0, "preset_or_cfg")
        self.preset = getattr(target, "value", "custom")
        return previous

    def _table_undo(self, previous):
        self.preset = previous

    def _objective_done(self, result, args, kwargs):
        n = int(np.size(_arg(args, kwargs, 0, "p")))
        self.counts["distopt.objective_evals"] += n
        if self.preset not in USELESS_PRESETS:
            self.counts["distopt.useful_evals"] += n

    def _draws_done(self, result, args, kwargs):
        self.counts["streams.draws"] += int(result.size)

    def _substream_done(self, result, args, kwargs):
        self.counts["streams.substreams"] += 1

    def _report_done(self, rep, args, kwargs):
        self.counts["experiments.reps"] += int(rep.n_reps)
        self.counts["experiments.breakdowns"] += int(rep.n_breakdowns)
        self.counts["experiments.nonconverged"] += int(rep.n_nonconverged)
        s = rep.summary
        if s is not None and s.n_it_mean is not None:
            converged = s.n_samples - rep.n_nonconverged
            self.counts["experiments.newton_iters"] += int(round(s.n_it_mean * converged))

    def _varbound_done(self, grid, args, kwargs):
        self.counts["experiments.reps"] += int(grid.x.size)

    def _csv_done(self, result, args, kwargs):
        self.counts["files.rows_written"] += len(_arg(args, kwargs, 2, "rows"))
        self._written_done(result, args, kwargs)

    def _written_done(self, result, args, kwargs):
        self.counts["files.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _hooks(self, layer, name):
        """(enter, undo, done): ``enter`` sets context before the call and
        ``undo`` resets it afterwards; ``done`` counts a successful result."""
        if layer == "rounding" and name in KERNELS:
            return self._kernel_enter, self._kernel_undo, None
        if layer == "distopt" and name == "optimize_table":
            return self._table_enter, self._table_undo, None
        done = {
            ("distopt", "objective"): self._objective_done,
            ("streams", "draws_at"): self._draws_done,
            ("streams", "RandomStream.substream"): self._substream_done,
            ("experiments", "run_summation_experiment"): self._report_done,
            ("experiments", "run_inner_product_experiment"): self._report_done,
            ("experiments", "run_sqrt_experiment"): self._report_done,
            ("experiments", "validate_variance_bound"): self._varbound_done,
            ("files", "write_csv"): self._csv_done,
            ("files", "write_distribution"): self._written_done,
        }.get((layer, name))
        return None, None, done

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        enter, undo, done = self._hooks(layer, name)
        frames, self_s, incl_s = self.frames, self.self_s, self.incl_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = enter(args, kwargs) if enter else None
            child = [0.0]
            frames.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                frames[-1][0] += dur
                key = (layer, name, tracer.mode, tracer.preset)
                self_s[key] += dur - child[0]
                incl_s[key] += dur
                if undo:
                    undo(token)
            if done:
                done(result, args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every public function at every binding site in srlab."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = self.modules[layer]
            for name in getattr(module, "__all__", None) or _public_functions(module):
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type) and (layer, name) not in SKIP:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        stream_cls = self.modules["streams"].RandomStream
        for meth in ("substream", "uniform"):
            original = stream_cls.__dict__[meth]
            self.patched.append((stream_cls, meth, original))
            setattr(stream_cls, meth, self._wrap("streams", "RandomStream." + meth, original))
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patched.append((module, name, value))
                    setattr(module, name, hit[1])
        self._originals = {id(fn): fn for fn, _ in wrappers.values()}
        self._wrappers = {id(w): w for _, w in wrappers.values()}
        missed = self.unwrapped_bindings()
        if missed:
            self.restore()
            raise RuntimeError(f"bindings left unwrapped: {missed}")
        self._start = time.perf_counter()

    def unwrapped_bindings(self):
        """Names in srlab modules still bound to an original function."""
        originals = self._originals
        return [
            f"{module.__name__}.{name}"
            for module in self.modules.values()
            for name, value in vars(module).items()
            if id(value) in originals and originals[id(value)] is value
        ]

    def leftover_wrappers(self):
        """Names in srlab modules still bound to a wrapper of this tracer."""
        found = [
            f"{module.__name__}.{name}"
            for module in self.modules.values()
            for name, value in vars(module).items()
            if self._wrappers.get(id(value)) is value
        ]
        stream_cls = self.modules["streams"].RandomStream
        found += [f"RandomStream.{m}" for m in ("substream", "uniform")
                  if hasattr(stream_cls.__dict__[m], "__wrapped__")]
        return found

    def restore(self):
        """Put every original binding back; ends the traced interval."""
        if self._start is not None:
            self.wall_s = time.perf_counter() - self._start
            self._start = None
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []

    # --- metrics -----------------------------------------------------------

    def _sum(self, table, layer=None, name=None, mode=None, preset=None):
        return sum(
            (v for (l, n, m, p), v in table.items()
            if (layer is None or l == layer)
            and (name is None or n == name)
            and (mode is None or m == mode)
            and (preset is None or p == preset)),
            0.0,
        )

    def metrics(self, presets, overhead: float) -> dict:
        """Per-layer metrics: name -> (value, unit); ``overhead`` is the traced/untraced ratio minus 1."""
        c = self.counts
        layer_self = {layer: self._sum(self.self_s, layer) for layer in LAYERS}
        unattributed = self.wall_s - self.frames[0][0]

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        draws_s = self._sum(self.incl_s, "streams", "draws_at")
        sub_s = self._sum(self.incl_s, "streams", "RandomStream.substream")
        objective_s = self._sum(self.incl_s, "distopt", "objective")
        m = {
            "streams.draws": (c["streams.draws"], "count"),
            "streams.ns_per_draw": (per(draws_s, c["streams.draws"], 1e9), "ns"),
            "streams.substreams": (c["streams.substreams"], "count"),
            "streams.us_per_substream": (per(sub_s, c["streams.substreams"], 1e6), "us"),
            "streams.self_s": (layer_self["streams"], "s"),
            "rounding.elements": (c["rounding.elements"], "count"),
            "rounding.calls": (c["rounding.calls"], "count"),
        }
        for mode in ("sr", "table", "det"):
            mode_s = self._sum(self.self_s, "rounding", mode=mode)
            m["rounding.ns_per_element." + mode] = (
                per(mode_s, c["rounding.elements." + mode], 1e9), "ns")
        m.update({
            "rounding.table_s": (self._sum(self.incl_s, "rounding", "table_probability"), "s"),
            "rounding.us_per_call": (per(layer_self["rounding"], c["rounding.calls"], 1e6), "us"),
            "rounding.self_s": (layer_self["rounding"], "s"),
            "experiments.reps": (c["experiments.reps"], "count"),
            "experiments.us_per_rep": (
                per(layer_self["experiments"], c["experiments.reps"], 1e6), "us"),
        })
        for study, func in (("sum", "run_summation_experiment"), ("dot", "run_inner_product_experiment"),
                            ("sqrt", "run_sqrt_experiment"), ("varbound", "validate_variance_bound")):
            m[f"experiments.{study}_s"] = (self._sum(self.incl_s, "experiments", func), "s")
        for key in ("newton_iters", "breakdowns", "nonconverged"):
            m["experiments." + key] = (c["experiments." + key], "count")
        m["experiments.self_s"] = (layer_self["experiments"], "s")
        for preset in presets:
            m["distopt.table_s." + preset] = (
                self._sum(self.incl_s, "distopt", "optimize_table", preset=preset), "s")
        m.update({
            "distopt.objective_evals": (c["distopt.objective_evals"], "count"),
            "distopt.useful_eval_ratio": (
                per(c["distopt.useful_evals"], c["distopt.objective_evals"], 1.0), "ratio"),
            "distopt.objective_s": (objective_s, "s"),
            # the layer's self time without the objective: mainly the PSO update
            "distopt.self_s": (layer_self["distopt"] - objective_s, "s"),
            "stats.summarize_s": (self._sum(self.incl_s, "stats", "summarize"), "s"),
            "stats.contour_s": (self._sum(self.incl_s, "stats", "contour_grid"), "s"),
            "stats.self_s": (layer_self["stats"], "s"),
        })
        write_csv_s = self._sum(self.incl_s, "files", "write_csv")
        m.update({
            "files.bytes_written": (c["files.bytes_written"], "count"),
            "files.rows_written": (c["files.rows_written"], "count"),
            "files.write_s": (write_csv_s + self._sum(self.incl_s, "files", "write_distribution"), "s"),
            "files.us_per_row": (per(write_csv_s, c["files.rows_written"], 1e6), "us"),
            "files.read_s": (self._sum(self.incl_s, "files", "read_distribution"), "s"),
            "files.self_s": (layer_self["files"], "s"),
            "cli.self_s": (layer_self["cli"], "s"),
            "trace.wall_s": (self.wall_s, "s"),
            "trace.unattributed_s": (unattributed, "s"),
            "trace.overhead": (overhead, "ratio"),
        })
        return m


def _public_functions(module):
    return [n for n, v in vars(module).items()
            if not n.startswith("_") and callable(v) and getattr(v, "__module__", None) == module.__name__]
