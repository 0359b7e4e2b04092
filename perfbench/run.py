"""srlab benchmark runner.

    python3 perfbench/run.py --workload study-bulk --seed 0 --seconds 25 --trace 0

Runs one workload in this single process by calling ``srlab.cli.main`` with
the argv a user would type, from the ``src`` tree of the checkout it sits in.
A run repeats rounds for ``--seconds``.  Each round times ``import srlab``
in a fresh interpreter three times, then the set-up (building the d1/d2
tables the studies load) and one pass of the workload's commands.  Each
time is normalised by a reference kernel timed next to it (see ``Clock``).
After the rounds it checks every output file against the
independent oracles in ``checks.py`` and, for the default seed, against the
golden sha256 values in ``golden.json``.  With ``--trace 1`` it then runs
the set-up and one pass three more times under the span tracer of
``spans.py`` and reports per-layer metrics instead of end-to-end ones.

Everything goes to stdout as a readable report; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: the scipy-openblas build otherwise starts a
# second thread at import.  SRLAB_THREADS unset means one optimizer thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("SRLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
MIN_ROUNDS = 3
TRACED_ITERATIONS = 3
# import probes per round: a probe is short and noisy, and on optimize it is the whole set-up
IMPORT_PROBES = 3
# Times are normalised to a machine on which reference_kernel takes this long
# (about its median on the 2-core VM the baseline was recorded on).
REFERENCE_S = 0.05
_REFERENCE_X = np.linspace(0.0, 3.0, 50_000)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "reps_per_s": "1/s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_srlab():
    """Import srlab from this checkout's ``src`` only; None if it is absent."""
    if not (SRC / "srlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import srlab
    import srlab.cli

    if Path(srlab.__file__).resolve().parent != (SRC / "srlab").resolve():
        return None
    return srlab


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(srlab) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "srlab": srlab.__version__,
        "commit": git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SRLAB_THREADS": os.environ.get("SRLAB_THREADS", "unset (one thread)"),
    }


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


class Runner:
    """Invokes a workload's commands and checks everything they write."""

    def __init__(self, workload, seed: int, profile: str, out_dir: Path, cli):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.out_dir = Path(out_dir)
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.notes = []  # oracle findings that fail no row
        self.digests = {}  # output name -> digests seen, in order
        self._kept = {}  # (output name, digest) -> copy of that content
        self._pending = []  # (call, digest, table digests) per write not yet checked
        self._cache = {}

    def path(self, call) -> Path:
        return self.out_dir / call.out

    def argv(self, call) -> list:
        argv = list(call.argv) + ["--seed", str(self.seed)]
        if call.uses_tables:
            for table in self.workload.setup:
                argv += ["--table", str(self.path(table))]
        return argv + ["--out", str(self.path(call))]

    def clear(self, calls):
        for call in calls:
            self.path(call).unlink(missing_ok=True)

    def invoke(self, call):
        """Run one command; returns None on success, else what went wrong."""
        sink, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                rc = self.cli.main(self.argv(call))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising command is a failed row, not a crash
            return f"raised {exc!r}"
        return None if rc == 0 else f"exit code {rc!r}: {err.getvalue().strip()[:200]}"

    def record(self, call, problem=None):
        """Note one write of ``call``'s output; its oracle runs later, in ``check``.

        Only the sha256 is taken while timing, so that the oracles' parsing
        stays out of the peak memory of the timed rounds.  The first write
        of each distinct content is copied aside for ``check``.
        """
        if problem is None and not self.path(call).is_file():
            problem = "wrote no output file"
        if problem is not None:
            self._count(call.rows, call.rows, [f"{call.out}: {problem}"])
            return
        digest = checks.sha256_file(self.path(call))
        self.digests.setdefault(call.out, []).append(digest)
        if (call.out, digest) not in self._kept:
            kept = self.out_dir / "written" / f"{digest[:16]}-{call.out}"
            kept.parent.mkdir(exist_ok=True)
            shutil.copyfile(self.path(call), kept)
            self._kept[(call.out, digest)] = kept
        tables = ()
        if call.uses_tables:
            tables = tuple(self.digests.get(t.out, [None])[-1] for t in self.workload.setup)
        self._pending.append((call, digest, tables))

    def check(self):
        """Run the oracles on every write noted since the last check."""
        for call, digest, tables in self._pending:
            key = (call.out, digest, tables)
            if key not in self._cache:
                if None in tables:
                    rows = call.rows
                    self._cache[key] = (rows, rows, ["the tables it loads were never written"])
                else:
                    table_paths = [self._kept[(t.out, d)] for t, d in zip(self.workload.setup, tables)]
                    self._cache[key] = checks.check_file(call.kind, self._kept[(call.out, digest)], call.spec,
                                                         self.seed, table_paths)
            attempted, failed, messages = self._cache[key]
            for m in messages:
                if m.startswith(checks.NOTE) and f"{call.out}: {m}" not in self.notes:
                    self.notes.append(f"{call.out}: {m}")
            self._count(attempted, failed, [f"{call.out}: {m}" for m in messages if not m.startswith(checks.NOTE)])
        self._pending = []

    def _count(self, attempted, failed, messages):
        self.attempted += attempted
        self.failed += failed
        for m in messages:
            if m not in self.messages and len(self.messages) < 20:
                self.messages.append(m)

    def reference(self):
        """(digest reference per output, description) for this seed."""
        if self.seed == DEFAULT_SEED:
            golden = load_golden()["digests"].get(self.profile, {}).get(self.workload.name, {})
            return golden, f"golden sha256 values for seed {DEFAULT_SEED}"
        first = {name: seen[0] for name, seen in self.digests.items()}
        return first, (f"golden values apply to seed {DEFAULT_SEED} only; seed {self.seed} is "
                       "checked by the oracles, and each output against its first write")

    def digest_mismatch(self) -> int:
        """Output files with any write whose sha256 differs from the reference."""
        ref, _ = self.reference()
        names = {c.out for c in self.workload.setup + self.workload.calls}
        return sum(1 for n in names if any(d != ref.get(n) for d in self.digests.get(n, [None])))


def reference_kernel():
    """Fixed work that never touches srlab, timed next to every command.

    numpy arithmetic on 50 000-element arrays, the size of the optimizer's
    1001 x 50 particle blocks.  Of the kernels tried, this one followed the
    machine's drift best on the d1/d2 builds, ``optimize`` and ``study-bulk``.
    """
    x = _REFERENCE_X
    acc = 0.0
    for _ in range(150):
        y = x * 1.0000001 + 0.5
        f = np.floor(y)
        acc += float(np.where(y - f < 0.5, f, f + 1.0).sum())
    return acc


class Clock:
    """Times work between two runs of ``reference_kernel``.

    On a shared host the machine's speed drifts, by up to 1.7x for minutes
    on the 2-core VM the baseline was recorded on, and the drift slows srlab
    and the kernel alike.  Each time is therefore also given normalised: raw
    time times ``REFERENCE_S`` over the mean of the kernel's times just
    before and just after it.  That is the time on a machine where the
    kernel takes ``REFERENCE_S``; a change to srlab moves it in full, since
    the kernel does not run srlab code.
    """

    def __init__(self):
        # the first few runs in a process take up to 3x longer
        for _ in range(5):
            reference_kernel()
        self.reference_s = []
        self._last = self._reference()

    def _reference(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_kernel()
        sample = (time.perf_counter() - wall0, time.process_time() - cpu0)
        self.reference_s.append(sample[0])
        return sample

    def time(self, fn):
        """Run ``fn()``; returns its result and the raw and normalised times."""
        before = self._last
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = self._last = self._reference()
        return result, {
            "wall_s": wall,
            "cpu_s": cpu,
            "norm_wall_s": wall * 2.0 * REFERENCE_S / (before[0] + after[0]),
            "norm_cpu_s": cpu * 2.0 * REFERENCE_S / (before[1] + after[1]),
        }


def timed_calls(runner: Runner, clock: Clock, calls) -> list:
    """Run commands back to back, noting each output; one time sample per command."""
    samples = []
    for call in calls:
        problem, sample = clock.time(lambda: runner.invoke(call))
        runner.record(call, problem)
        samples.append(sample)
    return samples


def measure(runner: Runner, clock: Clock, seconds: float) -> dict:
    """Untraced rounds; returns the time samples, one list per command per round.

    Every round times ``import srlab`` in a fresh interpreter
    ``IMPORT_PROBES`` times, then the set-up and one pass.  Rounds repeat for ``seconds``.  The oracles run after peak memory is read.
    """
    wl = runner.workload
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, "-c", "import srlab"]
    raw = {"import": [], "build": [], "pass": []}
    start = time.perf_counter()
    while len(raw["pass"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for _ in range(IMPORT_PROBES):
            # no timeout: waiting with one polls the child in steps of up to 50 ms
            _, sample = clock.time(lambda: subprocess.run(probe, env=env, cwd=ROOT, check=True))
            raw["import"].append(sample)
        if wl.setup:
            runner.clear(wl.setup)
            raw["build"].append(timed_calls(runner, clock, wl.setup))
        runner.clear(wl.calls)
        raw["pass"].append(timed_calls(runner, clock, wl.calls))
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check()
    return raw


def per_command(rounds, key: str) -> float:
    """Sum over commands of each command's median across rounds."""
    return sum(statistics.median(s[key] for s in samples) for samples in zip(*rounds))


def end_to_end(raw: dict, wl) -> dict:
    """End-to-end metrics from the normalised times (see ``Clock``).

    Each command's time is its median over the run's rounds, so one slow
    round moves it little; normalising takes out the machine's drift, which
    a run of seconds cannot outlast.
    """
    build_s = per_command(raw["build"], "norm_wall_s")
    wall = per_command(raw["pass"], "norm_wall_s")
    if wl.nodes:
        nodes_per_s = wl.nodes / wall
    else:  # the studies solve their table nodes in set-up
        nodes_per_s = wl.setup_nodes / build_s
    values = {
        "setup_s": statistics.median(s["norm_wall_s"] for s in raw["import"]) + build_s,
        "wall_s": wall,
        "cpu_s": per_command(raw["pass"], "norm_cpu_s"),
        "reps_per_s": wl.reps / wall,
        "nodes_per_s": nodes_per_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def exact_count_issues(counts: list) -> list:
    """The counts that must repeat exactly between runs of the same code and seed."""
    issues = []
    for name in spans.EXACT_COUNTS:
        seen = [c[name] for c in counts]
        if len(set(seen)) != 1:
            issues.append(f"exact count {name} differs between traced runs: {seen}")
    return issues


def traced(runner: Runner, modules: dict, clock: Clock, untraced_s: float):
    """Trace the set-up and one pass, three times; returns (metrics, issues, attribution).

    ``untraced_s`` is the normalised untraced time of the same commands.
    """
    wl = runner.workload
    tracers, normalised = [], []
    for _ in range(TRACED_ITERATIONS):
        runner.clear(wl.setup + wl.calls)
        tracer = spans.Tracer(modules)

        def iteration():
            tracer.install()
            try:
                return [runner.invoke(c) for c in wl.setup + wl.calls]
            finally:
                tracer.restore()

        problems, sample = clock.time(iteration)
        for call, problem in zip(wl.setup + wl.calls, problems):
            runner.record(call, problem)
        tracers.append(tracer)
        normalised.append(tracer.wall_s * sample["norm_wall_s"] / sample["wall_s"])
    runner.check()
    # times come from the fastest iteration; counts repeat exactly
    fastest = min(tracers, key=lambda t: t.wall_s)
    metrics = fastest.metrics(workloads.PRESETS, statistics.median(normalised) / untraced_s - 1.0)
    issues = []
    for t in tracers:
        left = t.leftover_wrappers()
        if left:
            issues.append(f"wrappers not restored: {left}")
    issues += exact_count_issues([t.counts for t in tracers])
    planned = sum(c.reps for c in wl.calls if c.kind != "table")
    if fastest.counts["experiments.reps"] != planned:
        issues.append(f"experiments.reps {fastest.counts['experiments.reps']} != planned {planned}")
    parts = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    parts += metrics["distopt.objective_s"][0] + metrics["trace.unattributed_s"][0]
    wall = metrics["trace.wall_s"][0]
    attribution = f"layer self times + objective + unattributed = {parts!r} s, traced wall = {wall!r} s"
    if abs(parts - wall) > 1e-6 + 1e-9 * wall:
        issues.append(attribution)
    return metrics, issues, attribution


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, profile: str = "full",
                  out_dir: Path | None = None) -> dict:
    """One benchmark run; returns the full result (see the module docstring)."""
    srlab = sys.modules["srlab"]
    modules = {"srlab": srlab}
    for layer in spans.LAYERS:
        modules[layer] = sys.modules[f"srlab.{layer}"]
    env = environment(srlab)
    wl = workloads.build(name, profile)
    out_dir = Path(out_dir or OUT / f"{name}-seed{seed}")
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    runner = Runner(wl, seed, profile, out_dir, modules["cli"])
    clock = Clock()
    raw = measure(runner, clock, seconds)
    e2e = end_to_end(raw, wl)
    per_layer, issues, attribution = {}, [], None
    if trace:
        untraced = per_command(raw["pass"], "norm_wall_s") + per_command(raw["build"], "norm_wall_s")
        per_layer, issues, attribution = traced(runner, modules, clock, untraced)
    mismatch = runner.digest_mismatch()
    _, reference = runner.reference()
    return {
        "workload": name,
        "seed": seed,
        "profile": profile,
        "trace": bool(trace),
        "environment": env,
        "commands": {"setup": [runner.argv(c) for c in wl.setup], "pass": [runner.argv(c) for c in wl.calls]},
        "raw": dict(raw, reference_s=clock.reference_s, reference_nominal_s=REFERENCE_S),
        "end_to_end": e2e,
        "per_layer": per_layer,
        "attribution": attribution,
        "error_rate": runner.failed / runner.attempted,
        "digest_mismatch": mismatch,
        "digest_reference": reference,
        "digests": runner.digests,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "self_check_issues": issues,
        "messages": runner.messages,
        "notes": runner.notes,
        "correct": runner.failed == 0 and mismatch == 0 and not issues,
    }


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(result: dict) -> list:
    """Readable lines: environment, every metric by name and unit, checks."""
    lines = [
        f"srlab benchmark: workload={result['workload']} seed={result['seed']} "
        f"profile={result['profile']} trace={int(result['trace'])}",
        "environment: " + " ".join(f"{k}={v}" for k, v in result["environment"].items()),
        f"rounds: {len(result['raw']['pass'])} passes, {len(result['raw']['import'])} import probes, "
        f"{len(result['raw']['build'])} set-ups",
        f"reference kernel: median {statistics.median(result['raw']['reference_s']):.6g} s over "
        f"{len(result['raw']['reference_s'])} runs; times below are normalised to {REFERENCE_S} s",
        "end-to-end metrics (untraced):",
    ]
    rows = list(result["end_to_end"].items())
    rows.append(("error_rate", (result["error_rate"], "ratio")))
    rows.append(("digest_mismatch", (result["digest_mismatch"], "count")))
    lines += [f"  {k:<34} {_fmt(v):>14} {u}" for k, (v, u) in rows]
    lines.append(f"  rows checked: {result['attempted']}, failed: {result['failed']}")
    lines.append(f"  digests: {result['digest_reference']}")
    if result["per_layer"]:
        lines.append("per-layer metrics (traced run):")
        lines += [f"  {k:<34} {_fmt(v):>14} {u}" for k, (v, u) in result["per_layer"].items()]
        lines.append(f"  {result['attribution']}")
    for issue in result["self_check_issues"]:
        lines.append(f"SELF-CHECK FAILED: {issue}")
    for message in result["messages"]:
        lines.append(f"CHECK FAILED: {message}")
    for note in result["notes"]:
        lines.append(f"NOTE (not a failure): {note}")
    lines.append("correct: " + str(result["correct"]).lower())
    return lines


def summary_line(result: dict) -> str:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def record_golden(result: dict):
    """Store this run's output digests as the golden values of its profile."""
    if result["seed"] != DEFAULT_SEED or result["failed"] or result["self_check_issues"]:
        raise SystemExit("golden values are recorded only from a clean run at the default seed")
    golden = load_golden()
    digests = {}
    for name, seen in result["digests"].items():
        if len(set(seen)) != 1:
            raise SystemExit(f"{name} differs between writes; nothing recorded")
        digests[name] = seen[0]
    golden["digests"].setdefault(result["profile"], {})[result["workload"]] = dict(sorted(digests.items()))
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed rounds run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full",
                        help="smoke: tiny counts that reach every workload, oracle and layer in seconds")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's output sha256 values as the golden ones (seed 0 only)")
    args = parser.parse_args(argv)
    if import_srlab() is None:
        print(f"srlab benchmark: no srlab package under {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    if args.record_golden:
        record_golden(result)
        result = dict(result, digest_mismatch=0, correct=not result["self_check_issues"] and not result["failed"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.profile}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(report(result)))
    print(f"result file: {path.relative_to(ROOT)}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
