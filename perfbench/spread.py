"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --runs 10 --out perfbench/results/baseline.json

Runs ``run.py`` for ``run_seconds`` once per seed for each workload of
``BENCHMARK.json``, round robin, each in its own process, then one traced run
per workload at seed 0.  The seeds are drawn from [0, 2**31) by a fixed
generator, so that they are as arbitrary as any caller's.  For each end-to-end metric it reports the
median and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(n=4)``), next to the metric's bound, and
fails if any spread exceeds its bound or any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return dict(last, seed=seed, elapsed_s=elapsed)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {n: [] for n in names}
    for seed in random.Random(0).sample(range(2**31), args.runs):
        for name in names:
            r = run_once(name, seed, seconds, 0)
            runs[name].append(r)
            print(f"{name} seed {r['seed']}: correct={r['correct']} {r['elapsed_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    summary = {"run_seconds": seconds, "runs_per_workload": args.runs, "workloads": {}}
    ok = True
    for name in names:
        rs = runs[name]
        metrics = {}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in rs])
            s.update(unit=rs[0]["metrics"][metric]["unit"], bound=bound)
            metrics[metric] = s
            flag = "" if s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            ok = ok and s["spread"] <= bound
            print(f"{name:12} {metric:12} median {s['median']:.5g} {s['unit']:4} "
                  f"spread {s['spread']:.4f} bound {bound}{flag}")
        entry = {
            "all_correct": all(r["correct"] for r in rs),
            "failed_rows": sum(r["failed"] for r in rs),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in rs],
            "end_to_end": metrics,
        }
        t = run_once(name, 0, seconds, 1)
        entry["traced"] = {"seed": t["seed"], "correct": t["correct"], "elapsed_s": round(t["elapsed_s"], 2),
                           "per_layer": t["metrics"]}
        ok = ok and t["correct"]
        summary["workloads"][name] = entry
        ok = ok and entry["all_correct"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("all spreads within bounds and all runs correct" if ok else "SPREAD OR CORRECTNESS CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
