"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--seconds N] \
        [--workloads play-random-4000,verify-logs-2000] \
        [--out perfbench/out/spread.json]

Each run is a fresh, untraced process, one after another.  For every
workload and end-to-end metric this prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median, and
flags a spread above a third of the metric's bound in BENCHMARK.json.
Stops with an error as soon as a run exits nonzero, which it does on
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(
        line.split()[1] for line in lines if line.startswith("log_sha256 "))
    # Every "metric NAME VALUE UNIT" line, including the outcome ratios
    # that the result line leaves out.
    result["printed"] = {
        name: {"value": float(value), "unit": unit}
        for _, name, value, unit, *_ in (
            line.split() for line in lines if line.startswith("metric "))}
    return result


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "cpu": platform.processor() or platform.machine()}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values, "steady": spread < bound / 3}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report: dict = {"seeds": seeds, "seconds": args.seconds,
                    "machine": machine(), "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed={seed} ops={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.6g}"
                      for k, m in result["metrics"].items()), flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarize(values, bounds[name])
            s = metrics[name]
            print(f"  {name}: median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}"
                  + ("" if s["steady"] else "  NOT STEADY"), flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "digests": {str(seed): r["digest"]
                        for seed, r in zip(seeds, results)},
        }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
