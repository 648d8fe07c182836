"""One seed, every workload, untraced and traced, in one report.

    python3 perfbench/report.py [--seed 0] [--seconds N] \
        [--out perfbench/out/report-seed0.json]

For each workload this runs the benchmark twice, each in a fresh
process: once untraced for the end-to-end metrics (including the two
outcome ratios), once traced for the per-layer split.  It checks that
both runs produced the same log digest, which shows the tracing changed
no game, and reports the tracing overhead as untraced over traced
edges_per_s.  Exits 1 on a digest mismatch; stops with an error as soon
as a run exits nonzero, which it does on incorrect output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spread import ROOT, run_once


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None,
                        help="default perfbench/out/report-seed<SEED>.json")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else \
        ROOT / "perfbench" / "out" / f"report-seed{args.seed}.json"

    report: dict = {"seed": args.seed, "seconds": args.seconds,
                    "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        same = plain["digest"] == traced["digest"]
        overhead = (plain["metrics"]["edges_per_s"]["value"]
                    / traced["metrics"]["trace.edges_per_s"]["value"])
        ok &= same
        print(f"== {workload} (seed {args.seed}, {plain['attempted']} ops "
              f"untraced, {traced['attempted']} traced)")
        for name, m in plain["printed"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'log digest':32s} {'same' if same else 'DIFFERENT'}"
              f" untraced={plain['digest'][:16]} traced={traced['digest'][:16]}")
        print(f"  {'tracing overhead':32s} {overhead:>16.4f} "
              "x (untraced / traced edges_per_s)")
        layers = traced["metrics"]
        for name, m in layers.items():
            if m["value"]:
                print(f"    {name:30s} {m['value']:>16.6g} {m['unit']}")
        report["workloads"][workload] = {
            "end_to_end": plain["printed"],
            "per_layer": layers,
            "digest": {"untraced": plain["digest"],
                       "traced": traced["digest"], "same": same},
            "tracing_overhead": overhead,
            "ops": {"untraced": plain["attempted"],
                    "traced": traced["attempted"]},
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
