"""Quick self-test of the benchmark on tiny games (n = 60).

    python3 perfbench/selftest.py

Runs every workload in-process, untraced and traced, for a fraction of
a second, and checks that:
- every metric in BENCHMARK.json, plus the two outcome ratios, is
  printed by name with its unit and lands in the result line;
- the traced and untraced runs give the same log digest;
- ops_failed_frac is computed: with one operation forced to fail, it
  reads failed / attempted and the run reports correct = false.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

N = 60
SECONDS = 0.2


def capture(workload: str, trace: bool) -> tuple[dict, dict, str]:
    """Run once; returns (result, printed metric lines, digest)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, seed=1, seconds=SECONDS, trace=trace, n=N)
    printed, digest = {}, None
    for line in out.getvalue().splitlines():
        words = line.split() or [""]
        if words[0] == "metric":
            printed[words[1]] = (float(words[2]), words[3])
        elif words[0] == "log_sha256":
            digest = words[1]
    return result, printed, digest


@contextlib.contextmanager
def first_call_fails(module, attr: str, spoil):
    """Make the first call of module.attr fail via `spoil(result)`."""
    original = getattr(module, attr)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        result = original(*args, **kwargs)
        return spoil(result) if len(calls) == 1 else result

    setattr(module, attr, patched)
    try:
        yield
    finally:
        setattr(module, attr, original)


def aborted(result):
    result.outcome = "Aborted"
    return result


def main() -> int:
    run.import_hamgame()
    from hamgame import cli, runner

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in run.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            result, printed, digests[trace] = capture(workload, bool(trace))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= len(
                      run.WORKLOADS[workload].policies),
                  f"{tag}: correct, no failures, at least one cycle")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == wanted[trace], f"{tag}: result metrics and units")
            expect = dict(wanted[trace], **run.OUTCOME_UNITS)
            check({k: unit for k, (_, unit) in printed.items()} == expect,
                  f"{tag}: every metric printed with its unit")
            check(printed["ops_failed_frac"][0] == 0.0,
                  f"{tag}: ops_failed_frac is 0 without failures")
        check(digests[0] is not None and digests[0] == digests[1],
              f"{workload}: traced and untraced log digests agree")

        if run.WORKLOADS[workload].kind == "play":
            spoiler = first_call_fails(runner, "run_game", aborted)
        else:
            spoiler = first_call_fails(cli, "main", lambda _code: 1)
        with spoiler:
            result, printed, _ = capture(workload, False)
        frac = printed["ops_failed_frac"][0]
        check(result["failed"] == 1 and not result["correct"]
              and frac == 1 / result["attempted"],
              f"{workload}: one forced failure gives ops_failed_frac "
              f"{frac:.4g} = 1/{result['attempted']}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
