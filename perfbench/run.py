"""hamgame benchmark: play and verify fixed workloads, print every metric.

    python3 perfbench/run.py --workload play-random-4000 --seed 0 \
        [--seconds N] --trace 0

Run from anywhere inside a source checkout: the package is imported
from `src/` next to this directory, never from site-packages.  One
process runs operations back to back (a closed loop with one client)
until `--seconds` of wall time have passed, always finishing the current
cycle of policies so every run weighs the policies equally.  Correctness
checks run between operations, outside the timed region; if any fails,
the run still prints its metrics and then exits 1.  `--seconds`
defaults to `run_seconds` in BENCHMARK.json.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the package's entry points are wrapped (see layers.py) and
it carries the per-layer split.  Both print a sha256 over the logs of
the first cycle, which must agree between the two modes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import hamgame.cli")

END_TO_END_UNITS = {
    "edges_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the end-to-end metrics but kept out of the result line:
# both read 0 on some workloads, where a relative bound is meaningless.
OUTCOME_UNITS = {"ops_failed_frac": "ratio", "maker_win_frac": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "play" or "verify"
    n: int
    audit_level: str
    policies: tuple[str, ...]       # one cycle of operations
    setup_reps: int                 # setup_s is the median over these


WORKLOADS = {w.name: w for w in (
    Workload("play-random-4000", "play", 4000, "off",
             ("random", "pairkiller"), setup_reps=11),
    Workload("play-adversary-2000", "play", 2000, "cheap",
             ("isolator", "maxdanger"), setup_reps=11),
    Workload("verify-logs-2000", "verify", 2000, "cheap",
             ("random", "pairkiller", "isolator", "maxdanger"), setup_reps=3),
)}


@dataclass
class Tally:
    """Per-run operation outcomes; op_seconds holds only timed regions."""

    op_seconds: list[float] = field(default_factory=list)
    edges: int = 0
    failed: int = 0
    wins: int = 0
    log_hashes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED op {len(self.op_seconds) - 1}: {why}", file=sys.stderr)


def import_hamgame():
    """Import the package from this checkout or exit with an error."""
    if not (SRC / "hamgame" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hamgame sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamgame

    if Path(hamgame.__file__).resolve().parent != SRC / "hamgame":
        sys.exit(f"perfbench: imported hamgame from {hamgame.__file__}, "
                 f"not from {SRC}")


def game_config(wl: Workload, seed: int, idx: int, n: int):
    from hamgame import runner
    from hamgame.board import GameConfig

    return GameConfig.scaled(n, seed=runner.hash_seed(seed, n, 0, idx),
                             audit_level=wl.audit_level)


def log_edges(log) -> int:
    return sum(len(rec.edges) for rec in log.records)


# -- setup -------------------------------------------------------------------

def setup_once(wl: Workload, seed: int, n: int, work: Path) -> list[Path]:
    """What a user pays before the first operation: a fresh interpreter
    importing the package and, for verify workloads, the saved logs."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                   check=True)
    if wl.kind != "verify":
        return []
    from hamgame import runner

    logs = []
    for idx, policy in enumerate(wl.policies):
        result = runner.run_game(game_config(wl, seed, idx, n), policy)
        path = work / f"{idx}-{policy}.jsonl"
        result.log.write(str(path))
        logs.append(path)
    return logs


def setup(wl: Workload, seed: int, n: int, work: Path):
    """Set up `setup_reps` times; returns (median seconds, logs, ok).

    The logs of every repetition must be byte-identical."""
    times, digests = [], set()
    logs: list[Path] = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        logs = setup_once(wl, seed, n, work)
        times.append(time.perf_counter() - t0)
        digests.add(files_digest(logs))
    return statistics.median(times), logs, len(digests) == 1


def files_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# -- operations ----------------------------------------------------------------

def play_op(wl: Workload, seed: int, idx: int, n: int, work: Path,
            tally: Tally, tracer) -> None:
    """`hamgame run --out`: play one game and write its log."""
    from hamgame import audit, gamelog, runner

    path = work / "play.jsonl"
    cfg = game_config(wl, seed, idx, n)
    policy = wl.policies[idx % len(wl.policies)]
    t0 = time.perf_counter()
    try:
        result = runner.run_game(cfg, policy)
        result.log.write(str(path))
    except Exception:
        tally.op_seconds.append(time.perf_counter() - t0)
        tally.fail(traceback.format_exc())
        return
    tally.op_seconds.append(time.perf_counter() - t0)

    with paused(tracer):
        data = path.read_bytes()
        tally.log_hashes.append(hashlib.sha256(data).hexdigest())
        tally.edges += log_edges(result.log)
        if result.outcome == runner.ABORTED:
            tally.fail(f"{policy} game aborted: {result.reason}")
            return
        saved = gamelog.GameLog.parse(data.decode())
        rebuilt = gamelog.board_fingerprint(gamelog.apply_log(saved))
        if rebuilt != saved.end["fingerprint"]:
            tally.fail(f"{policy} log does not rebuild its fingerprint")
            return
        if result.outcome == runner.MAKER_WIN:
            if not audit.verify_hamilton(saved):
                tally.fail(f"{policy} win certificate rejected")
                return
            tally.wins += 1


def verify_op(log: Path, edges: int, won: bool, tally: Tally) -> None:
    """`hamgame replay LOG` then `hamgame audit LOG`."""
    from hamgame import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            codes = (cli.main(["replay", str(log)]),
                     cli.main(["audit", str(log)]))
    except Exception:
        tally.op_seconds.append(time.perf_counter() - t0)
        tally.fail(traceback.format_exc())
        return
    tally.op_seconds.append(time.perf_counter() - t0)
    tally.edges += edges
    if codes != (0, 0) or not out.getvalue().startswith("OK fingerprint="):
        tally.fail(f"{log.name}: exit codes {codes}: {out.getvalue()[:500]}")
        return
    tally.wins += won


@contextlib.contextmanager
def paused(tracer):
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


# -- one run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        n: int | None = None) -> dict:
    """Set up, measure for `seconds` of wall time, print the metric lines
    and return the result object.  `n` overrides the workload's size."""
    wl = WORKLOADS[workload]
    n = wl.n if n is None else n
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            return measure(wl, seed, seconds, n, Path(tmp), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(wl: Workload, seed: int, seconds: float, n: int, work: Path,
            tracer) -> dict:
    from hamgame import gamelog

    setup_s, logs, setup_repeatable = setup(wl, seed, n, work)
    verify_inputs = []
    for path in logs:
        saved = gamelog.GameLog.load(str(path))
        verify_inputs.append((path, log_edges(saved),
                              saved.end["outcome"] == "MakerWin"))
    if tracer is not None:
        tracer.reset()

    cycle = len(wl.policies)
    tally = Tally()
    start = time.perf_counter()
    idx = 0
    while idx % cycle or idx == 0 or time.perf_counter() - start < seconds:
        if wl.kind == "play":
            play_op(wl, seed, idx, n, work, tally, tracer)
        else:
            verify_op(*verify_inputs[idx % cycle], tally)
        idx += 1
    attempted = idx

    digest = files_digest(logs) if wl.kind == "verify" else \
        hashlib.sha256("".join(tally.log_hashes[:cycle]).encode()).hexdigest()
    correct = tally.failed == 0 and setup_repeatable
    if not setup_repeatable:
        print("FAILED: set-up logs differ between repetitions", file=sys.stderr)
    total_s = sum(tally.op_seconds)
    # Policies differ in cost, so a median over the mixed sample would sit
    # between two policies' extremes.  Take each policy's median (every
    # run holds whole cycles) and weigh the policies equally.
    p50s = {policy: statistics.median(tally.op_seconds[j::cycle])
            for j, policy in enumerate(wl.policies)}
    print(f"workload {wl.name} n={n} seed={seed} trace={int(tracer is not None)}"
          f" load=closed-loop clients=1 ops={attempted} cycle={cycle}")
    print(f"log_sha256 {digest} (first cycle, {cycle} logs)")
    outcomes = {
        "ops_failed_frac": tally.failed / attempted,
        "maker_win_frac": tally.wins / attempted,
    }
    if tracer is None:
        metrics = {
            "edges_per_s": tally.edges / total_s,
            "op_s_p50": statistics.fmean(p50s.values()),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        metrics = tracer.metrics(attempted, total_s, tally.edges)
    print(f"op_s_p50 by policy, {attempted // cycle} ops each: "
          + " ".join(f"{policy}={p50!r}" for policy, p50 in p50s.items()))
    for name, value in outcomes.items():
        print(f"metric {name} {value!r} {OUTCOME_UNITS[name]}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    return {"correct": correct, "attempted": attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_hamgame()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
