"""Acceptance battery: one test per release criterion.

Each test writes a single PASS/FAIL line to artifacts/acceptance_report.txt
(and stdout) before asserting, so a red run still leaves a readable record.
Heavy game batches live in session fixtures and are shared across criteria:
the invariant games also feed the potential check, and every MakerWin from
any batch flows into the win-verification tally.
"""

import json
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from oracles import (
    closure_endpoints_bruteforce,
    endpoint_pairs_bruteforce,
    random_maker_graph,
)

from hamgame.audit import potential_audit, verify_hamilton
from hamgame.board import GameConfig
from hamgame.gamelog import apply_log, board_fingerprint
from hamgame.rotation import endpoint_pairs_scan, limited_rotation_closure
from hamgame.runner import ABORTED, MAKER_WIN, hash_seed, run_game

pytestmark = pytest.mark.slow

ART = Path(__file__).resolve().parent.parent / "artifacts"
POLICIES = ("random", "isolator", "maxdanger", "pairkiller")


class Ledger:
    def __init__(self, path):
        self.path = path

    def check(self, num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'}: {detail}"
        with self.path.open("a") as fh:
            fh.write(line + "\n")
        print(line)
        assert ok, line


@pytest.fixture(scope="session")
def ledger():
    ART.mkdir(exist_ok=True)
    path = ART / "acceptance_report.txt"
    path.write_text("")
    return Ledger(path)


def tally_win(bucket, result):
    if result.outcome == MAKER_WIN:
        bucket["wins"] += 1
        bucket["verified"] += int(verify_hamilton(result.log))


@pytest.fixture(scope="session")
def replay_batch():
    """Criterion 1 games: 50 seeds per policy at n=1000, audits off."""
    t0 = time.perf_counter()
    data = {"games": 0, "byte_matches": 0, "state_matches": 0,
            "wins": 0, "verified": 0}
    for pol_idx, pol in enumerate(POLICIES):
        for idx in range(50):
            seed = hash_seed(101 + pol_idx, 1000, 36, idx)
            cfg = GameConfig.scaled(1000, seed=seed, audit_level="off")
            first = run_game(cfg, breaker=pol)
            second = run_game(cfg, breaker=pol)
            data["games"] += 1
            if first.log.dumps() == second.log.dumps():
                data["byte_matches"] += 1
            rebuilt = board_fingerprint(apply_log(first.log))
            if rebuilt == first.log.end["fingerprint"]:
                data["state_matches"] += 1
            tally_win(data, first)
    data["elapsed"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="session")
def invariant_batch():
    """Criterion 3/4 games: 100 seeds per policy at n=1000, audits on."""
    data = {"games": 0, "clean": 0, "violations": [],
            "runs": 0, "runs_ok": 0, "per_policy": {},
            "wins": 0, "verified": 0}
    for pol_idx, pol in enumerate(POLICIES):
        outcomes = {}
        for idx in range(100):
            seed = hash_seed(303 + pol_idx, 1000, 36, idx)
            result = run_game(GameConfig.scaled(1000, seed=seed), breaker=pol)
            data["games"] += 1
            if result.outcome != ABORTED and not result.violations:
                data["clean"] += 1
            else:
                data["violations"].append((pol, idx, result.violations[:3]))
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            for run in potential_audit(result.log):
                data["runs"] += 1
                data["runs_ok"] += int(run.ok)
            tally_win(data, result)
        data["per_policy"][pol] = outcomes
    return data


@pytest.fixture(scope="session")
def trend_batch():
    """Criterion 6/7 games: 50 seeds per n vs the random policy."""
    t0 = time.perf_counter()
    data = {"cells": {}, "archive": [], "wins": 0, "verified": 0}
    for n in (500, 1000, 2000, 4000):
        overheads, rates_e, rates_c = [], [], []
        win_count = 0
        for idx in range(50):
            cfg = GameConfig.scaled(n, seed=hash_seed(606, n, 0, idx))
            result = run_game(cfg)
            stats = result.stats
            win_count += int(result.outcome == MAKER_WIN)
            overheads.append(result.maker_turns - n)
            rates_e.append(stats["expansion_pass_rate"])
            rates_c.append(stats["connectivity_pass_rate"])
            data["archive"].append({
                "n": n, "idx": idx, "outcome": result.outcome,
                "expansion_pass_rate": stats["expansion_pass_rate"],
                "connectivity_pass_rate": stats["connectivity_pass_rate"],
                "exact_complete": stats["expansion_exact_complete"],
                "witnesses": stats["expansion_witnesses"],
            })
            tally_win(data, result)
        data["cells"][n] = {
            "wins": win_count,
            "median_overhead": statistics.median(overheads),
            "norm": statistics.median(overheads) / (n / math.sqrt(math.log(n))),
            "min_expansion": min(rates_e),
            "min_connectivity": min(rates_c),
            "ge99": sum(1 for e, c in zip(rates_e, rates_c)
                        if e >= 0.99 and c >= 0.99),
        }
    data["elapsed"] = time.perf_counter() - t0
    xs = [n / math.sqrt(math.log(n)) for n in data["cells"]]
    ys = [cell["median_overhead"] for cell in data["cells"].values()]
    data["coefficient"] = sum(x * y for x, y in zip(xs, ys)) \
        / sum(x * x for x in xs)
    return data


@pytest.fixture(scope="session")
def adversarial_batch():
    """Criterion 8 games: 20 seeds vs the isolating policy at n=2000."""
    data = {"games": 20, "wins": 0, "verified": 0, "case2_nonzero": 0}
    for idx in range(20):
        cfg = GameConfig.scaled(2000, seed=hash_seed(808, 2000, 0, idx))
        result = run_game(cfg, breaker="isolator")
        data["case2_nonzero"] += int(result.stats["case2_turns"] > 0)
        tally_win(data, result)
    return data


def test_criterion_1_replay_determinism(ledger, replay_batch):
    d = replay_batch
    ok = (d["byte_matches"] == d["games"] == 200
          and d["state_matches"] == 200 and d["elapsed"] < 300)
    ledger.check(1, ok,
                 f"{d['byte_matches']}/200 logs byte-identical on rerun, "
                 f"{d['state_matches']}/200 final states rebuilt from the "
                 f"log match the recorded fingerprint, "
                 f"{d['elapsed']:.0f}s (budget 300s)")


def test_criterion_2_rotation_oracle_equivalence(ledger):
    rng = random.Random(20260815)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(4, 10)
        adj_sets, base = random_maker_graph(rng, n, rng.randint(0, 5))
        pivots = {v for v in range(n) if rng.random() < 0.7}
        adj = [sum(1 << v for v in nbrs) for nbrs in adj_sets]
        pmask = sum(1 << v for v in pivots)
        closure = limited_rotation_closure(adj, pmask, base)
        if set(closure.endpoints) != closure_endpoints_bruteforce(
                adj_sets, pivots, base):
            mismatches += 1
        pairs, truncated = endpoint_pairs_scan(adj, pmask, base)
        if truncated or pairs != endpoint_pairs_bruteforce(
                adj_sets, pivots, base):
            mismatches += 1
    ledger.check(2, mismatches == 0,
                 f"500 random graphs with n <= 10: {mismatches} "
                 f"closure/pair mismatches against brute-force enumeration")


def test_criterion_3_invariants_hold(ledger, invariant_batch):
    d = invariant_batch
    ok = d["clean"] == d["games"] == 400
    ledger.check(3, ok,
                 f"{d['clean']}/400 games (100 per policy, n=1000) finished "
                 f"with zero monitor violations; first offenders: "
                 f"{d['violations'][:2] or 'none'}")


def test_criterion_4_potential_inequalities(ledger, invariant_batch):
    d = invariant_batch
    ok = d["runs_ok"] == d["runs"] and d["runs"] > 0
    ledger.check(4, ok,
                 f"{d['runs_ok']}/{d['runs']} service runs satisfied the "
                 f"per-step and aggregate danger-potential bounds exactly "
                 f"(rational arithmetic, zero tolerance)")


def test_criterion_5_win_verification(ledger, replay_batch, invariant_batch,
                                      trend_batch, adversarial_batch):
    wins = verified = 0
    for batch in (replay_batch, invariant_batch, trend_batch,
                  adversarial_batch):
        wins += batch["wins"]
        verified += batch["verified"]
    ledger.check(5, wins > 0 and verified == wins,
                 f"{verified}/{wins} MakerWin outcomes carry a certificate "
                 f"whose cycle edges are all Maker-owned (release blocker)")


def test_criterion_6_scaled_win_trend(ledger, trend_batch):
    d = trend_batch
    cells = d["cells"]
    win_ok = all(cell["wins"] >= 48 for cell in cells.values())
    norms = [cells[n]["norm"] for n in sorted(cells)]
    trend_ok = all(b <= a for a, b in zip(norms, norms[1:]))
    detail = ", ".join(
        f"n={n}: {cells[n]['wins']}/50 wins, "
        f"median overhead {cells[n]['median_overhead']:.0f} "
        f"(norm {cells[n]['norm']:.3f})" for n in sorted(cells))
    ledger.check(6, win_ok and trend_ok and d["elapsed"] < 1800,
                 f"{detail}; fitted overhead coefficient "
                 f"{d['coefficient']:.3f} * n/sqrt(ln n); "
                 f"{d['elapsed']:.0f}s (budget 1800s)")


def test_criterion_7_probabilistic_pass_rates(ledger, trend_batch):
    d = trend_batch
    out = ART / "expansion_witnesses.json"
    out.write_text(json.dumps(d["archive"], indent=1))
    reported = all(g["expansion_pass_rate"] is not None
                   and g["connectivity_pass_rate"] is not None
                   for g in d["archive"])
    detail = ", ".join(
        f"n={n}: {cell['ge99']}/50 games at >= 0.99 "
        f"(min expansion {cell['min_expansion']:.4f}, "
        f"min connectivity {cell['min_connectivity']:.2f})"
        for n, cell in sorted(d["cells"].items()))
    ledger.check(7, reported and out.exists(),
                 f"pass rates reported, not asserted: {detail}; "
                 f"witnesses archived to {out.name}")


def test_criterion_8_adversarial_smoke(ledger, adversarial_batch):
    d = adversarial_batch
    ok = d["case2_nonzero"] >= 18
    ledger.check(8, ok,
                 f"vs isolating policy at n=2000: {d['wins']}/20 wins "
                 f"(reported), service turns fired in "
                 f"{d['case2_nonzero']}/20 games (floor 18)")
