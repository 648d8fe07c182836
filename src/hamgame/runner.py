"""Game orchestration: the turn loop, online invariant monitor, and
seeded sweeps.

Round structure is fixed: Breaker claims up to b edges, troublesome
flags refresh and the new ones are absorbed, then Maker claims exactly
one edge (or ends the game).  Outcomes: MakerWin, StrategyFailure,
Timeout, Aborted (an engine invariant broke; the log is the witness).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from random import Random

from .board import (Board, GameConfig, AuditLevel, bits, scale_root,
                    scaled_defaults)
from .breakers import BreakerPolicy, make_policy
from .gamelog import GameLog, MoveRecord, board_fingerprint, config_meta
from .maker import MakerStrategy
from .paths import PathSystem

MAKER_WIN = "MakerWin"
STRATEGY_FAILURE = "StrategyFailure"
TIMEOUT = "Timeout"
ABORTED = "Aborted"

DEEP_CHECK_EVERY = 512


@dataclass
class GameResult:
    outcome: str
    reason: str | None
    log: GameLog
    maker_turns: int
    stats: dict
    violations: list[str] = field(default_factory=list)

    @property
    def won(self) -> bool:
        return self.outcome == MAKER_WIN


class InvariantMonitor:
    """Online checks of the strategy-execution invariants.

    Everything here is O(1) or amortized-cheap per turn; structural
    deep checks (the path partition, and the degree counters against the
    ownership rows) run at the phase flip, periodically, and at game end.
    Violations are recorded with the turn index, never raised.
    """

    def __init__(self, cfg: GameConfig, board: Board, ps: PathSystem,
                 maker: MakerStrategy) -> None:
        self.cfg = cfg
        self.board = board
        self.ps = ps
        self.maker = maker
        self.violations: list[str] = []
        self.trouble: list[int] = []
        self.phase_flip_checked = False

    def _fail(self, turn: int, what: str) -> None:
        self.violations.append(f"turn {turn}: {what}")

    def service_needed(self) -> bool:
        board = self.board
        quota = self.cfg.quota
        keep = [v for v in self.trouble if board.served[v] < quota]
        self.trouble = keep
        return bool(keep)

    def note_trouble(self, fresh: list[int]) -> None:
        self.trouble.extend(fresh)

    def before_maker(self) -> bool:
        return self.service_needed()

    def after_maker(self, turn: int, case: str, edge, needed_service: bool,
                    promoted: list[int]) -> None:
        board = self.board
        ps = self.ps
        quota = self.cfg.quota
        is_case2 = "C2" in case
        if is_case2 != needed_service:
            self._fail(turn, f"case {case} vs service-needed={needed_service}")
        if edge is not None:
            tail, head = edge
            if board.served[tail] > quota:
                self._fail(turn, f"service quota exceeded at {tail}")
            if is_case2 and not board.troublesome[tail]:
                self._fail(turn, f"Case-2 tail {tail} not troublesome")
            if is_case2 and promoted != [head]:
                self._fail(turn, f"Case-2 head {head} not absorbed")
            if "C1.1" in case or "P2.C1.2a" in case:
                hubs = self.cfg.hub_vertices()
                if not (hubs.start <= head < hubs.stop):
                    self._fail(turn, f"top-up head {head} outside hub range")
            for x in (tail, head):
                if ps.is_interior(x) and board.maker_deg[x] > 2:
                    self._fail(turn, f"interior {x} has Maker degree "
                                     f"{board.maker_deg[x]}")
        for v in promoted:
            if not ps.is_settled(v):
                self._fail(turn, f"promoted {v} not settled after absorb")

    def on_phase_flip(self, turn: int) -> None:
        if self.phase_flip_checked:
            self._fail(turn, "second phase flip")
            return
        self.phase_flip_checked = True
        cap = 2 * self.cfg.quota
        for v in range(self.board.n):
            if self.board.out_deg[v] > cap:
                self._fail(turn, f"phase-1 end out-degree {self.board.out_deg[v]} "
                                 f"> {cap} at {v}")
        self.deep_check(turn)

    def check_growth(self, turn: int) -> None:
        bound = self.ps.settled_mask.bit_count() + 3 * self.ps.path_count()
        if self.maker.growth_events > bound:
            self._fail(turn, f"growth events {self.maker.growth_events} "
                             f"> |S|+3|F| = {bound}")

    def deep_check(self, turn: int) -> None:
        for problem in self.ps.deep_check():
            self._fail(turn, f"partition: {problem}")
        board = self.board
        for name, want in board.recompute_counters().items():
            have = getattr(board, name)
            if have != want:
                v = next(v for v, (a, c) in enumerate(zip(have, want))
                         if a != c)
                self._fail(turn, f"counter {name}[{v}] = {have[v]}, "
                                 f"recount gives {want[v]}")


def game_rng(cfg: GameConfig, role: str) -> Random:
    return Random(f"{cfg.seed}:{cfg.n}:{cfg.b}:{role}")


def run_game(cfg: GameConfig,
             breaker: str | BreakerPolicy = "random") -> GameResult:
    board = Board(cfg)
    ps = PathSystem(cfg.n, set(cfg.hub_vertices()))
    maker = MakerStrategy(cfg, board, ps, game_rng(cfg, "maker"))
    policy = breaker if isinstance(breaker, BreakerPolicy) \
        else make_policy(breaker)
    rng_b = game_rng(cfg, "breaker")
    monitor = InvariantMonitor(cfg, board, ps, maker)
    log = GameLog(meta=config_meta(cfg, policy.name))

    def absorb(v: int) -> None:
        res = ps.absorb(v)
        maker.note_promoted(v)
        for pid in res.new_paths:
            a, b2 = ps.ends[pid]
            maker.note_new_endpoints([a, b2] if a != b2 else [a])

    outcome = TIMEOUT
    reason: str | None = "turn limit reached"
    maker_turns = 0
    max_settled = ps.settled_mask.bit_count()
    max_paths = ps.path_count()
    check_level = cfg.audit_level is not AuditLevel.OFF

    for rnd in range(1, cfg.max_turns + 1):
        board.turn = rnd
        k = min(cfg.b, board.unclaimed_pairs())
        edges = policy.take_turn(board, rng_b, k, maker) if k else []
        fresh = board.refresh_troublesome()
        policy.note_trouble(fresh)
        monitor.note_trouble(fresh)
        log.records.append(MoveRecord(rnd, "B", edges, None, fresh))
        for v in fresh:
            absorb(v)

        phase_before = maker.phase
        needed = monitor.before_maker() if check_level else False
        move = maker.turn()
        maker_turns += 1
        for w in move.promoted:
            absorb(w)
        log.records.append(MoveRecord(
            rnd, "M", [move.edge] if move.edge else [], move.case,
            move.promoted))
        if check_level:
            monitor.after_maker(rnd, move.case, move.edge, needed,
                                move.promoted)
            if maker.phase == 2 and phase_before == 1:
                monitor.on_phase_flip(rnd)
            if maker.phase == 2:
                monitor.check_growth(rnd)
            if rnd % DEEP_CHECK_EVERY == 0:
                monitor.deep_check(rnd)
        max_settled = max(max_settled, ps.settled_mask.bit_count())
        max_paths = max(max_paths, ps.path_count())

        if move.won:
            outcome, reason = MAKER_WIN, None
            break
        if move.end_reason is not None:
            outcome, reason = STRATEGY_FAILURE, move.end_reason
            break

    if check_level:
        monitor.deep_check(board.turn)
    if monitor.violations:
        outcome = ABORTED
        reason = monitor.violations[0]

    certificate = None
    if outcome == MAKER_WIN and maker.tracked is not None:
        certificate = list(maker.tracked.order)

    case2_turns = sum(c for label, c in maker.case_counts.items()
                      if "C2" in label)
    stats = {
        "maker_turns": maker_turns,
        "case_counts": dict(sorted(maker.case_counts.items())),
        "case2_turns": case2_turns,
        "booster_turns": maker.booster_turns,
        "growth_events": maker.growth_events,
        "truncated_searches": maker.truncated_searches,
        "max_settled": max_settled,
        "max_paths": max_paths,
        "troublesome": sum(board.troublesome),
        "phase1_end_turn": maker.phase1_end_turn,
    }
    if check_level:
        from .audit import live_audit

        report = live_audit(board, ps, game_rng(cfg, "audit"),
                            samples=cfg.audit_samples)
        stats["expansion_pass_rate"] = report.expansion.pass_rate
        stats["connectivity_pass_rate"] = \
            1.0 if report.connectivity_ok else 0.0
        stats["expansion_witnesses"] = [
            [size, list(subset), count, need]
            for size, subset, count, need in report.expansion.failures[:20]
        ]
        stats["expansion_exact_complete"] = report.expansion.exact_complete
    if cfg.audit_level is AuditLevel.FULL:
        stats["pair_counts"] = list(maker.pair_counts)
    log.end = {
        "outcome": outcome,
        "reason": reason,
        "turns": board.turn,
        "maker_turns": maker_turns,
        "certificate": certificate,
        "fingerprint": board_fingerprint(board),
        "stats": stats,
    }
    return GameResult(outcome=outcome, reason=reason, log=log,
                      maker_turns=maker_turns, stats=stats,
                      violations=list(monitor.violations))


# -- sweeps ----------------------------------------------------------------

CSV_COLUMNS = [
    "n", "b", "seed", "breaker", "outcome", "maker_turns", "overhead",
    "overhead_norm", "max_S", "max_F", "troublesome", "case2_turns",
    "booster_turns", "growth_events", "expansion_pass_rate",
    "connectivity_pass_rate", "audit_violations",
]


@dataclass
class SweepSpec:
    """An (n, seed) grid of games against one Breaker policy.  `params`
    holds GameConfig.scaled keyword arguments other than `seed`; each
    game's seed is mixed from `master_seed` and its cell."""

    n_values: list[int]
    seeds: int
    breaker: str = "random"
    master_seed: int = 0
    params: dict = field(default_factory=dict)

    def cells(self):
        for n in self.n_values:
            for idx in range(self.seeds):
                yield n, idx

    def config_for(self, n: int, idx: int) -> GameConfig:
        seed = hash_seed(self.master_seed, n, self.params.get("b") or 0, idx)
        return GameConfig.scaled(n, seed=seed, **self.params)

    def manifest(self) -> dict:
        params = {**scaled_defaults(), **self.params}
        del params["seed"]
        return {
            "n_values": self.n_values, "seeds": self.seeds,
            "breaker": self.breaker, "master_seed": self.master_seed,
            **params, "columns": CSV_COLUMNS,
        }


def hash_seed(master: int, n: int, b: int, idx: int) -> int:
    """Stable mixing of the cell coordinates into one stream seed."""
    digest = hashlib.sha256(f"{master}:{n}:{b}:{idx}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sweep_row(result: GameResult, idx: int) -> dict:
    """The CSV row of cell `idx`'s game; n, b and the policy come from
    its log header."""
    meta = result.log.meta
    n = meta["n"]
    overhead = result.maker_turns - n
    norm = overhead / scale_root(n)
    expansion_rate = result.stats.get("expansion_pass_rate")
    connectivity_rate = result.stats.get("connectivity_pass_rate")
    return {
        "n": n, "b": meta["b"], "seed": idx, "breaker": meta["breaker"],
        "outcome": result.outcome,
        "maker_turns": result.maker_turns,
        "overhead": overhead,
        "overhead_norm": f"{norm:.6f}",
        "max_S": result.stats["max_settled"],
        "max_F": result.stats["max_paths"],
        "troublesome": result.stats["troublesome"],
        "case2_turns": result.stats["case2_turns"],
        "booster_turns": result.stats["booster_turns"],
        "growth_events": result.stats["growth_events"],
        "expansion_pass_rate":
            "" if expansion_rate is None else f"{expansion_rate:.6f}",
        "connectivity_pass_rate":
            "" if connectivity_rate is None else f"{connectivity_rate:.6f}",
        "audit_violations": len(result.violations),
    }


def _sweep_cell(args: tuple) -> GameResult:
    cfg, breaker = args
    return run_game(cfg, breaker)


def run_sweep(spec: SweepSpec, out_dir: str | None = None,
              keep_logs: bool = False, workers: int = 1):
    """Run every cell; returns (rows, results) aggregated in spec order.

    Cells are independent (per-game RNG comes only from the cell
    coordinates), so any worker count yields the same artifacts.  With
    out_dir set, writes sweep.csv, manifest.json and (optionally)
    per-game logs there.  Reruns of the same spec produce identical
    bytes.
    """
    cells = list(spec.cells())
    jobs = [(spec.config_for(n, idx), spec.breaker) for n, idx in cells]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    else:
        results = [_sweep_cell(job) for job in jobs]
    rows = [sweep_row(result, idx)
            for (_, idx), result in zip(cells, results)]
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "sweep.csv"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if keep_logs:
            for (n, idx), result in zip(spec.cells(), results):
                result.log.write(os.path.join(
                    out_dir, f"game_n{n}_s{idx}.jsonl"))
    return rows, results


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
