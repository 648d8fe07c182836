"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces the public entry points of each hamgame
module with timing wrappers, at the name each caller looks up (module
globals are bound at import, so a rotation function is wrapped inside
`hamgame.maker`, not inside `hamgame.rotation`).  A wrapper times its
call and subtracts the time its wrapped children took, so every layer
reports self time.  Counts come from return values at the same
boundaries.  `Board.claim_edge` is never wrapped: it runs millions of
times per game, so edge counts come from the logs instead.

The wrappers and the counting Breaker RNG must not change any game.
The benchmark proves that by comparing log digests of traced and
untraced runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from random import Random

from hamgame import audit, board, breakers, cli, gamelog, maker, paths, runner

# Per-layer metrics in report order, with their unit.  Times and counts
# are per measured operation; the two ratios are taken over the run.
LAYER_METRICS = {
    "breakers.take_turn_s": "s/op",
    "breakers.edges": "count/op",
    "breakers.us_per_edge": "us",
    "breakers.draws_per_edge": "draw/edge",
    "breakers.script_load_s": "s/op",
    "board.refresh_troublesome_s": "s/op",
    "board.troublesome": "count/op",
    "paths.absorb_s": "s/op",
    "paths.absorb_calls": "count/op",
    "paths.find_joinable_pair_s": "s/op",
    "paths.deep_check_s": "s/op",
    "maker.phase1_s": "s/op",
    "maker.phase2_s": "s/op",
    "maker.turns": "count/op",
    "maker.case2_turns": "count/op",
    "rotation.find_closing_pair_s": "s/op",
    "rotation.advance_tracked_path_s": "s/op",
    "rotation.normalize_endpoints_s": "s/op",
    "rotation.endpoint_pairs_scan_s": "s/op",
    "rotation.truncated_searches": "count/op",
    "runner.monitor_s": "s/op",
    "runner.loop_s": "s/op",
    "audit.live_audit_s": "s/op",
    "audit.expansion_audit_s": "s/op",
    "audit.connectivity_audit_s": "s/op",
    "audit.potential_audit_s": "s/op",
    "audit.potential_runs": "count/op",
    "audit.turn_accounting_s": "s/op",
    "audit.verify_hamilton_s": "s/op",
    "gamelog.dumps_s": "s/op",
    "gamelog.log_bytes": "B/op",
    "gamelog.board_fingerprint_s": "s/op",
    "gamelog.parse_s": "s/op",
    "gamelog.apply_log_s": "s/op",
    "harness.unattributed_s": "s/op",
    "trace.edges_per_s": "1/s",
}

MONITOR_METHODS = ("service_needed", "note_trouble", "before_maker",
                   "after_maker", "on_phase_flip", "check_growth",
                   "deep_check")


class CountingRandom(Random):
    """A Random that counts draws and returns exactly what Random would.

    Only `randrange` and `sample` are overridden, and both defer to the
    base class, so the stream of values is unchanged.
    """

    def __init__(self, source: Random, tracer: "Tracer") -> None:
        super().__init__()
        self.setstate(source.getstate())
        self.tracer = tracer

    def randrange(self, *args, **kwargs):
        self.tracer.counts["breakers.draws"] += 1
        return super().randrange(*args, **kwargs)

    def sample(self, population, k, **kwargs):
        self.tracer.counts["breakers.draws"] += k
        return super().sample(population, k, **kwargs)


class Tracer:
    """Self-time and count accumulators for one benchmark process."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One [child seconds, layer] frame per open wrapped call.
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, on_return=None):
        """`layer` is a name, or a function of the call's arguments."""
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = layer(*args) if callable(layer) else layer
            stack = tracer._stack
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(result, stack[-1][1] if stack else None)
            return result

        return wrapper

    def _patch(self, owner, attr: str, layer, on_return=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, on_return))
        else:
            wrapped = self._wrap(raw, layer, on_return)
        setattr(owner, attr, wrapped)

    def _count(self, key: str, measure):
        counts = self.counts

        def on_return(result, _parent):
            counts[key] += measure(result)
        return on_return

    def install(self) -> None:
        counts = self.counts
        patch = self._patch

        def breaker_edges(edges, parent):
            # A fallback policy called by another policy is nested; count
            # each claimed edge once, at the outermost Breaker call.
            if parent != "breakers.take_turn_s":
                counts["breakers.edges"] += len(edges)

        for cls in vars(breakers).values():
            if isinstance(cls, type) and "take_turn" in vars(cls):
                patch(cls, "take_turn", "breakers.take_turn_s", breaker_edges)
        patch(breakers.ScriptedBreaker, "from_file", "breakers.script_load_s")

        patch(board.Board, "refresh_troublesome", "board.refresh_troublesome_s",
              self._count("board.troublesome", len))

        patch(paths.PathSystem, "absorb", "paths.absorb_s",
              self._count("paths.absorb_calls", lambda _: 1))
        patch(paths.PathSystem, "find_joinable_pair",
              "paths.find_joinable_pair_s")
        patch(paths.PathSystem, "deep_check", "paths.deep_check_s")

        def maker_move(move, _parent):
            counts["maker.turns"] += 1
            if "C2" in move.case:
                counts["maker.case2_turns"] += 1

        patch(maker.MakerStrategy, "turn",
              lambda strategy: f"maker.phase{strategy.phase}_s", maker_move)

        patch(maker, "find_closing_pair", "rotation.find_closing_pair_s",
              self._count("rotation.truncated_searches", lambda r: int(r[1])))
        patch(maker, "advance_tracked_path", "rotation.advance_tracked_path_s")
        patch(maker, "normalize_endpoints", "rotation.normalize_endpoints_s")
        patch(maker, "endpoint_pairs_scan", "rotation.endpoint_pairs_scan_s")
        patch(breakers, "endpoint_pairs_scan", "rotation.endpoint_pairs_scan_s")

        for method in MONITOR_METHODS:
            patch(runner.InvariantMonitor, method, "runner.monitor_s")
        patch(runner, "run_game", "runner.loop_s")
        patch(cli, "run_game", "runner.loop_s")
        original_game_rng = runner.game_rng

        def game_rng(cfg, role):
            rng = original_game_rng(cfg, role)
            return CountingRandom(rng, self) if role == "breaker" else rng

        self._undo.append((runner, "game_rng", original_game_rng))
        runner.game_rng = game_rng

        patch(audit, "live_audit", "audit.live_audit_s")
        patch(audit, "expansion_audit", "audit.expansion_audit_s")
        patch(audit, "connectivity_audit", "audit.connectivity_audit_s")
        patch(cli, "potential_audit", "audit.potential_audit_s",
              self._count("audit.potential_runs", len))
        patch(cli, "turn_accounting", "audit.turn_accounting_s")
        patch(cli, "verify_hamilton", "audit.verify_hamilton_s")

        patch(gamelog.GameLog, "dumps", "gamelog.dumps_s",
              self._count("gamelog.log_bytes", len))
        patch(gamelog.GameLog, "parse", "gamelog.parse_s")
        patch(runner, "board_fingerprint", "gamelog.board_fingerprint_s")
        patch(gamelog, "board_fingerprint", "gamelog.board_fingerprint_s")
        patch(gamelog, "apply_log", "gamelog.apply_log_s")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, op_seconds: float, edges: int) -> dict:
        """Every LAYER_METRICS entry for `ops` operations that took
        `op_seconds` in total and claimed `edges` edges."""
        self_s = self.self_s
        per_op = {name: secs / ops for name, secs in self_s.items()}
        per_op.update((name, c / ops) for name, c in self.counts.items())
        b_edges = self.counts["breakers.edges"]
        b_secs = self_s.get("breakers.take_turn_s", 0.0)
        per_op["breakers.us_per_edge"] = \
            1e6 * b_secs / b_edges if b_edges else 0.0
        per_op["breakers.draws_per_edge"] = \
            self.counts["breakers.draws"] / b_edges if b_edges else 0.0
        per_op["harness.unattributed_s"] = \
            (op_seconds - sum(self_s.values())) / ops
        per_op["trace.edges_per_s"] = edges / op_seconds
        return {name: {"value": float(per_op.get(name, 0.0)), "unit": unit}
                for name, unit in LAYER_METRICS.items()}
