"""Maker's two-phase strategy: the per-turn case dispatcher.

Phase 1 builds infrastructure: serve endangered vertices, wire settled
vertices into the hub set, concatenate family paths.  When no family
pair can be joined, the game enters Phase 2, which keeps serving and
wiring but spends its structural turns growing one tracked path via
rotation-extension and closing it into ever-longer cycles.

Priority order inside a turn never changes: service beats wiring beats
structure.  Exactly one edge is claimed per turn (the turn the phase
flips carries a combined label, still one edge).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from random import Random

from .board import AuditLevel, Board, GameConfig, MAKER, bits, kth_set_bit
from .paths import PathSystem
from .rotation import (
    NormalizeError,
    TrackedPath,
    advance_tracked_path,
    endpoint_pairs_scan,
    find_closing_pair,
    normalize_endpoints,
)


@dataclass
class MakerMove:
    """What one Maker turn produced: either a claimed edge or a game end."""

    case: str
    edge: tuple[int, int] | None = None
    promoted: list[int] = field(default_factory=list)
    end_reason: str | None = None   # set only when the strategy stops the game
    won: bool = False


class MakerStrategy:
    """Owns phase state, deficit queues, and the tracked path.

    The runner drives it: after every Breaker half-move (plus troublesome
    refresh and absorption) it calls turn() exactly once.
    """

    def __init__(self, cfg: GameConfig, board: Board, ps: PathSystem,
                 rng: Random) -> None:
        self.cfg = cfg
        self.board = board
        self.ps = ps
        self.rng = rng
        self.hub_mask = 0
        for h in cfg.hub_vertices():
            self.hub_mask |= 1 << h
        self.phase = 1
        self.phase1_end_turn: int | None = None
        self.tracked: TrackedPath | None = None
        # Vertices that may need service: troublesome and served < quota.
        self.active_troublesome: list[int] = []
        # Lazy min-heaps of top-up candidates, keyed by vertex index.
        self._settled_deficit: list[int] = []
        self._end_deficit: list[int] = []
        for v in bits(ps.settled_mask):
            heapq.heappush(self._settled_deficit, v)
        for a, b in ps.ends.values():
            heapq.heappush(self._end_deficit, a)
            if b != a:
                heapq.heappush(self._end_deficit, b)
        # Counters the audits and sweep rows read.
        self.case_counts: dict[str, int] = {}
        self.booster_turns = 0
        self.growth_events = 0
        self.truncated_searches = 0
        # (turn, available pair count) samples, full audit level only.
        self.pair_counts: list[tuple[int, int]] = []

    # -- bookkeeping hooks the runner calls ------------------------------

    def note_promoted(self, v: int) -> None:
        """v just entered the settled set (troublesome onset or serve head)."""
        if self.board.troublesome[v] and self.board.served[v] < self.cfg.quota:
            self.active_troublesome.append(v)
        heapq.heappush(self._settled_deficit, v)

    def note_new_endpoints(self, ends: list[int]) -> None:
        for v in ends:
            heapq.heappush(self._end_deficit, v)

    # -- dispatch helpers -------------------------------------------------

    def _pick_service_target(self) -> int | None:
        """Max danger among troublesome vertices with served < quota,
        ties to the lowest index; prunes saturated entries in passing."""
        board = self.board
        quota = self.cfg.quota
        best = -1
        best_danger = 0
        keep: list[int] = []
        for v in self.active_troublesome:
            if board.served[v] >= quota:
                continue
            keep.append(v)
            d = board.danger(v)
            if best < 0 or d > best_danger or (d == best_danger and v < best):
                best = v
                best_danger = d
        self.active_troublesome = keep
        return best if best >= 0 else None

    def _pop_settled_deficit(self) -> int | None:
        board = self.board
        quota = self.cfg.quota
        h = self._settled_deficit
        while h:
            v = h[0]
            if board.out_deg[v] >= quota:
                heapq.heappop(h)
                continue
            return v
        return None

    def _pop_end_deficit(self) -> int | None:
        board = self.board
        ps = self.ps
        quota = self.cfg.quota
        h = self._end_deficit
        while h:
            v = h[0]
            if not ps.is_endpoint(v) or board.out_deg[v] >= quota:
                heapq.heappop(h)
                continue
            return v
        return None

    def _hub_draw(self, v: int) -> int | None:
        """Uniform seeded draw from the hubs v can still reach."""
        board = self.board
        cand = (self.hub_mask & ~board.breaker_adj[v] & ~board.maker_adj[v]
                & ~(1 << v))
        if not cand:
            return None
        # The hubs are the top hub_size ids, so the walk starts at them.
        lo = board.n - self.cfg.hub_size
        return lo + kth_set_bit(cand >> lo,
                                self.rng.randrange(cand.bit_count()))

    def _serve(self, v: int, label: str) -> MakerMove:
        board = self.board
        cand = (board.full_mask & ~self.ps.settled_mask
                & ~board.breaker_adj[v] & ~board.maker_adj[v] & ~(1 << v))
        if not cand:
            return MakerMove(case=label, end_reason="troublesome service exhausted")
        w = (cand & -cand).bit_length() - 1
        board.claim_edge(v, w, MAKER)
        return MakerMove(case=label, edge=(v, w), promoted=[w])

    def _top_up(self, v: int, label: str) -> MakerMove:
        w = self._hub_draw(v)
        if w is None:
            return MakerMove(
                case=label, end_reason=f"hub pool saturated for vertex {v}")
        self.board.claim_edge(v, w, MAKER)
        return MakerMove(case=label, edge=(v, w))

    # -- phase 2 machinery -------------------------------------------------

    def _pivot_mask(self) -> int:
        if self.cfg.limited_only:
            return self.ps.settled_mask
        return self.board.full_mask

    def _advance(self) -> None:
        """Regrow the tracked path; called before every Phase-2 dispatch."""
        tracked = self.tracked
        assert tracked is not None
        tracked, grew = advance_tracked_path(
            self.board.maker_adj, self._pivot_mask(), self.ps.anchor_mask(),
            tracked, max_states=self.cfg.closure_budget)
        self.tracked = tracked
        if grew:
            self.growth_events += 1

    def _close_or_end(self, label: str) -> MakerMove:
        """Phase-2 structural turn: claim a cycle-closing edge or end."""
        board = self.board
        tracked = self.tracked
        assert tracked is not None
        if tracked.cycle_closed:
            if len(tracked) == board.n:
                return MakerMove(case=label, won=True,
                                 end_reason="spanning cycle complete")
            return MakerMove(case=label, end_reason="stalled with closed cycle")
        try:
            normalized = normalize_endpoints(
                board.maker_adj, self.ps.anchor_mask(), tracked.order)
        except NormalizeError as exc:
            return MakerMove(case=label,
                             end_reason=f"endpoint normalization failed: {exc}")
        if self.cfg.audit_level is AuditLevel.FULL:
            pairs, _ = endpoint_pairs_scan(
                board.maker_adj, self._pivot_mask(), normalized,
                budget=self.cfg.closure_budget)
            self.pair_counts.append((board.turn, len(pairs)))
        hit, truncated = find_closing_pair(
            board.maker_adj, board.breaker_adj, self._pivot_mask(),
            self.hub_mask, normalized, budget=self.cfg.closure_budget)
        if truncated:
            self.truncated_searches += 1
        if hit is None:
            return MakerMove(case=label,
                             end_reason="phase 2 ended without Hamilton cycle")
        a, b, witness = hit
        tail, head = witness[0], witness[-1]
        # Direct the edge so a troublesome tail at quota never gets
        # another service increment charged against it.
        quota = self.cfg.quota
        if board.troublesome[tail] and board.served[tail] >= quota \
                and not (board.troublesome[head] and board.served[head] >= quota):
            tail, head = head, tail
            witness = witness[::-1]
        board.claim_edge(tail, head, MAKER)
        tracked.order = witness
        tracked.mask = 0
        for v in witness:
            tracked.mask |= 1 << v
        tracked.cycle_closed = True
        self.booster_turns += 1
        won = len(tracked) == board.n
        return MakerMove(case=label, edge=(tail, head), won=won)

    def _phase2_action(self, prefix: str = "") -> MakerMove:
        self._advance()
        tracked = self.tracked
        assert tracked is not None
        if tracked.cycle_closed and len(tracked) == self.board.n:
            return MakerMove(case=prefix + "P2.C1.2b(ii)", won=True,
                             end_reason="spanning cycle complete")
        tgt = self._pick_service_target()
        if tgt is not None:
            move = self._serve(tgt, prefix + "P2.C2")
        else:
            v = self._pop_settled_deficit()
            if v is not None:
                move = self._top_up(v, prefix + "P2.C1.1")
            else:
                v = self._pop_end_deficit()
                if v is not None:
                    move = self._top_up(v, prefix + "P2.C1.2a")
                else:
                    move = self._close_or_end(prefix + "P2.C1.2b(i)")
        return move

    # -- the per-turn entry point -----------------------------------------

    def turn(self) -> MakerMove:
        if self.phase == 2:
            move = self._phase2_action()
        else:
            move = self._phase1_action()
        self.case_counts[move.case] = self.case_counts.get(move.case, 0) + 1
        return move

    def _phase1_action(self) -> MakerMove:
        tgt = self._pick_service_target()
        if tgt is not None:
            return self._serve(tgt, "P1.C2")
        v = self._pop_settled_deficit()
        if v is not None:
            return self._top_up(v, "P1.C1.1")
        pair = self.ps.find_joinable_pair(self.board)
        if pair is not None:
            u, w = pair
            self.board.claim_edge(u, w, MAKER)
            kept = self.ps.join(u, w)
            a, b = self.ps.ends[kept]
            self.note_new_endpoints([a, b])
            return MakerMove(case="P1.C1.2a", edge=(u, w))
        # Phase flip: same turn, one edge, combined label.
        self.phase = 2
        self.phase1_end_turn = self.board.turn - 1
        seed = min(bits(self.ps.settled_mask))
        self.tracked = TrackedPath.seed(seed)
        return self._phase2_action(prefix="P1.C1.2b+")
