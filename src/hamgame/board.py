"""Board state for the biased Maker-Breaker edge game on a complete graph.

Breaker claims up to `b` edges per turn and moves first; Maker claims
exactly one directed edge per turn (direction is bookkeeping; ownership
is undirected).  The board tracks per-vertex degree counters, the
trouble flags Maker's strategy keys on, and one bitmask row per vertex
and player, the only record of who owns which edge, so the strategy and
audit layers can do set algebra on neighbourhoods.
"""

from __future__ import annotations

import inspect
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

UNCLAIMED = 0
MAKER = 1
BREAKER = 2


class AuditLevel(str, Enum):
    OFF = "off"
    CHEAP = "cheap"
    FULL = "full"


class BoardError(ValueError):
    """Raised on an illegal claim or malformed configuration."""


def scale_root(n: int) -> float:
    """The n/sqrt(ln n) yardstick all desk-scale constants are measured in."""
    return n / math.sqrt(math.log(n))


def default_bias(n: int, beta: float) -> int:
    """Breaker bias floor(beta * n / ln n), at least 1."""
    return max(1, int(beta * n / math.log(n)))


def default_hub_size(n: int, coeff: float, quota: int) -> int:
    # Floor: hubs top up among themselves, so the hub set must carry
    # hub_size*quota directed edges inside C(hub_size, 2) pairs with
    # room for Breaker interference.  3*quota gives capacity ~1.4x need.
    size = math.ceil(coeff * scale_root(n))
    return min(max(3 * quota, min(size, n // 3)), n - 2)


def default_trouble_threshold(n: int, coeff: float) -> float:
    return coeff * 2.0 * scale_root(n)


@dataclass(frozen=True)
class GameConfig:
    """Resolved numeric parameters of one game; the fields, in order, are
    also the log header's keys.

    Attributes:
        n: number of vertices (complete graph).
        b: edges Breaker claims per turn.
        trouble_threshold: strict lower bound on Breaker degree beyond
            which a vertex is flagged troublesome.
        quota: per-vertex out-degree target / service cap.
        hub_size: size of the fixed hub set Maker wires into.
        max_turns: hard stop; exceeding it is a Timeout outcome.
        seed: master seed for this game's RNG streams.
        audit_level: how much online checking the runner performs; a
            string is converted to its AuditLevel.
        limited_only: restrict rotation pivots to settled vertices.
        closure_budget: max path states per rotation search (0 = exact,
            unbounded).  Caps worst-case turn cost; truncated searches
            are flagged in the log, never silently wrong.
        audit_samples: random subsets drawn per expansion audit.
    """

    n: int
    b: int
    trouble_threshold: float
    quota: int = 4
    hub_size: int = 8
    max_turns: int = 0
    seed: int = 0
    audit_level: AuditLevel = AuditLevel.CHEAP
    limited_only: bool = True
    closure_budget: int = 0
    audit_samples: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "audit_level", AuditLevel(self.audit_level))
        if self.n < 3:
            raise BoardError(f"n must be >= 3, got {self.n}")
        if not (1 <= self.b <= self.n - 2):
            raise BoardError(f"b must be in [1, n-2], got {self.b}")
        if not (0 < self.trouble_threshold < self.n):
            raise BoardError(
                f"trouble_threshold must be in (0, n), got {self.trouble_threshold}"
            )
        if self.quota < 1:
            raise BoardError(f"quota must be >= 1, got {self.quota}")
        if not (0 < self.hub_size < self.n):
            raise BoardError(f"hub_size must be in (0, n), got {self.hub_size}")
        if self.max_turns < self.n:
            raise BoardError(f"max_turns must be >= n, got {self.max_turns}")
        if self.closure_budget < 0:
            raise BoardError(
                f"closure_budget must be >= 0, got {self.closure_budget}")
        if self.audit_samples < 0:
            raise BoardError(
                f"audit_samples must be >= 0, got {self.audit_samples}")

    @classmethod
    def scaled(
        cls,
        n: int,
        *,
        b: int | None = None,
        beta: float = 0.25,
        tau_coeff: float = 1.0,
        s0_coeff: float = 0.15,
        quota: int = 4,
        max_turns: int | None = None,
        seed: int = 0,
        audit_level: AuditLevel | str = AuditLevel.CHEAP,
        limited_only: bool = True,
        closure_budget: int | None = None,
        audit_samples: int = 10_000,
    ) -> "GameConfig":
        """Build a config from the desk-scale shape coefficients.

        The threshold shape 2n/sqrt(ln n) exceeds n-1 for small n; it is
        clamped to n-1, which means the same thing (Breaker degree can
        never exceed n-1, so no vertex ever turns troublesome there).
        """
        if n < 3:
            raise BoardError(f"n must be >= 3, got {n}")
        if b is None:
            b = default_bias(n, beta)
        tau = min(default_trouble_threshold(n, tau_coeff), float(n - 1))
        return cls(
            n=n,
            b=b,
            trouble_threshold=tau,
            quota=quota,
            hub_size=default_hub_size(n, s0_coeff, quota),
            max_turns=8 * n if max_turns is None else max_turns,
            seed=seed,
            audit_level=audit_level,
            limited_only=limited_only,
            closure_budget=4096 if closure_budget is None else closure_budget,
            audit_samples=audit_samples,
        )

    def hub_vertices(self) -> range:
        # Hubs sit at the top of the index range: greedy Breaker policies
        # break ties toward low indices, so their early blast radius
        # misses the hubs.
        return range(self.n - self.hub_size, self.n)


def scaled_defaults() -> dict:
    """GameConfig.scaled's keyword arguments and their defaults, in order."""
    params = inspect.signature(GameConfig.scaled).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


class Board:
    """Mutable game state: ownership, degrees, trouble flags.

    Ownership lives once, in per-vertex bitmask rows: bit v of
    `maker_adj[u]` (`breaker_adj[u]`) is set iff Maker (Breaker) owns
    {u, v}, and the rows are symmetric.  `owner` reads them.
    `deg_le1_mask` keeps the vertices whose Maker degree is still <= 1
    (the joinable-endpoint filter).  Breaker claims take one of three
    routes: the random Breaker hands its draws to `claim_breaker_draws`;
    `claim_breaker_edges`, the strict form of that loop, raises at the
    first edge that is not free; and `claim_breaker_star` claims a
    star-claiming Breaker's whole star at once, handing any star it
    cannot claim whole to `claim_breaker_edges`.  All three leave the
    degree counts, and the vertices `refresh_troublesome` must look at,
    to `_count_breaker_claims`.
    """

    __slots__ = (
        "cfg", "n", "maker_adj", "breaker_adj", "out_heads",
        "breaker_deg", "maker_deg", "out_deg", "out_calm", "served",
        "troublesome", "trouble_onset", "turn",
        "maker_edges", "breaker_edges", "deg_le1_mask", "_touched",
        "full_mask",
    )

    def __init__(self, cfg: GameConfig) -> None:
        n = cfg.n
        self.cfg = cfg
        self.n = n
        self.maker_adj = [0] * n
        self.breaker_adj = [0] * n
        self.out_heads: list[list[int]] = [[] for _ in range(n)]
        self.breaker_deg = [0] * n
        self.maker_deg = [0] * n
        self.out_deg = [0] * n
        self.out_calm = [0] * n
        self.served = [0] * n
        self.troublesome = bytearray(n)
        self.trouble_onset = [-1] * n
        self.turn = 0
        self.maker_edges = 0
        self.breaker_edges = 0
        self.full_mask = (1 << n) - 1
        self.deg_le1_mask = self.full_mask
        self._touched: set[int] = set()

    # -- claims ---------------------------------------------------------

    def owner(self, u: int, v: int) -> int:
        if self.maker_adj[u] >> v & 1:
            return MAKER
        if self.breaker_adj[u] >> v & 1:
            return BREAKER
        return UNCLAIMED

    def _check_free(self, u: int, v: int) -> None:
        """Raise unless {u, v} is a free edge."""
        n = self.n
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise BoardError(f"bad edge ({u}, {v})")
        who = self.owner(u, v)
        if who != UNCLAIMED:
            who = "Maker" if who == MAKER else "Breaker"
            raise BoardError(f"edge ({u}, {v}) already claimed by {who}")

    def _count_breaker_claims(self, ends: Iterable[int], edges: int) -> None:
        """Degree and trouble bookkeeping for `edges` Breaker edges whose
        rows are already set: each vertex of `ends` gains one Breaker
        degree per appearance.  A vertex enters the refresh set only once
        its Breaker degree is above the trouble threshold: degrees never
        drop, so no vertex at or below it can be newly troublesome."""
        deg = self.breaker_deg
        # An int degree is above the threshold iff above its floor, and an
        # int-int comparison is the cheaper one.
        thr = math.floor(self.cfg.trouble_threshold)
        touched = self._touched
        for v in ends:
            d = deg[v] + 1
            deg[v] = d
            if d > thr:
                touched.add(v)
        self.breaker_edges += edges

    def claim_breaker_draws(self, draws: Iterable[tuple[int, int]], k: int,
                            out: array | None, misses: int,
                            max_misses: int) -> int:
        """Claim free edges of `draws` for Breaker as they come, until k
        are claimed or more than `max_misses` draws in a row were already
        owned; return the run of owned draws it stopped on.

        `misses` is the run carried in from an earlier call, so a run may
        span several.  Each claimed edge appends its u and v to `out`,
        when one is given.  An edge repeated among the draws is owned by
        Breaker when its second copy comes up, so it is a miss.  A
        self-loop or out-of-range draw raises BoardError; the edges
        claimed before it stay claimed.
        """
        if k <= 0:
            return misses
        n = self.n
        adj = self.breaker_adj
        madj = self.maker_adj
        ends = [] if out is None else out
        start = len(ends)
        append = ends.append
        claimed = 0
        try:
            for u, v in draws:
                if u == v or not (0 <= u < n and 0 <= v < n):
                    self._check_free(u, v)      # raises "bad edge"
                if (adj[u] | madj[u]) >> v & 1:
                    misses += 1
                    if misses > max_misses:
                        break
                    continue
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                append(u)
                append(v)
                misses = 0
                claimed += 1
                if claimed == k:
                    break
        finally:
            self._count_breaker_claims(ends[start:], claimed)
        return misses

    def claim_breaker_edges(self, edges: Sequence[tuple[int, int]]) -> None:
        """Claim every edge of `edges` for Breaker, in order.

        Each edge gets the checks of `claim_edge`; an edge repeated within
        the batch is already claimed when its second copy comes up.  On a
        BoardError the edges before the bad one stay claimed, exactly as
        if they had been claimed one call at a time.
        """
        before = self.breaker_edges
        if self.claim_breaker_draws(edges, len(edges), None, 0, 0):
            # raises: the edge after the claimed ones is owned
            self._check_free(*edges[self.breaker_edges - before])

    def claim_breaker_star(self, t: int, ws: Sequence[int]) -> None:
        """Claim the edges {t, w}, w in `ws`, for Breaker, as
        `claim_breaker_edges` would claim [(t, w) for w in ws].

        The star is tested against t's rows with one AND and set in row t
        with one OR; each w's row gains only bit t.  Any input that test
        rejects (a bad id, t among the ws, a repeated w, an owned edge)
        goes to `claim_breaker_edges`, which raises at the first bad edge
        and keeps the ones before it claimed.
        """
        if not ws:
            return
        n = self.n
        mask = 0
        if 0 <= t < n and min(ws) >= 0 and max(ws) < n:
            for w in ws:
                mask |= 1 << w
        if (not mask or mask >> t & 1 or mask.bit_count() != len(ws)
                or mask & (self.breaker_adj[t] | self.maker_adj[t])):
            self.claim_breaker_edges([(t, w) for w in ws])
            return
        adj = self.breaker_adj
        adj[t] |= mask
        bt = 1 << t
        for w in ws:
            adj[w] |= bt
        # t gains len(ws) degrees: all but the last one here, and the last
        # with the threshold test, which only its final degree decides.
        self.breaker_deg[t] += len(ws) - 1
        self._count_breaker_claims(chain(ws, (t,)), len(ws))

    def claim_edge(self, tail: int, head: int, player: int) -> None:
        """Claim the edge {tail, head} for `player`.

        Breaker claims go through `claim_breaker_edges`.  For Maker the
        order (tail, head) is recorded as a directed edge and the tail's
        out-degree counters move; `served` bumps when the tail is
        troublesome at claim time, `out_calm` otherwise.
        """
        if player == BREAKER:
            self.claim_breaker_edges(((tail, head),))
        elif player == MAKER:
            self._check_free(tail, head)
            tb, hb = 1 << tail, 1 << head
            self.maker_adj[tail] |= hb
            self.maker_adj[head] |= tb
            self.maker_deg[tail] += 1
            self.maker_deg[head] += 1
            if self.maker_deg[tail] == 2:
                self.deg_le1_mask &= ~tb
            if self.maker_deg[head] == 2:
                self.deg_le1_mask &= ~hb
            self.out_heads[tail].append(head)
            self.out_deg[tail] += 1
            if self.troublesome[tail]:
                self.served[tail] += 1
            else:
                self.out_calm[tail] += 1
            self.maker_edges += 1
        else:
            raise BoardError(f"bad player {player}")

    def unclaimed_pairs(self) -> int:
        return self.n * (self.n - 1) // 2 - self.maker_edges - self.breaker_edges

    # -- trouble tracking -------------------------------------------------

    def danger(self, v: int) -> int:
        """Breaker pressure minus service credit: breaker_deg - b*served."""
        return self.breaker_deg[v] - self.cfg.b * self.served[v]

    def refresh_troublesome(self) -> list[int]:
        """Flag vertices whose Breaker degree crossed the threshold.

        Strictly greater than the threshold; flags are monotone (never
        cleared) and onset records the turn of first crossing.  Returns
        newly flagged vertices in increasing order.  Only vertices that
        Breaker claims reached above the threshold since the last call
        are candidates (see `_count_breaker_claims`).
        """
        if not self._touched:
            return []
        thr = self.cfg.trouble_threshold
        fresh = [
            v for v in self._touched
            if not self.troublesome[v] and self.breaker_deg[v] > thr
        ]
        self._touched.clear()
        fresh.sort()
        for v in fresh:
            self.troublesome[v] = 1
            self.trouble_onset[v] = self.turn
        return fresh

    # -- invariant support -------------------------------------------------

    def recompute_counters(self) -> dict[str, list[int]]:
        """Rebuild the degree counters from the ownership rows.

        The result must match the incrementally maintained fields; the
        runner's invariant monitor compares them at every deep check.
        Undirected degrees are popcounts of the rows, out-degrees the
        lengths of `out_heads`.
        """
        return {
            "breaker_deg": [row.bit_count() for row in self.breaker_adj],
            "maker_deg": [row.bit_count() for row in self.maker_adj],
            "out_deg": [len(h) for h in self.out_heads],
        }

    def fingerprint_fields(self) -> tuple:
        """Everything replay equality is judged on: the Maker and Breaker
        rows, then the counters and flags."""
        return (
            tuple(self.maker_adj),
            tuple(self.breaker_adj),
            tuple(self.breaker_deg),
            tuple(self.maker_deg),
            tuple(self.out_deg),
            tuple(self.out_calm),
            tuple(self.served),
            bytes(self.troublesome),
            tuple(self.trouble_onset),
            self.turn,
            self.maker_edges,
            self.breaker_edges,
        )


def bits(mask: int):
    """Iterate set bit positions of a Python int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kth_set_bit(mask: int, k: int) -> int:
    """Position of the k-th (0-based) set bit, ascending. Assumes it exists."""
    # Walk 64-bit words first so big masks don't cost a Python loop per bit.
    pos = 0
    while True:
        word = (mask >> pos) & 0xFFFFFFFFFFFFFFFF
        c = word.bit_count()
        if c > k:
            break
        k -= c
        pos += 64
    word = (mask >> pos) & 0xFFFFFFFFFFFFFFFF
    while True:
        low = word & -word
        if k == 0:
            return pos + low.bit_length() - 1
        word ^= low
        k -= 1
