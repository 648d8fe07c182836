"""Breaker adversaries.

Every policy claims up to k edges directly on the board and returns the
(u, v) pairs it claimed, in claim order.  The random, isolator and
maxdanger policies return an EdgeList built from the packed vertex ids
they claimed, which the runner's log record keeps as it is; the others
return a list, or their script's own turn.  k is min(bias, pairs
remaining); the runner enforces that and logs the result.  Policies are
stateful per game and deterministic given the rng stream they are
handed.  The two star-claiming policies claim a star's edges with one
`Board.claim_breaker_star` call.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import length_hint
from random import Random

import numpy as np

from .board import Board, BoardError, bits
from .gamelog import EdgeList, GameLog
from .rotation import endpoint_pairs_scan


class ReplayError(RuntimeError):
    """A scripted claim conflicts with the live board."""

    def __init__(self, turn: int, message: str) -> None:
        super().__init__(f"turn {turn}: {message}")
        self.turn = turn


def pairs_from_indices(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode each t in an int64 array, t < 2**60, to the t-th pair
    (u, v), u < v, in lexicographic order.  Counted from the end, r
    pairs follow t, and row u = n-2-m holds the r in [m*(m+1)/2,
    (m+1)*(m+2)/2); m comes from the square root in floating point,
    corrected to the exact row by one integer step either way."""
    r = (n * (n - 1) // 2 - 1) - t
    m = ((np.sqrt(r * 8.0 + 1.0) - 1.0) * 0.5).astype(np.int64)
    m -= (m * (m + 1) >> 1) > r
    m += ((m + 1) * (m + 2) >> 1) <= r
    return (n - 2) - m, (n - 1) - r + (m * (m + 1) >> 1)


def first_set_bits(mask: int, k: int) -> list[int]:
    """The k lowest set bits of `mask` (all of them if it has fewer),
    ascending, listed in one numpy pass over the mask's bytes."""
    row = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"),
                        np.uint8)
    return np.flatnonzero(np.unpackbits(row, bitorder="little"))[:k].tolist()


def claim_star(board: Board, t: int, k: int, out: array) -> None:
    """Claim for Breaker the free edges {t, w} of the k least w (all of
    them if fewer), and append t, w of each to `out`, in claim order."""
    free = (~(board.maker_adj[t] | board.breaker_adj[t])
            & board.full_mask & ~(1 << t))
    ws = first_set_bits(free, k)
    board.claim_breaker_star(t, ws)
    out.extend(chain.from_iterable(zip(repeat(t), ws)))


# The random Breaker decodes its draws from this many words at a time.
# Even, so that a block holds whole tries where a try is two words.
BLOCK_WORDS = 4096


class BreakerPolicy:
    name = "base"

    def note_trouble(self, fresh: list[int]) -> None:
        """Hook: vertices newly flagged troublesome since the last turn."""

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> Sequence[tuple[int, int]]:
        raise NotImplementedError


class RandomBreaker(BreakerPolicy):
    """Uniform unclaimed pairs, without replacement within the turn.

    A draw is `rng.randrange(C(n,2))` decoded to the t-th pair in
    lexicographic order (pairs_from_indices).  `Board.claim_breaker_draws`
    claims each draw as it is tested, so a pair this turn's own earlier
    claims took is a miss like any other owned pair.  After more than
    MAX_MISSES misses in a row the board is nearly full, and the rest of
    the turn is an `rng.sample` of the pairs still free.

    randrange tries `getrandbits(w)`, w = C(n,2).bit_length(), until the
    value is below C(n,2).  A try spends one 32-bit word and keeps its
    top w bits while w <= 32; above that it spends two, the low word
    whole and the top w - 32 bits of the high one.  `getrandbits(32*m)`
    returns m such words, lowest first.  So the draws are decoded in
    numpy a block of words at a time, and the turns claim exactly what
    one randrange per draw would.  `rng` then runs up to a block ahead
    of the draws handed out, so the policy must be its only user for the
    game; the block is kept across turns for one (rng, n), and `rng` is
    put back exactly where one draw at a time would have left it before
    anything else draws from it (the sample fallback).
    """

    name = "random"
    MAX_MISSES = 64

    def __init__(self) -> None:
        self._rng: Random | None = None
        self._n = 0
        self._block = iter(())      # (u, v) draws not yet handed out
        self._state = None          # rng state before the block's words
        self._us = iter(())         # the block's u's, consumed with it
        self._spent = None          # per draw, the tries spent through it
        self._step = 1              # words per try

    def _refill(self, rng: Random, n: int) -> None:
        total = n * (n - 1) // 2
        width = total.bit_length()
        self._step = step = 1 if width <= 32 else 2
        self._state = rng.getstate()
        tries = np.frombuffer(
            rng.getrandbits(32 * BLOCK_WORDS).to_bytes(4 * BLOCK_WORDS,
                                                       "little"),
            f"<u{4 * step}")
        r = tries >> (32 - width) if step == 1 \
            else tries & 0xFFFFFFFF | tries >> (96 - width) << 32
        kept = np.flatnonzero(r < total)
        u, v = pairs_from_indices(n, r[kept].astype(np.int64))
        self._spent = kept + 1
        self._us = iter(u.tolist())
        self._block = zip(self._us, v.tolist())

    def _rewind(self, rng: Random) -> None:
        """Put rng just past the last draw handed out and drop the rest
        of the block."""
        handed = len(self._spent) - length_hint(self._us)
        rng.setstate(self._state)
        if handed:
            rng.getrandbits(32 * self._step * int(self._spent[handed - 1]))
        self._block = iter(())

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> EdgeList:
        n = board.n
        if rng is not self._rng or n != self._n:
            self._rng, self._n = rng, n
            self._block = iter(())
        out = array("I")                # u0, v0, u1, ... of the edges taken
        misses = 0
        while True:
            misses = board.claim_breaker_draws(
                self._block, k - len(out) // 2, out, misses, self.MAX_MISSES)
            if len(out) == 2 * k:
                break
            if misses > self.MAX_MISSES:
                rest = [
                    (a, c) for a in range(n) for c in bits(
                        ~(board.maker_adj[a] | board.breaker_adj[a])
                        & board.full_mask & ~((1 << (a + 1)) - 1))
                ]
                self._rewind(rng)
                tail = rng.sample(rest, k - len(out) // 2)
                board.claim_breaker_edges(tail)
                out.extend(chain.from_iterable(tail))
                break
            self._refill(rng, n)
        return EdgeList.from_vertices(out)


class IsolatorBreaker(BreakerPolicy):
    """Buys out all edges at one vertex, then moves to the next.

    Target choice: minimize Maker degree, then maximize the number of
    unclaimed incident edges, then lowest index.  A target is dead once
    Maker touches it or its star is exhausted.
    """

    name = "isolator"

    def __init__(self) -> None:
        self.target: int | None = None

    def _dead(self, board: Board, v: int) -> bool:
        if board.maker_deg[v] > 0:
            return True
        return board.breaker_deg[v] + board.maker_deg[v] >= board.n - 1

    def _retarget(self, board: Board) -> int | None:
        """The least (maker_deg, -free, v) over the vertices with free > 0
        edges left, free = n - 1 - breaker_deg - maker_deg, or None.

        In one numpy pass: with s = breaker_deg + maker_deg < n, the key
        maker_deg * n + s orders as (maker_deg, -free), argmin takes the
        lowest v among equal keys, and a full star (s = n - 1) gets a key
        above every live one."""
        n = board.n
        mdeg = np.array(board.maker_deg, np.int64)
        s = mdeg + board.breaker_deg
        key = mdeg * n + s
        key[s == n - 1] = n * n
        v = int(key.argmin())
        return None if s[v] == n - 1 else v

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> EdgeList:
        out = array("I")                # t, w of each edge taken
        while len(out) < 2 * k:
            if self.target is None or self._dead(board, self.target):
                self.target = self._retarget(board)
                if self.target is None:
                    break
            # A live target has a free edge left.
            claim_star(board, self.target, k - len(out) // 2, out)
        return EdgeList.from_vertices(out)


class MaxDangerBreaker(BreakerPolicy):
    """Pile onto the vertex Maker most urgently needs to serve.

    While no vertex is troublesome the policy warms up on the highest
    Breaker degree (that is what danger reduces to); once troublesome
    vertices exist it plays on those still under quota.  Falls back to
    random when nothing qualifies.
    """

    name = "maxdanger"

    def __init__(self) -> None:
        self.trouble: list[int] = []
        # (-breaker_deg, v) warmup, built at the first turn.  It runs
        # empty only once every vertex is served or full, both for good,
        # so it is never rebuilt.
        self.heap: list[tuple[int, int]] | None = None
        self.fallback = RandomBreaker()

    def note_trouble(self, fresh: list[int]) -> None:
        self.trouble.extend(fresh)

    def _pick(self, board: Board) -> int | None:
        quota = board.cfg.quota
        if self.trouble:
            best = None
            best_d = 0
            keep = []
            for v in self.trouble:
                if board.served[v] >= quota:
                    continue
                if board.breaker_deg[v] + board.maker_deg[v] >= board.n - 1:
                    continue
                keep.append(v)
                d = board.danger(v)
                if best is None or d > best_d or (d == best_d and v < best):
                    best, best_d = v, d
            self.trouble = keep
            if best is not None:
                return best
        # Warmup: danger == breaker_deg while served == 0 everywhere.
        h = self.heap
        while h:
            negd, v = h[0]
            if board.served[v]:          # no longer a pure-degree case
                heapq.heappop(h)
                continue
            if -negd != board.breaker_deg[v]:
                heapq.heappop(h)
                heapq.heappush(h, (-board.breaker_deg[v], v))
                continue
            if board.breaker_deg[v] + board.maker_deg[v] >= board.n - 1:
                heapq.heappop(h)
                continue
            return v
        return None

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> EdgeList:
        if self.heap is None:
            self.heap = [(0, v) for v in range(board.n)]
        out = array("I")                # u, v of each edge taken
        while len(out) < 2 * k:
            v = self._pick(board)
            if v is None:
                rest = self.fallback.take_turn(board, rng, k - len(out) // 2)
                out.frombytes(rest.flat)
                break
            claim_star(board, v, k - len(out) // 2, out)
            heapq.heappush(self.heap, (-board.breaker_deg[v], v))
        return EdgeList.from_vertices(out)


class PairKillerBreaker(BreakerPolicy):
    """Burns the endpoint pairs Maker's rotation engine would use to
    close her tracked path, random elsewhere.

    Pair recomputation is capped at once per turn and budgeted; before
    Phase 2 there is nothing to kill and the policy is pure random.
    """

    name = "pairkiller"
    # Per-closure budget of each pair scan.
    BUDGET = 256

    def __init__(self) -> None:
        self.fallback = RandomBreaker()
        self._stamp: tuple[int, int] | None = None
        self._pairs: list[tuple[int, int]] = []

    def _refresh(self, board: Board, maker) -> None:
        stamp = (board.turn, board.maker_edges)
        if stamp == self._stamp:
            return
        self._stamp = stamp
        tracked = maker.tracked
        if tracked.cycle_closed or len(tracked) < 3:
            self._pairs = []
            return
        pairs, _ = endpoint_pairs_scan(
            board.maker_adj, maker._pivot_mask(), tracked.order,
            budget=self.BUDGET)
        self._pairs = sorted(pairs)

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> Sequence[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        if maker is not None and maker.phase == 2 and maker.tracked is not None:
            self._refresh(board, maker)
            # The pairs are distinct and normalised (u < v), so the board
            # check alone skips every pair already taken.
            out = list(islice(
                (p for p in self._pairs if not board.owner(*p)), k))
            board.claim_breaker_edges(out)
        if len(out) < k:
            rest = self.fallback.take_turn(board, rng, k - len(out))
            if not out:
                return rest
            out.extend(rest)
        return out


class ScriptedBreaker(BreakerPolicy):
    """Replays a fixed per-turn edge list; a turn that is not k edges, or
    any conflict, is a replay error."""

    name = "scripted"

    def __init__(self, turns: list[list[tuple[int, int]]],
                 name: str | None = None) -> None:
        self.turns = turns
        self.cursor = 0
        if name is not None:
            # Replays keep the original policy name so the rerun log is
            # byte-identical to the one it replays.
            self.name = name

    @classmethod
    def from_log(cls, log: GameLog) -> "ScriptedBreaker":
        """Replays the Breaker records of a parsed log under the policy
        name in its header; the turns are the records' own edge lists."""
        return cls([rec.edges for rec in log.records if rec.player == "B"],
                   name=log.meta.get("breaker"))

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBreaker":
        """Accepts a move-log file and extracts the Breaker records."""
        return cls.from_log(GameLog.load(path))

    def take_turn(self, board: Board, rng: Random, k: int,
                  maker=None) -> Sequence[tuple[int, int]]:
        if self.cursor >= len(self.turns):
            raise ReplayError(board.turn, "script exhausted")
        moves = self.turns[self.cursor]
        self.cursor += 1
        if len(moves) != k:
            raise ReplayError(
                board.turn, f"scripted turn has {len(moves)} edges, "
                f"expected {k}")
        try:
            board.claim_breaker_edges(moves)
        except BoardError as err:
            raise ReplayError(board.turn, f"scripted {err}") from None
        # The rerun's log shares the script's EdgeList: a copy per turn would
        # be a long-lived heap block between the rotation searches'
        # short-lived ones, and such blocks make the peak RSS of a replay
        # depend on where the allocator happened to put them.
        return moves


POLICIES: dict[str, type] = {
    "random": RandomBreaker,
    "isolator": IsolatorBreaker,
    "maxdanger": MaxDangerBreaker,
    "pairkiller": PairKillerBreaker,
}


def make_policy(name: str) -> BreakerPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown breaker policy {name!r}") from None
