"""Breaker policies: decode math, targeting rules, scripted replay."""

import heapq
from itertools import combinations
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamgame import breakers
from hamgame.board import BREAKER, MAKER, UNCLAIMED, Board, GameConfig, bits
from hamgame.breakers import (
    IsolatorBreaker,
    MaxDangerBreaker,
    PairKillerBreaker,
    RandomBreaker,
    ReplayError,
    ScriptedBreaker,
    first_set_bits,
    make_policy,
    pairs_from_indices,
)
from hamgame.gamelog import EdgeList, GameLog, MoveRecord
from hamgame.rotation import TrackedPath
from oracles import (
    isolator_retarget_reference,
    pair_from_index,
    random_breaker_turn_reference,
)


def fresh_board(n=10, b=3, thr=5.0, quota=2, hub_size=3):
    cfg = GameConfig(n=n, b=b, trouble_threshold=thr, quota=quota,
                     hub_size=hub_size, max_turns=8 * n)
    return Board(cfg)


class TestPairIndex:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_decodes_every_index_in_lex_order(self, n):
        want = list(combinations(range(n), 2))
        got = [pair_from_index(n, t) for t in range(n * (n - 1) // 2)]
        assert got == want

    @pytest.mark.parametrize("n", [4000, 20000])
    def test_large_n_ends_and_row_boundaries(self, n):
        total = n * (n - 1) // 2
        head = [(0, v) for v in range(1, 1001)]
        assert [pair_from_index(n, t) for t in range(1000)] == head
        tail = [(u, v) for u in range(n - 50, n) for v in range(u + 1, n)]
        assert [pair_from_index(n, t)
                for t in range(total - 1000, total)] == tail[-1000:]
        start = 0                       # index of (u, u+1), by running sum
        for u in range(n - 1):
            assert pair_from_index(n, start) == (u, u + 1)
            start += n - 1 - u
            assert pair_from_index(n, start - 1) == (u, n - 1)
        assert start == total


class TestPairsFromIndices:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_every_index_matches_pair_from_index(self, n):
        total = n * (n - 1) // 2
        u, v = pairs_from_indices(n, np.arange(total, dtype=np.int64))
        assert list(zip(u.tolist(), v.tolist())) == \
            [pair_from_index(n, t) for t in range(total)]

    @pytest.mark.parametrize("n", [4000, 92682, 131073])
    def test_first_and_last_indices_match(self, n):
        total = n * (n - 1) // 2
        t = np.r_[0:1000, total - 1000:total].astype(np.int64)
        u, v = pairs_from_indices(n, t)
        assert list(zip(u.tolist(), v.tolist())) == \
            [pair_from_index(n, x) for x in t.tolist()]

    def test_every_row_boundary_at_the_widest_n(self):
        n = 92682                       # C(n,2) just under 2**32
        rows = np.arange(n - 1, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(n - 1 - rows)[:-1]))
        u, v = pairs_from_indices(n, starts)
        assert (u == rows).all() and (v == rows + 1).all()
        u, v = pairs_from_indices(n, starts[1:] - 1)
        assert (u == rows[:-1]).all() and (v == n - 1).all()


class SampleCounting(Random):
    """A Random that counts its sample calls, values unchanged."""

    samples = 0

    def sample(self, population, k, **kwargs):
        self.samples += 1
        return super().sample(population, k, **kwargs)


def prefilled_board(n, b, seed, free=None):
    """A board with random pairs already claimed by both players: all but
    `free` pairs, or by default half of them, at most 4000."""
    board = Board(GameConfig(n=n, b=b, trouble_threshold=n - 1.0, quota=2,
                             hub_size=1, max_turns=n))
    rng = Random(seed)
    total = n * (n - 1) // 2
    if free is not None:
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        del pairs[:free]
    else:
        taken: set[tuple[int, int]] = set()
        while len(taken) < min(total // 2, 4000):
            taken.add(tuple(sorted(rng.sample(range(n), 2))))
        pairs = sorted(taken)
        rng.shuffle(pairs)
    for u, v in pairs[:len(pairs) // 4]:
        board.claim_edge(u, v, MAKER)
    board.claim_breaker_edges(pairs[len(pairs) // 4:])
    return board


class TestBlockDraws:
    """RandomBreaker against the one-draw-at-a-time reference loop."""

    def play_both(self, n, b, turns, seed=0, free=None):
        """Play up to `turns` turns on two equal boards, one per side;
        returns the number of turns that took the sample fallback."""
        mine = prefilled_board(n, b, seed, free)
        ref = prefilled_board(n, b, seed, free)
        rng, ref_rng = SampleCounting(seed), SampleCounting(seed)
        pol = RandomBreaker()
        for turn in range(1, turns + 1):
            k = min(b, mine.unclaimed_pairs())
            if not k:
                break
            mine.turn = ref.turn = turn
            sampled = ref_rng.samples
            assert pol.take_turn(mine, rng, k) == \
                random_breaker_turn_reference(ref, ref_rng, k), f"turn {turn}"
            assert rng.samples == ref_rng.samples
            if ref_rng.samples > sampled:
                assert rng.getstate() == ref_rng.getstate(), f"turn {turn}"
        assert mine.fingerprint_fields() == ref.fingerprint_fields()
        return ref_rng.samples

    @pytest.mark.parametrize("n, b, turns", [
        (3, 1, 10), (4, 2, 10), (5, 3, 10), (12, 10, 20), (64, 62, 40),
        (65, 63, 40), (1000, 150, 60), (4000, 150, 40), (92682, 150, 40),
        (92683, 150, 40), (131073, 150, 40),
    ])
    def test_turns_match_one_draw_at_a_time(self, n, b, turns):
        self.play_both(n, b, turns)

    @pytest.mark.parametrize("n, b", [(64, 62), (65, 63), (300, 40)])
    @pytest.mark.parametrize("seed", range(3))
    def test_sample_fallback_leaves_the_reference_state(self, n, b, seed):
        # Three full turns, then the last few free pairs, which the
        # rejection loop cannot find within 64 misses.
        assert self.play_both(n, b, 5, seed, free=3 * b + 3) > 0

    def test_a_new_rng_starts_a_new_block(self):
        pol = RandomBreaker()
        first = pol.take_turn(fresh_board(), Random(5), 4)
        assert pol.take_turn(fresh_board(), Random(5), 4) == first


class TestSmallBlockDraws(TestBlockDraws):
    """The same checks with blocks of a few words, so that turns and runs
    of misses straddle refills and the run carries across them."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(breakers, "BLOCK_WORDS", 6)


class TestRandomBreaker:
    def test_claims_k_distinct_unclaimed_pairs(self):
        board = fresh_board()
        out = RandomBreaker().take_turn(board, Random(1), 5)
        assert len(out) == 5
        assert len(set(out)) == 5
        assert board.breaker_edges == 5
        for u, v in out:
            assert board.owner(u, v) == BREAKER

    def test_same_stream_same_edges(self):
        a = RandomBreaker().take_turn(fresh_board(), Random(7), 4)
        b = RandomBreaker().take_turn(fresh_board(), Random(7), 4)
        assert a == b

    def test_nearly_full_board_still_fills_the_turn(self):
        board = fresh_board(n=4, b=1, thr=2.0, hub_size=2)
        pairs = list(combinations(range(4), 2))
        for u, v in pairs[:-1]:
            board.claim_edge(u, v, MAKER)
        out = RandomBreaker().take_turn(board, Random(3), 1)
        assert out == [pairs[-1]]


class TestIsolator:
    def test_buys_out_one_star_then_moves_on(self):
        board = fresh_board()
        pol = IsolatorBreaker()
        rng = Random(0)
        assert pol.take_turn(board, rng, 3) == [(0, 1), (0, 2), (0, 3)]
        pol.take_turn(board, rng, 3)
        pol.take_turn(board, rng, 3)
        # ceil((n-1)/b) = 3 turns kill the star at vertex 0
        assert board.breaker_deg[0] == 9
        nxt = pol.take_turn(board, rng, 3)
        assert nxt[0][0] == 1

    def test_maker_touch_forces_retarget(self):
        board = fresh_board()
        pol = IsolatorBreaker()
        rng = Random(0)
        pol.take_turn(board, rng, 3)
        board.claim_edge(5, 0, MAKER)   # Maker reaches the target
        nxt = pol.take_turn(board, rng, 3)
        # Untouched vertices still have all 9 edges free; 4 is the least.
        assert nxt[0][0] == 4
        assert all(u == 4 for u, v in nxt)

    def test_turns_are_packed_edge_lists(self):
        out = IsolatorBreaker().take_turn(fresh_board(), Random(0), 3)
        assert type(out) is EdgeList
        assert out.flat == EdgeList([(0, 1), (0, 2), (0, 3)]).flat


def random_board(seed):
    """A board with random claims.  Often a few low vertices have full
    Breaker stars while Maker has touched every other vertex, so the
    least key is a dead vertex; now and then every star is full."""
    rng = Random(seed)
    n = rng.randrange(4, 30)
    board = fresh_board(n=n, b=2, thr=n / 3)
    dead = set(rng.sample(range(n // 2), rng.randrange(3)))
    rest = [v for v in range(n) if v not in dead]
    if rng.random() < 0.5:
        rng.shuffle(rest)
        for u, v in zip(rest, rest[1:]):
            board.claim_edge(u, v, MAKER)
    p_maker, p_breaker = rng.random() * 0.2, rng.random()
    if rng.random() < 0.1:
        p_breaker = 1.0
    for u, v in combinations(range(n), 2):
        if board.owner(u, v):
            continue
        x = rng.random()
        if u in dead or v in dead or p_maker <= x < p_maker + p_breaker:
            board.claim_edge(u, v, BREAKER)
        elif x < p_maker:
            board.claim_edge(u, v, MAKER)
    return board


class TestRetarget:
    """`IsolatorBreaker._retarget` against the O(n) loop it replaced."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_reference_on_random_boards(self, seed):
        board = random_board(seed)
        assert IsolatorBreaker()._retarget(board) \
            == isolator_retarget_reference(board)

    def test_full_star_with_the_least_key_is_skipped(self):
        # Vertex 0 has Maker degree 0 and a full star, every other vertex
        # Maker degree 1: the least (maker_deg, -free, v) over all
        # vertices is the dead vertex 0.
        board = fresh_board(n=9)
        board.claim_breaker_edges([(0, w) for w in range(1, 9)])
        for u in range(1, 9, 2):
            board.claim_edge(u, u + 1, MAKER)
        board.claim_edge(2, 7, BREAKER)     # 2 and 7 now have less free
        want = isolator_retarget_reference(board)
        assert want == 1
        assert IsolatorBreaker()._retarget(board) == want

    def test_every_star_full_gives_none(self):
        board = fresh_board(n=6)
        for u, v in combinations(range(6), 2):
            board.claim_edge(u, v, MAKER if (u + v) % 3 == 0 else BREAKER)
        assert isolator_retarget_reference(board) is None
        assert IsolatorBreaker()._retarget(board) is None

    @pytest.mark.parametrize("claims, want", [
        ([], 0),                                    # all keys tie but v
        ([(0, 1, MAKER)], 2),                       # 0 and 1 touched
        ([(0, 5, BREAKER), (1, 6, BREAKER)], 2),    # 2 has the most free
        ([(2, 3, MAKER), (0, 1, MAKER), (4, 7, MAKER), (5, 6, MAKER),
          (8, 9, MAKER), (0, 9, BREAKER), (3, 4, BREAKER)], 1),
    ])
    def test_degree_ties_break_to_the_lowest_id(self, claims, want):
        board = fresh_board()
        for u, v, who in claims:
            board.claim_edge(u, v, who)
        assert isolator_retarget_reference(board) == want
        assert IsolatorBreaker()._retarget(board) == want


class TestFirstSetBits:
    @given(st.integers(min_value=0, max_value=(1 << 300) - 1),
           st.integers(min_value=0, max_value=320))
    def test_lists_the_lowest_k_set_bits(self, mask, k):
        assert first_set_bits(mask, k) == list(bits(mask))[:k]


class TestMaxDanger:
    def test_warmup_piles_on_one_vertex(self):
        board = fresh_board()
        pol = MaxDangerBreaker()
        out = pol.take_turn(board, Random(2), 3)
        assert out == [(0, 1), (0, 2), (0, 3)]
        again = pol.take_turn(board, Random(2), 3)
        assert all(u == 0 for u, v in again)  # highest degree stays 0

    def test_troubled_vertex_with_max_danger_wins(self):
        board = fresh_board()
        board.claim_edge(7, 0, BREAKER)
        board.claim_edge(7, 1, BREAKER)
        board.claim_edge(3, 0, BREAKER)
        pol = MaxDangerBreaker()
        pol.note_trouble([3, 7])
        out = pol.take_turn(board, Random(2), 2)
        assert out[0][0] == 7

    def test_danger_tie_prefers_lower_index(self):
        board = fresh_board()
        board.claim_edge(3, 0, BREAKER)
        board.claim_edge(7, 0, BREAKER)
        pol = MaxDangerBreaker()
        pol.note_trouble([7, 3])
        out = pol.take_turn(board, Random(2), 1)
        assert out[0][0] == 3

    def test_served_out_vertices_drop_from_the_trouble_list(self):
        board = fresh_board(quota=1)
        board.claim_edge(4, 0, BREAKER)
        board.served[4] = 1
        pol = MaxDangerBreaker()
        pol.note_trouble([4])
        pol.take_turn(board, Random(2), 1)
        assert pol.trouble == []

    def test_full_turn_claimed_even_when_nothing_qualifies(self,
                                                         monkeypatch):
        board = fresh_board(quota=1)
        for v in range(board.n):
            board.served[v] = 1  # warmup heap prunes everything
        pops = []
        heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop",
                            lambda h: pops.append(h[0]) or heappop(h))
        pol = MaxDangerBreaker()
        rng = Random(2)
        assert len(pol.take_turn(board, rng, 3)) == 3
        assert len(pops) == board.n and pol.heap == []
        # Served vertices stay served: the second turn does not rebuild
        # the heap only to prune it again.
        pops.clear()
        assert len(pol.take_turn(board, rng, 3)) == 3
        assert pops == [] and pol.heap == []
        assert board.breaker_edges == 6

    def test_star_then_random_fallback_come_out_in_claim_order(self):
        def board_with_two_free_at_0():
            board = fresh_board(quota=1)
            board.claim_breaker_edges([(0, w) for w in range(1, 8)])
            for v in range(1, board.n):
                board.served[v] = 1
            return board

        board = board_with_two_free_at_0()
        out = MaxDangerBreaker().take_turn(board, Random(4), 5)
        ref = board_with_two_free_at_0()
        ref.claim_breaker_edges([(0, 8), (0, 9)])
        rest = RandomBreaker().take_turn(ref, Random(4), 3)
        assert type(out) is EdgeList
        assert list(out) == [(0, 8), (0, 9)] + list(rest)
        assert board.fingerprint_fields() == ref.fingerprint_fields()


class TestPairKiller:
    def phase2_maker(self, board):
        for e in [(0, 1), (1, 2)]:
            board.claim_edge(*e, MAKER)
        tracked = TrackedPath(order=[0, 1, 2], mask=0b111)
        return SimpleNamespace(phase=2, tracked=tracked,
                               _pivot_mask=lambda: 0b111)

    def test_phase1_is_pure_random(self):
        board = fresh_board()
        out = PairKillerBreaker().take_turn(
            board, Random(5), 3, SimpleNamespace(phase=1, tracked=None))
        assert len(out) == 3

    def test_burns_the_closing_pair_first(self):
        board = fresh_board()
        maker = self.phase2_maker(board)
        pol = PairKillerBreaker()
        out = pol.take_turn(board, Random(5), 2, maker)
        assert out[0] == (0, 2)
        assert board.owner(0, 2) == BREAKER
        assert len(out) == 2
        assert pol._stamp == (board.turn, board.maker_edges)

    def test_closed_cycle_leaves_nothing_to_burn(self):
        board = fresh_board()
        maker = self.phase2_maker(board)
        maker.tracked.cycle_closed = True
        pol = PairKillerBreaker()
        pol.take_turn(board, Random(5), 2, maker)
        assert pol._pairs == []


class TestScripted:
    def test_replays_turn_lists_in_order(self):
        board = fresh_board()
        pol = ScriptedBreaker([[(0, 1)], [(2, 3), (2, 4)]])
        assert pol.take_turn(board, Random(0), 1) == [(0, 1)]
        assert pol.take_turn(board, Random(0), 2) == [(2, 3), (2, 4)]
        assert board.owner(2, 4) == BREAKER

    def test_exhausted_script_raises(self):
        board = fresh_board()
        pol = ScriptedBreaker([[(0, 1)]])
        pol.take_turn(board, Random(0), 1)
        board.turn = 2
        with pytest.raises(ReplayError, match="turn 2: script exhausted"):
            pol.take_turn(board, Random(0), 1)

    def test_conflicting_claim_raises(self):
        board = fresh_board()
        board.claim_edge(0, 1, MAKER)
        board.turn = 1
        pol = ScriptedBreaker([[(0, 1)]])
        with pytest.raises(ReplayError, match=r"\(0, 1\) already claimed"):
            pol.take_turn(board, Random(0), 1)

    def test_edge_repeated_within_a_turn_raises(self):
        board = fresh_board()
        board.turn = 3
        pol = ScriptedBreaker([[(2, 3), (4, 5), (3, 2)]])
        with pytest.raises(ReplayError,
                           match=r"turn 3: .*\(3, 2\) already claimed"):
            pol.take_turn(board, Random(0), 3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_turn_of_the_wrong_size_raises(self, k):
        board = fresh_board()
        board.turn = 4
        pol = ScriptedBreaker([[(2, 3), (4, 5)]])
        with pytest.raises(ReplayError, match=(
                f"^turn 4: scripted turn has 2 edges, expected {k}$")):
            pol.take_turn(board, Random(0), k)
        assert board.breaker_edges == 0

    def test_from_file_keeps_original_policy_name(self, tmp_path):
        log = tmp_path / "game.log"
        log.write_text(
            '{"meta": {"n": 10, "breaker": "maxdanger"}}\n'
            '{"turn": 1, "player": "B", "edges": [[0, 1], [0, 2]], '
            '"case": null, "promoted": []}\n'
            '{"turn": 1, "player": "M", "edges": [[5, 6]], '
            '"case": "P1.C2", "promoted": [6]}\n'
            '{"turn": 2, "player": "B", "edges": [], '
            '"case": null, "promoted": []}\n',
            encoding="utf-8")
        pol = ScriptedBreaker.from_file(str(log))
        assert pol.name == "maxdanger"
        assert pol.turns == [[(0, 1), (0, 2)], []]

    def test_from_file_skips_blank_lines(self, tmp_path):
        log = tmp_path / "game.log"
        log.write_text(
            '\n{"meta": {"n": 10, "breaker": "isolator"}}\n\n'
            '{"turn": 1, "player": "B", "edges": [[0, 1]]}\n'
            '   \n'
            '{"turn": 1, "player": "M", "edges": [[5, 6]], "case": "P1.C1.1"}\n'
            '\n{"turn": 2, "player": "B", "edges": [[2, 3]]}\n\n',
            encoding="utf-8")
        pol = ScriptedBreaker.from_file(str(log))
        assert pol.name == "isolator"
        assert pol.turns == [[(0, 1)], [(2, 3)]]

    def test_from_log_shares_the_records_edge_lists(self):
        log = GameLog(meta={"n": 10, "breaker": "random"}, records=[
            MoveRecord(1, "B", [(0, 1)]), MoveRecord(1, "M", [(5, 6)]),
            MoveRecord(2, "B", [(2, 3), (2, 4)])])
        pol = ScriptedBreaker.from_log(log)
        assert pol.name == "random"
        assert pol.turns[1] is log.records[2].edges
        assert pol.take_turn(fresh_board(), Random(0), 1) \
            is log.records[0].edges

    def test_bare_constructor_keeps_default_name(self):
        assert ScriptedBreaker([]).name == "scripted"


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_policy("random"), RandomBreaker)
        assert isinstance(make_policy("isolator"), IsolatorBreaker)

    def test_scripted_needs_a_file(self):
        with pytest.raises(ValueError):
            make_policy("scripted")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            make_policy("bogus")
