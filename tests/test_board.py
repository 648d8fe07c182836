"""Board state: claims, counters, trouble flags, fingerprints."""

from array import array
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hamgame.board import (
    BREAKER,
    MAKER,
    Board,
    BoardError,
    GameConfig,
    bits,
    default_bias,
    default_hub_size,
    kth_set_bit,
)


def small_cfg(n=12, b=2, thr=4.0, **kw):
    kw.setdefault("quota", 2)
    kw.setdefault("hub_size", 4)
    kw.setdefault("max_turns", 4 * n)
    return GameConfig(n=n, b=b, trouble_threshold=thr, **kw)


class TestConfig:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(BoardError):
            GameConfig(n=2, b=1, trouble_threshold=1.0)
        with pytest.raises(BoardError):
            small_cfg(b=0)
        with pytest.raises(BoardError):
            small_cfg(b=11)          # n-2 = 10 is the cap
        with pytest.raises(BoardError):
            small_cfg(thr=0.0)
        with pytest.raises(BoardError):
            small_cfg(thr=12.0)      # must stay below n
        with pytest.raises(BoardError):
            small_cfg(hub_size=12)
        with pytest.raises(BoardError):
            GameConfig(n=12, b=2, trouble_threshold=4.0, max_turns=11)

    def test_scaled_clamps_threshold_below_n(self):
        # 2n/sqrt(ln n) > n-1 at small n; the clamp keeps configs legal.
        cfg = GameConfig.scaled(20, seed=0)
        assert cfg.trouble_threshold == 19.0
        cfg = GameConfig.scaled(4000, seed=0)
        assert cfg.trouble_threshold < 3999

    def test_scaled_bias_rule(self):
        import math

        for n in (500, 1000, 2000, 4000):
            assert GameConfig.scaled(n).b == int(0.25 * n / math.log(n))
        assert default_bias(10, 0.25) >= 1

    def test_hub_sizing_supports_internal_wiring(self):
        # Each hub needs quota out-edges aimed at other hubs.
        for n in (40, 100, 1000):
            for quota in (2, 4):
                h = default_hub_size(n, 0.15, quota)
                assert h * quota <= h * (h - 1) // 2
                assert h < n

    def test_hub_vertices_sit_at_top(self):
        cfg = small_cfg()
        assert list(cfg.hub_vertices()) == [8, 9, 10, 11]


class TestClaims:
    def test_claim_and_ownership_symmetry(self):
        board = Board(small_cfg())
        board.claim_edge(3, 7, MAKER)
        assert board.owner(3, 7) == MAKER
        assert board.owner(7, 3) == MAKER
        board.claim_edge(7, 5, BREAKER)
        assert board.owner(5, 7) == BREAKER

    def test_double_claim_rejected(self):
        board = Board(small_cfg())
        board.claim_edge(0, 1, MAKER)
        with pytest.raises(BoardError):
            board.claim_edge(0, 1, BREAKER)
        with pytest.raises(BoardError):
            board.claim_edge(1, 0, MAKER)

    def test_self_loop_rejected(self):
        board = Board(small_cfg())
        with pytest.raises(BoardError):
            board.claim_edge(4, 4, MAKER)

    def test_directed_bookkeeping_is_tail_only(self):
        board = Board(small_cfg())
        board.claim_edge(2, 9, MAKER)
        assert board.out_deg[2] == 1
        assert board.out_deg[9] == 0
        assert board.out_heads[2] == [9]
        assert board.maker_deg[2] == board.maker_deg[9] == 1

    def test_served_splits_on_trouble_flag(self):
        board = Board(small_cfg(thr=1.5))
        board.claim_edge(0, 1, MAKER)            # calm tail
        assert (board.out_calm[0], board.served[0]) == (1, 0)
        for w in (2, 3):
            board.claim_edge(0, w, BREAKER)
        board.turn = 5
        assert board.refresh_troublesome() == [0]
        assert board.trouble_onset[0] == 5
        board.claim_edge(0, 4, MAKER)            # troublesome tail
        assert (board.out_calm[0], board.served[0]) == (1, 1)
        assert board.out_deg[0] == 2

    def test_deg_le1_mask_tracks_maker_degree(self):
        board = Board(small_cfg())
        assert board.deg_le1_mask == board.full_mask
        board.claim_edge(0, 1, MAKER)
        assert board.deg_le1_mask == board.full_mask
        board.claim_edge(1, 2, MAKER)
        assert not (board.deg_le1_mask >> 1) & 1
        assert (board.deg_le1_mask >> 0) & 1


class TestTrouble:
    def test_threshold_is_strict(self):
        board = Board(small_cfg(thr=2.0))
        board.claim_edge(0, 1, BREAKER)
        board.claim_edge(0, 2, BREAKER)
        assert board.refresh_troublesome() == []   # exactly 2 is not > 2
        board.claim_edge(0, 3, BREAKER)
        assert board.refresh_troublesome() == [0]

    def test_flags_are_monotone_and_fresh_only_once(self):
        board = Board(small_cfg(thr=1.0))
        for w in (1, 2):
            board.claim_edge(0, w, BREAKER)
        assert board.refresh_troublesome() == [0]
        board.claim_edge(0, 3, BREAKER)
        assert board.refresh_troublesome() == []
        assert board.troublesome[0] == 1

    def test_fresh_sorted_and_untouched_skipped(self):
        board = Board(small_cfg(thr=1.0))
        for v in (5, 3, 9):
            board.claim_edge(v, (v + 1) % 12, BREAKER)
            board.claim_edge(v, (v + 2) % 12, BREAKER)
        fresh = board.refresh_troublesome()
        assert fresh == sorted(fresh)
        assert 3 in fresh and 5 in fresh and 9 in fresh

    def test_danger_formula(self):
        board = Board(small_cfg(b=2, thr=1.0))
        for w in (1, 2, 3):
            board.claim_edge(0, w, BREAKER)
        board.refresh_troublesome()
        board.claim_edge(0, 4, MAKER)
        assert board.danger(0) == 3 - 2 * 1


class TestCounters:
    def test_recompute_matches_incremental(self):
        import random

        rng = random.Random(7)
        board = Board(small_cfg(thr=3.0))
        vertices = list(range(12))
        for _ in range(40):
            u, v = rng.sample(vertices, 2)
            if board.owner(u, v):
                continue
            board.claim_edge(u, v, rng.choice((MAKER, BREAKER)))
            board.refresh_troublesome()
        re = board.recompute_counters()
        assert re["breaker_deg"] == board.breaker_deg
        assert re["maker_deg"] == board.maker_deg
        assert re["out_deg"] == board.out_deg

    def test_unclaimed_pairs_accounting(self):
        board = Board(small_cfg())
        total = 12 * 11 // 2
        assert board.unclaimed_pairs() == total
        board.claim_edge(0, 1, MAKER)
        board.claim_edge(2, 3, BREAKER)
        assert board.unclaimed_pairs() == total - 2

    def test_fingerprint_changes_with_state(self):
        a, b = Board(small_cfg()), Board(small_cfg())
        assert a.fingerprint_fields() == b.fingerprint_fields()
        a.claim_edge(0, 1, MAKER)
        assert a.fingerprint_fields() != b.fingerprint_fields()
        b.claim_edge(0, 1, MAKER)
        assert a.fingerprint_fields() == b.fingerprint_fields()
        # Direction matters to the fingerprint even on the same pair.
        a.claim_edge(4, 5, MAKER)
        b.claim_edge(5, 4, MAKER)
        assert a.fingerprint_fields() != b.fingerprint_fields()


class TestBitHelpers:
    def test_bits_ascending(self):
        assert list(bits(0)) == []
        assert list(bits(0b101001)) == [0, 3, 5]

    @given(st.integers(min_value=1, max_value=(1 << 200) - 1))
    def test_kth_set_bit_agrees_with_enumeration(self, mask):
        positions = list(bits(mask))
        for k, want in enumerate(positions):
            assert kth_set_bit(mask, k) == want


class TestBulkClaims:
    def test_batch_claims_every_edge_in_order(self):
        board = Board(small_cfg())
        board.claim_breaker_edges([(0, 1), (5, 2), (1, 2)])
        assert [board.owner(u, v) for u, v in ((1, 0), (2, 5), (2, 1))] \
            == [BREAKER] * 3
        assert board.breaker_deg[:6] == [1, 2, 2, 0, 0, 1]
        assert board.breaker_adj[2] == (1 << 1) | (1 << 5)
        assert board.breaker_edges == 3

    @pytest.mark.parametrize("bad, reason", [
        ((4, 4), "bad edge"),
        ((3, 12), "bad edge"),
        ((-1, 3), "bad edge"),
        ((6, 7), "already claimed by Maker"),
        ((1, 0), "already claimed by Breaker"),     # claimed earlier
        ((9, 8), "already claimed by Breaker"),     # repeated in the batch
    ])
    def test_bad_edge_raises_and_keeps_the_edges_before_it(self, bad, reason):
        board = Board(small_cfg())
        board.claim_edge(6, 7, MAKER)
        board.claim_edge(0, 1, BREAKER)
        with pytest.raises(BoardError, match=reason):
            board.claim_breaker_edges([(8, 9), bad, (2, 3)])
        assert board.owner(8, 9) == BREAKER
        assert board.owner(2, 3) == 0
        assert board.breaker_edges == 2
        assert board.recompute_counters()["breaker_deg"] == board.breaker_deg

    def test_bad_player_raises(self):
        board = Board(small_cfg())
        with pytest.raises(BoardError, match="bad player"):
            board.claim_edge(0, 1, 3)
        assert board.owner(0, 1) == 0

    def test_refresh_sees_every_vertex_above_the_threshold(self):
        board = Board(small_cfg(thr=2.5))
        board.claim_breaker_edges([(0, 1), (0, 2), (3, 1)])
        assert board.refresh_troublesome() == []
        board.claim_breaker_edges([(4, 1), (0, 5), (0, 6)])
        assert board.refresh_troublesome() == [0, 1]


class TestDrawClaims:
    """`claim_breaker_draws`, the loop the random Breaker's draws go
    through as they are drawn."""

    def test_repeated_pair_is_claimed_once_and_counts_as_a_miss(self):
        board = Board(small_cfg())
        out = array("I")
        misses = board.claim_breaker_draws(
            [(0, 1), (2, 3), (0, 1), (1, 0)], 5, out, 0, 64)
        assert misses == 2
        assert out.tolist() == [0, 1, 2, 3]
        assert board.breaker_edges == 2
        assert board.breaker_deg[:4] == [1, 1, 1, 1]

    @pytest.mark.parametrize("bad", [(4, 4), (3, 12), (-1, 3)])
    def test_bad_draw_raises_and_keeps_the_claims_before_it(self, bad):
        board = Board(small_cfg())
        board.claim_edge(6, 7, MAKER)
        out = array("I")
        with pytest.raises(BoardError,
                           match=rf"^bad edge \({bad[0]}, {bad[1]}\)$"):
            board.claim_breaker_draws(
                [(8, 9), (7, 6), bad, (2, 3)], 5, out, 0, 64)
        assert out.tolist() == [8, 9]
        assert board.owner(8, 9) == BREAKER
        assert board.owner(2, 3) == 0
        assert board.breaker_edges == 1
        assert board.recompute_counters()["breaker_deg"] == board.breaker_deg

    def test_stops_after_more_than_max_misses_in_a_row(self):
        board = Board(small_cfg())
        for v in (1, 2, 3):
            board.claim_edge(0, v, MAKER)
        draws = iter([(0, 1), (0, 2), (0, 3), (4, 5)])
        out = array("I")
        assert board.claim_breaker_draws(draws, 5, out, 0, 2) == 3
        assert next(draws) == (4, 5)
        assert not out and board.breaker_edges == 0

    def test_a_run_carries_in_and_a_claim_ends_it(self):
        board = Board(small_cfg())
        for v in (1, 2, 3):
            board.claim_edge(0, v, MAKER)
        out = array("I")
        assert board.claim_breaker_draws(
            iter([(0, 1), (0, 2), (4, 5)]), 5, out, 2, 3) == 4
        assert not out
        assert board.claim_breaker_draws(
            iter([(0, 3), (4, 5), (0, 1)]), 5, out, 2, 3) == 1
        assert out.tolist() == [4, 5]

    def test_stops_at_k_claims(self):
        board = Board(small_cfg())
        draws = iter([(0, 1), (2, 3), (4, 5)])
        out = array("I")
        assert board.claim_breaker_draws(draws, 2, out, 0, 64) == 0
        assert out.tolist() == [0, 1, 2, 3]
        assert next(draws) == (4, 5)

    def test_claims_nothing_when_k_is_zero(self):
        board = Board(small_cfg())
        draws = iter([(0, 1)])
        out = array("I")
        assert board.claim_breaker_draws(draws, 0, out, 7, 64) == 7
        assert next(draws) == (0, 1)
        assert not out and board.breaker_edges == 0


class TestStarClaims:
    """`claim_breaker_star` against `claim_breaker_edges` given the same
    star as (t, w) pairs."""

    @staticmethod
    def twin_boards(seed):
        rng = Random(seed)
        n = rng.randrange(5, 40)
        cfg = small_cfg(n=n, thr=3.0)
        boards = Board(cfg), Board(cfg)
        for u, v in combinations(range(n), 2):
            x = rng.random()
            if x < 0.3:
                for board in boards:
                    board.claim_edge(u, v, MAKER if x < 0.1 else BREAKER)
        for board in boards:
            board.refresh_troublesome()
        return rng, *boards

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_edge_claims_on_random_boards(self, seed):
        rng, star, edges = self.twin_boards(seed)
        t = rng.randrange(star.n)
        ws = [w for w in range(star.n) if w != t and not star.owner(t, w)]
        ws = rng.sample(ws, rng.randrange(len(ws) + 1))
        star.claim_breaker_star(t, ws)
        edges.claim_breaker_edges([(t, w) for w in ws])
        assert star.fingerprint_fields() == edges.fingerprint_fields()
        assert star.refresh_troublesome() == edges.refresh_troublesome()
        assert star.fingerprint_fields() == edges.fingerprint_fields()
        assert star.recompute_counters()["breaker_deg"] == star.breaker_deg

    @pytest.mark.parametrize("t, ws, reason", [
        (3, [5, 6, 12, 7], r"bad edge \(3, 12\)"),
        (3, [5, 6, -1, 7], r"bad edge \(3, -1\)"),
        (3, [5, 6, 3, 7], r"bad edge \(3, 3\)"),
        (12, [5, 6], r"bad edge \(12, 5\)"),
        (3, [5, 6, 8, 7], r"edge \(3, 8\) already claimed by Maker"),
        (3, [5, 6, 9, 7], r"edge \(3, 9\) already claimed by Breaker"),
        (3, [5, 6, 5, 7], r"edge \(3, 5\) already claimed by Breaker"),
    ])
    def test_bad_star_raises_as_per_edge_claims_do(self, t, ws, reason):
        star, edges = Board(small_cfg()), Board(small_cfg())
        for board in (star, edges):
            board.claim_edge(3, 8, MAKER)
            board.claim_edge(9, 3, BREAKER)
        with pytest.raises(BoardError, match=f"^{reason}$"):
            star.claim_breaker_star(t, ws)
        with pytest.raises(BoardError, match=f"^{reason}$"):
            edges.claim_breaker_edges([(t, w) for w in ws])
        assert star.fingerprint_fields() == edges.fingerprint_fields()
        assert star.refresh_troublesome() == edges.refresh_troublesome()
        if t == 3:
            assert star.owner(3, 5) == star.owner(3, 6) == BREAKER
            assert star.owner(3, 7) == 0

    def test_empty_star_claims_nothing(self):
        board = Board(small_cfg())
        before = board.fingerprint_fields()
        board.claim_breaker_star(3, [])
        assert board.fingerprint_fields() == before


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13),
              st.sampled_from(("maker", "batch", "single")), st.booleans()),
    max_size=60))
def test_random_claim_sequences_keep_counters_exact(moves):
    """Breaker edges fed through bulk batches mixed with single claim_edge
    calls leave the board exactly as one claim_edge call per edge."""
    cfg = GameConfig(n=14, b=3, trouble_threshold=3.0,
                     quota=2, hub_size=4, max_turns=56)
    single, bulk = Board(cfg), Board(cfg)
    batch: list[tuple[int, int]] = []
    taken: set[frozenset] = set()

    def end_turn(turn):
        bulk.claim_breaker_edges(batch)
        batch.clear()
        single.turn = bulk.turn = turn
        assert single.refresh_troublesome() == bulk.refresh_troublesome()

    turn = 1
    for u, v, how, turn_ends in moves:
        if u == v or frozenset((u, v)) in taken:
            continue
        taken.add(frozenset((u, v)))
        if how == "maker":
            bulk.claim_breaker_edges(batch)
            batch.clear()
            single.claim_edge(u, v, MAKER)
            bulk.claim_edge(u, v, MAKER)
        else:
            single.claim_edge(u, v, BREAKER)
            if how == "batch":
                batch.append((u, v))
            else:
                bulk.claim_breaker_edges(batch)
                batch.clear()
                bulk.claim_edge(u, v, BREAKER)
        if turn_ends:
            end_turn(turn)
            turn += 1
    end_turn(turn)
    assert bulk.fingerprint_fields() == single.fingerprint_fields()
    for board in (single, bulk):
        re = board.recompute_counters()
        assert re["breaker_deg"] == board.breaker_deg
        assert re["maker_deg"] == board.maker_deg
        assert re["out_deg"] == board.out_deg
        assert board.breaker_edges + board.maker_edges == len(taken)
        for v in range(14):
            assert board.out_calm[v] + board.served[v] == board.out_deg[v]
            assert board.troublesome[v] == (board.breaker_deg[v] > 3.0)
