"""Maker dispatch: service priority, hub wiring, joins, flip, endgame."""

from random import Random

from hamgame.board import (
    BREAKER,
    MAKER,
    UNCLAIMED,
    Board,
    GameConfig,
    bits,
    kth_set_bit,
)
from hamgame.maker import MakerStrategy
from hamgame.paths import PathSystem
from hamgame.rotation import TrackedPath


def make_game(n=12, b=2, thr=2.0, quota=2, hub_size=6, seed=5, **kw):
    # hub_size >= 3*quota, otherwise wiring saturates by construction.
    kw.setdefault("max_turns", 8 * n)
    cfg = GameConfig(n=n, b=b, trouble_threshold=thr, quota=quota,
                     hub_size=hub_size, seed=seed, **kw)
    board = Board(cfg)
    ps = PathSystem(board.n, set(cfg.hub_vertices()))
    maker = MakerStrategy(cfg, board, ps, Random(seed))
    return cfg, board, ps, maker


def absorb(ps, maker, v):
    res = ps.absorb(v)
    maker.note_promoted(v)
    for pid in res.new_paths:
        a, b = ps.ends[pid]
        maker.note_new_endpoints([a, b] if a != b else [a])


def play_round(board, ps, maker, hits=()):
    """One full round: Breaker claims `hits`, flags refresh, Maker moves."""
    board.turn += 1
    for v, w in hits:
        board.claim_edge(v, w, BREAKER)
    for v in board.refresh_troublesome():
        absorb(ps, maker, v)
    move = maker.turn()
    for w in move.promoted:
        absorb(ps, maker, w)
    return move


def mask_of(verts):
    m = 0
    for v in verts:
        m |= 1 << v
    return m


class TestService:
    def test_serves_highest_danger_first(self):
        cfg, board, ps, maker = make_game()
        hits = [(5, w) for w in (0, 1, 2)] + [(7, w) for w in (0, 1, 2, 3)]
        move = play_round(board, ps, maker, hits)
        assert move.case == "P1.C2"
        assert move.edge[0] == 7  # danger 4 beats danger 3
        # Head: least unsettled index whose pair with 7 is open; 0..3
        # are Breaker-blocked at 7.
        assert move.edge[1] == 4
        assert move.promoted == [4]
        assert ps.is_settled(4)

    def test_danger_tie_breaks_to_lowest_index(self):
        cfg, board, ps, maker = make_game()
        hits = [(6, w) for w in (0, 1, 2)] + [(5, w) for w in (0, 1, 2)]
        move = play_round(board, ps, maker, hits)
        assert move.case == "P1.C2"
        assert move.edge[0] == 5

    def test_service_stops_at_quota(self):
        cfg, board, ps, maker = make_game()
        first = play_round(board, ps, maker, [(5, w) for w in (0, 1, 2)])
        second = play_round(board, ps, maker)
        third = play_round(board, ps, maker)
        assert first.edge[0] == second.edge[0] == 5
        assert board.served[5] == cfg.quota == 2
        assert third.case == "P1.C1.1"  # pruned, wiring resumes

    def test_breaker_pressure_on_served_vertex_changes_nothing(self):
        cfg, board, ps, maker = make_game()
        play_round(board, ps, maker, [(5, w) for w in (0, 1, 2)])
        play_round(board, ps, maker)
        # 5 is at quota; more Breaker edges must not re-activate it.
        move = play_round(board, ps, maker, [(5, 6), (5, 7)])
        assert move.case == "P1.C1.1"
        assert board.served[5] == 2

    def test_exhausted_service_pool_ends_game(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        move = play_round(board, ps, maker, [(0, 1), (0, 2), (0, 3)])
        assert move.case == "P1.C2"
        assert move.edge is None and not move.won
        assert move.end_reason == "troublesome service exhausted"


class TestTopUp:
    def test_wires_lowest_deficit_hub_to_a_hub(self):
        cfg, board, ps, maker = make_game()
        move = play_round(board, ps, maker)
        assert move.case == "P1.C1.1"
        tail, head = move.edge
        assert tail == 6  # lowest settled vertex below quota
        assert head in cfg.hub_vertices() and head != tail
        assert move.promoted == []

    def test_wiring_fills_every_hub_to_quota(self):
        cfg, board, ps, maker = make_game()
        for _ in range(12):  # 6 hubs, quota 2
            move = play_round(board, ps, maker)
            assert move.case == "P1.C1.1"
        for h in cfg.hub_vertices():
            assert board.out_deg[h] == cfg.quota
        assert play_round(board, ps, maker).case == "P1.C1.2a"

    def test_hub_draw_is_seed_deterministic(self):
        edges_a = [play_round(*make_game(seed=9)[1:]).edge for _ in range(1)]
        run_a = make_game(seed=9)
        run_b = make_game(seed=9)
        for _ in range(5):
            ea = play_round(*run_a[1:]).edge
            eb = play_round(*run_b[1:]).edge
            assert ea == eb

    def test_hub_draw_matches_a_walk_from_bit_zero(self):
        # The walk starts at the hub band; the randrange call and the hub
        # it picks are those of a walk over the whole mask.
        cfg, board, ps, maker = make_game(n=300, hub_size=150)
        rng = Random(3)
        for v in range(0, 300, 7):
            for h in rng.sample(cfg.hub_vertices(), rng.randrange(150)):
                if h != v and not board.owner(v, h):
                    board.claim_edge(v, h, rng.choice((MAKER, BREAKER)))
            ref = Random()
            ref.setstate(maker.rng.getstate())
            cand = (maker.hub_mask & ~board.breaker_adj[v]
                    & ~board.maker_adj[v] & ~(1 << v))
            want = kth_set_bit(cand, ref.randrange(bin(cand).count("1"))) \
                if cand else None
            assert maker._hub_draw(v) == want
            assert maker.rng.getstate() == ref.getstate()

    def test_saturated_hub_pool_ends_game(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        move = play_round(board, ps, maker, [(4, 5)])
        assert move.case == "P1.C1.1"
        assert move.end_reason == "hub pool saturated for vertex 4"


class TestJoin:
    def test_join_claims_edge_and_merges(self):
        cfg, board, ps, maker = make_game()
        for _ in range(12):
            play_round(board, ps, maker)
        move = play_round(board, ps, maker)
        assert move.case == "P1.C1.2a"
        assert move.edge == (0, 1)
        assert ps.loc[0] == ps.loc[1]
        assert move.promoted == []


class TestPhaseFlip:
    def drive_to_flip(self):
        game = make_game()
        cfg, board, ps, maker = game
        for i in range(17):  # 12 wiring turns + 5 joins over 6 singletons
            move = play_round(board, ps, maker)
            assert maker.phase == 1, move.case
        return game

    def test_flip_turn_has_combined_label(self):
        cfg, board, ps, maker = self.drive_to_flip()
        move = play_round(board, ps, maker)
        assert move.case == "P1.C1.2b+P2.C1.2a"
        assert maker.phase == 2
        assert maker.phase1_end_turn == board.turn - 1
        assert move.edge is not None  # flip turn still claims one edge

    def test_tracked_path_seeded_at_least_settled_vertex(self):
        cfg, board, ps, maker = self.drive_to_flip()
        play_round(board, ps, maker)
        # Seeded at the least settled vertex (6), then regrown along the
        # hub wiring within the same turn.
        tracked = maker.tracked
        assert tracked.order[0] == 6
        assert tracked.mask == mask_of(tracked.order)
        assert set(tracked.order) <= set(cfg.hub_vertices())

    def test_no_second_flip_and_phase2_labels(self):
        cfg, board, ps, maker = self.drive_to_flip()
        play_round(board, ps, maker)
        for _ in range(3):
            move = play_round(board, ps, maker)
            assert maker.phase == 2
            assert move.case.startswith("P2.")

    def test_service_preempts_structure_after_flip(self):
        cfg, board, ps, maker = self.drive_to_flip()
        play_round(board, ps, maker)
        # Hit 0 with hub-side edges so the unsettled serve pool survives.
        free = [w for w in range(6, 12) if board.owner(0, w) == UNCLAIMED][:3]
        move = play_round(board, ps, maker, [(0, w) for w in free])
        assert move.case == "P2.C2"
        assert move.edge[0] == 0
        assert move.promoted == [move.edge[1]]


def settle_all(board, ps, maker, verts):
    for v in verts:
        absorb(ps, maker, v)


class TestPhase2Endgame:
    def triangle_game(self):
        """Hubs wired, 0-1-2 a settled Maker triangle path, 3 topped up."""
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        for e in [(0, 1), (1, 2), (4, 5), (5, 3), (3, 4)]:
            board.claim_edge(*e, MAKER)
        settle_all(board, ps, maker, [0, 1, 2])
        maker.phase = 2
        return cfg, board, ps, maker

    def test_spanning_closed_cycle_wins_before_service(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
            board.claim_edge(*e, MAKER)
        settle_all(board, ps, maker, [0, 1, 2, 3])
        maker.phase = 2
        maker.tracked = TrackedPath(order=list(range(6)), mask=0b111111,
                                    cycle_closed=True)
        # Fresh trouble on 1 would normally demand service; winning is
        # checked first.
        move = play_round(board, ps, maker, [(1, 3), (1, 4), (1, 5)])
        assert maker.active_troublesome == [1]
        assert move.won
        assert move.case == "P2.C1.2b(ii)"
        assert move.end_reason == "spanning cycle complete"

    def test_stalled_closed_cycle_reports_failure(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        for e in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 3), (3, 4)]:
            board.claim_edge(*e, MAKER)
        settle_all(board, ps, maker, [0, 1, 2])
        maker.phase = 2
        maker.tracked = TrackedPath(order=[0, 1, 2], mask=0b111,
                                    cycle_closed=True)
        move = play_round(board, ps, maker)
        assert move.case == "P2.C1.2b(i)"
        assert move.end_reason == "stalled with closed cycle"
        assert not move.won

    def test_no_claimable_hub_pair_ends_phase2(self):
        cfg, board, ps, maker = self.triangle_game()
        board.claim_edge(2, 4, MAKER)  # top 2 up away from the hubs
        maker.tracked = TrackedPath(order=[0, 1, 2], mask=0b111)
        move = play_round(board, ps, maker)
        assert move.case == "P2.C1.2b(i)"
        assert move.end_reason == "phase 2 ended without Hamilton cycle"
        # advance ran first and swallowed the hub triangle
        assert set(maker.tracked.order) == set(range(6))

    def test_booster_closes_tracked_cycle(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        for e in [(0, 1), (1, 2)]:
            board.claim_edge(*e, MAKER)
        settle_all(board, ps, maker, [0, 1, 2])
        maker.phase = 2
        maker.hub_mask = mask_of([0, 2])
        maker.tracked = TrackedPath(order=[0, 1, 2], mask=0b111)
        board.turn = 33
        move = maker._close_or_end("P2.C1.2b(i)")
        assert move.edge == (2, 0)
        assert not move.won  # cycle spans 3 of 6 vertices
        tracked = maker.tracked
        assert tracked.cycle_closed
        assert tracked.order == [2, 1, 0]
        assert maker.booster_turns == 1

    def test_booster_direction_spares_saturated_troublesome_tail(self):
        cfg, board, ps, maker = make_game(n=6, b=3, quota=1, hub_size=2)
        for e in [(0, 1), (1, 2)]:
            board.claim_edge(*e, MAKER)
        settle_all(board, ps, maker, [0, 1, 2])
        maker.phase = 2
        maker.hub_mask = mask_of([0, 2])
        maker.tracked = TrackedPath(order=[0, 1, 2], mask=0b111)
        board.troublesome[2] = True
        board.served[2] = 1  # at quota: one more service charge would break it
        move = maker._close_or_end("P2.C1.2b(i)")
        assert move.edge == (0, 2)
        assert board.served[2] == 1
        assert maker.tracked.order == [0, 1, 2]


class TestHooks:
    def test_note_promoted_skips_vertices_at_quota(self):
        cfg, board, ps, maker = make_game()
        board.troublesome[3] = True
        board.served[3] = cfg.quota
        maker.note_promoted(3)
        assert 3 not in maker.active_troublesome
        board.troublesome[4] = True
        maker.note_promoted(4)
        assert 4 in maker.active_troublesome

    def test_case_counts_accumulate(self):
        cfg, board, ps, maker = make_game()
        for _ in range(6):
            play_round(board, ps, maker)
        assert sum(maker.case_counts.values()) == 6
        assert maker.case_counts["P1.C1.1"] == 6
