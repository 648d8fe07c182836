"""Settled set + path family bookkeeping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hamgame.board import BREAKER, MAKER, Board, GameConfig
from hamgame.paths import PathSystem, PathSystemError


def fresh(n=10, settled=(8, 9)):
    return PathSystem(n, set(settled))


def test_initial_partition_singletons():
    ps = fresh()
    assert ps.path_count() == 8
    assert ps.is_settled(8) and ps.is_settled(9)
    for v in range(8):
        assert ps.ends[v] == (v, v)
        assert ps.is_endpoint(v)
        assert not ps.is_interior(v)
    assert ps.deep_check() == []


def test_absorb_singleton():
    ps = fresh()
    res = ps.absorb(3)
    assert res.promoted and res.removed_path == 3 and res.new_paths == ()
    assert ps.is_settled(3)
    assert ps.path_count() == 7
    assert ps.deep_check() == []


def test_absorb_already_settled_is_flagged_noop():
    ps = fresh()
    res = ps.absorb(9)
    assert not res.promoted
    assert res.removed_path is None
    assert ps.path_count() == 8


def test_join_and_interior_absorb_splits():
    ps = fresh()
    ps.join(0, 1)
    pid = ps.join(1, 2)          # path 0-1-2
    assert ps.path_vertices(pid) in ([0, 1, 2], [2, 1, 0])
    assert ps.is_interior(1)
    res = ps.absorb(1)           # splits into 0 and 2
    assert res.promoted and len(res.new_paths) == 2
    assert sorted(ps.path_vertices(p)[0] for p in res.new_paths) == [0, 2]
    assert ps.deep_check() == []


def test_absorb_endpoint_leaves_one_piece():
    ps = fresh()
    pid = ps.join(4, 5)
    res = ps.absorb(4)
    assert res.removed_path == pid
    assert len(res.new_paths) == 1
    assert ps.path_vertices(res.new_paths[0]) == [5]
    assert ps.deep_check() == []


def test_join_longer_side_keeps_id_ties_lower():
    ps = fresh()
    a = ps.join(0, 1)            # length 2
    assert ps.join(1, 2) == a    # longer keeps
    b = ps.join(4, 5)
    assert ps.join(2, 4) == a    # 3 > 2
    # Tie: two singletons, lower id keeps.
    assert ps.join(6, 7) == 6


def test_join_rejects_interior_and_same_path():
    ps = fresh()
    ps.join(0, 1)
    ps.join(1, 2)
    with pytest.raises(PathSystemError):
        ps.join(1, 5)            # 1 is interior
    with pytest.raises(PathSystemError):
        ps.join(0, 2)            # same path
    ps.absorb(7)
    with pytest.raises(PathSystemError):
        ps.join(7, 5)            # settled


def test_endpoint_mask_tracks_structure():
    ps = fresh()
    ps.join(0, 1)
    ps.join(1, 2)
    mask = ps.endpoint_mask
    assert (mask >> 0) & 1 and (mask >> 2) & 1
    assert not (mask >> 1) & 1
    for v in (3, 4, 5, 6, 7):
        assert (mask >> v) & 1


def test_anchor_mask_is_settled_plus_endpoints():
    ps = fresh()
    ps.join(0, 1)
    assert ps.anchor_mask() == (ps.settled_mask | ps.endpoint_mask)
    assert (ps.anchor_mask() >> 8) & 1


def test_deep_check_flags_path_ids_out_of_order():
    # find_joinable_pair scans ends in insertion order as id order.
    ps = fresh()
    ps.ends[0] = ps.ends.pop(0)
    assert ps.deep_check() == ["path ids out of order"]


def test_ends_is_compacted_once_dropped_ids_outnumber_live_ones():
    ps = PathSystem(40, {39})            # singleton paths 0..38
    original = ps.ends
    for v in range(1, 20):               # drops ids 1..19; 20 paths remain
        ps.join(v - 1, v)
    assert ps.ends is original
    ps.absorb(38)                        # a 20th dropped id, 19 remain
    assert ps.ends is not original
    assert list(ps.ends) == [0] + list(range(20, 38))
    assert ps.deep_check() == []
    assert ps.join(19, 20) == 0
    assert ps.deep_check() == []


class TestJoinablePair:
    def board(self, n=10):
        return Board(GameConfig(n=n, b=1, trouble_threshold=5.0,
                                quota=2, hub_size=2, max_turns=4 * n))

    def test_scan_order_prefers_lowest_path_then_endpoint(self):
        ps = fresh()
        board = self.board()
        assert ps.find_joinable_pair(board) == (0, 1)

    def test_breaker_edge_blocks_pair(self):
        ps = fresh()
        board = self.board()
        board.claim_edge(0, 1, BREAKER)
        assert ps.find_joinable_pair(board) == (0, 2)

    def test_maker_degree_cap_excludes_busy_endpoints(self):
        ps = fresh()
        board = self.board()
        # Vertex 0 already has two Maker edges (to settled hubs).
        board.claim_edge(0, 8, MAKER)
        board.claim_edge(0, 9, MAKER)
        assert ps.find_joinable_pair(board) == (1, 2)

    def test_none_when_single_path_remains(self):
        ps = PathSystem(4, {3})
        board = Board(GameConfig(n=4, b=1, trouble_threshold=2.0,
                                 quota=2, hub_size=1, max_turns=16))
        ps.join(0, 1)
        ps.join(1, 2)
        assert ps.find_joinable_pair(board) is None


def test_init_path_system_matches_board():
    board = Board(GameConfig(n=8, b=1, trouble_threshold=4.0,
                             quota=2, hub_size=3, max_turns=32))
    ps = PathSystem(board.n, set(board.cfg.hub_vertices()))
    assert ps.settled_mask == 0b11100000
    assert ps.path_count() == 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_mutation_sequences_stay_consistent(seed):
    rng = random.Random(seed)
    n = 16
    ps = PathSystem(n, {14, 15})
    for _ in range(30):
        if rng.random() < 0.5:
            ends = [v for v in range(n) if ps.is_endpoint(v)]
            rng.shuffle(ends)
            done = False
            for u in ends:
                for v in ends:
                    if ps.loc[u] != ps.loc[v] and ps.loc[u] != -1 \
                            and ps.loc[v] != -1:
                        ps.join(u, v)
                        done = True
                        break
                if done:
                    break
        else:
            v = rng.randrange(n)
            ps.absorb(v)
    assert ps.deep_check() == []
    # Partition: every vertex settled or on exactly one path.
    covered = {v for v in range(n) if ps.settled_mask >> v & 1}
    for pid in ps.ends:
        verts = ps.path_vertices(pid)
        assert covered.isdisjoint(verts)
        covered.update(verts)
    assert covered == set(range(n))
