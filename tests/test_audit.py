"""Audit layer: each check against a hand-computed or brute-force route."""

import sys
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from hamgame.audit import (
    FAILURE_CAP,
    ExpansionReport,
    _exact_triples_pruned,
    _scan_triples,
    _target_masks,
    connectivity_audit,
    expansion_audit,
    live_audit,
    potential_audit,
    turn_accounting,
    verify_hamilton,
)
from hamgame.board import Board, GameConfig, MAKER, bits
from hamgame.gamelog import GameLog, MoveRecord
from hamgame.paths import PathSystem, PathSystemError
from hamgame.runner import game_rng, run_game
from oracles import potential_audit_reference, scan_triples_reference


def state(n, edges=(), settled=None):
    cfg = GameConfig(n=n, b=2, trouble_threshold=n - 2.0, quota=4,
                     hub_size=max(2, n // 4), max_turns=8 * n)
    board = Board(cfg)
    settled = set(range(n)) if settled is None else set(settled)
    ps = PathSystem(n, settled)
    for u, v in edges:
        board.claim_edge(u, v, MAKER)
    return board, ps


def cycle_log(n=5, extra=(), cert=None, drop_last=False):
    edges = [(v, (v + 1) % n) for v in range(n)]
    if drop_last:
        edges = edges[:-1]
    recs = [MoveRecord(i + 1, "M", [e], case="P1.C1.1")
            for i, e in enumerate(edges + list(extra))]
    log = GameLog(meta={"n": n, "b": 1}, records=recs)
    log.end = {"certificate": list(range(n)) if cert is None else cert}
    return log


class TestVerifyHamilton:
    def test_valid_cycle(self):
        assert verify_hamilton(cycle_log())

    def test_claim_direction_is_irrelevant(self):
        log = cycle_log()
        log.records[2] = MoveRecord(3, "M", [(3, 2)], case="P1.C1.1")
        assert verify_hamilton(log)

    def test_missing_edge_fails(self):
        assert not verify_hamilton(cycle_log(drop_last=True))

    def test_supergraph_still_passes(self):
        assert verify_hamilton(cycle_log(extra=[(0, 2), (1, 3)]))

    def test_short_certificate_fails(self):
        assert not verify_hamilton(cycle_log(cert=[0, 1, 2]))

    def test_duplicate_vertex_fails(self):
        assert not verify_hamilton(cycle_log(cert=[0, 1, 2, 3, 0]))

    def test_out_of_range_vertex_fails(self):
        assert not verify_hamilton(cycle_log(cert=[0, 1, 2, 3, 7]))

    def test_no_certificate_fails(self):
        log = cycle_log()
        log.end = {"certificate": None}
        assert not verify_hamilton(log)
        log.end = None
        assert not verify_hamilton(log)


def serve_log(b, rounds):
    """rounds: list of (breaker_edges, breaker_promoted, maker_record)."""
    recs = []
    for turn, (bedges, bprom, mrec) in enumerate(rounds, start=1):
        recs.append(MoveRecord(turn, "B", bedges, promoted=bprom))
        recs.append(mrec)
    return GameLog(meta={"n": 8, "b": b}, records=recs)


class TestPotential:
    def test_no_service_turns_no_runs(self):
        log = serve_log(2, [
            ([(0, 1)], [], MoveRecord(1, "M", [(6, 7)], case="P1.C1.1")),
        ])
        assert potential_audit(log) == []

    def test_single_vertex_run_margins_exact(self):
        # Serve 0 twice under b=3.  p(1) = 3; before the second serve
        # deg is 5 and served is 1, so p(2) = 5 - 3 = 2.
        log = serve_log(3, [
            ([(0, 1), (0, 2), (0, 3)], [0],
             MoveRecord(1, "M", [(0, 4)], case="P1.C2", promoted=[4])),
            ([(0, 5), (0, 6)], [],
             MoveRecord(2, "M", [(0, 7)], case="P1.C2", promoted=[7])),
        ])
        runs = potential_audit(log)
        assert len(runs) == 1
        run = runs[0]
        assert run.serves == [0, 0]
        assert run.start_turn == 1
        assert run.step_ok == [True]
        assert run.step_margin == [Fraction(1)]   # bound 3, value 2
        assert run.aggregate_ok
        assert run.aggregate_margin == Fraction(6)  # bound 3+2+3, value 2
        assert run.ok

    def test_shrinking_active_set_uses_the_drop_bound(self):
        # Tails 5 then 0: A_1 = {0, 5}, A_2 = {0}.  p(1) = (2+0)/2 = 1,
        # p(2) = 2; drop bound 1 + 2/2 + 2 = 4.
        log = serve_log(2, [
            ([(5, 1), (5, 2)], [5],
             MoveRecord(1, "M", [(5, 4)], case="P1.C2", promoted=[4])),
            ([(0, 5), (0, 1)], [0],
             MoveRecord(2, "M", [(0, 6)], case="P1.C2", promoted=[6])),
        ])
        runs = potential_audit(log)
        assert len(runs) == 1
        run = runs[0]
        assert run.serves == [5, 0]
        assert run.step_margin == [Fraction(2)]
        # aggregate bound 1 + 2*2 + 2*(1 + 1/2) = 8, p(2) = 2
        assert run.aggregate_margin == Fraction(6)
        assert run.ok

    def test_non_service_turn_splits_runs(self):
        log = serve_log(3, [
            ([(0, 1), (0, 2), (0, 3)], [0],
             MoveRecord(1, "M", [(0, 4)], case="P1.C2", promoted=[4])),
            ([], [], MoveRecord(2, "M", [(6, 7)], case="P1.C1.1")),
            ([(0, 5)], [],
             MoveRecord(3, "M", [(0, 6)], case="P1.C2", promoted=[6])),
        ])
        runs = potential_audit(log)
        assert [r.serves for r in runs] == [[0], [0]]
        assert all(r.step_ok == [] for r in runs)

    def test_failed_serve_without_edge_is_not_a_run_member(self):
        log = serve_log(3, [
            ([(0, 1), (0, 2), (0, 3)], [0],
             MoveRecord(1, "M", [], case="P1.C2")),
        ])
        assert potential_audit(log) == []


class TestPotentialReference:
    """potential_audit keeps only the Breaker edges between service
    participants; its runs equal those of the first version, which kept
    every Breaker edge."""

    @pytest.mark.parametrize("n", [200, 300])
    @pytest.mark.parametrize("policy", ["isolator", "maxdanger",
                                        "pairkiller", "random"])
    def test_engine_logs(self, n, policy):
        cfg = GameConfig.scaled(n, seed=1, audit_level="cheap")
        log = run_game(cfg, policy).log
        assert potential_audit(log) == potential_audit_reference(log)

    def test_later_run_with_breaker_edges_inside_it(self):
        # Run 2 serves 5 then 0, and Breaker owns (0, 5): its potentials
        # count that edge, though run 1 served 0 alone.
        log = serve_log(3, [
            ([(0, 1), (0, 2), (0, 3)], [0],
             MoveRecord(1, "M", [(0, 4)], case="P1.C2", promoted=[4])),
            ([], [], MoveRecord(2, "M", [(6, 7)], case="P1.C1.1")),
            ([(5, 1), (5, 2), (5, 0)], [5],
             MoveRecord(3, "M", [(5, 4)], case="P1.C2", promoted=[4])),
            ([(0, 7)], [],
             MoveRecord(4, "M", [(0, 6)], case="P1.C2", promoted=[6])),
        ])
        runs = potential_audit(log)
        assert [r.serves for r in runs] == [[0], [5, 0]]
        assert runs == potential_audit_reference(log)

    @pytest.mark.parametrize("name", sorted(
        name for name in vars(TestPotential) if name.startswith("test_")))
    def test_fixture_logs(self, monkeypatch, name):
        logs = []
        audit = potential_audit

        def both(log):
            logs.append(log)
            runs = audit(log)
            assert runs == potential_audit_reference(log)
            return runs

        monkeypatch.setattr(sys.modules[__name__], "potential_audit", both)
        getattr(TestPotential(), name)()
        assert logs


def brute_expansion_failures(board, ps, growth_fraction, nonempty_fraction):
    anchors = sorted(bits(ps.anchor_mask()))
    a = len(anchors)
    settled = ps.settled_mask
    tg = {v: {h for h in board.out_heads[v] if settled >> h & 1}
          for v in anchors}
    fails = []
    for size in (1, 2, 3):
        if size <= int(a * growth_fraction):
            need = 2 * size
        elif size <= int(a * nonempty_fraction):
            need = 0
        else:
            continue
        for sub in combinations(anchors, size):
            union = set()
            for v in sub:
                union |= tg[v]
            count = len(union - set(sub))
            if count <= need:
                fails.append((size, tuple(sub), count, need))
    return fails


def random_audit_state(rng):
    """A board and path system for the expansion audit: mostly small,
    sometimes up to 134 anchors (the most the full triple scan takes),
    with a random share of vertices that have no Maker out-edges, so
    that the cap stops some audits in the triple phase."""
    n = rng.randint(100, 134) if rng.random() < 0.03 else rng.randint(4, 48)
    share = rng.choice([0.6, 1])
    settled = {v for v in range(n) if rng.random() < share}
    empty = rng.choice([0, 0.1, 0.5, 0.9, 1])
    degree = rng.choice([1, 2, 3, 8])
    edges, used = [], set()
    for v in range(n):
        if rng.random() < empty:
            continue
        for w in rng.sample(range(n), rng.randint(1, min(degree, n))):
            if v != w and frozenset((v, w)) not in used:
                used.add(frozenset((v, w)))
                edges.append((v, w))
    board, ps = state(n, edges=edges, settled=settled)
    for _ in range(rng.randint(0, n // 3)):
        try:
            ps.join(*rng.sample(range(n), 2))
        except PathSystemError:
            pass
    return board, ps


class TestExpansion:
    def test_well_wired_ring_passes_nonempty_clause(self):
        n = 16
        board, ps = state(n, edges=[(v, (v + 1) % n) for v in range(n)])
        report = expansion_audit(board, ps, Random(0), samples=500)
        assert report.anchors == n
        assert report.failure_count == 0
        assert report.pass_rate == 1.0
        assert report.exact_complete
        assert report.checked > n

    def test_unsettled_targets_do_not_count(self):
        board, ps = state(6, edges=[(0, 5)], settled={0, 1, 2, 3, 4})
        # 5 is 0's only out-neighbour and it is not settled.
        report = expansion_audit(board, ps, Random(0), samples=0)
        assert any(sub == (0,) for _, sub, _, _ in report.failures)

    def test_matches_bruteforce_on_random_states(self):
        for seed in range(8):
            rng = Random(seed)
            n = 24
            cfg_edges = []
            used = set()
            for v in range(n):
                for w in rng.sample(range(n), rng.randint(0, 3)):
                    key = (min(v, w), max(v, w))
                    if v != w and key not in used:
                        used.add(key)
                        cfg_edges.append((v, w))
            settled = {v for v in range(n) if rng.random() < 0.8}
            board, ps = state(n, edges=cfg_edges, settled=settled)
            report = expansion_audit(board, ps, Random(1), samples=0,
                                     growth_fraction=0.15)
            want = brute_expansion_failures(board, ps, 0.15, 0.5)
            assert sorted(report.failures) == sorted(want)
            a = len(sorted(bits(ps.anchor_mask())))
            assert report.checked == a + a * (a - 1) // 2 \
                + a * (a - 1) * (a - 2) // 6

    def test_failure_cap_truncates_witnesses(self):
        n = 41
        edges = [(40, 0)] + [(v, 40) for v in range(1, 40)]
        board, ps = state(n, edges=edges)
        report = expansion_audit(board, ps, Random(0), samples=100,
                                 growth_fraction=0.1)
        assert len(report.failures) == FAILURE_CAP
        assert report.failure_count >= FAILURE_CAP
        assert not report.exact_complete
        assert report.pass_rate < 1.0

    def test_triple_scan_matches_the_full_loop(self):
        """_scan_triples skips pairs that cannot fail; everything it
        reports, `checked` at the cap included, is what visiting every
        triple reported.  Some reports start with earlier failures, as
        sizes 1-2 leave them, so the cap stops the scan at many ranks."""
        capped = with_failures = 0
        for seed in range(1000):
            rng = Random(seed)
            board, ps = random_audit_state(rng)
            anchors = sorted(bits(ps.anchor_mask()))
            targets = _target_masks(board, ps, anchors)
            need = rng.choice([0, 6])
            earlier = rng.choice([0, rng.randrange(FAILURE_CAP)])

            def fresh():
                return ExpansionReport(
                    anchors=len(anchors), checked=earlier,
                    failure_count=earlier,
                    failures=[(1, (0,), 0, 2)] * earlier)

            got, want = fresh(), fresh()
            done = _scan_triples(anchors, targets, need, got)
            assert done == scan_triples_reference(anchors, targets, need,
                                                  want), seed
            assert (got.checked, got.failure_count, got.failures,
                    got.exact_complete) == \
                (want.checked, want.failure_count, want.failures,
                 want.exact_complete), seed
            with_failures += want.failure_count > earlier
            capped += not done
        assert capped >= 100 and with_failures >= 300, \
            (capped, with_failures)

    def test_pruned_triples_match_bruteforce(self):
        for seed in range(6):
            rng = Random(seed)
            a = 30
            anchors = list(range(a))
            targets = {}
            for v in anchors:
                kind = rng.random()
                if kind < 0.25:
                    size = rng.randint(0, 3)       # W3 family
                elif kind < 0.5:
                    size = rng.randint(0, 1)       # tiny family
                else:
                    size = rng.randint(4, 9)       # rich
                m = 0
                for h in rng.sample(range(a), size):
                    m |= 1 << h
                targets[v] = m
            need = 6
            report = ExpansionReport(anchors=a)
            done = _exact_triples_pruned(anchors, targets, need, report)
            assert done
            want = set()
            for sub in combinations(anchors, 3):
                sbits = (1 << sub[0]) | (1 << sub[1]) | (1 << sub[2])
                union = targets[sub[0]] | targets[sub[1]] | targets[sub[2]]
                count = (union & ~sbits).bit_count()
                if count <= need:
                    want.add((3, sub, count, need))
            assert set(report.failures) == want
            assert report.checked == a * (a - 1) * (a - 2) // 6


class TestConnectivity:
    def test_connected_settled_graph(self):
        board, ps = state(6, edges=[(0, 1), (1, 2)], settled={0, 1, 2})
        assert connectivity_audit(board, ps)

    def test_split_settled_graph(self):
        board, ps = state(6, edges=[(0, 1), (2, 3)], settled={0, 1, 2, 3})
        assert not connectivity_audit(board, ps)

    def test_bridge_through_unsettled_vertex_does_not_help(self):
        board, ps = state(6, edges=[(0, 4), (4, 1)], settled={0, 1})
        assert not connectivity_audit(board, ps)

    def test_tiny_settled_sets_are_connected_by_convention(self):
        board, ps = state(6, settled={3})
        assert connectivity_audit(board, ps)


class TestTurnAccounting:
    def test_independent_replay_matches_engine_counters(self):
        result = run_game(GameConfig.scaled(60, seed=11))
        acct = turn_accounting(result.log)
        stats = result.stats
        assert acct["maker_turns"] == stats["maker_turns"]
        assert acct["case_counts"] == stats["case_counts"]
        assert acct["max_settled"] == stats["max_settled"]
        assert acct["max_paths"] == stats["max_paths"]
        assert acct["booster_turns"] == stats["booster_turns"]
        assert acct["troublesome"] == stats["troublesome"]
        assert acct["growth_events"] == stats["growth_events"]
        assert acct["trouble_ok"] and acct["booster_ok"]
        assert acct["case_sum_ok"] and acct["growth_ok"]

    def test_trouble_bound_uses_logged_breaker_volume(self):
        result = run_game(GameConfig.scaled(60, seed=3), breaker="isolator")
        acct = turn_accounting(result.log)
        bedges = sum(len(r.edges) for r in result.log.records
                     if r.player == "B")
        assert acct["trouble_bound"] == 2 * bedges / result.log.meta["tau"]


class TestLiveAudit:
    def test_matches_the_stats_block(self):
        cfg = GameConfig.scaled(60, seed=11, audit_samples=500)
        result = run_game(cfg)
        # Recompute with the same audit stream the runner used.
        board_like = result.stats
        assert board_like["connectivity_pass_rate"] == 1.0
        assert board_like["expansion_pass_rate"] == 1.0
        assert board_like["expansion_exact_complete"]
