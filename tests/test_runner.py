"""Turn loop determinism, invariant monitor, sweep artifacts."""

import csv
import io
from random import Random

import pytest

from hamgame import runner as runner_mod
from hamgame.board import Board, GameConfig, MAKER, BREAKER
from hamgame.breakers import RandomBreaker, ScriptedBreaker
from hamgame.gamelog import apply_log, board_fingerprint
from hamgame.maker import MakerStrategy
from hamgame.paths import PathSystem
from hamgame.runner import (
    ABORTED,
    CSV_COLUMNS,
    MAKER_WIN,
    STRATEGY_FAILURE,
    TIMEOUT,
    GameResult,
    InvariantMonitor,
    SweepSpec,
    game_rng,
    hash_seed,
    rows_to_csv,
    run_game,
    run_sweep,
    sweep_row,
)


def quick_cfg(n=60, seed=11, **kw):
    return GameConfig.scaled(n, seed=seed, **kw)


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = run_game(quick_cfg())
        b = run_game(quick_cfg())
        assert a.outcome == MAKER_WIN
        assert a.log.dumps() == b.log.dumps()
        assert a.violations == []

    def test_seed_changes_the_game(self):
        a = run_game(quick_cfg(seed=1))
        b = run_game(quick_cfg(seed=2))
        assert a.log.dumps() != b.log.dumps()

    def test_rng_streams_split_by_role(self):
        cfg = quick_cfg()
        m1, m2 = game_rng(cfg, "maker"), game_rng(cfg, "maker")
        br = game_rng(cfg, "breaker")
        seq = [m1.random() for _ in range(4)]
        assert [m2.random() for _ in range(4)] == seq
        assert [br.random() for _ in range(4)] != seq

    def test_apply_log_matches_end_fingerprint(self):
        result = run_game(quick_cfg())
        board = apply_log(result.log)
        assert board_fingerprint(board) == result.log.end["fingerprint"]

    def test_scripted_rerun_is_byte_identical(self, tmp_path):
        result = run_game(quick_cfg(), breaker="maxdanger")
        path = tmp_path / "orig.jsonl"
        result.log.write(str(path))
        again = run_game(quick_cfg(), ScriptedBreaker.from_file(str(path)))
        assert again.log.dumps() == result.log.dumps()
        assert again.log.meta["breaker"] == "maxdanger"


class TestOutcomes:
    @pytest.mark.parametrize("policy", ["random", "isolator", "maxdanger",
                                        "pairkiller"])
    def test_policies_finish_clean(self, policy):
        result = run_game(quick_cfg(), breaker=policy)
        assert result.violations == []
        assert result.outcome in (MAKER_WIN, STRATEGY_FAILURE)
        assert result.log.end["outcome"] == result.outcome
        stats = result.stats
        assert sum(stats["case_counts"].values()) == result.maker_turns
        assert stats["expansion_pass_rate"] is not None
        assert stats["connectivity_pass_rate"] in (0.0, 1.0)

    def test_win_carries_certificate(self):
        result = run_game(quick_cfg())
        cert = result.log.end["certificate"]
        assert sorted(cert) == list(range(60))

    def test_turn_limit_times_out(self):
        result = run_game(quick_cfg(max_turns=60))
        assert result.outcome == TIMEOUT
        assert result.reason == "turn limit reached"
        assert result.log.end["certificate"] is None

    def test_full_audit_level_samples_pair_counts(self):
        result = run_game(quick_cfg(audit_level="full"))
        assert result.outcome == MAKER_WIN
        assert isinstance(result.stats["pair_counts"], list)

    def test_lying_strategy_aborts_the_game(self, monkeypatch):
        class LyingMaker(MakerStrategy):
            def _serve(self, v, label):
                move = super()._serve(v, label)
                move.promoted = []   # hide the absorbed head
                return move

        monkeypatch.setattr(runner_mod, "MakerStrategy", LyingMaker)
        cfg = GameConfig(n=40, b=3, trouble_threshold=4.0, quota=2,
                         hub_size=6, max_turns=320, seed=3)
        result = run_game(cfg, breaker="isolator")
        assert result.outcome == ABORTED
        assert result.violations
        assert result.reason.startswith("turn")

    def test_drifted_counter_aborts_the_game(self):
        class DriftingBreaker(RandomBreaker):
            def take_turn(self, board, rng, k, maker=None):
                if board.turn == 1:
                    board.out_deg[0] += 1
                return super().take_turn(board, rng, k, maker)

        result = run_game(quick_cfg(), DriftingBreaker())
        assert result.outcome == ABORTED
        assert "counter out_deg[0] = " in result.reason


def monitor_fixture():
    cfg = GameConfig(n=12, b=2, trouble_threshold=2.0, quota=2,
                     hub_size=6, max_turns=96)
    board = Board(cfg)
    ps = PathSystem(board.n, set(cfg.hub_vertices()))
    maker = MakerStrategy(cfg, board, ps, Random(0))
    return cfg, board, ps, maker, InvariantMonitor(cfg, board, ps, maker)


class TestMonitor:
    def test_case_service_mismatch(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        mon.after_maker(1, "P1.C1.1", (6, 7), True, [])
        assert any("service-needed" in v for v in mon.violations)

    def test_service_tracking_prunes_served(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        mon.note_trouble([4])
        assert mon.before_maker()
        board.served[4] = cfg.quota
        assert not mon.before_maker()

    def test_quota_overrun_is_flagged(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        board.served[5] = cfg.quota + 1
        board.troublesome[5] = True
        mon.after_maker(1, "P1.C2", (5, 0), True, [0])
        assert any("quota exceeded" in v for v in mon.violations)

    def test_case2_tail_must_be_troublesome(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        mon.after_maker(1, "P1.C2", (5, 0), True, [0])
        assert any("not troublesome" in v for v in mon.violations)

    def test_case2_head_must_be_absorbed(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        board.troublesome[5] = True
        mon.after_maker(1, "P1.C2", (5, 0), True, [])
        assert any("not absorbed" in v for v in mon.violations)

    def test_topup_head_must_be_a_hub(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        mon.after_maker(1, "P1.C1.1", (6, 3), False, [])
        assert any("outside hub range" in v for v in mon.violations)

    def test_interior_degree_cap(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        for e in [(0, 1), (1, 2)]:
            board.claim_edge(*e, MAKER)
            ps.join(*e)
        board.claim_edge(1, 3, MAKER)   # interior vertex 1 gains degree 3
        mon.after_maker(2, "P1.C1.2a", (1, 3), False, [])
        assert any("interior 1" in v for v in mon.violations)

    def test_promoted_must_be_settled(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        board.troublesome[5] = True
        mon.after_maker(1, "P1.C2", (5, 4), True, [4])  # 4 never absorbed
        assert any("not settled" in v for v in mon.violations)

    def test_growth_bound(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        maker.growth_events = 99
        mon.check_growth(5)
        assert any("growth events" in v for v in mon.violations)

    def test_phase_flip_checks_degree_cap_and_runs_once(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        board.out_deg[3] = 2 * cfg.quota + 1
        mon.on_phase_flip(4)
        assert any("out-degree" in v for v in mon.violations)
        mon.on_phase_flip(5)
        assert any("second phase flip" in v for v in mon.violations)

    def test_clean_move_records_nothing(self):
        cfg, board, ps, maker, mon = monitor_fixture()
        board.claim_edge(6, 7, MAKER)
        mon.after_maker(1, "P1.C1.1", (6, 7), False, [])
        assert mon.violations == []


class TestSweep:
    def spec(self, **kw):
        kw.setdefault("n_values", [40, 60])
        kw.setdefault("seeds", 2)
        kw.setdefault("master_seed", 4)
        return SweepSpec(params={"audit_samples": 200}, **kw)

    def test_rows_cover_the_grid_in_order(self):
        spec = self.spec()
        rows, results = run_sweep(spec)
        assert len(rows) == 4 == len(results)
        assert [(r["n"], r["seed"]) for r in rows] == \
            [(40, 0), (40, 1), (60, 0), (60, 1)]
        for row, result in zip(rows, results):
            assert row["overhead"] == result.maker_turns - row["n"]
            assert row["outcome"] == result.outcome
            float(row["overhead_norm"])  # formatted, parseable
            assert row["audit_violations"] == 0

    def test_csv_header_is_frozen(self):
        rows, _ = run_sweep(self.spec(n_values=[40], seeds=1))
        text = rows_to_csv(rows)
        header, first, trailer = text.split("\r\n", 2)
        assert header == ",".join(CSV_COLUMNS)
        parsed = next(csv.DictReader(io.StringIO(text)))
        assert parsed["n"] == "40"

    def test_artifacts_written_and_stable(self, tmp_path):
        spec = self.spec(n_values=[40], seeds=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rows, _ = run_sweep(spec, out_dir=str(out_a), keep_logs=True)
        run_sweep(spec, out_dir=str(out_b))
        csv_a = (out_a / "sweep.csv").read_bytes()
        assert csv_a == (out_b / "sweep.csv").read_bytes()
        assert csv_a == rows_to_csv(rows).encode()
        assert (out_a / "manifest.json").exists()
        assert (out_a / "game_n40_s0.jsonl").exists()
        assert (out_a / "game_n40_s1.jsonl").exists()
        assert not (out_b / "game_n40_s0.jsonl").exists()

    def test_worker_count_does_not_change_rows(self):
        spec = self.spec(n_values=[40], seeds=2)
        rows_seq, _ = run_sweep(spec, workers=1)
        rows_par, _ = run_sweep(spec, workers=2)
        assert rows_seq == rows_par

    def test_hash_seed_is_stable_and_spread(self):
        assert hash_seed(4, 40, 0, 0) == hash_seed(4, 40, 0, 0)
        seeds = {hash_seed(4, n, 0, i) for n in (40, 60) for i in range(50)}
        assert len(seeds) == 100
