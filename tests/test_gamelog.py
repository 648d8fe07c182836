"""Log serialization, config meta round trip, replay verification."""

import random

import pytest

from hamgame.board import BREAKER, MAKER, AuditLevel, Board, GameConfig
from hamgame.gamelog import (
    FINGERPRINT_CHUNK_ROWS,
    GameLog,
    LogReplayError,
    MoveRecord,
    apply_log,
    board_fingerprint,
    config_from_meta,
    config_meta,
)
from oracles import board_fingerprint_reference


def small_cfg(**kw):
    kw.setdefault("n", 10)
    kw.setdefault("b", 3)
    kw.setdefault("trouble_threshold", 2.0)
    kw.setdefault("quota", 2)
    kw.setdefault("hub_size", 3)
    kw.setdefault("max_turns", 80)
    return GameConfig(**kw)


def sample_log():
    log = GameLog(meta=config_meta(small_cfg(), "random"))
    log.records = [
        MoveRecord(1, "B", [(0, 1), (0, 2)]),
        MoveRecord(1, "M", [(5, 6)], case="P1.C1.1"),
        MoveRecord(2, "B", [(0, 3)], promoted=[0]),   # degree 3 > 2.0
        MoveRecord(2, "M", [(0, 4)], case="P1.C2", promoted=[4]),
    ]
    log.end = {"outcome": "Timeout", "reason": "turn limit reached"}
    return log


class TestMoveRecord:
    def test_json_round_trip(self):
        rec = MoveRecord(3, "M", [(1, 2)], case="P2.C2", promoted=[2])
        import json
        back = MoveRecord.from_json(json.loads(rec.to_json()))
        assert back == rec

    def test_optional_fields_are_omitted(self):
        assert '"case"' not in MoveRecord(1, "B", [(0, 1)]).to_json()
        assert '"promoted"' not in MoveRecord(1, "B", [(0, 1)]).to_json()

    def test_identical_records_identical_bytes(self):
        a = MoveRecord(2, "M", [(4, 7)], case="P1.C1.1")
        b = MoveRecord(2, "M", [(4, 7)], case="P1.C1.1")
        assert a.to_json() == b.to_json()


class TestGameLog:
    def test_dumps_parse_round_trip_is_byte_exact(self):
        log = sample_log()
        text = log.dumps()
        assert text.endswith("\n")
        again = GameLog.parse(text)
        assert again.dumps() == text
        assert again.meta == log.meta
        assert again.records == log.records
        assert again.end == log.end

    def test_write_and_load(self, tmp_path):
        log = sample_log()
        path = tmp_path / "g.log"
        log.write(str(path))
        assert GameLog.load(str(path)).dumps() == log.dumps()

    def test_parse_requires_header(self):
        with pytest.raises(ValueError, match="no header"):
            GameLog.parse('{"turn":1,"player":"B","edges":[]}\n')

    def test_parse_skips_blank_lines(self):
        log = sample_log()
        padded = log.dumps().replace("\n", "\n\n")
        assert GameLog.parse(padded).dumps() == log.dumps()


class TestConfigMeta:
    def test_round_trip_recovers_every_field(self):
        cfg = small_cfg(seed=99, audit_level=AuditLevel.FULL,
                        limited_only=False, closure_budget=128,
                        audit_samples=777)
        back = config_from_meta(config_meta(cfg, "isolator"))
        assert back == cfg

    def test_meta_names_the_breaker(self):
        assert config_meta(small_cfg(), "pairkiller")["breaker"] == "pairkiller"

    def test_missing_audit_samples_defaults(self):
        meta = config_meta(small_cfg(), "random")
        del meta["audit_samples"]
        assert config_from_meta(meta).audit_samples == 10_000


class TestApplyLog:
    def test_replay_rebuilds_the_position(self):
        board = apply_log(sample_log())
        assert board.owner(0, 1) == BREAKER
        assert board.owner(5, 6) == MAKER
        assert board.owner(0, 4) == MAKER
        assert board.troublesome[0]
        assert board.trouble_onset[0] == 2
        assert board.turn == 2
        assert board.breaker_edges == 3 and board.maker_edges == 2

    def test_replay_is_reproducible(self):
        log = sample_log()
        assert board_fingerprint(apply_log(log)) == \
            board_fingerprint(apply_log(log))

    def test_missing_promotion_is_rejected(self):
        log = sample_log()
        log.records[2] = MoveRecord(2, "B", [(0, 3)])  # drops promoted=[0]
        with pytest.raises(LogReplayError, match="turn 2"):
            apply_log(log)

    def test_phantom_promotion_is_rejected(self):
        log = sample_log()
        log.records[0] = MoveRecord(1, "B", [(0, 1), (0, 2)], promoted=[5])
        with pytest.raises(LogReplayError, match=r"\[\] != logged \[5\]"):
            apply_log(log)

    @pytest.mark.parametrize("index, record, reason", [
        (2, MoveRecord(2, "B", [(0, 3), (1, 0)], promoted=[0]),
         r"turn 2: Breaker edge \(1, 0\) already claimed by Breaker"),
        (2, MoveRecord(2, "B", [(0, 3), (3, 0)], promoted=[0]),
         r"turn 2: Breaker edge \(3, 0\) already claimed by Breaker"),
        (2, MoveRecord(2, "B", [(6, 5)]),
         r"turn 2: Breaker edge \(6, 5\) already claimed by Maker"),
        (2, MoveRecord(2, "B", [(0, 10)]), r"turn 2: Breaker bad edge"),
        (3, MoveRecord(2, "M", [(0, 2)], case="P1.C2"),
         r"turn 2: Maker edge \(0, 2\) already claimed by Breaker"),
    ])
    def test_illegal_claim_names_the_turn(self, index, record, reason):
        log = sample_log()
        log.records[index] = record
        with pytest.raises(LogReplayError, match=reason):
            apply_log(log)

    def test_bad_player_tag_is_rejected(self):
        log = sample_log()
        log.records.append(MoveRecord(3, "X", []))
        with pytest.raises(LogReplayError, match="bad player"):
            apply_log(log)


class TestFingerprint:
    def test_sensitive_to_claim_direction(self):
        a = Board(small_cfg())
        b = Board(small_cfg())
        a.claim_edge(4, 5, MAKER)
        b.claim_edge(5, 4, MAKER)
        assert board_fingerprint(a) != board_fingerprint(b)

    def test_identical_positions_agree(self):
        a = Board(small_cfg())
        b = Board(small_cfg())
        for bd in (a, b):
            bd.claim_edge(1, 2, BREAKER)
            bd.claim_edge(4, 5, MAKER)
        assert board_fingerprint(a) == board_fingerprint(b)

    @pytest.mark.parametrize("n", [
        5, 13, 64, FINGERPRINT_CHUNK_ROWS + 1, 2 * FINGERPRINT_CHUNK_ROWS + 13,
    ])
    def test_matches_the_byte_matrix_reference(self, n):
        rng = random.Random(n)
        board = Board(small_cfg(n=n, hub_size=2, max_turns=8 * n,
                                trouble_threshold=n / 2))
        assert board_fingerprint(board) == board_fingerprint_reference(board)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs[:len(pairs) // 10]:
            board.claim_edge(*rng.sample((u, v), 2), MAKER)
        board.claim_breaker_edges(pairs[len(pairs) // 10:len(pairs) // 2])
        board.turn = 7
        board.refresh_troublesome()
        assert board_fingerprint(board) == board_fingerprint_reference(board)
