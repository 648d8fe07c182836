"""Log serialization, config meta round trip, replay verification."""

import gc
import json
import random
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import pytest

from hamgame import cli, gamelog
from hamgame.board import BREAKER, MAKER, AuditLevel, Board, GameConfig
from hamgame.gamelog import (
    FINGERPRINT_CHUNK_ROWS,
    LOG_CHUNK_RECORDS,
    PARSE_BATCH_LINES,
    EdgeList,
    GameLog,
    LogFormatError,
    LogReplayError,
    MoveRecord,
    apply_log,
    board_fingerprint,
    config_from_meta,
    config_meta,
)
from hamgame.runner import run_game
from oracles import (
    board_fingerprint_reference,
    log_dumps_reference,
    record_json_reference,
)


def small_cfg(**kw):
    kw.setdefault("n", 10)
    kw.setdefault("b", 3)
    kw.setdefault("trouble_threshold", 2.0)
    kw.setdefault("quota", 2)
    kw.setdefault("hub_size", 3)
    kw.setdefault("max_turns", 80)
    return GameConfig(**kw)


def sample_log():
    log = GameLog(meta=config_meta(small_cfg(b=2), "random"))
    log.records = [
        MoveRecord(1, "B", [(0, 1), (0, 2)]),
        MoveRecord(1, "M", [(5, 6)], case="P1.C1.1"),
        MoveRecord(2, "B", [(0, 3), (7, 8)], promoted=[0]),  # degree 3 > 2.0
        MoveRecord(2, "M", [(0, 4)], case="P1.C2", promoted=[4]),
    ]
    log.end = {"outcome": "Timeout", "reason": "turn limit reached"}
    return log


class TestMoveRecord:
    def test_json_round_trip(self):
        rec = MoveRecord(3, "M", [(1, 2)], case="P2.C2", promoted=[2])
        back = MoveRecord.from_json(json.loads(rec.to_json()), n=10)
        assert back == rec

    def test_optional_fields_are_omitted(self):
        assert '"case"' not in MoveRecord(1, "B", [(0, 1)]).to_json()
        assert '"promoted"' not in MoveRecord(1, "B", [(0, 1)]).to_json()

    def test_identical_records_identical_bytes(self):
        a = MoveRecord(2, "M", [(4, 7)], case="P1.C1.1")
        b = MoveRecord(2, "M", [(4, 7)], case="P1.C1.1")
        assert a.to_json() == b.to_json()


class TestEdgeList:
    def test_len_counts_edges_and_items_are_pairs(self):
        edges = EdgeList([(0, 1), (7, 3), (70000, 2)])
        assert len(edges) == 3
        assert list(edges) == [(0, 1), (7, 3), (70000, 2)]
        assert edges[1] == (7, 3) and edges[-1] == (70000, 2)
        assert edges[0][0] == 0
        with pytest.raises(IndexError):
            edges[3]

    def test_equals_any_sequence_of_the_same_pairs(self):
        edges = EdgeList([(0, 1), (2, 3)])
        assert edges == [(0, 1), (2, 3)] and [(0, 1), (2, 3)] == edges
        assert edges == [[0, 1], [2, 3]]
        assert edges == EdgeList([[0, 1], [2, 3]])
        assert edges != [(0, 1)] and edges != [(1, 0), (2, 3)]
        assert edges != "ab" and edges != 5
        assert EdgeList() == [] and EdgeList([]) == EdgeList()

    @pytest.mark.parametrize("edges", [
        [(0, 1, 2)], [(0,)], [(-1, 2)], [(0, 2 ** 32)], [(0, "a")]])
    def test_anything_but_pairs_of_32_bit_ids_is_rejected(self, edges):
        with pytest.raises(ValueError):
            EdgeList(edges)

    def test_records_convert_their_edges_once(self):
        rec = MoveRecord(1, "B", [(0, 1)], promoted=[4])
        assert type(rec.edges) is EdgeList and rec.promoted == (4,)
        assert MoveRecord(2, "B", rec.edges).edges is rec.edges
        assert MoveRecord(1, "B", [(0, 1)], promoted=(4,)) == rec


def random_record(rng, top):
    """A record with 0-40 edges on vertex ids below `top`, and a case
    label that JSON must escape about half the time."""
    k = rng.choice([0, 1, rng.randrange(2, 41)])
    edges = [tuple(rng.sample(range(top), 2)) for _ in range(k)]
    case = rng.choice([None, "P1.C1.1", "P2.C2", "", 'say "hi"', "back\\slash",
                       "tab\tnew\nline", "caf\u00e9", "\u2603 \U0001f600",
                       "nul\x00 del\x7f", "\u2028"])
    promoted = rng.sample(range(top), rng.choice([0, 0, 1, 3]))
    return MoveRecord(rng.randrange(1, 10 ** 6), rng.choice("BM"), edges,
                      case, promoted)


class TestSerialisation:
    """dumps and to_json write what the json.dumps formula in
    oracles.py writes, byte for byte."""

    @pytest.mark.parametrize("top", [3, 10, 1000, 4000, 70_000, 1 << 20])
    def test_random_records_match_the_reference(self, top):
        rng = random.Random(top)
        log = GameLog(meta=config_meta(small_cfg(), "random"))
        log.records = [random_record(rng, top) for _ in range(200)]
        log.end = {"outcome": "Timeout", "case": "\u00e9"}
        assert log.dumps() == log_dumps_reference(log)
        for rec in log.records[:50]:
            assert rec.to_json() == record_json_reference(rec)

    def test_empty_logs_match_the_reference(self):
        log = GameLog(meta=config_meta(small_cfg(), "random"))
        assert log.dumps() == log_dumps_reference(log)
        log.records = [MoveRecord(1, "B", []), MoveRecord(1, "M", [])]
        assert log.dumps() == log_dumps_reference(log)

    @pytest.mark.parametrize("policy", ["random", "isolator"])
    def test_engine_logs_match_the_reference(self, policy):
        log = run_game(GameConfig.scaled(300, seed=1), policy).log
        assert log.dumps() == log_dumps_reference(log)


def bytes_per_edge(log):
    """Traced bytes that dropping the log's records frees, per edge."""
    edges = sum(len(rec.edges) for rec in log.records)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    log.records = []
    gc.collect()
    return (held - tracemalloc.get_traced_memory()[0]) / edges


class TestMemory:
    def test_logs_hold_few_bytes_per_edge(self):
        """A record keeps its edges as 32-bit ids, 8 B per edge, and costs
        a few hundred bytes more; at n = 1000 (b = 36, two records per 37
        edges) that stays under 20 B per edge, where tuples of ints took
        ~122."""
        tracemalloc.start()
        try:
            log = run_game(GameConfig.scaled(1000, seed=0)).log
            text = log.dumps()
            engine = bytes_per_edge(log)
            parsed = bytes_per_edge(GameLog.parse(text))
        finally:
            tracemalloc.stop()
        assert engine <= 20 and parsed <= 20, (engine, parsed)


    def test_write_and_parse_hold_little_beyond_the_log(self, tmp_path):
        """write holds one chunk of records' text at a time, and parse
        holds one line beside the records it builds."""
        log = run_game(GameConfig.scaled(1000, seed=0)).log
        text = log.dumps()      # also builds the table of ids' text first
        tracemalloc.start()
        try:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            log.write(str(tmp_path / "game.jsonl"))
            write_peak = tracemalloc.get_traced_memory()[1] - base
            parse_peaks = []
            for data in (text, text.encode()):
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                parsed = GameLog.parse(data)
                held, peak = tracemalloc.get_traced_memory()
                parse_peaks.append((peak - base, held - base))
                del parsed
        finally:
            tracemalloc.stop()
        assert write_peak < len(text) / 4, (write_peak, len(text))
        for peak, held in parse_peaks:
            assert peak < held + 32 * 1024, (peak, held)


def chunked_log(count, end):
    """A log of `count` random records whose vertex ids reach different
    heights in different chunks, with or without an end line."""
    rng = random.Random(count)
    log = GameLog(meta={**config_meta(small_cfg(), "random"), "n": 1 << 17})
    log.records = [random_record(rng, rng.choice([3, 1000, 70_000]))
                   for _ in range(count)]
    if end:
        log.end = {"outcome": "Timeout", "case": "\u00e9"}
    return log


class TestChunks:
    """A log's text is the same however its records fall into chunks."""

    @pytest.mark.parametrize("end", [False, True])
    @pytest.mark.parametrize("count", [
        0, 1, LOG_CHUNK_RECORDS - 1, LOG_CHUNK_RECORDS, LOG_CHUNK_RECORDS + 1,
        2 * LOG_CHUNK_RECORDS + 1])
    def test_writers_agree_at_chunk_boundaries(self, tmp_path, monkeypatch,
                                               capsys, count, end):
        log = chunked_log(count, end)
        text = log.dumps()
        assert text == log_dumps_reference(log)
        assert len(list(log.chunks())) == \
            1 + -(-count // LOG_CHUNK_RECORDS) + end
        path = tmp_path / "write.jsonl"
        log.write(str(path))
        assert path.read_bytes() == text.encode()

        game = SimpleNamespace(log=log, outcome="Timeout", maker_turns=0,
                               reason=None, stats={})
        monkeypatch.setattr(cli, "run_game", lambda cfg, policy: game)
        out = tmp_path / "run.jsonl"
        assert cli.main(["run", "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()

        back = GameLog.parse(text)
        assert (back.meta, back.records, back.end) == \
            (log.meta, log.records, log.end)
        assert back.dumps() == text


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


def edit_line(index, change):
    """A log edit: `change` maps the JSON object on line `index` (0-based
    over the sample log's lines) to its replacement text."""
    def edit(lines):
        lines[index] = change(json.loads(lines[index]))
        return lines
    return edit


def set_key(key, value):
    def change(obj):
        obj[key] = value
        return json.dumps(obj)
    return change


def drop_key(key):
    def change(obj):
        del obj[key]
        return json.dumps(obj)
    return change


class TestStrictParse:
    """Sample log lines: 1 header, 2-5 records (2 is Breaker, turn 1), 6 end."""

    @pytest.mark.parametrize("edit, reason", [
        (lambda ls: ls[:1] + ["[1, 2]"] + ls[1:],
         r"line 2: not a JSON object"),
        (lambda ls: ls[:1] + [ls[1][:20]] + ls[2:],
         r"line 2: not JSON: "),
        (lambda ls: ls[1:2] + ls[:1] + ls[2:],
         r"line 1: no header line before this record"),
        (lambda ls: ls[:3] + ls[:1] + ls[3:], r"line 4: second header line"),
        (lambda ls: ls + ls[-1:], r"line 7: line after the end line"),
        (lambda ls: ls + ls[1:2], r"line 7: line after the end line"),
        (edit_line(1, set_key("note", "x")),
         r"line 2: unknown record key\(s\) \['note'\]"),
        (edit_line(1, drop_key("edges")),
         r"line 2: record lacks turn, player or edges"),
        (edit_line(2, drop_key("turn")),
         r"line 3: record lacks turn, player or edges"),
        (edit_line(1, set_key("turn", "1")), r"line 2: turn '1' is not an int"),
        (edit_line(1, set_key("turn", 1.0)), r"line 2: turn 1.0 is not an int"),
        (edit_line(1, set_key("turn", True)), r"line 2: turn True is not"),
        (edit_line(2, set_key("player", "X")),
         r"line 3: player 'X' is not \"B\" or \"M\""),
        (edit_line(1, set_key("edges", [[0, 1, 2]])),
         r"line 2: edges is not a list of \[u, v\] pairs"),
        (edit_line(1, set_key("edges", [7])),
         r"line 2: edges is not a list of \[u, v\] pairs"),
        (edit_line(1, set_key("edges", "01")),
         r"line 2: edges '01' is not a list"),
        (edit_line(1, set_key("edges", [[0, 1], [-1, 2]])),
         r"line 2: edge \[-1, 2\] is not two distinct ints in \[0, 10\)"),
        (edit_line(1, set_key("edges", [[0, 10]])),
         r"line 2: edge \[0, 10\] is not two"),
        (edit_line(1, set_key("edges", [[3, 3]])),
         r"line 2: edge \[3, 3\] is not two"),
        (edit_line(1, set_key("edges", [[0, 1.0]])),
         r"line 2: edge \[0, 1.0\] is not two"),
        (edit_line(1, set_key("edges", [[0, True]])),
         r"line 2: edge \[0, True\] is not two"),
        (edit_line(2, set_key("case", 3)), r"line 3: case 3 is not a string"),
        (edit_line(3, set_key("promoted", [10])),
         r"line 4: promoted \[10\] is not a list of ints in \[0, 10\)"),
        (edit_line(3, set_key("promoted", [-1])), r"line 4: promoted \[-1\]"),
        (edit_line(3, set_key("promoted", 0)), r"line 4: promoted 0 is not"),
        (edit_line(0, lambda obj: json.dumps({"meta": {"b": 3}})),
         r"line 1: header has no int 'n'"),
        (edit_line(0, lambda obj: json.dumps({"meta": [10]})),
         r"line 1: header has no int 'n'"),
        (edit_line(5, lambda obj: json.dumps({"end": None})),
         r"line 6: end line is not an object"),
    ])
    def test_malformed_line_is_named(self, edit, reason):
        lines = edit(sample_log().dumps().splitlines())
        with pytest.raises(LogFormatError, match=f"^{reason}"):
            GameLog.parse("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key, value, reason", [
        ("stats", 5, "end stats 5 is not an object"),
        ("stats", [], "end stats [] is not an object"),
        ("stats", {"growth_events": "3"},
         "end stats growth_events '3' is not an int"),
        ("certificate", 5, "end certificate is not null or a list of ints "
         "in [0, 10)"),
        ("certificate", [0, 10], "end certificate is not null"),
        ("certificate", [0, -1], "end certificate is not null"),
        ("certificate", [0, 1.0], "end certificate is not null"),
        ("certificate", [True], "end certificate is not null"),
        ("outcome", 1, "end outcome 1 is not a string"),
        ("outcome", None, "end outcome None is not a string"),
        ("fingerprint", ["ab"], "end fingerprint ['ab'] is not a string"),
    ])
    def test_malformed_end_record_is_named(self, key, value, reason):
        lines = sample_log().dumps().splitlines()
        end = json.loads(lines[5])["end"]
        lines[5] = json.dumps({"end": {**end, key: value}})
        with pytest.raises(LogFormatError,
                           match="^line 6: " + re.escape(reason)):
            GameLog.parse("\n".join(lines) + "\n")

    def test_engine_end_record_fields_parse(self):
        log = sample_log()
        log.end = {"outcome": "MakerWin", "certificate": list(range(10)),
                   "fingerprint": "ab", "stats": {"growth_events": 3}}
        assert GameLog.parse(log.dumps()).end == log.end

    def test_line_numbers_count_blank_lines(self):
        lines = sample_log().dumps().splitlines()
        lines.insert(1, "")
        lines[3] = lines[3].replace('"M"', '"X"')
        with pytest.raises(LogFormatError, match="^line 4: player 'X'"):
            GameLog.parse("\n".join(lines))

    def test_bytes_are_decoded_as_utf8(self):
        data = sample_log().dumps().encode()
        assert GameLog.parse(data).dumps() == sample_log().dumps()
        lines = data.split(b"\n")
        lines[2] = lines[2].replace(b"P1", b"P\xff")
        with pytest.raises(LogFormatError, match="^line 3: not UTF-8"):
            GameLog.parse(b"\n".join(lines))

    def test_a_line_that_is_not_utf8_wins_over_an_earlier_error(self):
        lines = sample_log().dumps().encode().split(b"\n")
        lines[1] = lines[1][:20]                    # not JSON
        lines[4] = lines[4].replace(b"P1", b"P\xff")
        with pytest.raises(LogFormatError, match="^line 5: not UTF-8$"):
            GameLog.parse(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="^line 2: not JSON"):
            GameLog.parse(b"\n".join(lines[:4]))

    def test_crlf_line_ends_parse(self):
        text = sample_log().dumps()
        assert GameLog.parse(text.replace("\n", "\r\n")).dumps() == text


ENGINE_CASES = ["P1.C1.1", "P1.C1.2a", "P1.C1.2b+", "P1.C2", "P2.C1.1",
                "P2.C1.2a", "P2.C1.2b(i)", "P2.C1.2b(ii)", "P2.C2"]


def engine_shaped_log(count=3 * PARSE_BATCH_LINES + 5):
    """A log at n = 200 whose record lines are all shaped as the engine
    writes them: engine case labels or none, promotions or none."""
    rng = random.Random(count)
    log = GameLog(meta={**config_meta(small_cfg(), "random"), "n": 200})
    for turn in range(1, count + 1):
        edges = [tuple(rng.sample(range(200), 2))
                 for _ in range(rng.choice([0, 1, 1, 5]))]
        log.records.append(MoveRecord(
            turn, rng.choice("BM"), edges,
            rng.choice([None, *ENGINE_CASES]),
            rng.sample(range(200), rng.choice([0, 0, 1, 3]))))
    log.end = {"outcome": "Timeout", "reason": "turn limit reached"}
    return log


def parse_outcome(text):
    """What GameLog.parse makes of `text`: its parts or its error."""
    try:
        log = GameLog.parse(text)
    except LogFormatError as err:
        return str(err)
    return log.meta, log.records, log.end


def assert_read_as_by_json(text, monkeypatch):
    """GameLog.parse makes of `text` what it makes of it when no line
    takes the fast path."""
    fast = parse_outcome(text)
    monkeypatch.setattr(gamelog, "RECORD_LINE", re.compile("(?!)"))
    assert parse_outcome(text) == fast


# Edits of one record line: (what, pattern, replacement) for re.sub.
LINE_EDITS = [
    ("edge id with a leading zero", r'"edges":\[\[', '"edges":[[0'),
    ("second edge id with a leading zero", r'"edges":\[\[(\d+),',
     r'"edges":[[\1,0'),
    ("turn with a leading zero", r'"turn":', '"turn":0'),
    ("promoted id with a leading zero", r'"promoted":\[', '"promoted":[0'),
    ("space after a colon", r'"turn":', '"turn": '),
    ("space inside an edge", r'\[\[(\d+),', r'[[\1, '),
    ("keys reordered", r'^\{("turn":\d+),("player":"[BM]")', r'{\2,\1'),
    ("duplicate key", r'\}$', ',"turn":7}'),
    ("case null", r'"case":"[^"]*"', '"case":null'),
    ("escaped case", r'"case":"P', r'"case":"\\u0050'),
    ("case with an escaped quote", r'"case":"', r'"case":"\\"'),
    ("case with a space", r'"case":"P', '"case":" P'),
    ("promoted empty", r'"promoted":\[[0-9,]*\]', '"promoted":[]'),
    ("negative id", r'"edges":\[\[\d+', '"edges":[[-1'),
    ("float id", r'"edges":\[\[(\d+)', r'"edges":[[\1.0'),
    ("u equals v", r'"edges":\[\[(\d+),\d+\]', r'"edges":[[\1,\1]'),
    ("id equal to n", r'"edges":\[\[\d+', '"edges":[[200'),
    ("later id equal to n", r'\],\[\d+', '],[200'),
    ("id of 10 digits", r'"edges":\[\[\d+', '"edges":[[1000000000'),
    ("id of 11 digits", r'"edges":\[\[\d+', '"edges":[[10000000000'),
    ("id 2**63", r'"edges":\[\[\d+', f'"edges":[[{2 ** 63}'),
    ("id 2**64 + 5", r'"edges":\[\[\d+', f'"edges":[[{2 ** 64 + 5}'),
    ("promoted id equal to n", r'"promoted":\[\d+', '"promoted":[200'),
    ("player escaped", r'"player":"B"', r'"player":"\\u0042"'),
    ("turn of 5000 digits", r'"turn":\d+', '"turn":' + "1" * 5000),
    ("turn of 19 digits", r'"turn":\d+', '"turn":' + "1" * 19),
    ("id of 5000 digits", r'"edges":\[\[\d+', '"edges":[[' + "1" * 5000),
    ("promoted id of 5000 digits", r'"promoted":\[\d+',
     '"promoted":[' + "1" * 5000),
]


class TestFastParse:
    """Record lines the engine writes are read without the JSON decoder,
    a batch at a time.  Any edit of a line must come out as the JSON path
    reads it: the same records, or the same error on the same line."""

    def test_engine_record_lines_skip_the_decoder(self, monkeypatch):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda text: calls.append(text) or loads(text))
        for log in (engine_shaped_log(),
                    run_game(GameConfig.scaled(100, seed=0), "isolator").log):
            calls.clear()
            text = log.dumps()
            assert parse_outcome(text) == (log.meta, log.records, log.end)
            assert len(calls) == 2      # the header and the end line

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("position", [
        1, PARSE_BATCH_LINES // 2, PARSE_BATCH_LINES, PARSE_BATCH_LINES + 1,
        3 * PARSE_BATCH_LINES + 1])
    @pytest.mark.parametrize("what, pattern, replacement", LINE_EDITS)
    def test_edited_line_reads_as_the_json_path_reads_it(
            self, monkeypatch, what, pattern, replacement, position, binary):
        lines = engine_shaped_log().dumps().splitlines()
        # The first record line from `position` on that the edit changes.
        for index in range(position, len(lines) - 1):
            edited = re.sub(pattern, replacement, lines[index], count=1)
            if edited != lines[index]:
                lines[index] = edited
                break
        else:
            pytest.fail(f"no line from {position} on to edit")
        text = "\n".join(lines) + "\n"
        assert_read_as_by_json(text.encode() if binary else text,
                               monkeypatch)

    @pytest.mark.parametrize("vertex", [
        2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 9_300_000_000_000_000_000])
    def test_ids_past_32_bits_read_as_the_json_path_reads_them(
            self, monkeypatch, vertex):
        """With a header n past 2**32, an id below n may still not fit
        an EdgeList; nor may one that int64 saturates."""
        log = GameLog(meta={**config_meta(small_cfg(), "random"),
                            "n": 2 ** 70})
        log.records = [MoveRecord(1, "B", [(0, 1)])] * 3
        lines = log.dumps().splitlines()
        lines[2] = lines[2].replace("[[0,", f"[[{vertex},")
        assert_read_as_by_json("\n".join(lines), monkeypatch)

    def test_record_line_needs_no_python_3_11_syntax(self):
        """Possessive quantifiers and atomic groups are new in Python
        3.11's re.  On 3.10, which the package supports, compiling them
        fails, and with it every import of hamgame.gamelog."""
        assert not re.search(r"[*+?}]\+|\(\?>", gamelog.RECORD_LINE.pattern)

    def test_saved_log_parses_without_warnings(self, tmp_path):
        """A numpy text-parsing deprecation would show here before it
        could turn the fast path into an error."""
        path = tmp_path / "game.jsonl"
        log = run_game(GameConfig.scaled(200, seed=0)).log
        log.write(str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = GameLog.load(str(path))
        assert parsed.records == log.records


class TestConfigMeta:
    def test_round_trip_recovers_every_field(self):
        cfg = small_cfg(seed=99, audit_level=AuditLevel.FULL,
                        limited_only=False, closure_budget=128,
                        audit_samples=777)
        back = config_from_meta(config_meta(cfg, "isolator"))
        assert back == cfg

    def test_meta_names_the_breaker(self):
        assert config_meta(small_cfg(), "pairkiller")["breaker"] == "pairkiller"

    @pytest.mark.parametrize("key, value, reason", [
        ("b", None, r"header has no 'b'"),
        ("quota", "4", r"header 'quota' is '4'"),
        ("limited_only", 1, r"header 'limited_only' is 1"),
        ("seed", 1.5, r"header 'seed' is 1.5"),
        ("audit_level", "loud", r"header: 'loud' is not a valid AuditLevel"),
        ("n", 2, r"header: n must be >= 3"),
    ])
    def test_bad_header_key_is_a_line_1_error(self, key, value, reason):
        meta = config_meta(small_cfg(), "random")
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        with pytest.raises(LogFormatError, match=f"^line 1: {reason}"):
            config_from_meta(meta)

    def test_integer_tau_is_accepted(self):
        meta = config_meta(small_cfg(), "random")
        meta["tau"] = 2
        assert config_from_meta(meta).trouble_threshold == 2

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
        assert board.breaker_edges == 4 and board.maker_edges == 2

    def test_replay_is_reproducible(self):
        log = sample_log()
        assert board_fingerprint(apply_log(log)) == \
            board_fingerprint(apply_log(log))

    def test_missing_promotion_is_rejected(self):
        log = sample_log()
        log.records[2] = MoveRecord(2, "B", [(0, 3), (7, 8)])  # no promoted
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

    @pytest.mark.parametrize("edges", [[(0, 3)], [(0, 3), (7, 8), (4, 9)]])
    def test_breaker_record_must_claim_b_edges(self, edges):
        log = sample_log()
        log.records[2] = MoveRecord(2, "B", edges, promoted=[0])
        with pytest.raises(LogReplayError, match=(
                f"^turn 2: Breaker claimed {len(edges)} edges, expected 2$")):
            apply_log(log)

    def test_last_breaker_turn_claims_every_free_pair(self):
        # n = 5 has 10 pairs: after two rounds of 3 + 1 only 2 are free.
        cfg = small_cfg(n=5, b=3, trouble_threshold=4.0, hub_size=2,
                        max_turns=40)
        log = GameLog(meta=config_meta(cfg, "random"))
        log.records = [
            MoveRecord(1, "B", [(0, 1), (0, 2), (0, 3)]),
            MoveRecord(1, "M", [(1, 2)]),
            MoveRecord(2, "B", [(0, 4), (1, 3), (1, 4)]),
            MoveRecord(2, "M", [(2, 3)]),
            MoveRecord(3, "B", [(2, 4), (3, 4)]),
        ]
        assert apply_log(log).unclaimed_pairs() == 0
        log.records[4] = MoveRecord(3, "B", [(2, 4)])
        with pytest.raises(LogReplayError, match=(
                "^turn 3: Breaker claimed 1 edges, expected 2$")):
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
