"""Move log: one JSON object per line, deterministic bytes.

Layout: a header line carrying the game parameters, one line per
half-move, and a final end line with the outcome and (for wins) the
cycle certificate plus a state fingerprint.  Key order is fixed at
construction so identical games serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .board import BREAKER, MAKER, Board, BoardError, GameConfig


@dataclass
class MoveRecord:
    turn: int
    player: str                       # "B" or "M"
    edges: list[tuple[int, int]]
    case: str | None = None           # Maker records only
    promoted: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        body: dict = {"turn": self.turn, "player": self.player,
                      "edges": [[u, v] for u, v in self.edges]}
        if self.case is not None:
            body["case"] = self.case
        if self.promoted:
            body["promoted"] = self.promoted
        return json.dumps(body, separators=(",", ":"))

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "MoveRecord":
        """Build a record from its parsed line, for an n-vertex board.  A
        shape the engine never writes is a ValueError saying what."""
        if not obj.keys() <= RECORD_KEYS:
            raise ValueError(
                f"unknown record key(s) {sorted(obj.keys() - RECORD_KEYS)}")
        if not obj.keys() >= {"turn", "player", "edges"}:
            raise ValueError("record lacks turn, player or edges")
        turn, player, raw = obj["turn"], obj["player"], obj["edges"]
        if type(turn) is not int:
            raise ValueError(f"turn {turn!r} is not an int")
        if player not in ("B", "M"):
            raise ValueError(f"player {player!r} is not \"B\" or \"M\"")
        if type(raw) is not list:
            raise ValueError(f"edges {raw!r} is not a list")
        try:
            edges = [(u, v) for u, v in raw]
        except (TypeError, ValueError):
            raise ValueError("edges is not a list of [u, v] pairs") from None
        for u, v in edges:
            if not (type(u) is int and type(v) is int and u != v
                    and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge [{u!r}, {v!r}] is not two distinct "
                                 f"ints in [0, {n})")
        case = obj.get("case")
        if not (case is None or type(case) is str):
            raise ValueError(f"case {case!r} is not a string")
        promoted = obj.get("promoted", [])
        if type(promoted) is not list or not all(
                type(v) is int and 0 <= v < n for v in promoted):
            raise ValueError(f"promoted {promoted!r} is not a list of ints "
                             f"in [0, {n})")
        return cls(turn, player, edges, case, promoted)


RECORD_KEYS = frozenset(("turn", "player", "edges", "case", "promoted"))


def check_end(end: dict, n: int) -> None:
    """The end record's fields that replay and audit read must have the
    types the engine writes; anything else is a ValueError saying what."""
    for key in ("outcome", "fingerprint"):
        if key in end and type(end[key]) is not str:
            raise ValueError(f"end {key} {end[key]!r} is not a string")
    stats = end.get("stats", {})
    if type(stats) is not dict:
        raise ValueError(f"end stats {stats!r} is not an object")
    growth = stats.get("growth_events", 0)
    if type(growth) is not int:
        raise ValueError(f"end stats growth_events {growth!r} is not an int")
    cert = end.get("certificate")
    if cert is not None and (type(cert) is not list or not all(
            type(v) is int and 0 <= v < n for v in cert)):
        raise ValueError(
            f"end certificate is not null or a list of ints in [0, {n})")


class LogFormatError(ValueError):
    """A log line that does not have the shape the engine writes."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# The log header's key for each GameConfig field; "breaker" follows them.
HEADER_KEYS = {f.name: "tau" if f.name == "trouble_threshold" else f.name
               for f in fields(GameConfig)}

# The JSON types a header value may have, by its field's annotation.
JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
              "AuditLevel": (str,)}


def config_meta(cfg: GameConfig, breaker: str) -> dict:
    """The log header: every GameConfig field in order, then the policy."""
    meta = {key: getattr(cfg, name) for name, key in HEADER_KEYS.items()}
    meta["audit_level"] = cfg.audit_level.value
    meta["breaker"] = breaker
    return meta


def config_from_meta(meta: dict) -> GameConfig:
    """The game's parameters from a log header.  A missing or ill-typed
    key, or a value GameConfig rejects, is a LogFormatError on line 1."""
    meta = {"audit_samples": 10_000, **meta}    # older logs lack the key
    values = {}
    for f in fields(GameConfig):
        key = HEADER_KEYS[f.name]
        if key not in meta:
            raise LogFormatError(1, f"header has no {key!r}")
        if type(meta[key]) not in JSON_TYPES[f.type]:
            raise LogFormatError(1, f"header {key!r} is {meta[key]!r}")
        values[f.name] = meta[key]
    try:
        return GameConfig(**values)
    except ValueError as err:
        raise LogFormatError(1, f"header: {err}") from None


FINGERPRINT_CHUNK_ROWS = 64


def board_fingerprint(board: Board) -> str:
    """sha256 over the repr of every fingerprint field, each followed by
    a "|".

    The ownership rows are hashed as the repr of the n*n byte matrix that
    older versions of the board stored (cell u*n+v holds owner(u, v)),
    so the fingerprints in logs saved by those versions still match on
    replay.  That repr is streamed a few rows at a time, never built
    whole.
    """
    maker_rows, breaker_rows, *rest = board.fingerprint_fields()
    n = len(maker_rows)
    width = (n + 7) // 8

    def cells(rows):
        buf = b"".join(row.to_bytes(width, "little") for row in rows)
        bits = np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little")
        return bits.reshape(len(rows), 8 * width)[:, :n]

    h = hashlib.sha256(b"b'")
    for lo in range(0, n, FINGERPRINT_CHUNK_ROWS):
        hi = lo + FINGERPRINT_CHUNK_ROWS
        chunk = (MAKER * cells(maker_rows[lo:hi])
                 + BREAKER * cells(breaker_rows[lo:hi]))
        h.update(repr(chunk.tobytes())[2:-1].encode())
    h.update(b"'|")
    for part in rest:
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


@dataclass
class GameLog:
    meta: dict
    records: list[MoveRecord] = field(default_factory=list)
    end: dict | None = None

    def dumps(self) -> str:
        lines = [json.dumps({"meta": self.meta}, separators=(",", ":"))]
        lines.extend(r.to_json() for r in self.records)
        if self.end is not None:
            lines.append(json.dumps({"end": self.end}, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def parse(cls, text: str | bytes) -> "GameLog":
        """Read a log, checking each line's shape (see MoveRecord.from_json
        for records).  Blank lines are skipped; any other departure from
        header, records, optional end line is a LogFormatError."""
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as err:
                line = text.count(b"\n", 0, err.start) + 1
                raise LogFormatError(line, "not UTF-8") from None
        meta: dict | None = None
        records: list[MoveRecord] = []
        end = None
        n = 0
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if type(obj) is not dict:
                    raise ValueError("not a JSON object")
                if end is not None:
                    raise ValueError("line after the end line")
                if obj.keys() == {"meta"}:
                    if meta is not None:
                        raise ValueError("second header line")
                    meta = obj["meta"]
                    n = meta.get("n") if type(meta) is dict else None
                    if type(n) is not int:
                        raise ValueError("header has no int 'n'")
                elif obj.keys() == {"end"}:
                    end = obj["end"]
                    if type(end) is not dict:
                        raise ValueError("end line is not an object")
                    check_end(end, n)
                elif meta is None:
                    raise ValueError("no header line before this record")
                else:
                    records.append(MoveRecord.from_json(obj, n))
            except json.JSONDecodeError as err:
                raise LogFormatError(
                    lineno, f"not JSON: {err.msg} at column {err.colno}"
                ) from None
            except ValueError as err:
                raise LogFormatError(lineno, str(err)) from None
        if meta is None:
            raise LogFormatError(1, "log has no header line")
        return cls(meta=meta, records=records, end=end)

    @classmethod
    def load(cls, path: str) -> "GameLog":
        with open(path, "rb") as fh:
            return cls.parse(fh.read())


class LogReplayError(ValueError):
    def __init__(self, turn: int, message: str) -> None:
        super().__init__(f"turn {turn}: {message}")
        self.turn = turn


def apply_log(log: GameLog) -> Board:
    """Re-apply every recorded claim to a fresh board.

    Recomputes the troublesome promotions after each Breaker record and
    insists they match what was logged; this makes the log a replayable
    witness rather than a transcript taken on faith.  An illegal claim
    (bad, duplicate or already owned edge), or a Breaker record that does
    not claim min(b, free pairs) edges, is a LogReplayError naming the
    turn.
    """
    cfg = config_from_meta(log.meta)
    board = Board(cfg)
    for rec in log.records:
        board.turn = rec.turn
        if rec.player == "B":
            k = min(cfg.b, board.unclaimed_pairs())
            try:
                board.claim_breaker_edges(rec.edges)
            except BoardError as err:
                raise LogReplayError(rec.turn, f"Breaker {err}") from None
            if len(rec.edges) != k:
                raise LogReplayError(
                    rec.turn,
                    f"Breaker claimed {len(rec.edges)} edges, expected {k}")
            fresh = board.refresh_troublesome()
            if fresh != sorted(rec.promoted):
                raise LogReplayError(
                    rec.turn,
                    f"promotions {fresh} != logged {sorted(rec.promoted)}")
        elif rec.player == "M":
            try:
                for u, v in rec.edges:
                    board.claim_edge(u, v, MAKER)
            except BoardError as err:
                raise LogReplayError(rec.turn, f"Maker {err}") from None
        else:
            raise LogReplayError(rec.turn, f"bad player {rec.player!r}")
    return board
