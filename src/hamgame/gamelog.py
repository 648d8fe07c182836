"""Move log: one JSON object per line, deterministic bytes.

Layout: a header line carrying the game parameters, one line per
half-move, and a final end line with the outcome and (for wins) the
cycle certificate plus a state fingerprint.  Key order is fixed at
construction so identical games serialize to identical bytes.  A log is
written, compared and read LOG_CHUNK_RECORDS records at a time, so its
whole text is never built unless a caller asks for it (GameLog.dumps).

Reading takes a fast path for the record lines the engine writes: a line
that RECORD_LINE matches is read without the JSON decoder, its vertex
ids with those of up to PARSE_BATCH_LINES such lines in one numpy pass.
Every other line, and every line of a batch that fails a check, is read
with json.loads and MoveRecord.from_json, which own the error messages.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import struct
import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import eq

import numpy as np

from .board import BREAKER, MAKER, Board, BoardError, GameConfig

SEPARATORS = (",", ":")


class EdgeList(Sequence):
    """A record's edges, held as one run of 32-bit vertex ids u0, v0, u1,
    v1, ... (8 bytes per edge, where a tuple of two ints takes ~120).

    len() counts edges; iterating or indexing gives (u, v) tuples, and an
    EdgeList equals any sequence of the same pairs.  It is never changed
    in place, so records may share one.
    """

    __slots__ = ("flat",)

    def __init__(self, edges: Sequence[tuple[int, int]] = ()) -> None:
        vertices = tuple(chain.from_iterable(edges))
        if len(vertices) != 2 * len(edges):
            raise ValueError(f"edges {edges!r} are not (u, v) pairs")
        self.flat = pack_vertices(vertices)

    @classmethod
    def from_vertices(cls, vertices: Sequence[int]) -> "EdgeList":
        """The edges (vertices[0], vertices[1]), (vertices[2], ...).  An
        array("I") of them is taken over as its bytes."""
        edges = cls.__new__(cls)
        edges.flat = vertices.tobytes() if isinstance(vertices, array) \
            else pack_vertices(vertices)
        return edges

    def __len__(self) -> int:
        return len(self.flat) // 8

    def __iter__(self):
        return struct.iter_unpack("=2I", self.flat)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return struct.unpack_from("=2I", self.flat, 8 * range(len(self))[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            try:
                other = EdgeList(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.flat == other.flat

    def __repr__(self) -> str:
        return f"EdgeList({list(self)!r})"


def pack_vertices(vertices: Sequence[int]) -> bytes:
    try:
        return struct.pack(f"={len(vertices)}I", *vertices)
    except struct.error:
        raise ValueError(f"vertex ids {vertices!r} are not ints in "
                         f"[0, 2**32)") from None


def checked_vertices(raw: list, n: int) -> list[int] | None:
    """The vertices u0, v0, u1, v1, ... of `raw` if every entry is a
    [u, v] list of two distinct ints in [0, n), else None.  Each check is
    one pass in C over the parsed lists."""
    if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}):
        return None
    vertices = list(chain.from_iterable(raw))
    pairs = iter(vertices)
    if vertices and not (set(map(type, vertices)) == {int}
                         and min(vertices) >= 0 and max(vertices) < n
                         and not any(map(eq, pairs, pairs))):
        return None
    return vertices


@dataclass(slots=True)
class MoveRecord:
    """One half-move.  The constructor takes any sequence of (u, v) pairs
    and any iterable of promoted vertices; a record keeps them as an
    EdgeList and a tuple, and its case label interned, so a long log
    costs little more than its vertex ids."""

    turn: int
    player: str                       # "B" or "M"
    edges: EdgeList
    case: str | None = None           # Maker records only
    promoted: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.edges) is not EdgeList:
            self.edges = EdgeList(self.edges)
        if self.case is not None:
            self.case = sys.intern(self.case)
        self.promoted = tuple(self.promoted)

    def to_json(self) -> str:
        return record_lines([self])[0]

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
        vertices = checked_vertices(raw, n)
        if vertices is None:
            # Name the first bad edge, as the per-edge checks always have.
            try:
                edges = [(u, v) for u, v in raw]
            except (TypeError, ValueError):
                raise ValueError("edges is not a list of [u, v] pairs") \
                    from None
            for u, v in edges:
                if not (type(u) is int and type(v) is int and u != v
                        and 0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge [{u!r}, {v!r}] is not two "
                                     f"distinct ints in [0, {n})")
            vertices = list(chain.from_iterable(edges))
        case = obj.get("case")
        if not (case is None or type(case) is str):
            raise ValueError(f"case {case!r} is not a string")
        promoted = obj.get("promoted", [])
        if type(promoted) is not list or not all(
                type(v) is int and 0 <= v < n for v in promoted):
            raise ValueError(f"promoted {promoted!r} is not a list of ints "
                             f"in [0, {n})")
        return cls(turn, player, EdgeList.from_vertices(vertices), case,
                   promoted)


@functools.lru_cache(maxsize=4)
def edge_text_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """For each vertex id x below `size`, the text that opens an edge at
    x, "[x,", in row 2x and the text that closes one, "x],", in row
    2x + 1, each padded with zero bytes to whole 8-byte words: a
    (2 * size, words) uint64 array.  Also len("[x,") for each x."""
    ids = [b"%d" % x for x in range(size)]
    width = -(-(len(ids[-1]) + 2) // 8) * 8
    text = np.array([(b"[" + x + b",", x + b"],") for x in ids],
                    dtype=f"S{width}")
    lengths = np.array([len(x) + 2 for x in ids], np.uint8)
    text.flags.writeable = lengths.flags.writeable = False   # shared
    return text.view(np.uint64).reshape(2 * size, width // 8), lengths


def record_vertices(records: Sequence[MoveRecord]) -> np.ndarray:
    """The records' edges' vertex ids u0, v0, u1, ..., one after another."""
    return np.frombuffer(b"".join(rec.edges.flat for rec in records),
                         np.uint32)


def edge_texts(records: Sequence[MoveRecord], top: int = 0) -> list[str]:
    """Each record's edges as json.dumps writes them between the list's
    brackets, "[u,v],[u,v]", formatted for all records at once.  The
    table of ids' text covers `top` and above, so the chunks of one log
    share a table."""
    vertices = record_vertices(records)
    if not vertices.size:
        return [""] * len(records)
    # Sized by a power of two, so every log of one n shares a table.
    top = max(top, int(vertices.max()))
    table, lengths = edge_text_table(1 << top.bit_length())
    # Cell 2i opens edge i at its u, cell 2i + 1 closes it at its v.  (A
    # table row past 2**32 would not fit in memory.)
    rows = vertices * 2
    rows[1::2] += 1
    cells = table[rows].view(np.uint8)
    del rows
    text = str(cells[cells != 0], "ascii")
    del cells
    # Where each cell's text starts, then where each record's starts.
    starts = np.zeros(vertices.size + 1, np.int64)
    np.cumsum(lengths[vertices], out=starts[1:])
    bounds = starts[2 * np.cumsum([0] + [len(rec.edges) for rec in records])]
    bounds = bounds.tolist()
    # Each edge's text ends in a comma; the last one's is dropped.
    return [text[a:b - 1] if b > a else ""
            for a, b in zip(bounds, bounds[1:])]


def record_lines(records: Sequence[MoveRecord], top: int = 0) -> list[str]:
    """The log line of each record, byte for byte what json.dumps writes
    for {"turn", "player", "edges", ["case"], ["promoted"]} with no
    spaces.  `top` is as for edge_texts."""
    lines = []
    for rec, edges in zip(records, edge_texts(records, top)):
        line = (f'{{"turn":{rec.turn},"player":'
                f'{encode_basestring_ascii(rec.player)},"edges":[{edges}]')
        if rec.case is not None:
            line += ',"case":' + encode_basestring_ascii(rec.case)
        if rec.promoted:
            line += ',"promoted":' + json.dumps(rec.promoted,
                                                separators=SEPARATORS)
        lines.append(line + "}")
    return lines


RECORD_KEYS = frozenset(("turn", "player", "edges", "case", "promoted"))

# A record line as record_lines writes it when its case label needs no
# escaping.  Groups: turn, player, the edges between their list's
# brackets ("[u,v],[u,v]"), case, promoted.  Ints have no leading zeros.
# Edge ids have at most 10 digits, so int64 holds them exactly; turn and
# promoted ids have at most 18, so int() takes them all.
_INT = r"(?:0|[1-9][0-9]{0,17})"
_ID = r"(?:0|[1-9][0-9]{0,9})"
_EDGE = r"\[%s,%s\]" % (_ID, _ID)
RECORD_LINE = re.compile(
    r'\{"turn":(%s),"player":"([BM])","edges":\[((?:%s,)*%s)?\]'
    r'(?:,"case":"([A-Za-z0-9.()+]*)")?'
    r'(?:,"promoted":\[(%s(?:,%s)*)\])?\}' % (_INT, _EDGE, _EDGE, _INT, _INT))


def engine_records(matches: Sequence[re.Match], n: int) \
        -> list[MoveRecord] | None:
    """The records of lines that RECORD_LINE matched, for an n-vertex
    board, with every line's vertex ids read in one numpy pass.  None
    unless every id is below n and 2**32, the two ends of every edge
    differ and every promoted vertex is below n: of the lines RECORD_LINE
    matches, json.loads and MoveRecord.from_json (with EdgeList) accept
    exactly those."""
    text = ",".join([m[3] for m in matches if m[3]])
    # "[u,v],[u,v]" is read as "u,v,u,v".
    ids = np.fromstring(text[1:-1].replace("],[", ","), np.int64, sep=",")
    if ids.size:
        ends = ids.reshape(-1, 2)
        if not (ids.max() < min(n, 1 << 32)
                and (ends[:, 0] != ends[:, 1]).all()):
            return None
    vertices = array("I", ids.astype(np.uint32).tobytes())
    records = []
    start = 0
    for turn, player, edges, case, promoted in map(re.Match.groups, matches):
        stop = start + 2 * edges.count("[") if edges else start
        promoted = tuple(map(int, promoted.split(","))) if promoted else ()
        if promoted and max(promoted) >= n:
            return None
        records.append(MoveRecord(int(turn), player, EdgeList.from_vertices(
            vertices[start:stop]), case, promoted))
        start = stop
    return records


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

    # The repr of a cell byte 0, 1 or 2 is 4 characters: \x00, \x01, \x02.
    escapes = np.frombuffer(rb"\x00\x01\x02", np.uint32)
    h = hashlib.sha256(b"b'")
    for lo in range(0, n, FINGERPRINT_CHUNK_ROWS):
        hi = lo + FINGERPRINT_CHUNK_ROWS
        chunk = (MAKER * cells(maker_rows[lo:hi])
                 + BREAKER * cells(breaker_rows[lo:hi]))
        h.update(escapes[chunk])
    h.update(b"'|")
    for part in rest:
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


# A log is written and compared this many records at a time.
LOG_CHUNK_RECORDS = 64

# GameLog.parse reads up to this many engine-written record lines at once.
PARSE_BATCH_LINES = 16

# Bytes are checked to be UTF-8 about this many at a time.
UTF8_CHECK_BYTES = 1 << 16


def check_utf8(data: bytes) -> None:
    """If `data` is not UTF-8, a LogFormatError on the line of its first
    bad byte.  Decoded a slice at a time, each cut just after a newline,
    which is never inside a multi-byte character."""
    start = 0
    with memoryview(data) as view:
        while start < len(data):
            end = data.find(b"\n", start + UTF8_CHECK_BYTES) + 1 or len(data)
            try:
                str(view[start:end], "utf-8")
            except UnicodeDecodeError as err:
                line = data.count(b"\n", 0, start + err.start) + 1
                raise LogFormatError(line, "not UTF-8") from None
            start = end


def log_lines(text: str | bytes) -> Iterator[str]:
    """The lines that text.split("\n") gives, one at a time, without
    building that list.  Bytes are checked with check_utf8 before the
    first line is given, then decoded a line at a time."""
    binary = isinstance(text, bytes)
    if binary:
        check_utf8(text)
    newline = b"\n" if binary else "\n"
    start = 0
    while True:
        end = text.find(newline, start)
        line = text[start:] if end < 0 else text[start:end]
        yield line.decode() if binary else line
        if end < 0:
            return
        start = end + 1


@dataclass
class GameLog:
    """A game's header (`meta`), move records and end record.  Its text
    is produced by chunks(), LOG_CHUNK_RECORDS records at a time; write
    and `hamgame run --out` write it chunk by chunk and `hamgame replay`
    compares it with a file chunk by chunk, so only dumps, for callers
    that want the whole text, builds it."""

    meta: dict
    records: list[MoveRecord] = field(default_factory=list)
    end: dict | None = None

    def chunks(self) -> Iterator[str]:
        """The log's text in pieces: the header line, the lines of each
        LOG_CHUNK_RECORDS records, then the end line if there is one.
        Every line ends in a newline."""
        yield json.dumps({"meta": self.meta}, separators=SEPARATORS) + "\n"
        records = self.records
        starts = range(0, len(records), LOG_CHUNK_RECORDS)
        top = 0     # the largest vertex id: one text table for every chunk
        for lo in starts:
            vertices = record_vertices(records[lo:lo + LOG_CHUNK_RECORDS])
            if vertices.size:
                top = max(top, int(vertices.max()))
        for lo in starts:
            # Nothing of a chunk stays in this frame while the next is made.
            yield "\n".join(
                [*record_lines(records[lo:lo + LOG_CHUNK_RECORDS], top), ""])
        if self.end is not None:
            yield json.dumps({"end": self.end}, separators=SEPARATORS) + "\n"

    def dumps(self) -> str:
        return "".join(self.chunks())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.chunks())

    @classmethod
    def parse(cls, text: str | bytes) -> "GameLog":
        """Read a log, checking each line's shape (see MoveRecord.from_json
        for records).  Blank lines are skipped; any other departure from
        header, records, optional end line is a LogFormatError.  The text
        is read a line at a time (log_lines); in bytes, a line that is not
        UTF-8 is the error even if an earlier line has another.

        Between the header and the end line, a line that RECORD_LINE
        matches waits in a batch of up to PARSE_BATCH_LINES such lines,
        which engine_records reads at once.  The batch is read before any
        later line, and if it fails a check its lines are read one by one
        by the JSON path, so the records and errors are the JSON path's."""
        meta: dict | None = None
        records: list[MoveRecord] = []
        end = None
        n = 0
        batch: list[tuple[int, re.Match]] = []

        def read_json(lineno: int, line: str) -> None:
            nonlocal meta, end, n
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

        def read_batch() -> None:
            fast = engine_records([match for _, match in batch], n)
            if fast is None:
                for lineno, match in batch:
                    read_json(lineno, match.string)
            else:
                records.extend(fast)
            batch.clear()

        for lineno, line in enumerate(log_lines(text), 1):
            if not line.strip():
                continue
            match = meta is not None and end is None \
                and RECORD_LINE.fullmatch(line)
            if match:
                batch.append((lineno, match))
                if len(batch) == PARSE_BATCH_LINES:
                    read_batch()
                continue
            if batch:
                read_batch()
            read_json(lineno, line)
        if batch:
            read_batch()
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
