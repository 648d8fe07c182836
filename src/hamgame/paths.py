"""Partition of the unsettled vertices into vertex-disjoint Maker paths.

The settled set only grows; everything outside it is covered by paths
(singletons count).  Paths are stored as an unoriented neighbor-slot
structure (each vertex knows its at-most-two path neighbors), so a join
is an O(1) splice plus relabeling of the shorter side, and an absorb
walks only the affected path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import Board


class PathSystemError(ValueError):
    pass


@dataclass
class AbsorbResult:
    vertex: int
    promoted: bool              # False when the vertex was already settled
    removed_path: int | None    # path id the vertex was taken from
    new_paths: tuple[int, ...]  # ids of the pieces that replaced it


class PathSystem:
    """Settled set + path family covering its complement.

    Invariants maintained here and checked by `deep_check`:
      * every vertex is settled or on exactly one path;
      * endpoints, lengths and locators agree with the neighbor slots;
      * the settled set never shrinks.
    """

    __slots__ = (
        "n", "settled_mask", "nb", "loc", "ends", "lengths",
        "endpoint_mask", "_next_id", "_dropped",
    )

    def __init__(self, n: int, settled: set[int]) -> None:
        self.n = n
        self.settled_mask = 0
        for v in settled:
            self.settled_mask |= 1 << v
        self.nb: list[list[int]] = [[] for _ in range(n)]
        self.loc = [-1] * n
        self.ends: dict[int, tuple[int, int]] = {}
        self.lengths: dict[int, int] = {}
        self.endpoint_mask = 0
        # ends iterates in ascending path id: ids only grow, new paths
        # are inserted last, and a join keeps the surviving id in place.
        for v in range(n):
            if not self.settled_mask >> v & 1:
                self.loc[v] = v         # singleton, path id == vertex id
                self.ends[v] = (v, v)
                self.lengths[v] = 1
                self.endpoint_mask |= 1 << v
        self._next_id = n
        self._dropped = 0               # keys deleted from ends since built

    # -- queries ---------------------------------------------------------

    def path_count(self) -> int:
        return len(self.ends)

    def is_settled(self, v: int) -> bool:
        return self.loc[v] == -1

    def is_endpoint(self, v: int) -> bool:
        return bool(self.endpoint_mask >> v & 1)

    def is_interior(self, v: int) -> bool:
        return self.loc[v] != -1 and not (self.endpoint_mask >> v & 1)

    def anchor_mask(self) -> int:
        """Settled vertices plus all current path endpoints."""
        return self.settled_mask | self.endpoint_mask

    def path_vertices(self, pid: int) -> list[int]:
        a, _ = self.ends[pid]
        return self._walk(a)

    def _walk(self, start: int) -> list[int]:
        """Follow neighbor slots from a free end to the other end."""
        seq = [start]
        prev, cur = -1, start
        while True:
            nxt = -1
            for w in self.nb[cur]:
                if w != prev:
                    nxt = w
                    break
            if nxt == -1:
                return seq
            prev, cur = cur, nxt
            seq.append(cur)

    # -- mutations ---------------------------------------------------------

    def absorb(self, v: int) -> AbsorbResult:
        """Move v into the settled set, splitting its path around it.

        Absorbing an already-settled vertex is a no-op flagged in the
        result rather than an error.
        """
        pid = self.loc[v]
        if pid == -1:
            return AbsorbResult(v, False, None, ())
        a, b = self.ends[pid]
        self.settled_mask |= 1 << v
        self.loc[v] = -1
        neighbors = list(self.nb[v])
        self.nb[v] = []
        for w in neighbors:
            self.nb[w].remove(v)
        self._drop_path(pid)
        del self.lengths[pid]
        self.endpoint_mask &= ~((1 << a) | (1 << b) | (1 << v))
        new_ids = tuple(self._register(self._walk(w)) for w in neighbors)
        return AbsorbResult(v, True, pid, new_ids)

    def _register(self, verts: list[int]) -> int:
        pid = self._next_id
        self._next_id += 1
        for w in verts:
            self.loc[w] = pid
        self.ends[pid] = (verts[0], verts[-1])
        self.lengths[pid] = len(verts)
        self.endpoint_mask |= (1 << verts[0]) | (1 << verts[-1])
        return pid

    def _drop_path(self, pid: int) -> None:
        """Delete pid from ends.  A dict keeps a deleted key's slot until
        an insert resizes it, and joins never insert, so once the dead
        slots outnumber the live keys, ends is copied compactly (a copy
        keeps the ascending id order)."""
        del self.ends[pid]
        self._dropped += 1
        if self._dropped > len(self.ends):
            self.ends = dict(self.ends)
            self._dropped = 0

    def join(self, u: int, v: int) -> int:
        """Splice the path ending at u to the path ending at v via edge uv.

        The longer side keeps its id (ties: lower id); the other side is
        relabeled.  Returns the merged path's id.
        """
        pu, pv = self.loc[u], self.loc[v]
        if pu == -1 or pv == -1 or pu == pv:
            raise PathSystemError(f"join({u}, {v}): not endpoints of two paths")
        if not (self.is_endpoint(u) and self.is_endpoint(v)):
            raise PathSystemError(f"join({u}, {v}): interior vertex")
        if self.lengths[pu] > self.lengths[pv] or (
            self.lengths[pu] == self.lengths[pv] and pu < pv
        ):
            keep, lose = pu, pv
            jk, jl = u, v
        else:
            keep, lose = pv, pu
            jk, jl = v, u

        def far_of(junction: int, pid: int) -> int:
            x, y = self.ends[pid]
            if self.lengths[pid] == 1:
                return junction
            return y if junction == x else x

        far_keep = far_of(jk, keep)
        far_lose = far_of(jl, lose)
        ka, kb = self.ends[keep]
        la, lb = self.ends[lose]
        for w in self._walk(jl):
            self.loc[w] = keep
        self.nb[u].append(v)
        self.nb[v].append(u)
        self._drop_path(lose)
        self.lengths[keep] += self.lengths.pop(lose)
        self.ends[keep] = (far_keep, far_lose)
        self.endpoint_mask &= ~((1 << ka) | (1 << kb) | (1 << la) | (1 << lb))
        self.endpoint_mask |= (1 << far_keep) | (1 << far_lose)
        return keep

    # -- the joinable-pair scan -------------------------------------------

    def find_joinable_pair(self, board: Board) -> tuple[int, int] | None:
        """First endpoint pair (u, v) of two distinct paths, Maker degree
        <= 1 on both ends, connecting edge unclaimed by either player.

        Scan order for u and for v alike: lowest path id, then lower
        endpoint before higher.  The bitmask emptiness test makes the
        common no-partner case O(1) per u.
        """
        cand = self.endpoint_mask & board.deg_le1_mask
        if not cand:
            return None
        for pid, (a, b) in self.ends.items():
            own_bits = (1 << a) | (1 << b)
            if not (cand & own_bits):
                continue
            for u in (a, b) if a <= b else (b, a):
                if not (cand >> u & 1):
                    continue
                free = cand & ~own_bits & ~board.breaker_adj[u] & ~board.maker_adj[u]
                if not free:
                    continue
                for qid, (c, d) in self.ends.items():
                    if qid == pid:
                        continue
                    if c > d:
                        c, d = d, c
                    if free >> c & 1:
                        return (u, c)
                    if free >> d & 1:
                        return (u, d)
        return None

    # -- deep validation ----------------------------------------------------

    def deep_check(self) -> list[str]:
        """Full structural validation; returns human-readable violations."""
        problems: list[str] = []
        covered = [0] * self.n
        total = 0
        for pid, (a, b) in self.ends.items():
            verts = self.path_vertices(pid)
            total += len(verts)
            if len(verts) != self.lengths[pid]:
                problems.append(
                    f"path {pid}: walk length {len(verts)} != {self.lengths[pid]}")
            if verts[0] != a or verts[-1] != b:
                problems.append(f"path {pid}: ends {(verts[0], verts[-1])} != {(a, b)}")
            for i, w in enumerate(verts):
                covered[w] += 1
                if self.loc[w] != pid:
                    problems.append(f"vertex {w}: loc {self.loc[w]} != {pid}")
                want = 0 if len(verts) == 1 else (1 if i in (0, len(verts) - 1) else 2)
                if len(self.nb[w]) != want:
                    problems.append(f"vertex {w}: {len(self.nb[w])} slots, want {want}")
        n_settled = 0
        for v in range(self.n):
            is_settled = bool(self.settled_mask >> v & 1)
            if is_settled != (self.loc[v] == -1):
                problems.append(f"vertex {v}: loc/settled disagree")
            if is_settled and covered[v]:
                problems.append(f"vertex {v}: settled but on a path")
            if not is_settled and covered[v] != 1:
                problems.append(f"vertex {v}: covered {covered[v]} times")
            n_settled += is_settled
        if total + n_settled != self.n:
            problems.append(f"cover {total}+{n_settled} != {self.n}")
        if self.settled_mask >> self.n:
            # A bit at or past n names no vertex.
            problems.append("settled_mask stale")
        emask = 0
        for a, b in self.ends.values():
            emask |= (1 << a) | (1 << b)
        if emask != self.endpoint_mask:
            problems.append("endpoint_mask stale")
        if list(self.ends) != sorted(self.ends):
            problems.append("path ids out of order")
        return problems
