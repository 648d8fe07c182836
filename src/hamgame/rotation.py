"""Rotation-extension machinery for Maker's tracked path.

A rotation takes a path v..x,y..w plus a Maker edge wx and produces the
path v..x,w..y (delete xy, add wx): same vertex set, new endpoint y.
Rotations here are pivot-restricted: the pivot x must lie in a
caller-supplied vertex set (the settled set, under which the successor
y of a pivot is always settled or a family-path endpoint).

The closure explores full path states breadth-first, deduplicating by
the exact vertex sequence.  Deduplicating by endpoint alone is cheaper
but provably lossy (a second witness for a known endpoint can rotate to
endpoints the first witness cannot reach), and the contract here is the
true reachable set.  A rotation reverses the suffix after its pivot, so
each explored path after the first is stored as three ints: its parent
path, its pivot position and its free end.  Every path of one closure
spans the same vertices from the same fixed end, so its edge set
determines it; while the search runs, each path has a key that XORs the
hashes of the edges it has traded against the input path, and a
rotation updates it with two edge hashes.  A rotation at pivot position
i sends each position p > i to len + i - p, so positions in a state
come from pushing input positions through its chain of pivots, and
expanding a state touches no path-sized array.  Rotating a path at its
own pivot gives back its parent, which is skipped at no cost; a new
path whose key some stored paths share is compared exactly with them,
each rebuilt in one buffer by undoing and redoing suffix reversals, so
a key collision costs time but never merges two paths.  Exactness is
paid for with an optional state budget: a closure stops
deterministically once it holds `max_states` explored paths and flags
the result as truncated, and a two-level search spends at most
SEARCH_BUDGET_FACTOR times that over all its closures.  Engine-scale
callers set a budget; verification-scale callers leave it unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import bits

# A two-level search explores at most this many times the per-closure
# budget, summed over all its closures.
SEARCH_BUDGET_FACTOR = 4


class RotationError(ValueError):
    """Bad input to a rotation operation (not a Maker path, repeated vertex)."""


class NormalizeError(RuntimeError):
    """The endpoint-normalization case analysis found no applicable move.

    Structurally impossible while the strategy's invariants hold; raising
    it (and recording a strategy failure) is how breakage surfaces.
    """


@dataclass
class TrackedPath:
    """Maker's distinguished path: vertex order, membership mask, flags.

    cycle_closed means Maker also owns an edge joining the two ends, so
    her graph contains a cycle on exactly this vertex set.
    """

    order: list[int]
    mask: int
    cycle_closed: bool = False

    @classmethod
    def seed(cls, v: int) -> "TrackedPath":
        return cls(order=[v], mask=1 << v)

    def __len__(self) -> int:
        return len(self.order)


class RotationClosure:
    """Paths reachable from one path by rotations keeping one end fixed.

    endpoints lists each reachable free end once, in discovery order; the
    witness kept per endpoint is the first path that reached it.  The
    input path is stored once, and every later state as three ints: the
    state it was rotated from, the pivot position and its free end.
    path(s) rebuilds state s in one reusable buffer.  len() counts the
    distinct reachable paths; states lists them, starting at the fixed
    end, as the rows of an array in discovery order (built on demand,
    for tests).
    """

    __slots__ = ("fixed", "endpoints", "truncated", "_witness", "_parent",
                 "_pivot", "_end", "_at", "_buf")

    def __init__(self, path: np.ndarray) -> None:
        self.fixed = int(path[0])
        self.endpoints = [int(path[-1])]
        self.truncated = False
        self._witness = {int(path[-1]): 0}     # endpoint -> state
        self._parent = [-1]
        self._pivot = [-1]
        self._end = [int(path[-1])]
        # _buf holds the path of state _at.
        self._at = 0
        self._buf = np.array(path, dtype=np.int32)

    def __len__(self) -> int:
        return len(self._parent)

    def _reverse(self, i: int) -> None:
        """Reverse the buffer after position i: the rotation at pivot
        position i, which is its own inverse."""
        buf = self._buf
        buf[i + 1:] = buf[:i:-1]

    def path(self, s: int) -> np.ndarray:
        """State s's path, as a read-only view of the buffer that the
        next rebuild overwrites.  Undoes the buffer's rotations back to
        the common ancestor with s, then redoes those down to s."""
        parent, pivot = self._parent, self._pivot
        a, b, redo = self._at, s, []
        # A state comes after its parent, so the later of two states is
        # never an ancestor of the earlier one.
        while a != b:
            if a > b:
                self._reverse(pivot[a])
                a = parent[a]
            else:
                redo.append(pivot[b])
                b = parent[b]
        for i in reversed(redo):
            self._reverse(i)
        self._at = s
        view = self._buf[:]
        view.flags.writeable = False
        return view

    @property
    def states(self) -> np.ndarray:
        rows = np.empty((len(self), len(self._buf)), dtype=np.int32)
        for s in range(len(self)):
            rows[s] = self.path(s)
        return rows

    def witness_path(self, w: int) -> list[int]:
        return self.path(self._witness[w]).tolist()


def _as_order_array(order, n: int | None = None) -> np.ndarray:
    """order as an int32 array; given n, first check that it holds
    integers in [0, n)."""
    if n is not None:
        raw = np.asarray(order)
        if raw.ndim == 1 and len(raw):
            if raw.dtype.kind not in "iu":
                raise RotationError(f"path vertices must be integers, "
                                    f"not {raw.dtype}")
            if raw.min() < 0 or raw.max() >= n:
                raise RotationError(f"path vertex out of range [0, {n})")
    arr = np.asarray(order, dtype=np.int32)
    if arr.ndim != 1 or len(arr) == 0:
        raise RotationError("path must be a non-empty vertex sequence")
    return arr


def _validate_path(maker_adj: list[int], order: np.ndarray) -> None:
    """Raise RotationError unless order, on vertices in
    [0, len(maker_adj)), is a Maker path.  A repeated vertex is reported
    before any missing edge, wherever the two lie."""
    seen = bytearray(len(maker_adj))
    gap = None
    prev = -1
    for v in order.tolist():
        if seen[v]:
            raise RotationError(f"repeated vertex {v}")
        seen[v] = 1
        if gap is None and prev >= 0 and not maker_adj[prev] >> v & 1:
            gap = (prev, v)
        prev = v
    if gap is not None:
        raise RotationError(f"({gap[0]}, {gap[1]}) is not a Maker edge")


def _vertex_mask(arr: np.ndarray) -> int:
    """The vertices of arr as a bitmask, built in one numpy pass."""
    flags = np.zeros(int(arr.max()) + 1, dtype=np.uint8)
    flags[arr] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


def limited_rotation_closure(
    maker_adj: list[int],
    pivot_mask: int,
    order,
    *,
    validate: bool = True,
    max_states: int = 0,
    stop_at=None,
) -> RotationClosure:
    """All endpoints reachable by pivot-restricted rotations fixing order[0].

    The endpoint set always contains the original free end order[-1]
    (zero rotations).  max_states > 0 bounds the number of explored path
    states, the input path included; the search stops as soon as it holds
    that many with some still unexpanded, and sets .truncated.  stop_at,
    if given, is a predicate on endpoints: the search stops early once a
    newly found endpoint satisfies it (used by callers that only need
    one hit).  validate checks that order is a Maker path on vertices
    in [0, len(maker_adj)) and raises RotationError if not.
    """
    arr = _as_order_array(order, len(maker_adj) if validate else None)
    if len(arr) < 2:
        raise RotationError("closure needs a path on >= 2 vertices")
    if validate:
        _validate_path(maker_adj, arr)
    length = len(arr)
    closure = RotationClosure(arr)
    if length < 4 or (stop_at is not None and stop_at(closure.endpoints[0])):
        return closure
    if max_states == 1:
        # The input path alone fills the budget.
        closure.truncated = True
        return closure
    usable = pivot_mask & _vertex_mask(arr)
    # The input path's vertex at each position, and each vertex's
    # position in it.
    at = arr.tolist()
    where = np.zeros(int(arr.max()) + 1, dtype=np.int32)
    where[arr] = np.arange(length, dtype=np.int32)
    where = where.tolist()
    parent, pivot = closure._parent, closure._pivot
    ends = closure._end
    # Each state's edge-set key, kept only while the search runs.
    keys = [0]
    # Edge-set key -> the first state with that key, and -> the later
    # ones, which only a key collision makes; states are compared exactly.
    seen: dict[int, int] = {0: 0}
    clashes: dict[int, list[int]] = {}
    witness = closure._witness
    last = length - 3           # the highest usable pivot position
    head = 0
    while head < len(parent):
        # head's pivot positions, from head up to the input path.
        up = []
        a = head
        while a:
            up.append(pivot[a])
            a = parent[a]
        down = up[::-1]
        # Rotating at the state's own pivot gives back its parent.
        back = pivot[head]
        w = ends[head]
        key = keys[head]
        for x in bits(maker_adj[w] & usable):
            # x's position in head: its input position pushed down the
            # chain of rotations, each sending p > j to length + j - p.
            i = where[x]
            for j in down:
                if i > j:
                    i = length + j - i
            if i < 1 or i > last or i == back:
                continue
            # x's successor y is the input vertex that lands on i + 1,
            # found by pulling i + 1 back up the chain.  The rotation
            # trades edge xy for edge wx and makes y the free end.
            p = i + 1
            for j in up:
                if p > j:
                    p = length + j - p
            y = at[p]
            k = (key ^ hash((x, y) if x < y else (y, x))
                 ^ hash((w, x) if w < x else (x, w)))
            s = len(parent)
            twin = seen.setdefault(k, s)
            if twin != s:
                child = closure.path(head).copy()
                child[i + 1:] = child[:i:-1]
                later = clashes.setdefault(k, [])
                if any(np.array_equal(closure.path(t), child)
                       for t in (twin, *later)):
                    continue
                later.append(s)
            parent.append(head)
            pivot.append(i)
            ends.append(y)
            keys.append(k)
            if y not in witness:
                witness[y] = s
                closure.endpoints.append(y)
                if stop_at is not None and stop_at(y):
                    return closure
            if max_states and s + 1 >= max_states:
                closure.truncated = True
                return closure
        head += 1
    return closure


def _two_level_walk(maker_adj, pivot_mask, order, budget, partners, visit,
                    *, validate) -> bool:
    """The two-level rotation construction: close over order's free end,
    then for each first-level path state, in discovery order, whose free
    end u has partners(u) != 0, close over its other end and call
    visit(u, w, second) for each second-level endpoint w in that mask.

    Each closure explores at most `budget` paths and the whole walk at
    most SEARCH_BUDGET_FACTOR * budget (0: unbounded).  Returns whether
    a budget stopped the walk with work left.
    """
    total = SEARCH_BUDGET_FACTOR * budget
    first = limited_rotation_closure(
        maker_adj, pivot_mask, order, validate=validate, max_states=budget)
    truncated = first.truncated
    spent = len(first)
    for s in range(len(first)):
        if budget and spent >= total:
            return True
        u = first._end[s]
        wanted = partners(u)
        if not wanted:
            continue
        second = limited_rotation_closure(
            maker_adj, pivot_mask, first.path(s)[::-1], validate=False,
            max_states=min(budget, total - spent) if budget else 0)
        truncated = truncated or second.truncated
        spent += len(second)
        for w in second.endpoints:
            if wanted >> w & 1:
                visit(u, w, second)
    return truncated


def endpoint_pairs_scan(
    maker_adj: list[int],
    pivot_mask: int,
    order,
    *,
    validate: bool = True,
    budget: int = 0,
) -> tuple[set[tuple[int, int]], bool]:
    """Unordered endpoint pairs realizable on V(P) by the two-level
    rotation construction: close over one end, then for each reachable
    path close over its free end.  Returns (pairs, truncated).

    The union runs over every first-level path state, not one witness
    per endpoint: second-level reachability genuinely depends on which
    witness you rotate, and only the union over all of them is
    independent of search order.  Every returned pair is realized by a
    concrete path on V(P).

    The input path must already have both endpoints in the anchor set
    (run normalize_endpoints first when it may not).  budget > 0 bounds
    each closure and, SEARCH_BUDGET_FACTOR times over, the whole scan;
    either bound being hit sets truncated.
    """
    pairs: set[tuple[int, int]] = set()

    def visit(u: int, w: int, _second) -> None:
        pairs.add((u, w) if u <= w else (w, u))

    # Every vertex is a partner (-1 has all bits set).
    truncated = _two_level_walk(maker_adj, pivot_mask, order, budget,
                                lambda u: -1, visit, validate=validate)
    return pairs, truncated


def normalize_endpoints(
    maker_adj: list[int],
    anchor_mask: int,
    order,
) -> list[int]:
    """Rewrite a path on V(P) until both endpoints are anchors.

    Two moves, mirroring why such a path always exists: a non-anchor
    endpoint is interior to a family path, so it has exactly two Maker
    edges and both lie on P.  If its second edge reaches the other end
    of P, close the cycle and reopen it at the first edge whose ends are
    both anchors; otherwise exchange that edge for the path edge after
    its far attachment, which lands the endpoint on an anchor.  Raises
    NormalizeError when neither move applies.
    """
    path = [int(v) for v in order]
    if len(path) == 1:
        if anchor_mask >> path[0] & 1:
            return path
        raise NormalizeError(f"singleton {path[0]} is not an anchor")
    for _ in range(6):
        last_ok = bool(anchor_mask >> path[-1] & 1)
        first_ok = bool(anchor_mask >> path[0] & 1)
        if last_ok and first_ok:
            return path
        if last_ok:
            path.reverse()
        w = path[-1]
        length = len(path)
        if (maker_adj[w] >> path[0] & 1) and length >= 3:
            # Cycle move: reopen at the first anchor-anchor edge.
            cut = -1
            for i in range(length):
                a, c = path[i], path[(i + 1) % length]
                if (anchor_mask >> a & 1) and (anchor_mask >> c & 1):
                    cut = i
                    break
            if cut == -1:
                raise NormalizeError("cycle without an anchor-anchor edge")
            path = path[cut + 1:] + path[:cut + 1]
            continue
        # Exchange move: w's second Maker edge must land inside the path.
        z = -1
        inner = path[-2]
        for x in bits(maker_adj[w]):
            if x != inner and any(x == q for q in path[:-2]):
                z = x
                break
        if z == -1 or z == path[0]:
            raise NormalizeError(f"endpoint {w} admits no normalization move")
        j = path.index(z)
        path = path[:j + 1] + path[j + 1:][::-1]
    raise NormalizeError("normalization did not converge")


def find_closing_pair(
    maker_adj: list[int],
    breaker_adj: list[int],
    pivot_mask: int,
    hub_mask: int,
    order,
    *,
    budget: int = 0,
) -> tuple[tuple[int, int, list[int]] | None, bool]:
    """Least hub-hub endpoint pair whose edge is claimable, with witness.

    Walks the same two-level pair family as endpoint_pairs_scan, with the
    same budget, but only descends into first-level states whose free end
    is a hub with at least one claimable hub partner on the path, keeps
    pairs with both members hubs and the joining edge unclaimed by
    either player, and takes the lexicographically least as (u, w) with
    u < w.

    Returns ((u, w, witness path from u to w) or None, truncated); a
    None hit with truncated=True means the budgeted search ran out, not
    that no pair exists.
    """
    arr = _as_order_array(order)
    path_mask = _vertex_mask(arr)

    def partners(u: int) -> int:
        # A claimable partner must be a hub on the path that neither
        # player owns an edge to; none skips the whole descent.
        if not (hub_mask >> u & 1):
            return 0
        return (hub_mask & path_mask
                & ~breaker_adj[u] & ~maker_adj[u] & ~(1 << u))

    best: tuple[int, int, list[int]] | None = None

    def visit(u: int, w: int, second: RotationClosure) -> None:
        nonlocal best
        pair = (u, w) if u < w else (w, u)
        if best is None or pair < best[:2]:
            best = (*pair, second.witness_path(w))

    truncated = _two_level_walk(maker_adj, pivot_mask, arr, budget,
                                partners, visit, validate=False)
    return best, truncated


def advance_tracked_path(
    maker_adj: list[int],
    pivot_mask: int,
    anchor_mask: int,
    tracked: TrackedPath,
    *,
    max_states: int = 0,
) -> tuple[TrackedPath, bool]:
    """Grow the tracked path as far as the search finds.

    Search moves, repeated until none fires: (a) while an endpoint has a
    Maker neighbor off the path, extend there (lowest index first);
    (b) when both ends are stuck, take the pivot-restricted closure at
    each end and adopt the first reachable endpoint that extends;
    (c) when the cycle is closed, try reopening it at each anchor-anchor
    cycle edge in order and rerun (a)/(b); an opening that yields no
    growth is rolled back, and if none grows the path stays closed.
    The vertex set never shrinks.  Returns (tracked, grew).
    """
    order = list(tracked.order)
    mask = tracked.mask
    closed = tracked.cycle_closed
    start_len = len(order)

    def extend(seq: list[int], m: int) -> tuple[list[int], int, bool]:
        grew = False
        while True:
            out = maker_adj[seq[-1]] & ~m
            if out:
                y = (out & -out).bit_length() - 1
                seq.append(y)
                m |= 1 << y
                grew = True
                continue
            out = maker_adj[seq[0]] & ~m
            if out:
                y = (out & -out).bit_length() - 1
                seq.insert(0, y)
                m |= 1 << y
                grew = True
                continue
            return seq, m, grew

    def rotate_and_extend(seq: list[int], m: int) -> tuple[list[int], int, bool]:
        # (a) then (b) at both ends until neither move applies.
        seq, m, grew = extend(seq, m)
        while len(seq) >= 4:
            reach = 0
            for v in seq:
                reach |= maker_adj[v]
            if not (reach & ~m):
                break
            adopted = False
            for flip in (False, True):
                base = seq[::-1] if flip else seq
                closure = limited_rotation_closure(
                    maker_adj, pivot_mask, np.asarray(base, dtype=np.int32),
                    validate=False, max_states=max_states,
                    stop_at=lambda e: bool(maker_adj[e] & ~m))
                tip = closure.endpoints[-1]
                if maker_adj[tip] & ~m:
                    seq = closure.witness_path(tip)
                    seq, m, _ = extend(seq, m)
                    adopted = True
                    grew = True
                    break
            if not adopted:
                break
        return seq, m, grew

    if closed:
        # No opening can grow unless some path vertex still has a Maker
        # edge leaving the path; the check is cheap and skips the whole
        # trial loop on spanning cycles.
        reach = 0
        for v in order:
            reach |= maker_adj[v]
        if reach & ~mask:
            length = len(order)
            for idx in range(length):
                a, c = order[idx], order[(idx + 1) % length]
                if not ((anchor_mask >> a & 1) and (anchor_mask >> c & 1)):
                    continue
                # Opening the cycle between positions idx and idx+1
                # leaves a path from c around to a.
                trial = order[idx + 1:] + order[:idx + 1]
                new_seq, new_mask, grew = rotate_and_extend(list(trial), mask)
                if grew:
                    order, mask, closed = new_seq, new_mask, False
                    break
    else:
        order, mask, _ = rotate_and_extend(order, mask)
    grew_total = len(order) > start_len
    tracked.order = order
    tracked.mask = mask
    tracked.cycle_closed = closed
    return tracked, grew_total
