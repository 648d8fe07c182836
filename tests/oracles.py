"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness and shares no code with the
package under test: adjacency is a list of Python sets, paths are
tuples, searches enumerate full path states.  Keep it that way; the
point is an independent route to the same answers.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import isqrt


def rotations_of(adj: list[set[int]], pivots: set[int], path: tuple[int, ...]):
    """Yield every path one pivot-restricted rotation away (fixed end path[0])."""
    length = len(path)
    w = path[-1]
    for i in range(1, length - 2):
        x = path[i]
        if x in pivots and w in adj[x]:
            yield path[:i + 1] + tuple(reversed(path[i + 1:]))


def closure_endpoints_bruteforce(
    adj: list[set[int]],
    pivots: set[int],
    path: tuple[int, ...],
) -> set[int]:
    """Endpoints reachable by rotation sequences, deduplicating by FULL
    path state (every distinct path is explored, not just every distinct
    endpoint).  The ground truth the fast closure is measured against.
    """
    seen = {path}
    queue = deque([path])
    endpoints = {path[-1]}
    while queue:
        p = queue.popleft()
        for q in rotations_of(adj, pivots, p):
            if q not in seen:
                seen.add(q)
                endpoints.add(q[-1])
                queue.append(q)
    return endpoints


def closure_family_bruteforce(
    adj: list[set[int]],
    pivots: set[int],
    path: tuple[int, ...],
) -> list[tuple[int, ...]]:
    """Every path reachable by rotation sequences fixing path[0]."""
    seen = {path}
    queue = deque([path])
    family = [path]
    while queue:
        p = queue.popleft()
        for q in rotations_of(adj, pivots, p):
            if q not in seen:
                seen.add(q)
                family.append(q)
                queue.append(q)
    return family


def closure_states_reference(
    adj: list[set[int]],
    pivots: set[int],
    path: tuple[int, ...],
    *,
    max_states: int = 0,
    stop_at=None,
) -> tuple[list[tuple[int, ...]], list[int], dict[int, tuple[int, ...]], bool]:
    """The rotation closure's exact search order, on tuples.

    Breadth-first from path; each path tries its pivots in ascending
    vertex id.  A new path is kept, then a new endpoint recorded with
    that path as its witness, then stop_at checked on it; the search
    stops, truncated, once max_states > 0 paths are kept.  Paths on
    fewer than 4 vertices, or whose own end satisfies stop_at, are not
    searched, and max_states == 1 truncates before any rotation.
    Returns (paths, endpoints, witness per endpoint, truncated).
    """
    states = [path]
    endpoints = [path[-1]]
    witness = {path[-1]: path}
    if len(path) < 4 or (stop_at is not None and stop_at(path[-1])):
        return states, endpoints, witness, False
    if max_states == 1:
        return states, endpoints, witness, True
    seen = {path}
    head = 0
    while head < len(states):
        p = states[head]
        head += 1
        where = {v: i for i, v in enumerate(p)}
        for x in sorted(x for x in adj[p[-1]] if x in pivots):
            i = where.get(x, 0)
            if not 1 <= i <= len(p) - 3:
                continue
            q = p[:i + 1] + tuple(reversed(p[i + 1:]))
            if q in seen:
                continue
            seen.add(q)
            states.append(q)
            if q[-1] not in witness:
                witness[q[-1]] = q
                endpoints.append(q[-1])
                if stop_at is not None and stop_at(q[-1]):
                    return states, endpoints, witness, False
            if max_states and len(states) >= max_states:
                return states, endpoints, witness, True
    return states, endpoints, witness, False


def endpoint_pairs_bruteforce(
    adj: list[set[int]],
    pivots: set[int],
    path: tuple[int, ...],
) -> set[tuple[int, int]]:
    """Two-level pair construction: for EVERY path in the first-level
    family (not one witness per endpoint), close over its free end.
    The union over all first-level paths is what makes the set
    independent of search order."""
    pairs: set[tuple[int, int]] = set()
    for wit in closure_family_bruteforce(adj, pivots, path):
        u = wit[-1]
        rev = tuple(reversed(wit))
        for w in closure_endpoints_bruteforce(adj, pivots, rev):
            pairs.add((u, w) if u <= w else (w, u))
    return pairs


def longest_path_through(adj: list[set[int]], anchor: int) -> int:
    """Vertex count of a longest simple path through `anchor`, by subset
    DP.  Exponential; callers keep n <= 14.

    reach[mask] is the set (as a bitmask) of endpoints v such that some
    path covering exactly `mask` ends at v.  Extensions only add bits,
    so scanning masks in ascending integer order sees every predecessor
    first.
    """
    n = len(adj)
    reach = [0] * (1 << n)
    for v in range(n):
        reach[1 << v] = 1 << v
    best = 1
    abit = 1 << anchor
    for mask in range(1, 1 << n):
        ends = reach[mask]
        if not ends:
            continue
        if mask & abit:
            best = max(best, bin(mask).count("1"))
        e = ends
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            for u in adj[v]:
                ub = 1 << u
                if not mask & ub:
                    reach[mask | ub] |= ub
    return best


def hamilton_cycle_exists(adj: list[set[int]]) -> bool:
    """Exact Hamilton cycle decision by subset DP from vertex 0 (n <= 14)."""
    n = len(adj)
    if n < 3:
        return False
    full = (1 << n) - 1
    reach = [0] * (1 << n)
    reach[1] = 1
    for mask in range(1, full + 1):
        ends = reach[mask]
        if not ends:
            continue
        e = ends
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            for u in adj[v]:
                ub = 1 << u
                if not mask & ub:
                    reach[mask | ub] |= ub
    e = reach[full]
    while e:
        low = e & -e
        v = low.bit_length() - 1
        e ^= low
        if 0 in adj[v]:
            return True
    return False


def random_maker_graph(rng, n: int, extra_edges: int):
    """A random graph made of a few paths plus extra chords: the shape
    rotation inputs actually take.  Returns (adj sets, one path)."""
    verts = list(range(n))
    rng.shuffle(verts)
    adj: list[set[int]] = [set() for _ in range(n)]
    cut = rng.randint(2, n)
    base = verts[:cut]
    for a, b in zip(base, base[1:]):
        adj[a].add(b)
        adj[b].add(a)
    pool = [(a, b) for a, b in combinations(range(n), 2) if b not in adj[a]]
    rng.shuffle(pool)
    for a, b in pool[:extra_edges]:
        adj[a].add(b)
        adj[b].add(a)
    return adj, tuple(base)


def board_fingerprint_reference(board) -> str:
    """The fingerprint as first defined: sha256 over the repr of the full
    n*n ownership byte matrix (cell u*n+v holds owner(u, v)), then the
    repr of every counter field, each part followed by a "|"."""
    n = board.n
    matrix = bytes(board.owner(u, v) for u in range(n) for v in range(n))
    h = hashlib.sha256()
    for part in (matrix, *board.fingerprint_fields()[2:]):
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def pair_from_index(n: int, t: int) -> tuple[int, int]:
    """Decode t in [0, C(n,2)) to the t-th pair (u, v), u < v, in
    lexicographic order."""
    # Count from the end: r pairs follow t, and the m*(m+1)/2 pairs of
    # the last m rows are those with first element > n-2-m.  Row u holds
    # the pairs r in [m*(m+1)/2, (m+1)*(m+2)/2) for m = n-2-u.
    r = n * (n - 1) // 2 - 1 - t
    m = (isqrt(8 * r + 1) - 1) // 2
    return n - 2 - m, n - 1 - r + m * (m + 1) // 2


def random_breaker_turn_reference(board, rng, k: int) -> list[tuple[int, int]]:
    """The random Breaker's turn with one `rng.randrange` per draw: the
    loop the engine ran before it decoded its draws a block of words at
    a time.  Those blocks must claim the same edges turn by turn, and
    leave `rng` in the same state once the sample fallback has run."""
    n = board.n
    total = n * (n - 1) // 2
    maker_adj = board.maker_adj
    breaker_adj = board.breaker_adj
    randrange = rng.randrange
    out: list[tuple[int, int]] = []
    picked: set[int] = set()        # pair indices drawn this turn
    misses = 0
    while len(out) < k:
        t = randrange(total)
        u, v = pair_from_index(n, t)
        if not (t in picked or (breaker_adj[u] | maker_adj[u]) >> v & 1):
            picked.add(t)
            out.append((u, v))
            misses = 0
        else:
            misses += 1
            if misses > 64:
                # Board nearly full: enumerate what is left instead of
                # grinding the rejection loop.
                board.claim_breaker_edges(out)
                rest = [
                    (a, c) for a in range(n) for c in range(a + 1, n)
                    if not (board.maker_adj[a] | board.breaker_adj[a]) >> c & 1
                ]
                tail = rng.sample(rest, k - len(out))
                board.claim_breaker_edges(tail)
                return out + tail
    board.claim_breaker_edges(out)
    return out


def isolator_retarget_reference(board) -> int | None:
    """The isolator Breaker's target rule as first written, one O(n)
    loop: the least (maker_deg, -free, v) among the vertices with free >
    0 edges left, or None when every star is full."""
    best = None
    best_key = None
    for v in range(board.n):
        free = board.n - 1 - board.breaker_deg[v] - board.maker_deg[v]
        if free == 0:
            continue
        key = (board.maker_deg[v], -free, v)
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


def record_json_reference(rec) -> str:
    """A move record's log line as first defined: json.dumps of a dict
    holding turn, player and edges, then case and promoted when set."""
    body = {"turn": rec.turn, "player": rec.player,
            "edges": [[u, v] for u, v in rec.edges]}
    if rec.case is not None:
        body["case"] = rec.case
    if rec.promoted:
        body["promoted"] = list(rec.promoted)
    return json.dumps(body, separators=(",", ":"))


def log_dumps_reference(log) -> str:
    """A whole log's text as first defined: header, records and end line,
    each by json.dumps, every line ended by a newline."""
    lines = [json.dumps({"meta": log.meta}, separators=(",", ":"))]
    lines.extend(record_json_reference(rec) for rec in log.records)
    if log.end is not None:
        lines.append(json.dumps({"end": log.end}, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def potential_audit_reference(log):
    """hamgame.audit.potential_audit as first written: a set of Breaker
    neighbours for every vertex, snapshots intersected per run.

    Re-derive the danger-potential inequalities for every maximal run
    of consecutive service turns, exactly (rational arithmetic).

    For run turns j = 1..k with serving tails a_j and suffix sets
    A_j = {a_m : m >= j}, the potential p(j) averages, over x in A_j,
    the quantity d(x) = breaker_deg(x) - #(Breaker edges from x into
    A_j) - b*served(x), sampled just before the j-th serve.  Checks:
    p(j+1) <= p(j) when A_{j+1} = A_j, else p(j+1) <= p(j) + b/|A_j| + 2,
    and the aggregate p(k) <= p(1) + 2|A_1| + b*H(|A_1|).
    """
    from hamgame.audit import PotentialRun

    n = log.meta["n"]
    b = log.meta["b"]

    # Pass 1: find the runs (consecutive Maker records labeled Case 2).
    runs: list[list[int]] = []          # record indices of serve turns
    current: list[int] = []
    for idx, rec in enumerate(log.records):
        if rec.player != "M":
            continue
        if rec.case is not None and "C2" in rec.case and rec.edges:
            current.append(idx)
        else:
            if current:
                runs.append(current)
            current = []
    if current:
        runs.append(current)
    if not runs:
        return []
    serve_indices = {i for run in runs for i in run}

    # Pass 2: replay, snapshotting participant stats before each serve.
    breaker_deg = [0] * n
    served = [0] * n
    trouble = bytearray(n)
    badj: dict[int, set[int]] = {}
    participants: dict[int, set[int]] = {
        runs_i: {log.records[i].edges[0][0] for i in run}
        for runs_i, run in enumerate(runs)
    }
    run_of = {}
    for ri, run in enumerate(runs):
        for i in run:
            run_of[i] = ri
    snapshots: dict[int, tuple] = {}
    for idx, rec in enumerate(log.records):
        if rec.player == "B":
            for u, v in rec.edges:
                breaker_deg[u] += 1
                breaker_deg[v] += 1
                badj.setdefault(u, set()).add(v)
                badj.setdefault(v, set()).add(u)
            for v in rec.promoted:
                trouble[v] = 1
        else:
            if idx in serve_indices:
                ri = run_of[idx]
                part = participants[ri]
                snapshots[idx] = (
                    {x: breaker_deg[x] for x in part},
                    {x: served[x] for x in part},
                    {x: frozenset(badj.get(x, ())) & frozenset(part)
                     for x in part},
                )
            for u, v in rec.edges:
                if trouble[u]:
                    served[u] += 1

    out: list[PotentialRun] = []
    for run in runs:
        tails = [log.records[i].edges[0][0] for i in run]
        k = len(tails)
        suffix_sets = [None] * (k + 1)
        acc: set[int] = set()
        for j in range(k, 0, -1):
            acc = acc | {tails[j - 1]}
            suffix_sets[j] = frozenset(acc)

        def potential(j: int) -> Fraction:
            degs, srv, adj = snapshots[run[j - 1]]
            active = suffix_sets[j]
            total = 0
            for x in active:
                total += degs[x] - len(adj[x] & active) - b * srv[x]
            return Fraction(total, len(active))

        p = [None] + [potential(j) for j in range(1, k + 1)]
        result = PotentialRun(start_turn=log.records[run[0]].turn,
                              serves=tails, step_ok=[], step_margin=[])
        for j in range(1, k):
            if suffix_sets[j + 1] == suffix_sets[j]:
                bound = p[j]
            else:
                bound = p[j] + Fraction(b, len(suffix_sets[j])) + 2
            margin = bound - p[j + 1]
            result.step_ok.append(margin >= 0)
            result.step_margin.append(margin)
        a1 = len(suffix_sets[1])
        harmonic = sum(Fraction(1, r) for r in range(1, a1 + 1))
        agg_bound = p[1] + 2 * a1 + b * harmonic
        result.aggregate_margin = agg_bound - p[k]
        result.aggregate_ok = result.aggregate_margin >= 0
        out.append(result)
    return out


def scan_triples_reference(anchors, targets, need, report) -> bool:
    """hamgame.audit._scan_triples as expansion_audit's size-3 phase was
    while it visited every triple in one inline loop: each triple of
    anchors in (i, j, k) order is checked and counted, and those whose
    targets, less the triple, number at most `need` are recorded; False
    once the cap is hit."""
    a = len(anchors)
    capped = False
    for i in range(a):
        for j in range(i + 1, a):
            uij = targets[anchors[i]] | targets[anchors[j]]
            for k in range(j + 1, a):
                subset = (anchors[i], anchors[j], anchors[k])
                sbits = ((1 << subset[0]) | (1 << subset[1])
                         | (1 << subset[2]))
                count = ((uij | targets[subset[2]])
                         & ~sbits).bit_count()
                report.checked += 1
                if count <= need and not report.note_failure(
                        (3, subset, count, need)):
                    capped = True
                    break
            if capped:
                break
        if capped:
            break
    return not capped
