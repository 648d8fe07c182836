"""Empirical verification of everything the strategy is supposed to
guarantee: expansion of the settled set, its connectivity, the
max-danger potential inequalities, turn accounting, and final cycle
verification.

All log-based checks reconstruct state independently from the move
records (plain sets and dicts, no Board bookkeeping), so they
cross-check the engine rather than echo it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from random import Random

from .board import Board, bits
from .gamelog import GameLog, LogReplayError
from .paths import PathSystem, PathSystemError


# -- expansion -------------------------------------------------------------

# Recording stops here: a state this far from expanding (mid-game loss
# with unwired endpoints) yields nothing per-witness past the first few
# thousand, and scanning them all can dwarf the game itself.
FAILURE_CAP = 5000


@dataclass
class ExpansionReport:
    anchors: int
    checked: int = 0
    failure_count: int = 0
    failures: list[tuple] = field(default_factory=list)
    exact_complete: bool = True

    @property
    def pass_rate(self) -> float:
        if self.checked == 0:
            return 1.0
        return 1.0 - self.failure_count / self.checked

    def note_failure(self, item: tuple) -> bool:
        """Record a failing subset; False once the cap is hit."""
        self.failure_count += 1
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(item)
            return True
        self.exact_complete = False
        return False


def _target_masks(board: Board, ps: PathSystem,
                  anchors: list[int]) -> dict[int, int]:
    """Maker out-neighbour sets restricted to the settled vertices."""
    settled = ps.settled_mask
    out = {}
    for v in anchors:
        m = 0
        for h in board.out_heads[v]:
            m |= 1 << h
        out[v] = m & settled
    return out


def _check_subset(subset: tuple[int, ...], targets: dict[int, int],
                  sbits: int, need: int) -> int | None:
    """Return |N'(subset)| if it fails `> need`, else None."""
    union = 0
    for v in subset:
        union |= targets[v]
    count = (union & ~sbits).bit_count()
    return count if count <= need else None


def expansion_audit(board: Board, ps: PathSystem, rng: Random,
                    samples: int = 10_000,
                    growth_fraction: float = 0.01,
                    nonempty_fraction: float = 0.5) -> ExpansionReport:
    """Check that small anchor subsets see enough settled out-neighbours.

    Two clauses, each applied to subset sizes within its fraction of the
    anchor count: |N'(S)| > 2|S|, and N'(S) nonempty.  Sizes 1-3 are
    exhausted; larger sizes are sampled.  The triple phase skips only
    triples that provably pass: _scan_triples skips each pair whose
    targets already exceed the bound by more than the third member
    could remove, and above 400,000 triples _exact_triples_pruned
    visits only the base pairs a failing triple must contain.
    """
    anchors = sorted(bits(ps.anchor_mask()))
    a = len(anchors)
    report = ExpansionReport(anchors=a)
    if a == 0:
        return report
    targets = _target_masks(board, ps, anchors)
    growth_limit = int(a * growth_fraction)
    nonempty_limit = int(a * nonempty_fraction)

    def need_for(size: int) -> int | None:
        # Strictest clause that applies at this size, None if neither.
        if size <= growth_limit:
            return 2 * size
        if size <= nonempty_limit:
            return 0
        return None

    def record(subset: tuple[int, ...], need: int) -> bool:
        sbits = 0
        for v in subset:
            sbits |= 1 << v
        count = _check_subset(subset, targets, sbits, need)
        report.checked += 1
        if count is not None:
            return report.note_failure((len(subset), subset, count, need))
        return True

    capped = False

    # Size 1.
    need = need_for(1)
    if need is not None:
        for v in anchors:
            if not record((v,), need):
                capped = True
                break

    # Size 2: full scan, cheap at anchor counts this engine produces.
    need = need_for(2)
    if need is not None and a >= 2 and not capped:
        for i in range(a):
            for j in range(i + 1, a):
                if not record((anchors[i], anchors[j]), need):
                    capped = True
                    break
            if capped:
                break

    # Size 3: exact, in (i, j, k) order up to 400,000 triples.
    need = need_for(3)
    if need is not None and a >= 3 and not capped:
        if comb(a, 3) <= 400_000:
            capped = not _scan_triples(anchors, targets, need, report)
        else:
            capped = not _exact_triples_pruned(anchors, targets, need,
                                               report)

    # Sampled larger sizes, split across both clauses.
    sizes = [s for s in range(4, max(growth_limit, nonempty_limit) + 1)]
    sizes = [s for s in sizes if need_for(s) is not None]
    if sizes and samples > 0 and not capped:
        for _ in range(samples):
            size = sizes[rng.randrange(len(sizes))]
            subset = tuple(rng.sample(anchors, size))
            if not record(subset, need_for(size)):
                break
    return report


def _scan_triples(anchors: list[int], targets: dict[int, int], need: int,
                  report: ExpansionReport) -> bool:
    """Every triple of anchors in (i, j, k) order, recording those whose
    targets, less the triple, number at most `need`; False once the cap
    is hit.  A triple on (i, j) can fail only if the targets of i and j,
    less i and j, number at most need + 1 (k removes at most one more),
    so every other pair skips its k-loop.  `checked` grows by the
    triples a full scan would have visited up to that point: all
    C(a, 3), or the capped triple's lexicographic rank plus one."""
    a = len(anchors)
    masks = [targets[v] for v in anchors]
    for i in range(a):
        ti, bi = masks[i], 1 << anchors[i]
        for j in range(i + 1, a):
            bij = bi | (1 << anchors[j])
            uij = ti | masks[j]
            if (uij & ~bij).bit_count() > need + 1:
                continue
            for k in range(j + 1, a):
                count = ((uij | masks[k])
                         & ~(bij | (1 << anchors[k]))).bit_count()
                if count <= need and not report.note_failure(
                        (3, (anchors[i], anchors[j], anchors[k]), count,
                         need)):
                    report.checked += (comb(a, 3) - comb(a - i, 3)
                                       + comb(a - i - 1, 2) - comb(a - j, 2)
                                       + k - j)
                    return False
    report.checked += comb(a, 3)
    return True


def _pack_rows(anchors: list[int], targets: dict[int, int], nbits: int):
    import numpy as np

    words = max(1, (nbits + 63) // 64)
    rows = np.zeros((len(anchors), words), dtype=np.uint64)
    for i, v in enumerate(anchors):
        m = targets[v]
        w = 0
        while m:
            rows[i, w] = m & 0xFFFFFFFFFFFFFFFF
            m >>= 64
            w += 1
    return rows


def _exact_triples_pruned(anchors: list[int], targets: dict[int, int],
                          need: int, report: ExpansionReport) -> bool:
    """Exact triple check without enumerating all C(a,3) triples.

    A failing triple has a target union of at most need+3 vertices, so
    either (a) two members share a target, or the three target sets are
    pairwise disjoint and their sizes sum to at most need+3, which
    forces (b) the two smallest both <= 3, or (c) one of size
    <= need-5 beside two of size >= 4.  Base pairs from those three
    families are scanned against every third member with vectorized
    popcounts; near misses are re-verified exactly.
    """
    import numpy as np

    a = len(anchors)
    nbits = max(anchors) + 1
    rows = _pack_rows(anchors, targets, nbits)
    by_target: dict[int, list[int]] = {}
    for i, v in enumerate(anchors):
        for h in bits(targets[v]):
            by_target.setdefault(h, []).append(i)
    base_pairs: set[tuple[int, int]] = set()
    for group in by_target.values():
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                base_pairs.add((group[x], group[y]))
    small = [i for i, v in enumerate(anchors)
             if targets[v].bit_count() <= 3]
    for x in range(len(small)):
        for y in range(x + 1, len(small)):
            base_pairs.add((small[x], small[y]))
    tiny_cap = need - 5
    if tiny_cap >= 0:
        for i, v in enumerate(anchors):
            if targets[v].bit_count() <= tiny_cap:
                for j in range(a):
                    if j != i:
                        base_pairs.add((min(i, j), max(i, j)))
    if len(base_pairs) * a > 200_000_000:
        report.exact_complete = False
        return False
    slack = np.uint64(need + 3)
    hits: set[tuple[int, int, int]] = set()
    for i, j in base_pairs:
        union = rows[i] | rows[j]
        counts = np.bitwise_count(union | rows).sum(axis=1)
        for k in np.nonzero(counts <= slack)[0]:
            k = int(k)
            if k == i or k == j:
                continue
            subset = tuple(sorted((anchors[i], anchors[j], anchors[k])))
            if subset in hits:
                continue
            sbits = ((1 << subset[0]) | (1 << subset[1])
                     | (1 << subset[2]))
            t = (targets[subset[0]] | targets[subset[1]]
                 | targets[subset[2]])
            count = (t & ~sbits).bit_count()
            if count <= need:
                hits.add(subset)
                if not report.note_failure((3, subset, count, need)):
                    return False
    # Counted as one exhaustive pass over all triples.
    report.checked += a * (a - 1) * (a - 2) // 6
    return True


# -- connectivity ------------------------------------------------------------

def connectivity_audit(board: Board, ps: PathSystem) -> bool:
    """Is the Maker graph induced on the settled set connected?

    Directed edges count in both directions; a settled set of size 0 or
    1 is connected by convention.
    """
    settled = ps.settled_mask
    if settled == 0:
        return True
    start = (settled & -settled).bit_length() - 1
    visited = 1 << start
    frontier = visited
    adj = board.maker_adj
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & settled & ~visited
        visited |= frontier
    return visited == settled


# -- potential trace ---------------------------------------------------------

@dataclass
class PotentialRun:
    start_turn: int
    serves: list[int]                  # a_1..a_k (tails, in order)
    step_ok: list[bool]
    step_margin: list[Fraction]        # bound minus value, >= 0 when ok
    aggregate_ok: bool = True
    aggregate_margin: Fraction = Fraction(0)

    @property
    def ok(self) -> bool:
        return self.aggregate_ok and all(self.step_ok)


def potential_audit(log: GameLog) -> list[PotentialRun]:
    """Re-derive the danger-potential inequalities for every maximal run
    of consecutive service turns, exactly (rational arithmetic).

    For run turns j = 1..k with serving tails a_j and suffix sets
    A_j = {a_m : m >= j}, the potential p(j) averages, over x in A_j,
    the quantity d(x) = breaker_deg(x) - #(Breaker edges from x into
    A_j) - b*served(x), sampled just before the j-th serve.  Checks:
    p(j+1) <= p(j) when A_{j+1} = A_j, else p(j+1) <= p(j) + b/|A_j| + 2,
    and the aggregate p(k) <= p(1) + 2|A_1| + b*H(|A_1|).
    """
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
    participants: dict[int, set[int]] = {
        runs_i: {log.records[i].edges[0][0] for i in run}
        for runs_i, run in enumerate(runs)
    }
    # The snapshots read Breaker edges only between two participants of
    # one run, so only edges between participants (of any run) are kept.
    badj: dict[int, set[int]] = {
        x: set() for part in participants.values() for x in part}
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
                if u in badj and v in badj:
                    badj[u].add(v)
                    badj[v].add(u)
            for v in rec.promoted:
                trouble[v] = 1
        else:
            if idx in serve_indices:
                ri = run_of[idx]
                part = participants[ri]
                snapshots[idx] = (
                    {x: breaker_deg[x] for x in part},
                    {x: served[x] for x in part},
                    {x: badj[x] & part for x in part},
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


# -- cycle verification -------------------------------------------------------

def verify_hamilton(log: GameLog) -> bool:
    """Follow the logged cycle certificate over an independently
    reconstructed Maker edge set."""
    if log.end is None or log.end.get("certificate") is None:
        return False
    n = log.meta["n"]
    cert = log.end["certificate"]
    if len(cert) != n or len(set(cert)) != n:
        return False
    if any(not (0 <= v < n) for v in cert):
        return False
    owned = set()
    for rec in log.records:
        if rec.player == "M":
            for u, v in rec.edges:
                owned.add((u, v) if u < v else (v, u))
    for i in range(n):
        u, v = cert[i], cert[(i + 1) % n]
        key = (u, v) if u < v else (v, u)
        if key not in owned:
            return False
    return True


# -- turn accounting ----------------------------------------------------------

def turn_accounting(log: GameLog) -> dict:
    """Totals and bound evaluations reconstructed purely from the log.

    Replays the settled-set/path-family evolution using the logged case
    labels and promotions, then evaluates the accounting bounds:
    troublesome count vs degree-sum pigeonhole, growth/booster turns vs
    |S| + 3|F|.  A record the path family cannot follow (a join of two
    vertices that are not endpoints of different paths, say) is a
    LogReplayError naming its turn.
    """
    n = log.meta["n"]
    tau = log.meta["tau"]
    hub_lo = n - log.meta["hub_size"]
    ps = PathSystem(n, set(range(hub_lo, n)))
    case_counts: dict[str, int] = {}
    maker_turns = 0
    breaker_edges = 0
    max_settled = ps.settled_mask.bit_count()
    max_paths = ps.path_count()
    booster_turns = 0
    for rec in log.records:
        try:
            if rec.player == "B":
                breaker_edges += len(rec.edges)
                for v in rec.promoted:
                    ps.absorb(v)
            else:
                maker_turns += 1
                if rec.case:
                    case_counts[rec.case] = case_counts.get(rec.case, 0) + 1
                    if "C2" in rec.case and rec.edges:
                        ps.absorb(rec.edges[0][1])
                    elif rec.case == "P1.C1.2a" and rec.edges:
                        ps.join(*rec.edges[0])
                    if "C1.2b(i)" in rec.case and rec.edges:
                        booster_turns += 1
        except PathSystemError as err:
            raise LogReplayError(rec.turn, str(err)) from None
        max_settled = max(max_settled, ps.settled_mask.bit_count())
        max_paths = max(max_paths, ps.path_count())
    trouble_total = sum(
        len(rec.promoted) for rec in log.records if rec.player == "B")
    growth_bound = ps.settled_mask.bit_count() + 3 * ps.path_count()
    summary = {
        "maker_turns": maker_turns,
        "case_counts": dict(sorted(case_counts.items())),
        "max_settled": max_settled,
        "max_paths": max_paths,
        "troublesome": trouble_total,
        "trouble_bound": 2 * breaker_edges / tau,
        "trouble_ok": trouble_total <= 2 * breaker_edges / tau,
        "booster_turns": booster_turns,
        "growth_bound": growth_bound,
        "booster_ok": booster_turns <= growth_bound,
        "case_sum_ok": sum(case_counts.values()) == maker_turns,
    }
    stats = (log.end or {}).get("stats")
    if stats:
        summary["growth_events"] = stats.get("growth_events")
        summary["growth_ok"] = stats.get("growth_events", 0) <= growth_bound
    return summary


# -- per-game wrap-up -----------------------------------------------------------

@dataclass
class AuditReport:
    expansion: ExpansionReport
    connectivity_ok: bool


def live_audit(board: Board, ps: PathSystem, rng: Random,
               samples: int = 10_000) -> AuditReport:
    """End-of-game expansion + connectivity on the live state."""
    expansion = expansion_audit(board, ps, rng, samples=samples)
    return AuditReport(
        expansion=expansion,
        connectivity_ok=connectivity_audit(board, ps),
    )
