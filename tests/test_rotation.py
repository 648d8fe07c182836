"""Rotation machinery against brute-force path enumeration.

Expected sets in the frozen tests were computed once with the oracles in
oracles.py and pasted in as literals; the randomized tests re-derive the
comparison on the fly.
"""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    closure_endpoints_bruteforce,
    closure_states_reference,
    endpoint_pairs_bruteforce,
    longest_path_through,
    random_maker_graph,
)

from hamgame import rotation
from hamgame.board import bits
from hamgame.rotation import (
    SEARCH_BUDGET_FACTOR,
    NormalizeError,
    RotationError,
    TrackedPath,
    advance_tracked_path,
    endpoint_pairs_scan,
    find_closing_pair,
    limited_rotation_closure,
    normalize_endpoints,
)


def masks(adj_sets):
    out = []
    for nbrs in adj_sets:
        m = 0
        for v in nbrs:
            m |= 1 << v
        out.append(m)
    return out


def mask_of(verts):
    m = 0
    for v in verts:
        m |= 1 << v
    return m


# Path 0-1-2-3 plus the chord 3-1; the lone usable pivot is 1.
ADJ4 = [{1}, {0, 2, 3}, {1, 3}, {2, 1}]

# Path 0-1-2-3-4 plus chords 4-1 and 0-3.
ADJ5 = [{1, 3}, {0, 2, 4}, {1, 3}, {2, 4, 0}, {3, 1}]

# Plain 6-cycle.
ADJ6 = [{1, 5}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 0}]


class TestClosure:
    def test_no_chords_means_no_rotation(self):
        adj = masks([{1}, {0, 2}, {1}])
        c = limited_rotation_closure(adj, 0b111, [0, 1, 2])
        assert c.endpoints == [2]

    def test_four_vertex_chord_reaches_both_ends(self):
        # Frozen: {2, 3} (rotation at pivot 1 turns 0-1-2-3 into 0-1-3-2).
        c = limited_rotation_closure(masks(ADJ4), 0b1111, [0, 1, 2, 3])
        assert sorted(c.endpoints) == [2, 3]
        assert c.witness_path(3) == [0, 1, 2, 3]
        assert c.witness_path(2) == [0, 1, 3, 2]
        assert not c.truncated

    def test_pivot_outside_mask_blocks_the_rotation(self):
        c = limited_rotation_closure(masks(ADJ4), mask_of([0, 2, 3]), [0, 1, 2, 3])
        assert c.endpoints == [3]

    def test_witness_paths_are_maker_paths(self):
        adj = masks(ADJ5)
        c = limited_rotation_closure(adj, 0b11111, [0, 1, 2, 3, 4])
        for w in c.endpoints:
            wit = c.witness_path(w)
            assert wit[0] == 0 and wit[-1] == w
            assert len(set(wit)) == 5
            for a, b in zip(wit, wit[1:]):
                assert adj[a] >> b & 1

    def test_rejects_non_path_input(self):
        adj = masks(ADJ4)
        with pytest.raises(RotationError):
            limited_rotation_closure(adj, 0b1111, [0, 1, 0])
        with pytest.raises(RotationError):
            limited_rotation_closure(adj, 0b1111, [0, 2])  # not a Maker edge
        with pytest.raises(RotationError):
            limited_rotation_closure(adj, 0b1111, [0])

    @pytest.mark.parametrize("order, message", [
        # A repeat is named even after a missing edge, as in [0, 2, ...].
        ([0, 2, 1, 2], "repeated vertex 2"),
        ([0, 1, 2, 0, 3], "repeated vertex 0"),
        ([0, 1, 3, 2, 1], "repeated vertex 1"),
        ([0, 2, 1, 3], r"\(0, 2\) is not a Maker edge"),
        ([1, 3, 0, 2], r"\(3, 0\) is not a Maker edge"),
    ])
    def test_path_errors_name_the_first_repeat_then_the_first_gap(
            self, order, message):
        with pytest.raises(RotationError, match=f"^{message}$"):
            limited_rotation_closure(masks(ADJ4), 0b1111, order)

    @pytest.mark.parametrize("order", [[-1, 0, 1, 2], [7, 0, 1, 2],
                                       [0, 1, 2, 3.5]])
    def test_rejects_vertices_outside_the_board(self, order):
        adj = masks([{1}, {0, 2}, {1, 3}, {2}])
        with pytest.raises(RotationError):
            limited_rotation_closure(adj, 0b1111, order)
        with pytest.raises(RotationError):
            endpoint_pairs_scan(adj, 0b1111, order)

    def test_state_budget_sets_truncated(self):
        c = limited_rotation_closure(masks(ADJ4), 0b1111, [0, 1, 2, 3],
                                     max_states=2)
        assert c.truncated
        free = limited_rotation_closure(masks(ADJ4), 0b1111, [0, 1, 2, 3])
        assert not free.truncated

    def test_growing_table_matches_a_presized_one(self):
        # K8: pivots sit at positions 1..n-3, so the 6! orders of the
        # last six vertices are reachable.  An unbounded search and one
        # with a budget far beyond the closure's size find the same
        # paths as one whose budget just fits them.
        n = 8
        adj = masks([set(range(n)) - {v} for v in range(n)])
        sized = limited_rotation_closure(adj, (1 << n) - 1, list(range(n)),
                                         max_states=1000)
        assert len(sized.states) == 720 and not sized.truncated
        for budget in (0, 10**12):
            grown = limited_rotation_closure(adj, (1 << n) - 1,
                                             list(range(n)), max_states=budget)
            assert np.array_equal(grown.states, sized.states)
            assert grown.endpoints == sized.endpoints and not grown.truncated
            assert all(grown.witness_path(w) == sized.witness_path(w)
                       for w in grown.endpoints)

    def test_stop_at_cuts_search_short(self):
        c = limited_rotation_closure(masks(ADJ5), 0b11111, [0, 1, 2, 3, 4],
                                     stop_at=lambda e: e == 4)
        assert c.endpoints == [4]

    def test_each_state_is_stored_once(self):
        # Each explored path after the first is kept as its parent and
        # pivot, not as a copy of the path: a budgeted closure on a
        # chorded n = 1000 path puts far less than one n-sized block per
        # state on the heap that tracemalloc traces.
        n = 1000
        rng = random.Random(1000)
        adj_sets = [set() for _ in range(n)]
        for a, b in [(v, v + 1) for v in range(n - 1)] + [
                tuple(rng.sample(range(n), 2)) for _ in range(4 * n)]:
            adj_sets[a].add(b)
            adj_sets[b].add(a)
        adj = masks(adj_sets)
        base = np.arange(n, dtype=np.int32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c = limited_rotation_closure(adj, (1 << n) - 1, base,
                                         max_states=256)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert c.truncated and len(c.states) == 256
        assert peak < 0.25 * len(c.states) * 4 * n
        assert c.states.shape == (256, n)


def random_chorded_case(seed):
    """The path 0..n-1 on 6-10 vertices plus random chords, with random
    pivots and a random stop_at target set (empty for even seeds):
    (adj sets, pivots, path, stop targets)."""
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    adj = chorded_path(seed, n, rng.randint(n, 4 * n))
    adj_sets = [{v for v in range(n) if a >> v & 1} for a in adj]
    pivots = {v for v in range(n) if rng.random() < 0.8}
    targets = set(rng.sample(range(n), 2)) if seed % 2 else set()
    return adj_sets, pivots, tuple(range(n)), targets


class TestExactOrder:
    """The closure against closure_states_reference: the same paths in
    the same order, and the same endpoints, witnesses and truncation."""

    @pytest.mark.parametrize("hashing", ["real", "constant"])
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 17, 256])
    def test_states_match_reference(self, monkeypatch, hashing, budget):
        if hashing == "constant":
            # Every new path then shares one hash, so deduplication
            # rests on the exact compare with rebuilt paths.
            monkeypatch.setattr(rotation, "hash", lambda key: 0,
                                raising=False)
        for seed in range(30):
            adj_sets, pivots, base, targets = random_chorded_case(seed)
            stop_at = (lambda e: e in targets) if targets else None
            want, ends, witness, truncated = closure_states_reference(
                adj_sets, pivots, base, max_states=budget, stop_at=stop_at)
            if hashing == "constant" and len(want) > 350:
                continue    # all-colliding dedup is quadratic in states
            got = limited_rotation_closure(
                masks(adj_sets), mask_of(pivots), list(base),
                max_states=budget, stop_at=stop_at)
            assert [tuple(row) for row in got.states.tolist()] == want
            assert len(got) == len(want)
            assert got.endpoints == ends
            assert got.truncated == truncated
            # Witnesses are rebuilt in any order, not only the found one.
            for w in reversed(ends):
                assert got.witness_path(w) == list(witness[w])


def chain_case(seed, links=80, extra=4):
    """A path 0..n-1 whose chords walk the free end back three places
    per rotation: end n-1 meets pivot n-4, whose successor n-3 meets
    pivot n-7, whose successor n-6 meets pivot n-10, and so on.  The
    pivots are the chain's, so each chain state has one new rotation
    and the last lies `links` rotations deep; `extra` random chords,
    each with one end made a pivot, add a few side branches.
    Returns (adj sets, pivots, path)."""
    n = 3 * links + 20
    rng = random.Random(seed)
    adj_sets = [set() for _ in range(n)]
    chords = [(n - 1, n - 4)] + [(n - 3 * j, n - 3 * j - 4)
                                 for j in range(1, links)]
    chords += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    for a, b in [(v, v + 1) for v in range(n - 1)] + chords:
        adj_sets[a].add(b)
        adj_sets[b].add(a)
    pivots = {b for _, b in chords[:links]} | {a for a, _ in chords[links:]}
    return adj_sets, pivots, tuple(range(n))


def edges_traded(row, base):
    """How many edges of the path row are not edges of the path base: a
    lower bound on the rotations between them."""
    def edges(p):
        return {frozenset(e) for e in zip(p, p[1:])}
    return len(edges(row) - edges(base))


class TestWalkEquivalence:
    """The closure's pivot-chain positions and edge-set keys against
    closure_states_reference on deep chains and on large paths: the same
    paths in the same order, endpoints, witnesses and truncation."""

    def check(self, adj_sets, pivots, base, budget, stop_at):
        want, ends, witness, truncated = closure_states_reference(
            adj_sets, pivots, base, max_states=budget, stop_at=stop_at)
        got = limited_rotation_closure(
            masks(adj_sets), mask_of(pivots), list(base),
            max_states=budget, stop_at=stop_at)
        assert [tuple(row) for row in got.states.tolist()] == want
        assert got.endpoints == ends
        assert got.truncated == truncated
        for w in reversed(ends):
            assert got.witness_path(w) == list(witness[w])
        return want

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [0, 40])
    def test_deep_chain(self, seed, budget):
        adj_sets, pivots, base = chain_case(seed)
        want = self.check(adj_sets, pivots, base, budget, None)
        if not budget:
            assert max(edges_traded(row, base) for row in want) >= 50
        # Stop at the end the chain reaches 60 rotations down.
        target = base[-1] - 3 * 60
        self.check(adj_sets, pivots, base, budget, lambda e: e == target)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("budget", [256, 1024])
    def test_large_chorded_path(self, seed, budget):
        n = 1000
        adj = chorded_path(1000 + seed, n, 4 * n)
        adj_sets = [set(bits(a)) for a in adj]
        rng = random.Random(seed)
        pivots = {v for v in range(n) if rng.random() < 0.8}
        base = tuple(range(n))
        want = self.check(adj_sets, pivots, base, budget, None)
        assert len(want) == budget
        # Stop at the endpoint the unstopped search found halfway.
        _, ends, _, _ = closure_states_reference(adj_sets, pivots, base,
                                                 max_states=budget)
        target = ends[len(ends) // 2]
        self.check(adj_sets, pivots, base, budget, lambda e: e == target)


def test_search_memory_does_not_grow_with_n_times_budget():
    """Budget-4096 closing-pair and pair scans on a chorded n = 2000
    path both truncate, and raise the process's peak RSS by a few MB
    (one n-wide table of 4096 paths alone would be 16 MB or more)."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    script = textwrap.dedent("""
        import random
        from hamgame.rotation import endpoint_pairs_scan, find_closing_pair

        def peak_mb():
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024

        n = 2000
        rng = random.Random(2000)
        adj = [0] * n
        for a, b in [(v, v + 1) for v in range(n - 1)] + [
                tuple(rng.sample(range(n), 2)) for _ in range(4 * n)]:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        everyone = (1 << n) - 1
        order = list(range(n))
        before = peak_mb()
        _, cut = find_closing_pair(adj, [0] * n, everyone, everyone, order,
                                   budget=4096)
        _, cut_pairs = endpoint_pairs_scan(adj, everyone, order,
                                           budget=4096)
        print(peak_mb() - before, cut, cut_pairs)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    growth, cut, cut_pairs = out.stdout.split()
    assert cut == cut_pairs == "True"
    assert float(growth) < 8


class TestEndpointPairs:
    def test_bare_path_gives_its_own_ends(self):
        adj = masks([{1}, {0, 2}, {1, 3}, {2}])
        pairs, truncated = endpoint_pairs_scan(adj, 0b1111, [0, 1, 2, 3])
        assert pairs == {(0, 3)}
        assert not truncated

    def test_five_vertex_two_chords_frozen(self):
        # Frozen from endpoint_pairs_bruteforce on ADJ5, all pivots.
        got, truncated = endpoint_pairs_scan(masks(ADJ5), 0b11111,
                                             [0, 1, 2, 3, 4])
        assert got == {(0, 2), (0, 4), (2, 4)}
        assert not truncated

    def test_five_vertex_restricted_pivots_frozen(self):
        # Chord midpoints 1 and 3 are the only pivots that matter here,
        # so restricting to them changes nothing.
        got, truncated = endpoint_pairs_scan(masks(ADJ5), mask_of([1, 3]),
                                             [0, 1, 2, 3, 4])
        assert got == {(0, 2), (0, 4), (2, 4)}
        assert not truncated

    def test_cycle_with_both_path_ends_labeled(self):
        # Opening the 6-cycle at its one anchor-anchor edge (5-0) is the
        # input path itself, and that pair is exactly what comes back.
        got, truncated = endpoint_pairs_scan(masks(ADJ6), mask_of([0, 5]),
                                             [0, 1, 2, 3, 4, 5])
        assert got == {(0, 5)}
        assert not truncated
        assert len(got) >= 1  # one labeled cycle edge, at least one pair

    def test_cycle_matches_oracle_under_full_labeling(self):
        got, truncated = endpoint_pairs_scan(masks(ADJ6), 0b111111,
                                             [0, 1, 2, 3, 4, 5])
        assert not truncated
        want = endpoint_pairs_bruteforce(ADJ6, {0, 1, 2, 3, 4, 5},
                                         (0, 1, 2, 3, 4, 5))
        assert got == want

    def test_total_budget_reports_truncation(self):
        pairs, truncated = endpoint_pairs_scan(
            masks(ADJ5), 0b11111, [0, 1, 2, 3, 4], budget=1)
        assert truncated
        full, truncated = endpoint_pairs_scan(
            masks(ADJ5), 0b11111, [0, 1, 2, 3, 4], budget=10_000)
        assert not truncated
        assert full == {(0, 2), (0, 4), (2, 4)}
        assert pairs <= full


def chorded_path(seed, n=10, chords=12):
    """The path 0..n-1 plus random Maker chords."""
    rng = random.Random(seed)
    adj_sets = [set() for _ in range(n)]
    for a, b in [(v, v + 1) for v in range(n - 1)] + [
            tuple(rng.sample(range(n), 2)) for _ in range(chords)]:
        adj_sets[a].add(b)
        adj_sets[b].add(a)
    return masks(adj_sets)


class TestTwoLevelBudget:
    """Both two-level searches, watched through every closure they run:
    a closure holds at most its cap and each cap is at most the budget,
    the whole search holds at most SEARCH_BUDGET_FACTOR * budget, and
    truncated is set exactly when a cap stopped it with work left."""

    N = 10
    HUBS = mask_of(range(0, 10, 2))

    def search(self, entry, adj, budget):
        order = list(range(self.N))
        pivots = (1 << self.N) - 1
        if entry == "pairs":
            return endpoint_pairs_scan(adj, pivots, order, budget=budget)
        return find_closing_pair(adj, [0] * self.N, pivots, self.HUBS,
                                 order, budget=budget)

    @pytest.mark.parametrize("entry", ["pairs", "closing"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 40, 10_000])
    def test_budget_accounting(self, monkeypatch, entry, seed, budget):
        adj = chorded_path(seed, self.N)
        unbounded, _ = self.search(entry, adj, 0)
        calls = []
        real = rotation.limited_rotation_closure

        def spy(*args, **kwargs):
            closure = real(*args, **kwargs)
            calls.append((kwargs["max_states"], closure))
            return closure

        monkeypatch.setattr(rotation, "limited_rotation_closure", spy)
        got, truncated = self.search(entry, adj, budget)

        spent = 0
        for cap, closure in calls:
            assert 0 < cap <= budget
            assert len(closure.states) <= cap
            # A closure is cut exactly when it fills its cap.
            assert closure.truncated == (len(closure.states) == cap)
            spent += len(closure.states)
        assert spent <= SEARCH_BUDGET_FACTOR * budget
        # The walk itself stops once the budget is spent while
        # first-level states it has not reached remain.
        first = calls[0][1].states
        last = max((int(np.flatnonzero(
            (first == closure.states[0][::-1]).all(axis=1))[0])
            for _, closure in calls[1:]), default=0)
        stopped = (spent == SEARCH_BUDGET_FACTOR * budget
                   and last < len(first) - 1)
        assert truncated == (stopped or any(c.truncated for _, c in calls))
        if not truncated:
            assert got == unbounded

    def test_unbounded_search_passes_no_cap(self, monkeypatch):
        caps = []
        real = rotation.limited_rotation_closure

        def spy(*args, **kwargs):
            caps.append(kwargs["max_states"])
            return real(*args, **kwargs)

        monkeypatch.setattr(rotation, "limited_rotation_closure", spy)
        for entry in ("pairs", "closing"):
            _, truncated = self.search(entry, chorded_path(5, self.N), 0)
            assert not truncated
        assert len(caps) > 2 and set(caps) == {0}


class TestNormalize:
    def test_identity_when_both_ends_are_anchors(self):
        adj = masks([{1}, {0, 2}, {1}])
        assert normalize_endpoints(adj, 0b101, [0, 1, 2]) == [0, 1, 2]

    def test_cycle_move_reopens_at_anchor_anchor_edge(self):
        # 0-1-2-3-4-5 plus Maker edge 5-0; ends 4,5 are family interior.
        # Frozen output: cut after edge (0,1), path becomes 1..5,0.
        adj = masks([{1, 5}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 0}])
        anchors = mask_of([0, 1, 2, 3])
        got = normalize_endpoints(adj, anchors, [0, 1, 2, 3, 4, 5])
        assert got == [1, 2, 3, 4, 5, 0]
        assert anchors >> got[0] & 1 and anchors >> got[-1] & 1
        for a, b in zip(got, got[1:]):
            assert adj[a] >> b & 1

    def test_exchange_move_lands_on_anchor(self):
        # Bad endpoint 5 has chord to interior 2; exchange drops edge 2-3
        # and the far side flips, ending at anchor 3.
        adj = masks([{1}, {0, 2}, {1, 3, 5}, {2, 4}, {3, 5}, {4, 2}])
        got = normalize_endpoints(adj, mask_of([0, 3]), [0, 1, 2, 3, 4, 5])
        assert got == [0, 1, 2, 5, 4, 3]
        for a, b in zip(got, got[1:]):
            assert adj[a] >> b & 1
        assert set(got) == set(range(6))

    def test_singleton(self):
        assert normalize_endpoints([0b10, 0b1], 0b01, [0]) == [0]
        with pytest.raises(NormalizeError):
            normalize_endpoints([0b10, 0b1], 0b10, [0])

    def test_no_move_raises(self):
        adj = masks([{1}, {0, 2}, {1}])
        with pytest.raises(NormalizeError):
            normalize_endpoints(adj, 0b010, [0, 1, 2])


class TestClosingPair:
    def test_plain_path_between_hubs(self):
        adj = masks([{1}, {0, 2}, {1, 3}, {2}])
        hit, truncated = find_closing_pair(
            adj, [0, 0, 0, 0], 0b1111, mask_of([0, 3]), [0, 1, 2, 3])
        assert not truncated
        a, b, wit = hit
        assert (a, b) == (0, 3)
        assert {wit[0], wit[-1]} == {0, 3}
        assert set(wit) == {0, 1, 2, 3}
        for x, y in zip(wit, wit[1:]):
            assert adj[x] >> y & 1

    def test_breaker_claimed_edge_blocks_the_pair(self):
        adj = masks([{1}, {0, 2}, {1, 3}, {2}])
        badj = [0b1000, 0, 0, 0b0001]  # Breaker owns 0-3
        hit, truncated = find_closing_pair(
            adj, badj, 0b1111, mask_of([0, 3]), [0, 1, 2, 3])
        assert hit is None and not truncated

    def test_maker_owned_edge_is_not_a_booster(self):
        adj = masks([{1, 3}, {0, 2}, {1, 3}, {2, 0}])  # cycle already there
        hit, _ = find_closing_pair(
            adj, [0] * 4, 0b1111, mask_of([0, 3]), [0, 1, 2, 3])
        assert hit is None

    def test_lexicographically_least_pair_wins(self):
        # Chord 3-1 makes both (0,3) and (0,2) realizable; (0,2) is least.
        adj = masks(ADJ4)
        hit, _ = find_closing_pair(
            adj, [0] * 4, 0b1111, mask_of([0, 2, 3]), [0, 1, 2, 3])
        assert hit[:2] == (0, 2)

    def test_tiny_budget_flags_truncation(self):
        adj = masks(ADJ5)
        hit, truncated = find_closing_pair(
            adj, [0] * 5, 0b11111, 0b11111, [0, 1, 2, 3, 4], budget=1)
        assert truncated


class TestAdvance:
    def test_stuck_path_stays_put(self):
        adj = masks([{1}, {0, 2}, {1}])
        tp = TrackedPath(order=[0, 1, 2], mask=0b111)
        tp, grew = advance_tracked_path(adj, 0b111, 0b111, tp)
        assert not grew
        assert tp.order == [0, 1, 2]

    def test_greedy_extension_from_either_end(self):
        adj = masks([{1}, {0, 2}, {1, 3}, {2, 4}, {3}])
        tp = TrackedPath(order=[1, 2], mask=0b110)
        tp, grew = advance_tracked_path(adj, 0, 0, tp)
        assert grew
        assert set(tp.order) == {0, 1, 2, 3, 4}

    def test_rotation_unlocks_blocked_extension(self):
        # Ends 0 and 3 are stuck; rotating at pivot 1 exposes endpoint 2,
        # which extends through 4 to 5.  Frozen: 0-1-3-2-4-5.
        adj = masks([{1}, {0, 2, 3}, {1, 3, 4}, {2, 1}, {2, 5}, {4}])
        tp = TrackedPath(order=[0, 1, 2, 3], mask=0b1111)
        tp, grew = advance_tracked_path(adj, 0b1111, 0b1111, tp)
        assert grew
        assert tp.order == [0, 1, 3, 2, 4, 5]
        assert len(tp.order) == longest_path_through(
            [{1}, {0, 2, 3}, {1, 3, 4}, {2, 1}, {2, 5}, {4}], 0)

    def test_closed_cycle_opens_to_absorb_attached_path(self):
        # 4-cycle 0-1-2-3 with a bridge 2-4 into the path 4-5-6-7: the
        # opener must pick cycle edge (1,2), then greedy extension walks
        # the whole attachment.  Absorbing one attachment vertex brings
        # in all of them.
        adj_sets = [{1, 3}, {0, 2}, {1, 3, 4}, {2, 0}, {2, 5}, {4, 6},
                    {5, 7}, {6}]
        adj = masks(adj_sets)
        tp = TrackedPath(order=[0, 1, 2, 3], mask=0b1111, cycle_closed=True)
        tp, grew = advance_tracked_path(adj, 0b1111, 0b1111, tp)
        assert grew
        assert not tp.cycle_closed
        assert set(tp.order) == set(range(8))
        assert len(tp.order) == longest_path_through(adj_sets, 0) == 8
        for a, b in zip(tp.order, tp.order[1:]):
            assert adj[a] >> b & 1

    def test_spanning_closed_cycle_is_left_alone(self):
        adj = masks([{1, 3}, {0, 2}, {1, 3}, {2, 0}])
        tp = TrackedPath(order=[0, 1, 2, 3], mask=0b1111, cycle_closed=True)
        tp, grew = advance_tracked_path(adj, 0b1111, 0b1111, tp)
        assert not grew
        assert tp.cycle_closed
        assert tp.order == [0, 1, 2, 3]

    def test_opening_that_cannot_grow_is_rolled_back(self):
        # Outside vertex 4 exists but is unreachable from the cycle, so
        # every trial opening fails and the cycle stays closed.
        adj = masks([{1, 3}, {0, 2}, {1, 3}, {2, 0}, set()])
        tp = TrackedPath(order=[0, 1, 2, 3], mask=0b1111, cycle_closed=True)
        tp, grew = advance_tracked_path(adj, 0b1111, 0b1111, tp)
        assert not grew and tp.cycle_closed

    def test_mask_tracks_order(self):
        adj = masks([{1}, {0, 2}, {1, 3}, {2, 4}, {3}])
        tp = TrackedPath(order=[2, 3], mask=0b1100)
        tp, _ = advance_tracked_path(adj, 0, 0, tp)
        assert tp.mask == mask_of(tp.order)


class TestSeed:
    def test_seed_is_a_one_vertex_path(self):
        tp = TrackedPath.seed(7)
        assert tp.order == [7]
        assert tp.mask == 1 << 7
        assert not tp.cycle_closed
        assert len(tp) == 1


def random_pivots(rng, n):
    return {v for v in range(n) if rng.random() < 0.7}


class TestOracleEquivalence:
    """Two independent routes to the reachable-endpoint sets must agree."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_closure_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        adj_sets, base = random_maker_graph(rng, n, rng.randint(0, 5))
        pivots = random_pivots(rng, n)
        got = limited_rotation_closure(masks(adj_sets), mask_of(pivots), base)
        want = closure_endpoints_bruteforce(adj_sets, pivots, base)
        assert set(got.endpoints) == want
        assert len(got.endpoints) == len(set(got.endpoints))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_pairs_match_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        adj_sets, base = random_maker_graph(rng, n, rng.randint(0, 4))
        pivots = random_pivots(rng, n)
        got, truncated = endpoint_pairs_scan(masks(adj_sets), mask_of(pivots),
                                             base)
        want = endpoint_pairs_bruteforce(adj_sets, pivots, base)
        assert got == want
        assert not truncated

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_closing_pair_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        adj_sets, base = random_maker_graph(rng, n, rng.randint(0, 4))
        pivots = random_pivots(rng, n)
        hubs = {v for v in range(n) if rng.random() < 0.6}
        free = [(a, c) for a, c in combinations(range(n), 2)
                if c not in adj_sets[a]]
        breaker = set(rng.sample(free, rng.randint(0, len(free))))
        breaker_sets = [{c for a, c in breaker if a == v}
                        | {a for a, c in breaker if c == v} for v in range(n)]
        hit, truncated = find_closing_pair(
            masks(adj_sets), masks(breaker_sets), mask_of(pivots),
            mask_of(hubs), base)
        assert not truncated
        want = min((pair for pair in endpoint_pairs_bruteforce(
                        adj_sets, pivots, base)
                    if pair[0] != pair[1] and set(pair) <= hubs
                    and pair[1] not in adj_sets[pair[0]]
                    and pair not in breaker), default=None)
        if want is None:
            assert hit is None
            return
        u, w, witness = hit
        assert (u, w) == want
        assert {witness[0], witness[-1]} == {u, w}
        assert sorted(witness) == sorted(base)
        for a, c in zip(witness, witness[1:]):
            assert c in adj_sets[a]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_closure_states_are_distinct_valid_paths(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        adj_sets, base = random_maker_graph(rng, n, rng.randint(0, 4))
        adj = masks(adj_sets)
        pivots = random_pivots(rng, n)
        c = limited_rotation_closure(adj, mask_of(pivots), base)
        seen = set()
        for state in c.states:
            wit = [int(v) for v in state]
            assert wit[0] == base[0]
            assert sorted(wit) == sorted(base)
            for a, b in zip(wit, wit[1:]):
                assert adj[a] >> b & 1
            seen.add(tuple(wit))
        assert len(seen) == len(c.states)
