import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbow_hcd import coloring
from rainbow_hcd.coloring import (
    BipartiteMultigraph,
    _color_split_circuit,
    _recolor_pair,
    balanced_k_coloring,
    paired_balanced_2_coloring,
    rebalance_drop_one,
)
from rainbow_hcd.errors import InvariantViolation, PreconditionViolation


def build(x_size, y_size, pairs):
    G = BipartiteMultigraph(x_size, y_size)
    ids = [G.add_edge(x, y) for x, y in pairs]
    return G, ids


def assert_balanced(G, col):
    assert set(col) == set(G.edges)
    groups = [G.incident_x(x) for x in range(G.x_size)]
    groups += [G.incident_y(y) for y in range(G.y_size)]
    groups += list(G.bundles().values())
    for inc in groups:
        counts = Counter(col[e] for e in inc)
        assert set(counts) <= {0, 1}
        assert abs(counts[0] - counts[1]) <= 1


def full_scan_coloring(G, rng):
    """The 2-color reference: from the cyclic start, while any group (x
    vertices, then y vertices, then bundles) is out of balance, recolor
    all edges with one Euler split.  Returns the coloring and the number
    of splits it ran."""
    bundles = [bund for _, bund in sorted(G.bundles().items())]
    groups = [*G._by_x, *G._by_y, *bundles]
    order = [e for bund in bundles for e in bund]
    if rng is not None:
        rng.shuffle(bundles)
    col = {}
    c = rng.randrange(2) if rng is not None else 0
    for bund in bundles:
        for e in bund:
            col[e] = c
            c = (c + 1) % 2

    def first_unbalanced():
        for inc in groups:
            counts = [0, 0]
            for e in inc:
                counts[col[e]] += 1
            if abs(counts[0] - counts[1]) >= 2:
                return inc
        return None

    splits = 0
    while first_unbalanced() is not None:
        _recolor_pair(G, col, order)
        splits += 1
    return col, splits


def seeded(seed):
    return None if seed is None else random.Random(seed)


def random_multigraph(rng):
    """Up to 6 x 6 vertices and 30 edges, half the time shaped like the
    attach round's slot graph: every edge doubled, plus a guard vertex tied
    to one x vertex by a 4-edge bundle."""
    nx = rng.randint(1, 6)
    ny = rng.randint(1, 6)
    pairs = [(rng.randrange(nx), rng.randrange(ny))
             for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.5:
        pairs = [p for p in pairs for _ in range(2)]
        pairs += [(rng.randrange(nx), ny)] * 4
        ny += 1
    return build(nx, ny, pairs)[0]


class TestMultigraph:
    def test_ids_in_insertion_order(self):
        G, ids = build(2, 2, [(0, 0), (0, 1), (0, 0)])
        assert ids == [0, 1, 2]
        assert G.incident_x(0) == [0, 1, 2]
        assert G.incident_y(0) == [0, 2]
        assert G.bundles() == {(0, 0): [0, 2], (0, 1): [1]}

    def test_degree_with_restriction(self):
        G, ids = build(1, 2, [(0, 0), (0, 0), (0, 1)])
        assert G.degree_x(0) == 3
        assert G.degree_x(0, {0, 2}) == 2
        assert G.degree_y(0, {2}) == 0

    def test_range_checks(self):
        G = BipartiteMultigraph(1, 1)
        with pytest.raises(PreconditionViolation):
            G.add_edge(1, 0)


class TestBalancedK:
    def test_four_cycle_two_colors(self):
        G, ids = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        col = balanced_k_coloring(G)
        assert_balanced(G, col)
        # degree two everywhere, so split is exact at each vertex
        assert col[0] != col[1] and col[2] != col[3]
        assert col[0] != col[2] and col[1] != col[3]

    def test_single_bundle(self):
        G, ids = build(1, 1, [(0, 0)] * 5)
        col = balanced_k_coloring(G)
        sizes = sorted(Counter(col.values()).values())
        assert sizes == [2, 3]

    def test_deterministic_and_seed_stable(self):
        pairs = [(x, y) for x in range(3) for y in range(3)] * 2
        G1, _ = build(3, 3, pairs)
        G2, _ = build(3, 3, pairs)
        assert balanced_k_coloring(G1) == balanced_k_coloring(G2)
        a = balanced_k_coloring(G1, rng=random.Random(7))
        b = balanced_k_coloring(G2, rng=random.Random(7))
        assert a == b
        assert_balanced(G1, a)

    def test_failed_split_raises(self, monkeypatch):
        # the cyclic start leaves y0 with two edges of color 0; with the
        # residual split disabled the coloring stays so, and the final
        # check must fire
        monkeypatch.setattr(coloring, "_color_split_circuit", lambda *a: None)
        G, ids = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(InvariantViolation, match="out of balance"):
            balanced_k_coloring(G)

    def test_bundles_built_once(self, monkeypatch):
        pairs = [(x, y) for x in range(4) for y in range(5)] * 3
        G, ids = build(4, 5, pairs)
        calls = []
        real = G.bundles
        monkeypatch.setattr(G, "bundles", lambda: calls.append(1) or real())
        col = balanced_k_coloring(G, rng=random.Random(3))
        assert len(calls) == 1
        assert_balanced(G, col)

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_random_graphs(self, data):
        nx = data.draw(st.integers(1, 6))
        ny = data.draw(st.integers(1, 6))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                max_size=30,
            )
        )
        if data.draw(st.booleans()):
            # shaped like the attach round's slot graph: every slot doubled,
            # plus a guard vertex tied to one class by a 4-edge bundle
            guard = data.draw(st.integers(0, nx - 1))
            pairs = [p for p in pairs for _ in range(2)] + [(guard, ny)] * 4
            ny += 1
        seed = data.draw(st.one_of(st.none(), st.integers(0, 3)))
        G, ids = build(nx, ny, pairs)
        col = balanced_k_coloring(G, rng=seeded(seed))
        assert_balanced(G, col)
        want, splits = full_scan_coloring(G, seeded(seed))
        assert col == want
        # one split always balances, so the reference never needs two
        assert splits <= 1

    def test_both_branches_run(self, monkeypatch):
        # a balanced start is kept and an unbalanced one split once, as in
        # the reference; random graphs reach both
        runs = []
        real = coloring._recolor_pair

        def spy(*args):
            runs.append(1)
            real(*args)

        monkeypatch.setattr(coloring, "_recolor_pair", spy)
        kept = split = 0
        rng = random.Random("both-branches")
        for trial in range(300):
            G = random_multigraph(rng)
            seed = rng.choice([None, trial])
            runs.clear()
            col = balanced_k_coloring(G, rng=seeded(seed))
            want, splits = full_scan_coloring(G, seeded(seed))
            assert col == want
            assert len(runs) == splits
            kept += splits == 0
            split += splits == 1
        assert kept >= 20 and split >= 20, (kept, split)


class TestSplitCircuit:
    def test_odd_closed_circuit_raises(self):
        with pytest.raises(InvariantViolation, match="is odd"):
            _color_split_circuit([0, 1, 2], {})

    def test_odd_closed_circuit_raises_under_optimize(self):
        # the same circuit under python -O, where asserts are stripped
        code = textwrap.dedent("""
            from rainbow_hcd import coloring
            from rainbow_hcd.errors import InvariantViolation

            print(__debug__)
            try:
                coloring._color_split_circuit([0, 1, 2], {})
            except InvariantViolation as exc:
                print(exc)
        """)
        src = Path(coloring.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "False"
        assert "is odd" in lines[1]


def verify_paired(F, mate, one, two):
    assert not one & two
    assert one | two == set(F.edges)
    for e, f in mate.items():
        assert (e in one) != (f in one)
    for y in range(F.y_size):
        assert F.degree_y(y, one) == F.degree_y(y, two)
    for x in range(F.x_size):
        assert abs(F.degree_x(x, one) - F.degree_x(x, two)) <= 1


class TestPaired:
    def test_parallel_pair_split(self):
        F, ids = build(1, 1, [(0, 0), (0, 0)])
        one, two = paired_balanced_2_coloring(F, {0: 1, 1: 0})
        verify_paired(F, {0: 1, 1: 0}, one, two)

    def test_empty_pairing_extended(self):
        F, ids = build(2, 3, [(0, 0), (0, 1), (1, 0), (1, 2), (0, 1), (0, 2)])
        one, two = paired_balanced_2_coloring(F, {})
        verify_paired(F, {}, one, two)

    def test_cross_pair_respected(self):
        # singleton bundles, so pairing across them is allowed
        F, ids = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        pairing = {0: 1, 1: 0, 2: 3, 3: 2}
        one, two = paired_balanced_2_coloring(F, pairing)
        verify_paired(F, pairing, one, two)

    def test_odd_y_degree_rejected(self):
        F, ids = build(1, 1, [(0, 0)])
        with pytest.raises(PreconditionViolation):
            paired_balanced_2_coloring(F, {})

    def test_asymmetric_pairing_rejected(self):
        F, ids = build(1, 2, [(0, 0), (0, 1), (0, 0), (0, 1)])
        with pytest.raises(PreconditionViolation):
            paired_balanced_2_coloring(F, {0: 1})

    def test_mates_must_share_x(self):
        F, ids = build(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(PreconditionViolation):
            paired_balanced_2_coloring(F, {0: 1, 1: 0})

    def test_bundle_double_outside_honoured(self):
        # both edges of the (0, 0) bundle are paired outside it
        F, ids = build(1, 3, [(0, 0), (0, 0), (0, 1), (0, 2), (0, 1), (0, 2)])
        pairing = {0: 2, 2: 0, 1: 3, 3: 1, 4: 5, 5: 4}
        one, two = paired_balanced_2_coloring(F, pairing)
        verify_paired(F, pairing, one, two)

    def test_unextendable_pairing_honoured(self):
        F, ids = build(
            2, 4,
            [(0, 0), (0, 0), (0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        )
        # both two-edge bundles at x0 pair one edge outside, and their
        # leftovers at (0, 0) and (0, 1) stay unpaired
        pairing = {0: 4, 4: 0, 2: 5, 5: 2}
        one, two = paired_balanced_2_coloring(F, pairing)
        verify_paired(F, pairing, one, two)

    def test_seed_stable(self):
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1), (0, 1), (1, 0)]
        F1, _ = build(2, 2, pairs)
        F2, _ = build(2, 2, pairs)
        a = paired_balanced_2_coloring(F1, {}, rng=random.Random(3))
        b = paired_balanced_2_coloring(F2, {}, rng=random.Random(3))
        assert a == b

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_random_graphs(self, data):
        nx = data.draw(st.integers(1, 5))
        ny = data.draw(st.integers(1, 5))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                max_size=24,
            )
        )
        # duplicate every edge so y degrees are even, as in pipeline use
        F = BipartiteMultigraph(nx, ny)
        for x, y in pairs:
            F.add_edge(x, y)
            F.add_edge(x, y)
        # any symmetric pairing of edges that share an x vertex: shuffle
        # the edges at each x and mate a drawn number of them two by two
        pairing = {}
        for x in range(nx):
            inc = data.draw(st.permutations(F.incident_x(x)))
            mated = 2 * data.draw(st.integers(0, len(inc) // 2))
            for a, b in zip(inc[0:mated:2], inc[1:mated:2]):
                pairing[a] = b
                pairing[b] = a
        seed = data.draw(st.integers(0, 3))
        one, two = paired_balanced_2_coloring(F, dict(pairing), rng=random.Random(seed))
        verify_paired(F, pairing, one, two)


def alt_path_exists(G, A, B, x0, eta):
    """Exhaustive search for a vertex-simple alternating path witness."""
    deg_a = [G.degree_x(x, A) for x in range(G.x_size)]

    def dfs(x, used_x, used_y):
        for e in G.incident_x(x):
            if e not in A:
                continue
            y = G.edges[e][1]
            if y in used_y:
                continue
            for f in G.incident_y(y):
                if f not in B:
                    continue
                x2 = G.edges[f][0]
                if x2 in used_x:
                    continue
                if deg_a[x2] < eta:
                    return True
                if dfs(x2, used_x | {x2}, used_y | {y}):
                    return True
        return False

    return dfs(x0, {x0}, set())


def check_drop_preconditions(G, A, B, x0, eta):
    if A & B:
        return False
    for y in range(G.y_size):
        if G.degree_y(y, B) < G.degree_y(y, A):
            return False
    for x in range(G.x_size):
        if G.degree_x(x, A) > eta or G.degree_x(x, B) > eta:
            return False
    a0, b0 = G.degree_x(x0, A), G.degree_x(x0, B)
    tie = (
        a0 == b0
        and a0 % 2 == 1
        and eta % 2 == 0
        and all(G.degree_y(y, B) % 2 == 0 for y in range(G.y_size))
    )
    return a0 > b0 or tie


def check_drop_result(G, A, C, x0, eta):
    assert G.degree_x(x0, C) == G.degree_x(x0, A) - 1
    for y in range(G.y_size):
        assert G.degree_y(y, C) == G.degree_y(y, A)
    gained = [
        x for x in range(G.x_size) if G.degree_x(x, C) == G.degree_x(x, A) + 1
    ]
    assert len(gained) == 1 and gained[0] != x0
    assert all(G.degree_x(x, C) <= eta for x in range(G.x_size))


class TestRebalance:
    def test_simple_shift(self):
        # x0 holds both A edges; B covers both y vertices and links to x1
        G, ids = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        C = rebalance_drop_one(G, A={0, 1}, B={2, 3}, x0=0, eta=2)
        assert C in ({1, 2}, {0, 3})
        check_drop_result(G, {0, 1}, C, 0, 2)

    def test_tie_case(self):
        # equal odd split at x0, even eta, every y with even B degree
        G, ids = build(
            2, 3,
            [(0, 0), (0, 0), (0, 1), (0, 1), (0, 2), (0, 2),
             (1, 0), (1, 1), (1, 2)],
        )
        A = {0, 2, 4}
        B = {1, 3, 5, 6, 7, 8}
        C = rebalance_drop_one(G, A, B, x0=0, eta=4)
        check_drop_result(G, A, C, 0, 4)

    def test_no_surplus_rejected(self):
        G, ids = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(PreconditionViolation):
            rebalance_drop_one(G, A={0}, B={1, 2, 3}, x0=0, eta=2)

    def test_dominance_required(self):
        G, ids = build(2, 1, [(0, 0), (0, 0), (1, 0)])
        with pytest.raises(PreconditionViolation):
            rebalance_drop_one(G, A={0, 1}, B={2}, x0=0, eta=3)

    def test_random_instances_match_brute_force(self):
        # random splits; whenever the preconditions hold, a switching path
        # must exist (cross-checked exhaustively) and the op must find it
        rng = random.Random(20260822)
        exercised = 0
        for _ in range(4000):
            nx = rng.randint(2, 4)
            ny = rng.randint(1, 3)
            m = rng.randint(2, 10)
            pairs = [
                (rng.randrange(nx), rng.randrange(ny)) for _ in range(m)
            ]
            G, ids = build(nx, ny, pairs)
            A = {e for e in ids if rng.random() < 0.35}
            B = set(ids) - A
            x0 = 0
            eta = rng.choice([2, 3, 4])
            if not check_drop_preconditions(G, A, B, x0, eta):
                continue
            if not A:
                continue
            exercised += 1
            assert alt_path_exists(G, A, B, x0, eta)
            C = rebalance_drop_one(G, A, B, x0, eta)
            check_drop_result(G, A, C, x0, eta)
        assert exercised >= 100

    def test_random_tie_instances(self):
        # forced ties: x0 carries d parallel A/B pairs, extra x vertices
        # give every y an even B degree
        rng = random.Random(7)
        for _ in range(200):
            d = rng.choice([1, 3])
            nx = rng.randint(2, 4)
            G = BipartiteMultigraph(nx, d)
            A, B = set(), set()
            for y in range(d):
                A.add(G.add_edge(0, y))
                B.add(G.add_edge(0, y))
                for _ in range(rng.choice([1, 3])):
                    B.add(G.add_edge(rng.randint(1, nx - 1), y))
            eta = max(G.degree_x(x) for x in range(nx))
            eta += eta % 2
            eta = max(eta, 4)
            assert check_drop_preconditions(G, A, B, 0, eta)
            C = rebalance_drop_one(G, A, B, x0=0, eta=eta)
            check_drop_result(G, A, C, 0, eta)
