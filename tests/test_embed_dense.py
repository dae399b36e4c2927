import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import rainbow_hcd
from rainbow_hcd.embed_dense import (
    _choose_subgraph,
    _Cls,
    _round_robin,
    _second_donor_cut,
    embed_dense,
    verify_embedded_forests,
)
from rainbow_hcd.errors import InvariantViolation, PreconditionViolation
from rainbow_hcd.families import (
    EXHAUSTIVE_CAP,
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from rainbow_hcd.graph_core import (
    Decomposition,
    analyze_linear_forest,
    component_edge_groups,
    edge,
    edge_vertices,
    verify_certificate,
)
from rainbow_hcd.hilton import ForestSplit
from rainbow_hcd.solver import solve


def recurse(edges):
    return solve(edges)


def run(h_edges, n, seed=0):
    trace = []
    dec = embed_dense(h_edges, n, lambda e: solve(e, seed), trace=trace).dec
    verify_embedded_forests(dec, h_edges, n)
    return dec, trace


class TestRoundRobin:
    @pytest.mark.parametrize("r", range(2, 13))
    def test_partitions_complete_graph(self, r):
        rounds = _round_robin(r)
        flat = [e for match in rounds for e in match]
        assert len(flat) == len(set(flat)) == r * (r - 1) // 2
        assert len(rounds) == (r - 1 if r % 2 == 0 else r)
        for match in rounds:
            ends = [v for e in match for v in e]
            assert len(ends) == len(set(ends))

    def test_trivial_sizes(self):
        assert _round_robin(0) == []
        assert _round_robin(1) == []


class TestExitCheck:
    # K_5 as the paths 0-1-2-3-4, 1-4-2-0 and 1-3-0-4 at n = 3: a class
    # that holds its input edge needs 2r - 2n - 1 = 3 edges, one without 4
    @staticmethod
    def split():
        return Decomposition(5, [
            {edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)},
            {edge(1, 4), edge(2, 4), edge(0, 2)},
            {edge(1, 3), edge(0, 3), edge(0, 4)},
        ])

    def test_class_on_its_floor_passes(self):
        verify_embedded_forests(self.split(), [(0, 1), (0, 2), (0, 3)], 3)

    def test_class_below_its_floor_is_rejected(self):
        # class 2 holds 3 edges but no input edge
        with pytest.raises(
            InvariantViolation, match="class 2 has 3 edges, floor 4 at the embed exit"
        ):
            verify_embedded_forests(self.split(), [(0, 1), (0, 2)], 3)

    def test_class_without_its_edge_is_rejected(self):
        # the split passes the stage check, but class 2 does not hold (0, 2)
        with pytest.raises(InvariantViolation, match="edge 2 missing from class 2"):
            verify_embedded_forests(self.split(), [(0, 1), (1, 4), (0, 2)], 3)

    def test_class_with_a_cycle_is_an_internal_fault(self):
        dec = Decomposition(3, [{edge(0, 1), edge(1, 2), edge(0, 2)}])
        with pytest.raises(InvariantViolation, match="class 0 at the embed exit"):
            verify_embedded_forests(dec, [(0, 1)], 1)


def random_linear_forest(rng, r):
    """The edges of a random linear forest on 0..r-1: the vertices in a
    random order, cut into runs, each run a path."""
    order = rng.sample(range(r), r)
    edges = set()
    for a, b in zip(order, order[1:]):
        if rng.random() < 0.7:
            edges.add(edge(a, b))
    return edges


class TestSecondDonorCut:
    @staticmethod
    def reference(target, donor, r):
        """The cut read from full scans of both classes: every donor edge
        at an interior vertex of the target, and the edge entering each
        target path end, walking each donor path from its lower end."""
        tview = analyze_linear_forest(target.edges, range(r))
        interior = set(tview.interior)
        ends = set(tview.endpoints)
        withheld = set()
        for p in analyze_linear_forest(donor.edges, range(r)).paths:
            for prev, v in zip(p, p[1:]):
                if prev in interior or v in interior or v in ends:
                    withheld.add(edge(prev, v))
        return withheld

    def test_degrees_give_the_cut_of_the_scans(self):
        rng = random.Random(0)
        for _ in range(500):
            r = rng.randrange(2, 16)
            target = _Cls(random_linear_forest(rng, r), 1)
            # a donor shares no edge with its target
            donor = _Cls(random_linear_forest(rng, r) - target.edges, 0)
            assert (_second_donor_cut(target, donor, r)
                    == self.reference(target, donor, r))


class TestPreconditions:
    def test_rejects_empty(self):
        with pytest.raises(PreconditionViolation):
            embed_dense([], 3, recurse)

    def test_rejects_too_many_edges(self):
        with pytest.raises(PreconditionViolation):
            embed_dense(path_graph(4), 3, recurse)

    def test_rejects_sparse_labels(self):
        with pytest.raises(PreconditionViolation):
            embed_dense([edge(0, 1), edge(1, 3)], 5, recurse)

    def test_rejects_repeated_edge(self):
        with pytest.raises(PreconditionViolation):
            embed_dense([edge(0, 1), edge(0, 1), edge(1, 2)], 5, recurse)

    def test_rejects_single_edge_component(self):
        with pytest.raises(PreconditionViolation):
            embed_dense(disjoint_union(path_graph(2), path_graph(1)), 6, recurse)

    @pytest.mark.parametrize(
        "h, n", [(star_graph(3), 3), (path_graph(2), 2)], ids=["K1,3", "P3"]
    )
    def test_rejects_fewer_than_six_classes(self, h, n):
        # solve sends every n <= 5 to base-small, never here
        with pytest.raises(PreconditionViolation, match="n >= 6"):
            embed_dense(h, n, recurse)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_rejects_a_linear_forest_above_the_direct_regime(self, k):
        # k x P3 at n = 2k, k odd, is a linear forest the recursive regime
        # cannot embed (donor classes below the spread bound); solve lays
        # every linear forest with n >= 6 on the hub construction instead
        h = disjoint_union(*[path_graph(2)] * k)
        with pytest.raises(PreconditionViolation, match="linear forest"):
            embed_dense(h, 2 * k, recurse)
        cert = solve(h, seed=0)
        assert cert.trace[0] == "route: linear-forest"
        assert verify_certificate(cert).ok


class TestWholeDomain:
    def test_every_small_graph_embeds_or_meets_its_precondition(self):
        # every graph of at most EXHAUSTIVE_CAP edges whose components all
        # have two or more edges, at n = max(6, k) .. k + 14: the embed
        # returns the states and masks of a fresh scan of its split, or
        # refuses a linear forest with r > n; an InternalInfeasible fails
        # the test
        outcomes = Counter()
        for k in range(1, EXHAUSTIVE_CAP + 1):
            for h in nonisomorphic_edge_graphs(k):
                if min(map(len, component_edge_groups(h))) < 2:
                    continue
                r = len(edge_vertices(h))
                for n in range(max(6, k), k + 15):
                    try:
                        split = embed_dense(h, n, recurse)
                    except PreconditionViolation as exc:
                        assert f"a linear forest with r={r} > n={n}" in str(exc)
                        outcomes["precondition"] += 1
                        continue
                    scan = ForestSplit.scan(split.dec.copy())
                    assert ([(e.partner, e.isolated) for e in split.ends]
                            == [(e.partner, e.isolated) for e in scan.ends])
                    assert split.free == scan.free
                    outcomes["recursive" if r > n else "direct"] += 1
        assert outcomes == {"direct": 933, "recursive": 23, "precondition": 9}


class TestDirectRegime:
    # r <= n: one near-perfect matching schedule carries the split
    def test_small_path(self):
        h = path_graph(3)
        dec, trace = run(h, 6)
        assert dec.order == 4
        assert trace == ["embed: r=4 t=3 direct matchings"]
        for i, e in enumerate(h):
            assert e in dec.classes[i]

    def test_triangle_plus_path(self):
        h = disjoint_union(cycle_graph(3), path_graph(2))
        dec, trace = run(h, 6)
        assert dec.order == 6
        assert "direct matchings" in trace[0]

    def test_boundary_r_equals_n(self):
        h = disjoint_union(cycle_graph(4), path_graph(3))
        dec, trace = run(h, 8)
        assert dec.order == 8
        assert "direct" in trace[0]


class TestRecursiveRegime:
    def test_case1_even_r(self):
        # r=10, n=9: 3r <= 4n-1 picks the single-donor moves
        h = disjoint_union(star_graph(3), path_graph(2), path_graph(2))
        dec, trace = run(h, 9)
        assert dec.order == 10
        assert trace[-1] == "embed: r=10 t=7 s=5 case=1"

    def test_case1_odd_r(self):
        h = disjoint_union(star_graph(3), path_graph(6))
        dec, trace = run(h, 9)
        assert dec.order == 11
        assert "case=1" in trace[-1]

    def test_case2_even_r(self):
        # 3r >= 4n forces the two-donor moves
        h = disjoint_union(
            cycle_graph(3), path_graph(2), path_graph(2), path_graph(2)
        )
        dec, trace = run(h, 9)
        assert dec.order == 12
        assert "case=2" in trace[-1]

    def test_case2_odd_r(self):
        h = disjoint_union(star_graph(3), path_graph(3), path_graph(2))
        dec, trace = run(h, 8)
        assert dec.order == 11
        assert "case=2" in trace[-1]

    def test_case2_thick_below_n(self):
        h = disjoint_union(star_graph(3), *[path_graph(2)] * 4)
        dec, trace = run(h, 12)
        assert dec.order == 16
        assert "case=2" in trace[-1]

    def test_keeps_every_input_edge_in_own_class(self):
        h = disjoint_union(cycle_graph(3), *[path_graph(2)] * 5)
        dec, _ = run(h, 13)
        for i, e in enumerate(h):
            assert e in dec.classes[i]

    def test_deterministic_for_fixed_seed(self):
        h = disjoint_union(star_graph(3), path_graph(6))
        a, _ = run(h, 9, seed=5)
        b, _ = run(h, 9, seed=5)
        assert a.classes == b.classes


class TestInvariants:
    def test_truncation_check_raises_under_optimize(self):
        # a child certificate whose first cycle lost its edges, under
        # python -O, where asserts are stripped
        code = textwrap.dedent("""
            from rainbow_hcd.embed_dense import embed_dense
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.families import star_graph
            from rainbow_hcd.solver import solve

            def recurse(edges):
                child = solve(edges)
                child.decomposition.classes[0].clear()
                return child

            print(__debug__)
            try:
                embed_dense(star_graph(6), 6, recurse)
            except InvariantViolation as exc:
                print(exc)
        """)
        src = Path(rainbow_hcd.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "False"
        assert "truncated cycle lost too many edges" in lines[1]


class TestChooseSubgraph:
    def test_whole_components_first(self):
        h = disjoint_union(path_graph(2), path_graph(3), path_graph(2))
        picked = _choose_subgraph(h, 4)
        # the 2-edge head component fits whole; the rest is a connected prefix
        assert picked[:2] == [0, 1]
        assert len(picked) == 4

    def test_connected_prefix_when_overflowing(self):
        h = path_graph(6)
        for s in range(1, 7):
            picked = _choose_subgraph(h, s)
            assert len(picked) == s
            sub = [h[i] for i in picked]
            vs = {v for e in sub for v in e}
            assert len(vs) == s + 1

    def test_sorted_and_stable(self):
        h = disjoint_union(cycle_graph(3), path_graph(4))
        assert _choose_subgraph(h, 5) == _choose_subgraph(h, 5)
        assert _choose_subgraph(h, 5) == sorted(_choose_subgraph(h, 5))
