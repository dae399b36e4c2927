import hashlib
import random
import time
from collections import Counter

import pytest

from rainbow_hcd.embed_dense import (
    _bfs_order,
    _choose_subgraph,
    _donor_cut,
    _recursive_dense,
    _round_robin,
    embed_dense,
    verify_embedded_forests,
)
from rainbow_hcd.errors import (
    InternalInfeasible,
    InvariantViolation,
    PreconditionViolation,
)
from rainbow_hcd.families import (
    EXHAUSTIVE_CAP,
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from rainbow_hcd.files import certificate_to_text
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


class TestDonorCut:
    @staticmethod
    def reference(target, donor, r):
        """The cut read from full scans of both classes: every donor edge
        at an interior vertex of the target, and the edge entering each
        target path end, walking each donor path from its lower end."""
        tview = analyze_linear_forest(target, range(r))
        interior = set(tview.interior)
        ends = set(tview.endpoints)
        withheld = set()
        for p in analyze_linear_forest(donor, range(r)).paths:
            for prev, v in zip(p, p[1:]):
                if prev in interior or v in interior or v in ends:
                    withheld.add(edge(prev, v))
        return withheld

    def test_degrees_give_the_cut_of_the_scans(self):
        rng = random.Random(0)
        for _ in range(500):
            r = rng.randrange(2, 16)
            target = random_linear_forest(rng, r)
            # a donor shares no edge with its target
            donor = random_linear_forest(rng, r) - target
            assert (_donor_cut(target, donor, r)
                    == self.reference(target, donor, r))

    def test_the_rest_of_the_donor_keeps_the_target_a_linear_forest(self):
        # the target a linear forest, a single edge or empty: all the donor
        # edges outside the cut move at once, and the target stays a linear
        # forest; a single edge withholds at most two, an empty target none
        rng = random.Random(1)
        kinds = Counter()
        for i in range(500):
            r = rng.randrange(2, 16)
            kind = ("forest", "single", "empty")[i % 3]
            if kind == "forest":
                edges = random_linear_forest(rng, r)
            elif kind == "single":
                edges = {edge(*rng.sample(range(r), 2))}
            else:
                edges = set()
            donor = random_linear_forest(rng, r) - edges
            withheld = _donor_cut(edges, donor, r)
            assert withheld <= donor
            analyze_linear_forest(edges | (donor - withheld), range(r))
            if kind == "single":
                assert len(withheld) <= 2
            if kind == "empty":
                assert withheld == set()
            kinds[kind] += len(withheld) > 0
        # the cut is not vacuous on any kind that can need one
        assert kinds["forest"] > 100 and kinds["single"] > 50


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

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_rejects_a_linear_forest_above_the_direct_regime(self, k):
        # k x P3 at n = 2k, k odd, is a linear forest the recursive regime
        # cannot embed (a donor runs short, see TestInvariants); solve lays
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
        # have two or more edges, at every n = k .. k + 14: the embed
        # returns the states and masks of a fresh scan of its split, or
        # refuses a linear forest with r > n + 1; an InternalInfeasible
        # fails the test.  The trace names the regime, direct exactly when
        # r <= n + 1.  The n below 6 add 37 direct embeds, one recursive
        # (K_{1,3} + P3 at n = 5, r = 7, case 2) and two refused linear
        # forests (2 x P3 at n = 4, P4 + P3 at n = 5)
        outcomes = Counter()
        for k in range(1, EXHAUSTIVE_CAP + 1):
            for h in nonisomorphic_edge_graphs(k):
                if min(map(len, component_edge_groups(h))) < 2:
                    continue
                r = len(edge_vertices(h))
                for n in range(k, k + 15):
                    trace = []
                    try:
                        split = embed_dense(h, n, recurse, trace)
                    except PreconditionViolation as exc:
                        assert f"a linear forest with r={r} > n+1={n + 1}" in str(exc)
                        outcomes["precondition"] += 1
                        continue
                    scan = ForestSplit.scan(split.dec.copy())
                    assert ([(e.partner, e.isolated) for e in split.ends]
                            == [(e.partner, e.isolated) for e in scan.ends])
                    assert split.free == scan.free
                    direct = trace[0].endswith("direct matchings")
                    assert direct == (r <= n + 1), trace
                    outcomes["direct" if direct else "recursive"] += 1
        assert outcomes == {"direct": 994, "recursive": 5, "precondition": 6}


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

    @pytest.mark.parametrize(
        "h, n", [(star_graph(3), 3), (path_graph(2), 2)], ids=["K1,3", "P3"]
    )
    def test_fewer_than_six_classes_embed_directly(self, h, n):
        # r = n + 1 = t + 1: odd r merges two rounds into class 0, even r
        # gives every class one perfect matching
        dec, trace = run(h, n)
        assert trace == [f"embed: r={n + 1} t={n} direct matchings"]
        assert all(e in dec.classes[i] for i, e in enumerate(h))


def spider(legs):
    """A tree: legs of the given lengths joined at vertex 0."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append(edge(prev, nxt))
            prev, nxt = nxt, nxt + 1
    return sorted(edges)


class TestDirectAtNPlusOne:
    # r = n + 1: n perfect matchings for even r, one per class; for odd r,
    # n + 1 near-perfect ones, two consecutive ones sharing a class
    @pytest.mark.parametrize(
        "h, n, merged",
        [
            (star_graph(7), 7, None),
            (spider([3, 2, 2]), 7, None),
            (star_graph(8), 8, 0),
            (spider([2, 2, 2, 2]), 8, 0),
            (disjoint_union(star_graph(3), path_graph(2), path_graph(2)), 9, None),
            (disjoint_union(star_graph(3), path_graph(2)), 6, 5),
            (disjoint_union(cycle_graph(3), star_graph(3), star_graph(3)), 10, 9),
            # H holds all of round 0 of K_8, which leaves class 6 nothing,
            # and all but one edge of rounds 0 and 1 of K_7, which leave a
            # class one edge: the lightest rounds must go to classes
            # t..n-1
            ([(0, 7), (1, 7), (1, 6), (2, 5), (3, 5), (3, 4)], 7, None),
            ([(1, 6), (3, 6), (3, 4), (0, 2), (2, 5)], 6, 5),
        ],
        ids=["K1,7", "spider-7", "K1,8", "spider-8", "K1,3+2P3", "K1,3+P3",
             "C3+2K1,3", "heavy-round", "heavy-pair"],
    )
    def test_one_class_per_matching(self, h, n, merged):
        dec, trace = run(h, n)
        r, t = n + 1, len(h)
        assert dec.order == r
        assert trace == [f"embed: r={r} t={t} direct matchings"]
        # the classes without an edge of H meet their floor of two edges
        assert all(len(dec.classes[i]) >= 2 for i in range(t, n))
        # the rounds each class's edges outside H come from: one at most
        # (none if H holds its whole round), two in the merged class
        rounds = _round_robin(r)
        outside = [{k for k, m in enumerate(rounds) if cls & set(m) - set(h)}
                   for cls in dec.classes]
        if merged is None:
            assert r % 2 == 0
            assert all(len(ks) <= 1 for ks in outside)
            return
        # odd r: the merged class (class 0 if t = n, else class t) is the
        # one on two rounds k, k + 1, and lies on their union, one
        # Hamiltonian path of K_r
        assert r % 2 == 1 and merged == (0 if t == n else t)
        assert [i for i, ks in enumerate(outside) if len(ks) > 1] == [merged]
        k = min(outside[merged]) if outside[merged] != {0, r - 1} else r - 1
        assert outside[merged] == {k, (k + 1) % r}
        path = set(rounds[k]) | set(rounds[(k + 1) % r])
        assert dec.classes[merged] <= path
        view = analyze_linear_forest(path, range(r))
        assert len(view.paths) == 1 and len(view.paths[0]) == r


class TestRecursiveRegime:
    def test_case1_even_r(self):
        # r=12, n=10: 3r <= 4n-1 picks the single-donor moves
        h = disjoint_union(star_graph(3), path_graph(2), path_graph(4))
        dec, trace = run(h, 10)
        assert dec.order == 12
        assert trace[-1] == "embed: r=12 t=9 s=6 case=1"

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
    def test_truncation_check_raises_under_optimize(self, run_optimized):
        # a child certificate whose first cycle lost its edges, under
        # python -O, where asserts are stripped: no check reads the child
        # again, but its classes no longer partition K_r, which the exit
        # scan reports
        lines = run_optimized("""
            from rainbow_hcd.embed_dense import embed_dense
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.families import disjoint_union, path_graph, star_graph
            from rainbow_hcd.solver import solve

            def recurse(edges):
                child = solve(edges)
                child.decomposition.classes[0].clear()
                return child

            try:
                h = disjoint_union(star_graph(3), path_graph(2), path_graph(2))
                embed_dense(h, 7, recurse)
            except InvariantViolation as exc:
                print(exc)
        """)
        assert "36 edges in classes, expected 45" in lines[0]

    def test_owner_and_prefix_faults_raise_under_optimize(self, run_optimized):
        # faults that no check of the embed reads for itself any more, each
        # reported by a kept check under python -O: a child assignment that
        # names one class twice, so the classes no longer sit one per input
        # edge (the exit check of the input edges), and a component group
        # that is not connected, so the breadth-first prefix runs short
        # (_choose_subgraph's count)
        lines = run_optimized("""
            from rainbow_hcd import embed_dense as ed
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.families import disjoint_union, path_graph, star_graph
            from rainbow_hcd.solver import solve

            def recurse(edges):
                child = solve(edges)
                child.assignment[1] = child.assignment[0]
                return child

            try:
                h = disjoint_union(star_graph(3), path_graph(2), path_graph(2))
                ed.embed_dense(h, 7, recurse)
            except InvariantViolation as exc:
                print(exc)
            real = ed.component_edge_groups
            ed.component_edge_groups = lambda h: [sorted(sum(real(h), []))]
            try:
                ed._choose_subgraph(disjoint_union(path_graph(3), path_graph(3)), 4)
            except InvariantViolation as exc:
                print(exc)
        """)
        assert lines == ["edge 0 missing from class 0", "subgraph has 3 edges, needs 4"]

    @pytest.mark.parametrize(
        "k, error, message",
        [
            (3, InvariantViolation, "class 1 has 4 edges, floor 5 at the embed exit"),
            (5, InternalInfeasible, "donor has 4 spare edges, needs 5"),
            (7, InvariantViolation, "class 4 has 12 edges, floor 13 at the embed exit"),
        ],
    )
    def test_a_donor_too_short_for_its_moves_is_caught(self, k, error, message):
        # k x P3 at n = 2k, past the precondition that keeps it out: its
        # donors are too short for the move schedule.  One fails the move
        # for want of spare edges, or gives them and ends below its floor,
        # which the exit check reports
        h = disjoint_union(*[path_graph(2)] * k)
        with pytest.raises(error, match=message):
            dec = _recursive_dense(h, 3 * k, 2 * k, 2 * k, solve, [])
            verify_embedded_forests(dec, h, 2 * k)


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

    def test_bfs_prefixes_grow_one_connected_order(self):
        # a tree of 7 edges: each prefix of the order extends the shorter
        # ones, and its edges span one more vertex than they number
        h = [(0, 1), (0, 2), (1, 3), (3, 4), (2, 5), (5, 6), (0, 7)]
        full = _bfs_order(h, list(range(7)))
        assert full == [0, 1, 6, 2, 4, 3, 5]
        for need in range(1, 8):
            picked = _bfs_order(h, list(range(7)))[:need]
            assert picked == full[:need]
            assert len(edge_vertices([h[i] for i in picked])) == need + 1


def random_tree(rng, m):
    """A random tree of m edges: each vertex v >= 1 joins an earlier one."""
    return [edge(rng.randrange(v), v) for v in range(1, m + 1)]


def tree_mix_instances(count, seed):
    """Random trees with 6..40 edges, and in turn mixes of 1..5 random
    trees, up to two cycles and some K2s, in a shuffled order, with 6..40
    edges in all.  Half the mixes take one K2 fewer than they have trees,
    so that the dense part has exactly n + 1 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            out.append(random_tree(rng, rng.randint(6, 40)))
            continue
        trees = [random_tree(rng, rng.randint(2, 8))
                 for _ in range(rng.randint(1, 5))]
        cycles = [cycle_graph(rng.randint(3, 8)) for _ in range(rng.randint(0, 2))]
        k2 = len(trees) - 1 if rng.random() < 0.5 else rng.randint(0, 6)
        parts = trees + cycles + [path_graph(1)] * k2
        h = disjoint_union(*rng.sample(parts, len(parts)))
        if 6 <= len(h) <= 40:
            out.append(h)
    return out


@pytest.mark.slow
def test_tree_mix_sweep():
    # 600 instances, solved at seeds 0 and 1 in turn, each verified; one
    # mix is a linear forest and takes the hub route.  The top-level embed
    # of every dense part on n + 1 vertices is direct, 477 of them, over
    # all four cases: r odd or even, t = n or t < n.  Of the rest, 83 have
    # r <= n and 39 recurse.  The sweep took 3.8-5.6 s on a 2-core machine
    # with Python 3.11; the bound is five times the slower.  The digest of the concatenated certificate texts pins
    # every byte; a change that moves it says why in CHANGES.md
    counts = Counter()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for i, h in enumerate(tree_mix_instances(600, 0)):
        n = len(h)
        cert = solve(h, seed=i % 2)
        rep = verify_certificate(cert)
        assert rep.ok, "\n".join(rep.lines())
        digest.update(certificate_to_text(cert).encode())
        counts[cert.trace[0]] += 1
        embed = next((x for x in cert.trace if x.startswith("embed:")), None)
        if embed is None:
            continue
        r, t = (int(x[2:]) for x in embed.split()[1:3])
        if r == n + 1:
            assert embed.endswith("direct matchings"), (h, embed)
            counts["odd" if r % 2 else "even", "t=n" if t == n else "t<n"] += 1
        else:
            counts["direct" if embed.endswith("direct matchings") else "recursive"] += 1
    dt = time.perf_counter() - t0
    assert dt < 28, f"the sweep took {dt:.1f}s"
    assert counts["route: pipeline"] == 599
    assert [counts[k] for k in [("odd", "t=n"), ("odd", "t<n"),
                                ("even", "t=n"), ("even", "t<n")]] == [172, 76, 156, 73]
    assert (counts["direct"], counts["recursive"]) == (83, 39)
    assert digest.hexdigest() == (
        "32ad52d0e111470440cfaf613c8117aa54c8ee62623241886635e2d9ea7c145b"
    )
