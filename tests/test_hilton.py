import random
import re
from collections import Counter
from operator import lt

import pytest

from rainbow_hcd import embed_dense, extend_sparse, hilton
from rainbow_hcd.cli import main
from rainbow_hcd.errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
    SolverError,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from rainbow_hcd.files import format_instance
from rainbow_hcd.graph_core import (
    Decomposition,
    analyze_linear_forest,
    complete_edges,
    edge,
    walecki,
)
from rainbow_hcd.hilton import (
    ForestSplit,
    _Dinic,
    close_final_vertex,
    extend_to_hcd,
    single_vertex_step,
    truncate_to_order,
)
from rainbow_hcd.solver import solve
from test_graph_core import hcd, relabel_decomposition

scan = ForestSplit.scan


def view_state(cls, order):
    """The path ends and isolated vertices of the linear forest cls on
    0..order-1, read off its analyze_linear_forest view: each path's two
    ends partnered, and the isolated vertices ascending."""
    view = analyze_linear_forest(cls, range(order))
    partner = {}
    for p in view.paths:
        partner[p[0]] = p[-1]
        partner[p[-1]] = p[0]
    return partner, view.isolated


def masks_of(states, m):
    """For each vertex 0..m-1, the mask of the classes in which it is a
    path end or isolated, bit i for class i, from each class's path ends
    and isolated vertices: the reference for the masks that
    ForestSplit.scan builds."""
    free = [0] * m
    for i, (partner, isolated) in enumerate(states):
        for v in [*partner, *isolated]:
            free[v] |= 1 << i
    return free


def free_classes(split):
    """The masks of masks_of, read off a split's path ends and the
    vertices whose first slot is empty."""
    order = split.order
    return masks_of(
        [(p, [v for v in range(order) if first[v] < 0])
         for p, first in zip(split.partner, split.first)],
        order,
    )


def split_of(dec, states, room=0):
    """The split of dec's classes with the path ends and isolated vertices
    states: each class's count, and its neighbour slots filled edge by
    edge, sized 2n + 1 as the scan sizes them, or order + room if that is
    more."""
    size = max(dec.order + room, 2 * len(dec.classes) + 1)
    first, second = [], []
    for cls in dec.classes:
        a, b = [-1] * size, [-1] * size
        for u, v in cls:
            for x, y in ((u, v), (v, u)):
                (a if a[x] < 0 else b)[x] = y
        first.append(a)
        second.append(b)
    return ForestSplit(dec.order, list(map(len, dec.classes)), first, second,
                       [p for p, _ in states], [len(iso) for _, iso in states],
                       masks_of(states, dec.order))


def try_join(degree, partner, u, v):
    """Join u and v in a linear forest kept as its degrees and its path
    ends' partners, unless that gives a vertex a third edge or closes a
    cycle; whether it joined."""
    if degree[u] == 2 or degree[v] == 2 or partner.get(u) == v:
        return False
    a, b = partner.pop(u, u), partner.pop(v, v)
    partner[a], partner[b] = b, a
    degree[u] += 1
    degree[v] += 1
    return True


def classes_of(split):
    """The edge sets of a split's classes, read off their slots."""
    return [
        {(u, v) for u in range(split.order) for v in (a[u], b[u]) if v > u}
        for a, b in zip(split.first, split.second)
    ]


def dec_of(split):
    """The classes of a split, read off their slots, as a Decomposition."""
    return Decomposition(split.order, classes_of(split))


def unproved(dec):
    """The split ForestSplit.scan builds, for classes that need not
    partition K_order and so would fail its proof, its slots with room
    for a round's two new vertices even where the classes are too few
    for their order."""
    return split_of(dec, [view_state(c, dec.order) for c in dec.classes], 2)


def view_scan(dec, where="in the scan"):
    """ForestSplit.scan as a composition of the reference pieces: the
    partition proof, one analyze_linear_forest view per class turned into
    path ends and isolated vertices, a refusal naming the class and where,
    then the slots and the masks.  The scan must give equal path ends,
    isolated counts, slots, counts and masks, and the same errors."""
    dec.check_partition()
    states = []
    for i, cls in enumerate(dec.classes):
        try:
            states.append(view_state(cls, dec.order))
        except NotLinearForest as exc:
            raise NotLinearForest(f"class {i} {where}: {exc}") from exc
    return split_of(dec, states)


def scans_checked(monkeypatch):
    """Make every ForestSplit.scan compare its split with view_scan's; the
    list returned collects the order of each split compared."""
    real = ForestSplit.scan
    checked = []

    def compared(dec, where="in the scan"):
        split = real(dec, where)
        assert held_state(split) == held_state(view_scan(dec, where)), where
        checked.append(dec.order)
        return split

    monkeypatch.setattr(ForestSplit, "scan", compared)
    return checked


def held_state(split):
    """What a split holds, comparable by ==: per class its partner map,
    isolated count, count and the edges its slots hold, the slot lists'
    lengths, and the masks."""
    return (split.partner, split.isolated, split.count,
            classes_of(split), [len(a) for a in split.first + split.second],
            split.order, split.free)


def k4_paths():
    """K_4 as the spanning paths 0-1-2-3 and 2-0-3-1."""
    return Decomposition(4, [{(0, 1), (1, 2), (2, 3)}, {(0, 2), (0, 3), (1, 3)}])


def view_gates(cls, order):
    view = analyze_linear_forest(cls, range(order))
    return [(p[0], p[-1]) for p in view.paths] + [(v,) for v in view.isolated]


def recursive_max_flow(fl, s, t):
    """Reference Dinic with the recursive blocking-flow search."""
    total = 0
    while True:
        level = [-1] * len(fl.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for aid in fl.adj[u]:
                v = fl.to[aid]
                if fl.cap[aid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total
        it = [0] * len(fl.adj)

        def dfs(u, limit):
            if u == t:
                return limit
            while it[u] < len(fl.adj[u]):
                aid = fl.adj[u][it[u]]
                v = fl.to[aid]
                if fl.cap[aid] > 0 and level[v] == level[u] + 1:
                    pushed = dfs(v, min(limit, fl.cap[aid]))
                    if pushed:
                        fl.cap[aid] -= pushed
                        fl.cap[aid ^ 1] += pushed
                        return pushed
                it[u] += 1
            return 0

        while True:
            pushed = dfs(s, hilton._INF)
            if not pushed:
                break
            total += pushed


def flow_feasible(split, n):
    """Reference: whether the lower-bounded flow of one vertex step, built
    on _Dinic from the same gates(), is feasible."""
    m = split.order
    target = 2 * (m + 1) - 2 * n - 1
    fl = _Dinic()
    src, snk = fl.add_node(), fl.add_node()
    vnode = [fl.add_node() for _ in range(m)]
    for i, k in enumerate(split.count):
        cnode = fl.add_node()
        fl.add_bounded_arc(src, cnode, max(0, target - k), 2)
        for gate_ends in split.gates(i):
            gate = fl.add_node()
            fl.add_arc(cnode, gate, 1)
            for v in gate_ends:
                fl.add_arc(gate, vnode[v], 1)
    for v in range(m):
        fl.add_bounded_arc(vnode[v], snk, 1, 1)
    return fl.feasible(src, snk)


def random_forest(rng, m, k):
    """A random linear forest with k <= m - 1 edges on vertices 0..m-1."""
    order = rng.sample(range(m), m)
    cuts = set(rng.sample(range(1, m), m - 1 - k))
    return {edge(order[j - 1], order[j]) for j in range(1, m) if j not in cuts}


def random_step_state(rng):
    """Classes that pass single_vertex_step's checks: n linear forests on
    K_m, each at most 2 edges short of its size after the step.  They
    need not partition K_m, so the step is feasible for some and not for
    others."""
    n = rng.randint(2, 7)
    m = rng.randint(1, 2 * n - 1)
    target = 2 * (m + 1) - 2 * n - 1
    low = min(max(0, target - 2), m - 1)
    classes = [random_forest(rng, m, rng.randint(low, m - 1)) for _ in range(n)]
    return Decomposition(m, classes), n


class TestTruncate:
    def test_truncation_is_forest_family(self):
        dec = walecki(4)
        cut = truncate_to_order(dec, 6)
        assert cut.order == 6
        cut.check_partition()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_truncation_meets_size_bound(self, n):
        dec = walecki(n)
        for m in range(1, 2 * n + 1):
            cut = truncate_to_order(dec, m)
            bound = 2 * m - 2 * n - 1
            assert all(len(c) >= bound for c in cut.classes)


class TestExtend:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rebuild_from_truncations(self, n):
        for m in range(1, 2 * n + 1):
            cut = truncate_to_order(walecki(n), m)
            kept = [set(c) for c in cut.classes]
            out = hcd(extend_to_hcd(scan(cut), n))
            out.check_hcd()
            assert out.order == 2 * n + 1
            assert all(old <= new for old, new in zip(kept, out.classes))

    def test_completes_truncated_pipeline_certificates(self):
        # the stage contract beyond walecki(n): a pipeline certificate cut
        # to a random order m <= 2n, classes shuffled, still meets it
        rng = random.Random("extend-contract")
        for h in random_pipeline_graphs(8):
            cert = solve(h, seed=rng.randrange(1000))
            n = cert.n
            for _ in range(5):
                cut = truncate_to_order(hcd(cert.cycles), rng.randint(1, 2 * n))
                rng.shuffle(cut.classes)
                kept = [set(c) for c in cut.classes]
                out = hcd(extend_to_hcd(scan(cut), n))
                out.check_hcd()
                assert all(old <= new for old, new in zip(kept, out.classes))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_from_nothing(self, n):
        dec = Decomposition(1, [set() for _ in range(n)])
        out = hcd(extend_to_hcd(scan(dec), n))
        out.check_hcd()

    def test_preserves_kept_edges(self):
        base = walecki(3)
        cut = truncate_to_order(base, 5)
        kept = [set(c) for c in cut.classes]
        out = hcd(extend_to_hcd(scan(cut), 3))
        out.check_hcd()
        for old, new in zip(kept, out.classes):
            assert old <= new

    def test_spanning_path_entry_case(self):
        # order exactly 2n: only the closing vertex is missing
        cut = truncate_to_order(walecki(3), 6)
        out = hcd(extend_to_hcd(scan(cut), 3))
        out.check_hcd()

    def test_rejects_wrong_class_count(self):
        split = scan(Decomposition(1, [set(), set()]))
        with pytest.raises(PreconditionViolation, match="expected 3 classes"):
            extend_to_hcd(split, 3)

    def test_rejects_small_class(self):
        # sizes 4, 4, 2 over K_5 with n=3: bound is 2m-2n-1 = 3
        dec = Decomposition(
            5,
            [
                {(0, 2), (0, 4), (1, 4), (1, 3)},
                {(1, 2), (2, 4), (3, 4), (0, 3)},
                {(0, 1), (2, 3)},
            ],
        )
        with pytest.raises(PreconditionViolation, match="class 2 has 2 edges"):
            extend_to_hcd(scan(dec), 3)

    def test_rejects_non_forest(self):
        # the scan that builds the split refuses the triangle
        dec = Decomposition(3, [{(0, 1), (1, 2), (0, 2)}, set()])
        with pytest.raises(PreconditionViolation, match="class 0"):
            extend_to_hcd(scan(dec), 2)

    def test_rejects_overfull_order(self):
        # K_5 as three paths is a split, but of order 5 > 2n for n = 2
        split = scan(Decomposition(5, [
            {(0, 1), (1, 2), (2, 3), (3, 4)},
            {(0, 2), (0, 3), (1, 3), (1, 4)},
            {(0, 4), (2, 4)},
        ]))
        with pytest.raises(PreconditionViolation, match="order 5 not in 1..2n"):
            extend_to_hcd(split, 2)


def greedy_forest_split(rng, m, n):
    """A split of K_m into n linear forests, or None: the edges in a random
    order, each to the first class, in a random order, that it keeps a
    linear forest."""
    degrees = [[0] * m for _ in range(n)]
    partners = [{} for _ in range(n)]
    classes = [set() for _ in range(n)]
    edges = complete_edges(m)
    rng.shuffle(edges)
    for u, v in edges:
        for i in rng.sample(range(n), n):
            if try_join(degrees[i], partners[i], u, v):
                classes[i].add((u, v))
                break
        else:
            return None
    return Decomposition(m, classes)


def relabelled_truncations():
    """(split, n): 300 Walecki truncations to a random order m <= 2n,
    relabelled at random, their classes shuffled."""
    rng = random.Random("completion-truncations")
    for _ in range(300):
        n = rng.randint(3, 24)
        m = rng.randint(1, 2 * n)
        cut = truncate_to_order(walecki(n), m)
        cut = relabel_decomposition(cut, dict(enumerate(rng.sample(range(m), m))))
        rng.shuffle(cut.classes)
        yield cut, n


def greedy_splits():
    """(split, n): 300 greedy forest splits of K_m, m <= n + 1, where the
    floor 2m - 2n - 1 asks at most one edge a class; a split that misses
    it is drawn again."""
    rng = random.Random("completion-greedy-splits")
    done = 0
    while done < 300:
        n = rng.randint(3, 20)
        m = rng.randint(1, n + 1)
        dec = greedy_forest_split(rng, m, n)
        if dec is None or min(map(len, dec.classes)) < 2 * m - 2 * n - 1:
            continue
        yield dec, n
        done += 1


class TestWholeDomain:
    # the completion's contract over inputs no route sends it: any labels,
    # any class order, and forests that no Walecki cycle restricts to

    def test_relabelled_shuffled_truncations(self):
        for cut, n in relabelled_truncations():
            kept = [set(c) for c in cut.classes]
            out = hcd(extend_to_hcd(scan(cut), n))
            out.check_hcd()
            assert all(old <= new for old, new in zip(kept, out.classes))

    def test_greedy_forest_splits(self):
        at_floor = 0
        for dec, n in greedy_splits():
            at_floor += dec.order == n + 1
            kept = [set(c) for c in dec.classes]
            out = hcd(extend_to_hcd(scan(dec), n))
            out.check_hcd()
            assert all(old <= new for old, new in zip(kept, out.classes))
        assert at_floor >= 10, at_floor


# splits that break the scan's proof, each as (order, classes): an edge
# out of range, an edge in two classes, and over K_5 a class with a vertex
# of degree 3, the low end of its edges (0) or the high end (4), and a
# class that holds a triangle
FAULTS = {
    "out-of-range": (4, [[(0, 1), (1, 2)], [(2, 9)]]),
    "two-classes": (3, [[(0, 1), (1, 2)], [(0, 1), (0, 2)]]),
    "degree-at-low-end": (5, [[(0, 1), (1, 2), (2, 3), (3, 4)],
                              [(1, 3), (1, 4), (2, 4)], [(0, 2), (0, 3), (0, 4)]]),
    "degree-at-high-end": (5, [[(0, 1), (1, 2), (2, 3), (3, 4)],
                               [(0, 2), (0, 3), (1, 3)], [(0, 4), (1, 4), (2, 4)]]),
    "cycle": (5, [[(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 2), (2, 4), (0, 4)],
                  [(0, 3), (1, 3), (1, 4)]]),
}
# what each error must name: the partition proof's message, or the class
# the scan refuses and where
FAULT_NAMES = {
    "out-of-range": "class 1: edge (2, 9) out of range",
    "two-classes": "edge (0, 1) appears in two classes",
    "degree-at-low-end": "class 2 at the embed exit: degree above two at edge (0, ",
    "degree-at-high-end": "class 2 at the embed exit: degree above two at edge (",
    "cycle": "class 1 at the embed exit: a cycle runs through edge (0, ",
}


def fault_split(name):
    order, classes = FAULTS[name]
    return Decomposition(order, [set(c) for c in classes])


class TestScan:
    # ForestSplit.scan against view_scan, the composition it replaced

    def test_matches_the_view_composition(self):
        splits = [*relabelled_truncations(), *greedy_splits()]
        for dec, _ in splits:
            assert held_state(scan(dec)) == held_state(view_scan(dec))
        assert len(splits) == 600

    @pytest.mark.parametrize("name", FAULTS)
    def test_fault_raises_as_the_view_composition(self, name):
        with pytest.raises(SolverError) as want:
            view_scan(fault_split(name), "at the embed exit")
        with pytest.raises(SolverError) as got:
            scan(fault_split(name), "at the embed exit")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert FAULT_NAMES[name] in str(got.value)

    def test_faults_raise_under_optimize(self, run_optimized):
        # the same faults under python -O, where asserts are stripped
        lines = run_optimized(f"""
            from rainbow_hcd.errors import SolverError
            from rainbow_hcd.graph_core import Decomposition
            from rainbow_hcd.hilton import ForestSplit

            for order, classes in {list(FAULTS.values())!r}:
                dec = Decomposition(order, [set(c) for c in classes])
                try:
                    ForestSplit.scan(dec, "at the embed exit")
                except SolverError as exc:
                    print(type(exc).__name__, exc)
        """)
        want = []
        for name in FAULTS:
            with pytest.raises(SolverError) as err:
                view_scan(fault_split(name), "at the embed exit")
            want.append(f"{type(err.value).__name__} {err.value}")
        assert lines == want
        assert all(FAULT_NAMES[name] in line for name, line in zip(FAULTS, lines))


class TestSteps:
    def test_single_step_counts(self):
        cut = truncate_to_order(walecki(3), 4)
        sizes = [len(c) for c in cut.classes]
        split = scan(cut)
        single_vertex_step(split, 3)
        assert split.order == 5
        grown = [len(c) - s for c, s in zip(classes_of(split), sizes)]
        assert grown == [k - s for k, s in zip(split.count, sizes)]
        assert sum(grown) == 4
        assert all(0 <= g <= 2 for g in grown)

    def test_close_rejects_matching(self):
        # class 1 is the matching 0-2, 1-3: two path gates, no spanning path
        dec = Decomposition(4, [{(0, 1), (1, 2), (2, 3)}, {(0, 2), (1, 3)}])
        with pytest.raises(InternalInfeasible):
            close_final_vertex(unproved(dec), 2)

    def test_close_rejects_wrong_order(self):
        with pytest.raises(PreconditionViolation):
            close_final_vertex(scan(k4_paths()), 1)

    def test_last_step_tie_catches_a_drifted_class(self, monkeypatch):
        # close_final_vertex trusts the count tie that the last vertex
        # step's check_stage runs; a class that drops an edge in that step
        # is caught there, and the close never runs
        real = hilton.lay_edges

        def drift(split, owners, bridge, stage):
            real(split, owners, bridge, stage)
            if split.order == 4:
                split.count[1] -= 1

        def no_close(*args):
            raise AssertionError("close_final_vertex called")

        monkeypatch.setattr(hilton, "lay_edges", drift)
        monkeypatch.setattr(hilton, "close_final_vertex", no_close)
        with pytest.raises(
            InvariantViolation, match="class 1 drifted from its path ends at vertex 3"
        ):
            extend_to_hcd(scan(truncate_to_order(walecki(2), 3)), 2)

    def test_close_rejects_repeated_closing_ends(self):
        # both classes name the path ends 0 and 3, so vertex 4 meets 0 and
        # 3 twice and 1 and 2 never; the close trusts the path ends, and
        # the walk of class 1's slots, 3 now between 0 and 1, finds no
        # cycle
        split = scan(k4_paths())
        split.partner[1] = scan(k4_paths()).partner[0]
        with pytest.raises(
            InvariantViolation,
            match="class 1 does not close into one Hamiltonian cycle",
        ):
            close_final_vertex(split, 2)

    def test_step_rejects_large_order(self):
        with pytest.raises(PreconditionViolation):
            single_vertex_step(scan(truncate_to_order(walecki(2), 4)), 2)

    def test_deterministic(self):
        a = extend_to_hcd(scan(truncate_to_order(walecki(4), 5)), 4)
        b = extend_to_hcd(scan(truncate_to_order(walecki(4), 5)), 4)
        assert a == b
        hcd(a).check_hcd()

    def test_insertion_order_does_not_matter(self):
        # the same splits, their partner dicts filled in the opposite
        # order, give the same classes at every step
        n = 8
        a = scan(truncate_to_order(walecki(n), 6))
        b = scan(truncate_to_order(walecki(n), 6))
        b.partner[:] = [dict(reversed(p.items())) for p in b.partner]
        assert any(list(x) != list(y) for x, y in zip(a.partner, b.partner))
        while a.order < 2 * n:
            single_vertex_step(a, n)
            single_vertex_step(b, n)
            assert classes_of(a) == classes_of(b)
        a = close_final_vertex(a, n)
        assert a == close_final_vertex(b, n)
        hcd(a).check_hcd()


class TestExactness:
    # the greedy start only saves search; from no start at all the
    # augmenting paths alone must settle every state the same way
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_succeeds_exactly_when_the_flow_is_feasible(
        self, monkeypatch, cold
    ):
        if cold:
            monkeypatch.setattr(
                hilton, "_warm_start",
                lambda need, free, partner, *_: ([-1] * len(free), [0] * len(need)),
            )
        rng = random.Random("hilton-step")
        outcomes = Counter()
        for _ in range(600):
            dec, n = random_step_state(rng)
            split = unproved(dec)
            feasible = flow_feasible(split, n)
            m = dec.order
            before = [set(c) for c in dec.classes]
            if not feasible:
                with pytest.raises(InternalInfeasible) as err:
                    single_vertex_step(split, n)
                outcomes["floor" if "floor" in str(err.value) else "vertex"] += 1
                continue
            single_vertex_step(split, n)
            outcomes["feasible"] += 1
            # every old vertex gave its one edge to a class that took at
            # most 2, met its floor and stayed a linear forest
            target = 2 * (m + 1) - 2 * n - 1
            after = classes_of(split)
            assert split.count == list(map(len, after))
            grown = [c - old for c, old in zip(after, before)]
            assert sorted(v for g in grown for v, _ in g) == list(range(m))
            for i, (cls, g) in enumerate(zip(after, grown)):
                assert len(g) <= 2 and len(cls) >= target
                assert split.gates(i) == view_gates(cls, m + 1)
        # both ways to fail are reached: a vertex no class can take, and a
        # class that cannot reach its floor
        assert min(outcomes.values()) >= 5 and len(outcomes) == 3, outcomes

    # each move of the augmenting search, from a start that needs it: two
    # classes P, Q (or A, B, C) over K_3, a start within the upper bounds,
    # and the one assignment the search then reaches
    @pytest.mark.parametrize(
        "forests, need, start, want",
        [
            # 1 is free only in P, whose gate (0, 1) holds 0; P takes 1
            # instead, and 0 moves on to Q, which has room
            ([[(0, 1)], [(0, 1), (1, 2)]], [0, 0], [0, -1, 0], [1, 0, 0]),
            # 2 is free only in P, which is full; P hands 0 on to Q
            ([[], [(0, 2), (1, 2)]], [0, 0], [0, 0, -1], [1, 0, 0]),
            # A, below its floor, can take only 0 or 2, both held by B at
            # its floor; B gives 0 up for 1, the other end of its path,
            # which C, above its floor, gives up
            ([[(0, 1), (1, 2)], [(0, 1)], []], [1, 2, 0], [1, 2, 1],
             [0, 1, 1]),
            # as before, but 0 is isolated in B: B gives 0 up and takes 1
            # from a free gate of its own
            ([[(0, 1), (1, 2)], [], []], [1, 2, 0], [1, 2, 1], [0, 1, 1]),
        ],
        ids=["home-swaps-path-end", "home-displaces-from-full-class",
             "fill-swaps-path-end", "fill-opens-class-at-floor"],
    )
    def test_search_moves(self, monkeypatch, forests, need, start, want):
        load = [start.count(i) for i in range(len(need))]
        monkeypatch.setattr(
            hilton, "_warm_start", lambda need, free, partner, *_: (list(start), load)
        )
        split = unproved(Decomposition(3, [set(f) for f in forests]))
        assert hilton._assign(split, need) == want


class TestFeasibleStart:
    # _assign ends at a warm start that places every unit and meets every
    # floor; any other start goes on to home and fill
    def test_a_feasible_start_is_returned_unchanged(self, monkeypatch):
        real = hilton._warm_start
        starts = []

        def kept(*args):
            start, load = real(*args)
            assert load == [start.count(i) for i in range(len(load))]
            starts.append((start, list(start)))
            return start, load

        monkeypatch.setattr(hilton, "_warm_start", kept)
        rng = random.Random("feasible-start")
        outcomes = Counter()
        for _ in range(600):
            dec, n = random_step_state(rng)
            split = unproved(dec)
            m = dec.order
            target = 2 * (m + 1) - 2 * n - 1
            need = [max(0, target - len(c)) for c in dec.classes]
            try:
                owner = hilton._assign(split, need)
            except InternalInfeasible:
                continue
            start, before = starts.pop()
            load = Counter(owner)
            assert -1 not in owner and owner is start
            assert all(need[i] <= load[i] <= 2 for i in range(n))
            if -1 in before or any(before.count(i) < k for i, k in enumerate(need)):
                assert owner != before
                outcomes["searched"] += 1
            else:
                assert owner == before
                outcomes["kept"] += 1
        # most starts are kept; those that leave a unit short are searched,
        # and test_search_moves searches starts with a class below its floor
        assert outcomes["kept"] >= 300 and outcomes["searched"] >= 10, outcomes


def list_warm_start(need, free, partner, units, cap, seen=None):
    """The warm start as it read on free-class lists, free[v] the classes
    of vertex v ascending, before the masks replaced them: the reference
    that _warm_start must match pick for pick.  Every sweep visits every
    vertex.  seen, a Counter if given, counts the sweeps that a full class
    set cut short, with a vertex still to visit that lacks the sweep's
    unit ("cut short"), and the later sweeps of a unit that start with
    room left and some vertices, not all, lacking it ("leftovers")."""
    m = len(free)
    owner = [-1] * (m * units)
    held = [[] for _ in need]
    load = [0] * len(need)
    order = sorted(range(m), key=lambda v: len(free[v]))
    tops = (need, cap) if any(need) else (cap,)
    for top in tops:
        for k in range(units):
            # whether a class is below the pass's bound, tracked for seen
            room = seen is not None and any(map(lt, load, top))
            if room and top is not tops[0]:
                short = sum(owner[v * units + k] < 0 for v in order)
                seen["leftovers"] += 0 < short < m
            for pos, v in enumerate(order):
                if owner[v * units + k] >= 0:
                    continue
                best, gap = -1, -hilton._INF
                for i in free[v]:
                    if load[i] < top[i] and need[i] - load[i] > gap:
                        if v not in held[i] and partner[i].get(v) not in held[i]:
                            best, gap = i, need[i] - load[i]
                if best >= 0:
                    owner[v * units + k] = best
                    held[best].append(v)
                    load[best] += 1
                    if room and not any(map(lt, load, top)):
                        room = False
                        seen["cut short"] += any(
                            owner[w * units + k] < 0 for w in order[pos + 1:]
                        )
    return owner


class TestWarmStart:
    # a Hilton step gives 1 unit a vertex to classes of cap 2; an attach
    # round gives 2, to classes of cap 4 and to one bridge class of cap 2
    @pytest.mark.parametrize("units", [1, 2])
    def test_masks_pick_as_the_list_scan(self, units):
        rng = random.Random(f"warm-start-{units}")
        outcomes = Counter()
        sweeps = Counter()
        for _ in range(1000):
            m, n = rng.randint(1, 12), rng.randint(1, 8)
            states = [
                view_state(random_forest(rng, m, rng.randint(0, m - 1)), m)
                for _ in range(n)
            ]
            partner = [p for p, _ in states]
            cstar = rng.randrange(n) if units == 2 else -1
            cap = [2 if units == 1 or i == cstar else 4 for i in range(n)]
            need = [rng.randint(0, c) for c in cap]
            if rng.random() < 0.2:
                need = [0] * n
            lists = [
                [i for i, (p, iso) in enumerate(states) if v in p or v in iso]
                for v in range(m)
            ]
            want = list_warm_start(need, lists, partner, units, cap, sweeps)
            got, load = hilton._warm_start(
                need, masks_of(states, m), partner, units, cap
            )
            assert got == want, (need, cap, lists)
            assert load == [got.count(i) for i in range(n)]
            outcomes["placed all" if min(want) >= 0 else "left some"] += 1
        # starts that place every unit and starts that leave some to the
        # search are both compared
        assert min(outcomes.values()) >= 100, outcomes
        # _warm_start sweeps only what the last sweep of a unit left, and
        # hands on the tail of a sweep cut short: both are compared
        assert sweeps["cut short"] >= 50 and sweeps["leftovers"] >= 50, sweeps


class TestInvariants:
    @pytest.mark.parametrize(
        "order, reason",
        [(4, "0 of 4 owners of new vertex 4 are classes 0..2, wanted 4"),
         (2, "0 of 2 owners of new vertex 2 are classes 0..2, wanted 2")],
        ids=["order-4", "order-2"],
    )
    def test_empty_flow_raises(self, monkeypatch, order, reason):
        # an assignment that gives no vertex a class would leave the new
        # vertex unattached; at order 4 (n=3) two classes would also miss
        # the 3 edges the schedule asks for, at order 2 the schedule asks
        # for none.  lay_edges refuses the shape before it lays anything,
        # and leaves the split as it was
        monkeypatch.setattr(hilton, "_assign", lambda split, need: [-1] * split.order)
        split = scan(truncate_to_order(walecki(3), order))
        before = held_state(split)
        with pytest.raises(
            InvariantViolation, match=re.escape(f"vertex step at order {order}: {reason}")
        ):
            single_vertex_step(split, 3)
        assert held_state(split) == before

    def test_class_below_its_floor_after_the_step_raises(self, monkeypatch):
        # at order 3 (n=3) class 2 needs one edge; an assignment that gives
        # every vertex a class but none to class 2 fails the stage check
        real = hilton._assign
        monkeypatch.setattr(
            hilton, "_assign",
            lambda split, need: real(split, [0] * 3, 1, [2, 2, 0]),
        )
        cut = truncate_to_order(walecki(3), 3)
        with pytest.raises(
            InvariantViolation, match="class 2 has 0 edges, floor 1 at vertex 3"
        ):
            single_vertex_step(scan(cut), 3)

    def test_short_assignment_raises(self, monkeypatch):
        # one vertex left out of a feasible assignment
        real = hilton._assign
        monkeypatch.setattr(
            hilton, "_assign", lambda *args: real(*args)[:-1] + [-1]
        )
        cut = truncate_to_order(walecki(3), 2)
        with pytest.raises(InvariantViolation, match=re.escape(
            "1 of 2 owners of new vertex 2 are classes 0..2, wanted 2"
        )):
            single_vertex_step(scan(cut), 3)

    def test_short_assignment_raises_under_optimize(self, run_optimized):
        # the short assignment under python -O, where asserts are stripped
        lines = run_optimized("""
            from rainbow_hcd import hilton
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.graph_core import walecki

            real = hilton._assign
            hilton._assign = lambda *args: real(*args)[:-1] + [-1]
            cut = hilton.truncate_to_order(walecki(3), 2)
            try:
                hilton.single_vertex_step(hilton.ForestSplit.scan(cut), 3)
            except InvariantViolation as exc:
                print(exc)
        """)
        assert "1 of 2 owners of new vertex 2 are classes" in lines[0]

    def test_interior_vertex_is_an_internal_fault(self, monkeypatch, tmp_path):
        # an assignment that hands a vertex a class in which it is interior:
        # the path-end check refuses the edge, which is the step's fault and
        # not a rejected input, so solve raises InvariantViolation and the
        # command line exits 3
        real = hilton._assign
        handed = []

        def interior(split, need):
            owner = real(split, need)
            m = split.order
            for v in range(m):
                for i, second in enumerate(split.second):
                    if second[v] >= 0:
                        owner[v] = i
                        handed.append((m, v, i))
                        return owner
            return owner

        monkeypatch.setattr(hilton, "_assign", interior)
        h = star_graph(6)
        with pytest.raises(InvariantViolation, match="vertex step at order 7"):
            solve(h)
        assert handed
        path = tmp_path / "star.txt"
        path.write_text(format_instance(h))
        assert main(["solve", str(path)]) == 3

    def test_class_behind_schedule_raises(self):
        # at order 5 with n=3 every class needs 5 edges after the step, so
        # a class of 2 is 3 short; the completion entry refuses it below
        # its floor before any step runs
        cut = truncate_to_order(walecki(3), 5)
        cut.classes[0] = set(sorted(cut.classes[0])[:2])
        split = unproved(cut)
        with pytest.raises(
            PreconditionViolation,
            match="class 0 has 2 edges, floor 3 at the completion entry",
        ):
            extend_to_hcd(split, 3)
        assert split.order == 5


class TestPathEnds:
    # the join of lay_edges, the one place an edge enters a class, on
    # hand-made classes: its refusals and each kind of join

    def laid(self, classes, order, owners, bridge=None, stage="attach round"):
        split = unproved(Decomposition(order, [set(c) for c in classes]))
        hilton.lay_edges(split, owners, bridge, stage)
        return split

    def test_third_edge_rejected(self):
        # 1 is interior on the path 0-1-2: it has no free end
        with pytest.raises(InvariantViolation, match=re.escape(
            "vertex step at order 3: class 0 cannot take (1, 3): "
            "vertex 1 has no free end for (1, 3)"
        )):
            self.laid([{(0, 1), (1, 2)}, set()], 3, [[1, 0, 1]], stage="vertex step")

    def test_cycle_rejected(self):
        # 3 joins the path 0-1-2 at its end 0, which leaves 2 and 3 the
        # ends of one path
        with pytest.raises(InvariantViolation, match=re.escape(
            "vertex step at order 3: class 0 cannot take (2, 3): "
            "edge (2, 3) closes a cycle"
        )):
            self.laid([{(0, 1), (1, 2)}, set()], 3, [[0, 1, 0]], stage="vertex step")

    def test_joins_paths(self):
        # class 0 holds the paths 0-3 and 1-4 and the isolated 2 and 5;
        # new vertices 6 and 7 enter every class isolated.  In class 0, 3
        # joins the isolated 6 (an end and an isolated vertex), 4 the end
        # 6 (two ends), and 2 the isolated 7 (two isolated vertices); in
        # class 2 the bridge joins the ends 6 and 7 of 1-6 and 0-7, and
        # class 5 takes nothing
        split = self.laid(
            [{(0, 3), (1, 4)}] + [set()] * 5, 6,
            [[1, 2, 3, 0, 0, 4], [2, 3, 0, 4, 1, 1]], bridge=2,
        )
        assert split.gates(0) == [(0, 1), (2, 7), (5,)]
        assert split.gates(2) == [(0, 1), (2,), (3,), (4,), (5,)]
        assert split.gates(5) == [(v,) for v in range(8)]
        assert split.isolated == [1, 3, 4, 4, 4, 8]
        assert split.free[6] == 0b111010 and split.free[7] == 0b111001
        # the path ends, isolated counts and masks a fresh view gives
        assert held_state(split) == held_state(unproved(dec_of(split)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_states_track_views(self, n, monkeypatch):
        real = hilton.single_vertex_step
        steps = []

        def checked(split, n):
            real(split, n)
            steps.append(split.order)
            for i, cls in enumerate(classes_of(split)):
                assert split.gates(i) == view_gates(cls, split.order)

        monkeypatch.setattr(hilton, "single_vertex_step", checked)
        for m in range(1, 2 * n + 1):
            extend_to_hcd(scan(truncate_to_order(walecki(n), m)), n)
        assert len(steps) == sum(2 * n - m for m in range(1, 2 * n + 1))


class TestLayEdgesRefusals:
    """A round or step of the wrong shape, or an edge its class's state
    refuses, is the caller's fault, reported as InvariantViolation naming
    the stage (and the class and the edge)."""

    def lay(self, classes, owners, bridge=None, stage="vertex step"):
        dec = Decomposition(4, [set(c) for c in classes])
        hilton.lay_edges(unproved(dec), owners, bridge, stage)

    def test_old_vertex_without_a_free_end(self):
        # 1 is interior on the path 0-1-2-3
        with pytest.raises(InvariantViolation, match=re.escape(
            "vertex step at order 4: class 0 cannot take (1, 4): "
            "vertex 1 has no free end for (1, 4)"
        )):
            self.lay([{(0, 1), (1, 2), (2, 3)}], [[0, 0, 0, 0]])

    def test_new_vertex_without_a_free_end(self):
        # 4 took two edges of class 1 and is interior when the third comes
        with pytest.raises(InvariantViolation, match=re.escape(
            "attach round at order 4: class 1 cannot take (2, 4): "
            "vertex 4 has no free end for (2, 4)"
        )):
            self.lay([set(), set()], [[1, 1, 1, 0], [0, 0, 0, 0]],
                     bridge=0, stage="attach round")

    def test_edge_closing_a_cycle(self):
        # 0-1 and 0-4 leave 1 and 4 the ends of one path
        with pytest.raises(InvariantViolation, match=re.escape(
            "vertex step at order 4: class 1 cannot take (1, 4): "
            "edge (1, 4) closes a cycle"
        )):
            self.lay([set(), {(0, 1)}], [[1, 1, 0, 0]])

    @pytest.mark.parametrize(
        "owners, message",
        [([[0, 1, 0]], "3 of 3 owners of new vertex 4 are classes 0..1, wanted 4"),
         ([[0, 1, 0, 1, 0]], "5 of 5 owners of new vertex 4"),
         ([[0, 1, -1, 1]], "3 of 4 owners of new vertex 4"),
         ([[0, 1, 2, 1]], "3 of 4 owners of new vertex 4"),
         ([[0, 1, 0, 1], [0]], "1 of 1 owners of new vertex 5")],
        ids=["short", "long", "no-class", "class-out-of-range", "second-short"],
    )
    def test_owner_list_of_the_wrong_shape(self, owners, message):
        with pytest.raises(InvariantViolation, match=re.escape(
            f"vertex step at order 4: {message}"
        )):
            self.lay([set(), set()], owners)

    @pytest.mark.parametrize(
        "owners, bridge",
        [([[0, 1, 0, 1]] * 2, None), ([[0, 1, 0, 1]], 0),
         ([[0, 1, 0, 1]] * 3, 1), ([[0, 1, 0, 1]] * 2, 2), ([], None)],
        ids=["two-without", "one-with", "three", "bridge-out-of-range", "none"],
    )
    def test_bridge_comes_exactly_with_two_new_vertices(self, owners, bridge):
        split = unproved(Decomposition(4, [set(), set()]))
        with pytest.raises(InvariantViolation, match=re.escape(
            f"attach round at order 4: {len(owners)} new vertices with "
            f"bridge class {bridge}, wanted one without or two with a class "
            "0..1"
        )):
            hilton.lay_edges(split, owners, bridge, "attach round")
        # refused before anything is laid
        assert split.order == 4 and classes_of(split) == [set(), set()]
        assert split.count == [0, 0] and split.isolated == [4, 4]
        assert len(split.free) == 4


def rebuilt_free(split):
    """The free-class mask of every vertex, bit i for class i, read off
    the split's gates."""
    free = [0] * split.order
    for i in range(len(split.count)):
        for gate in split.gates(i):
            for v in gate:
                free[v] |= 1 << i
    return free


def random_pipeline_graphs(count):
    """Seeded graphs that solve routes to the pipeline: a cycle and a star,
    maybe a second cycle, and some single edges."""
    rng = random.Random("free-lists")
    graphs = []
    for _ in range(count):
        thick = [cycle_graph(rng.randint(3, 6)), star_graph(rng.randint(3, 5))]
        if rng.random() < 0.5:
            thick.append(cycle_graph(rng.randint(3, 5)))
        graphs.append(
            disjoint_union(*thick, *[path_graph(1)] * rng.randint(0, 5))
        )
    return graphs


class NoClear(list):
    """Free-class masks of which no entry ever changes, so no vertex drops
    a class; masks of new vertices are still appended."""

    def __setitem__(self, index, value):
        pass


class TestFreeLists:
    def carried_lists_checked(self, monkeypatch):
        real = hilton.single_vertex_step
        steps = []

        def checked(split, n):
            real(split, n)
            order = split.order
            assert split.free == rebuilt_free(split), (n, order)
            steps.append(order)

        monkeypatch.setattr(hilton, "single_vertex_step", checked)
        return steps

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lists_match_the_states_on_truncations(self, n, monkeypatch):
        steps = self.carried_lists_checked(monkeypatch)
        for m in range(1, 2 * n + 1):
            extend_to_hcd(scan(truncate_to_order(walecki(n), m)), n)
        assert len(steps) == sum(2 * n - m for m in range(1, 2 * n + 1))

    def test_lists_match_the_states_on_pipeline_graphs(self, monkeypatch):
        steps = self.carried_lists_checked(monkeypatch)
        for h in random_pipeline_graphs(6):
            steps.clear()
            cert = solve(h, seed=0)
            assert cert.trace[0] == "route: pipeline", h
            assert steps, h

    # the masks come out of the scan as NoClear lists: a path end that
    # becomes interior keeps its bit, which the masks' tie catches
    def test_skipped_removal_trips_the_tie(self):
        split = scan(truncate_to_order(walecki(4), 3))
        split.free = NoClear(split.free)
        with pytest.raises(InvariantViolation, match="free-class masks"):
            extend_to_hcd(split, 4)

    def test_skipped_removal_trips_the_tie_under_optimize(self, run_optimized):
        # the same mutant under python -O, where asserts are stripped
        lines = run_optimized("""
            from rainbow_hcd import hilton
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.graph_core import walecki

            class NoClear(list):
                def __setitem__(self, index, value):
                    pass

            split = hilton.ForestSplit.scan(hilton.truncate_to_order(walecki(4), 3))
            split.free = NoClear(split.free)
            try:
                hilton.extend_to_hcd(split, 4)
            except InvariantViolation as exc:
                print(exc)
        """)
        assert "free-class masks" in lines[0]


def slot_states(split, i):
    """What the slots of class i say about it: its isolated vertices, those
    with no filled slot, and its path ends, those with exactly one."""
    first, second = split.first[i], split.second[i]
    isolated = {v for v in range(split.order) if first[v] < 0}
    ends = {v for v in range(split.order) if first[v] >= 0 > second[v]}
    return isolated, ends


def sweep_graphs():
    """The graphs of the slot sweep: dense K_{1,n} and C_n, sparse
    C3 + (n-3)K2 and C_{n/2} + (n/2)K2, three P3-heavy graphs K_{1,3} +
    kP3 (+ K2), whose dense parts take the recursive embed, and 20
    random graphs, n edges on 1.4n labels."""
    graphs = [star_graph(16), cycle_graph(16), star_graph(9), cycle_graph(11)]
    graphs += [disjoint_union(cycle_graph(3), *[path_graph(1)] * 9),
               disjoint_union(cycle_graph(6), *[path_graph(1)] * 6)]
    for n in (12, 15, 20):
        parts = [star_graph(3), *[path_graph(2)] * ((n - 3) // 2)]
        graphs.append(disjoint_union(*parts, *[path_graph(1)] * (n % 2 == 0)))
    rng = random.Random("slot-sweep")
    for _ in range(20):
        n = rng.randint(6, 24)
        labels = int(1.4 * n)
        drawn = set()
        while len(drawn) < n:
            u, v = rng.sample(range(labels), 2)
            drawn.add(edge(u, v))
        graphs.append(sorted(drawn))
    return graphs


class TestSlotsSayTheState:
    # the neighbour slots alone say which vertices of a class are isolated
    # (first slot empty), which are path ends (one slot filled) and in
    # which classes a vertex is free (second slot empty); at every stage
    # check of a sweep, the carried path ends, isolated counts and masks
    # say the same
    def test_slots_match_the_carried_state(self, monkeypatch):
        real = hilton.check_stage
        checked = Counter()

        def spy(split, n, held, where, *args):
            real(split, n, held, where, *args)
            order = split.order
            for i in range(n):
                isolated, ends = slot_states(split, i)
                assert set(split.partner[i]) == ends, (i, where)
                assert split.isolated[i] == len(isolated), (i, where)
                free = [v for v in range(order) if split.free[v] >> i & 1]
                assert free == sorted(isolated | ends), (i, where)
            checked[" ".join(w for w in where.split() if not w.isdigit())] += 1

        for module in (hilton, extend_sparse, embed_dense):
            monkeypatch.setattr(module, "check_stage", spy)
        routes = Counter(solve(h, seed=0).trace[0] for h in sweep_graphs())
        # the embed exit, the attach entry and rounds, the completion entry
        # and every vertex step are all checked
        assert set(checked) == {
            "at the embed exit", "at the attach entry", "after step",
            "at the completion entry", "at vertex",
        }, checked
        assert sum(checked.values()) == 543, checked
        assert routes == {"route: pipeline": 29}, routes


class TestFlow:
    def test_matches_recursive_reference(self):
        rng = random.Random(0)
        for _ in range(300):
            nodes = rng.randint(2, 12)
            a, b = _Dinic(), _Dinic()
            for fl in (a, b):
                for _ in range(nodes):
                    fl.add_node()
            for _ in range(rng.randint(0, 40)):
                u, v = rng.randrange(nodes), rng.randrange(nodes)
                cap = rng.choice([0, 1, 1, 2, 3, 5, hilton._INF])
                a.add_arc(u, v, cap)
                b.add_arc(u, v, cap)
            s, t = rng.sample(range(nodes), 2)
            assert a.max_flow(s, t) == recursive_max_flow(b, s, t)
            assert a.cap == b.cap
