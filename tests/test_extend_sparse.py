import random
import re
import textwrap
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbow_hcd import coloring, extend_sparse, hilton
from rainbow_hcd.coloring import BipartiteMultigraph, paired_balanced_2_coloring
from rainbow_hcd.embed_dense import embed_dense
from rainbow_hcd.errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from rainbow_hcd.extend_sparse import (
    _split_slots,
    _stage_witness,
    _witness_ok,
    capacity_graph,
    extend_with_k2s,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from rainbow_hcd.graph_core import (
    Decomposition,
    analyze_linear_forest,
    complete_edges,
    component_edge_groups,
    edge,
    edge_vertices,
    verify_certificate,
)
from rainbow_hcd.hilton import (
    ForestSplit,
    PathEnds,
    _Dinic,
    check_stage,
    extend_to_hcd,
    size_floor,
)
from rainbow_hcd.solver import solve
from test_hilton import free_classes

scan = ForestSplit.scan


def attach(split, owner, cstar):
    """Lay a round's witness as extend_with_k2s does: old vertex v gives
    owner[2v] to new vertex m and owner[2v + 1] to m + 1, and cstar takes
    the bridge."""
    hilton.lay_edges(split, [owner[0::2], owner[1::2]], cstar, "attach round")


def dense_split(h_edges, n, seed=0):
    return embed_dense(h_edges, n, lambda e: solve(e, seed))


def scan_gates(dec):
    """The gates of every class, from a full scan."""
    return [state.gates() for state in scan(dec).ends]


def gate_states(gates):
    """The state of each class from gates[i], a path as its two ends or an
    isolated vertex alone; every other vertex lies inside a path."""
    return [
        PathEnds(
            {v: w for g in gs if len(g) == 2 for v, w in (g, g[::-1])},
            {g[0] for g in gs if len(g) == 1},
        )
        for gs in gates
    ]


def round_owner(m, gates, floors, cstar):
    """hilton._assign as an attach round calls it, on hand-made gates: each
    class's state and every vertex's free-class mask are built from gates[i]
    (gate_states).  Class i takes floors[i] to 4 slots, cstar at most 2,
    and every class but cstar, the classes of cap 4, may double one gate."""
    ends = gate_states(gates)
    cap = [2 if i == cstar else 4 for i in range(len(gates))]
    return hilton._assign(m, floors, ends, free_classes(ends, m), 2, cap)


def pairs(owner):
    """The two classes of each old vertex in an owner list, ascending."""
    return [sorted(owner[u:u + 2]) for u in range(0, len(owner), 2)]


def holders(owner, i):
    """The old vertices that give class i a slot, one entry per slot."""
    return [u // 2 for u, j in enumerate(owner) if j == i]


def gain_floors(split, cstar):
    """The gain floors of an attach round on split with the bridge in
    cstar: each class's size floor at order m + 2, less its edges and the
    bridge."""
    dec = split.dec
    m, n = dec.order, len(dec.classes)
    return [
        size_floor(m + 2, n, i <= cstar) - len(cls) - (i == cstar)
        for i, cls in enumerate(dec.classes)
    ]


def p3_split():
    # the direct-matching split embed_dense lays for P3 = 0-1-2 at n = 3
    return Decomposition(3, [{edge(0, 1)}, {edge(0, 2), edge(1, 2)}, set()])


def c4_split():
    # the same for C4 = 0-1-2-3 at n = 4
    return Decomposition(
        4,
        [{edge(0, 1)}, {edge(0, 2), edge(1, 2), edge(1, 3)}, {edge(2, 3)},
         {edge(0, 3)}],
    )


def k5_forests():
    # sizes (4, 4, 2): two spanning paths and one short path
    classes = [
        {edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)},
        {edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 4)},
        {edge(0, 4), edge(2, 4)},
    ]
    return Decomposition(5, classes)


def matching_state():
    """The split of K_4 into the perfect matchings {01, 23}, {02, 13},
    {03, 12} and three empty classes."""
    return scan(Decomposition(
        4,
        [{edge(0, 1), edge(2, 3)}, {edge(0, 2), edge(1, 3)},
         {edge(0, 3), edge(1, 2)}, set(), set(), set()],
    ))


# witnesses on matching_state, new vertices 4 and 5: old vertex v gives
# owner[2v] to 4 and owner[2v + 1] to 5, one pair a line
GOOD_SPLIT = [
    0, 1,
    3, 1,
    0, 3,
    3, 3,
]
# class 0 sends paths 0-1 and 2-3 each to both new vertices: 4-0-1-5-3-2-4
TWO_GATES_SPLIT = [
    0, 3,
    3, 0,
    0, 3,
    3, 0,
]
# class 0 sends path 0-1 to both new vertices; as cstar it also holds the
# bridge 4-5 and closes 4-0-1-5-4
CSTAR_SPLIT = [
    0, 3,
    3, 0,
    3, 4,
    4, 3,
]
# class 3 gives new vertex 4 three edges
THIRD_EDGE_SPLIT = [
    3, 4,
    3, 4,
    3, 1,
    4, 1,
]
# class 0 spends the one free slot of path end 0 on both new vertices
SLOT_TWICE_SPLIT = [
    0, 0,
    3, 4,
    4, 5,
    5, 3,
]


class TestCapacityGraph:
    # capacity_graph checks the round's slot counts on the carried state:
    # k = 2n - m + 1 at every old vertex; class i offers 2(m - |Q_i|),
    # which check_stage ties to its state

    def test_slot_counts(self):
        split = scan(k5_forests())
        dec = split.dec
        # class i offers 2 * (order - size) slots in total
        for cls, e in zip(dec.classes, split.ends):
            assert len(e.partner) + 2 * len(e.isolated) == 2 * (dec.order - len(cls))
        capacity_graph(split)
        # a class that lost an edge its state still holds is caught by the
        # count tie every round's stage check runs on the same states
        dec.classes[2].discard(edge(0, 4))
        with pytest.raises(InvariantViolation, match="drifted from its path ends"):
            check_stage(split, 3, 3, "after the round")

    def test_vertex_side_totals(self):
        # every old vertex offers k = 2n - m + 1 slots in all; one free-class
        # mask that misses a class leaves its vertex a slot short
        split = scan(k5_forests())
        free = split.free
        m, n = split.dec.order, len(split.dec.classes)
        assert all(
            free[u].bit_count() + sum(u in e.isolated for e in split.ends)
            == 2 * n - m + 1
            for u in range(m)
        )
        capacity_graph(split)
        free[3] &= free[3] - 1  # its lowest class
        with pytest.raises(
            InvariantViolation, match=f"vertex 3 offers {2 * n - m} slots, wanted"
        ):
            capacity_graph(split)

    def test_isolated_vertex_offers_two(self):
        # each class holds one edge of K_3: two path ends and an isolated
        # vertex, 4 slots, so k = 4 is met only if the isolated vertex
        # counts twice
        split = scan(Decomposition(3, [{edge(0, 1)}, {edge(0, 2)}, {edge(1, 2)}]))
        capacity_graph(split)
        assert split.free == [0b111] * 3


class TestVerifySparseState:
    # the stage's own checks of its split: hilton.check_stage at the entry
    # and after each round, on the carried states and free-class masks

    def test_accepts_valid_state(self):
        grown = extend_with_k2s(scan(p3_split()), t=2, n=3)
        check_stage(grown, 3, 3, "after step 1")
        check_stage(scan(grown.dec), 3, 3, "after step 1")

    def test_rejects_wrong_order(self):
        # an order the carried states do not account for
        grown = extend_with_k2s(scan(p3_split()), t=2, n=3)
        grown.dec.order += 1
        with pytest.raises(InvariantViolation, match="drifted"):
            check_stage(grown, 3, 3, "after step 1")

    # a split outside the stage's contract is the caller's fault
    def test_rejects_wrong_class_count(self):
        with pytest.raises(PreconditionViolation, match="expected 4 classes"):
            extend_with_k2s(scan(k5_forests()), t=3, n=4)

    def test_rejects_floor_shortfall(self):
        # the floor is 3 for every class here; the last one holds 2 edges
        with pytest.raises(
            PreconditionViolation, match="class 2 has 2 edges, floor 3"
        ):
            extend_with_k2s(scan(k5_forests()), t=3, n=3)


class TestPreconditions:
    def test_rejects_single_planted_edge(self):
        with pytest.raises(PreconditionViolation):
            extend_with_k2s(scan(k5_forests()), t=1, n=3)

    def test_rejects_too_many_vertices(self):
        # order r <= 2t - 1 is the check that leaves every round at least
        # four slots a vertex (see _stage_witness)
        with pytest.raises(PreconditionViolation):
            extend_with_k2s(scan(k5_forests()), t=2, n=3)


class TestGrowth:
    def test_path_to_five_vertices(self):
        # two planted edges, one round: 3 classes of K_5 sized (4, 3, 3)
        out = extend_with_k2s(scan(p3_split()), t=2, n=3).dec
        assert out.order == 5
        assert sorted(len(c) for c in out.classes) == [3, 3, 4]
        assert edge(0, 1) in out.classes[0]
        assert edge(1, 2) in out.classes[1]
        assert edge(3, 4) in out.classes[2]

    def test_grown_split_completes_to_cycles(self):
        out = extend_to_hcd(extend_with_k2s(scan(p3_split()), t=2, n=3), 3)
        out.check_hcd()
        assert out.order == 7

    def test_three_rounds(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        trace = []
        out = extend_with_k2s(dense_split(h, 8), t=5, n=8, trace=trace).dec
        assert out.order == 7 + 2 * 3
        assert [line.split()[1] for line in trace] == ["s=0", "s=1", "s=2"]
        check_stage(scan(out), 8, 8, "after step 3")

    def test_bridge_lands_in_scheduled_class(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        out = extend_with_k2s(dense_split(h, 8), t=5, n=8).dec
        for s in range(3):
            assert edge(7 + 2 * s, 8 + 2 * s) in out.classes[5 + s]

    def test_planted_edges_survive_every_round(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        out = extend_with_k2s(dense_split(h, 8), t=5, n=8).dec
        for i, e in enumerate(h):
            assert e in out.classes[i]

    def test_deterministic(self):
        # no round draws a random number: the same split grows the same way
        h = disjoint_union(star_graph(3), path_graph(2))
        a = extend_with_k2s(dense_split(h, 8), t=5, n=8).dec
        b = extend_with_k2s(dense_split(h, 8), t=5, n=8).dec
        assert a.classes == b.classes

    def test_no_rounds_needed(self):
        out = extend_with_k2s(scan(c4_split()), t=4, n=4).dec
        assert out.order == c4_split().order
        assert out.classes == c4_split().classes


def reference_split(m, n, ends, owner):
    """extend_sparse._split_slots as first written, on (class, low end)
    gate tuples, a Counter of them, a dict of node numbers and (edge, far
    node, flip) triples: the reference that the flat-list split must match
    list for list."""
    pairs = [sorted(owner[2 * v:2 * v + 2]) for v in range(m)]
    gates = [
        [(i, min(v, ends[i].partner.get(v, v))) for i in pair]
        for v, pair in enumerate(pairs)
    ]
    load = Counter(g for pair in gates for g in pair)
    doubled = sorted(g for g, count in load.items() if count == 2)
    node = {g: x for x, g in enumerate(doubled, n)}
    adj = [[] for _ in range(n + len(node))]
    for v, (g, h) in enumerate(gates):
        x, y = node.get(g, g[0]), node.get(h, h[0])
        adj[x].append((v, y, False))
        adj[y].append((v, x, True))
    odd = [x for x, inc in enumerate(adj) if len(inc) % 2]
    for e, (x, y) in enumerate(zip(odd[0::2], odd[1::2]), start=m):
        adj[x].append((e, y, False))
        adj[y].append((e, x, False))
    out = [i for pair in pairs for i in pair]
    used = [False] * (m + len(odd) // 2)
    ptr = [0] * len(adj)
    for start in range(len(adj)):
        stack = [start]
        while stack:
            x = stack[-1]
            inc = adj[x]
            while ptr[x] < len(inc) and used[inc[ptr[x]][0]]:
                ptr[x] += 1
            if ptr[x] == len(inc):
                stack.pop()
                continue
            e, y, flip = inc[ptr[x]]
            used[e] = True
            if flip:
                out[2 * e], out[2 * e + 1] = out[2 * e + 1], out[2 * e]
            stack.append(y)
    return out


def check_splits(monkeypatch):
    """Make every _split_slots call of a solve also compare its result with
    reference_split's; returns the list of the orders m of the rounds
    compared."""
    orders = []
    real = extend_sparse._split_slots

    def spy(m, n, ends, owner):
        out = real(m, n, ends, owner)
        assert out == reference_split(m, n, ends, owner), (m, owner)
        orders.append(m)
        return out

    monkeypatch.setattr(extend_sparse, "_split_slots", spy)
    return orders


def round_flow_feasible(m, gates, floors, cstar):
    """Reference: whether the round's lower-bounded flow of the module
    docstring, built on _Dinic from the same gates, is feasible."""
    fl = _Dinic()
    src, snk = fl.add_node(), fl.add_node()
    vnode = [fl.add_node() for _ in range(m)]
    for i, class_gates in enumerate(gates):
        cnode, dbl = fl.add_node(), fl.add_node()
        fl.add_bounded_arc(src, cnode, floors[i], 2 if i == cstar else 4)
        if i != cstar:
            fl.add_arc(cnode, dbl, 1)
        for ends in class_gates:
            gate = fl.add_node()
            fl.add_arc(cnode, gate, 1)
            fl.add_arc(dbl, gate, 1)
            for v in ends:
                fl.add_arc(gate, vnode[v], 2 if len(ends) == 1 else 1)
    for v in range(m):
        fl.add_bounded_arc(vnode[v], snk, 2, 2)
    return fl.feasible(src, snk)


def random_round(rng):
    """Random gates, floors and cstar for one round: per class, every old
    vertex lies in a path of 1 to 4 vertices (a gate by its ends, or an
    isolated vertex) or inside a longer one (no gate).  The vertices need
    not take 2 slots in all, so some rounds are infeasible."""
    n, m = rng.randint(1, 8), rng.randint(1, 12)
    gates = []
    for _ in range(n):
        order = rng.sample(range(m), m)
        paths, isolated = [], []
        while order:
            size = rng.choice([0, 1, 1, 1, 2, 2, 3, 4])
            seg, order = order[:max(size, 1)], order[max(size, 1):]
            if size == 1:
                isolated.append(seg[0])
            elif len(seg) > 1:
                paths.append(tuple(sorted((seg[0], seg[-1]))))
        gates.append(sorted(paths) + [(v,) for v in sorted(isolated)])
    cstar = rng.randrange(n)
    cap = [2 if i == cstar else 4 for i in range(n)]
    floors = [rng.randint(0, c) for c in cap]
    if rng.random() < 0.5:
        # floors near 2m in all, where most of them bind
        floors = [0] * n
        for _ in range(2 * m - rng.randint(0, 2)):
            room = [i for i in range(n) if floors[i] < cap[i]]
            if room:
                floors[rng.choice(room)] += 1
    return m, gates, floors, cstar


class TestWitness:
    # _assign as an attach round calls it, on hand-made gates: a gate is a
    # path by its two ends or an isolated vertex alone, and every old
    # vertex must give two slots

    def test_cstar_takes_one_end_of_its_only_path(self):
        # class 0 offers only the ends of path 0-1; class 1 can fill either
        # vertex from its isolated gates
        gates = [[(0, 1)], [(0,), (1,)], []]
        assert holders(round_owner(2, gates, [2, 0, 0], cstar=2), 0) == [0, 1]
        owner = round_owner(2, gates, [1, 0, 0], cstar=0)
        assert len(holders(owner, 0)) == 1
        with pytest.raises(InternalInfeasible):
            round_owner(2, gates, [2, 0, 0], cstar=0)

    def test_one_path_per_class_takes_both_ends(self):
        # class 0 holds paths 0-1 and 2-3: both ends of both would join the
        # new vertices twice, so it reaches 3 slots but not 4
        iso = [(0,), (1,), (2,), (3,)]
        gates = [[(0, 1), (2, 3)], iso, iso, []]
        owner = round_owner(4, gates, [3, 0, 0, 0], cstar=3)
        assert len(holders(owner, 0)) == 3
        with pytest.raises(InternalInfeasible):
            round_owner(4, gates, [4, 0, 0, 0], cstar=3)

    def test_isolated_vertex_doubles_only_outside_cstar(self):
        assert round_owner(1, [[(0,)], []], [0, 0], cstar=1) == [0, 0]
        with pytest.raises(InternalInfeasible):
            round_owner(1, [[(0,)], []], [0, 0], cstar=0)

    # the greedy start only saves search; from no start at all the
    # augmenting paths alone must settle every round the same way
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_slot_search_succeeds_exactly_when_the_flow_is_feasible(
        self, monkeypatch, cold
    ):
        if cold:
            monkeypatch.setattr(
                hilton, "_warm_start",
                lambda need, free, partner, units, *_: [-1] * (len(free) * units),
            )
        rng = random.Random("attach-round")
        outcomes = Counter()
        for _ in range(1500):
            m, gates, floors, cstar = random_round(rng)
            if not round_flow_feasible(m, gates, floors, cstar):
                with pytest.raises(InternalInfeasible):
                    round_owner(m, gates, floors, cstar)
                outcomes["infeasible"] += 1
                continue
            owner = round_owner(m, gates, floors, cstar)
            outcomes["feasible"] += 1
            # every old vertex gives two slots
            assert len(owner) == 2 * m and min(owner) >= 0
            for i, class_gates in enumerate(gates):
                held = holders(owner, i)
                assert floors[i] <= len(held) <= (2 if i == cstar else 4)
                # each slot lies on a gate of the class; a path end gives
                # one, and one gate at most takes two, both ends of a path
                # or an isolated vertex twice
                on = Counter(next(g for g in class_gates if v in g) for v in held)
                for gate, count in on.items():
                    assert count <= 2
                    if count == 2:
                        outcomes["path" if len(gate) == 2 else "isolated"] += 1
                        assert len({v for v in held if v in gate}) == len(gate)
                doubles = sum(count == 2 for count in on.values())
                assert doubles <= (0 if i == cstar else 1)
        # feasible and infeasible rounds, and rounds in which a path takes
        # both its ends or an isolated vertex takes two slots
        assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes

    def test_two_classes_double_a_gate(self):
        # class 0 must take both ends of its path and class 1 its isolated
        # vertex 2 twice; the search reaches the second doubler through a
        # class that gives up the second unit of a gate
        gates = [[(0, 1), (3,)], [(0,), (2,), (3,)], [(1, 3), (2,)]]
        owner = round_owner(4, gates, [3, 4, 0], cstar=2)
        assert pairs(owner) == [[0, 1], [0, 2], [1, 1], [0, 1]]

    def test_stage_checks_raise_not_assert(self):
        # a mask that misses a class leaves its vertex a slot short
        split = scan(p3_split())
        split.free[0] &= split.free[0] - 1
        with pytest.raises(InvariantViolation, match="slots, wanted"):
            _stage_witness(split, 2, 3, 0)

    def test_accepts_a_split_that_keeps_every_class_linear(self):
        for owner in (GOOD_SPLIT, CSTAR_SPLIT):
            split = matching_state()
            assert _witness_ok(owner, gain_floors(split, 5))
            attach(split, owner, 5)
            check_stage(split, 6, 6, "after the round")

    def test_checks_the_gain_floors(self):
        # GOOD_SPLIT gives class 0 two slots, class 1 two and class 3 four
        floors = [2, 2, 0, 4, 0, 0]
        assert _witness_ok(GOOD_SPLIT, floors)
        assert not _witness_ok(GOOD_SPLIT, [3, 2, 0, 4, 0, 0])
        assert not _witness_ok(GOOD_SPLIT, [2, 2, 0, 4, 0, 1])
        # the short list gives class 3 only two slots
        assert not _witness_ok(GOOD_SPLIT[:-2], floors)

    # the witness check reads only the gain floors; lay_edges refuses a
    # witness of the wrong shape before it lays anything
    @pytest.mark.parametrize(
        "owner, valid",
        [(GOOD_SPLIT + [0, 1], "5 of 5 owners of new vertex 4"),
         (GOOD_SPLIT[:-2], "3 of 3 owners of new vertex 4"),
         (GOOD_SPLIT[:-1] + [-1], "3 of 4 owners of new vertex 5")],
        ids=["long", "short", "negative-owner"],
    )
    def test_lay_edges_refuses_a_witness_of_the_wrong_shape(self, owner, valid):
        split = matching_state()
        before = [set(cls) for cls in split.dec.classes], list(split.free)
        with pytest.raises(InvariantViolation, match=re.escape(
            f"attach round at order 4: {valid} are classes 0..5, wanted 4"
        )):
            attach(split, owner, 5)
        assert split.dec.order == 4
        assert (split.dec.classes, split.free) == before

    # the witness check reads only the gain floors; a split that breaks a
    # class is refused where lay_edges lays it, by the states' add_edge,
    # as the solve's own fault
    @pytest.mark.parametrize(
        "owner, cstar",
        [(TWO_GATES_SPLIT, 5), (CSTAR_SPLIT, 0), (THIRD_EDGE_SPLIT, 5),
         (SLOT_TWICE_SPLIT, 5)],
        ids=["two-gates-close-a-cycle", "cstar-gate-and-bridge",
             "third-edge-at-new-vertex", "slot-spent-twice"],
    )
    def test_rejects_a_bad_split_and_keeps_the_states(self, owner, cstar):
        split = matching_state()
        # every old vertex gives one edge to each new vertex and the floors
        # are slack, so the witness check accepts it
        assert len(owner) == 2 * split.dec.order
        assert _witness_ok(owner, gain_floors(split, cstar))
        with pytest.raises(
            InvariantViolation, match=r"attach round at order 4: class \d cannot take"
        ):
            attach(split, owner, cstar)

    def test_rejects_a_slot_at_an_interior_vertex(self):
        # class 0 is the path 0-1-2, whose inner vertex 1 offers no slot;
        # the same witness with vertex 1's slot moved to cstar is laid
        def split():
            return scan(Decomposition(
                3, [{edge(0, 1), edge(1, 2)}, set(), set(), {edge(0, 2)}]
            ))

        bad, good = [1, 2, 0, 1, 1, 2], [1, 2, 3, 1, 1, 2]
        laid = split()
        assert _witness_ok(bad, gain_floors(laid, 3))
        with pytest.raises(InvariantViolation, match=re.escape(
            "class 0 cannot take (1, 3): vertex 1 has no free end"
        )):
            attach(laid, bad, 3)
        laid = split()
        assert _witness_ok(good, gain_floors(laid, 3))
        attach(laid, good, 3)
        check_stage(laid, 4, 4, "after the round")

    def feasible_rounds(self, seed, count):
        """(m, gates, floors, cstar, owner) for count feasible random
        rounds, owner as _assign returns it."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            m, gates, floors, cstar = random_round(rng)
            try:
                owner = round_owner(m, gates, floors, cstar)
            except InternalInfeasible:
                continue
            out.append((m, gates, floors, cstar, owner))
        return out

    def test_split_gives_each_side_one_slot_a_vertex(self):
        doubled = Counter()
        for m, gates, floors, cstar, owner in self.feasible_rounds(
            "euler-split", 400
        ):
            n = len(gates)
            ends = gate_states(gates)
            out = _split_slots(m, n, ends, owner)
            # each vertex keeps its pair: one slot to m, the other to m + 1
            at = pairs(out)
            assert at == pairs(owner)
            for i in range(n):
                assert abs(out[0::2].count(i) - out[1::2].count(i)) <= 1, i
            for i, class_gates in enumerate(gates):
                for gate in class_gates:
                    if len(gate) == 1 and at[gate[0]] == [i, i]:
                        # an isolated vertex: one slot to each side
                        doubled["isolated"] += 1
                    elif len(gate) == 2 and all(i in at[v] for v in gate):
                        # a path's two ends: one to each side
                        a, b = gate
                        assert (out[2 * a] == i) != (out[2 * b] == i)
                        doubled["path"] += 1
            assert _witness_ok(out, floors)
            # laid through the states, every class stays a linear forest;
            # lay_edges reads only the order of the classes, the states and
            # the masks
            dec = Decomposition(m, [set() for _ in range(n)])
            attach(ForestSplit(dec, ends, free_classes(ends, m)), out, cstar)
        # rounds with a path that takes both ends, and an isolated vertex
        # that takes two slots
        assert min(doubled.values()) >= 20 and len(doubled) == 2, doubled

    def test_split_matches_the_reference_split(self, monkeypatch):
        # on random rounds, then on every round of the carried graphs
        for m, gates, _, _, owner in self.feasible_rounds("differential", 400):
            ends = gate_states(gates)
            assert _split_slots(m, len(gates), ends, owner) == reference_split(
                m, len(gates), ends, owner
            ), owner
        orders = check_splits(monkeypatch)
        graphs = carried_graphs()
        for h in graphs:
            solve(h, seed=0)
        assert len(orders) == sum(map(single_edges, graphs))

    def test_split_matches_the_paired_coloring_euler_split(self, monkeypatch):
        # paired_balanced_2_coloring keeps a shuffled cyclic start when it
        # is balanced, and otherwise recolours by one Euler split
        # (_recolor_pair); that split is the same as _split_slots
        ran = []
        real = coloring._recolor_pair

        def spy(*args):
            ran.append(True)
            return real(*args)

        monkeypatch.setattr(coloring, "_recolor_pair", spy)
        rng = random.Random("paired-coloring")
        outcomes = Counter()
        for m, gates, _, _, owner in self.feasible_rounds("differential", 400):
            n = len(gates)
            ends = gate_states(gates)
            # one edge per slot, class by class, and the two edges of a
            # doubled gate mated
            chosen = BipartiteMultigraph(n, m)
            at = {}  # gate, by class and low end -> its edges
            for i, v in sorted((i, u // 2) for u, i in enumerate(owner)):
                gate = (i, min(v, ends[i].partner.get(v, v)))
                at.setdefault(gate, []).append(chosen.add_edge(i, v))
            mate = {}
            for fs in at.values():
                if len(fs) == 2:
                    mate[fs[0]], mate[fs[1]] = fs[1], fs[0]
            ran.clear()
            sides = paired_balanced_2_coloring(chosen, mate, rng)
            if not ran:
                outcomes["start kept"] += 1
                continue
            old = [-1] * (2 * m)
            for new_vertex, side in enumerate(sides):
                for f in side:
                    i, v = chosen.edges[f]
                    old[2 * v + new_vertex] = i
            assert _split_slots(m, n, ends, owner) == old, owner
            outcomes["euler"] += 1
        assert outcomes["euler"] >= 300 and outcomes["start kept"] >= 5, outcomes

    def test_doubled_gate_on_one_side_is_rejected(self, capsys):
        exec(SPLIT_MUTANT, {})
        assert SPLIT_MUTANT_ERROR in capsys.readouterr().out

    def test_doubled_gate_on_one_side_is_rejected_under_optimize(self, run_optimized):
        lines = run_optimized(SPLIT_MUTANT)
        assert SPLIT_MUTANT_ERROR in lines[0]

    def test_witness_budget(self, monkeypatch):
        # every round's first and only witness must verify: C3 + (n-3)K2
        # over five seeds, then random graphs with 1-8 single edges; each
        # round's split must be reference_split's
        orders = check_splits(monkeypatch)
        cases = [
            (disjoint_union(cycle_graph(3), *[path_graph(1)] * (n - 3)), seed)
            for n in range(6, 17)
            for seed in range(5)
        ]
        rng = random.Random("witness-sweep")
        shapes = [cycle_graph(3), cycle_graph(4), cycle_graph(5),
                  star_graph(3), star_graph(4), path_graph(2), path_graph(3)]
        for _ in range(80):
            thick = [rng.choice(shapes[:5])]
            thick += rng.sample(shapes, rng.randint(1, 2))
            k2 = [path_graph(1)] * rng.randint(1, 8)
            cases.append((disjoint_union(*thick, *k2), rng.randrange(100)))
        for h, seed in cases:
            cert = solve(h, seed)
            rounds = sum(1 for ln in cert.trace if ln.startswith("attach:"))
            assert cert.trace[0] == "route: pipeline", h
            assert rounds == single_edges(h), h
            assert verify_certificate(cert).ok, (h, seed)
        assert len(orders) == sum(single_edges(h) for h, _ in cases)


def single_edges(h):
    """The number of single-edge components of h: its attach rounds."""
    return sum(len(g) == 1 for g in component_edge_groups(h))


def carried_graphs():
    """C3 + (n - 3)K2 for n = 6..16 and six random pipeline graphs, each
    with at least one attach round."""
    graphs = [
        disjoint_union(cycle_graph(3), *[path_graph(1)] * (n - 3))
        for n in range(6, 17)
    ]
    rng = random.Random("carried-state")
    for _ in range(6):
        thick = [cycle_graph(rng.randint(3, 5)), star_graph(3)]
        graphs.append(
            disjoint_union(*thick, *[path_graph(1)] * rng.randint(1, 6))
        )
    return graphs


# mutants of the round's lay_edges, each caught by a check of the round
# that runs under python -O too, and the message of the InvariantViolation
# it raises
MUTANTS = {
    # the class of the bridge drops it after the round
    "drift": ("""
        def lay(split, owners, bridge, stage):
            real(split, owners, bridge, stage)
            dec = split.dec
            dec.classes[bridge].discard(edge(dec.order - 2, dec.order - 1))
    """, "drifted from its path ends"),
    # the old vertices keep every class they were free in
    "keep-free": ("""
        def lay(split, owners, bridge, stage):
            before = list(split.free)
            real(split, owners, bridge, stage)
            split.free[:len(before)] = before
    """, "free-class masks hold"),
    # new vertex m is offered the class of its first edge twice: one edge
    # too many
    "edge-twice": ("""
        def lay(split, owners, bridge, stage):
            real(split, [owners[0][:1] + owners[0], owners[1]], bridge, stage)
    """, "attach round at order 3: 4 of 4 owners of new vertex 3 are "
         "classes 0..2, wanted 3"),
    # the round's edges leave out the bridge
    "no-bridge": ("""
        def lay(split, owners, bridge, stage):
            real(split, owners, None, stage)
    """, "attach round at order 3: 2 new vertices with bridge class None"),
}

# runs extend_with_k2s on p3_split (one round, m = 3) with the lay_edges
# it calls replaced by the mutant defined above it, and prints the error
# it raises
MUTANT_RUN = """
from rainbow_hcd import extend_sparse
from rainbow_hcd.errors import InvariantViolation
from rainbow_hcd.graph_core import Decomposition, edge
from rainbow_hcd.hilton import ForestSplit

real = extend_sparse.lay_edges
{mutant}
extend_sparse.lay_edges = lay
try:
    extend_sparse.extend_with_k2s(ForestSplit.scan(
        Decomposition(3, [{{edge(0, 1)}}, {{edge(0, 2), edge(1, 2)}}, set()])
    ), t=2, n=3)
except InvariantViolation as exc:
    print(exc)
finally:
    extend_sparse.lay_edges = real
"""


# runs the one round of p3_split, in which class 1 takes both ends of its
# path 0-2-1, with a split that sends both of them to new vertex m and the
# other slots at those ends to m + 1: every old vertex still gives one
# edge to each new vertex, but class 1 closes the cycle m-0-2-1-m, which
# laying the round refuses
SPLIT_MUTANT = """
from rainbow_hcd import extend_sparse
from rainbow_hcd.errors import InvariantViolation
from rainbow_hcd.graph_core import Decomposition, edge
from rainbow_hcd.hilton import ForestSplit

real = extend_sparse._split_slots

def split(m, n, ends, owner):
    owner = real(m, n, ends, owner)
    i, pair = next(
        (i, (v, p)) for v in range(m) for i in owner[2 * v:2 * v + 2]
        for p in [ends[i].partner.get(v)]
        if p is not None and i in owner[2 * p:2 * p + 2]
    )
    for v in pair:
        if owner[2 * v] != i:
            owner[2 * v], owner[2 * v + 1] = owner[2 * v + 1], owner[2 * v]
    return owner

extend_sparse._split_slots = split
try:
    extend_sparse.extend_with_k2s(ForestSplit.scan(
        Decomposition(3, [{edge(0, 1)}, {edge(0, 2), edge(1, 2)}, set()])
    ), t=2, n=3)
except InvariantViolation as exc:
    print(exc)
finally:
    extend_sparse._split_slots = real
"""
SPLIT_MUTANT_ERROR = "attach round at order 3: class 1 cannot take (1, 3)"

def mutant_code(name):
    return MUTANT_RUN.format(mutant=textwrap.dedent(MUTANTS[name][0]))


class TestCarriedState:
    def test_ends_match_a_full_scan_after_every_round(self, monkeypatch):
        rounds = []
        real = extend_sparse.check_stage

        def spy(split, n, held, where, *args):
            real(split, n, held, where, *args)
            assert [e.gates() for e in split.ends] == scan_gates(split.dec), where
            rounds.append(where)

        monkeypatch.setattr(extend_sparse, "check_stage", spy)
        for h in carried_graphs():
            rounds.clear()
            cert = solve(h, seed=0)
            assert cert.trace[0] == "route: pipeline", h
            # the stage entry, on embed_dense's split, and every round
            assert len(rounds) == single_edges(h) + 1 > 1, h

    def test_free_lists_match_a_rebuild_after_every_round(self, monkeypatch):
        rounds = []
        real = extend_sparse.check_stage

        def spy(split, n, held, where, *args):
            real(split, n, held, where, *args)
            assert split.free == free_classes(split.ends, split.dec.order), where
            rounds.append(where)

        monkeypatch.setattr(extend_sparse, "check_stage", spy)
        for h in carried_graphs():
            rounds.clear()
            solve(h, seed=0)
            k = single_edges(h)
            assert rounds == ["at the attach entry"] + [
                f"after step {s}" for s in range(1, k + 1)
            ]

    def test_no_round_builds_the_free_lists(self, monkeypatch):
        # the masks come with the split from its scan; neither the rounds
        # nor the completion scan again
        def no_scan(*args):
            raise AssertionError("ForestSplit.scan called")

        split = dense_split(disjoint_union(star_graph(3), path_graph(2)), 8)
        monkeypatch.setattr(ForestSplit, "scan", no_scan)
        extend_to_hcd(extend_with_k2s(split, t=5, n=8), 8).check_hcd()

    def test_class_moved_apart_from_its_state_is_caught(self, capsys):
        exec(mutant_code("drift"), {})
        assert MUTANTS["drift"][1] in capsys.readouterr().out

    def test_drift_is_caught_under_optimize(self, run_optimized):
        lines = run_optimized(mutant_code("drift"))
        assert MUTANTS["drift"][1] in lines[0]

    @pytest.mark.parametrize("name", ["keep-free", "edge-twice", "no-bridge"])
    def test_round_mutant_is_caught(self, name, capsys):
        exec(mutant_code(name), {})
        assert MUTANTS[name][1] in capsys.readouterr().out

    def test_round_mutants_are_caught_under_optimize(self, run_optimized):
        names = ["keep-free", "edge-twice", "no-bridge"]
        lines = run_optimized("".join(mutant_code(name) for name in names))
        assert len(lines) == 3
        for name, line in zip(names, lines):
            assert MUTANTS[name][1] in line, name


def move_edge(dec, src, dst):
    """Move the smallest edge of class src into class dst: the classes
    still partition K_order, but both drift from their states."""
    e = min(dec.classes[src])
    dec.classes[src].discard(e)
    dec.classes[dst].add(e)


def state_snapshot(ends):
    return [(dict(e.partner), set(e.isolated)) for e in ends]


class TestStageBoundary:
    # the split embed_dense proves at its exit goes to the attach rounds,
    # and from their last round to the Hilton completion
    H = disjoint_union(star_graph(3), path_graph(2))

    def embedded(self):
        return embed_dense(self.H, 8, lambda e: solve(e, 0))

    def test_embed_returns_the_states_of_its_split(self):
        split = self.embedded()
        assert [e.gates() for e in split.ends] == scan_gates(split.dec)
        assert split.free == scan(split.dec).free

    def test_given_states_no_stage_scans(self, monkeypatch):
        split = self.embedded()

        def no_scan(*args):
            raise AssertionError("analyze_linear_forest called")

        monkeypatch.setattr(extend_sparse, "analyze_linear_forest", no_scan)
        monkeypatch.setattr(hilton, "analyze_linear_forest", no_scan)
        extend_to_hcd(extend_with_k2s(split, t=5, n=8), 8).check_hcd()

    @pytest.mark.parametrize("h, n", [(H, 8), (H + [(7, 8), (8, 9)], 7)])
    def test_given_states_no_partition_proof(self, monkeypatch, h, n):
        # embed_dense's exit check proved the split; the attach rounds and
        # the completion do not prove it again.  The second graph has
        # t = n = 7, so it runs no attach round.
        split = embed_dense(h, n, lambda e: solve(e, 0))

        def no_proof(self):
            raise AssertionError("check_partition called")

        monkeypatch.setattr(Decomposition, "check_partition", no_proof)
        out = extend_to_hcd(extend_with_k2s(split, t=len(h), n=n), n)
        monkeypatch.undo()
        out.check_hcd()

    def test_states_change_nothing(self):
        # the same split grown from the embed's states and from a fresh scan
        split = self.embedded()
        b = extend_with_k2s(scan(split.dec.copy()), t=5, n=8)
        a = extend_with_k2s(split, t=5, n=8)
        assert a.dec.classes == b.dec.classes
        assert state_snapshot(a.ends) == state_snapshot(b.ends)
        assert a.free == b.free
        assert extend_to_hcd(a, 8).classes == extend_to_hcd(b, 8).classes

    @pytest.mark.parametrize("carried", [True, False])
    def test_input_grows_in_place(self, carried):
        # the embed's split, or a fresh scan of its classes
        split = self.embedded()
        if not carried:
            split = scan(split.dec)
        dec, ends, free = split.dec, split.ends, split.free
        order = dec.order
        out = extend_with_k2s(split, t=5, n=8)
        assert out is split
        assert out.dec is dec and out.ends is ends and out.free is free
        assert dec.order == order + 6
        fresh = scan(dec)
        assert state_snapshot(ends) == state_snapshot(fresh.ends)
        assert free == fresh.free

    def test_drift_is_caught_at_the_attach_entry(self):
        split = self.embedded()
        move_edge(split.dec, 6, 7)
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_with_k2s(split, t=5, n=8)

    def test_drift_is_caught_at_the_completion_entry(self):
        split = extend_with_k2s(self.embedded(), t=5, n=8)
        move_edge(split.dec, 0, 1)
        split.dec.check_partition()
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_to_hcd(split, 8)

    def test_state_count_is_checked(self):
        split = self.embedded()
        split.ends.pop()
        with pytest.raises(InvariantViolation, match="states for 8 classes"):
            extend_with_k2s(split, t=5, n=8)


@st.composite
def thick_graphs(draw):
    """A graph whose components have 2+ edges each, one of them with a
    cycle or a vertex of degree 3, labelled 0..r-1."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(3, 5))
        part = {edge(i, draw(st.integers(0, i - 1))) for i in range(1, v)}
        pairs = [edge(a, b) for a in range(v) for b in range(a + 1, v)]
        part |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
        parts.append(sorted(part))
    h = disjoint_union(*parts)
    try:
        analyze_linear_forest(h, range(len(edge_vertices(h))))
    except NotLinearForest:
        return h
    assume(False)


class TestStageContract:
    # extend_with_k2s on embed_dense's splits, not through solve's routing.
    # The thick part is drawn from the pipeline's domain, no linear forest
    # (embed_dense refuses one with more vertices than classes, such as
    # 3 x P3 at n = 6), at every n, the n <= 5 that route sends to
    # base-small too.
    @settings(max_examples=60, deadline=None)
    @given(thick_graphs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_attach_rounds_keep_the_contract(self, h, k2_count, seed):
        t = len(h)
        n = t + k2_count
        r = len(edge_vertices(h))
        split = extend_with_k2s(dense_split(h, n, seed), t, n)
        out = split.dec
        assert out.order == r + 2 * (n - t)
        check_stage(scan(out), n, n, "after the rounds")
        for s in range(n - t):
            assert edge(r + 2 * s, r + 2 * s + 1) in out.classes[t + s]
        extend_to_hcd(split, n).check_hcd()


def greedy_entry_split(rng, r, n):
    """A split of K_r into n linear forests, or None: the edges in a random
    order, each to the smallest class, ties in a random order, that it
    keeps a linear forest."""
    states = [PathEnds({}, set(range(r))) for _ in range(n)]
    classes = [set() for _ in range(n)]
    edges = complete_edges(r)
    rng.shuffle(edges)
    for u, v in edges:
        for i in sorted(rng.sample(range(n), n), key=lambda i: len(classes[i])):
            try:
                states[i].add_edge(u, v)
            except NotLinearForest:
                continue
            classes[i].add((u, v))
            break
        else:
            return None
    return Decomposition(r, classes)


class TestWholeDomain:
    # the attach rounds' contract over splits no embed builds: any linear
    # forests of K_r meeting the entry floors, r <= 2t - 1.  Three cases in
    # four are tight, n < r, where every class has a floor to meet; a split
    # that misses its floors is drawn again.
    def test_greedy_entry_splits_grow_and_complete(self):
        rng = random.Random("attach-entry-splits")
        done = tight = at_edge = 0
        while done < 300:
            n = rng.randint(4, 20)
            r = rng.randint(n + 1, 2 * n - 1) if done % 4 else rng.randint(1, n)
            t = rng.randint(max(2, r // 2 + 1), n)
            dec = greedy_entry_split(rng, r, n)
            if dec is None or any(
                len(cls) < size_floor(r, n, i < t)
                for i, cls in enumerate(dec.classes)
            ):
                continue
            kept = [set(cls) for cls in dec.classes]
            split = extend_with_k2s(scan(dec), t, n)
            assert dec.order == r + 2 * (n - t)
            for s in range(n - t):
                assert edge(r + 2 * s, r + 2 * s + 1) in dec.classes[t + s]
            extend_to_hcd(split, n).check_hcd()
            assert all(old <= new for old, new in zip(kept, dec.classes))
            done += 1
            tight += r > n
            # the last round then leaves k = 4 slots a vertex
            at_edge += r == 2 * t - 1 and t < n
        assert tight == 225 and at_edge >= 10, (tight, at_edge)
