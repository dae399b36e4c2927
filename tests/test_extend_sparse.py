import copy
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rainbow_hcd
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
    _attach,
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
    LinearForestView,
    analyze_linear_forest,
    edge,
    edge_vertices,
    verify_certificate,
)
from rainbow_hcd.hilton import (
    PathEnds,
    _Dinic,
    check_ends,
    check_stage,
    extend_to_hcd,
    free_classes,
    size_floor,
)
from rainbow_hcd.solver import solve, split_components


def dense_split(h_edges, n, seed=0):
    return embed_dense(h_edges, n, lambda e: solve(e, seed))[0]


def scan_ends(dec):
    """Path ends of every class, from a full scan."""
    return [
        PathEnds(analyze_linear_forest(cls, range(dec.order)))
        for cls in dec.classes
    ]


def scan_gates(dec):
    return [state.gates() for state in scan_ends(dec)]


def scan_slots(dec):
    """Path ends of every class and free-class masks of every vertex,
    from a full scan."""
    ends = scan_ends(dec)
    return ends, free_classes(ends, dec.order)


def gate_states(gates):
    """The state of each class from gates[i], a path as its two ends or an
    isolated vertex alone; every other vertex lies inside a path."""
    return [
        PathEnds(LinearForestView(
            tuple(g for g in gs if len(g) == 2),
            tuple(g[0] for g in gs if len(g) == 1),
        ))
        for gs in gates
    ]


def round_owner(m, gates, floors, cstar):
    """hilton._assign as an attach round calls it, on hand-made gates: each
    class's state and every vertex's free-class mask are built from gates[i]
    (gate_states).  Class i takes floors[i] to 4 slots, cstar at most 2,
    and every class but cstar may double one gate."""
    ends = gate_states(gates)
    n = len(gates)
    cap = [2 if i == cstar else 4 for i in range(n)]
    doubler = [i != cstar for i in range(n)]
    return hilton._assign(m, floors, ends, free_classes(ends, m), 2, cap, doubler)


def pairs(owner):
    """The two classes of each old vertex in an owner list, ascending."""
    return [sorted(owner[u:u + 2]) for u in range(0, len(owner), 2)]


def holders(owner, i):
    """The old vertices that give class i a slot, one entry per slot."""
    return [u // 2 for u, j in enumerate(owner) if j == i]


def sized_split(m, floors, cstar):
    """A stand-in split at order m for _witness_ok, which reads only the
    class sizes, for its gain floors: class i gets as many placeholder
    edges as make its gain floor at most floors[i]."""
    n = len(floors)
    sizes = [
        max(0, size_floor(m + 2, n, i <= cstar) - (i == cstar) - f)
        for i, f in enumerate(floors)
    ]
    return Decomposition(m, [{(-1, j) for j in range(k)} for k in sizes])


def p3_split():
    # the direct-matching split of P3 = 0-1-2 at n = 3, as embed_dense laid
    # it before that stage took n >= 6 only
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
    """K_4 split into the perfect matchings {01, 23}, {02, 13}, {03, 12}
    and three empty classes, with the path ends of each."""
    dec = Decomposition(
        4,
        [{edge(0, 1), edge(2, 3)}, {edge(0, 2), edge(1, 3)},
         {edge(0, 3), edge(1, 2)}, set(), set(), set()],
    )
    return dec, scan_ends(dec)


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
    # which check_ends ties to its state

    def test_slot_counts(self):
        dec = k5_forests()
        ends, free = scan_slots(dec)
        # class i offers 2 * (order - size) slots in total
        for cls, e in zip(dec.classes, ends):
            assert len(e.partner) + 2 * len(e.isolated) == 2 * (dec.order - len(cls))
        capacity_graph(dec, ends, free)
        # a class that lost an edge its state still holds is caught by the
        # count tie every round's stage check runs on the same states
        dec.classes[2].discard(edge(0, 4))
        with pytest.raises(InvariantViolation, match="drifted from its path ends"):
            check_ends(dec, ends)

    def test_vertex_side_totals(self):
        # every old vertex offers k = 2n - m + 1 slots in all; one free-class
        # mask that misses a class leaves its vertex a slot short
        dec = k5_forests()
        ends, free = scan_slots(dec)
        m, n = dec.order, len(dec.classes)
        assert all(
            free[u].bit_count() + sum(u in e.isolated for e in ends)
            == 2 * n - m + 1
            for u in range(m)
        )
        capacity_graph(dec, ends, free)
        free[3] &= free[3] - 1  # its lowest class
        with pytest.raises(
            InvariantViolation, match=f"vertex 3 offers {2 * n - m} slots, wanted"
        ):
            capacity_graph(dec, ends, free)

    def test_isolated_vertex_offers_two(self):
        # each class holds one edge of K_3: two path ends and an isolated
        # vertex, 4 slots, so k = 4 is met only if the isolated vertex
        # counts twice
        dec = Decomposition(3, [{edge(0, 1)}, {edge(0, 2)}, {edge(1, 2)}])
        ends, free = scan_slots(dec)
        capacity_graph(dec, ends, free)
        assert free == [0b111] * 3


class TestVerifySparseState:
    # the stage's own checks of its split: hilton.check_stage at the entry,
    # and after each round with the carried states and free-class masks

    def test_accepts_valid_state(self):
        grown, ends = extend_with_k2s(p3_split(), t=2, n=3)
        check_stage(grown, 3, 3, "after step 1")
        check_stage(grown, 3, 3, "after step 1", ends=ends,
                    free=free_classes(ends, grown.order))

    def test_rejects_wrong_order(self):
        # an order the carried states do not account for
        grown, ends = extend_with_k2s(p3_split(), t=2, n=3)
        grown.order += 1
        with pytest.raises(InvariantViolation, match="drifted"):
            check_stage(grown, 3, 3, "after step 1", ends=ends,
                        free=free_classes(ends, grown.order))

    def test_rejects_wrong_class_count(self):
        with pytest.raises(InvariantViolation, match="expected 4 classes"):
            extend_with_k2s(k5_forests(), t=3, n=4)

    def test_rejects_floor_shortfall(self):
        # the floor is 3 for every class here; the last one holds 2 edges
        with pytest.raises(InvariantViolation, match="class 2 has 2 edges, floor 3"):
            extend_with_k2s(k5_forests(), t=3, n=3)


class TestPreconditions:
    def test_rejects_single_planted_edge(self):
        with pytest.raises(PreconditionViolation):
            extend_with_k2s(k5_forests(), t=1, n=3)

    def test_rejects_too_many_vertices(self):
        with pytest.raises(PreconditionViolation):
            extend_with_k2s(k5_forests(), t=2, n=3)


class TestGrowth:
    def test_path_to_five_vertices(self):
        # two planted edges, one round: 3 classes of K_5 sized (4, 3, 3)
        dec = p3_split()
        out, _ = extend_with_k2s(dec, t=2, n=3)
        assert out.order == 5
        assert sorted(len(c) for c in out.classes) == [3, 3, 4]
        assert edge(0, 1) in out.classes[0]
        assert edge(1, 2) in out.classes[1]
        assert edge(3, 4) in out.classes[2]

    def test_grown_split_completes_to_cycles(self):
        dec = p3_split()
        out = extend_to_hcd(extend_with_k2s(dec, t=2, n=3)[0], 3)
        out.check_hcd()
        assert out.order == 7

    def test_three_rounds(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        trace = []
        out, _ = extend_with_k2s(dec, t=5, n=8, trace=trace)
        assert out.order == 7 + 2 * 3
        assert [line.split()[1] for line in trace] == ["s=0", "s=1", "s=2"]
        check_stage(out, 8, 8, "after step 3")

    def test_bridge_lands_in_scheduled_class(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out, _ = extend_with_k2s(dec, t=5, n=8)
        for s in range(3):
            assert edge(7 + 2 * s, 8 + 2 * s) in out.classes[5 + s]

    def test_planted_edges_survive_every_round(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out, _ = extend_with_k2s(dec, t=5, n=8)
        for i, e in enumerate(h):
            assert e in out.classes[i]

    def test_deterministic(self):
        # no round draws a random number: the same split grows the same way
        h = disjoint_union(star_graph(3), path_graph(2))
        a, _ = extend_with_k2s(dense_split(h, 8), t=5, n=8)
        b, _ = extend_with_k2s(dense_split(h, 8), t=5, n=8)
        assert a.classes == b.classes

    def test_no_rounds_needed(self):
        dec = c4_split()
        out, _ = extend_with_k2s(dec, t=4, n=4)
        assert out.order == dec.order
        assert out.classes == dec.classes


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
        # a missing edge leaves its ends with k + 1 free slots
        dec = p3_split()
        cls = next(c for c in dec.classes if c)
        cls.pop()
        with pytest.raises(InvariantViolation, match="slots, wanted"):
            _stage_witness(dec, *scan_slots(dec), 2, 3, 0)

    def test_accepts_a_split_that_keeps_every_class_linear(self):
        for owner in (GOOD_SPLIT, CSTAR_SPLIT):
            dec, ends = matching_state()
            assert _witness_ok(dec, ends, owner, 5)

    @pytest.mark.parametrize(
        "owner, cstar",
        [(TWO_GATES_SPLIT, 5), (CSTAR_SPLIT, 0), (THIRD_EDGE_SPLIT, 5),
         (SLOT_TWICE_SPLIT, 5)],
        ids=["two-gates-close-a-cycle", "cstar-gate-and-bridge",
             "third-edge-at-new-vertex", "slot-spent-twice"],
    )
    def test_rejects_a_bad_split_and_keeps_the_states(self, owner, cstar):
        dec, ends = matching_state()
        # every old vertex gives one edge to each new vertex and the floors
        # are slack, so only the forest check can reject
        assert len(owner) == 2 * dec.order
        before = [(dict(e.partner), set(e.isolated)) for e in ends]
        assert not _witness_ok(dec, ends, owner, cstar)
        assert [(e.partner, e.isolated) for e in ends] == before

    def test_rejects_a_slot_at_an_interior_vertex(self):
        # class 0 is a path 0-x-2 whose inner vertex 1 offers no slot; the
        # same witness with vertex 1's slot moved to cstar is accepted
        gates = [[(0, 2)]] + [[(0,), (1,), (2,)]] * 3
        ends = gate_states(gates)
        dec = sized_split(3, [0, 0, 0, 0], cstar=3)
        assert not _witness_ok(dec, ends, [1, 2, 0, 1, 1, 2], 3)
        assert _witness_ok(dec, ends, [1, 2, 3, 1, 1, 2], 3)

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
            dec = sized_split(m, floors, cstar)
            assert _witness_ok(dec, ends, out, cstar)
        # rounds with a path that takes both ends, and an isolated vertex
        # that takes two slots
        assert min(doubled.values()) >= 20 and len(doubled) == 2, doubled

    def test_witness_check_agrees_with_laying_the_round(self):
        # _witness_ok against the round itself: _attach and check_stage on
        # a deep copy of a split whose classes hold as many placeholder
        # edges as their states imply, so the count tie holds and the
        # floors follow from the states.  Each round's owner list is tried
        # as _assign returns it, Euler-split, with one vertex's pair
        # swapped, and with one slot moved to another class
        rng = random.Random("witness-differential")
        outcomes = Counter()
        for m, gates, _, cstar, owner in self.feasible_rounds(
            "witness-differential", 600
        ):
            ends = gate_states(gates)
            n = len(ends)
            sizes = [m - len(e.partner) // 2 - len(e.isolated) for e in ends]
            dec = Decomposition(m, [{(-1, j) for j in range(k)} for k in sizes])
            free = free_classes(ends, m)
            split = _split_slots(m, n, ends, owner)
            v = rng.randrange(m)
            swapped = list(split)
            swapped[2 * v], swapped[2 * v + 1] = split[2 * v + 1], split[2 * v]
            tries = {"assigned": owner, "split": split, "swapped": swapped}
            if n > 1:
                j = rng.randrange(2 * m)
                moved = list(split)
                moved[j] = rng.choice([i for i in range(n) if i != split[j]])
                tries["moved"] = moved
            before = [(dict(e.partner), set(e.isolated)) for e in ends]
            for kind, cand in tries.items():
                ok = _witness_ok(dec, ends, cand, cstar)
                assert [(e.partner, e.isolated) for e in ends] == before
                grown, grown_ends, grown_free = copy.deepcopy((dec, ends, free))
                try:
                    _attach(grown, grown_ends, grown_free, cand, cstar)
                    check_stage(grown, n, cstar + 1, "after the round",
                                ends=grown_ends, free=grown_free)
                except InvariantViolation:
                    laid = False
                else:
                    laid = True
                assert ok == laid, (kind, m, gates, cstar, cand)
                outcomes[kind, ok] += 1
        # every kind of owner list is both accepted and rejected
        assert len(outcomes) == 8 and min(outcomes.values()) >= 20, outcomes

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
        assert "witness rejected" in capsys.readouterr().out

    def test_doubled_gate_on_one_side_is_rejected_under_optimize(self):
        lines = run_optimized(SPLIT_MUTANT)
        assert lines[0] == "False"
        assert "witness rejected" in lines[1]

    def test_witness_budget(self):
        # every round's first and only witness must verify: C3 + (n-3)K2
        # over five seeds, then random graphs with 1-8 single edges
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
            assert rounds == len(split_components(h).k2_idx), h
            assert verify_certificate(cert).ok, (h, seed)


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


# mutants of _attach, each caught by a check of the round that runs under
# python -O too, and the message of the InvariantViolation it raises
MUTANTS = {
    # the class of the bridge drops it after the round
    "drift": ("""
        def attach(dec, ends, free, owner, cstar):
            real(dec, ends, free, owner, cstar)
            dec.classes[cstar].discard(edge(dec.order - 2, dec.order - 1))
    """, "drifted from its path ends"),
    # the old vertices keep every class they were free in
    "keep-free": ("""
        def attach(dec, ends, free, owner, cstar):
            before = list(free)
            real(dec, ends, free, owner, cstar)
            free[:len(before)] = before
    """, "free-class masks hold"),
    # the first edge to new vertex m is laid twice, in place of the last
    "edge-twice": ("""
        attach = laying(lambda new, m: new[:1] + new[:m - 1] + new[m:])
    """, "lays 7 edges, 6 distinct new ones, wanted 7"),
    # the round's edges leave out the bridge
    "no-bridge": ("""
        attach = laying(lambda new, m: new[:-1])
    """, "lays 6 edges, 6 distinct new ones, wanted 7"),
}

# runs extend_with_k2s on p3_split (one round, m = 3) with _attach replaced
# by the mutant defined above it, and prints the error it raises; laying
# makes an _attach that lays change(edges, m) in place of the round's edges
MUTANT_RUN = """
from rainbow_hcd import extend_sparse
from rainbow_hcd.errors import InvariantViolation
from rainbow_hcd.graph_core import Decomposition, edge

real = extend_sparse._attach
new_edges = extend_sparse._new_edges

def laying(change):
    def attach(dec, ends, free, owner, cstar):
        m = dec.order
        extend_sparse._new_edges = lambda *a: change(new_edges(*a), m)
        try:
            real(dec, ends, free, owner, cstar)
        finally:
            extend_sparse._new_edges = new_edges
    return attach
{mutant}
extend_sparse._attach = attach
try:
    extend_sparse.extend_with_k2s(
        Decomposition(3, [{{edge(0, 1)}}, {{edge(0, 2), edge(1, 2)}}, set()]),
        t=2, n=3,
    )
except InvariantViolation as exc:
    print(exc)
finally:
    extend_sparse._attach = real
"""


# runs the one round of p3_split, in which class 1 takes both ends of its
# path 0-2-1, with a split that sends both of them to new vertex m and the
# other slots at those ends to m + 1: every old vertex still gives one
# edge to each new vertex, but class 1 closes the cycle m-0-2-1-m
SPLIT_MUTANT = """
from rainbow_hcd import extend_sparse
from rainbow_hcd.errors import InvariantViolation
from rainbow_hcd.graph_core import Decomposition, edge

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
    extend_sparse.extend_with_k2s(
        Decomposition(3, [{edge(0, 1)}, {edge(0, 2), edge(1, 2)}, set()]),
        t=2, n=3,
    )
except InvariantViolation as exc:
    print(exc)
finally:
    extend_sparse._split_slots = real
"""

def mutant_code(name):
    return MUTANT_RUN.format(mutant=textwrap.dedent(MUTANTS[name][0]))


def run_optimized(code):
    """Standard output of code run by python -O, where asserts are
    stripped, after a line with the value of __debug__."""
    src = Path(rainbow_hcd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", "print(__debug__)\n" + code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


class TestCarriedState:
    def test_ends_match_a_full_scan_after_every_round(self, monkeypatch):
        rounds = []
        real = extend_sparse.check_stage

        def spy(dec, n, held, where, *args, ends=None, free=None):
            out = real(dec, n, held, where, *args, ends=ends, free=free)
            if ends is not None:
                assert [e.gates() for e in ends] == scan_gates(dec), where
                # the stage entry is checked on embed_dense's states, each
                # round with its free-class masks
                if free is not None:
                    rounds.append(where)
            return out

        monkeypatch.setattr(extend_sparse, "check_stage", spy)
        for h in carried_graphs():
            rounds.clear()
            cert = solve(h, seed=0)
            assert cert.trace[0] == "route: pipeline", h
            assert len(rounds) == len(split_components(h).k2_idx) > 0, h

    def test_free_lists_match_a_rebuild_after_every_round(self, monkeypatch):
        rounds = []
        real = extend_sparse.check_stage

        def spy(dec, n, held, where, *args, ends=None, free=None):
            out = real(dec, n, held, where, *args, ends=ends, free=free)
            if free is not None:
                assert free == free_classes(ends, dec.order), where
                rounds.append(where)
            return out

        monkeypatch.setattr(extend_sparse, "check_stage", spy)
        for h in carried_graphs():
            rounds.clear()
            solve(h, seed=0)
            k = len(split_components(h).k2_idx)
            assert rounds == [f"after step {s}" for s in range(1, k + 1)]

    def test_no_round_builds_the_free_lists(self, monkeypatch):
        # the dense-complete instances run no attach round
        def no_lists(*args):
            raise AssertionError("free_classes called")

        monkeypatch.setattr(extend_sparse, "free_classes", no_lists)
        out, _ = extend_with_k2s(c4_split(), t=4, n=4)
        assert out.classes == c4_split().classes

    def test_class_moved_apart_from_its_state_is_caught(self, capsys):
        exec(mutant_code("drift"), {})
        assert MUTANTS["drift"][1] in capsys.readouterr().out

    def test_drift_is_caught_under_optimize(self):
        lines = run_optimized(mutant_code("drift"))
        assert lines[0] == "False"
        assert MUTANTS["drift"][1] in lines[1]

    @pytest.mark.parametrize("name", ["keep-free", "edge-twice", "no-bridge"])
    def test_round_mutant_is_caught(self, name, capsys):
        exec(mutant_code(name), {})
        assert MUTANTS[name][1] in capsys.readouterr().out

    def test_round_mutants_are_caught_under_optimize(self):
        names = ["keep-free", "edge-twice", "no-bridge"]
        lines = run_optimized("".join(mutant_code(name) for name in names))
        assert lines[0] == "False"
        assert len(lines) == 4
        for name, line in zip(names, lines[1:]):
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
    # the states embed_dense builds from its exit scan go to the attach
    # rounds, and from their last round to the Hilton completion
    H = disjoint_union(star_graph(3), path_graph(2))

    def embedded(self):
        return embed_dense(self.H, 8, lambda e: solve(e, 0))

    def test_embed_returns_the_states_of_its_split(self):
        dec, ends = self.embedded()
        assert [e.gates() for e in ends] == scan_gates(dec)

    def test_given_states_no_stage_scans(self, monkeypatch):
        dec, ends = self.embedded()

        def no_scan(*args):
            raise AssertionError("analyze_linear_forest called")

        monkeypatch.setattr(extend_sparse, "analyze_linear_forest", no_scan)
        monkeypatch.setattr(hilton, "analyze_linear_forest", no_scan)
        out, out_ends = extend_with_k2s(dec, t=5, n=8, ends=ends)
        extend_to_hcd(out, 8, out_ends).check_hcd()

    @pytest.mark.parametrize("h, n", [(H, 8), (H + [(7, 8), (8, 9)], 7)])
    def test_given_states_no_partition_proof(self, monkeypatch, h, n):
        # embed_dense's exit check proved the split; with its states the
        # attach rounds and the completion do not prove it again.  The
        # second graph has t = n = 7, so it runs no attach round.
        dec, ends = embed_dense(h, n, lambda e: solve(e, 0))

        def no_proof(self):
            raise AssertionError("check_partition called")

        monkeypatch.setattr(Decomposition, "check_partition", no_proof)
        out, out_ends = extend_with_k2s(dec, t=len(h), n=n, ends=ends)
        extend_to_hcd(out, n, out_ends)
        monkeypatch.undo()
        out.check_hcd()

    def test_states_change_nothing(self):
        # the same split grown from carried states and from a scan
        dec, ends = self.embedded()
        b, b_ends = extend_with_k2s(dec.copy(), t=5, n=8)
        a, a_ends = extend_with_k2s(dec, t=5, n=8, ends=ends)
        assert a.classes == b.classes
        assert state_snapshot(a_ends) == state_snapshot(b_ends)
        assert (extend_to_hcd(a, 8, a_ends).classes
                == extend_to_hcd(b, 8).classes)

    @pytest.mark.parametrize("carried", [True, False])
    def test_input_grows_in_place(self, carried):
        dec, ends = self.embedded()
        order = dec.order
        given = ends if carried else None
        out, out_ends = extend_with_k2s(dec, t=5, n=8, ends=given)
        assert out is dec
        assert dec.order == order + 6
        assert (out_ends is ends) == carried
        assert state_snapshot(out_ends) == state_snapshot(scan_ends(dec))

    def test_drift_is_caught_at_the_attach_entry(self):
        dec, ends = self.embedded()
        move_edge(dec, 6, 7)
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_with_k2s(dec, t=5, n=8, ends=ends)

    def test_drift_is_caught_at_the_completion_entry(self):
        dec, ends = self.embedded()
        out, out_ends = extend_with_k2s(dec, t=5, n=8, ends=ends)
        move_edge(out, 0, 1)
        out.check_partition()
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_to_hcd(out, 8, out_ends)

    def test_state_count_is_checked(self):
        dec, ends = self.embedded()
        with pytest.raises(InvariantViolation, match="states for 8 classes"):
            extend_with_k2s(dec, t=5, n=8, ends=ends[:-1])


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
    # The thick part is drawn from the pipeline's domain (no linear forest,
    # n >= 6): embed_dense rejects n < 6, and a linear forest with more
    # vertices than classes, such as 3 x P3 at n = 6.
    @settings(max_examples=60, deadline=None)
    @given(thick_graphs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_attach_rounds_keep_the_contract(self, h, k2_count, seed):
        t = len(h)
        n = max(6, t + k2_count)
        r = len(edge_vertices(h))
        dec = dense_split(h, n, seed)
        out, _ = extend_with_k2s(dec, t, n)
        assert out.order == r + 2 * (n - t)
        check_stage(out, n, n, "after the rounds")
        for s in range(n - t):
            assert edge(r + 2 * s, r + 2 * s + 1) in out.classes[t + s]
        extend_to_hcd(out, n).check_hcd()
