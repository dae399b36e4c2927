import random
import re

import pytest

from rainbow_hcd.coloring import BipartiteMultigraph
from rainbow_hcd.embed_dense import embed_dense
from rainbow_hcd.errors import InvariantViolation, PreconditionViolation
from rainbow_hcd.extend_sparse import (
    _final_split,
    capacity_graph,
    extend_with_k2s,
    verify_sparse_state,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from rainbow_hcd.graph_core import Decomposition, edge
from rainbow_hcd.hilton import extend_to_hcd
from rainbow_hcd.solver import solve


def dense_split(h_edges, n, seed=0):
    return embed_dense(h_edges, n, lambda e, m, s: solve(e, s), seed=seed)


def k5_forests():
    # sizes (4, 4, 2): two spanning paths and one short path
    classes = [
        {edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)},
        {edge(0, 2), edge(0, 3), edge(1, 3), edge(1, 4)},
        {edge(0, 4), edge(2, 4)},
    ]
    return Decomposition(5, classes)


class TestCapacityGraph:
    def test_slot_counts(self):
        dec = k5_forests()
        g = capacity_graph(dec)
        # class i offers 2 * (order - size) slots in total
        for i, cls in enumerate(dec.classes):
            assert len(g.incident_x(i)) == 2 * (dec.order - len(cls))

    def test_vertex_side_totals(self):
        dec = k5_forests()
        g = capacity_graph(dec)
        m, n = dec.order, len(dec.classes)
        for u in range(m):
            assert len(g.incident_y(u)) == 2 * n - m + 1

    def test_isolated_vertex_offers_two(self):
        dec = Decomposition(3, [{edge(0, 1)}, {edge(0, 2)}, {edge(1, 2)}])
        g = capacity_graph(dec)
        for i in range(3):
            inc = g.incident_x(i)
            assert len(inc) == 4


class TestVerifySparseState:
    def test_accepts_valid_state(self):
        dec = dense_split(path_graph(2), 3)
        grown = extend_with_k2s(dec, t=2, n=3, seed=1)
        verify_sparse_state(grown, r=3, t=2, n=3, s=1)

    def test_rejects_wrong_order(self):
        with pytest.raises(InvariantViolation):
            verify_sparse_state(k5_forests(), r=3, t=2, n=3, s=0)

    def test_rejects_wrong_class_count(self):
        with pytest.raises(InvariantViolation):
            verify_sparse_state(k5_forests(), r=5, t=2, n=4, s=0)

    def test_rejects_floor_shortfall(self):
        # the floor is 3 for every class here; the last one holds 2 edges
        with pytest.raises(InvariantViolation):
            verify_sparse_state(k5_forests(), r=5, t=3, n=3, s=0)


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
        dec = dense_split(path_graph(2), 3)
        out = extend_with_k2s(dec, t=2, n=3, seed=1)
        assert out.order == 5
        assert sorted(len(c) for c in out.classes) == [3, 3, 4]
        assert edge(0, 1) in out.classes[0]
        assert edge(1, 2) in out.classes[1]
        assert edge(3, 4) in out.classes[2]

    def test_grown_split_completes_to_cycles(self):
        dec = dense_split(path_graph(2), 3)
        out = extend_to_hcd(extend_with_k2s(dec, t=2, n=3, seed=1), 3)
        out.check_hcd()
        assert out.order == 7

    def test_three_rounds(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        trace = []
        out = extend_with_k2s(dec, t=5, n=8, seed=2, trace=trace)
        assert out.order == 7 + 2 * 3
        assert [line.split()[1] for line in trace] == ["s=0", "s=1", "s=2"]
        verify_sparse_state(out, r=7, t=5, n=8, s=3)

    def test_bridge_lands_in_scheduled_class(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out = extend_with_k2s(dec, t=5, n=8, seed=2)
        for s in range(3):
            assert edge(7 + 2 * s, 8 + 2 * s) in out.classes[5 + s]

    def test_planted_edges_survive_every_round(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out = extend_with_k2s(dec, t=5, n=8, seed=2)
        for i, e in enumerate(h):
            assert e in out.classes[i]

    def test_deterministic_for_fixed_seed(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        a = extend_with_k2s(dense_split(h, 8), t=5, n=8, seed=9)
        b = extend_with_k2s(dense_split(h, 8), t=5, n=8, seed=9)
        assert a.classes == b.classes

    def test_no_rounds_needed(self):
        dec = dense_split(cycle_graph(4), 4)
        out = extend_with_k2s(dec, t=4, n=4, seed=0)
        assert out.order == dec.order
        assert out.classes == dec.classes


class TestWitness:
    def test_final_split_separates_path_ends(self):
        # one side of a first split on 6 old vertices, two slots at each;
        # class 0 holds both ends of path 0-2, the bridge class 1 both
        # ends of path 3-5, and class 2 has no path with both ends here.
        # Left alone, the coloring's own pairing would mate the slots at
        # 0 and 1, and at 2 and 3, so ends 0 and 2 could land together
        chosen_slots = [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 4), (1, 5), (1, 2), (1, 3),
            (2, 0), (2, 1), (2, 4), (2, 5),
        ]
        fgr = BipartiteMultigraph(3, 6)
        for x, y in chosen_slots + chosen_slots:
            fgr.add_edge(x, y)
        chosen = set(range(len(chosen_slots)))
        fid_to_hat = [2 * f for f in fgr.edges]  # one slot per edge
        path_ends = [[(0, 2)], [(3, 5)], []]
        for seed in range(20):
            g1, g2 = _final_split(
                fgr, fid_to_hat, chosen, path_ends, random.Random(seed)
            )
            for side in (g1, g2):
                assert sorted(u for _, u, _ in side) == list(range(6))
            for i, [(z, w)] in enumerate(path_ends[:2]):
                ends_at_m = {u for c, u, _ in g1 if c == i and u in (z, w)}
                assert len(ends_at_m) == 1, (seed, i, g1)

    def test_witness_budget(self):
        # C3 + (n-3)K2 takes n - 3 attach rounds; nearly every round
        # accepts the first witness it checks
        rounds = checks = 0
        for n in range(6, 12):
            h = disjoint_union(cycle_graph(3), *[path_graph(1)] * (n - 3))
            for seed in range(5):
                for line in solve(h, seed).trace:
                    if line.startswith("attach:"):
                        rounds += 1
                        checks += int(re.search(r"checks=(\d+)", line)[1])
        assert rounds == 165
        assert checks <= 1.25 * rounds
