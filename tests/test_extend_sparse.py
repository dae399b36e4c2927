import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbow_hcd.embed_dense import embed_dense
from rainbow_hcd.errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from rainbow_hcd.extend_sparse import (
    _slot_flow,
    _stage_witness,
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
from rainbow_hcd.graph_core import (
    Decomposition,
    analyze_linear_forest,
    edge,
    edge_vertices,
    verify_certificate,
)
from rainbow_hcd.hilton import extend_to_hcd
from rainbow_hcd.solver import solve, split_components


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
    # _slot_flow on hand-made gates: a gate is a path by its two ends or an
    # isolated vertex alone, and every old vertex must get two slots

    def test_cstar_takes_one_end_of_its_only_path(self):
        # class 0 offers only the ends of path 0-1; class 1 can fill either
        # vertex from its isolated gates
        gates = [[(0, 1)], [(0,), (1,)], []]
        assert _slot_flow(2, gates, [2, 0, 0], cstar=2)[0] == [(0, 1)]
        picks = _slot_flow(2, gates, [1, 0, 0], cstar=0)
        assert [len(p) for p in picks[0]] == [1]
        with pytest.raises(InternalInfeasible):
            _slot_flow(2, gates, [2, 0, 0], cstar=0)

    def test_one_path_per_class_takes_both_ends(self):
        # class 0 holds paths 0-1 and 2-3: both ends of both would join the
        # new vertices twice, so it reaches 3 slots but not 4
        iso = [(0,), (1,), (2,), (3,)]
        gates = [[(0, 1), (2, 3)], iso, iso, []]
        picks = _slot_flow(4, gates, [3, 0, 0, 0], cstar=3)
        assert sorted(len(p) for p in picks[0]) == [1, 2]
        with pytest.raises(InternalInfeasible):
            _slot_flow(4, gates, [4, 0, 0, 0], cstar=3)

    def test_isolated_vertex_doubles_only_outside_cstar(self):
        assert _slot_flow(1, [[(0,)], []], [0, 0], cstar=1) == [[(0, 0)], []]
        with pytest.raises(InternalInfeasible):
            _slot_flow(1, [[(0,)], []], [0, 0], cstar=0)

    def test_stage_checks_raise_not_assert(self):
        # a missing edge leaves its ends with k + 1 free slots
        dec = dense_split(path_graph(2), 3)
        cls = next(c for c in dec.classes if c)
        cls.pop()
        with pytest.raises(InvariantViolation, match="slots, wanted"):
            _stage_witness(dec, 2, 3, 0, random.Random(0))

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
    # n >= 6): outside it embed_dense itself fails, on 3 x P3 at n = 6 and
    # on K_{1,3} at n = 3, before any attach round runs.
    @settings(max_examples=60, deadline=None)
    @given(thick_graphs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_attach_rounds_keep_the_contract(self, h, k2_count, seed):
        t = len(h)
        n = max(6, t + k2_count)
        r = len(edge_vertices(h))
        dec = dense_split(h, n, seed)
        out = extend_with_k2s(dec, t, n, seed=seed)
        verify_sparse_state(out, r, t, n, n - t)
        for s in range(n - t):
            assert edge(r + 2 * s, r + 2 * s + 1) in out.classes[t + s]
        extend_to_hcd(out, n).check_hcd()
