import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rainbow_hcd
from rainbow_hcd import extend_sparse, hilton
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
    _witness_ok,
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
from rainbow_hcd.hilton import PathEnds, extend_to_hcd
from rainbow_hcd.solver import solve, split_components


def dense_split(h_edges, n, seed=0):
    return embed_dense(h_edges, n, lambda e, m, s: solve(e, s), seed=seed)[0]


def scan_ends(dec):
    """Path ends of every class, from a full scan."""
    return [
        PathEnds(analyze_linear_forest(cls, range(dec.order)))
        for cls in dec.classes
    ]


def scan_gates(dec):
    return [state.gates() for state in scan_ends(dec)]


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


# witness sides on matching_state, new vertices 4 and 5, one (class, old
# vertex) pair per new edge
GOOD_SPLIT = (
    [(0, 0), (0, 2), (3, 1), (3, 3)],
    [(1, 0), (1, 1), (3, 2), (3, 3)],
)
# class 0 sends paths 0-1 and 2-3 each to both new vertices: 4-0-1-5-3-2-4
TWO_GATES_SPLIT = (
    [(0, 0), (0, 2), (3, 1), (3, 3)],
    [(0, 1), (0, 3), (3, 0), (3, 2)],
)
# class 0 sends path 0-1 to both new vertices; as cstar it also holds the
# bridge 4-5 and closes 4-0-1-5-4
CSTAR_SPLIT = (
    [(0, 0), (3, 1), (3, 2), (4, 3)],
    [(0, 1), (3, 0), (3, 3), (4, 2)],
)
# class 3 gives new vertex 4 three edges
THIRD_EDGE_SPLIT = (
    [(3, 0), (3, 1), (3, 2), (4, 3)],
    [(4, 0), (4, 1), (1, 2), (1, 3)],
)
# class 0 spends the one free slot of path end 0 on both new vertices
SLOT_TWICE_SPLIT = (
    [(0, 0), (3, 1), (4, 2), (5, 3)],
    [(0, 0), (4, 1), (5, 2), (3, 3)],
)


class TestCapacityGraph:
    def test_slot_counts(self):
        dec = k5_forests()
        g = capacity_graph(dec.order, scan_gates(dec))
        # class i offers 2 * (order - size) slots in total
        for i, cls in enumerate(dec.classes):
            assert len(g.incident_x(i)) == 2 * (dec.order - len(cls))

    def test_vertex_side_totals(self):
        dec = k5_forests()
        g = capacity_graph(dec.order, scan_gates(dec))
        m, n = dec.order, len(dec.classes)
        for u in range(m):
            assert len(g.incident_y(u)) == 2 * n - m + 1

    def test_isolated_vertex_offers_two(self):
        dec = Decomposition(3, [{edge(0, 1)}, {edge(0, 2)}, {edge(1, 2)}])
        g = capacity_graph(dec.order, scan_gates(dec))
        for i in range(3):
            inc = g.incident_x(i)
            assert len(inc) == 4


class TestVerifySparseState:
    def test_accepts_valid_state(self):
        dec = p3_split()
        grown, _ = extend_with_k2s(dec, t=2, n=3, seed=1)
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
        dec = p3_split()
        out, _ = extend_with_k2s(dec, t=2, n=3, seed=1)
        assert out.order == 5
        assert sorted(len(c) for c in out.classes) == [3, 3, 4]
        assert edge(0, 1) in out.classes[0]
        assert edge(1, 2) in out.classes[1]
        assert edge(3, 4) in out.classes[2]

    def test_grown_split_completes_to_cycles(self):
        dec = p3_split()
        out = extend_to_hcd(extend_with_k2s(dec, t=2, n=3, seed=1)[0], 3)
        out.check_hcd()
        assert out.order == 7

    def test_three_rounds(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        trace = []
        out, _ = extend_with_k2s(dec, t=5, n=8, seed=2, trace=trace)
        assert out.order == 7 + 2 * 3
        assert [line.split()[1] for line in trace] == ["s=0", "s=1", "s=2"]
        verify_sparse_state(out, r=7, t=5, n=8, s=3)

    def test_bridge_lands_in_scheduled_class(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out, _ = extend_with_k2s(dec, t=5, n=8, seed=2)
        for s in range(3):
            assert edge(7 + 2 * s, 8 + 2 * s) in out.classes[5 + s]

    def test_planted_edges_survive_every_round(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        dec = dense_split(h, 8)
        out, _ = extend_with_k2s(dec, t=5, n=8, seed=2)
        for i, e in enumerate(h):
            assert e in out.classes[i]

    def test_deterministic_for_fixed_seed(self):
        h = disjoint_union(star_graph(3), path_graph(2))
        a, _ = extend_with_k2s(dense_split(h, 8), t=5, n=8, seed=9)
        b, _ = extend_with_k2s(dense_split(h, 8), t=5, n=8, seed=9)
        assert a.classes == b.classes

    def test_no_rounds_needed(self):
        dec = c4_split()
        out, _ = extend_with_k2s(dec, t=4, n=4, seed=0)
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
        dec = p3_split()
        cls = next(c for c in dec.classes if c)
        cls.pop()
        with pytest.raises(InvariantViolation, match="slots, wanted"):
            _stage_witness(dec, scan_ends(dec), 2, 3, 0, random.Random(0))

    def test_accepts_a_split_that_keeps_every_class_linear(self):
        for g1, g2 in (GOOD_SPLIT, CSTAR_SPLIT):
            dec, ends = matching_state()
            assert _witness_ok(dec, ends, g1, g2, 5, [9] * 6)

    @pytest.mark.parametrize(
        "g1, g2, cstar",
        [(*TWO_GATES_SPLIT, 5), (*CSTAR_SPLIT, 0), (*THIRD_EDGE_SPLIT, 5),
         (*SLOT_TWICE_SPLIT, 5)],
        ids=["two-gates-close-a-cycle", "cstar-gate-and-bridge",
             "third-edge-at-new-vertex", "slot-spent-twice"],
    )
    def test_rejects_a_bad_split_and_keeps_the_states(self, g1, g2, cstar):
        dec, ends = matching_state()
        # both sides cover every old vertex once and the floors are slack,
        # so only the forest check can reject
        for side in (g1, g2):
            assert sorted(u for _, u in side) == list(range(dec.order))
        before = [(dict(e.partner), set(e.isolated)) for e in ends]
        assert not _witness_ok(dec, ends, g1, g2, cstar, [9] * 6)
        assert [(e.partner, e.isolated) for e in ends] == before

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


class TestCarriedState:
    def test_ends_match_a_full_scan_after_every_round(self, monkeypatch):
        rounds = []
        real = extend_sparse.verify_sparse_state

        def spy(dec, r, t, n, s, ends=None):
            out = real(dec, r, t, n, s, ends)
            if ends is not None:
                assert [e.gates() for e in ends] == scan_gates(dec), (n, s)
                # s = 0 is the stage entry, checked on embed_dense's states
                if s > 0:
                    rounds.append(s)
            return out

        monkeypatch.setattr(extend_sparse, "verify_sparse_state", spy)
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
        for h in graphs:
            rounds.clear()
            cert = solve(h, seed=0)
            assert cert.trace[0] == "route: pipeline", h
            assert len(rounds) == len(split_components(h).k2_idx) > 0, h

    def test_class_moved_apart_from_its_state_is_caught(self, monkeypatch):
        real = extend_sparse._attach

        def attach_then_drop(dec, ends, g1, g2, cstar):
            real(dec, ends, g1, g2, cstar)
            dec.classes[cstar].discard(edge(dec.order - 2, dec.order - 1))

        monkeypatch.setattr(extend_sparse, "_attach", attach_then_drop)
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_with_k2s(p3_split(), t=2, n=3, seed=1)

    def test_drift_is_caught_under_optimize(self):
        # the same mutant under python -O, where asserts are stripped
        code = textwrap.dedent("""
            from rainbow_hcd import extend_sparse, hilton
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.graph_core import Decomposition, edge

            real = extend_sparse._attach

            def attach_then_drop(dec, ends, g1, g2, cstar):
                real(dec, ends, g1, g2, cstar)
                dec.classes[cstar].discard(edge(dec.order - 2, dec.order - 1))

            extend_sparse._attach = attach_then_drop
            dec = Decomposition(
                3, [{edge(0, 1)}, {edge(0, 2), edge(1, 2)}, set()]
            )
            print(__debug__)
            try:
                extend_sparse.extend_with_k2s(dec, t=2, n=3, seed=1)
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
        assert "drifted" in lines[1]


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
        return embed_dense(self.H, 8, lambda e, m, s: solve(e, s), seed=0)

    def test_embed_returns_the_states_of_its_split(self):
        dec, ends = self.embedded()
        assert [e.gates() for e in ends] == scan_gates(dec)

    def test_given_states_no_stage_scans(self, monkeypatch):
        dec, ends = self.embedded()

        def no_scan(*args):
            raise AssertionError("analyze_linear_forest called")

        monkeypatch.setattr(extend_sparse, "analyze_linear_forest", no_scan)
        monkeypatch.setattr(hilton, "analyze_linear_forest", no_scan)
        out, out_ends = extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends)
        extend_to_hcd(out, 8, out_ends).check_hcd()

    def test_states_change_nothing(self):
        # the same split grown from carried states and from a scan
        dec, ends = self.embedded()
        a, a_ends = extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends)
        b, b_ends = extend_with_k2s(dec, t=5, n=8, seed=2)
        assert a.classes == b.classes
        assert state_snapshot(a_ends) == state_snapshot(b_ends)
        assert (extend_to_hcd(a, 8, a_ends).classes
                == extend_to_hcd(b, 8).classes)

    def test_input_split_and_states_are_left_unchanged(self):
        dec, ends = self.embedded()
        classes = [set(c) for c in dec.classes]
        states = state_snapshot(ends)
        out, out_ends = extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends)
        assert out.order == dec.order + 6
        assert dec.classes == classes
        assert state_snapshot(ends) == states
        assert all(a is not b for a, b in zip(ends, out_ends))

    def test_drift_is_caught_at_the_attach_entry(self):
        dec, ends = self.embedded()
        move_edge(dec, 6, 7)
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends)

    def test_drift_is_caught_at_the_completion_entry(self):
        dec, ends = self.embedded()
        out, out_ends = extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends)
        move_edge(out, 0, 1)
        out.check_partition()
        with pytest.raises(InvariantViolation, match="drifted"):
            extend_to_hcd(out, 8, out_ends)

    def test_state_count_is_checked(self):
        dec, ends = self.embedded()
        with pytest.raises(InvariantViolation, match="states for 8 classes"):
            extend_with_k2s(dec, t=5, n=8, seed=2, ends=ends[:-1])


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
    # n >= 6): embed_dense rejects n < 6, and still fails on 3 x P3 at
    # n = 6, before any attach round runs.
    @settings(max_examples=60, deadline=None)
    @given(thick_graphs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_attach_rounds_keep_the_contract(self, h, k2_count, seed):
        t = len(h)
        n = max(6, t + k2_count)
        r = len(edge_vertices(h))
        dec = dense_split(h, n, seed)
        out, _ = extend_with_k2s(dec, t, n, seed=seed)
        verify_sparse_state(out, r, t, n, n - t)
        for s in range(n - t):
            assert edge(r + 2 * s, r + 2 * s + 1) in out.classes[t + s]
        extend_to_hcd(out, n).check_hcd()
