import random

import pytest

from rainbow_hcd import hilton
from rainbow_hcd.errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from rainbow_hcd.graph_core import (
    Decomposition,
    analyze_linear_forest,
    edge,
    walecki,
)
from rainbow_hcd.hilton import (
    PathEnds,
    _Dinic,
    close_final_vertex,
    extend_to_hcd,
    single_vertex_step,
    truncate_to_order,
)


def ends_of(dec):
    return [PathEnds(analyze_linear_forest(c, range(dec.order)))
            for c in dec.classes]


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


def full_rescan_extend(dec, n):
    """Reference completion that rebuilds every class's paths from its edge
    set before and after each vertex, with the recursive flow search."""
    while dec.order < 2 * n:
        m = w = dec.order
        target = 2 * (m + 1) - 2 * n - 1
        fl = _Dinic()
        src, snk, ssrc, ssnk = (fl.add_node() for _ in range(4))
        vnode = [fl.add_node() for _ in range(m)]
        excess = {}
        choice_arcs = []
        for i, cls in enumerate(dec.classes):
            needed = max(0, target - len(cls))
            cnode = fl.add_node()
            fl.add_arc(src, cnode, 2 - needed)
            if needed:
                excess[cnode] = excess.get(cnode, 0) + needed
                excess[src] = excess.get(src, 0) - needed
            for gate_ends in view_gates(cls, m):
                gate = fl.add_node()
                fl.add_arc(cnode, gate, 1)
                for v in gate_ends:
                    choice_arcs.append((fl.add_arc(gate, vnode[v], 1), i, v))
        for v in range(m):
            excess[snk] = excess.get(snk, 0) + 1
            excess[vnode[v]] = excess.get(vnode[v], 0) - 1
        fl.add_arc(snk, src, hilton._INF)
        demand = 0
        for node in sorted(excess):
            ex = excess[node]
            if ex > 0:
                fl.add_arc(ssrc, node, ex)
                demand += ex
            elif ex < 0:
                fl.add_arc(node, ssnk, -ex)
        assert recursive_max_flow(fl, ssrc, ssnk) == demand
        for aid, i, v in choice_arcs:
            if fl.flow_on(aid):
                dec.classes[i].add(edge(v, w))
        dec.order = m + 1
        for cls in dec.classes:
            analyze_linear_forest(cls, range(m + 1))
    w = dec.order
    for cls in dec.classes:
        p = analyze_linear_forest(cls, range(w)).paths[0]
        cls.update({edge(w, p[0]), edge(w, p[-1])})
    dec.order = w + 1
    return dec


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
            want = full_rescan_extend(cut.copy(), n)
            out = extend_to_hcd(cut, n)
            out.check_hcd()
            assert out.order == 2 * n + 1
            assert out.classes == want.classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_from_nothing(self, n):
        dec = Decomposition(1, [set() for _ in range(n)])
        out = extend_to_hcd(dec, n)
        out.check_hcd()

    def test_preserves_kept_edges(self):
        base = walecki(3)
        cut = truncate_to_order(base, 5)
        kept = [set(c) for c in cut.classes]
        out = extend_to_hcd(cut, 3)
        for old, new in zip(kept, out.classes):
            assert old <= new

    def test_spanning_path_entry_case(self):
        # order exactly 2n: only the closing vertex is missing
        cut = truncate_to_order(walecki(3), 6)
        out = extend_to_hcd(cut, 3)
        out.check_hcd()

    def test_rejects_wrong_class_count(self):
        dec = Decomposition(1, [set(), set()])
        with pytest.raises(PreconditionViolation):
            extend_to_hcd(dec, 3)

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
        with pytest.raises(PreconditionViolation):
            extend_to_hcd(dec, 3)

    def test_rejects_non_forest(self):
        dec = Decomposition(3, [{(0, 1), (1, 2), (0, 2)}, set()])
        with pytest.raises(PreconditionViolation):
            extend_to_hcd(dec, 2)

    def test_rejects_overfull_order(self):
        dec = walecki(2)
        with pytest.raises(PreconditionViolation):
            extend_to_hcd(dec, 2)


class TestSteps:
    def test_single_step_counts(self):
        cut = truncate_to_order(walecki(3), 4)
        sizes = [len(c) for c in cut.classes]
        single_vertex_step(cut, 3, ends_of(cut))
        assert cut.order == 5
        grown = [len(c) - s for c, s in zip(cut.classes, sizes)]
        assert sum(grown) == 4
        assert all(0 <= g <= 2 for g in grown)

    def test_close_rejects_matching(self):
        dec = Decomposition(4, [{(0, 1), (1, 2), (2, 3)}, {(0, 2), (1, 3)}])
        with pytest.raises(InternalInfeasible):
            close_final_vertex(dec, 2, ends_of(dec))

    def test_close_rejects_wrong_order(self):
        with pytest.raises(PreconditionViolation):
            close_final_vertex(walecki(2), 2, [])

    def test_step_rejects_large_order(self):
        dec = truncate_to_order(walecki(2), 4)
        with pytest.raises(PreconditionViolation):
            single_vertex_step(dec, 2, ends_of(dec))

    def test_deterministic(self):
        a = extend_to_hcd(truncate_to_order(walecki(4), 5), 4)
        b = extend_to_hcd(truncate_to_order(walecki(4), 5), 4)
        assert a.classes == b.classes


class TestInvariants:
    @pytest.mark.parametrize(
        "order, reason", [(4, "below schedule"), (2, "edges added")]
    )
    def test_empty_flow_raises(self, monkeypatch, order, reason):
        # a flow that reports no edge chosen leaves the new vertex
        # unattached; at order 4 (n=3) two classes also miss the 3 edges
        # the schedule asks for, at order 2 the schedule asks for none
        monkeypatch.setattr(_Dinic, "flow_on", lambda self, aid: 0)
        cut = truncate_to_order(walecki(3), order)
        with pytest.raises(InvariantViolation, match=reason):
            single_vertex_step(cut, 3, ends_of(cut))

    def test_class_behind_schedule_raises(self):
        # at order 5 with n=3 every class needs 5 edges after the step
        cut = truncate_to_order(walecki(3), 5)
        cut.classes[0] = set(sorted(cut.classes[0])[:2])
        with pytest.raises(InvariantViolation, match="fell behind"):
            single_vertex_step(cut, 3, ends_of(cut))


class TestPathEnds:
    def test_third_edge_rejected(self):
        ends = PathEnds(analyze_linear_forest([(0, 1), (1, 2)], range(4)))
        with pytest.raises(NotLinearForest):
            ends.add_edge(1, 3)

    def test_cycle_rejected(self):
        ends = PathEnds(analyze_linear_forest([(0, 1), (1, 2)], range(4)))
        with pytest.raises(NotLinearForest):
            ends.add_edge(2, 0)

    def test_joins_paths(self):
        ends = PathEnds(analyze_linear_forest([(0, 3), (1, 4)], range(6)))
        ends.add_edge(3, 4)
        ends.add_vertex(6)
        ends.add_edge(5, 6)
        assert ends.gates() == [(0, 1), (5, 6), (2,)]
        assert ends.gates() == view_gates({(0, 3), (1, 4), (3, 4), (5, 6)}, 7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_states_track_views(self, n, monkeypatch):
        real = hilton.single_vertex_step
        steps = []

        def checked(dec, n, ends):
            real(dec, n, ends)
            steps.append(dec.order)
            for cls, e in zip(dec.classes, ends):
                assert e.gates() == view_gates(cls, dec.order)

        monkeypatch.setattr(hilton, "single_vertex_step", checked)
        for m in range(1, 2 * n + 1):
            extend_to_hcd(truncate_to_order(walecki(n), m), n)
        assert len(steps) == sum(2 * n - m for m in range(1, 2 * n + 1))


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
