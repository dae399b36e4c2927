import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_hcd.errors import InvariantViolation, NotLinearForest
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from rainbow_hcd.graph_core import (
    Decomposition,
    RainbowCertificate,
    VerificationReport,
    _as_list,
    _walecki_on,
    analyze_linear_forest,
    canonical_row,
    complete_edges,
    component_edge_groups,
    cycle_edges,
    edge,
    edge_row,
    edge_vertices,
    is_hamiltonian_cycle,
    relabel_rows,
    slot_row,
    verify_certificate,
    walecki,
)
from rainbow_hcd.solver import solve


def relabel_decomposition(dec, perm):
    """Every vertex of every class of dec moved by the bijection perm:
    the edge-set relabelling that relabel_rows replaced, kept as the
    reference for it and for building relabelled splits."""
    p = _as_list(perm, dec.order)
    return Decomposition(
        dec.order,
        [
            {(p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in cls}
            for cls in dec.classes
        ],
    )


def identity(order):
    return {v: v for v in range(order)}


def test_edge_normalizes():
    assert edge(5, 2) == (2, 5)
    assert edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)


def test_complete_edges_count():
    assert complete_edges(1) == []
    assert complete_edges(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(complete_edges(9)) == 36


def test_component_edge_groups():
    # components {5, 6}, {0, 1, 2} and {3, 4}, listed out of order
    edges = [(5, 6), (1, 2), (3, 4), (0, 1), (0, 2)]
    assert component_edge_groups(edges) == [[1, 3, 4], [2], [0]]
    assert component_edge_groups([]) == []


class TestHamiltonianCycle:
    def test_triangle(self):
        assert is_hamiltonian_cycle([(0, 1), (1, 2), (0, 2)], 3)

    def test_square(self):
        assert is_hamiltonian_cycle([(0, 1), (1, 2), (2, 3), (0, 3)], 4)
        assert not is_hamiltonian_cycle([(0, 1), (1, 2), (2, 3), (1, 3)], 4)

    def test_two_triangles_rejected(self):
        # degree two everywhere but disconnected
        es = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        assert not is_hamiltonian_cycle(es, 6)

    def test_wrong_count(self):
        assert not is_hamiltonian_cycle([(0, 1), (1, 2)], 3)
        assert not is_hamiltonian_cycle([], 0)


class TestWalecki:
    @pytest.mark.parametrize("n", range(1, 129))
    def test_valid_hcd(self, n):
        dec = walecki(n)
        assert dec.order == 2 * n + 1
        assert len(dec.classes) == n
        dec.check_hcd()

    def test_triangle(self):
        dec = walecki(1)
        assert dec.classes == [{(0, 1), (0, 2), (1, 2)}]

    def test_k5_classes(self):
        dec = walecki(2)
        assert {(0, 1), (1, 3), (2, 3), (0, 4), (2, 4)} in dec.classes
        assert {(1, 2), (0, 2), (0, 3), (1, 4), (3, 4)} in dec.classes

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            walecki(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
    def test_laid_on_hosts_is_the_relabelled_construction(self, n):
        # rows, each canonical, of the relabelled edge sets
        rng = random.Random(f"laid:{n}")
        order = 2 * n + 1
        for _ in range(5):
            perm = dict(enumerate(rng.sample(range(order), order)))
            laid = _walecki_on(n, perm)
            want = relabel_decomposition(walecki(n), perm).classes
            assert laid == [edge_row(cls, order) for cls in want]

    @pytest.mark.parametrize(
        "perm",
        [{0: 0, 1: 1, 2: 1}, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 2, 3: 3},
         {0: 0, 1: 1, 2: 3}],
        ids=["two-to-one", "short", "long", "leaves-the-range"],
    )
    def test_laid_on_hosts_needs_a_bijection(self, perm):
        with pytest.raises(InvariantViolation, match="not a bijection"):
            _walecki_on(1, perm)


class TestDecomposition:
    def test_partition_catches_duplicate(self):
        dec = Decomposition(3, [{(0, 1), (0, 2)}, {(0, 2), (1, 2)}])
        with pytest.raises(InvariantViolation):
            dec.check_partition()

    def test_partition_catches_missing(self):
        dec = Decomposition(3, [{(0, 1), (0, 2)}])
        with pytest.raises(InvariantViolation):
            dec.check_partition()

    def test_partition_catches_range(self):
        dec = Decomposition(3, [{(0, 1), (0, 2), (1, 2), (1, 3)}])
        with pytest.raises(InvariantViolation):
            dec.check_partition()

    def test_relabel_preserves_hcd(self):
        rows = _walecki_on(3, identity(7))
        perm = {v: (3 * v + 1) % 7 for v in range(7)}
        out = relabel_rows(rows, perm, 7)
        hcd(out).check_hcd()
        e = edge(perm[0], perm[1])
        assert ([e in cycle_edges(r) for r in out]
                == [(0, 1) in cycle_edges(r) for r in rows])

    def test_relabel_builds_the_sets_edge_builds(self):
        # the rows walk the edge sets edge() builds of the moved classes,
        # each from 0 toward its lower neighbour
        rng = random.Random(4)
        cert = solve(disjoint_union(cycle_graph(3), path_graph(1), path_graph(1),
                                    path_graph(1)), seed=0)
        order = cert.order
        perm = dict(enumerate(rng.sample(range(order), order)))
        want = [{edge(perm[u], perm[v]) for u, v in cycle_edges(r)}
                for r in cert.cycles]
        got = relabel_rows(cert.cycles, perm, order)
        assert list(map(cycle_edges, got)) == want
        assert all(r[0] == 0 and r[1] < r[-1] for r in got)

    def test_relabel_rejects_non_bijection(self):
        with pytest.raises(InvariantViolation):
            relabel_rows(_walecki_on(1, identity(3)), {0: 0, 1: 0, 2: 2}, 3)

    def test_copy_is_deep(self):
        dec = walecki(1)
        cp = dec.copy()
        cp.classes[0].discard((0, 1))
        assert (0, 1) in dec.classes[0]


class TestLinearForest:
    def test_path_plus_isolated(self):
        view = analyze_linear_forest([(2, 1), (2, 3)], [0, 1, 2, 3])
        assert view.paths == ((1, 2, 3),)
        assert view.isolated == (0,)
        assert view.endpoints == [1, 3]
        assert view.interior == [2]
        assert view.edge_count == 2

    def test_paths_listed_from_lower_endpoint(self):
        view = analyze_linear_forest([(7, 0), (5, 7), (1, 6)], range(8))
        assert view.paths == ((0, 7, 5), (1, 6))
        assert view.isolated == (2, 3, 4)

    def test_empty(self):
        view = analyze_linear_forest([], [4, 2])
        assert view.paths == ()
        assert view.isolated == (2, 4)

    def test_rejects_degree_three(self):
        with pytest.raises(NotLinearForest):
            analyze_linear_forest([(0, 1), (0, 2), (0, 3)], range(4))

    def test_rejects_cycle(self):
        with pytest.raises(NotLinearForest):
            analyze_linear_forest([(0, 1), (1, 2), (0, 2)], range(3))

    def test_rejects_repeat_and_loop(self):
        with pytest.raises(NotLinearForest):
            analyze_linear_forest([(0, 1), (1, 0)], range(2))
        with pytest.raises(NotLinearForest):
            analyze_linear_forest([(1, 1)], range(2))

    def test_rejects_stray_vertex(self):
        with pytest.raises(NotLinearForest):
            analyze_linear_forest([(0, 9)], range(3))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_forest_component_identity(self, data):
        # build a forest by cutting a shuffled vertex list into segments
        nv = data.draw(st.integers(1, 12))
        order = data.draw(st.permutations(range(nv)))
        cuts = data.draw(st.sets(st.integers(1, max(1, nv - 1))))
        bounds = sorted(cuts | {0, nv})
        edges = []
        for a, b in zip(bounds, bounds[1:]):
            seg = order[a:b]
            edges.extend(edge(x, y) for x, y in zip(seg, seg[1:]))
        view = analyze_linear_forest(edges, range(nv))
        assert view.edge_count == len(edges)
        # components = vertices - edges in any forest
        assert len(view.paths) + len(view.isolated) == nv - len(edges)
        rebuilt = {e for p in view.paths for e in
                   (edge(x, y) for x, y in zip(p, p[1:]))}
        assert rebuilt == set(edges)


def hcd(rows):
    """The edge sets of rows, as a Decomposition to check."""
    return Decomposition(len(rows[0]), list(map(cycle_edges, rows)))


def _walecki_cert(n):
    return RainbowCertificate(
        n=n, seed=0, h_edges=[], label_map={}, assignment=[],
        cycles=_walecki_on(n, identity(2 * n + 1)),
    )


def _figure_eight(rows, i=None, j=None):
    """A copy of rows in which classes i and j trade a vertex: the walk of
    i passes p, y, q and that of j p, x, q, and i takes x there, j takes
    y.  Each class then holds the same number of edges, and the two
    together the same edges, but walks a figure eight: i through x
    twice, missing y, and j through y twice, missing x.  The first such
    trade of classes i and j (any two when not given) whose classes keep
    all their edges distinct; None when there is none."""
    order = len(rows[0])
    pairs = [(i, j)] if i is not None else [
        (a, b) for a in range(len(rows)) for b in range(len(rows)) if a != b]
    for a, b in pairs:
        ra, rb = rows[a], rows[b]
        at = {frozenset((rb[k - 1], rb[(k + 1) % order])): k for k in range(order)}
        for k in range(order):
            ends = frozenset((ra[k - 1], ra[(k + 1) % order]))
            if ends not in at or rb[at[ends]] == ra[k]:
                continue
            out = [list(r) for r in rows]
            out[a][k], out[b][at[ends]] = rb[at[ends]], ra[k]
            if all(len(cycle_edges(out[c])) == order for c in (a, b)):
                return out
    return None


class TestVerifyCertificate:
    def test_empty_graph_ok(self):
        rep = verify_certificate(_walecki_cert(4))
        assert rep.ok
        assert [name for name, _, _ in rep.checks] == [
            "shape", "partition", "hamiltonian", "embedding", "rainbow",
        ]

    def test_planted_path_ok(self):
        cert = _walecki_cert(2)
        cert.h_edges = [(0, 1), (1, 2)]
        cert.label_map = {0: 0, 1: 1, 2: 2}
        dec = hcd(cert.cycles)
        cert.assignment = [
            next(i for i, c in enumerate(dec.classes) if e in c)
            for e in [(0, 1), (1, 2)]
        ]
        assert verify_certificate(cert).ok

    def test_shared_class_rejected(self):
        cert = _walecki_cert(2)
        cert.h_edges = [(0, 1), (1, 2)]
        cert.label_map = {0: 0, 1: 1, 2: 2}
        c = next(i for i, cls in enumerate(hcd(cert.cycles).classes)
                 if (0, 1) in cls)
        cert.assignment = [c, c]
        rep = verify_certificate(cert)
        assert not rep.ok
        assert [n for n, p, _ in rep.checks if not p] == ["rainbow"]

    def test_non_injective_map_rejected(self):
        cert = _walecki_cert(2)
        cert.h_edges = [(0, 1), (1, 2)]
        cert.label_map = {0: 0, 1: 1, 2: 0}
        cert.assignment = [0, 1]
        rep = verify_certificate(cert)
        assert not rep.ok
        assert [n for n, p, _ in rep.checks if not p] == ["embedding"]

    def test_wrong_class_membership_rejected(self):
        cert = _walecki_cert(2)
        cert.h_edges = [(0, 1)]
        cert.label_map = {0: 0, 1: 1}
        c = next(i for i, cls in enumerate(hcd(cert.cycles).classes)
                 if (0, 1) in cls)
        cert.assignment = [1 - c]
        assert not verify_certificate(cert).ok

    def test_tampered_partition_rejected(self):
        cert = _walecki_cert(3)
        cert.cycles[0] = list(cert.cycles[1])
        rep = verify_certificate(cert)
        assert not rep.ok
        assert any(name == "partition" and not p for name, p, _ in rep.checks)

    def test_tampered_cycle_rejected(self):
        cert = _walecki_cert(3)
        cert.cycles = _figure_eight(cert.cycles, 0, 1)
        rep = verify_certificate(cert)
        assert not rep.ok
        assert any(name == "hamiltonian" and not p for name, p, _ in rep.checks)

    def test_report_lines(self):
        rep = verify_certificate(_walecki_cert(1))
        assert all(line.split(": ")[1].startswith("ok") for line in rep.lines())


# ---------------------------------------------------------------------------
# The three kernels against the dict-based versions they replaced, kept
# here as reference oracles: same verdict, exception type and message.


def _dict_is_hamiltonian_cycle(edges, order):
    es = set(edges)
    if order < 3 or len(es) != order:
        return False
    adj = {v: [] for v in range(order)}
    for u, v in es:
        if not (0 <= u < v < order):
            return False
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    seen = 1
    prev, cur = None, 0
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == 0:
            return seen == order
        seen += 1
        prev, cur = cur, nxt
        if seen > order:
            return False


def _dict_analyze_linear_forest(edges, vertices):
    vs = sorted(set(vertices))
    vset = set(vs)
    adj = {v: [] for v in vs}
    seen_e = set()
    for u, v in edges:
        if u == v:
            raise NotLinearForest(f"loop at vertex {u}")
        e = edge(u, v)
        if e in seen_e:
            raise NotLinearForest(f"repeated edge {e}")
        seen_e.add(e)
        if u not in vset or v not in vset:
            raise NotLinearForest(f"edge {e} leaves the vertex set")
        adj[u].append(v)
        adj[v].append(u)
        if len(adj[u]) > 2 or len(adj[v]) > 2:
            raise NotLinearForest(f"degree above two at edge {e}")
    visited = set()
    paths = []
    isolated = []
    for v in vs:
        if v in visited or len(adj[v]) == 2:
            continue
        visited.add(v)
        if not adj[v]:
            isolated.append(v)
            continue
        walk = [v]
        prev, cur = v, adj[v][0]
        while True:
            walk.append(cur)
            visited.add(cur)
            onward = [w for w in adj[cur] if w != prev]
            if not onward:
                break
            prev, cur = cur, onward[0]
        paths.append(tuple(walk))
    if len(visited) != len(vs):
        v = next(v for v in vs if v not in visited)
        raise NotLinearForest(f"a cycle runs through edge {edge(v, adj[v][0])}")
    return tuple(paths), tuple(isolated)


def _dict_check_partition(dec):
    seen = set()
    total = 0
    for i, cls in enumerate(dec.classes):
        for e in cls:
            u, v = e
            if not (0 <= u < v < dec.order):
                raise InvariantViolation(f"class {i}: edge {e} out of range")
            if e in seen:
                raise InvariantViolation(f"edge {e} appears in two classes")
            seen.add(e)
        total += len(cls)
    want = dec.order * (dec.order - 1) // 2
    if total != want:
        raise InvariantViolation(f"{total} edges in classes, expected {want}")


def _outcome(fn, *args):
    """What a call gives: ("ok", its value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def _shuffled(edges, rng):
    """The edges in random order, each turned either way round."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def _random_forest(order, rng):
    """A linear forest on 0..order-1: a shuffled vertex list cut into
    segments, each segment a path or a lone vertex."""
    vs = list(range(order))
    rng.shuffle(vs)
    edges = []
    for a, b in zip(vs, vs[1:]):
        if rng.random() < 0.75:
            edges.append(edge(a, b))
    return edges


def _cycle_through(vs):
    return [edge(a, b) for a, b in zip(vs, vs[1:] + vs[:1])]


def _forest_mutants(order, rng):
    """Edge lists over 0..order-1, named, that break a linear forest in
    each way the scan tests, at a random place in the list."""
    base = _random_forest(order, rng)
    out = {"forest": base}
    if order < 2:
        return out
    u, v = rng.sample(range(order), 2)

    def put(extra):
        es = list(base)
        es.insert(rng.randrange(len(es) + 1), extra)
        return es

    out["loop"] = put((u, u))
    if base:
        out["repeat"] = put(tuple(reversed(rng.choice(base))))
    out["out of range"] = put((u, order + rng.randrange(3)))
    out["negative"] = put((-1 - rng.randrange(3), v))
    if order >= 4:
        hub, *spokes = rng.sample(range(order), 4)
        out["degree three"] = [edge(hub, s) for s in spokes]
    if order >= 3:
        vs = rng.sample(range(order), rng.randint(3, order))
        out["closed cycle"] = _cycle_through(vs)
    if order >= 6:
        vs = rng.sample(range(order), order)
        cut = rng.randint(3, order - 3)
        out["two cycles"] = _cycle_through(vs[:cut]) + _cycle_through(vs[cut:])
    return out


class TestKernelsMatchDictOracles:
    @pytest.mark.parametrize("order", range(41))
    def test_analyze_linear_forest(self, order):
        rng = random.Random(f"forest:{order}")
        for _ in range(6):
            # every vertex in order, out of order, and a random subset
            vertex_sets = [
                range(order),
                list(range(order))[::-1],
                rng.sample(range(order), rng.randint(0, order)),
            ]
            for name, edges in _forest_mutants(order, rng).items():
                for es in (edges, _shuffled(edges, rng), set(edges)):
                    for vertices in vertex_sets:
                        got = _outcome(analyze_linear_forest, es, vertices)
                        if got[0] == "ok":
                            got = "ok", (got[1].paths, got[1].isolated)
                        want = _outcome(_dict_analyze_linear_forest, es, vertices)
                        assert got == want, (name, es, vertices)

    @pytest.mark.parametrize("order", range(41))
    def test_is_hamiltonian_cycle(self, order):
        rng = random.Random(f"cycle:{order}")
        for _ in range(6):
            vs = rng.sample(range(order), order)
            cyc = _cycle_through(vs) if order >= 3 else [edge(0, 1)] * (order == 2)
            cases = {"cycle": cyc, "shuffled": _shuffled(cyc, rng)}
            cases.update(_forest_mutants(order, rng))
            if cyc:
                drop = rng.randrange(len(cyc))
                cases["missing edge"] = cyc[:drop] + cyc[drop + 1:]
                cases["extra edge"] = cyc + [(0, order)]
                u, v = cyc[drop]
                cases["turned edge"] = cyc[:drop] + [(v, u)] + cyc[drop + 1:]
            for name, es in cases.items():
                for k in (order, order - 1, order + 1, 2):
                    assert is_hamiltonian_cycle(es, k) == _dict_is_hamiltonian_cycle(
                        es, k), (name, es, k)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_check_partition(self, n):
        rng = random.Random(f"partition:{n}")
        order = 2 * n + 1
        for _ in range(4):
            perm = dict(enumerate(rng.sample(range(order), order)))
            good = relabel_decomposition(walecki(n), perm)
            cases = {"partition": good}

            def mutant(name, change):
                dec = good.copy()
                change(dec.classes)
                cases[name] = dec

            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            e = rng.choice(sorted(good.classes[i]))
            mutant("missing edge", lambda cs: cs[i].discard(e))
            mutant("edge in two classes", lambda cs: cs[j].add(e))
            mutant("out of range", lambda cs: cs[j].add((0, order)))
            mutant("negative", lambda cs: cs[j].add((-1, 0)))
            mutant("turned edge", lambda cs: (cs[i].discard(e), cs[i].add(e[::-1])))
            mutant("loop", lambda cs: cs[j].add((1, 1)))
            mutant("extra class", lambda cs: cs.append({(0, 1)}))
            cases["order below three"] = Decomposition(2, [{(0, 1)}])
            cases["empty"] = Decomposition(0, [])
            for name, dec in cases.items():
                assert _outcome(dec.check_partition) == _outcome(
                    _dict_check_partition, dec), name


# ---------------------------------------------------------------------------
# check_hcd against the two separate checks it was held to: the partition
# (_dict_check_partition) and then each class alone
# (_dict_is_hamiltonian_cycle).


def _two_step_check_hcd(dec):
    _dict_check_partition(dec)
    for i, cls in enumerate(dec.classes):
        if not _dict_is_hamiltonian_cycle(cls, dec.order):
            raise InvariantViolation(f"class {i} is not a Hamiltonian cycle")


def _proof_certificates():
    """Walecki certificates, plain and relabelled, and solved ones from
    each route."""
    rng = random.Random("proof")
    out = [_walecki_cert(n) for n in (2, 3, 5, 8)]
    for n in (3, 6, 11):
        cert = _walecki_cert(n)
        order = 2 * n + 1
        cert.cycles = relabel_rows(
            cert.cycles, dict(enumerate(rng.sample(range(order), order))), order)
        out.append(cert)
    k2 = path_graph(1)
    for h in (path_graph(4), disjoint_union(*[k2] * 9), path_graph(12),
              cycle_graph(10), star_graph(9),
              disjoint_union(cycle_graph(3), *[k2] * 5)):
        out.append(solve(h, seed=1))
    return out


def _proof_mutants(cert, rng):
    """Named copies of the edge sets of cert's rows, each broken one way
    at a random place: an edge moved, dropped, copied, pushed out of
    range or turned, a class of the wrong size, a swap of two classes'
    least edges, and a trade that keeps every degree two but splits a
    class into two cycles."""
    good = hcd(cert.cycles)
    order, n = good.order, len(good.classes)
    i, j = rng.sample(range(n), 2)
    e = rng.choice(sorted(good.classes[i]))
    u, v = e
    out = {"unchanged": good}

    def mutant(name, change):
        dec = good.copy()
        change(dec.classes)
        out[name] = dec

    def swap(cs, a, b):
        ea, eb = min(cs[a]), min(cs[b])
        cs[a].discard(ea); cs[b].discard(eb)
        cs[a].add(eb); cs[b].add(ea)

    mutant("moved", lambda cs: (cs[i].discard(e), cs[j].add(e)))
    mutant("dropped", lambda cs: cs[i].discard(e))
    mutant("copied", lambda cs: cs[j].add(e))
    mutant("out of range", lambda cs: (cs[i].discard(e), cs[i].add((u, order))))
    mutant("negative", lambda cs: (cs[i].discard(e), cs[i].add((-1, v))))
    mutant("turned", lambda cs: (cs[i].discard(e), cs[i].add((v, u))))
    mutant("wrong size", lambda cs: (cs[i].update(cs[j]), cs[j].clear()))
    mutant("swap 0 1", lambda cs: swap(cs, 0, 1))
    mutant("swap", lambda cs: swap(cs, i, j))
    split = _two_cycle_trade(good, rng)
    if split is not None:
        out["two cycles"] = split
    return out


def _cycle_order(cls):
    """The vertices of a Hamiltonian cycle class in walking order from 0."""
    adj = {}
    for a, b in cls:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    walk = [0, adj[0][0]]
    while len(walk) < len(adj):
        x, y = adj[walk[-1]]
        walk.append(y if x == walk[-2] else x)
    return walk


def _two_cycle_trade(dec, rng):
    """A copy of dec in which class i trades its edges ab and cd, for the
    edges ad and bc of some class j.  a, b, c, d lie in that order on the
    cycle of class i, so it falls apart into the cycles b..c and d..a,
    while every vertex keeps degree two in both classes and the classes
    still partition K_order.  None when no class has such a pair."""
    owner = {e: k for k, cls in enumerate(dec.classes) for e in cls}
    order = dec.order
    for i in rng.sample(range(len(dec.classes)), len(dec.classes)):
        walk = _cycle_order(dec.classes[i])
        for p in range(order):
            for q in range(p + 2, order - (p == 0)):
                a, b = walk[p], walk[p + 1]
                c, d = walk[q], walk[(q + 1) % order]
                j = owner[edge(a, d)]
                if j != i and owner[edge(b, c)] == j:
                    out = dec.copy()
                    ci, cj = out.classes[i], out.classes[j]
                    ci.difference_update({edge(a, b), edge(c, d)})
                    cj.difference_update({edge(a, d), edge(b, c)})
                    ci.update({edge(a, d), edge(b, c)})
                    cj.update({edge(a, b), edge(c, d)})
                    return out
    return None


class TestOnePassProof:
    @pytest.mark.parametrize("rep", range(4))
    def test_mutants_match_the_two_step_checks(self, rep):
        rng = random.Random(f"mutants:{rep}")
        seen = set()
        for cert in _proof_certificates():
            for name, dec in _proof_mutants(cert, rng).items():
                assert _outcome(dec.check_hcd) == _outcome(
                    _two_step_check_hcd, dec), name
                seen.add(name)
        assert "two cycles" in seen

    def test_tampered_cycle_names_both_classes(self):
        cert = _walecki_cert(3)
        cert.cycles = _figure_eight(cert.cycles, 0, 1)
        assert verify_certificate(cert).lines()[1:3] == [
            "partition: ok (21 edges)", "hamiltonian: FAIL (bad classes [0, 1])",
        ]


# ---------------------------------------------------------------------------
# The row proof against the edge-set proof it replaced, kept here as it
# stood: parent_prove, and parent_verify, verify_certificate as it read
# on the edge sets of the rows.


def parent_prove(order: int, classes: list[set]) -> tuple[str, list[int] | None]:
    """Prove that classes partition K_order into Hamiltonian cycles, in one
    pass over each class's edges.  Returns the first partition error ("" if
    none) and the classes that are no Hamiltonian cycle (None if an edge
    ended the pass).  Each edge must have 0 <= u < v < order and lie in no
    earlier class (higher[u] holds the v seen with u), and fills a
    neighbour slot at both ends, a third edge overwriting the second.  A class of order >= 3
    edges that fills every second slot has every degree two, and is a
    Hamiltonian cycle when vertex 0's cycle has order edges."""
    higher: list[set[int]] = [set() for _ in range(order)]
    bad: list[int] = []
    total = 0
    for i, cls in enumerate(classes):
        first = [-1] * order
        second = [-1] * order
        for e in cls:
            u, v = e
            if not 0 <= u < v < order:
                return f"class {i}: edge {e} out of range", None
            seen = higher[u]
            if v in seen:
                return f"edge {e} appears in two classes", None
            seen.add(v)
            (first if first[u] < 0 else second)[u] = v
            (first if first[v] < 0 else second)[v] = u
        total += len(cls)
        if order < 3 or len(cls) != order or -1 in second:
            bad.append(i)
            continue
        # walk vertex 0's cycle, at each vertex the slot not leading back
        prev, cur, length = 0, first[0], 1
        while cur:
            prev, cur = cur, (second[cur] if first[cur] == prev else first[cur])
            length += 1
        if length != order:
            bad.append(i)
    want = order * (order - 1) // 2
    if total != want:
        return f"{total} edges in classes, expected {want}", bad
    return "", bad


def parent_verify(cert):
    """verify_certificate as it read when a certificate carried edge sets,
    run on the edge sets of cert's rows."""
    rep = VerificationReport()
    dec = Decomposition(cert.order, [cycle_edges(r) for r in cert.cycles])

    shape_ok = cert.n >= 1 and dec.order == cert.order and len(dec.classes) == cert.n
    rep.add(
        "shape",
        shape_ok,
        f"n={cert.n} order={dec.order} classes={len(dec.classes)}",
    )
    if not shape_ok:
        return rep

    error, bad = parent_prove(dec.order, dec.classes)
    rep.add("partition", not error, error or f"{cert.n * cert.order} edges")
    if error:
        return rep
    ham = f"bad classes {bad}" if bad else "all classes are Hamiltonian cycles"
    rep.add("hamiltonian", not bad, ham)

    hvs = edge_vertices(cert.h_edges)
    emb_ok = True
    detail = f"{len(hvs)} vertices embedded"
    if sorted(cert.label_map) != hvs:
        emb_ok, detail = False, "label map keys differ from input vertices"
    elif len(set(cert.label_map.values())) != len(cert.label_map):
        emb_ok, detail = False, "label map is not injective"
    elif any(not 0 <= w < cert.order for w in cert.label_map.values()):
        emb_ok, detail = False, "label map leaves the host vertex range"
    elif any(u == v for u, v in cert.h_edges):
        emb_ok, detail = False, "input graph has a loop"
    elif len(set(edge(u, v) for u, v in cert.h_edges)) != len(cert.h_edges):
        emb_ok, detail = False, "input graph repeats an edge"
    rep.add("embedding", emb_ok, detail)
    if not emb_ok:
        return rep

    rb_ok = True
    detail = f"{len(cert.h_edges)} edges in {len(cert.h_edges)} distinct classes"
    if len(cert.assignment) != len(cert.h_edges):
        rb_ok, detail = False, "assignment length differs from edge count"
    elif len(set(cert.assignment)) != len(cert.assignment):
        rb_ok, detail = False, "two edges share a class"
    elif any(not 0 <= c < cert.n for c in cert.assignment):
        rb_ok, detail = False, "class index out of range"
    else:
        for (u, v), c in zip(cert.h_edges, cert.assignment):
            e = edge(cert.label_map[u], cert.label_map[v])
            if e not in dec.classes[c]:
                rb_ok, detail = False, f"edge {(u, v)} not in class {c}"
                break
    rep.add("rainbow", rb_ok, detail)
    return rep


def marks(rep):
    """Each report line's name and whether it passed."""
    return [(name, passed) for name, passed, _ in rep.checks]


def assert_proved_as_the_parent(cert):
    """verify_certificate(cert) gives the parent's lines, word for word."""
    assert verify_certificate(cert).lines() == parent_verify(cert).lines()


def _row_mutants(cert, rng):
    """Named copies of cert's rows, each broken one way at a random place:
    two entries swapped, one row copied over another, a vertex repeated,
    a vertex out of range or negative, a row rotated or reversed, and
    two rows that trade a vertex into figure eights."""
    rows = cert.cycles
    order, n = cert.order, cert.n
    i, j = rng.sample(range(n), 2)
    a, b = rng.sample(range(order), 2)
    out = {"unchanged": rows}

    def mutant(name, change):
        copy = [list(r) for r in rows]
        change(copy)
        out[name] = copy

    def swap(cs):
        cs[i][a], cs[i][b] = cs[i][b], cs[i][a]

    def put(value):
        return lambda cs: cs[i].__setitem__(a, value)

    mutant("swapped entries", swap)
    mutant("copied row", lambda cs: cs.__setitem__(j, list(cs[i])))
    mutant("repeated vertex", put(rows[i][b]))
    mutant("out of range", put(order + rng.randrange(3)))
    mutant("negative", put(-1 - rng.randrange(3)))
    mutant("rotated", lambda cs: cs.__setitem__(i, cs[i][a:] + cs[i][:a]))
    mutant("reversed", lambda cs: cs[i].reverse())
    eight = _figure_eight(rows)
    if eight is not None:
        out["figure eight"] = eight
    return out


class TestRowProof:
    def test_certificates_give_the_parent_lines(self):
        for cert in _proof_certificates():
            assert_proved_as_the_parent(cert)

    @pytest.mark.parametrize("rep", range(4))
    def test_row_mutants_give_the_parent_lines(self, rep):
        rng = random.Random(f"row-mutants:{rep}")
        seen = Counter()
        for cert in _proof_certificates():
            for name, rows in _row_mutants(cert, rng).items():
                tampered = RainbowCertificate(
                    cert.n, cert.seed, cert.h_edges, cert.label_map,
                    cert.assignment, rows,
                )
                got = verify_certificate(tampered)
                assert got.lines() == parent_verify(tampered).lines(), name
                seen[name, got.ok] += 1
        # rotated and reversed rows are the same cycles; every other
        # mutant fails, the figure eights on the hamiltonian line alone
        assert {name for name, ok in seen if ok} == {"unchanged", "rotated", "reversed"}
        assert ("figure eight", False) in seen

    def test_figure_eight_fails_only_the_hamiltonian_line(self):
        cert = _walecki_cert(5)
        cert.cycles = _figure_eight(cert.cycles)
        failed = [n for n, p in marks(verify_certificate(cert)) if not p]
        assert failed == ["hamiltonian"]


# entries a row must not hold: a bool, a float, None, a string, a list
NOT_INTS = st.one_of(
    st.booleans(), st.floats(allow_nan=True), st.none(), st.text(max_size=2),
    st.lists(st.integers(0, 8), max_size=2),
)


@st.composite
def malformed_certificates(draw):
    """A Walecki certificate, n = 1..4, with its rows broken one way."""
    n = draw(st.integers(1, 4))
    order = 2 * n + 1
    rows = [list(r) for r in _walecki_on(n, identity(order))]
    i = draw(st.integers(0, n - 1))
    k = draw(st.integers(0, order - 1))
    how = draw(st.sampled_from([
        "short", "long", "entry", "vertex", "repeat", "tuple", "few", "many",
    ]))
    if how == "short":
        del rows[i][draw(st.integers(0, order - 1)):]
    elif how == "long":
        rows[i] += draw(st.lists(st.integers(-2, order + 2), min_size=1, max_size=3))
    elif how == "entry":
        rows[i][k] = draw(NOT_INTS)
    elif how == "vertex":
        rows[i][k] = draw(st.one_of(st.integers(max_value=-1),
                                    st.integers(min_value=order)))
    elif how == "repeat":
        rows[i][k] = rows[i][draw(st.integers(0, order - 1))]
    elif how == "tuple":
        rows[i] = tuple(rows[i])
    elif how == "few":
        del rows[draw(st.integers(0, n - 1)):]
    else:
        rows += draw(st.lists(st.just(rows[0]), min_size=1, max_size=2))
    cert = RainbowCertificate(n, 0, [(0, 1)], {0: 0, 1: 1}, [0], rows)
    return how, cert


@st.composite
def malformed_instances(draw):
    """A solved certificate of P4, K_{1,3} or C3 + K2 whose h_edges,
    label_map or assignment is broken one way, and the check that must
    fail: "embedding" for the first two, "rainbow" for the assignment."""
    h = draw(st.sampled_from([
        path_graph(3), star_graph(3), disjoint_union(cycle_graph(3), path_graph(1)),
    ]))
    cert = solve(h, 0)
    field = draw(st.sampled_from(["h_edges", "label_map", "assignment"]))
    how = draw(st.sampled_from(["entry", "container"]))
    if how == "container":
        value = getattr(cert, field)
        setattr(cert, field, draw(st.sampled_from([
            None, tuple(value), str(value), {0: 1} if field != "label_map" else [0],
        ])))
    elif field == "h_edges":
        k = draw(st.integers(0, len(h) - 1))
        u, v = cert.h_edges[k]
        cert.h_edges[k] = draw(st.sampled_from([
            (u, v, v), (u,), (str(u), str(v)), (float(u), v), (u, True), None, u,
        ]))
    elif field == "label_map":
        key = draw(st.sampled_from(sorted(cert.label_map)))
        if draw(st.booleans()):
            cert.label_map[key] = draw(NOT_INTS)
        else:
            # keys that equal no int, so none overwrites a label
            cert.label_map[draw(st.sampled_from([None, "x", "0", 0.5, (0,)]))] = 0
    else:
        cert.assignment[draw(st.integers(0, len(h) - 1))] = draw(NOT_INTS)
    return ("rainbow" if field == "assignment" else "embedding"), cert


class TestVerifyNeverRaises:
    @given(malformed_certificates())
    @settings(max_examples=400, deadline=None)
    def test_malformed_rows_fail_a_check(self, drawn):
        # the docstring's promise: bad rows fail shape, partition or
        # hamiltonian, and nothing raises
        how, cert = drawn
        rep = verify_certificate(cert)
        failed = [name for name, passed, _ in rep.checks if not passed]
        if how in ("short", "long", "entry", "tuple", "few", "many"):
            assert failed == ["shape"], (how, rep.lines())
        elif how == "vertex":
            assert failed == ["partition"], (how, rep.lines())
        elif cert.cycles != _walecki_on(cert.n, identity(2 * cert.n + 1)):
            assert failed and failed[0] in ("partition", "hamiltonian"), rep.lines()

    @pytest.mark.parametrize("n", [0, -1, "3", None, 2.0])
    def test_a_bad_n_fails_the_shape(self, n):
        cert = RainbowCertificate(n, 0, [], {}, [], [[0, 1, 2]])
        assert marks(verify_certificate(cert)) == [("shape", False)]

    @given(malformed_instances())
    @settings(max_examples=300, deadline=None)
    def test_malformed_instance_fails_a_check(self, drawn):
        # a certificate whose rows are sound but whose h_edges, label_map
        # or assignment is no plain list or map of ints: the embedding or
        # the rainbow check fails, and nothing raises
        field, cert = drawn
        rep = verify_certificate(cert)
        failed = [name for name, passed, _ in rep.checks if not passed]
        assert failed == [field], (field, rep.lines())

    @pytest.mark.parametrize("field, value", [
        ("assignment", [False, 1, 2]), ("assignment", [0.0, 1, 2]),
        ("assignment", ["0", 1, 2]), ("label_map", 0.0),
        ("label_map", "0"), ("h_edges", (0, 1, 2)), ("h_edges", ("a", "b")),
    ], ids=["assignment-bool", "assignment-float", "assignment-str",
            "label-float", "label-str", "edge-of-three", "edge-of-str"])
    def test_entries_that_are_no_int_fail(self, field, value):
        # each of these raised or passed before the checks took exact ints
        # only: a bool or a float among the assignment, a label value that
        # is a float or a string, an edge of three ends or of strings
        cert = solve(path_graph(3), 0)
        assert verify_certificate(cert).ok
        if field == "assignment":
            cert.assignment = value
        elif field == "label_map":
            cert.label_map[next(iter(cert.label_map))] = value
        else:
            cert.h_edges[0] = value
        rep = verify_certificate(cert)
        check = "rainbow" if field == "assignment" else "embedding"
        assert [name for name, passed, _ in rep.checks if not passed] == [check]


class TestRows:
    @pytest.mark.parametrize("order", range(3, 12))
    def test_canonical_row_of_every_turn(self, order):
        rng = random.Random(f"canonical:{order}")
        row = [0, *rng.sample(range(1, order), order - 1)]
        row = canonical_row(row)
        assert row[0] == 0 and row[1] < row[-1]
        for k in range(order):
            turned = row[k:] + row[:k]
            assert canonical_row(turned) == row
            assert canonical_row(turned[::-1]) == row

    def test_slot_row_is_bounded(self):
        # slots that do not come back to 0: a lasso 0-1-2-3-1, and slots
        # pointing past themselves
        assert slot_row([1, 0, 1, 2], [-1, 2, 3, 1]) is None
        assert slot_row([1, 2, 1], [2, 2, 1]) is None
        assert slot_row([1, 0, 1], [2, 2, 0]) == [0, 1, 2]
