import random

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
    _walecki_on,
    analyze_linear_forest,
    complete_edges,
    component_edge_groups,
    edge,
    is_hamiltonian_cycle,
    relabel_decomposition,
    verify_certificate,
    walecki,
)
from rainbow_hcd.solver import solve


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
        rng = random.Random(f"laid:{n}")
        order = 2 * n + 1
        for _ in range(5):
            perm = dict(enumerate(rng.sample(range(order), order)))
            laid = _walecki_on(n, perm)
            assert laid.classes == relabel_decomposition(walecki(n), perm).classes

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
        dec = walecki(3)
        perm = {v: (3 * v + 1) % 7 for v in range(7)}
        out = relabel_decomposition(dec, perm)
        out.check_hcd()
        e = edge(perm[0], perm[1])
        assert [e in c for c in out.classes] == [(0, 1) in c for c in dec.classes]

    def test_relabel_builds_the_sets_edge_builds(self):
        # the same members, inserted in the same order, so the same
        # iteration order as well
        rng = random.Random(4)
        dec = solve(disjoint_union(cycle_graph(3), path_graph(1), path_graph(1),
                                   path_graph(1)), seed=0).decomposition
        perm = dict(enumerate(rng.sample(range(dec.order), dec.order)))
        want = [{edge(perm[u], perm[v]) for u, v in cls} for cls in dec.classes]
        got = relabel_decomposition(dec, perm).classes
        assert got == want
        assert [list(c) for c in got] == [list(c) for c in want]

    def test_relabel_rejects_non_bijection(self):
        with pytest.raises(InvariantViolation):
            relabel_decomposition(walecki(1), {0: 0, 1: 0, 2: 2})

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


def _walecki_cert(n):
    return RainbowCertificate(
        n=n, seed=0, h_edges=[], label_map={}, assignment=[],
        decomposition=walecki(n),
    )


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
        dec = cert.decomposition
        cert.assignment = [
            next(i for i, c in enumerate(dec.classes) if e in c)
            for e in [(0, 1), (1, 2)]
        ]
        assert verify_certificate(cert).ok

    def test_shared_class_rejected(self):
        cert = _walecki_cert(2)
        cert.h_edges = [(0, 1), (1, 2)]
        cert.label_map = {0: 0, 1: 1, 2: 2}
        c = next(i for i, cls in enumerate(cert.decomposition.classes)
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
        c = next(i for i, cls in enumerate(cert.decomposition.classes)
                 if (0, 1) in cls)
        cert.assignment = [1 - c]
        assert not verify_certificate(cert).ok

    def test_tampered_partition_rejected(self):
        cert = _walecki_cert(3)
        cert.decomposition.classes[0].discard((0, 1))
        rep = verify_certificate(cert)
        assert not rep.ok
        assert any(name == "partition" and not p for name, p, _ in rep.checks)

    def test_tampered_cycle_rejected(self):
        cert = _walecki_cert(3)
        c0, c1 = cert.decomposition.classes[:2]
        e0 = min(c0)
        e1 = min(c1)
        c0.discard(e0); c1.discard(e1)
        c0.add(e1); c1.add(e0)
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
# The one-pass proof against the two separate checks it replaced: the
# partition (_dict_check_partition, the reference check_partition was held
# to) and then each class alone (_dict_is_hamiltonian_cycle).


def _two_step_lines(cert):
    """verify_certificate(cert).lines() as the two separate checks give
    them.  The shape, embedding and rainbow lines read no class structure
    and are taken from verify_certificate itself."""
    got = verify_certificate(cert).lines()
    dec = cert.decomposition
    try:
        _dict_check_partition(dec)
    except InvariantViolation as exc:
        return got[:1] + [f"partition: FAIL ({exc})"]
    bad = [i for i, c in enumerate(dec.classes)
           if not _dict_is_hamiltonian_cycle(c, dec.order)]
    ham = (f"hamiltonian: FAIL (bad classes {bad})" if bad
           else "hamiltonian: ok (all classes are Hamiltonian cycles)")
    edges = dec.order * (dec.order - 1) // 2
    return got[:1] + [f"partition: ok ({edges} edges)", ham] + got[3:]


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
        cert.decomposition = relabel_decomposition(
            cert.decomposition, dict(enumerate(rng.sample(range(order), order))))
        out.append(cert)
    k2 = path_graph(1)
    for h in (path_graph(4), disjoint_union(*[k2] * 9), path_graph(12),
              cycle_graph(10), star_graph(9),
              disjoint_union(cycle_graph(3), *[k2] * 5)):
        out.append(solve(h, seed=1))
    return out


def _proof_mutants(cert, rng):
    """Named copies of cert's decomposition, each broken one way at a
    random place: an edge moved, dropped, copied, pushed out of range or
    turned, a class of the wrong size, the two-class swap of
    test_tampered_cycle_rejected, and a trade that keeps every degree two
    but splits a class into two cycles."""
    good = cert.decomposition
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
                tampered = RainbowCertificate(
                    cert.n, cert.seed, cert.h_edges, cert.label_map,
                    cert.assignment, dec,
                )
                got = verify_certificate(tampered).lines()
                assert got == _two_step_lines(tampered), (name, got)
                assert _outcome(dec.check_hcd) == _outcome(
                    _two_step_check_hcd, dec), name
                assert (name == "unchanged") == verify_certificate(tampered).ok
                seen.add(name)
        assert "two cycles" in seen

    def test_tampered_cycle_names_both_classes(self):
        cert = _walecki_cert(3)
        c0, c1 = cert.decomposition.classes[:2]
        e0, e1 = min(c0), min(c1)
        c0.discard(e0); c1.discard(e1)
        c0.add(e1); c1.add(e0)
        assert verify_certificate(cert).lines()[1:3] == [
            "partition: ok (21 edges)", "hamiltonian: FAIL (bad classes [0, 1])",
        ]
