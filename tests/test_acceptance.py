"""End-to-end acceptance runs.

One test per shipping criterion; each prints a single summary line
(visible under pytest -s or in the captured output section).
"""

import itertools
import random
import time

from rainbow_hcd.coloring import (
    BipartiteMultigraph,
    balanced_k_coloring,
    paired_balanced_2_coloring,
    rebalance_drop_one,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from rainbow_hcd.files import certificate_to_text
from rainbow_hcd.graph_core import edge, verify_certificate, walecki
from rainbow_hcd.hilton import ForestSplit, extend_to_hcd, truncate_to_order
from rainbow_hcd.oracle import exhaustive_rainbow_hcd
from rainbow_hcd.solver import solve


def report(name, detail):
    print(f"acceptance {name}: pass ({detail})")


def solve_and_check(h, seed=0):
    cert = solve(h, seed=seed)
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    return cert


def random_instance(n, rng):
    shapes = [
        lambda: path_graph(1),
        lambda: path_graph(2),
        lambda: path_graph(3),
        lambda: path_graph(rng.randint(4, 6)),
        lambda: star_graph(3),
        lambda: star_graph(rng.randint(4, 5)),
        lambda: cycle_graph(3),
        lambda: cycle_graph(rng.randint(4, 6)),
    ]
    parts = []
    left = n
    while left:
        g = rng.choice(shapes)()
        if len(g) > left:
            g = path_graph(left) if left > 1 else path_graph(1)
        parts.append(g)
        left -= len(g)
    return disjoint_union(*parts)


def test_exhaustive_small_instances():
    t0 = time.time()
    counts = []
    for n in range(1, 5):
        reps = nonisomorphic_edge_graphs(n)
        assert reps
        counts.append(len(reps))
        for h in reps:
            solve_and_check(h, seed=n)
    dt = time.time() - t0
    assert dt < 300
    report(
        "exhaustive n=1..4",
        f"{sum(counts)} classes, counts {counts}, {dt:.1f}s",
    )


def test_five_edge_sweep_with_oracle():
    t0 = time.time()
    reps = nonisomorphic_edge_graphs(5)
    assert reps
    certs = [solve_and_check(h, seed=5) for h in reps]
    rng = random.Random("sweep-5")
    picked = rng.sample(range(len(reps)), 20)
    for idx in picked:
        free = exhaustive_rainbow_hcd(reps[idx], 5)
        assert free.status == "found"
        pinned = exhaustive_rainbow_hcd(
            reps[idx], 5, precoloring=list(certs[idx].assignment)
        )
        assert pinned.status == "found"
    dt = time.time() - t0
    assert dt < 1800
    report(
        "five-edge sweep",
        f"{len(reps)} classes solved, 20 oracle spot checks, {dt:.1f}s",
    )


def test_pipeline_branch_coverage():
    # each family pins one dispatch branch of the dense embedding stage
    families = [
        (disjoint_union(cycle_graph(3), path_graph(2), path_graph(1)),
         6, "direct"),
        (disjoint_union(star_graph(3), path_graph(2), path_graph(2),
                        path_graph(1), path_graph(1)),
         9, "case=1 even t<n"),
        (disjoint_union(star_graph(3), path_graph(6)),
         9, "case=1 odd t=n"),
        (disjoint_union(cycle_graph(3), path_graph(2), path_graph(2),
                        path_graph(2)),
         9, "case=2 even t=n"),
        (disjoint_union(star_graph(3), path_graph(3), path_graph(2)),
         8, "case=2 odd t=n"),
        (disjoint_union(star_graph(3), path_graph(2), path_graph(2),
                        path_graph(2), path_graph(2), path_graph(1)),
         12, "case=2 even t<n"),
        (disjoint_union(cycle_graph(3), *[path_graph(2)] * 5),
         13, "case=2 even t=n"),
        (disjoint_union(star_graph(3), path_graph(2), path_graph(2),
                        path_graph(2), path_graph(2), path_graph(1),
                        path_graph(1), path_graph(1)),
         14, "case=1 even t<n"),
    ]
    t0 = time.time()
    seen = set()
    for h, n, label in families:
        assert len(h) == n
        cert = solve_and_check(h, seed=1)
        joined = " ".join(cert.trace)
        want = label.split()[0]
        if want == "direct":
            assert "direct matchings" in joined
        else:
            assert want in joined
        seen.add(label)
    # the eight runs must jointly cover every branch pair
    assert "direct" in seen
    assert any("case=1 even" in s for s in seen)
    assert any("case=1 odd" in s for s in seen)
    assert any("case=2 even" in s for s in seen)
    assert any("case=2 odd" in s for s in seen)
    assert any("t=n" in s for s in seen)
    assert any("t<n" in s for s in seen)
    dt = time.time() - t0
    assert dt < 600
    report("pipeline branches", f"{len(families)} families, {dt:.1f}s")


def test_planted_obstruction():
    # a 2-path forced into one class plus a disjoint edge in the other
    # cannot complete to two Hamiltonian cycles on five vertices
    t0 = time.time()
    h = [edge(0, 1), edge(1, 2), edge(3, 4)]
    out = exhaustive_rainbow_hcd(h, 2, precoloring=[0, 0, 1])
    dt = time.time() - t0
    assert out.status == "none"
    assert dt < 1.0
    control = exhaustive_rainbow_hcd([edge(0, 1), edge(1, 2)], 2)
    assert control.status == "found"
    report("planted obstruction", f"proved in {out.nodes} nodes, {dt:.3f}s")


def _random_multigraph(rng, max_mult):
    g = BipartiteMultigraph(rng.randint(1, 8), rng.randint(1, 8))
    mult = {}
    for _ in range(rng.randint(1, 18)):
        x = rng.randrange(g.x_size)
        y = rng.randrange(g.y_size)
        if mult.get((x, y), 0) < max_mult:
            g.add_edge(x, y)
            mult[(x, y)] = mult.get((x, y), 0) + 1
    return g


def _assert_balanced(g, col, k, pool):
    groups = [g.incident_x(x) for x in range(g.x_size)]
    groups += [g.incident_y(y) for y in range(g.y_size)]
    groups += list(g.bundles().values())
    for inc in groups:
        counts = [0] * k
        for e in inc:
            if e in pool:
                counts[col[e]] += 1
        assert max(counts) - min(counts) <= 1


def test_balanced_coloring_suite():
    t0 = time.time()
    for trial in range(1000):
        rng = random.Random(f"bal:{trial}")
        g = _random_multigraph(rng, 4)
        col = balanced_k_coloring(g)
        assert set(col) == set(g.edges)
        _assert_balanced(g, col, 2, set(g.edges))
    dt = time.time() - t0
    assert dt < 120
    report("balanced coloring suite", f"1000 graphs, {dt:.1f}s")


def test_paired_coloring_suite():
    t0 = time.time()
    for trial in range(1000):
        rng = random.Random(f"pair:{trial}")
        base = _random_multigraph(rng, 2)
        f = BipartiteMultigraph(base.x_size, base.y_size)
        pairing = {}
        for x, y in (base.edges[e] for e in sorted(base.edges)):
            a = f.add_edge(x, y)
            b = f.add_edge(x, y)
            if rng.random() < 0.5:
                pairing[a] = b
                pairing[b] = a
        s1, s2 = paired_balanced_2_coloring(f, pairing, rng)
        assert s1 | s2 == set(f.edges) and not s1 & s2
        for a, b in pairing.items():
            assert (a in s1) != (b in s1)
        for y in range(f.y_size):
            inc = f.incident_y(y)
            assert len([e for e in inc if e in s1]) == len(inc) // 2
        for x in range(f.x_size):
            inc = f.incident_x(x)
            d1 = len([e for e in inc if e in s1])
            assert abs(2 * d1 - len(inc)) <= 1
    dt = time.time() - t0
    assert dt < 120
    report("paired coloring suite", f"1000 graphs, {dt:.1f}s")


def _rebalance_case(rng):
    g = BipartiteMultigraph(rng.randint(2, 8), rng.randint(2, 6))
    mult = {}
    a_ids, b_ids = [], []
    for y in range(g.y_size):
        db = rng.randint(0, 2)
        da = rng.randint(0, db)
        for ids, d in ((b_ids, db), (a_ids, da)):
            for _ in range(d):
                x = rng.randrange(g.x_size)
                if mult.get((x, y), 0) >= 4:
                    continue
                mult[(x, y)] = mult.get((x, y), 0) + 1
                ids.append(g.add_edge(x, y))
    a, b = set(a_ids), set(b_ids)
    caps = [max(g.degree_x(x, a), g.degree_x(x, b)) for x in range(g.x_size)]
    eta = max(caps + [1]) + rng.randint(0, 2)
    surplus = [
        x for x in range(g.x_size)
        if g.degree_x(x, a) > g.degree_x(x, b)
    ]
    if not surplus:
        return None
    return g, a, b, rng.choice(surplus), eta


def _rebalance_predicate(g, a, x0, eta, c):
    if len(c) != len(a):
        return False
    for y in range(g.y_size):
        if g.degree_y(y, c) != g.degree_y(y, a):
            return False
    bumped = []
    for x in range(g.x_size):
        da, dc = g.degree_x(x, a), g.degree_x(x, c)
        if x == x0:
            if dc != da - 1:
                return False
        elif dc == da + 1 and da < eta:
            bumped.append(x)
        elif dc != da:
            return False
    return len(bumped) == 1


def test_rebalance_suite():
    t0 = time.time()
    done = checked = 0
    trial = 0
    while done < 1000:
        trial += 1
        case = _rebalance_case(random.Random(f"reb:{trial}"))
        if case is None:
            continue
        g, a, b, x0, eta = case
        done += 1
        c = rebalance_drop_one(g, a, b, x0, eta)
        assert c <= a | b
        assert _rebalance_predicate(g, a, x0, eta, c)
        if len(a) + len(b) <= 14:
            checked += 1
            pool = sorted(a | b)
            assert any(
                _rebalance_predicate(g, a, x0, eta, set(pick))
                for pick in itertools.combinations(pool, len(a))
            )
    dt = time.time() - t0
    assert dt < 120
    report(
        "rebalance suite",
        f"1000 runs, {checked} brute-force cross checks, {dt:.1f}s",
    )


def test_completion_suite():
    t0 = time.time()
    runs = 0
    for n in range(2, 9):
        base = walecki(n)
        for m in range(3, 2 * n + 1):
            cut = truncate_to_order(base, m)
            floor = 2 * m - 2 * n - 1
            assert all(len(cls) >= floor for cls in cut.classes)
            # the completion grows cut in place, so its classes are kept
            # apart first
            kept = [set(cls) for cls in cut.classes]
            out = extend_to_hcd(ForestSplit.scan(cut), n)
            out.check_hcd()
            assert out.order == 2 * n + 1
            for old, new in zip(kept, out.classes):
                assert old <= new
            runs += 1
    dt = time.time() - t0
    assert dt < 120
    report("completion suite", f"{runs} truncation rebuilds, {dt:.1f}s")


def test_determinism():
    t0 = time.time()
    for i in range(100):
        rng = random.Random(f"det:{i}")
        h = random_instance(rng.randint(1, 12), rng)
        seed = rng.randrange(2**16)
        first = certificate_to_text(solve(h, seed=seed))
        second = certificate_to_text(solve(h, seed=seed))
        assert first == second
    dt = time.time() - t0
    report("determinism", f"100 instance/seed pairs, {dt:.1f}s")
