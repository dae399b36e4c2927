import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from rainbow_hcd import embed_dense, solver
from rainbow_hcd.errors import (
    InfeasibleInput,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from rainbow_hcd.files import certificate_to_text
from rainbow_hcd.graph_core import (
    RainbowCertificate,
    analyze_linear_forest,
    edge,
    edge_vertices,
    verify_certificate,
)
from rainbow_hcd.oracle import exhaustive_rainbow_hcd
from rainbow_hcd.solver import (
    Strategy,
    relabel_hosts,
    route,
    solve,
)
from test_files import _dumps_text
from test_hilton import scans_checked


def k2s(count):
    return disjoint_union(*[path_graph(1)] * count)


class TestStagesBelowSixEdges:
    def test_every_graph_of_at_most_five_edges_without_the_planted_search(self):
        # route sends every n <= 5 to base-small; called directly, the hub
        # construction lays each of the 45 graphs of 1 to 5 edges that is
        # a linear forest, and the pipeline each other one, one of them
        # (K_{1,3} + P3) through a recursive embed
        routes = Counter()
        for k in range(1, 6):
            for h in nonisomorphic_edge_graphs(k):
                nv = len(edge_vertices(h))
                try:
                    paths = analyze_linear_forest(h, range(nv)).paths
                except NotLinearForest:
                    dec, assignment, trace = solver._main_pipeline(h, k, 0)
                else:
                    dec, assignment, trace = solver._hub_linear_forest(h, k, paths)
                cert = RainbowCertificate(
                    k, 0, h, {v: v for v in range(nv)}, assignment, dec, trace
                )
                report = verify_certificate(cert)
                assert report.ok, (h, report.lines())
                routes[trace[0].split(":")[0]] += 1
                routes["recursive"] += any("case=" in line for line in trace)
        assert routes == {"hub": 18, "embed": 27, "recursive": 1}


def strategy(h):
    return route(h, len(h), len(edge_vertices(h)))[0]


class TestRoute:
    def test_small_instances_always_base(self):
        for h in (path_graph(5), disjoint_union(cycle_graph(3), k2s(2))):
            assert strategy(h) is Strategy.BASE_SMALL

    def test_matching_route(self):
        assert strategy(k2s(7)) is Strategy.ALL_K2

    def test_linear_forest_route(self):
        h = disjoint_union(path_graph(2), k2s(4))
        assert strategy(h) is Strategy.LINEAR_FOREST

    def test_pipeline_route_cycle(self):
        h = disjoint_union(cycle_graph(3), k2s(3))
        assert strategy(h) is Strategy.MAIN_PIPELINE

    def test_pipeline_route_high_degree(self):
        h = disjoint_union(star_graph(3), k2s(3))
        assert strategy(h) is Strategy.MAIN_PIPELINE

    @pytest.mark.parametrize(
        "h,want",
        [
            (k2s(8), [1, 1, 0]),
            (disjoint_union(path_graph(4), k2s(3)), [1, 1, 0]),
            (path_graph(4), [1, 0, 0]),
            (disjoint_union(cycle_graph(3), k2s(3)), [2, 1, 1]),
        ],
        ids=["8K2", "P5+3K2", "P5", "C3+3K2"],
    )
    def test_hub_solve_lists_and_scans_once(self, monkeypatch, h, want):
        # solve sorts the vertex set once and route's linear-forest view
        # is the one the hub lays; only the pipeline groups the components
        # (once), and sorts the vertices of its thick part
        names = ("edge_vertices", "analyze_linear_forest", "component_edge_groups")
        calls = Counter()

        def counted(name):
            real = getattr(solver, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(solver, name, counted(name))
        assert verify_certificate(solve(h)).ok
        assert [calls[name] for name in names] == want

    def test_tag_strings(self):
        assert {s.value for s in Strategy} == {
            "base-small", "all-k2", "linear-forest", "pipeline",
        }


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(InfeasibleInput):
            solve([])

    def test_rejects_loop(self):
        with pytest.raises(InfeasibleInput):
            solve([(0, 0)])

    def test_rejects_repeat(self):
        with pytest.raises(InfeasibleInput):
            solve([(0, 1), (1, 0)])

    def test_rejects_non_integer_labels(self):
        with pytest.raises(InfeasibleInput):
            solve([("a", "b")])

    @pytest.mark.parametrize(
        "h",
        [[(1, 2, 3)], [(1,)], [5], [(True, 2), (0, 3)]],
        ids=["triple", "single", "bare-int", "bool-label"],
    )
    def test_rejects_malformed_pairs(self, h):
        # a bool label would reach the certificate as "True", which
        # certificate_from_text cannot read back
        with pytest.raises(InfeasibleInput):
            solve(h)


class TestSolveRoutes:
    @pytest.mark.parametrize(
        "h,tag",
        [
            (path_graph(4), "base-small"),
            (k2s(7), "all-k2"),
            (disjoint_union(path_graph(2), k2s(4)), "linear-forest"),
            (disjoint_union(cycle_graph(3), k2s(3)), "pipeline"),
        ],
    )
    def test_route_tag_recorded_and_verified(self, h, tag):
        cert = solve(h, seed=3)
        assert cert.trace[0] == f"route: {tag}"
        assert verify_certificate(cert).ok

    def test_pipeline_trace_names_stages(self):
        cert = solve(disjoint_union(cycle_graph(3), k2s(3)), seed=0)
        joined = " ".join(cert.trace)
        assert "embed:" in joined
        assert "attach:" in joined
        assert "hilton:" in joined

    def test_single_edge(self):
        cert = solve([(0, 1)])
        assert cert.order == 3
        assert cert.assignment == [0]


class TestCanonicalHosts:
    def test_labels_map_to_prefix_in_sorted_order(self):
        cert = solve([(100, 7), (7, 42)], seed=1)
        assert cert.label_map == {7: 0, 42: 1, 100: 2}

    @pytest.mark.parametrize("seed", range(4))
    def test_every_route_lands_on_prefix(self, seed):
        cases = [
            path_graph(4),
            k2s(6),
            disjoint_union(path_graph(3), k2s(4)),
            disjoint_union(star_graph(3), k2s(4)),
        ]
        for h in cases:
            cert = solve(h, seed=seed)
            nv = len({v for e in cert.h_edges for v in e})
            assert sorted(cert.label_map.values()) == list(range(nv))


class TestRelabelHosts:
    def test_round_trip(self):
        cert = solve(path_graph(4), seed=2)
        o = cert.order
        perm = {i: (i + 3) % o for i in range(o)}
        moved = relabel_hosts(cert, perm)
        assert verify_certificate(moved).ok
        back = relabel_hosts(moved, {v: k for k, v in perm.items()})
        assert back.decomposition.classes == cert.decomposition.classes
        assert back.label_map == cert.label_map

    @pytest.mark.parametrize(
        "make",
        [
            lambda o: {0: 1},
            lambda o: {i: 0 for i in range(o)},
            lambda o: {i: i + 1 for i in range(o)},
            lambda o: {i: i for i in range(o + 1)},
            lambda o: {**{i: i for i in range(2, o)}, 0: False, 1: True},
        ],
        ids=["partial", "not-injective", "out-of-range", "too-long", "bools"],
    )
    def test_rejects_a_map_that_is_no_bijection(self, make):
        # a bad perm is the caller's fault, not an internal one
        cert = solve(path_graph(4), seed=2)
        with pytest.raises(PreconditionViolation, match="bijection"):
            relabel_hosts(cert, make(cert.order))


# sha256 of the certificate text, and of its format-1 rendering,
# which pins the decomposition itself; a change that moves any of
# these bytes updates the digest and says why in CHANGES.md
PINNED = [
    (disjoint_union(cycle_graph(3), k2s(9)), 0,
     "b1ed0beace227581e380c32b1de3ee63cd6f67724419e7e8e0e4b943a4f1ca08",
     "3f59213f9ed6fcf85cee625c0c6f5bcac8e3c8f530c2529fa1906da84b5b7180"),
    (disjoint_union(cycle_graph(3), k2s(9)), 1,
     "9b94414ce82f0e76ff9b0944f92cce3a3428b02985a5911f45c6f7b77e0abd8f",
     "ec154af7f286c77daeb9120aaededbdb12154e3db327720832d247778b89c3a4"),
    (disjoint_union(cycle_graph(8), k2s(8)), 0,
     "b48196d44e6892c99963ba78f3acd888c5a0c8b632664cb4b16fb63c6367fc21",
     "bc850bec2fb89f353d5f4b48ead96bca72067afd8e24c9b872ae4d3e5d102588"),
    (star_graph(16), 0,
     "fb7079e609529c416013ceebf9edfbc386cfe2f487cfb69cf8c9a66f0c657c00",
     "92ca263327453fa0429ca76205600d38656105aa5f567b0f211ac3bbf8df57fb"),
    (cycle_graph(16), 0,
     "a4f258ea33510451070cee31cb169ab8bb78c6c10fc44f7ed014db70a347529e",
     "51558dfdf3a938fb17c257b23aa44c53a41471cccec5c5c10e0fcfc3b0fb993e"),
    (disjoint_union(path_graph(3), path_graph(2), path_graph(1)), 0,
     "c73fc8da0d58e4f8febd5d6909a7e882c85fb8be6b3e4951b46299b3e4327f2e",
     "adfcbeb433ea379741327fd399d1eea6655c80e4643534c835a3afabf48bf4d1"),
    (k2s(6), 0,
     "8d365b9668ae6ad22864bd21553a80ea722dec60ff4443748494b31bc3487c95",
     "11a3b4cd1fd2f039bd38768514c71ce38b48f01d171f90008933aa79bbed15c6"),
    (path_graph(5), 0,
     "1fb1a36712c1aeacb5951a828b9cae4564f791e2f13e42f6b2b86bd940860d31",
     "ea668b366f70d9ee8efee36bf8d2c1097d177863333e0f1af62d6717bcbb7b78"),
    # 29 and 16 attach rounds
    (disjoint_union(cycle_graph(3), k2s(29)), 0,
     "126e0912c5c44b97274ce23668c6d8d9e919a86359d98f3fc29ed81a227d5c03",
     "9de0212da9956be72bb6c45da48d82b99a00b1c2dde8c1739a2a41cf4aaf6a1f"),
    (disjoint_union(cycle_graph(16), k2s(16)), 0,
     "64d30de327bc824e422c9115e3ddb4fcd04b051a3542c211f4d196f07c37ea09",
     "db55e2081528cf5d9f16aa89ba75bd05de55dd12b548231e264851fc23f4a654"),
    # the hub route at scale, where a wrong host map would show
    (k2s(96), 0,
     "606c09339907cccd17f41bf3b893d0cec4ca9627d4e159d4b180fd940b884bf7",
     "1f2d9e1bec5ebd439b28f3774c8a92b80b35513515896fa7984ec883ee5ddb56"),
    (disjoint_union(path_graph(2), k2s(38)), 0,
     "25bdbcfb4c22c7122caae1433a92e5c1cefde8c9f25b11b4d05376b87406f93a",
     "b2ebaa7f829a2caf8d9069b5e7e34c78e04e5472c53541174d79a360c5d726fc"),
    # the recursive embed (r=16, case 2), where the cut of a
    # single-edge class's first donor decides which edges move
    (disjoint_union(star_graph(3), *[path_graph(2)] * 4, path_graph(1)), 0,
     "ce9f3a31c5763b71ad8599fc85bb5e0e300ec7443386f189c166f749fd5d6085",
     "81d0b5d45421ac9bfcad75c4e129b1f6c4ff06cbf99e0e364f9de22fd8aa6344"),
]
PINNED_IDS = [
    "C3+9K2-s0", "C3+9K2-s1", "C8+8K2", "K1,16", "C16", "P4+P3+P2",
    "6K2", "P6", "C3+29K2", "C16+16K2", "96K2", "P3+38K2", "K1,3+4P3+K2",
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "h",
        [
            path_graph(5),
            k2s(8),
            disjoint_union(path_graph(2), k2s(4)),
            disjoint_union(cycle_graph(3), k2s(4)),
        ],
    )
    def test_same_seed_same_bytes(self, h):
        a = certificate_to_text(solve(h, seed=11))
        b = certificate_to_text(solve(h, seed=11))
        assert a == b

    @pytest.mark.parametrize(
        "h, seed, digest, format_1_digest", PINNED, ids=PINNED_IDS
    )
    def test_pinned_bytes(self, h, seed, digest, format_1_digest):
        cert = solve(h, seed=seed)
        text = certificate_to_text(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        text = _dumps_text(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == format_1_digest

    def test_bytes_do_not_depend_on_the_hash_seed(self, run_python):
        # the pinned instances solved under two string hash seeds: no set
        # or dict order that the hash seed moves may reach the bytes
        cases = [(h, seed) for h, seed, _, _ in PINNED]
        code = f"""
            import hashlib
            from rainbow_hcd.files import certificate_to_text
            from rainbow_hcd.solver import solve

            for h, seed in {cases!r}:
                text = certificate_to_text(solve(h, seed=seed))
                print(hashlib.sha256(text.encode()).hexdigest())
        """
        digests = [run_python(code, PYTHONHASHSEED=str(hs)) for hs in (0, 1)]
        assert digests[0] == digests[1] == [digest for _, _, digest, _ in PINNED]


def partitions(n, largest=None):
    """Every multiset of positive parts summing to n, parts descending."""
    if n == 0:
        yield []
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


class TestHubLinearForest:
    @pytest.mark.parametrize("n", range(6, 17))
    def test_every_path_length_multiset(self, n):
        for lengths in partitions(n):
            h = disjoint_union(*[path_graph(m) for m in lengths])
            cert = solve(h, seed=0)
            rep = verify_certificate(cert)
            assert rep.ok, (lengths, rep.lines())
            tag = "all-k2" if max(lengths) == 1 else "linear-forest"
            assert cert.trace[0] == f"route: {tag}"
            index = {e: i for i, e in enumerate(h)}
            paths = analyze_linear_forest(h, range(len(cert.label_map))).paths
            c = 0
            for path in paths:
                for k, (a, b) in enumerate(zip(path, path[1:])):
                    assert cert.assignment[index[edge(a, b)]] == c + k, lengths
                c += len(path) - 1

    @pytest.mark.parametrize(
        "h, tag",
        [
            (disjoint_union(path_graph(2), k2s(38)), "linear-forest"),
            (k2s(96), "all-k2"),
        ],
        ids=["P3+38K2", "96K2"],
    )
    def test_former_search_failures(self, h, tag):
        cert = solve(h, seed=0)
        assert cert.trace[0] == f"route: {tag}"
        assert verify_certificate(cert).ok

    @pytest.mark.parametrize(
        "h, tag",
        [
            (k2s(8), "all-k2"),
            (path_graph(9), "linear-forest"),
            (star_graph(4), "base-small"),
            (disjoint_union(cycle_graph(3), k2s(5)), "pipeline"),
        ],
        ids=["8K2", "P10", "K1,4", "C3+5K2"],
    )
    def test_cycles_laid_on_the_final_hosts(self, monkeypatch, h, tag):
        # no relabelling after the construction: the hub route applies its
        # host map as the cycles are built, base-small plants vertex i on
        # host i, and a pipeline whose layout already puts vertex i on
        # host i (C3 first, then the single edges) has nothing to move
        def no_relabel(*args):
            raise AssertionError("relabel_decomposition called")

        monkeypatch.setattr(solver, "relabel_decomposition", no_relabel)
        cert = solve(h, seed=0)
        assert cert.trace[0] == f"route: {tag}"
        assert verify_certificate(cert).ok

    # K_{1,3} + 4P3 + K2 has a dense part of r = 16 >= n + 2 vertices, so
    # the embed recurses and moves the child's classes onto its hosts by
    # complete_perm
    @pytest.mark.parametrize(
        "module, h",
        [(solver, k2s(8)),
         (embed_dense, disjoint_union(star_graph(3), *[path_graph(2)] * 4, k2s(1)))],
        ids=["hub-8K2", "recursive-embed-K1,3+4P3+K2"],
    )
    def test_host_map_that_is_no_bijection_is_caught(self, monkeypatch, module, h):
        real = module.complete_perm

        def two_to_one(partial, order):
            perm = real(partial, order)
            perm[0] = perm[1]
            return perm

        monkeypatch.setattr(module, "complete_perm", two_to_one)
        with pytest.raises(InvariantViolation, match="not a bijection"):
            solve(h, seed=0)


def timed_solve(h, bound, what):
    """Solve h at seed 0, verify the certificate and return it: the solve
    must take under bound seconds, or the gate fails naming what."""
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < bound, f"{what} took {dt:.1f}s"
    return cert


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(path_graph(2), k2s(254)), k2s(256)],
    ids=["P3+254K2", "256K2"],
)
def test_hub_scale_gate(h):
    timed_solve(h, 5, f"{len(h)}-edge linear forest")


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [star_graph(128), cycle_graph(128)], ids=["K1,128", "C128"]
)
def test_dense_scale_gate(h):
    # no attach round: the dense embed and the Hilton completion do the work
    timed_solve(h, 5, f"{len(h)}-edge dense instance")


@pytest.mark.slow
@pytest.mark.parametrize("h", [star_graph(256)], ids=["K1,256"])
def test_dense_scale_gate_n256(h):
    # the recursive embed, then 503 Hilton steps to K_513; the solve took
    # 2.4 to 3.0 s on a 2-core machine with Python 3.11, and the bound is
    # three times the longer time
    timed_solve(h, 9, f"{len(h)}-edge dense instance")


def random_general(count, seed):
    """count distinct edges sampled from K_v, v drawn from 12..2count+1,
    the orders an instance with count edges may have (count <= 66)."""
    rng = random.Random(seed)
    v = rng.randint(12, 2 * count + 1)
    return sorted(rng.sample(list(itertools.combinations(range(v), 2)), count))


@pytest.mark.slow
@pytest.mark.parametrize(
    "h, tag",
    [(path_graph(64), "linear-forest"),
     (random_general(64, 0), "pipeline"),
     (random_general(64, 1), "pipeline")],
    ids=["P65", "random64-s0", "random64-s1"],
)
def test_n64_scale_gate(h, tag):
    # P65 lays its paths by formula; random64-s0 (120 vertices) runs 7
    # attach rounds, random64-s1 (29 vertices) none
    cert = timed_solve(h, 5, f"{len(h)}-edge instance")
    assert cert.trace[0] == f"route: {tag}"


@pytest.mark.slow
def test_sparse_scale_gate():
    # C3 + 29K2 runs 29 attach rounds, each solving one slot flow
    h = disjoint_union(cycle_graph(3), k2s(29))
    timed_solve(h, 20, "C3+29K2")


@pytest.mark.slow
@pytest.mark.parametrize(
    "h",
    [disjoint_union(cycle_graph(3), k2s(61)),
     disjoint_union(cycle_graph(32), k2s(32))],
    ids=["C3+61K2", "C32+32K2"],
)
def test_sparse_scale_gate_n64(h):
    # 61 and 32 attach rounds, then the Hilton completion to K_129
    timed_solve(h, 10, f"{len(h)}-edge sparse instance")


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(cycle_graph(3), k2s(125))], ids=["C3+125K2"]
)
def test_sparse_scale_gate_n128(h):
    # 125 attach rounds, then the Hilton completion to K_257
    timed_solve(h, 25, f"{len(h)}-edge sparse instance")


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(cycle_graph(3), k2s(253))], ids=["C3+253K2"]
)
def test_sparse_scale_gate_n256(h):
    # 253 attach rounds, then the Hilton completion to K_513; the solve
    # took about 5 s on a 2-core machine with Python 3.11, and the bound is
    # three times that
    timed_solve(h, 15, f"{len(h)}-edge sparse instance")


def p3_heavy_instances(count, seed):
    """count pipeline instances of n = 6..64 edges: a K_{1,3} or a C3,
    then parts drawn four times in five a P3, else one of P4, C3, K_{1,3},
    K_{1,4} and K2, each kept if it fits in n.  A P3 brings 3 vertices
    for 2 edges, so most instances reach case 2 of the recursive embed."""
    rng = random.Random(seed)
    others = [path_graph(3), cycle_graph(3), star_graph(3), star_graph(4),
              path_graph(1)]
    out = []
    for _ in range(count):
        n = rng.randint(6, 64)
        parts = [rng.choice([star_graph(3), cycle_graph(3)])]
        size = len(parts[0])
        while size < n:
            part = path_graph(2) if rng.random() < 0.8 else rng.choice(others)
            if size + len(part) <= n:
                parts.append(part)
                size += len(part)
        out.append(disjoint_union(*parts))
    return out


@pytest.mark.slow
def test_p3_heavy_sweep(monkeypatch):
    # 200 instances, solved at seeds 0 and 1 in turn: 144 reach case 2 of
    # the recursive embed, 26 sit at its last case-1 order r = (4n-1)//3
    # and 24 one above it, and 227 attach rounds run.  The sweep took
    # 6.1 s on a 2-core machine with Python 3.11; the bound is five times
    # that.  The digest of the concatenated certificate texts pins every
    # byte; a change that moves it says why in CHANGES.md.  Every embed
    # exit's scan is checked against view_scan
    scans = scans_checked(monkeypatch)
    counts = Counter()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for i, h in enumerate(p3_heavy_instances(200, 0)):
        n = len(h)
        cert = solve(h, seed=i % 2)
        rep = verify_certificate(cert)
        assert rep.ok, "\n".join(rep.lines())
        digest.update(certificate_to_text(cert).encode())
        counts[cert.trace[0]] += 1
        for line in cert.trace:
            if line.startswith("attach:"):
                counts["round"] += 1
            if line.startswith("embed:") and "case=" in line:
                r = int(line.split()[1][2:])
                counts[line[-6:]] += 1
                counts[r - (4 * n - 1) // 3] += 1
    dt = time.perf_counter() - t0
    assert dt < 30, f"the sweep took {dt:.1f}s"
    assert counts["route: pipeline"] == 200
    assert (counts["case=2"], counts[0], counts[1], counts["round"]) == (
        144, 26, 24, 227
    )
    assert len(scans) >= 200
    assert digest.hexdigest() == (
        "c445f3cc066982bbbbe386be4bfde50d5128d5c9d519d16fb3b30767c54d9561"
    )


class TestOracleAgreement:
    def test_solver_assignment_is_completable(self):
        # force the oracle to use the solver's classes for the planted edges
        h = path_graph(3)
        cert = solve(h, seed=4)
        out = exhaustive_rainbow_hcd(h, 3, precoloring=list(cert.assignment))
        assert out.status == "found"
