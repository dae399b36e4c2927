import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import rainbow_hcd
from rainbow_hcd.errors import InfeasibleInput
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from rainbow_hcd.files import certificate_to_text
from rainbow_hcd.graph_core import analyze_linear_forest, edge, verify_certificate
from rainbow_hcd.oracle import exhaustive_rainbow_hcd
from rainbow_hcd.solver import (
    ComponentSplit,
    Strategy,
    relabel_hosts,
    route,
    solve,
    split_components,
)


def k2s(count):
    return disjoint_union(*[path_graph(1)] * count)


class TestPipelineChecks:
    def test_checks_raise_under_optimize(self):
        # the pipeline's own checks and the closing check of
        # analyze_linear_forest raise, also under python -O, where asserts
        # are stripped
        code = textwrap.dedent("""
            from rainbow_hcd import graph_core, solver
            from rainbow_hcd.errors import InvariantViolation
            from rainbow_hcd.families import star_graph

            def probe(run):
                try:
                    run()
                except InvariantViolation as exc:
                    print(exc)
                else:
                    print("no error")

            print(__debug__)
            # P3 + K2: two thick edges, too few for the pipeline
            h = [(0, 1), (1, 2), (3, 4)]
            probe(lambda: solver._main_pipeline(
                h, solver.split_components(h), 3, 0))
            # an embed that asks for a recursive instance of the full size
            solver.embed_dense = (
                lambda edges, n, recurse, seed, trace: recurse(edges, n, seed))
            h = star_graph(6)
            probe(lambda: solver._main_pipeline(
                h, solver.split_components(h), 6, 0))
            # a view whose paths miss an edge
            graph_core.LinearForestView.edge_count = property(lambda v: 0)
            probe(lambda: graph_core.analyze_linear_forest([(0, 1)], range(2)))
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
        assert "t=2" in lines[1]
        assert "recursive instance of size 6" in lines[2]
        assert "paths hold 0 of 1 edges" in lines[3]


class TestSplitComponents:
    def test_mixed_instance(self):
        h = disjoint_union(cycle_graph(3), path_graph(1), path_graph(1))
        split = split_components(h)
        assert split.thick_idx == [[0, 1, 2]]
        assert split.k2_idx == [3, 4]
        assert split.t == 3
        assert split.k2_count == 2

    def test_all_single_edges(self):
        split = split_components(k2s(4))
        assert split.thick_idx == []
        assert split.k2_idx == [0, 1, 2, 3]

    def test_component_order_follows_smallest_vertex(self):
        h = [edge(5, 6), edge(0, 1), edge(1, 2), edge(6, 7)]
        split = split_components(h)
        assert split.thick_idx == [[1, 2], [0, 3]]


class TestRoute:
    def test_small_instances_always_base(self):
        for h in (path_graph(5), disjoint_union(cycle_graph(3), k2s(2))):
            split = split_components(h)
            assert route(split, h, len(h)) is Strategy.BASE_SMALL

    def test_matching_route(self):
        h = k2s(7)
        assert route(split_components(h), h, 7) is Strategy.ALL_K2

    def test_linear_forest_route(self):
        h = disjoint_union(path_graph(2), k2s(4))
        assert route(split_components(h), h, 6) is Strategy.LINEAR_FOREST

    def test_pipeline_route_cycle(self):
        h = disjoint_union(cycle_graph(3), k2s(3))
        assert route(split_components(h), h, 6) is Strategy.MAIN_PIPELINE

    def test_pipeline_route_high_degree(self):
        h = disjoint_union(star_graph(3), k2s(3))
        assert route(split_components(h), h, 6) is Strategy.MAIN_PIPELINE

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

    # sha256 of the certificate text; a change that moves any of these
    # bytes updates the digest and says why in CHANGES.md
    @pytest.mark.parametrize(
        "h, seed, digest",
        [
            (disjoint_union(cycle_graph(3), k2s(9)), 0,
             "3f59213f9ed6fcf85cee625c0c6f5bcac8e3c8f530c2529fa1906da84b5b7180"),
            (disjoint_union(cycle_graph(3), k2s(9)), 1,
             "ec154af7f286c77daeb9120aaededbdb12154e3db327720832d247778b89c3a4"),
            (disjoint_union(cycle_graph(8), k2s(8)), 0,
             "bc850bec2fb89f353d5f4b48ead96bca72067afd8e24c9b872ae4d3e5d102588"),
            (star_graph(16), 0,
             "47568318479aa54ad0ef26dff4576b675b6b835b36c942c645b4ec4547c88cdf"),
            (cycle_graph(16), 0,
             "51558dfdf3a938fb17c257b23aa44c53a41471cccec5c5c10e0fcfc3b0fb993e"),
            (disjoint_union(path_graph(3), path_graph(2), path_graph(1)), 0,
             "adfcbeb433ea379741327fd399d1eea6655c80e4643534c835a3afabf48bf4d1"),
            (k2s(6), 0,
             "11a3b4cd1fd2f039bd38768514c71ce38b48f01d171f90008933aa79bbed15c6"),
            (path_graph(5), 0,
             "ea668b366f70d9ee8efee36bf8d2c1097d177863333e0f1af62d6717bcbb7b78"),
            # 29 and 16 attach rounds
            (disjoint_union(cycle_graph(3), k2s(29)), 0,
             "9de0212da9956be72bb6c45da48d82b99a00b1c2dde8c1739a2a41cf4aaf6a1f"),
            (disjoint_union(cycle_graph(16), k2s(16)), 0,
             "db55e2081528cf5d9f16aa89ba75bd05de55dd12b548231e264851fc23f4a654"),
        ],
        ids=[
            "C3+9K2-s0", "C3+9K2-s1", "C8+8K2", "K1,16", "C16", "P4+P3+P2",
            "6K2", "P6", "C3+29K2", "C16+16K2",
        ],
    )
    def test_pinned_bytes(self, h, seed, digest):
        text = certificate_to_text(solve(h, seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(path_graph(2), k2s(254)), k2s(256)],
    ids=["P3+254K2", "256K2"],
)
def test_hub_scale_gate(h):
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 5, f"{len(h)}-edge linear forest took {dt:.1f}s"


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [star_graph(128), cycle_graph(128)], ids=["K1,128", "C128"]
)
def test_dense_scale_gate(h):
    # no attach round: the dense embed and the Hilton completion do the work
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 5, f"{len(h)}-edge dense instance took {dt:.1f}s"


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
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    assert cert.trace[0] == f"route: {tag}"
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 5, f"{len(h)}-edge instance took {dt:.1f}s"


@pytest.mark.slow
def test_sparse_scale_gate():
    # C3 + 29K2 runs 29 attach rounds, each solving one slot flow
    h = disjoint_union(cycle_graph(3), k2s(29))
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 20, f"C3+29K2 took {dt:.1f}s"


@pytest.mark.slow
@pytest.mark.parametrize(
    "h",
    [disjoint_union(cycle_graph(3), k2s(61)),
     disjoint_union(cycle_graph(32), k2s(32))],
    ids=["C3+61K2", "C32+32K2"],
)
def test_sparse_scale_gate_n64(h):
    # 61 and 32 attach rounds, then the Hilton completion to K_129
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 10, f"{len(h)}-edge sparse instance took {dt:.1f}s"


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(cycle_graph(3), k2s(125))], ids=["C3+125K2"]
)
def test_sparse_scale_gate_n128(h):
    # 125 attach rounds, then the Hilton completion to K_257
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 25, f"{len(h)}-edge sparse instance took {dt:.1f}s"


@pytest.mark.slow
@pytest.mark.parametrize(
    "h", [disjoint_union(cycle_graph(3), k2s(253))], ids=["C3+253K2"]
)
def test_sparse_scale_gate_n256(h):
    # 253 attach rounds, then the Hilton completion to K_513; the solve
    # took about 5 s on a 2-core machine with Python 3.11, and the bound is
    # three times that
    t0 = time.perf_counter()
    cert = solve(h, seed=0)
    dt = time.perf_counter() - t0
    rep = verify_certificate(cert)
    assert rep.ok, "\n".join(rep.lines())
    assert dt < 15, f"{len(h)}-edge sparse instance took {dt:.1f}s"


class TestOracleAgreement:
    def test_solver_assignment_is_completable(self):
        # force the oracle to use the solver's classes for the planted edges
        h = path_graph(3)
        cert = solve(h, seed=4)
        out = exhaustive_rainbow_hcd(h, 3, precoloring=list(cert.assignment))
        assert out.status == "found"
