import hashlib
import time

import pytest

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
             "24b448b638b3b7f475a80e518a9c098ce18977e5989bc106d86af370e68c34e0"),
            (disjoint_union(cycle_graph(3), k2s(9)), 1,
             "4af9a625622051881ad504c42641702d952ff89b56b865ce624eb80dbe1dc936"),
            (disjoint_union(cycle_graph(8), k2s(8)), 0,
             "c8ea68484da11544fe700331c20e70021c4b305d64520f0420bbe6528c05109c"),
            (star_graph(16), 0,
             "80ed628d7c08cb9f955f49472e6cec176835b91ed4da81023012aed387eb6eb8"),
            (cycle_graph(16), 0,
             "b82bf9c619bed031b8827b54945013c4f7f5d00971cddf7dd92e18529b5461ff"),
            (disjoint_union(path_graph(3), path_graph(2), path_graph(1)), 0,
             "adfcbeb433ea379741327fd399d1eea6655c80e4643534c835a3afabf48bf4d1"),
            (k2s(6), 0,
             "11a3b4cd1fd2f039bd38768514c71ce38b48f01d171f90008933aa79bbed15c6"),
            (path_graph(5), 0,
             "ea668b366f70d9ee8efee36bf8d2c1097d177863333e0f1af62d6717bcbb7b78"),
        ],
        ids=[
            "C3+9K2-s0", "C3+9K2-s1", "C8+8K2", "K1,16", "C16", "P4+P3+P2",
            "6K2", "P6",
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
    assert dt < 12, f"{len(h)}-edge dense instance took {dt:.1f}s"


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


class TestOracleAgreement:
    def test_solver_assignment_is_completable(self):
        # force the oracle to use the solver's classes for the planted edges
        h = path_graph(3)
        cert = solve(h, seed=4)
        out = exhaustive_rainbow_hcd(h, 3, precoloring=list(cert.assignment))
        assert out.status == "found"
