import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_hcd.errors import InvariantViolation, NotLinearForest
from rainbow_hcd.graph_core import (
    Decomposition,
    RainbowCertificate,
    analyze_linear_forest,
    complete_edges,
    component_edge_groups,
    edge,
    is_hamiltonian_cycle,
    relabel_decomposition,
    verify_certificate,
    walecki,
)


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
