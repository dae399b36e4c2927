"""Core graph objects: edges, decompositions, linear forests, certificates.

Vertices are integers.  Decompositions always live on the dense vertex set
0..order-1.  Input graphs may use arbitrary integer labels; the solver
records the embedding in the certificate's label map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvariantViolation, NotLinearForest

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge with endpoints in increasing order."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def complete_edges(order: int) -> list[Edge]:
    """All edges of the complete graph on vertices 0..order-1."""
    return [(u, v) for u in range(order) for v in range(u + 1, order)]


def edge_vertices(edges: Iterable[Edge]) -> list[int]:
    """Sorted list of vertices incident to at least one edge."""
    vs: set[int] = set()
    for u, v in edges:
        vs.add(u)
        vs.add(v)
    return sorted(vs)


def component_edge_groups(edges: list[Edge]) -> list[list[int]]:
    """Edge indices grouped by connected component, each group ascending,
    groups ordered by their smallest vertex."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    comp_of: dict[int, int] = {}
    comps = 0
    for start in sorted(adj):
        if start in comp_of:
            continue
        stack = [start]
        comp_of[start] = comps
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in comp_of:
                    comp_of[w] = comps
                    stack.append(w)
        comps += 1
    groups: list[list[int]] = [[] for _ in range(comps)]
    for i, (u, _) in enumerate(edges):
        groups[comp_of[u]].append(i)
    return groups


def is_hamiltonian_cycle(edges: Iterable[Edge], order: int) -> bool:
    """True when the edge set is a single cycle through all of 0..order-1."""
    es = set(edges)
    if order < 3 or len(es) != order:
        return False
    adj: dict[int, list[int]] = {v: [] for v in range(order)}
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
        if seen > order:  # unreachable with degrees two, guards bad input
            return False


@dataclass
class Decomposition:
    """Disjoint edge classes meant to partition K_order on 0..order-1.

    Mutable on purpose: the completion stages grow the vertex set and the
    classes in place.  Call check_partition or check_hcd to validate.
    """

    order: int
    classes: list[set[Edge]]

    def check_partition(self) -> None:
        seen: set[Edge] = set()
        total = 0
        for i, cls in enumerate(self.classes):
            for e in cls:
                u, v = e
                if not (0 <= u < v < self.order):
                    raise InvariantViolation(f"class {i}: edge {e} out of range")
                if e in seen:
                    raise InvariantViolation(f"edge {e} appears in two classes")
                seen.add(e)
            total += len(cls)
        want = self.order * (self.order - 1) // 2
        if total != want:
            raise InvariantViolation(f"{total} edges in classes, expected {want}")

    def check_hcd(self) -> None:
        """Partition check plus one Hamiltonian cycle per class."""
        self.check_partition()
        for i, cls in enumerate(self.classes):
            if not is_hamiltonian_cycle(cls, self.order):
                raise InvariantViolation(f"class {i} is not a Hamiltonian cycle")

    def copy(self) -> Decomposition:
        return Decomposition(self.order, [set(c) for c in self.classes])


def relabel_decomposition(dec: Decomposition, perm: dict[int, int]) -> Decomposition:
    """Apply a bijection of 0..order-1 to every vertex of every class."""
    if sorted(perm) != list(range(dec.order)) or sorted(perm.values()) != list(
        range(dec.order)
    ):
        raise InvariantViolation("relabel map is not a bijection on 0..order-1")
    return Decomposition(
        dec.order,
        [{edge(perm[u], perm[v]) for u, v in cls} for cls in dec.classes],
    )


@dataclass(frozen=True)
class LinearForestView:
    """Structure of a linear forest over a fixed vertex set.

    paths: vertex sequences of length >= 2, each listed from its lower
        endpoint, ordered by that endpoint.
    isolated: degree-zero vertices, ascending.
    """

    paths: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(len(p) - 1 for p in self.paths)

    @property
    def endpoints(self) -> list[int]:
        """Path endpoints, ascending.  Isolated vertices are not included."""
        return sorted(v for p in self.paths for v in (p[0], p[-1]))

    @property
    def interior(self) -> list[int]:
        """Vertices of degree two, ascending."""
        return sorted(v for p in self.paths for v in p[1:-1])


def analyze_linear_forest(
    edges: Iterable[Edge], vertices: Iterable[int]
) -> LinearForestView:
    """Split an edge set over the given vertices into paths plus isolated
    vertices, or raise NotLinearForest.

    Rejects loops, repeated edges, edges leaving the vertex set, any vertex
    of degree above two, and cycles.
    """
    vs = sorted(set(vertices))
    vset = set(vs)
    adj: dict[int, list[int]] = {v: [] for v in vs}
    seen_e: set[Edge] = set()
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
    visited: set[int] = set()
    paths: list[tuple[int, ...]] = []
    isolated: list[int] = []
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
        raise NotLinearForest("edge set contains a cycle")
    view = LinearForestView(tuple(paths), tuple(isolated))
    if view.edge_count != len(seen_e):
        raise InvariantViolation(
            f"paths hold {view.edge_count} of {len(seen_e)} edges"
        )
    return view


def walecki(n: int) -> Decomposition:
    """Decomposition of K_{2n+1} into n Hamiltonian cycles.

    Vertex 2n is the hub.  Class j is the hub closed over the zig-zag path
    0, 1, 2n-1, 2, 2n-2, ... rotated by j among the non-hub vertices.
    Not re-checked per call: the tests check it for n = 1..128, and solve
    verifies every certificate built on it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = 2 * n
    zig = [0] * m
    for i in range(1, m):
        zig[i] = (i + 1) // 2 if i % 2 else m - i // 2
    classes: list[set[Edge]] = []
    for j in range(n):
        path = [(z + j) % m for z in zig]
        cls = {edge(m, path[0]), edge(m, path[-1])}
        cls.update(edge(a, b) for a, b in zip(path, path[1:]))
        classes.append(cls)
    return Decomposition(m + 1, classes)


@dataclass
class RainbowCertificate:
    """Full witness that a graph sits rainbow inside a Hamiltonian cycle
    decomposition of K_{2n+1}.

    h_edges: the input graph in its own labels, normalized endpoint order.
    label_map: input vertex -> host vertex in 0..2n.
    assignment: class index (0 based) per input edge, parallel to h_edges.
    """

    n: int
    seed: int
    h_edges: list[Edge]
    label_map: dict[int, int]
    assignment: list[int]
    decomposition: Decomposition
    trace: list[str] = field(default_factory=list)

    @property
    def order(self) -> int:
        return 2 * self.n + 1


@dataclass
class VerificationReport:
    """Outcome of each certificate check, in a fixed order."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))

    def lines(self) -> list[str]:
        out = []
        for name, passed, detail in self.checks:
            mark = "ok" if passed else "FAIL"
            out.append(f"{name}: {mark}" + (f" ({detail})" if detail else ""))
        return out


def verify_certificate(cert: RainbowCertificate) -> VerificationReport:
    """Re-check a certificate from scratch.  Never raises on bad content."""
    rep = VerificationReport()
    dec = cert.decomposition

    shape_ok = cert.n >= 1 and dec.order == cert.order and len(dec.classes) == cert.n
    rep.add(
        "shape",
        shape_ok,
        f"n={cert.n} order={dec.order} classes={len(dec.classes)}",
    )
    if not shape_ok:
        return rep

    try:
        dec.check_partition()
        rep.add("partition", True, f"{dec.order * (dec.order - 1) // 2} edges")
    except InvariantViolation as exc:
        rep.add("partition", False, str(exc))
        return rep

    bad = [i for i, c in enumerate(dec.classes) if not is_hamiltonian_cycle(c, dec.order)]
    rep.add(
        "hamiltonian",
        not bad,
        "all classes are Hamiltonian cycles" if not bad else f"bad classes {bad}",
    )

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
