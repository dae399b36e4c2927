"""Core graph objects: edges, decompositions, linear forests, certificates.

Vertices are integers.  Decompositions always live on the dense vertex set
0..order-1.  Input graphs may use arbitrary integer labels; the solver
records the embedding in the certificate's label map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from operator import lt
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


def _two_slots(
    edges: Iterable[Edge], pos: dict[int, int] | list[int], k: int
) -> tuple[list[int], list[int]]:
    """Two neighbour slots per vertex, in lists indexed by the vertex's
    position 0..k-1: first[x] and second[x] hold the positions of the
    neighbours of the vertex at x in the order their edges came, -1 where
    there is none.  pos[v] is the position of vertex v and raises
    LookupError for any other v: a dict, or list(range(k)) when the
    caller has kept negative ends out.  Raises NotLinearForest at the
    first edge that is a loop, leaves the vertices, repeats an edge or
    gives a vertex a third one, tested in that order."""
    first = [-1] * k
    second = [-1] * k
    for u, v in edges:
        if u == v:
            raise NotLinearForest(f"loop at vertex {u}")
        try:
            x = pos[u]
            y = pos[v]
        except LookupError:
            raise NotLinearForest(f"edge {edge(u, v)} leaves the vertex set") from None
        a = first[x]
        if a < 0:
            first[x] = y
        elif a != y and second[x] < 0:
            second[x] = y
        else:
            # both ends of an edge fill a slot together, so a repeat
            # shows at x
            if a == y or second[x] == y:
                raise NotLinearForest(f"repeated edge {edge(u, v)}")
            raise NotLinearForest(f"degree above two at edge {edge(u, v)}")
        if first[y] < 0:
            first[y] = x
        elif second[y] < 0:
            second[y] = x
        else:
            raise NotLinearForest(f"degree above two at edge {edge(u, v)}")
    return first, second


def is_hamiltonian_cycle(edges: Iterable[Edge], order: int) -> bool:
    """True when the edge set is a single cycle through all of 0..order-1.

    Each edge must be listed as (u, v) with 0 <= u < v < order.  The edges
    fill two neighbour slots per vertex (_two_slots, the builder
    analyze_linear_forest uses, with each vertex its own position), and
    the cycle is walked from vertex 0 by taking, at each vertex, the slot
    that does not lead back."""
    es = set(edges)
    if order < 3 or len(es) != order:
        return False
    # u < v in every edge and the least u is not negative, so each end
    # indexes its own position in list(range(order)) or raises IndexError
    if not all(starmap(lt, es)) or min(es)[0] < 0:
        return False
    try:
        first, second = _two_slots(es, list(range(order)), order)
    except NotLinearForest:  # a third edge at a vertex, or a stray one
        return False
    if -1 in second:  # with order edges, no degree above two means none below
        return False
    prev, cur = -1, 0
    for seen in range(1, order + 1):
        nxt = second[cur] if first[cur] == prev else first[cur]
        if nxt == 0:
            return seen == order
        prev, cur = cur, nxt
    return False  # unreachable with degrees two, guards bad input


@dataclass
class Decomposition:
    """Disjoint edge classes meant to partition K_order on 0..order-1.

    Mutable on purpose: the completion stages grow the vertex set and the
    classes in place.  Call check_partition or check_hcd to validate.
    """

    order: int
    classes: list[set[Edge]]

    def check_partition(self) -> None:
        """Raise InvariantViolation at the first edge, class by class, that
        leaves 0..order-1 or lies in an earlier class, or else when the
        classes do not hold every edge.  Each vertex keeps the set of
        higher ends seen with it, in a list indexed by the vertex."""
        order = self.order
        higher: list[set[int]] = [set() for _ in range(order)]
        total = 0
        for i, cls in enumerate(self.classes):
            for e in cls:
                u, v = e
                if not (0 <= u < v < order):
                    raise InvariantViolation(f"class {i}: edge {e} out of range")
                seen = higher[u]
                if v in seen:
                    raise InvariantViolation(f"edge {e} appears in two classes")
                seen.add(v)
            total += len(cls)
        want = order * (order - 1) // 2
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
    of degree above two, and cycles, each at the first edge that shows it.
    The edges fill two neighbour slots per vertex, in lists indexed by the
    vertex's position in the sorted vertex list (_two_slots).  A vertex
    with its second slot empty is isolated or a path end, and each path
    is walked from its lower end by taking, at each vertex, the slot that
    does not lead back; a vertex no walk reaches lies on a cycle.
    """
    vs = sorted(set(vertices))
    first, second = _two_slots(edges, dict(zip(vs, range(len(vs)))), len(vs))
    done = bytearray(len(vs))  # the far ends of the paths walked
    paths: list[tuple[int, ...]] = []
    isolated: list[int] = []
    covered = 0
    for x, a in enumerate(first):
        if second[x] >= 0 or done[x]:
            continue
        if a < 0:
            isolated.append(vs[x])
            covered += 1
            continue
        walk = [vs[x]]
        prev, cur = x, a
        while cur >= 0:
            walk.append(vs[cur])
            prev, cur = cur, (second[cur] if first[cur] == prev else first[cur])
        done[prev] = 1
        paths.append(tuple(walk))
        covered += len(walk)
    if covered != len(vs):
        on_path = {v for p in paths for v in p}
        x = next(x for x, v in enumerate(vs) if second[x] >= 0 and v not in on_path)
        raise NotLinearForest(
            f"a cycle runs through edge {edge(vs[x], vs[first[x]])}"
        )
    view = LinearForestView(tuple(paths), tuple(isolated))
    count = len(vs) - (first.count(-1) + second.count(-1)) // 2
    if view.edge_count != count:
        raise InvariantViolation(f"paths hold {view.edge_count} of {count} edges")
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
