"""Core graph objects: edges, decompositions, linear forests, certificates.

Vertices are integers.  Decompositions always live on the dense vertex set
0..order-1.  Input graphs may use arbitrary integer labels; the solver
records the embedding in the certificate's label map.  One pass over each
class's edges (_prove) proves both the partition and the Hamiltonian
cycles, for verify_certificate, check_hcd and is_hamiltonian_cycle alike.
The hub construction is built on any host map (_walecki_on), so the hub
route lays its cycles straight on their final hosts.  Every host map the
solver builds is completed from the vertices it places by complete_perm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
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
    """True when the edge set is a single cycle through all of 0..order-1,
    each edge listed as (u, v) with 0 <= u < v < order: the one-class
    case of the certificate proof, _prove."""
    return _prove(order, [set(edges)])[1] == []


def cycle_edges(cycle: list[int]) -> set[Edge]:
    """The edges of the closed walk through cycle, each as (low, high)."""
    return {(a, b) if a < b else (b, a) for a, b in zip(cycle, cycle[1:] + cycle[:1])}


def _prove(order: int, classes: list[set[Edge]]) -> tuple[str, list[int] | None]:
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


@dataclass
class Decomposition:
    """Disjoint edge classes meant to partition K_order on 0..order-1.

    Mutable on purpose: the completion stages grow the vertex set and the
    classes in place.  check_hcd validates with one _prove pass;
    check_partition raises only on its partition half.
    """

    order: int
    classes: list[set[Edge]]

    def check_partition(self) -> None:
        """Raise InvariantViolation at the first edge, class by class, that
        leaves 0..order-1 or lies in an earlier class, or else when the
        classes do not hold every edge (the partition half of _prove)."""
        error, _ = _prove(self.order, self.classes)
        if error:
            raise InvariantViolation(error)

    def check_hcd(self) -> None:
        """Partition check plus one Hamiltonian cycle per class, both from
        one _prove pass; InvariantViolation names the first failure."""
        error, bad = _prove(self.order, self.classes)
        if error:
            raise InvariantViolation(error)
        if bad:
            raise InvariantViolation(f"class {bad[0]} is not a Hamiltonian cycle")

    def copy(self) -> Decomposition:
        return Decomposition(self.order, [set(c) for c in self.classes])


def _as_list(perm: dict[int, int], order: int) -> list[int]:
    """perm as the list of its values over 0..order-1, or
    InvariantViolation unless it is a bijection on 0..order-1."""
    p = [perm.get(v, -1) for v in range(order)]
    if len(perm) != order or sorted(p) != list(range(order)):
        raise InvariantViolation("relabel map is not a bijection on 0..order-1")
    return p


def complete_perm(partial: dict[int, int], order: int) -> dict[int, int]:
    """partial, an injective map on 0..order-1, extended to a bijection:
    the unmapped keys, ascending, go to the unused values, ascending.
    Not checked here; relabel_decomposition and _walecki_on refuse a map
    that is no bijection."""
    used = set(partial.values())
    perm = dict(partial)
    perm.update(zip(
        (v for v in range(order) if v not in partial),
        (v for v in range(order) if v not in used),
    ))
    return perm


def relabel_decomposition(dec: Decomposition, perm: dict[int, int]) -> Decomposition:
    """Apply a bijection of 0..order-1 to every vertex of every class."""
    p = _as_list(perm, dec.order)
    return Decomposition(
        dec.order,
        [
            {(p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in cls}
            for cls in dec.classes
        ],
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
    vertex's position x in the sorted vertex list, first[x] and second[x]
    (-1 where empty).  A vertex with its second slot empty is isolated or
    a path end, and each path is walked from its lower end by taking, at
    each vertex, the slot that does not lead back; a vertex no walk
    reaches lies on a cycle.  Once the walks and the isolated vertices
    cover every vertex, every edge lies on a walked path.
    """
    vs = sorted(set(vertices))
    pos = dict(zip(vs, range(len(vs))))
    first = [-1] * len(vs)
    second = [-1] * len(vs)
    for u, v in edges:
        if u == v:
            raise NotLinearForest(f"loop at vertex {u}")
        try:
            x = pos[u]
            y = pos[v]
        except KeyError:
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
    return LinearForestView(tuple(paths), tuple(isolated))


def walecki(n: int) -> Decomposition:
    """Decomposition of K_{2n+1} into n Hamiltonian cycles.

    Vertex 2n is the hub.  Class j is the hub closed over the zig-zag path
    0, 1, 2n-1, 2, 2n-2, ... rotated by j among the non-hub vertices.
    Not re-checked per call: the tests check it for n = 1..128, and solve
    verifies every certificate built on it.  The identity case of
    _walecki_on.
    """
    return _walecki_on(n, {v: v for v in range(2 * n + 1)})


def _walecki_on(n: int, perm: dict[int, int]) -> Decomposition:
    """walecki(n) with each vertex v laid on host perm[v]: the cycles are
    built on the hosts, not relabelled after.  perm must be a bijection
    on 0..2n, else InvariantViolation."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = 2 * n
    p = _as_list(perm, m + 1)
    # the zig-zag 0, 1, -1, 2, -2, ... mod 2n, read off the ring
    # p[j:m] + p[:j] that holds at z the host of vertex (z + j) mod 2n
    zig = itemgetter(*[((i + 1) // 2 if i % 2 else -(i // 2)) % m for i in range(m)])
    return Decomposition(
        m + 1, [cycle_edges([p[m], *zig(p[j:m] + p[:j])]) for j in range(n)]
    )


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
    """Re-check a certificate from scratch.  Never raises on bad content.
    One _prove pass gives the partition check (the first error ends the
    report) and the classes that are no Hamiltonian cycle."""
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

    error, bad = _prove(dec.order, dec.classes)
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
