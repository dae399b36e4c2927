"""Core graph objects: edges, decompositions, linear forests, certificates.

Vertices are integers.  Decompositions always live on the dense vertex set
0..order-1.  Input graphs may use arbitrary integer labels; the solver
records the embedding in the certificate's label map.  A certificate
carries each class as its Hamiltonian cycle's vertex order, a row, in
the one canonical form canonical_row gives: from 0 toward the lower of
0's two neighbours.  slot_row reads a row off two neighbour slots per
vertex, and edge_row off an edge set through them.  One pass over the
rows (_prove_rows) proves the partition and the Hamiltonian cycles for
verify_certificate; check_hcd and is_hamiltonian_cycle walk edge sets
into rows.  Edge sets (Decomposition) remain where forests are built:
the embed stage, the hub construction walecki and the oracle.  The hub
construction is built on any host map (_walecki_on), so the hub route
lays its rows straight on their final hosts.  Every host map the solver
builds is completed from the vertices it places by complete_perm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import Collection, Iterable

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
    each edge listed as (u, v) with 0 <= u < v < order: when it walks
    into a row (edge_row)."""
    return edge_row(set(edges), order) is not None


def cycle_edges(cycle: list[int]) -> set[Edge]:
    """The edges of the closed walk through cycle, each as (low, high)."""
    return {(a, b) if a < b else (b, a) for a, b in zip(cycle, cycle[1:] + cycle[:1])}


def canonical_row(cycle: list[int]) -> list[int]:
    """The cycle through the vertices of cycle, 0 among them, as a
    certificate row: from 0 toward the lower of 0's two neighbours."""
    k = cycle.index(0)
    row = cycle[k:] + cycle[:k]
    if row[1] > row[-1]:
        row[1:] = row[:0:-1]
    return row


def slot_row(first: list[int], second: list[int]) -> list[int] | None:
    """The row of the cycle that the neighbour slots hold through 0, or
    None unless it runs through every vertex 0..len(first)-1.  Slot lists
    hold each vertex's neighbours, -1 where empty, each edge filling a
    slot at both ends.  The walk takes, at each vertex, the slot that does
    not lead back, and is bounded by the order: it stops at an empty slot
    or back at 0, and must have met order vertices when it meets 0
    again."""
    order = len(first)
    if order < 3:
        return None
    cycle = [0]
    prev, cur = 0, first[0]
    for _ in range(order - 1):
        if cur <= 0:
            return None
        cycle.append(cur)
        prev, cur = cur, (second[cur] if first[cur] == prev else first[cur])
    return canonical_row(cycle) if cur == 0 else None


def edge_row(edges: Collection[Edge], order: int) -> list[int] | None:
    """The row of edges, or None unless they are one Hamiltonian cycle of
    K_order, each edge listed once as (u, v) with 0 <= u < v < order.
    The order edges fill two neighbour slots per vertex, refusing a third
    edge at a vertex, and slot_row walks them."""
    if order < 3 or len(edges) != order:
        return None
    first = [-1] * order
    second = [-1] * order
    for u, v in edges:
        if not 0 <= u < v < order:
            return None
        for x, y in ((u, v), (v, u)):
            if first[x] < 0:
                first[x] = y
            elif second[x] < 0:
                second[x] = y
            else:
                return None
    return slot_row(first, second)


def _prove_rows(order: int, rows: list[list[int]]) -> tuple[str, list[int]]:
    """Prove that rows, lists of order integers each, are Hamiltonian
    cycles partitioning K_order.  Returns the first partition error (""
    if none) and the rows that are no permutation of 0..order-1, which
    are the classes that are no Hamiltonian cycle.

    A permutation row of order >= 3 is a Hamiltonian cycle of order
    distinct edges, so when every row is one, the rows partition K_order
    when their steps number its edges and no two steps join the same two
    vertices.  One set of keys shows that: the step between u and v, either
    way, has the key key(u) + key(v), where key(u) = big * u + u * u and
    big = 2 * order**2.  u * u + v * v < big, so the key holds u + v and
    u * u + v * v, which fix {u, v}: two keys agree exactly when their
    steps join the same two vertices.  Otherwise the edge sets of the
    rows' closed walks name the first fault (_partition_fault): an edge
    with an end out of range or a loop, an edge in an earlier class, or
    too few edges in all."""
    full = set(range(order))
    bad = [i for i, row in enumerate(rows) if set(row) != full]
    want = order * (order - 1) // 2
    if not bad and len(rows) * order == want:
        big = 2 * order * order
        key = [big * u + u * u for u in range(order)].__getitem__
        keys: set[int] = set()
        for row in rows:
            t = list(map(key, row))
            keys.update(map(add, t, t[1:]))
            keys.add(t[0] + t[-1])
        if len(keys) == want:
            return "", bad
    return _partition_fault(order, list(map(cycle_edges, rows))), bad


def _partition_fault(order: int, classes: list[set[Edge]]) -> str:
    """The first edge, class by class, that leaves 0..order-1 or lies in an
    earlier class (higher[u] holds the v seen with u), or else the edge
    count when the classes do not hold every edge of K_order; "" when
    they partition it."""
    higher: list[set[int]] = [set() for _ in range(order)]
    total = 0
    for i, cls in enumerate(classes):
        for e in cls:
            u, v = e
            if not 0 <= u < v < order:
                return f"class {i}: edge {e} out of range"
            seen = higher[u]
            if v in seen:
                return f"edge {e} appears in two classes"
            seen.add(v)
        total += len(cls)
    want = order * (order - 1) // 2
    if total != want:
        return f"{total} edges in classes, expected {want}"
    return ""


@dataclass
class Decomposition:
    """Disjoint edge classes meant to partition K_order on 0..order-1.

    Mutable on purpose: the embed stage moves edges between the classes in
    place, and ForestSplit.scan takes the result.  check_partition proves
    the partition; check_hcd also walks each class into a row.
    """

    order: int
    classes: list[set[Edge]]

    def check_partition(self) -> None:
        """Raise InvariantViolation naming the first fault _partition_fault
        finds."""
        fault = _partition_fault(self.order, self.classes)
        if fault:
            raise InvariantViolation(fault)

    def check_hcd(self) -> None:
        """Partition check plus one Hamiltonian cycle per class, each class
        walked into a row (edge_row); InvariantViolation names the first
        failure."""
        self.check_partition()
        for i, cls in enumerate(self.classes):
            if edge_row(cls, self.order) is None:
                raise InvariantViolation(f"class {i} is not a Hamiltonian cycle")

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
    Not checked here; relabel_rows and _walecki_on refuse a map that is
    no bijection."""
    used = set(partial.values())
    perm = dict(partial)
    perm.update(zip(
        (v for v in range(order) if v not in partial),
        (v for v in range(order) if v not in used),
    ))
    return perm


def relabel_rows(
    rows: list[list[int]], perm: dict[int, int], order: int
) -> list[list[int]]:
    """Apply a bijection of 0..order-1 to every vertex of every row, each
    row kept canonical."""
    p = _as_list(perm, order)
    return [canonical_row(list(map(p.__getitem__, row))) for row in rows]


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
    verifies every certificate built on it.  The edge sets of the rows
    of _walecki_on on the identity.
    """
    rows = _walecki_on(n, {v: v for v in range(2 * n + 1)})
    return Decomposition(2 * n + 1, list(map(cycle_edges, rows)))


def _walecki_on(n: int, perm: dict[int, int]) -> list[list[int]]:
    """The rows of walecki(n) with each vertex v laid on host perm[v]: the
    cycles are built on the hosts, not relabelled after.  perm must be a
    bijection on 0..2n, else InvariantViolation."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = 2 * n
    p = _as_list(perm, m + 1)
    # the zig-zag 0, 1, -1, 2, -2, ... mod 2n, read off the ring
    # p[j:m] + p[:j] that holds at z the host of vertex (z + j) mod 2n
    zig = itemgetter(*[((i + 1) // 2 if i % 2 else -(i // 2)) % m for i in range(m)])
    return [canonical_row([p[m], *zig(p[j:m] + p[:j])]) for j in range(n)]


@dataclass
class RainbowCertificate:
    """Full witness that a graph sits rainbow inside a Hamiltonian cycle
    decomposition of K_{2n+1}.

    h_edges: the input graph in its own labels, normalized endpoint order.
    label_map: input vertex -> host vertex in 0..2n.
    assignment: class index (0 based) per input edge, parallel to h_edges.
    cycles: the n classes, each as the row of its Hamiltonian cycle: its
        2n + 1 hosts in cycle order, from 0 toward the lower of 0's two
        neighbours (canonical_row).
    """

    n: int
    seed: int
    h_edges: list[Edge]
    label_map: dict[int, int]
    assignment: list[int]
    cycles: list[list[int]]
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
    """Re-check a certificate from scratch.  Never raises on bad content:
    the shape check fails unless n >= 1 and the cycles are a list of n
    rows, each a list of 2n + 1 integers (a bool is none), and only then
    do the rows meet _prove_rows.  Its partition error fails the
    partition check and ends the report, a vertex out of range among
    them; a row that is no permutation of 0..2n fails the hamiltonian
    check."""
    rep = VerificationReport()
    n, rows = cert.n, cert.cycles
    fault = _shape_fault(n, rows)
    if fault:
        rep.add("shape", False, fault)
        return rep
    order = 2 * n + 1
    rep.add("shape", True, f"n={n} order={order} classes={n}")

    error, bad = _prove_rows(order, rows)
    rep.add("partition", not error, error or f"{n * order} edges")
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
    elif any(not 0 <= w < order for w in cert.label_map.values()):
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
    elif any(not 0 <= c < n for c in cert.assignment):
        rb_ok, detail = False, "class index out of range"
    else:
        for (u, v), c in zip(cert.h_edges, cert.assignment):
            a, b = cert.label_map[u], cert.label_map[v]
            row = rows[c]
            if c in bad:
                held = edge(a, b) in cycle_edges(row)
            else:
                k = row.index(a)
                held = b == row[k - 1] or b == row[k + 1 - order]
            if not held:
                rb_ok, detail = False, f"edge {(u, v)} not in class {c}"
                break
    rep.add("rainbow", rb_ok, detail)
    return rep


def _shape_fault(n, rows) -> str:
    """What keeps rows from being n >= 1 rows of 2n + 1 integers, "" if
    nothing."""
    if type(n) is not int or n < 1:
        return f"n={n!r} is no positive integer"
    if type(rows) is not list:
        return "the classes are no list"
    order = 2 * n + 1
    if len(rows) != n:
        return f"n={n} order={order} classes={len(rows)}"
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != order or set(map(type, row)) != {int}:
            return f"class {i} is no list of {order} integers"
    return ""
