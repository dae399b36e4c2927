"""Balanced colorings of bipartite multigraphs.

Nothing in the pipeline calls this module: each attach round splits its
slots by extend_sparse._split_slots, one Euler split that gives the same
sides as the paired 2-coloring whenever that one recolors.  The module
stays because perfbench/tracer.py wraps its three operations at their
names in extend_sparse, and for its own tests.  The operations:

* balanced_k_coloring: color the edges 0 and 1 so that every vertex and
  every parallel bundle sees the two colors within one of each other.  It
  keeps a cyclic start that is already balanced, and otherwise recolors
  all edges with one Euler split.  It keeps its k-color name because
  perfbench/tracer.py looks it up by that name.
* paired_balanced_2_coloring: a 2-coloring that separates prescribed edge
  pairs, is exactly balanced at every right vertex, and is within one at
  every left vertex.  It is a balanced 2-coloring of a copy of the graph
  in which every pair has a left vertex of its own.
* rebalance_drop_one: shift one edge of a 2-class split away from a chosen
  left vertex along an alternating path, keeping right degrees intact.
  Nothing in the package calls it; perfbench/tracer.py still wraps it.

Left ("x") vertices are 0..x_size-1, right ("y") vertices 0..y_size-1.
Edges carry integer ids in insertion order; a bundle is the set of ids
between one (x, y) pair.
"""

from __future__ import annotations

import random
from itertools import groupby
from typing import Iterable, Sequence

from .errors import InternalInfeasible, InvariantViolation, PreconditionViolation


class BipartiteMultigraph:
    """Bipartite multigraph with stable integer edge ids."""

    def __init__(self, x_size: int, y_size: int):
        if x_size < 0 or y_size < 0:
            raise PreconditionViolation("negative side size")
        self.x_size = x_size
        self.y_size = y_size
        self.edges: dict[int, tuple[int, int]] = {}
        self._by_x: list[list[int]] = [[] for _ in range(x_size)]
        self._by_y: list[list[int]] = [[] for _ in range(y_size)]
        self._next_id = 0

    def add_edge(self, x: int, y: int) -> int:
        if not (0 <= x < self.x_size and 0 <= y < self.y_size):
            raise PreconditionViolation(f"edge ({x}, {y}) out of range")
        eid = self._next_id
        self._next_id += 1
        self.edges[eid] = (x, y)
        self._by_x[x].append(eid)
        self._by_y[y].append(eid)
        return eid

    def incident_x(self, x: int) -> list[int]:
        """Edge ids at left vertex x, ascending."""
        return self._by_x[x]

    def incident_y(self, y: int) -> list[int]:
        return self._by_y[y]

    def bundles(self) -> dict[tuple[int, int], list[int]]:
        """Parallel classes: (x, y) -> ascending edge ids."""
        out: dict[tuple[int, int], list[int]] = {}
        for eid, xy in self.edges.items():
            out.setdefault(xy, []).append(eid)
        return out

    def degree_x(self, x: int, eids: set[int] | None = None) -> int:
        inc = self._by_x[x]
        return len(inc) if eids is None else sum(1 for e in inc if e in eids)

    def degree_y(self, y: int, eids: set[int] | None = None) -> int:
        inc = self._by_y[y]
        return len(inc) if eids is None else sum(1 for e in inc if e in eids)


# ---------------------------------------------------------------------------
# balanced 2-coloring


def balanced_k_coloring(
    G: BipartiteMultigraph,
    rng: random.Random | None = None,
) -> dict[int, int]:
    """Color the edges 0 and 1 so that at every vertex and in every bundle
    the two colors differ by at most one.

    Start from a cyclic assignment over the bundles, shuffled by rng when
    one is given.  Keep it if every x vertex, y vertex and bundle is
    within one; otherwise recolor all edges with one Euler split, taken
    bundle by bundle in (x, y) order.

    One split is enough.  Parallel edges pair off within each bundle, one
    of each color, which leaves at most one edge per bundle.  Join the odd
    vertices of that leftover simple bipartite graph in pairs by virtual
    edges; every circuit of the result is cut by its virtual edges into
    trails of real edges, and colors alternate along each trail.  A vertex
    passed inside a trail gets one edge of each color; a closed trail is
    even, as the graph is bipartite; and only an odd vertex, which has one
    virtual edge, ends a trail.  So every vertex is within one, and every
    bundle too.  The result is checked all the same.
    """
    bundles = [bund for _, bund in sorted(G.bundles().items())]
    groups: list[Sequence[int]] = [*G._by_x, *G._by_y, *bundles]

    start = list(bundles)
    if rng is not None:
        rng.shuffle(start)
    col: dict[int, int] = {}
    c = rng.randrange(2) if rng is not None else 0
    for bund in start:
        for e in bund:
            col[e] = c
            c ^= 1
    if _balanced(groups, col):
        return col

    _recolor_pair(G, col, [e for bund in bundles for e in bund])
    if not _balanced(groups, col):
        raise InvariantViolation("balanced coloring left a group out of balance")
    return col


def _balanced(groups: list[Sequence[int]], col: dict[int, int]) -> bool:
    """Whether every group holds as many edges of color 1 as of color 0,
    to within one."""
    return all(abs(2 * sum(col[e] for e in g) - len(g)) <= 1 for g in groups)


def _recolor_pair(G, col, eids):
    """Split eids into colors 0 and 1, balanced at every vertex.

    eids are taken bundle by bundle in (x, y) order and ascending within a
    bundle.  Parallel edges are pre-matched into one-of-each pairs bundle
    by bundle; the leftover simple graph is cut into trails whose
    alternation balances every vertex to within one.
    """
    residual: list[int] = []
    for _, run in groupby(eids, key=G.edges.__getitem__):
        es = list(run)
        for a, b in zip(es[0::2], es[1::2]):
            col[a] = 0
            col[b] = 1
        if len(es) % 2:
            residual.append(es[-1])

    # vertices of the residual simple graph: x as-is, y shifted
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in residual:
        x, y = G.edges[e]
        y += G.x_size
        adj.setdefault(x, []).append((e, y))
        adj.setdefault(y, []).append((e, x))
    odd = sorted(v for v, inc in adj.items() if len(inc) % 2)
    virtuals: list[tuple[int, int]] = list(zip(odd[0::2], odd[1::2]))
    for t, (a, b) in enumerate(virtuals):
        adj[a].append((-1 - t, b))
        adj[b].append((-1 - t, a))

    used: set[int] = set()
    for start in sorted(adj):
        if all(e in used for e, _ in adj[start]):
            continue
        circuit = _euler_circuit(adj, start, used)
        _color_split_circuit(circuit, col)


def _euler_circuit(adj, start, used):
    """Hierholzer over the component of start; tokens < 0 are virtual."""
    ptr = {v: 0 for v in adj}
    stack: list[int] = [start]
    edge_stack: list[int] = []
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        inc = adj[v]
        while ptr[v] < len(inc) and inc[ptr[v]][0] in used:
            ptr[v] += 1
        if ptr[v] == len(inc):
            stack.pop()
            if edge_stack:
                circuit.append(edge_stack.pop())
        else:
            e, w = inc[ptr[v]]
            used.add(e)
            stack.append(w)
            edge_stack.append(e)
    return circuit[::-1]


def _color_split_circuit(circuit, col):
    """Alternate colors along each maximal run of real edges, starting
    right after the first virtual edge.  A circuit with no virtual edge is
    one closed run, which must be even, as every circuit of a bipartite
    graph is; an odd one would give its start two edges of one color."""
    breaks = [t for t, e in enumerate(circuit) if e < 0]
    if not breaks and len(circuit) % 2:
        raise InvariantViolation(
            f"closed circuit of {len(circuit)} real edges is odd"
        )
    first = breaks[0] if breaks else -1
    run: list[int] = []
    for e in circuit[first + 1 :] + circuit[: first + 1] + [-1]:
        if e < 0:
            for t, f in enumerate(run):
                col[f] = t % 2
            run = []
        else:
            run.append(e)


# ---------------------------------------------------------------------------
# paired 2-coloring


def paired_balanced_2_coloring(
    F: BipartiteMultigraph,
    pairing: dict[int, int],
    rng: random.Random | None = None,
) -> tuple[set[int], set[int]]:
    """Split the edges of F into two classes so that

    * prescribed pairs land on opposite sides,
    * every y vertex is split exactly in half (y degrees must be even),
    * every x vertex is split to within one.

    pairing maps an edge id to its mate (symmetric); mates must share their
    x vertex.  The split is a balanced 2-coloring of a copy of F in which
    each mated pair has a left vertex of its own and every unpaired edge
    stays on its x vertex.  A pair vertex has degree two, so its edges get
    different colors; an even y degree is split exactly; an x vertex is
    split evenly by its pairs and to within one by its unpaired edges.
    """
    mate = dict(pairing)
    _validate_pairing(F, mate)
    for y in range(F.y_size):
        if len(F.incident_y(y)) % 2:
            raise PreconditionViolation(f"odd degree at y={y}")

    left: dict[int, int] = {}
    for e, f in sorted(mate.items()):
        if e < f:
            left[e] = left[f] = F.x_size + len(left) // 2
    ids = list(F.edges)
    S = BipartiteMultigraph(F.x_size + len(left) // 2, F.y_size)
    for e in ids:
        x, y = F.edges[e]
        S.add_edge(left.get(e, x), y)
    col = balanced_k_coloring(S, rng)

    sides = (
        {e for s, e in enumerate(ids) if col[s] == 0},
        {e for s, e in enumerate(ids) if col[s] == 1},
    )
    _check_paired_output(F, mate, sides)
    return sides


def _validate_pairing(F, mate):
    for e, f in mate.items():
        if e not in F.edges or f not in F.edges:
            raise PreconditionViolation("pairing uses an unknown edge id")
        if e == f or mate.get(f) != e:
            raise PreconditionViolation("pairing is not a symmetric matching")
        if F.edges[e][0] != F.edges[f][0]:
            raise PreconditionViolation("mates must share their x vertex")


def _check_paired_output(F, mate, sides):
    one, two = sides
    if one & two or len(one) + len(two) != len(F.edges):
        raise InvariantViolation("output sides do not partition the edges")
    for e, f in mate.items():
        if (e in one) == (f in one):
            raise InvariantViolation(f"pair ({e}, {f}) not split")
    for y in range(F.y_size):
        if F.degree_y(y, one) != F.degree_y(y, two):
            raise InvariantViolation(f"unbalanced at y={y}")
    for x in range(F.x_size):
        if abs(F.degree_x(x, one) - F.degree_x(x, two)) > 1:
            raise InvariantViolation(f"unbalanced at x={x}")


# ---------------------------------------------------------------------------
# one-edge rebalance


def rebalance_drop_one(
    G: BipartiteMultigraph,
    A: Iterable[int],
    B: Iterable[int],
    x0: int,
    eta: int,
) -> set[int]:
    """Return a class C obtained from A by switching one alternating path
    starting at x0, so that C has one edge less than A at x0, one edge more
    at some other x vertex that had spare capacity (below eta), and the same
    degree as A at every y vertex.

    Requires disjoint classes with B at least as large as A at every y, all
    class degrees at x vertices at most eta, and either a strict surplus of
    A over B at x0, or a tie of odd size with eta even and every y degree in
    B even.  Under these conditions a switching path always exists.
    """
    A = set(A)
    B = set(B)
    if A & B:
        raise PreconditionViolation("classes overlap")
    if not (A | B) <= set(G.edges):
        raise PreconditionViolation("unknown edge id")
    if not 0 <= x0 < G.x_size:
        raise PreconditionViolation("x0 out of range")

    deg_a_x = [G.degree_x(x, A) for x in range(G.x_size)]
    deg_b_x = [G.degree_x(x, B) for x in range(G.x_size)]
    deg_a_y = [G.degree_y(y, A) for y in range(G.y_size)]
    deg_b_y = [G.degree_y(y, B) for y in range(G.y_size)]
    if any(b < a for a, b in zip(deg_a_y, deg_b_y)):
        raise PreconditionViolation("B must dominate A at every y vertex")
    if any(d > eta for d in deg_a_x) or any(d > eta for d in deg_b_x):
        raise PreconditionViolation(f"class degree above eta={eta}")
    a0, b0 = deg_a_x[x0], deg_b_x[x0]
    tie_ok = (
        a0 == b0
        and a0 % 2 == 1
        and eta % 2 == 0
        and all(d % 2 == 0 for d in deg_b_y)
    )
    if not (a0 > b0 or tie_ok):
        raise PreconditionViolation("x0 has no surplus to drop")

    # layered search: leave x through A, leave y through B, never revisit
    parent: dict[tuple[str, int], tuple[int, tuple[str, int]]] = {}
    seen_x = {x0}
    seen_y: set[int] = set()
    frontier = [x0]
    target = None
    while frontier and target is None:
        layer_y: list[int] = []
        for x in sorted(frontier):
            for e in G.incident_x(x):
                if e not in A:
                    continue
                y = G.edges[e][1]
                if y in seen_y:
                    continue
                seen_y.add(y)
                parent[("y", y)] = (e, ("x", x))
                layer_y.append(y)
        frontier = []
        for y in sorted(layer_y):
            if target is not None:
                break
            for e in G.incident_y(y):
                if e not in B:
                    continue
                x = G.edges[e][0]
                if x in seen_x:
                    continue
                seen_x.add(x)
                parent[("x", x)] = (e, ("y", y))
                if deg_a_x[x] < eta:
                    target = x
                    break
                frontier.append(x)
    if target is None:
        raise InternalInfeasible("no switching path from x0")

    path: list[int] = []
    node = ("x", target)
    while node != ("x", x0):
        e, node = parent[node]
        path.append(e)
    C = set(A)
    for e in path:
        if e in C:
            C.remove(e)
        else:
            C.add(e)

    want = list(deg_a_x)
    want[x0] -= 1
    want[target] += 1
    if want != [G.degree_x(x, C) for x in range(G.x_size)] or any(
        G.degree_y(y, C) != deg_a_y[y] for y in range(G.y_size)
    ):
        raise InvariantViolation("the switching path moved the wrong degrees")
    return C
