"""Balanced colorings of bipartite multigraphs.

Three operations used by the sparse completion pipeline:

* balanced_k_coloring: split the edges into k classes so that every vertex
  and every parallel bundle sees each class within one of any other.
* paired_balanced_2_coloring: a 2-coloring that separates prescribed edge
  pairs, is exactly balanced at every right vertex, and is within one at
  every left vertex.
* rebalance_drop_one: shift one edge of a 2-class split away from a chosen
  left vertex along an alternating path, keeping right degrees intact.

Left ("x") vertices are 0..x_size-1, right ("y") vertices 0..y_size-1.
Edges carry integer ids in insertion order; a bundle is the set of ids
between one (x, y) pair.
"""

from __future__ import annotations

import random
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
        for eid in sorted(self.edges):
            out.setdefault(self.edges[eid], []).append(eid)
        return out

    def degree_x(self, x: int, eids: set[int] | None = None) -> int:
        inc = self._by_x[x]
        return len(inc) if eids is None else sum(1 for e in inc if e in eids)

    def degree_y(self, y: int, eids: set[int] | None = None) -> int:
        inc = self._by_y[y]
        return len(inc) if eids is None else sum(1 for e in inc if e in eids)


def class_sets(coloring: dict[int, int], k: int) -> list[set[int]]:
    """Edge ids per color, from a color map."""
    out: list[set[int]] = [set() for _ in range(k)]
    for eid, c in coloring.items():
        out[c].add(eid)
    return out


# ---------------------------------------------------------------------------
# balanced k-coloring


def balanced_k_coloring(
    G: BipartiteMultigraph,
    k: int,
    rng: random.Random | None = None,
) -> dict[int, int]:
    """Color the edges with colors 0..k-1 so that at every vertex and in
    every bundle any two colors differ by at most one.

    Start from a cyclic assignment, then repeatedly take a color pair that
    still violates balance somewhere and recolor its subgraph with an Euler
    split.  A quadratic potential drops each round, so this terminates.
    """
    if k < 1:
        raise PreconditionViolation("need k >= 1")

    bundle_list = [bund for _, bund in sorted(G.bundles().items())]
    if rng is not None:
        rng.shuffle(bundle_list)
    col: dict[int, int] = {}
    c = rng.randrange(k) if rng is not None else 0
    for bund in bundle_list:
        for e in bund:
            col[e] = c
            c = (c + 1) % k

    while True:
        pair = _find_unbalanced_pair(G, col, k)
        if pair is None:
            break
        i, j = pair
        before = _pair_potential(G, col, i, j)
        _recolor_pair(G, col, i, j)
        after = _pair_potential(G, col, i, j)
        assert after <= before - 2, "recoloring did not lower the potential"

    assert _find_unbalanced_pair(G, col, k) is None
    return col


def _counts_at(inc: Sequence[int], col: dict[int, int], k: int):
    counts = [0] * k
    for e in inc:
        counts[col[e]] += 1
    return counts


def _find_unbalanced_pair(G, col, k):
    """First (color, color) pair out of balance at some vertex or bundle."""
    groups: list[Sequence[int]] = []
    groups.extend(G._by_x)
    groups.extend(G._by_y)
    groups.extend(b for _, b in sorted(G.bundles().items()))
    for inc in groups:
        counts = _counts_at(inc, col, k)
        hi = max(range(k), key=lambda c: (counts[c], c))
        lo = min(range(k), key=lambda c: (counts[c], -c))
        if counts[hi] - counts[lo] >= 2:
            return (hi, lo) if hi < lo else (lo, hi)
    return None


def _pair_potential(G, col, i, j):
    total = 0
    groups: list[Sequence[int]] = []
    groups.extend(G._by_x)
    groups.extend(G._by_y)
    groups.extend(b for _, b in sorted(G.bundles().items()))
    for inc in groups:
        a = sum(1 for e in inc if col[e] == i)
        b = sum(1 for e in inc if col[e] == j)
        total += a * a + b * b
    return total


def _recolor_pair(G, col, i, j):
    """Rebalance colors i and j on their joint subgraph.

    Parallel edges are pre-matched into one-of-each pairs bundle by bundle;
    the leftover simple graph is cut into trails whose alternation balances
    every vertex to within one.
    """
    sub = {e for e in G.edges if col[e] in (i, j)}
    residual: list[int] = []
    for _, bund in sorted(G.bundles().items()):
        es = [e for e in bund if e in sub]
        for a, b in zip(es[0::2], es[1::2]):
            col[a] = i
            col[b] = j
        if len(es) % 2:
            residual.append(es[-1])

    # vertices of the residual simple graph: x as-is, y shifted
    def vx(e):
        return G.edges[e][0]

    def vy(e):
        return G.x_size + G.edges[e][1]

    adj: dict[int, list[tuple[int, int]]] = {}
    for e in residual:
        adj.setdefault(vx(e), []).append((e, vy(e)))
        adj.setdefault(vy(e), []).append((e, vx(e)))
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
        _color_split_circuit(circuit, col, i, j)


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


def _color_split_circuit(circuit, col, i, j):
    """Alternate colors along each maximal run of real edges."""
    if not circuit:
        return
    breaks = [t for t, e in enumerate(circuit) if e < 0]
    if not breaks:
        for t, e in enumerate(circuit):
            col[e] = i if t % 2 == 0 else j
        return
    # rotate so the circuit starts right after a virtual edge
    first = breaks[0]
    rot = circuit[first + 1 :] + circuit[: first + 1]
    run: list[int] = []
    for e in rot:
        if e < 0:
            for t, f in enumerate(run):
                col[f] = i if t % 2 == 0 else j
            run = []
        else:
            run.append(e)
    assert not run


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
    x vertex.  In any bundle of two or more parallel edges at most one edge
    may be paired outside the bundle.  A partial pairing is extended until
    each x vertex keeps at most one unpaired edge; if no valid extension
    exists the pairing is rejected.
    """
    mate = dict(pairing)
    _validate_pairing(F, mate)
    for y in range(F.y_size):
        if len(F.incident_y(y)) % 2:
            raise PreconditionViolation(f"odd degree at y={y}")
    _extend_pairing(F, mate)

    def pick(cands: list[int]) -> int:
        if rng is not None:
            return cands[rng.randrange(len(cands))]
        return cands[0]

    unassigned = set(F.edges)
    color: dict[int, int] = {}

    def commit(trail: list[int]) -> None:
        for t, e in enumerate(trail):
            color[e] = t % 2

    while unassigned:
        start_edge = None
        for x in range(F.x_size):
            loose = [e for e in F.incident_x(x) if e in unassigned and e not in mate]
            if loose:
                start_edge = pick(loose)
                break
        if start_edge is not None:
            commit(_open_trail(F, start_edge, unassigned, mate, pick))
        else:
            commit(_closed_trail(F, min(unassigned), unassigned, mate, pick))

    sides = (
        {e for e, c in color.items() if c == 0},
        {e for e, c in color.items() if c == 1},
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
    for (x, y), bund in F.bundles().items():
        if len(bund) < 2:
            continue
        outside = sum(1 for e in bund if e in mate and F.edges[mate[e]][1] != y)
        if outside > 1:
            raise PreconditionViolation(
                f"bundle ({x}, {y}) pairs {outside} edges outside itself"
            )


def _extend_pairing(F, mate):
    """Pair leftover edges at each x vertex, same-bundle first, keeping the
    one-outside-edge-per-bundle rule.  At most one edge per x may remain."""
    bundles = F.bundles()
    outside_used: dict[tuple[int, int], int] = {}
    for (x, y), bund in bundles.items():
        outside_used[(x, y)] = sum(
            1 for e in bund if e in mate and F.edges[mate[e]][1] != y
        )
    for x in range(F.x_size):
        loose = [e for e in F.incident_x(x) if e not in mate]
        groups: dict[int, list[int]] = {}
        for e in loose:
            groups.setdefault(F.edges[e][1], []).append(e)
        free: list[int] = []
        blocked: list[int] = []
        for y in sorted(groups):
            es = groups[y]
            for a, b in zip(es[0::2], es[1::2]):
                mate[a] = b
                mate[b] = a
            if len(es) % 2 == 0:
                continue
            rest = es[-1]
            if len(bundles[(x, y)]) >= 2 and outside_used[(x, y)] >= 1:
                blocked.append(rest)
            else:
                free.append(rest)
        if len(blocked) + len(free) % 2 > 1:
            raise PreconditionViolation(f"pairing not extendable at x={x}")
        for a, b in zip(free[0::2], free[1::2]):
            mate[a] = b
            mate[b] = a
            for e in (a, b):
                xy = F.edges[e]
                if len(bundles[xy]) >= 2:
                    outside_used[xy] += 1


def _open_trail(F, e0, unassigned, mate, pick):
    """Walk from a pairless edge: leave y via any free edge, leave x via the
    mate.  Ends at the next pairless edge; even length."""
    trail = [e0]
    unassigned.discard(e0)
    y = F.edges[e0][1]
    while True:
        cands = [f for f in F.incident_y(y) if f in unassigned]
        assert cands, "open trail stranded at a y vertex"
        f = pick(cands)
        trail.append(f)
        unassigned.discard(f)
        g = mate.get(f)
        if g is None:
            return trail
        assert g in unassigned, "mate already consumed"
        trail.append(g)
        unassigned.discard(g)
        y = F.edges[g][1]


def _closed_trail(F, e0, unassigned, mate, pick):
    """Walk when every remaining edge has a mate; can only stop back at the
    start y vertex, so the trail closes with even length."""
    trail = [e0]
    unassigned.discard(e0)
    y0 = F.edges[e0][1]
    g = mate[e0]
    assert g in unassigned
    trail.append(g)
    unassigned.discard(g)
    y = F.edges[g][1]
    while True:
        cands = [f for f in F.incident_y(y) if f in unassigned]
        if not cands:
            assert y == y0, "closed trail stranded away from its start"
            return trail
        f = pick(cands)
        trail.append(f)
        unassigned.discard(f)
        g = mate[f]
        assert g in unassigned
        trail.append(g)
        unassigned.discard(g)
        y = F.edges[g][1]


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

    deg_c_x = [G.degree_x(x, C) for x in range(G.x_size)]
    assert deg_c_x[x0] == a0 - 1
    assert deg_c_x[target] == deg_a_x[target] + 1 <= eta
    assert all(
        deg_c_x[x] == deg_a_x[x] for x in range(G.x_size) if x not in (x0, target)
    )
    assert all(G.degree_y(y, C) == deg_a_y[y] for y in range(G.y_size))
    return C
