"""Balanced colorings of bipartite multigraphs.

Three operations; the sparse completion pipeline calls the paired
2-coloring, which is built on the balanced k-coloring:

* balanced_k_coloring: split the edges into k classes so that every vertex
  and every parallel bundle sees each class within one of any other.  It
  keeps color counts per vertex and bundle and recolors two colors per
  round, updating only the groups their edges touch; a per-round check on
  those groups proves progress.
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
# balanced k-coloring


def balanced_k_coloring(
    G: BipartiteMultigraph,
    k: int,
    rng: random.Random | None = None,
) -> dict[int, int]:
    """Color the edges with colors 0..k-1 so that at every vertex and in
    every bundle any two colors differ by at most one.

    Start from a cyclic assignment over the bundles.  Then, while some
    group (x vertices, then y vertices, then bundles in (x, y) order) is
    out of balance, take the first one, pair its most used color i with
    its least used color j, and recolor the edges of colors i and j with
    an Euler split.  Color counts per group, the edges of each color and
    the set of unbalanced groups are kept up to date; a round changes
    them only in the groups that the edges of i and j touch.

    The sum of c_i^2 + c_j^2 over all groups drops by at least 2 each
    round, which bounds the number of rounds.  Groups the round does not
    touch keep their counts of i and j, so the drop is computed over the
    touched groups alone, and a round that misses it raises
    InvariantViolation.  The finished coloring is rescanned once.
    """
    if k < 1:
        raise PreconditionViolation("need k >= 1")

    bundles = sorted(G.bundles().items())
    groups: list[Sequence[int]] = [*G._by_x, *G._by_y]
    groups.extend(bund for _, bund in bundles)
    # group indices of each edge: its x vertex, its y vertex, its bundle;
    # rank orders edges bundle by bundle, as _recolor_pair takes them
    where: dict[int, tuple[int, int, int]] = {}
    rank: dict[int, int] = {}
    y0 = G.x_size
    b0 = G.x_size + G.y_size
    for b, ((x, y), bund) in enumerate(bundles):
        for e in bund:
            where[e] = (x, y0 + y, b0 + b)
            rank[e] = len(rank)

    bundle_list = [bund for _, bund in bundles]
    if rng is not None:
        rng.shuffle(bundle_list)
    col: dict[int, int] = {}
    c = rng.randrange(k) if rng is not None else 0
    for bund in bundle_list:
        for e in bund:
            col[e] = c
            c = (c + 1) % k

    counts = [[0] * k for _ in groups]
    members: list[set[int]] = [set() for _ in range(k)]
    for e, c in col.items():
        members[c].add(e)
        for g in where[e]:
            counts[g][c] += 1
    unbalanced = {g for g, cnt in enumerate(counts) if max(cnt) - min(cnt) >= 2}

    while unbalanced:
        i, j = _unbalanced_pair(counts[min(unbalanced)])
        sub = sorted(members[i] | members[j], key=rank.__getitem__)
        old = [col[e] for e in sub]
        touched = {g for e in sub for g in where[e]}
        before = sum(counts[g][i] ** 2 + counts[g][j] ** 2 for g in touched)
        _recolor_pair(G, col, i, j, sub)
        members[i] = {e for e in sub if col[e] == i}
        members[j] = {e for e in sub if col[e] == j}
        for e, c in zip(sub, old):
            d = col[e]
            if d != c:
                for g in where[e]:
                    counts[g][c] -= 1
                    counts[g][d] += 1
        after = sum(counts[g][i] ** 2 + counts[g][j] ** 2 for g in touched)
        if after > before - 2:
            raise InvariantViolation(
                f"recoloring colors {i} and {j} did not lower the potential "
                f"({before} -> {after})"
            )
        for g in touched:
            cnt = counts[g]
            if max(cnt) - min(cnt) >= 2:
                unbalanced.add(g)
            else:
                unbalanced.discard(g)

    if _find_unbalanced_pair(groups, col, k) is not None:
        raise InvariantViolation("balanced coloring left a group out of balance")
    return col


def _unbalanced_pair(counts: list[int]) -> tuple[int, int] | None:
    """(lower, higher) of the most and least used colors, ties to the
    higher color, when their counts differ by two or more."""
    if max(counts) - min(counts) < 2:
        return None
    colors = range(len(counts))
    hi = max(colors, key=lambda c: (counts[c], c))
    lo = min(colors, key=lambda c: (counts[c], -c))
    return (hi, lo) if hi < lo else (lo, hi)


def _find_unbalanced_pair(groups, col, k):
    """First (color, color) pair out of balance in any of the groups."""
    for inc in groups:
        counts = [0] * k
        for e in inc:
            counts[col[e]] += 1
        pair = _unbalanced_pair(counts)
        if pair is not None:
            return pair
    return None


def _recolor_pair(G, col, i, j, eids):
    """Rebalance colors i and j on their joint subgraph.

    eids are the edges of colors i and j, bundle by bundle in (x, y)
    order and ascending within a bundle.  Parallel edges are pre-matched
    into one-of-each pairs bundle by bundle; the leftover simple graph is
    cut into trails whose alternation balances every vertex to within one.
    """
    residual: list[int] = []
    for _, run in groupby(eids, key=G.edges.__getitem__):
        es = list(run)
        for a, b in zip(es[0::2], es[1::2]):
            col[a] = i
            col[b] = j
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
    col = balanced_k_coloring(S, 2, rng)

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

    deg_c_x = [G.degree_x(x, C) for x in range(G.x_size)]
    assert deg_c_x[x0] == a0 - 1
    assert deg_c_x[target] == deg_a_x[target] + 1 <= eta
    assert all(
        deg_c_x[x] == deg_a_x[x] for x in range(G.x_size) if x not in (x0, target)
    )
    assert all(G.degree_y(y, C) == deg_a_y[y] for y in range(G.y_size))
    return C
