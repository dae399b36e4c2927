"""Embedding the dense part of an instance.

Input: a graph on dense labels 0..r-1 whose components all have at least
two edges (t edges total, 1 <= t <= n).  Output: the edges of K_r
split into n linear forests, edge i sitting alone-per-class in class i,
every class meeting the size floor of the hilton module docstring at
order r, the first t classes with their edge of H.

Two regimes.  With at most n + 1 vertices the classes are matchings of a
round-robin schedule of K_r (one odd schedule, on r or r - 1 vertices,
with vertex r - 1 added to each round for even r), at most one per
class, each class i < t with h_i added to the part of its matching
outside H; a matching plus one edge is a linear forest.  For r <= n the
floors are vacuous.  At r = n + 1 the classes t..n-1 need two edges, and
every other floor holds by the class's edge of H.  Even r gives n
perfect matchings of r/2 edges, at most 2t/(n-1) <= t of them with
r/2 - 1 or more edges of H, so the n - t with the fewest H edges leave
two edges each.  Odd r gives n + 1
near-perfect matchings, M_k missing vertex k, so two of them share a
class: M_k then M_{k+1} maps x to 2k - x, then to x + 2, which generates
Z_r, so their union is a Hamiltonian path of K_r.  If t = n, class 0
takes the pair whose M_k holds h_0, and lies on that path.  Otherwise the
r pairs hold 2t < 2r H-edge incidences, so one holds at most one H edge
and leaves class t at least r - 2 edges, and the other n - t - 1 empty
classes take the lightest of the rest, as for even r (at most
2t/(n-2) <= t of them too full).  Past n + 1 vertices the instance is
shrunk: a subgraph with s = ceil(r/2) edges, the first s of the
components' breadth-first edge orders, is solved recursively on
K_{2s+1}, its rows are moved onto the parent's hosts by one map
(graph_core.complete_perm: the subgraph keeps its labels, the child's
other hosts fill the gaps upward) and read as edge sets, and the surplus
vertices are cut away, leaving s large forests.  From there the n
classes sit in one list by final slot: each child class in the slot of
the input edge it carries, read off the child's assignment, each other
input edge alone in its own slot, and the rest empty.  The child's
classes, largest first, are the donors; they give edges to the remaining
classes below their floors, in one schedule, each move counted from the
target's gap to its floor (size_floor): in case 1 (3r <= 4n - 1) a class
takes its whole gap from one donor, in case 2 half the gap less one from
one donor and the rest from a second.  Every move withholds the donor's
own input edge and the edges one cut rule (_donor_cut) names, so that no
move breaks a forest.
A donor too small for its moves fails the move itself
(InternalInfeasible) or leaves a class below its floor, which the exit
check reports as InvariantViolation.

The child's cycles and its owners are proved by the verify_certificate
that ends the child's solve, so nothing here checks them again: a
truncated Hamiltonian cycle on 2s + 1 >= r + 1 vertices keeps at least
r - 2 edges, and the child's assignment gives each class one subgraph
edge.  A child that broke that contract all the same leaves the classes
short of a partition of K_r, which the exit scan reports.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from .graph_core import (
    Decomposition,
    Edge,
    analyze_linear_forest,
    complete_perm,
    component_edge_groups,
    cycle_edges,
    edge,
    edge_vertices,
    relabel_rows,
)
from .hilton import ForestSplit, check_stage, size_floor, truncate_to_order


def verify_embedded_forests(
    dec: Decomposition, h_edges: list[Edge], n: int
) -> ForestSplit:
    """Re-check every promise made by embed_dense, and return the split
    from the scan that proves it.  Every failure, a class an edge move
    broke too, is the stage's own fault: InvariantViolation."""
    try:
        split = ForestSplit.scan(dec, "at the embed exit")
    except NotLinearForest as exc:
        raise InvariantViolation(str(exc)) from exc
    check_stage(split, n, len(h_edges), "at the embed exit")
    for i, e in enumerate(h_edges):
        if e not in dec.classes[i]:
            raise InvariantViolation(f"edge {i} missing from class {i}")
    return split


def embed_dense(
    h_edges: list[Edge],
    n: int,
    recurse,
    trace: list[str] | None = None,
) -> ForestSplit:
    """Build the n-forest split of K_r described in the module docstring,
    and return it as its exit check proved it, for the stages after it to
    grow.

    Requires 1 <= t <= n, dense labels, no repeated edge and no
    component of one edge, else raises PreconditionViolation.  A linear
    forest with r > n + 1 raises it too: the recursive regime fails on
    k x P3 at n = 2k for odd k, and route sends every linear forest of
    six or more edges to the hub construction, every smaller instance to
    base-small.
    Every other input is taken at any n: by the direct regime when r <=
    n + 1, a linear forest too, and by the recursive one otherwise.
    recurse(edges) must solve the instance on edges (s = ceil(r/2)
    < n of them) outright, under whatever seed the caller chose, and
    return a certificate that solve has verified; it is only called when
    r > n + 1.
    """
    t = len(h_edges)
    vs = edge_vertices(h_edges)
    r = len(vs)
    if not 1 <= t <= n:
        raise PreconditionViolation(f"need 1 <= t <= n, got t={t}, n={n}")
    if vs != list(range(r)):
        raise PreconditionViolation("dense labels 0..r-1 required")
    if len(set(h_edges)) != t:
        raise PreconditionViolation("repeated edge")
    groups = component_edge_groups(h_edges)
    if min(map(len, groups)) < 2:
        raise PreconditionViolation("every component needs >= 2 edges")
    degree = Counter(v for e in h_edges for v in e)
    if r > n + 1 and t == r - len(groups) and max(degree.values()) <= 2:
        raise PreconditionViolation(f"a linear forest with r={r} > n+1={n + 1}")
    if trace is None:
        trace = []

    if r <= n + 1:
        trace.append(f"embed: r={r} t={t} direct matchings")
        dec = _direct_small(h_edges, r, t, n)
    else:
        dec = _recursive_dense(h_edges, r, t, n, recurse, trace)
    return verify_embedded_forests(dec, h_edges, n)


# ---------------------------------------------------------------------------
# r <= n + 1: one round-robin matching per class, for odd r = n + 1 two
# in one class


def _round_robin(r: int) -> list[list[Edge]]:
    """Matchings partitioning K_r: r-1 perfect ones for even r, r
    near-perfect ones for odd r.  On the odd order m = r - 1 + (r mod 2),
    M_k pairs k - i with k + i mod m for i = 1..floor(m/2), missing k;
    for even r, round k also takes (k, r - 1), at its front."""
    if r < 2:
        return []
    m = r - 1 + r % 2
    rounds = [[edge((k - i) % m, (k + i) % m) for i in range(1, m // 2 + 1)]
              for k in range(m)]
    if r % 2 == 0:
        for k, match in enumerate(rounds):
            match.insert(0, edge(k, r - 1))
    return rounds


def _class_rounds(h_edges: list[Edge], r: int, t: int, n: int) -> list[list[Edge]]:
    """The rounds of _round_robin(r) in class order, as the module
    docstring sets out: round k in class k for r <= n; at r = n + 1 the
    lightest rounds, those with the fewest H edges, in classes t..n-1, and
    for odd r rounds k and k + 1 merged into class 0 or class t."""
    rounds = _round_robin(r)
    if r <= n:
        return rounds
    h_set = set(h_edges)
    load = [sum(e in h_set for e in m) for m in rounds]
    idx = list(range(len(rounds)))
    head: list[list[Edge]] = []
    tail: list[list[Edge]] = []
    if r % 2:
        if t == n:
            k = next(k for k, m in enumerate(rounds) if h_edges[0] in m)
        else:
            k = min(idx, key=lambda k: load[k] + load[(k + 1) % r])
        j = (k + 1) % r
        idx.remove(k)
        idx.remove(j)
        (head if t == n else tail).append(rounds[k] + rounds[j])
    light = sorted(idx, key=load.__getitem__)[: n - t - len(tail)]
    heavy = [rounds[k] for k in idx if k not in light]
    return head + heavy + tail + [rounds[k] for k in light]


def _direct_small(h_edges: list[Edge], r: int, t: int, n: int) -> Decomposition:
    h_set = set(h_edges)
    classes = [{e} for e in h_edges] + [set() for _ in range(t, n)]
    for cls, match in zip(classes, _class_rounds(h_edges, r, t, n)):
        cls.update(e for e in match if e not in h_set)
    return Decomposition(r, classes)


# ---------------------------------------------------------------------------
# r >= n + 2: recursion plus edge moves


def _bfs_order(h_edges: list[Edge], grp: list[int]) -> list[int]:
    """The component's edges in breadth-first order from its smallest
    vertex: each prefix of the order is connected."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx in grp:
        u, v = h_edges[idx]
        adj.setdefault(u, []).append((v, idx))
        adj.setdefault(v, []).append((u, idx))
    start = min(adj)
    taken: dict[int, None] = {}  # edge indices in the order first met
    seen = {start}
    queue = [start]
    for u in queue:
        for v, idx in sorted(adj[u]):
            taken[idx] = None
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return list(taken)


def _choose_subgraph(h_edges: list[Edge], s: int) -> list[int]:
    """The first s edge indices of the components' _bfs_order lists, laid
    end to end in component_edge_groups order, sorted: the whole
    components that fit, then a connected part of the one that
    overflows."""
    chosen = [idx for grp in component_edge_groups(h_edges)
              for idx in _bfs_order(h_edges, grp)][:s]
    if len(chosen) != s:
        raise InvariantViolation(f"subgraph has {len(chosen)} edges, needs {s}")
    return sorted(chosen)


def _move(donor: set[Edge], target: set[Edge], count: int, exclude: set[Edge]) -> None:
    """Shift the `count` >= 0 smallest allowed donor edges into the
    target.  The cut in exclude keeps the target a linear forest; a move
    that breaks it all the same is caught by the exit scan of
    verify_embedded_forests as InvariantViolation."""
    avail = sorted(e for e in donor if e not in exclude)
    if len(avail) < count:
        raise InternalInfeasible(
            f"donor has {len(avail)} spare edges, needs {count}"
        )
    moved = avail[:count]
    donor.difference_update(moved)
    target.update(moved)


def _donor_cut(target: set[Edge], donor: set[Edge], r: int) -> set[Edge]:
    """Donor edges that stay behind so that the target plus the rest of the
    donor is still a linear forest: every donor edge at a degree-two target
    vertex, and the edge entering each degree-one target vertex as each
    donor path is walked from its lower end.  A moved segment then never
    joins two target path ends, so no cycle forms and no degree passes two.
    A single-edge target withholds at most two edges, an empty one none."""
    if not target:
        return set()
    degree = Counter(v for e in target for v in e)
    interior = {v for v, d in degree.items() if d == 2}
    ends = {v for v, d in degree.items() if d == 1}
    dview = analyze_linear_forest(donor, range(r))
    withheld: set[Edge] = set()
    for p in dview.paths:
        for prev, v in zip(p, p[1:]):
            if prev in interior or v in interior or v in ends:
                withheld.add(edge(prev, v))
    return withheld


def _recursive_dense(
    h_edges: list[Edge],
    r: int,
    t: int,
    n: int,
    recurse,
    trace: list[str],
) -> Decomposition:
    # r <= 3t/2 <= 3n/2 (each component has at least two edges) and
    # r >= n + 2 give n >= 4 and s <= ceil(3n/4) < n
    s = (r + 1) // 2
    sub_idx = _choose_subgraph(h_edges, s)
    case = 1 if 3 * r <= 4 * n - 1 else 2
    trace.append(f"embed: r={r} t={t} s={s} case={case}")
    child = recurse([h_edges[i] for i in sub_idx])

    # send each child host vertex to its place in the parent layout: the
    # subgraph keeps its labels, everything else fills the gaps upward
    pi = complete_perm({h: x for x, h in child.label_map.items()}, 2 * s + 1)
    rows = relabel_rows(child.cycles, pi, 2 * s + 1)
    cut = truncate_to_order(
        Decomposition(2 * s + 1, list(map(cycle_edges, rows))), r
    )

    # the n classes by final slot: child class c holds the child's edge j
    # with assignment[j] == c, which is h_edges[sub_idx[j]] and so goes to
    # slot sub_idx[j]; each other input edge restarts alone in its own
    # slot, pulled out of the child class it fell in, and slots t..n-1
    # start empty
    slot = [0] * s
    for j, c in enumerate(child.assignment):
        slot[c] = sub_idx[j]
    singles = sorted(set(range(t)).difference(sub_idx))
    leftover = {h_edges[i] for i in singles}
    classes = [{e} for e in h_edges] + [set() for _ in range(t, n)]
    for c, cls in enumerate(cut.classes):
        classes[slot[c]] = cls - leftover
    # the donors, largest first, ties in child-class order
    donors = sorted(slot, key=lambda i: len(classes[i]), reverse=True)

    # each row's targets take edges toward their size floor from the
    # donors in turn: in case 1 the whole gap from one donor, in case 2
    # half the gap less one, then the rest from a second.  The s donors
    # last: case 1 takes n - s < s of them (2s >= r >= n + 2), and case 2
    # 2(n - s) <= s (3r >= 4n).  Every gap is at least 2 at r >= n + 2,
    # so no move count is negative
    empties = range(t, n)
    if case == 1:
        plan = [(singles, False), (empties, False)]
    else:
        plan = [(singles, True), (singles, False),
                (empties, True), (empties, False)]
    next_donor = iter(donors)
    for targets, half in plan:
        for i in targets:
            d = next(next_donor)
            gap = size_floor(r, n, i < t) - len(classes[i])
            withheld = _donor_cut(classes[i], classes[d], r)
            withheld.add(h_edges[d])
            _move(classes[d], classes[i], gap // 2 - 1 if half else gap, withheld)
    return Decomposition(r, classes)
