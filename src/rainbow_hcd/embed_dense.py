"""Embedding the dense part of an instance.

Input: a graph on dense labels 0..r-1 whose components all have at least
two edges (t edges total, t <= n), for n >= 6.  Output: the edges of K_r
split into n linear forests, edge i sitting alone-per-class in class i,
every class meeting the size floor of the hilton module docstring at
order r, the first t classes with their edge of H.

Two regimes.  With few vertices (r <= n) the floors are vacuous and a
round-robin matching schedule settles everything.  Otherwise the instance
is shrunk: a subgraph with s = ceil(r/2) edges is solved recursively on
K_{2s+1}, the surplus vertices are cut away leaving s large forests, and
edges are moved out of them into the remaining classes, with blocker
bookkeeping so no move ever breaks a forest or touches a protected edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
    component_edge_groups,
    edge,
    edge_vertices,
    relabel_decomposition,
)
from .hilton import ForestSplit, check_stage, truncate_to_order


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

    Requires n >= 6, else raises PreconditionViolation: solve routes every
    n <= 5 to base-small, so only the pipeline calls this stage, always
    with n >= 6, and below that the recursive regime fails (K_{1,3} at
    n = 3, P3 at n = 2).  A linear forest with r > n raises it too: route
    sends every linear forest with n >= 6 to the hub construction and
    recursive sub-instances go through solve, and the recursive regime
    fails on k x P3 at n = 2k for odd k.  The direct regime takes them.
    recurse(edges) must solve the instance on edges (s = ceil(r/2) < n of
    them) outright, under whatever seed the caller chose, and return its
    certificate; it is only called when r > n.
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
    if n < 6:
        raise PreconditionViolation(f"need n >= 6, got n={n}")
    degree = Counter(v for e in h_edges for v in e)
    if r > n and t == r - len(groups) and max(degree.values()) <= 2:
        raise PreconditionViolation(f"a linear forest with r={r} > n={n}")
    if trace is None:
        trace = []

    if r <= n:
        trace.append(f"embed: r={r} t={t} direct matchings")
        dec = _direct_small(h_edges, r, t, n)
    else:
        dec = _recursive_dense(h_edges, r, t, n, recurse, trace)
    return verify_embedded_forests(dec, h_edges, n)


# ---------------------------------------------------------------------------
# small-r regime: one matching per class


def _round_robin(r: int) -> list[list[Edge]]:
    """Matchings partitioning K_r: r-1 perfect ones for even r, r
    near-perfect ones for odd r."""
    rounds: list[list[Edge]] = []
    if r < 2:
        return rounds
    if r % 2 == 0:
        m = r - 1
        for k in range(m):
            match = [edge(k, r - 1)]
            match += [
                edge((k - i) % m, (k + i) % m) for i in range(1, m // 2 + 1)
            ]
            rounds.append(match)
    else:
        for k in range(r):
            rounds.append(
                [edge((k - i) % r, (k + i) % r) for i in range(1, r // 2 + 1)]
            )
    return rounds


def _direct_small(h_edges: list[Edge], r: int, t: int, n: int) -> Decomposition:
    classes: list[set[Edge]] = [set() for _ in range(n)]
    for i, e in enumerate(h_edges):
        classes[i].add(e)
    h_set = set(h_edges)
    # at most r matchings, and this regime runs only when r <= n
    for k, match in enumerate(_round_robin(r)):
        classes[k].update(e for e in match if e not in h_set)
    return Decomposition(r, classes)


# ---------------------------------------------------------------------------
# large-r regime: recursion plus edge moves


@dataclass
class _Cls:
    edges: set[Edge]
    owner: int | None  # index into h_edges, None for filler classes
    keep: Edge | None = None  # protected edge, never moved out


def _bfs_prefix(h_edges: list[Edge], grp: list[int], need: int) -> list[int]:
    """First `need` edges of the component in breadth-first order from its
    smallest vertex; the chosen part stays connected."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx in grp:
        u, v = h_edges[idx]
        adj.setdefault(u, []).append((v, idx))
        adj.setdefault(v, []).append((u, idx))
    start = min(adj)
    taken: list[int] = []
    taken_set: set[int] = set()
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue) and len(taken) < need:
        u = queue[qi]
        qi += 1
        for v, idx in sorted(adj[u]):
            if len(taken) == need:
                break
            if idx in taken_set:
                continue
            taken.append(idx)
            taken_set.add(idx)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(taken) != need:
        raise InvariantViolation(f"prefix has {len(taken)} edges, needs {need}")
    return taken


def _choose_subgraph(h_edges: list[Edge], s: int) -> list[int]:
    """Pick s edge indices: whole components first, then a connected prefix
    of the component that would overflow."""
    chosen: list[int] = []
    for grp in component_edge_groups(h_edges):
        if len(chosen) + len(grp) <= s:
            chosen.extend(grp)
        else:
            chosen.extend(_bfs_prefix(h_edges, grp, s - len(chosen)))
        if len(chosen) == s:
            break
    if len(chosen) != s:
        raise InvariantViolation(f"subgraph has {len(chosen)} edges, needs {s}")
    return sorted(chosen)


def _move(donor: _Cls, target: _Cls, count: int, exclude: set[Edge]) -> None:
    """Shift the `count` smallest allowed donor edges into the target.  The
    blockers and cuts in exclude keep the target a linear forest; a move
    that breaks it all the same is caught by the exit scan of
    verify_embedded_forests as InvariantViolation."""
    if count < 0:
        raise InvariantViolation(f"cannot move {count} edges")
    avail = sorted(e for e in donor.edges if e not in exclude)
    if len(avail) < count:
        raise InternalInfeasible(
            f"donor has {len(avail)} spare edges, needs {count}"
        )
    moved = avail[:count]
    donor.edges.difference_update(moved)
    target.edges.update(moved)


def _toward(path: tuple[int, ...], src: int, dst: int) -> Edge:
    """Edge leaving src in the direction of dst along the path holding both."""
    i, j = path.index(src), path.index(dst)
    step = 1 if j > i else -1
    return edge(src, path[i + step])


def _first_donor_blockers(ab: Edge, donor: _Cls, r: int) -> set[Edge]:
    """Edges that must stay put so any moved subset keeps degrees at the
    target edge's endpoints at most one and never links them."""
    a, b = ab
    view = analyze_linear_forest(donor.edges, range(r))
    path_of: dict[int, tuple[int, ...]] = {}
    for p in view.paths:
        for v in p:
            path_of[v] = p
    blockers: set[Edge] = set()
    if a in path_of and b in path_of and path_of[a] is path_of[b]:
        blockers.add(_toward(path_of[a], a, b))
        blockers.add(_toward(path_of[b], b, a))
    else:
        for v in (a, b):
            p = path_of.get(v)
            if p is not None and v in p[1:-1]:
                # interior vertex: withhold one of its two edges
                blockers.add(edge(v, p[p.index(v) - 1]))
    return blockers


def _second_donor_cut(target: _Cls, donor: _Cls, r: int) -> set[Edge]:
    """Withheld donor edges: all at the target's interior (degree-two)
    vertices, plus the inbound edge of each target path end (degree one),
    walking each donor path from its lower end.  The rest moves freely."""
    degree = Counter(v for e in target.edges for v in e)
    interior = {v for v, d in degree.items() if d == 2}
    ends = {v for v, d in degree.items() if d == 1}
    dview = analyze_linear_forest(donor.edges, range(r))
    withheld: set[Edge] = set()
    for p in dview.paths:
        for prev, v in zip(p, p[1:]):
            e = edge(prev, v)
            if prev in interior or v in interior or v in ends:
                withheld.add(e)
    return withheld


def _case1_moves(
    big: list[_Cls], singles: list[_Cls], empties: list[_Cls], r: int, n: int
) -> None:
    s = len(big)
    t = s + len(singles)
    if n - s > s:
        raise InvariantViolation(f"{n - s} classes to fill from {s} donors")
    if len(big[n - s - 1].edges) < 4 * r - 4 * n - 1:
        raise InternalInfeasible("donor classes below the spread bound")
    for pos, cls in enumerate(singles):
        donor = big[pos]
        ab = next(iter(cls.edges))
        blockers = _first_donor_blockers(ab, donor, r)
        _move(donor, cls, 2 * r - 2 * n - 2, blockers | {donor.keep})
    for pos, cls in enumerate(empties):
        donor = big[t - s + pos]
        _move(donor, cls, 2 * r - 2 * n, {donor.keep})


def _case2_moves(
    big: list[_Cls],
    singles: list[_Cls],
    empties: list[_Cls],
    r: int,
    n: int,
) -> None:
    s = len(big)
    t = s + len(singles)
    eps = 1 if t == n else 0
    if 2 * n - 2 * s > s:
        raise InvariantViolation(f"{2 * n - 2 * s} donor slots from {s} donors")
    if len(big[2 * n - 2 * s - 1].edges) < 3 * r - 3 * n - eps:
        raise InternalInfeasible("donor classes below the spread bound")
    for pos, cls in enumerate(singles):
        donor = big[pos]
        ab = next(iter(cls.edges))
        blockers = _first_donor_blockers(ab, donor, r)
        _move(donor, cls, r - n - 2, blockers | {donor.keep})
        donor2 = big[t - s + pos]
        cut = _second_donor_cut(cls, donor2, r)
        _move(donor2, cls, r - n, cut | {donor2.keep})
    for pos, cls in enumerate(empties):
        donor = big[2 * t - 2 * s + pos]
        _move(donor, cls, r - n - 1, {donor.keep})
        donor2 = big[n + t - 2 * s + pos]
        cut = _second_donor_cut(cls, donor2, r)
        _move(donor2, cls, r - n + 1, cut | {donor2.keep})


def _recursive_dense(
    h_edges: list[Edge],
    r: int,
    t: int,
    n: int,
    recurse,
    trace: list[str],
) -> Decomposition:
    # r <= 3t/2 <= 3n/2 (each component has at least two edges), so
    # s <= ceil(3n/4) < n for n >= 6
    s = (r + 1) // 2
    if not 1 <= s < n:
        raise InvariantViolation(f"recursive instance of size {s}, n={n}")
    sub_idx = _choose_subgraph(h_edges, s)
    sub_edges = [h_edges[i] for i in sub_idx]
    case = 1 if 3 * r <= 4 * n - 1 else 2
    trace.append(f"embed: r={r} t={t} s={s} case={case}")
    child = recurse(sub_edges)

    # send each child host vertex to its place in the parent layout: the
    # subgraph keeps its labels, everything else fills the gaps upward
    sub_vs = edge_vertices(sub_edges)
    pi: dict[int, int] = {}
    for x in sub_vs:
        pi[child.label_map[x]] = x
    free_parent = [v for v in range(2 * s + 1) if v not in set(sub_vs)]
    rest_child = [
        v for v in range(2 * s + 1) if v not in set(pi)
    ]
    for cv, slot in zip(rest_child, free_parent):
        pi[cv] = slot
    relab = relabel_decomposition(child.decomposition, pi)
    cut = truncate_to_order(relab, r)
    for cls in cut.classes:
        if len(cls) < r - 2:
            raise InvariantViolation("truncated cycle lost too many edges")

    owner_of_class: dict[int, int] = {}
    for j, eidx in enumerate(sub_idx):
        owner_of_class[child.assignment[j]] = eidx
    if sorted(owner_of_class) != list(range(s)):
        raise InvariantViolation("child classes do not each own one subgraph edge")

    big = [
        _Cls(set(cut.classes[ci]), owner_of_class[ci], h_edges[owner_of_class[ci]])
        for ci in range(s)
    ]
    # pull the leftover input edges out of the truncated classes; each one
    # restarts as a singleton class of its own
    sub_set = set(sub_idx)
    leftover = {h_edges[i] for i in range(t) if i not in sub_set}
    for cls in big:
        cls.edges.difference_update(leftover)
    big.sort(key=lambda c: len(c.edges), reverse=True)
    singles = [_Cls({h_edges[i]}, i) for i in range(t) if i not in sub_set]
    empties = [_Cls(set(), None) for _ in range(n - t)]

    if case == 1:
        _case1_moves(big, singles, empties, r, n)
    else:
        _case2_moves(big, singles, empties, r, n)

    # n classes, no slot taken twice: every slot is filled
    final: list[set[Edge] | None] = [None] * n
    fillers = iter(range(t, n))
    for cls in big + singles + empties:
        slot = cls.owner if cls.owner is not None else next(fillers)
        if final[slot] is not None:
            raise InvariantViolation(f"two classes for slot {slot}")
        final[slot] = cls.edges
    return Decomposition(r, final)
