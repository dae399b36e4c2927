"""Completion of linear-forest decompositions into Hamiltonian cycle
decompositions.

Input: K_m split into n classes, each a linear forest with at least
2m - 2n - 1 edges.  Vertices 2n-1, 2n-2, ... are appended one at a time;
each new vertex hands one edge to every old vertex, and a feasible flow
chooses the receiving classes so that every class stays a linear forest
and keeps pace with the growing size bound.  At order 2n every class is a
spanning path, and the last vertex closes each of them into a cycle.

Each class is checked by analyze_linear_forest once, on entry; from then
on a PathEnds state per class holds its path ends and checks every edge
the flow adds, so no class is rescanned between vertices.
"""

from __future__ import annotations

from .errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from .graph_core import (
    Decomposition,
    LinearForestView,
    analyze_linear_forest,
    edge,
)

_INF = 1 << 30


class _Dinic:
    """Max-flow with deterministic arc order, and feasibility of a flow
    whose arcs carry lower bounds."""

    def __init__(self) -> None:
        self.adj: list[list[int]] = []
        self.to: list[int] = []
        self.cap: list[int] = []
        # node -> lower-bound units it receives minus those it sends
        self.excess: dict[int, int] = {}

    def add_node(self) -> int:
        self.adj.append([])
        return len(self.adj) - 1

    def add_arc(self, u: int, v: int, cap: int) -> int:
        aid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(aid)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(aid + 1)
        return aid

    def add_bounded_arc(self, u: int, v: int, lo: int, hi: int) -> None:
        """Arc u -> v that must carry between lo and hi units.  Its lo
        units are forced: they count at u and v until feasible() routes
        them.  Only the hi - lo free units become an arc, and none when
        lo == hi, since an arc without capacity never carries flow."""
        if hi > lo:
            self.add_arc(u, v, hi - lo)
        if lo:
            self.excess[v] = self.excess.get(v, 0) + lo
            self.excess[u] = self.excess.get(u, 0) - lo

    def flow_on(self, aid: int) -> int:
        return self.cap[aid ^ 1]

    def feasible(self, src: int, snk: int) -> bool:
        """Whether a flow from src to snk meets every arc's bounds; call
        once, after the last arc.  Closes snk -> src and runs one max-flow
        from a super source feeding each node's lower-bound surplus to a
        super sink draining each deficit; the flow is feasible when that
        saturates every surplus, and is then left on the arcs."""
        self.add_arc(snk, src, _INF)
        ssrc = self.add_node()
        ssnk = self.add_node()
        demand = 0
        for node in sorted(self.excess):
            ex = self.excess[node]
            if ex > 0:
                self.add_arc(ssrc, node, ex)
                demand += ex
            elif ex < 0:
                self.add_arc(node, ssnk, -ex)
        return self.max_flow(ssrc, ssnk) == demand

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while True:
            # Levels by breadth-first search, stopped once t is labelled:
            # a node at t's level or beyond is a dead end for the search
            # below, labelled or not, so the augmenting paths are the same.
            level = [-1] * len(adj)
            level[s] = 0
            queue = [s]
            for u in queue:
                nxt = level[u] + 1
                for aid in adj[u]:
                    v = to[aid]
                    if cap[aid] and level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
                if level[t] >= 0:
                    break
            else:
                return total
            it = [0] * len(adj)
            # Depth-first search for blocking flow on an explicit arc stack:
            # advance along the current arc of u, retreat past a dead end by
            # moving its parent's current arc on, augment on reaching t.
            path: list[int] = []
            u = s
            while True:
                arcs = adj[u]
                i = it[u]
                end = len(arcs)
                nxt = level[u] + 1
                while i < end:
                    aid = arcs[i]
                    if cap[aid] and level[to[aid]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i == end:
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                    continue
                path.append(aid)
                u = to[aid]
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    path.clear()
                    u = s


class PathEnds:
    """A linear forest kept by its path ends, grown one edge at a time.

    partner maps each path endpoint to the other end of its path; isolated
    holds the degree-zero vertices.  Interior vertices appear in neither.
    """

    def __init__(self, view: LinearForestView) -> None:
        self.partner: dict[int, int] = {}
        for p in view.paths:
            self.partner[p[0]] = p[-1]
            self.partner[p[-1]] = p[0]
        self.isolated = set(view.isolated)

    def gates(self) -> list[tuple[int, ...]]:
        """Where the forest may take a new edge: each path as its (low,
        high) ends, ascending, then each isolated vertex, ascending, in the
        order LinearForestView lists them."""
        ends = sorted((a, b) for a, b in self.partner.items() if a < b)
        return ends + [(v,) for v in sorted(self.isolated)]

    def add_vertex(self, v: int) -> None:
        self.isolated.add(v)

    def add_edge(self, u: int, v: int) -> None:
        """Join u and v, or raise NotLinearForest if that would give a
        vertex a third edge or close a path into a cycle."""
        ends = []
        for x in (u, v):
            if x in self.isolated:
                ends.append(x)
            elif x in self.partner:
                ends.append(self.partner[x])
            else:
                raise NotLinearForest(f"vertex {x} has no free end for {edge(u, v)}")
        a, b = ends
        if a == v:
            raise NotLinearForest(f"edge {edge(u, v)} closes a cycle")
        for x in (u, v):
            self.isolated.discard(x)
            self.partner.pop(x, None)
        self.partner[a] = b
        self.partner[b] = a


def single_vertex_step(dec: Decomposition, n: int, ends: list[PathEnds]) -> None:
    """Attach vertex m to K_m in place, one new edge per old vertex.

    Every class may take at most two new edges, must take enough to reach
    2(m+1) - 2n - 1 edges, may touch a path only at one of its endpoints,
    and may touch each isolated vertex once.  A feasible flow picks the
    assignment; one always exists for in-contract states.  ends[i] holds
    the path ends of class i and is updated with it; every edge added goes
    through its add_edge check.
    """
    m = dec.order
    if not 1 <= m <= 2 * n - 1:
        raise PreconditionViolation(f"cannot grow order {m} toward 2n+1, n={n}")
    w = m
    target = 2 * (m + 1) - 2 * n - 1

    fl = _Dinic()
    src = fl.add_node()
    snk = fl.add_node()
    vnode = [fl.add_node() for _ in range(m)]

    choice_arcs: list[tuple[int, int, int]] = []
    for i, cls in enumerate(dec.classes):
        needed = max(0, target - len(cls))
        if needed > 2:
            raise InvariantViolation(f"class {i} fell behind the size schedule")
        cnode = fl.add_node()
        fl.add_bounded_arc(src, cnode, needed, 2)
        for gate_ends in ends[i].gates():
            gate = fl.add_node()
            fl.add_arc(cnode, gate, 1)
            for v in gate_ends:
                choice_arcs.append((fl.add_arc(gate, vnode[v], 1), i, v))
        ends[i].add_vertex(w)
    for v in range(m):
        # each old vertex gets exactly one new edge
        fl.add_bounded_arc(vnode[v], snk, 1, 1)
    if not fl.feasible(src, snk):
        raise InternalInfeasible(f"no feasible attachment for vertex {w}")

    added = 0
    for aid, i, v in choice_arcs:
        if fl.flow_on(aid):
            ends[i].add_edge(v, w)
            dec.classes[i].add(edge(v, w))
            added += 1
    dec.order = m + 1

    for i, cls in enumerate(dec.classes):
        if len(cls) < target:
            raise InvariantViolation(f"class {i} below schedule after step")
    if added != m:
        raise InvariantViolation(f"{added} edges added at vertex {w}, expected {m}")


def close_final_vertex(dec: Decomposition, n: int, ends: list[PathEnds]) -> None:
    """Join vertex 2n to both ends of each spanning path, closing cycles."""
    m = dec.order
    if m != 2 * n:
        raise PreconditionViolation(f"closing needs order 2n, got {m}")
    w = m
    for i, cls in enumerate(dec.classes):
        gates = ends[i].gates()
        if len(gates) != 1 or len(gates[0]) != 2:
            raise InternalInfeasible(f"class {i} is not a spanning path")
        a, b = gates[0]
        cls.add(edge(w, a))
        cls.add(edge(w, b))
    dec.order = m + 1
    dec.check_hcd()


def extend_to_hcd(dec: Decomposition, n: int) -> Decomposition:
    """Grow a qualifying decomposition of K_m into an n-cycle decomposition
    of K_{2n+1}, in place.

    Requires n classes partitioning K_m with m <= 2n, each class a linear
    forest of at least 2m - 2n - 1 edges.
    """
    if n < 1:
        raise PreconditionViolation("need n >= 1")
    if len(dec.classes) != n:
        raise PreconditionViolation(f"expected {n} classes, got {len(dec.classes)}")
    if not 1 <= dec.order <= 2 * n:
        raise PreconditionViolation(f"order {dec.order} not in 1..2n")
    dec.check_partition()
    bound = 2 * dec.order - 2 * n - 1
    ends = []
    for i, cls in enumerate(dec.classes):
        ends.append(PathEnds(analyze_linear_forest(cls, range(dec.order))))
        if len(cls) < bound:
            raise PreconditionViolation(
                f"class {i} has {len(cls)} edges, needs {bound}"
            )
    while dec.order < 2 * n:
        single_vertex_step(dec, n, ends)
    close_final_vertex(dec, n, ends)
    return dec


def truncate_to_order(dec: Decomposition, m: int) -> Decomposition:
    """Restriction of every class to the vertices 0..m-1, as a new object."""
    if not 1 <= m <= dec.order:
        raise PreconditionViolation("bad truncation order")
    return Decomposition(
        m, [{e for e in cls if e[1] < m} for cls in dec.classes]
    )
