"""Completion of linear-forest decompositions into Hamiltonian cycle
decompositions.

Input: K_m split into n classes, each a linear forest with at least
2m - 2n - 1 edges.  Vertices m, m+1, ..., 2n-1 are appended one at a
time; each new vertex hands one edge to every old vertex, and the
receiving classes are chosen so that every class stays a linear forest
and keeps pace with the growing size bound.  At order 2n every class is a
spanning path, and the last vertex closes each of them into a cycle.

A PathEnds state per class holds its path ends and checks every edge a
step adds, so no class is rescanned between vertices.  The states come
from the caller, carried from the stage before and checked on entry by the
edge count they imply, or else from one analyze_linear_forest scan of each
class.  Next to them each vertex keeps its free classes, those in which it
is a path end or isolated; each step updates those lists where it laid an
edge, and checks their total against the states.  The choice at each
vertex is a flow with lower bounds, source -> class -> gate -> vertex ->
sink, where a gate is a path's pair of ends or an isolated vertex.
_assign searches it by augmenting paths on the states and the free lists,
without building a network; each attach round of extend_sparse picks its
slots with the same search.  _Dinic, a general max-flow with lower
bounds, has no caller here: the tests check both uses of _assign on it.
"""

from __future__ import annotations

import copy

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

    def copy(self) -> PathEnds:
        """A copy that the other's add_vertex and add_edge leave alone."""
        other = copy.copy(self)
        other.partner = dict(self.partner)
        other.isolated = set(self.isolated)
        return other

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


def single_vertex_step(
    dec: Decomposition, n: int, ends: list[PathEnds], free: list[list[int]]
) -> None:
    """Attach vertex m to K_m in place, one new edge per old vertex.

    Every class may take at most two new edges, must take enough to reach
    2(m+1) - 2n - 1 edges, may touch a path only at one of its endpoints,
    and may touch each isolated vertex once.  _assign finds such an
    assignment whenever one exists, and raises InternalInfeasible
    otherwise; one always exists for in-contract states.  ends[i] holds the
    path ends of class i and free[v] the classes, ascending, in which
    vertex v is a path end or isolated (free_classes); both are updated
    with the step, and every edge added goes through its add_edge check.
    """
    m = dec.order
    if not 1 <= m <= 2 * n - 1:
        raise PreconditionViolation(f"cannot grow order {m} toward 2n+1, n={n}")
    w = m
    target = 2 * (m + 1) - 2 * n - 1
    need = []
    for i, cls in enumerate(dec.classes):
        needed = max(0, target - len(cls))
        if needed > 2:
            raise InvariantViolation(f"class {i} fell behind the size schedule")
        need.append(needed)
    owner = _assign(m, need, ends, free)

    for e in ends:
        e.add_vertex(w)
    taken = [0] * n
    for v, i in enumerate(owner):
        if i >= 0:
            if v in ends[i].partner:
                # a path end that takes an edge becomes interior
                free[v].remove(i)
            ends[i].add_edge(v, w)
            dec.classes[i].add(edge(v, w))
            taken[i] += 1
    # w is isolated in a class that took no edge and a path end in one
    # that took one
    free.append([i for i, k in enumerate(taken) if k <= 1])
    dec.order = m + 1

    for i, cls in enumerate(dec.classes):
        if len(cls) < target:
            raise InvariantViolation(f"class {i} below schedule after step")
    added = sum(taken)
    if added != m:
        raise InvariantViolation(f"{added} edges added at vertex {w}, expected {m}")
    listed = sum(map(len, free))
    held = sum(len(e.partner) + len(e.isolated) for e in ends)
    if listed != held:
        raise InvariantViolation(
            f"free-class lists hold {listed} entries at vertex {w}, "
            f"the path ends {held}"
        )


def free_classes(ends: list[PathEnds], m: int) -> list[list[int]]:
    """For each vertex 0..m-1, the classes in which it is a path end or
    isolated, ascending: where it may take a new edge."""
    free: list[list[int]] = [[] for _ in range(m)]
    for i, e in enumerate(ends):
        for v in e.partner:
            free[v].append(i)
        for v in e.isolated:
            free[v].append(i)
    return free


def _assign(
    m: int,
    need: list[int],
    ends: list[PathEnds],
    free: list[list[int]],
    units: int = 1,
    cap: list[int] | None = None,
    doubler: list[bool] | None = None,
) -> list[int]:
    """The class each old vertex 0..m-1 gives each of its units (new
    edges) to, in one flat list: vertex v's units sit at v * units on.
    Class i takes need[i] to cap[i] units (2 by default) at its gates
    ends[i].gates(): one at a path end, up to units at an isolated vertex,
    and two at one gate at most, only if doubler[i] (by default never).
    free[v] lists the classes in which v lies in a gate, ascending.  Raises
    InternalInfeasible when there is no such choice.  A Hilton step gives
    1 unit a vertex; an attach round gives 2, to classes of cap 4 with a
    doubler and to its bridge class cstar, of cap 2, without one.

    This is the flow source -> class -> gate -> vertex -> sink, with the
    doublers of the extend_sparse module docstring, searched on the class
    of each unit and the vertices each class holds.  _warm_start gives a
    start within every upper bound.  Then each vertex short of a unit gets
    one by an augmenting path (home), and each class below its floor one
    more by an augmenting cycle through a class above its floor (fill).
    home needs only free and the path partners; fill reads a class's gates
    when it first opens that class, once per call.

    It is exact.  Route the flow f by each gate's class arc first and its
    doubler arc second; any loads within the bounds route so.  In the
    residual network of f an empty gate is fed by its class, a gate with
    one unit by its other end or the doubler, the doubler by its class
    while no gate holds two and else by the gate that does, and a full
    class by any of its units.  Let f* be a feasible flow.  If a vertex v
    lacks a unit, f* - f holds a path from the source to v in that
    network, because f* serves v; home searches all of it backward from
    v.  Once every vertex has its units, f* - f is a circulation, and its
    cycle through a class below its floor leaves through a class above
    it; fill searches all of that forward.  No step lowers a class below
    its floor.  So a failed search means no feasible flow exists.
    """
    n = len(need)
    cap = cap or [2] * n
    doubler = doubler or [False] * n
    partner = [e.partner for e in ends]
    gates: dict[int, list[tuple[int, ...]]] = {}  # class -> its gates()
    owner = _warm_start(need, free, partner, units, cap)
    held: list[list[int]] = [[] for _ in range(n)]  # a vertex per unit
    for u, i in enumerate(owner):
        if i >= 0:
            held[i].append(u // units)

    def move(x: int, frm: int, to: int) -> None:
        u = x * units
        while owner[u] != frm:
            u += 1
        owner[u] = to
        if frm >= 0:
            held[frm].remove(x)
        held[to].append(x)

    def doubled(i: int) -> list[int]:
        """The vertices of the gate of class i that holds two units."""
        h = held[i]
        for x in h:
            p = partner[i].get(x, x)
            if h.count(p) > (p == x):
                return [x] if p == x else [x, p]
        return []

    def home(v: int) -> bool:
        """Augment from v, short of a unit, to a class with room.  On the
        way a class swaps the end of a path it holds for the other end,
        moves its doubled gate, or, when full, hands a unit on."""
        came = {v: (-1, -1)}  # vertex -> (vertex taking its unit, class)
        opened = [False] * n
        dopened = [False] * n  # doubler searched
        queue = [v]
        for y in queue:
            frm = came[y][1]
            for i in free[y]:
                if i == frm:
                    continue
                h = held[i]
                p = partner[i].get(y)
                if y in h:
                    if p is not None:
                        continue  # y holds an end of this path
                    displaced, fed = [], False  # y holds its isolated gate once
                elif p in h:
                    displaced, fed = [p], False  # the other end gives way
                else:
                    displaced, fed = (), True  # an empty gate, fed by class i
                if not fed and doubler[i] and not dopened[i]:
                    dopened[i] = True
                    pair = doubled(i)
                    displaced += pair
                    fed = not pair
                if fed and len(h) < cap[i]:
                    x, to = y, i
                    while x >= 0:
                        prev, frm = came[x]
                        move(x, frm, to)
                        x, to = prev, frm
                    return True
                if fed and not opened[i]:
                    opened[i] = True
                    displaced = [*displaced, *h]
                for x in displaced:
                    if x not in came:
                        came[x] = (y, i)
                        queue.append(x)
        return False

    def fill(start: int) -> bool:
        """Augment from the class start, below its floor, to a class above
        its floor that gives up a unit.  On the way a class gives up a unit
        and takes the other end of its path instead, or takes a unit at a
        gate with room."""
        came: dict[int, tuple[int, int]] = {}  # vertex -> (taker, given up)
        opened = [False] * n
        dopened = [False] * n
        queue: list[int] = []

        def open_class(i: int, given: int, p: int | None) -> None:
            """Offer the vertices of the empty gates of class i, which given
            leaves at its gate with other end p; once the doubler is fed, by
            the class while no gate holds two or by that gate giving up its
            second unit, of those with one unit too."""
            h = held[i]
            top = doubler[i] and not dopened[i] and (
                h.count(given) == 2 or p in h or not doubled(i)
            )
            if opened[i] and not top:
                return
            opened[i] = True
            dopened[i] = dopened[i] or top
            if i not in gates:
                gates[i] = ends[i].gates()
            # the gates holding a unit hide their vertices while the empty
            # gates are offered, which spares a test per gate
            hidden = []
            for y in h:
                for x in (y, partner[i].get(y, y)):
                    if x not in came:
                        came[x] = (-1, -1)
                        hidden.append(x)
            for g in gates[i]:
                for y in g:
                    if y not in came:
                        came[y] = (i, given)
                        queue.append(y)
            for x in hidden:
                del came[x]
            for y in h if top else ():
                # a gate holding one unit takes another at its other end, or
                # twice at an isolated vertex when a vertex gives two
                x = partner[i].get(y, y)
                one = h.count(y) + (x != y and x in h) == 1
                if one and (x != y or units == 2) and x not in came:
                    came[x] = (i, given)
                    queue.append(x)

        open_class(start, -1, None)
        for y in queue:
            taker = came[y][0]
            for i in owner[y * units:y * units + units]:
                if i == taker:
                    continue
                h = held[i]
                if len(h) > need[i]:
                    x, frm = y, i
                    while x >= 0:
                        taker, given = came[x]
                        move(x, frm, taker)
                        x, frm = given, taker
                    return True
                p = partner[i].get(y)
                if p is not None and p not in came and p not in h:
                    came[p] = (i, y)
                    queue.append(p)
                if not opened[i] or doubler[i] and not dopened[i]:
                    open_class(i, y, p)
        return False

    for u, i in enumerate(owner):
        if i < 0 and not home(u // units):
            raise InternalInfeasible(
                f"no class can take vertex {u // units} at order {m}"
            )
    for i in range(n):
        while len(held[i]) < need[i]:
            if not fill(i):
                raise InternalInfeasible(f"class {i} misses its floor at order {m}")
    return owner


def _warm_start(
    need: list[int],
    free: list[list[int]],
    partner: list[dict[int, int]],
    units: int,
    cap: list[int],
) -> list[int]:
    """A greedy start for _assign's search, within every upper bound and
    flat as _assign returns, unplaced units -1: vertices with the fewest
    classes first, each unit to the class furthest below its floor whose
    gate at the vertex holds no unit yet; first up to the floors, then up
    to the caps."""
    owner = [-1] * (len(free) * units)
    held: list[list[int]] = [[] for _ in need]
    load = [0] * len(need)
    order = sorted(range(len(free)), key=lambda v: len(free[v]))
    for top in (need, cap) if any(need) else (cap,):
        for k in range(units):
            for v in order:
                if owner[v * units + k] >= 0:
                    continue
                best, gap = -1, -_INF
                for i in free[v]:
                    if load[i] < top[i] and need[i] - load[i] > gap:
                        if v not in held[i] and partner[i].get(v) not in held[i]:
                            best, gap = i, need[i] - load[i]
                if best >= 0:
                    owner[v * units + k] = best
                    held[best].append(v)
                    load[best] += 1
    return owner


def close_final_vertex(dec: Decomposition, n: int, ends: list[PathEnds]) -> None:
    """Join vertex 2n to both ends of each spanning path, closing cycles.

    Each class must hold 2n - 1 edges on one path by its state (check_ends
    and a single path gate), and the 2n closing ends must cover 0..2n-1
    once, so the new edges split the star at 2n among the classes.  The
    classes must partition K_2n, as extend_to_hcd checks on entry and every
    vertex step keeps; the full proof of the result is left to
    verify_certificate."""
    m = dec.order
    if m != 2 * n:
        raise PreconditionViolation(f"closing needs order 2n, got {m}")
    check_ends(dec, ends)
    w = m
    closing: list[int] = []
    for i, cls in enumerate(dec.classes):
        gates = ends[i].gates()
        if len(gates) != 1 or len(gates[0]) != 2:
            raise InternalInfeasible(f"class {i} is not a spanning path")
        a, b = gates[0]
        cls.add(edge(w, a))
        cls.add(edge(w, b))
        closing += gates[0]
    dec.order = m + 1
    if sorted(closing) != list(range(m)):
        raise InvariantViolation(f"the closing ends do not cover 0..{m - 1} once")


def check_ends(dec: Decomposition, ends: list[PathEnds]) -> None:
    """Raise InvariantViolation unless there is one state per class and
    every class holds exactly order - paths - isolated edges, the count
    its state implies.  A state built by a scan, whose add_edge checked
    every edge laid in since, stays tied to its class this way; a class
    that moved apart from its state breaks the tie."""
    if len(ends) != len(dec.classes):
        raise InvariantViolation(
            f"{len(ends)} path-end states for {len(dec.classes)} classes"
        )
    for i, (cls, state) in enumerate(zip(dec.classes, ends)):
        want = dec.order - len(state.partner) // 2 - len(state.isolated)
        if len(cls) != want:
            raise InvariantViolation(
                f"class {i} drifted from its path ends: {len(cls)} edges, "
                f"its ends imply {want}"
            )


def extend_to_hcd(
    dec: Decomposition, n: int, ends: list[PathEnds] | None = None
) -> Decomposition:
    """Grow a qualifying decomposition of K_m into an n-cycle decomposition
    of K_{2n+1}, in place.

    Requires n classes partitioning K_m with m <= 2n, each class a linear
    forest of at least 2m - 2n - 1 edges.  ends, when given, holds the path
    ends of each class carried from the stage before; they are checked by
    check_ends instead of a scan, and grow with the classes.  Without them
    every class is scanned by analyze_linear_forest.
    """
    if n < 1:
        raise PreconditionViolation("need n >= 1")
    if len(dec.classes) != n:
        raise PreconditionViolation(f"expected {n} classes, got {len(dec.classes)}")
    if not 1 <= dec.order <= 2 * n:
        raise PreconditionViolation(f"order {dec.order} not in 1..2n")
    dec.check_partition()
    if ends is None:
        ends = [
            PathEnds(analyze_linear_forest(cls, range(dec.order)))
            for cls in dec.classes
        ]
    else:
        check_ends(dec, ends)
    bound = 2 * dec.order - 2 * n - 1
    for i, cls in enumerate(dec.classes):
        if len(cls) < bound:
            raise PreconditionViolation(
                f"class {i} has {len(cls)} edges, needs {bound}"
            )
    free = free_classes(ends, dec.order)
    while dec.order < 2 * n:
        single_vertex_step(dec, n, ends, free)
    close_final_vertex(dec, n, ends)
    return dec


def truncate_to_order(dec: Decomposition, m: int) -> Decomposition:
    """Restriction of every class to the vertices 0..m-1, as a new object."""
    if not 1 <= m <= dec.order:
        raise PreconditionViolation("bad truncation order")
    return Decomposition(
        m, [{e for e in cls if e[1] < m} for cls in dec.classes]
    )
