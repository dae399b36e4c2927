"""Completion of linear-forest decompositions into Hamiltonian cycle
decompositions, and the rules all three stages of the pipeline share.

The size floor: in a split of K_m into n linear forests, class i must
hold at least 2m - 2n - 1 edges if it already holds its edge of H, and
2m - 2n otherwise (size_floor).  The embed meets it at order r, and each
attach round and vertex step at the order it reaches.  check_stage checks
a split where one stage hands it on, and lay_edges lays the new edges of
a round or a step.

Completion: vertices m, m+1, ..., 2n-1 are appended one at a time to a
split of K_m whose classes all hold their edge; each new vertex hands one
edge to every old vertex, to classes chosen so that every class stays a
linear forest on the floor.  At order 2n every class is a spanning path,
and the last vertex closes each of them into a cycle.

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
    SolverError,
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


def size_floor(m: int, n: int, holds_edge: bool) -> int:
    """The size floor of the module docstring."""
    return 2 * m - 2 * n - holds_edge


def single_vertex_step(
    dec: Decomposition, n: int, ends: list[PathEnds], free: list[list[int]]
) -> None:
    """Attach vertex m to K_m in place, one new edge per old vertex.

    Every class may take at most two new edges, must take enough to meet
    its size floor at order m + 1, may touch a path only at one of its
    endpoints, and may touch each isolated vertex once.  _assign finds
    such an assignment whenever one exists, and raises InternalInfeasible
    otherwise; one always exists for in-contract states.  ends[i] holds
    the path ends of class i and free[v] the classes, ascending, in which
    vertex v is a path end or isolated; lay_edges updates both.
    """
    m = dec.order
    if not 1 <= m <= 2 * n - 1:
        raise PreconditionViolation(f"cannot grow order {m} toward 2n+1, n={n}")
    w = m
    target = size_floor(m + 1, n, True)
    need = []
    for i, cls in enumerate(dec.classes):
        needed = max(0, target - len(cls))
        if needed > 2:
            raise InvariantViolation(f"class {i} fell behind the size schedule")
        need.append(needed)
    owner = _assign(m, need, ends, free)
    new = [(i, v, w) for v, i in enumerate(owner) if i >= 0]
    lay_edges(dec, ends, free, new, 1, "vertex step")

    for i, cls in enumerate(dec.classes):
        if len(cls) < target:
            raise InvariantViolation(f"class {i} below schedule after step")
    if len(new) != m:
        raise InvariantViolation(f"{len(new)} edges added at vertex {w}, expected {m}")
    check_free(ends, free, f"at vertex {w}")


def lay_edges(
    dec: Decomposition,
    ends: list[PathEnds],
    free: list[list[int]],
    new: list[tuple[int, int, int]],
    grow: int,
    stage: str,
) -> None:
    """Append grow new vertices to dec and lay the edges (class, u, w), w
    a new vertex, into the classes, their states and the free lists, in
    place.  A path end that takes an edge of class i is no longer free in
    i, an isolated vertex that takes one stays free, and a new vertex is
    free in the classes in which it took at most one edge.  An edge its
    state's add_edge refuses is the caller's fault: InvariantViolation,
    naming stage, the class and the edge."""
    m = dec.order
    for w in range(m, m + grow):
        for state in ends:
            state.add_vertex(w)
    taken = [[0] * len(ends) for _ in range(grow)]  # per new vertex, per class
    for i, u, w in new:
        if u >= m:
            taken[u - m][i] += 1
        elif u in ends[i].partner:
            free[u].remove(i)
        try:
            ends[i].add_edge(u, w)
        except NotLinearForest as exc:
            raise InvariantViolation(
                f"{stage} at order {m}: class {i} cannot take {edge(u, w)}: {exc}"
            ) from exc
        dec.classes[i].add(edge(u, w))
        taken[w - m][i] += 1
    for counts in taken:
        free.append([i for i, c in enumerate(counts) if c <= 1])
    dec.order = m + grow


def check_free(ends: list[PathEnds], free: list[list[int]], where: str) -> None:
    """Raise InvariantViolation unless the free-class lists hold as many
    entries as the states have path ends and isolated vertices; where
    names the step for the message."""
    listed = sum(map(len, free))
    held = sum(len(e.partner) + len(e.isolated) for e in ends)
    if listed != held:
        raise InvariantViolation(
            f"free-class lists hold {listed} entries {where}, "
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


def check_stage(
    dec: Decomposition,
    n: int,
    held: int,
    where: str,
    error: type[SolverError] = InvariantViolation,
    ends: list[PathEnds] | None = None,
    free: list[list[int]] | None = None,
) -> list[PathEnds]:
    """Check a split handed from one stage to the next, and return the
    path ends of each class; where names the stage for the messages.

    The n classes must meet their size floors, 0..held-1 holding their
    edge of H.  Without free lists they must partition K_order; with them
    (only beside ends) the steps that laid the edges checked that, and
    check_free ties the lists to the states.  Without ends every class is
    scanned (NotLinearForest); carried ends, whose add_edge checked each
    edge laid in since, are tied to the classes by check_ends.  A wrong
    class count or a class below its floor raises error, the rest
    InvariantViolation."""
    if len(dec.classes) != n:
        raise error(f"expected {n} classes {where}, got {len(dec.classes)}")
    if free is None:
        dec.check_partition()
    else:
        check_free(ends, free, where)
    if ends is None:
        ends = []
        for i, cls in enumerate(dec.classes):
            try:
                ends.append(PathEnds(analyze_linear_forest(cls, range(dec.order))))
            except NotLinearForest as exc:
                raise NotLinearForest(f"class {i} {where}: {exc}") from exc
    else:
        check_ends(dec, ends)
    for i, cls in enumerate(dec.classes):
        floor = size_floor(dec.order, n, i < held)
        if len(cls) < floor:
            raise error(f"class {i} has {len(cls)} edges, floor {floor} {where}")
    return ends


def extend_to_hcd(
    dec: Decomposition, n: int, ends: list[PathEnds] | None = None
) -> Decomposition:
    """Grow a qualifying decomposition of K_m into an n-cycle decomposition
    of K_{2n+1}, in place.

    Requires m <= 2n and n classes partitioning K_m, each a linear forest
    holding its edge and meeting its size floor, as check_stage checks.
    ends, when given, holds the path ends of each class carried from the
    stage before, checked by count instead of a scan; they grow with the
    classes.
    """
    if not 1 <= dec.order <= 2 * n:
        raise PreconditionViolation(f"order {dec.order} not in 1..2n")
    ends = check_stage(
        dec, n, n, "at the completion entry", PreconditionViolation, ends
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
