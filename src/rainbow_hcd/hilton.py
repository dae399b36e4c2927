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

The pipeline carries one ForestSplit from the embed exit to the close.
It keeps no edge set: per class an edge count, two neighbour-slot lists
sized 2n + 1 (first[v] and second[v], -1 where empty) and a PathEnds
state holding its path ends, and per vertex one int holding its free
classes, those in which it is a path end or isolated, as bit i for
class i.  ForestSplit.scan builds it from a bare Decomposition and is
the one proof of the split: check_partition proves that the classes
partition K_m, and then one pass over each class, which fills its slots
and walks each path once from its lower end off them, shows it is a
linear forest and gives its state and its bits of the masks.  From there
the split grows in place.  lay_edges takes a step's or a round's edges
as one owner list per new vertex, the class each old vertex gives its
edge to, plus a round's bridge class, and first checks that every old
vertex gives each new vertex exactly one edge: that keeps a partition of
K_m one of the grown clique, so no step or round re-proves it.  It lays
the edges into the slots, the counts, the states and the masks together,
each through add_edge, the one copy of the join rule, whose returned far
end tells whether the old vertex was a path end, and so fills its second
slot and loses the class, or was isolated and fills its first; a new
vertex's mask is read off the states once its edges are laid.
check_stage runs where a stage takes the split on and after each round
and step: it checks the class count and the floors, and in one pass over
the states ties each class's count to the count its state implies and
the masks' total bit count to the states.  close_final_vertex fills the
last vertex's slots and walks each class's slots into its row, the
cycle order a certificate carries.  The choice at each vertex is a flow
with lower bounds, source -> class -> gate -> vertex -> sink, where a
gate is a path's pair of ends or an isolated vertex.  _assign takes a
greedy start when it already meets every bound, as most vertex steps'
starts do, and otherwise searches the flow by augmenting paths on the
states and the free-class masks, without building a network; each
attach round of extend_sparse picks its slots with the same search.
_Dinic, a general max-flow with lower bounds, has no caller here: the
tests check both uses of _assign on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ge, lt, sub

from .errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
    SolverError,
)
from .graph_core import Decomposition, Edge, edge, slot_row

# analyze_linear_forest is not called here, but perfbench/tracer.py looks
# it up at this name
from .graph_core import analyze_linear_forest  # noqa: F401

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
    A new vertex enters isolated, as lay_edges adds it to every class.
    """

    def __init__(self, partner: dict[int, int], isolated: set[int]) -> None:
        self.partner = partner
        self.isolated = isolated

    def gates(self) -> list[tuple[int, ...]]:
        """Where the forest may take a new edge: each path as its (low,
        high) ends, ascending, then each isolated vertex, ascending, in the
        order LinearForestView lists them."""
        ends = sorted((a, b) for a, b in self.partner.items() if a < b)
        return ends + [(v,) for v in sorted(self.isolated)]

    def add_edge(self, u: int, v: int) -> int:
        """Join u and v, or raise NotLinearForest if that would give a
        vertex a third edge or close a path into a cycle.  Returns the far
        end of the path u ended before the join, u itself if u was
        isolated."""
        partner, isolated = self.partner, self.isolated
        # a and b: the far ends of the paths through u and v, an isolated
        # vertex being its own
        a = u if u in isolated else partner.get(u)
        if a is None:
            raise NotLinearForest(f"vertex {u} has no free end for {edge(u, v)}")
        b = v if v in isolated else partner.get(v)
        if b is None:
            raise NotLinearForest(f"vertex {v} has no free end for {edge(u, v)}")
        if a == v:
            raise NotLinearForest(f"edge {edge(u, v)} closes a cycle")
        if a == u:
            isolated.remove(u)
        else:
            del partner[u]
        if b == v:
            isolated.remove(v)
        else:
            del partner[v]
        partner[a] = b
        partner[b] = a
        return a


@dataclass
class ForestSplit:
    """A split of K_order into linear forests as the stages carry it, with
    no edge set: class i holds count[i] edges, the neighbours of vertex v
    in first[i][v] and second[i][v] (-1 where empty, both lists sized
    2n + 1 for the n classes), and its path ends in ends[i]; free[v] is
    the mask of the classes in which vertex v is a path end or isolated.
    scan builds one; lay_edges grows it in place, check_stage ties the
    counts, the states and the masks together, and close_final_vertex
    walks the slots into rows."""

    order: int
    count: list[int]
    first: list[list[int]]
    second: list[list[int]]
    ends: list[PathEnds]
    free: list[int]

    @classmethod
    def scan(cls, dec: Decomposition, where: str = "in the scan") -> ForestSplit:
        """The split of dec, proved: its classes must partition K_order
        (InvariantViolation) and each must be a linear forest
        (NotLinearForest, naming the class and where), which one slot pass
        over each class shows and turns into its slots, state and mask
        bits."""
        dec.check_partition()
        order = dec.order
        size = max(order, 2 * len(dec.classes) + 1)
        split = cls(order, list(map(len, dec.classes)), [], [], [], [0] * order)
        for i, edges in enumerate(dec.classes):
            first = [-1] * size
            second = [-1] * size
            try:
                state = _forest_state(edges, order, first, second, split.free, 1 << i)
            except NotLinearForest as exc:
                raise NotLinearForest(f"class {i} {where}: {exc}") from exc
            split.first.append(first)
            split.second.append(second)
            split.ends.append(state)
        return split


def _forest_state(
    edges: set[Edge],
    order: int,
    first: list[int],
    second: list[int],
    free: list[int],
    bit: int,
) -> PathEnds:
    """The state of one class of a partition of K_order, each edge (u, v)
    with 0 <= u < v < order, or NotLinearForest; the edges fill the empty
    neighbour slots first and second, and bit is set in free[v] for each
    path end and isolated vertex v.  A third edge at a vertex refuses the
    class.  A vertex with its second slot empty is isolated or a path end,
    and each path is walked once, from its lower end, to find its other:
    from cur it steps to first[cur] + second[cur] - prev, the slot that
    does not lead back, which past an end, its second slot empty, is -1.
    The walks cover every edge unless an edge lies on a cycle."""
    for e in edges:
        u, v = e
        if first[u] < 0:
            first[u] = v
        elif second[u] < 0:
            second[u] = v
        else:
            raise NotLinearForest(f"degree above two at edge {e}")
        if first[v] < 0:
            first[v] = u
        elif second[v] < 0:
            second[v] = u
        else:
            raise NotLinearForest(f"degree above two at edge {e}")
    partner: dict[int, int] = {}
    isolated: set[int] = set()
    walked = 0
    for x in range(order):
        if second[x] >= 0:
            continue
        free[x] |= bit
        cur = first[x]
        if cur < 0:
            isolated.add(x)
        elif x not in partner:  # else x is the far end of a walked path
            prev = x
            while cur >= 0:
                prev, cur = cur, first[cur] + second[cur] - prev
                walked += 1
            partner[x] = prev
            partner[prev] = x
    if walked != len(edges):
        # an edge lies on a cycle: name the lowest vertex whose walk
        # comes back to it
        for x in range(order):
            prev, cur = x, first[x]
            while cur >= 0 and cur != x:
                prev, cur = cur, first[cur] + second[cur] - prev
            if cur == x:
                raise NotLinearForest(f"a cycle runs through edge {edge(x, first[x])}")
    return PathEnds(partner, isolated)


def size_floor(m: int, n: int, holds_edge: bool) -> int:
    """The size floor of the module docstring."""
    return 2 * m - 2 * n - holds_edge


def single_vertex_step(split: ForestSplit, n: int) -> None:
    """Attach vertex m to K_m in place, one new edge per old vertex.

    Every class may take at most two new edges, must take enough to meet
    its size floor at order m + 1, may touch a path only at one of its
    endpoints, and may touch each isolated vertex once.  _assign finds
    such an assignment whenever one exists, and raises InternalInfeasible
    otherwise; one always exists for in-contract states.  lay_edges grows
    the split, and check_stage checks it after the step.

    Each class must meet its floor at order m, as the check_stage that
    last ran on the split shows: extend_to_hcd's entry check, or the one
    after the previous step.  The floor grows by two a vertex, so no
    class needs more than the two edges it may take.
    """
    m = split.order
    if not 1 <= m <= 2 * n - 1:
        raise PreconditionViolation(f"cannot grow order {m} toward 2n+1, n={n}")
    target = size_floor(m + 1, n, True)
    need = [target - k if k < target else 0 for k in split.count]
    lay_edges(split, [_assign(m, need, split.ends, split.free)], None, "vertex step")
    check_stage(split, n, n, f"at vertex {m}")


def lay_edges(
    split: ForestSplit, owners: list[list[int]], bridge: int | None, stage: str
) -> None:
    """Append one new vertex per owner list to the split, and lay its
    edges into the slots, counts and states of the classes and the
    free-class masks, in place: old vertex v gives new vertex m + k the
    edge of class owners[k][v], and with two new vertices class bridge
    takes the edge between them.

    Before anything is laid, every owner list must name a class of the
    split for each of the m old vertices, and a bridge must come exactly
    when two vertices do: then the new edges are those of the grown
    clique that K_m lacks, each once, and a split that partitions K_m
    partitions the grown clique.  A path end that takes an edge of class
    i fills its second slot and loses bit i, an isolated vertex that
    takes one fills its first and keeps it, a new vertex fills its slots
    in the order its edges come, and its mask is read off the states once
    its edges are laid: the classes in which it is still isolated or is a
    path end.  A wrong shape, or an edge its state's add_edge refuses, is
    the caller's fault: InvariantViolation, naming stage (and the class
    and the edge)."""
    ends, free, count = split.ends, split.free, split.count
    first, second = split.first, split.second
    m = split.order
    n = len(ends)
    for w, owner in enumerate(owners, m):
        if len(owner) != m or min(owner) < 0 or max(owner) >= n:
            valid = sum(0 <= i < n for i in owner)
            raise InvariantViolation(
                f"{stage} at order {m}: {valid} of {len(owner)} owners of new "
                f"vertex {w} are classes 0..{n - 1}, wanted {m}"
            )
    if len(owners) != (1 if bridge is None else 2) or not 0 <= (bridge or 0) < n:
        raise InvariantViolation(
            f"{stage} at order {m}: {len(owners)} new vertices with bridge "
            f"class {bridge}, wanted one without or two with a class 0..{n - 1}"
        )
    grown = range(m, m + len(owners))
    for w in grown:
        for state in ends:
            state.isolated.add(w)
    try:
        for w, owner in zip(grown, owners):
            for u, i in enumerate(owner):
                # add_edge returns u unless u was a path end, interior now
                if ends[i].add_edge(u, w) == u:
                    first[i][u] = w
                else:
                    free[u] &= ~(1 << i)
                    second[i][u] = w
                slots = first[i]
                if slots[w] < 0:
                    slots[w] = u
                else:
                    second[i][w] = u
                count[i] += 1
        if bridge is not None:
            i, u, w = bridge, m, m + 1
            ends[i].add_edge(u, w)
            for x, y in ((u, w), (w, u)):
                (first[i] if first[i][x] < 0 else second[i])[x] = y
            count[i] += 1
    except NotLinearForest as exc:
        raise InvariantViolation(
            f"{stage} at order {m}: class {i} cannot take {edge(u, w)}: {exc}"
        ) from exc
    for w in grown:
        free.append(sum(
            1 << i for i, state in enumerate(ends)
            if w in state.isolated or w in state.partner
        ))
    split.order = grown.stop


def _assign(
    m: int,
    need: list[int],
    ends: list[PathEnds],
    free: list[int],
    units: int = 1,
    cap: list[int] | None = None,
) -> list[int]:
    """The class each old vertex 0..m-1 gives each of its units (new
    edges) to, in one flat list: vertex v's units sit at v * units on.
    Class i takes need[i] to cap[i] units (2 by default) at its gates
    ends[i].gates(): one at a path end, up to units at an isolated vertex,
    and two at one gate at most, only if it has a doubler, which is when
    cap[i] > 2.  free[v] is the mask of the classes in which v lies in a
    gate, bit i for class i.  Raises InternalInfeasible when there is no
    such choice.  A Hilton step gives 1 unit a vertex to classes of cap 2;
    an attach round gives 2, to classes of cap 4, each with a doubler, and
    to its bridge class cstar, of cap 2, without one.

    This is the flow source -> class -> gate -> vertex -> sink, with the
    doublers of the extend_sparse module docstring, searched on the class
    of each unit and the vertices each class holds.  _warm_start gives a
    start within every upper bound.  A start that places every unit and
    meets every floor is a feasible flow, and is returned as it is.
    Otherwise each vertex short of a unit gets one by an augmenting path
    (home), and each class below its floor one more by an augmenting
    cycle through a class above its floor (fill).
    home needs only free and the path partners, and walks a vertex's
    classes in ascending order; fill reads a class's gates when it first
    opens that class, once per call.

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

    fill tests a vertex for a class above its floor when it offers the
    vertex, not when it takes it off its queue.  Nothing moves during a
    search and the queue is first in, first out, so the first vertex
    offered that passes is the first one taken off that would: the search
    ends at the same vertex, by the same path, having opened fewer
    classes, and it still reaches every vertex before it fails.
    """
    n = len(need)
    cap = cap or [2] * n
    doubler = [c > 2 for c in cap]
    partner = [e.partner for e in ends]
    gates: dict[int, list[tuple[int, ...]]] = {}  # class -> its gates()
    # the search that last opened each class, and that last searched its
    # doubler, numbered from 1: no buffer per search
    opened = [0] * n
    dopened = [0] * n
    search = 0
    owner, load = _warm_start(need, free, partner, units, cap)
    if -1 not in owner and all(map(ge, load, need)):
        return owner  # a feasible start: nothing to search
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
        nonlocal search
        search += 1
        came = {v: (-1, -1)}  # vertex -> (vertex taking its unit, class)
        queue = [v]
        # the classes without a doubler that this search has opened: each
        # is full and its units' vertices are queued, so a later visit
        # can neither augment nor queue through it, and is skipped
        shut = 0
        for y in queue:
            frm = came[y][1]
            classes = free[y] & ~shut
            if frm >= 0:
                classes &= ~(1 << frm)
            while classes:
                low = classes & -classes
                classes ^= low
                i = low.bit_length() - 1
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
                if not fed and doubler[i] and dopened[i] != search:
                    dopened[i] = search
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
                if fed and opened[i] != search:
                    opened[i] = search
                    if not doubler[i]:
                        shut |= low
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
        nonlocal search
        search += 1
        came: dict[int, tuple[int, int]] = {}  # vertex -> (taker, given up)
        queue: list[int] = []

        def offer(y: int, taker: int, given: int) -> bool:
            """Queue y for taker, which gives up given for it, and augment
            at once if one of y's units is in a class above its floor."""
            came[y] = (taker, given)
            queue.append(y)
            for i in owner[y * units:y * units + units]:
                if i != taker and len(held[i]) > need[i]:
                    x, frm = y, i
                    while x >= 0:
                        taker, given = came[x]
                        move(x, frm, taker)
                        x, frm = given, taker
                    return True
            return False

        def open_class(i: int, given: int, p: int | None) -> bool:
            """Offer the vertices of the empty gates of class i, which given
            leaves at its gate with other end p; once the doubler is fed, by
            the class while no gate holds two or by that gate giving up its
            second unit, of those with one unit too.  True once an offer
            has augmented."""
            h = held[i]
            top = doubler[i] and dopened[i] != search and (
                h.count(given) == 2 or p in h or not doubled(i)
            )
            if opened[i] == search and not top:
                return False
            opened[i] = search
            if top:
                dopened[i] = search
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
                    if y not in came and offer(y, i, given):
                        return True
            for x in hidden:
                del came[x]
            for y in h if top else ():
                # a gate holding one unit takes another at its other end, or
                # twice at an isolated vertex when a vertex gives two
                x = partner[i].get(y, y)
                one = h.count(y) + (x != y and x in h) == 1
                if one and (x != y or units == 2) and x not in came:
                    if offer(x, i, given):
                        return True
            return False

        if open_class(start, -1, None):
            return True
        for y in queue:
            taker = came[y][0]
            for i in owner[y * units:y * units + units]:
                if i == taker:
                    continue
                p = partner[i].get(y)
                if p is not None and p not in came and p not in held[i]:
                    if offer(p, i, y):
                        return True
                if opened[i] != search or doubler[i] and dopened[i] != search:
                    if open_class(i, y, p):
                        return True
        return False

    # home places only the unit it starts from, and fill raises only the
    # class it starts from and lowers none below its floor, so the units
    # and classes short at the start are the ones to search from
    for u in [u for u, i in enumerate(owner) if i < 0]:
        if not home(u // units):
            raise InternalInfeasible(
                f"no class can take vertex {u // units} at order {m}"
            )
    for i in [i for i in range(n) if len(held[i]) < need[i]]:
        while len(held[i]) < need[i]:
            if not fill(i):
                raise InternalInfeasible(f"class {i} misses its floor at order {m}")
    return owner


def _warm_start(
    need: list[int],
    free: list[int],
    partner: list[dict[int, int]],
    units: int,
    cap: list[int],
) -> tuple[list[int], list[int]]:
    """A greedy start for _assign's search, within every upper bound and
    flat as _assign returns, unplaced units -1, and the units it gives
    each class, its load: vertices with the fewest classes first, each
    unit to the class furthest below its floor whose gate at the vertex
    holds no unit yet, the lowest such class on a tie; first up to the
    floors, then up to the caps.

    Each pass sweeps the vertices once per unit k, in that order.  A pass
    after the first sweeps, for each k, only the vertices that the last
    sweep of k left unplaced, in the same order, since it would skip the
    others.  A sweep stops when every class is at the pass's bound, and
    the tail it did not reach goes on to the next pass with its
    leftovers.

    The classes are kept in one mask per gap (need - load) and one mask of
    those still open (load below the pass's bound), so a vertex none of
    whose classes is open costs one test, and the class it takes is the
    lowest set bit, in the highest gap, that passes the gate test.  A
    class's gap only falls, so once the buckets of the highest gaps are
    empty they stay so, and each scan starts at the first that is not.
    Each class sits in one bucket, so a scan also stops once it has
    tested every class open at the vertex."""
    m, n = len(free), len(need)
    owner = [-1] * (m * units)
    took = [0] * m  # per vertex, the classes holding one of its units
    load = [0] * n
    bits = [1 << i for i in range(n)]
    top_gap = max(need)
    # by_gap[top_gap - g]: the classes with need - load == g, so the
    # highest gap comes first; no load passes max(need, cap)
    low_gap = min(0, min(map(sub, need, cap)))
    gaps = top_gap - low_gap + 1
    by_gap = [0] * gaps
    for bit, d in zip(bits, need):
        by_gap[top_gap - d] |= bit

    count = list(map(int.bit_count, free))
    order = sorted(range(m), key=count.__getitem__)
    # per unit, the vertices the next sweep of it visits, in order: all of
    # them at first, then those the last sweep left unplaced
    sweeps = [order] * units
    first = 0  # the first bucket that is not empty
    for top in (need, cap) if any(need) else (cap,):
        room = sum(compress(bits, map(lt, load, top)))
        for k in range(units):
            if not room:
                break
            left = []
            swept = iter(sweeps[k])
            for v in swept:
                # the lowest class passing the gate test in the first bucket
                # that holds one; with none, v is left to the next pass
                classes = free[v] & room & ~took[v]
                g = first
                while classes:
                    tied = classes & by_gap[g]
                    classes ^= tied
                    while tied:
                        bit = tied & -tied
                        i = bit.bit_length() - 1
                        p = partner[i].get(v)
                        if p is None or not took[p] & bit:
                            break
                        tied ^= bit
                    else:
                        g += 1
                        continue
                    break
                else:
                    left.append(v)
                    continue
                owner[v * units + k] = i
                took[v] |= bit
                by_gap[g] ^= bit
                by_gap[g + 1] |= bit
                if g == first and not by_gap[g]:
                    first += 1
                load[i] += 1
                if load[i] == top[i]:
                    room ^= bit
                    if not room:
                        left += swept  # the tail this sweep did not reach
                        break
            sweeps[k] = left
    return owner, load


def close_final_vertex(split: ForestSplit, n: int) -> list[list[int]]:
    """Join vertex 2n to both ends of each spanning path, closing cycles,
    and return each class's row: its slots walked from 0 toward the lower
    of 0's two neighbours (graph_core.slot_row), the order a certificate
    carries.

    Each class must hold one path by its state (a single path gate).  The
    states must be tied to their classes, 2n - 1 edges each, by the
    check_stage that last ran on the split: the last vertex step's, or at
    order 2n the completion entry's.  The classes must partition K_2n, as
    the scan proved and every step since kept.  Then each vertex has
    degree 2n - 1 over n spanning paths, so it ends exactly one of them,
    and the 2n closing ends cover 0..2n-1 once: the new edges split the
    star at 2n among the classes.  The closing ends fill their second
    slots, and 2n its two.  A class that does not walk into one cycle
    through all 2n + 1 vertices raises InvariantViolation;
    verify_certificate proves the rows."""
    m = split.order
    if m != 2 * n:
        raise PreconditionViolation(f"closing needs order 2n, got {m}")
    for i, state in enumerate(split.ends):
        gates = state.gates()
        if len(gates) != 1 or len(gates[0]) != 2:
            raise InternalInfeasible(f"class {i} is not a spanning path")
        a, b = gates[0]
        first, second = split.first[i], split.second[i]
        first[m], second[m] = a, b
        second[a] = second[b] = m
        split.count[i] += 2
    split.order = m + 1
    rows = []
    for i, (first, second) in enumerate(zip(split.first, split.second)):
        row = slot_row(first, second)
        if row is None:
            raise InvariantViolation(
                f"class {i} does not close into one Hamiltonian cycle"
            )
        rows.append(row)
    return rows


def check_stage(
    split: ForestSplit,
    n: int,
    held: int,
    where: str,
    error: type[SolverError] = InvariantViolation,
) -> None:
    """Check a split handed from one stage to the next; where names the
    stage for the messages.

    The n classes must meet their size floors, 0..held-1 holding their
    edge of H, by their edge counts.  The split was proved by its scan and
    grown since by rounds and steps that keep the partition and lay each
    edge through add_edge, so one pass over the states ties it together:
    there must be one state per class, every class's count must be exactly
    order - paths - isolated, the count its state implies, and the
    free-class masks must hold as many set bits in all as the states have
    path ends and isolated vertices.  A class that moved apart from its
    state breaks the tie.  A wrong class count or a class below its floor
    raises error, the rest InvariantViolation."""
    ends, sizes = split.ends, split.count
    if len(sizes) != n:
        raise error(f"expected {n} classes {where}, got {len(sizes)}")
    if len(ends) != n:
        raise InvariantViolation(f"{len(ends)} path-end states for {n} classes")
    order = split.order
    implied = []
    free_total = 0
    for s in ends:
        ends_count, isolated = len(s.partner), len(s.isolated)
        implied.append(order - ends_count // 2 - isolated)
        free_total += ends_count + isolated
    if sizes != implied:
        i = next(i for i, k in enumerate(sizes) if k != implied[i])
        raise InvariantViolation(
            f"class {i} drifted from its path ends {where}: {sizes[i]} edges, "
            f"its ends imply {implied[i]}"
        )
    listed = sum(map(int.bit_count, split.free))
    if listed != free_total:
        raise InvariantViolation(
            f"free-class masks hold {listed} classes {where}, "
            f"the path ends {free_total}"
        )
    floors = (size_floor(order, n, False), size_floor(order, n, True))
    short = [i for i, k in enumerate(sizes) if k < floors[i < held]]
    if short:
        i = short[0]
        raise error(f"class {i} has {sizes[i]} edges, floor {floors[i < held]} {where}")


def extend_to_hcd(split: ForestSplit, n: int) -> list[list[int]]:
    """Grow a qualifying split of K_m into an n-cycle decomposition of
    K_{2n+1}, in place, and return its n rows (close_final_vertex).

    Requires m <= 2n and n classes, each holding its edge and meeting its
    size floor, as check_stage checks; that they partition K_m into linear
    forests is what the split's scan proved.
    """
    if not 1 <= split.order <= 2 * n:
        raise PreconditionViolation(f"order {split.order} not in 1..2n")
    check_stage(split, n, n, "at the completion entry", PreconditionViolation)
    while split.order < 2 * n:
        single_vertex_step(split, n)
    return close_final_vertex(split, n)


def truncate_to_order(dec: Decomposition, m: int) -> Decomposition:
    """Restriction of every class to the vertices 0..m-1, as a new object."""
    if not 1 <= m <= dec.order:
        raise PreconditionViolation("bad truncation order")
    return Decomposition(
        m, [{e for e in cls if e[1] < m} for cls in dec.classes]
    )
