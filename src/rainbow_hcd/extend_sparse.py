"""Growing a forest split of K_r by pairs of fresh vertices.

Round s attaches host vertices m and m+1 (m = r + 2s) to the current
split of K_m, and the reserved class cstar = s + t takes the bridge edge
between them, which is exactly the matching component that class is
responsible for.  The remaining 2m new edges must be spread over the
classes so that every class stays a linear forest and meets the size
floor of the hilton module docstring at order m + 2, where the classes
up to cstar hold their edge of H.  The gain floor need_i of class i is
the number of new edges, the bridge not counted, it must take for that.

A class takes a new edge only at a free slot: a path end offers one, an
isolated vertex two.  A gate of a class is one of its paths, given by its
two ends, or one of its isolated vertices.  Each round picks two slots at
every old vertex by one flow with lower bounds, which hilton._assign
searches on the class states, the same search as a Hilton vertex step:

    source -> class i        at least the gain floor need_i, at most 4
                             (at most 2 for cstar)
    class i -> gate          at most 1
    class i -> doubler_i     at most 1, for every class but cstar
    doubler_i -> gate        at most 1
    path gate -> each end    at most 1
    isolated gate -> vertex  at most 2
    old vertex -> sink       exactly 2

so a gate takes at most two slots, at most one gate per class takes two,
and no gate of cstar does.  One Euler split (_split_slots) then divides
the chosen slots between m and m+1: every old vertex sends one slot to
each, every class is split to within one, and the two slots of a gate
that took two go to different new vertices.  No round draws a random
number.

The flow is feasible exactly when the round has a witness.  A gate that
takes two slots joins m to m+1 inside its class; two such gates close a
cycle, and so does one in cstar together with the bridge.  A class with
more than 4 new edges, or cstar with more than 2, puts a third edge at a
new vertex.  So every valid witness is a feasible flow.  Conversely, the
split of a feasible flow gives each new vertex at most two edges of a
class (at most one of cstar beside the bridge), no path takes both its
ends at one new vertex, and a class joins m to m+1 at most once, so every
class stays a linear forest; the lower bounds keep the floors.

A hilton.PathEnds state per class carries its path ends through the
rounds, and each round reads its gates and slots from the states alone.
The states come from the caller, carried from the embed stage's exit
scan, or else from one scan of each class when the stage checks its
input; they are copied with the split and handed on to the completion
stage with it.  Next to them each old vertex keeps its free classes,
those in which it is a path end or isolated, built once with
hilton.free_classes when the stage has a round and kept by
hilton.lay_edges as in a Hilton vertex step; no round rebuilds either.
_witness_ok checks the split before it is applied and leaves the states
as they are: per class, each old vertex stands for the path or isolated
vertex it lies on, a union-find over those and the new vertices finds
any cycle the round's new edges would close, and a count of those edges
at each vertex bounds its degree.  _attach checks that the round lays
2m + 1 distinct edges, each with an end at m or m + 1, which keeps a
partition of K_m one of K_{m+2}, so hilton.check_stage checks the full
partition at the stage entry only, and the free lists after each round;
verify_certificate is the one full proof of the result.
"""

from __future__ import annotations

from collections import Counter

# the colourings and analyze_linear_forest are not called here, but
# perfbench/tracer.py looks them up at these names
from .coloring import (  # noqa: F401
    balanced_k_coloring,
    paired_balanced_2_coloring,
    rebalance_drop_one,
)
from .errors import InvariantViolation, PreconditionViolation
from .graph_core import Decomposition, Edge, edge
from .graph_core import analyze_linear_forest  # noqa: F401
from .hilton import (
    PathEnds,
    _assign,
    check_stage,
    free_classes,
    lay_edges,
    size_floor,
)

# a witness side: one (class, old vertex) pair per new edge
Witness = list[tuple[int, int]]


def capacity_graph(
    dec: Decomposition, ends: list[PathEnds], free: list[list[int]]
) -> None:
    """Check the round's free slots: a path end offers its class one, an
    isolated vertex two.  Every old vertex must offer k = 2n - m + 1
    slots, read from its free list free[v] and the states in ends.  That
    class i offers 2(m - |Q_i|) is hilton.check_ends's count tie, which
    the stage entry or the previous round has just checked on the same
    states.  No multigraph of the slots is built; the name stays from
    when one was, since one call per round is how perfbench counts
    rounds."""
    m = dec.order
    k = 2 * len(dec.classes) - m + 1
    if len(free) != m:
        raise InvariantViolation(f"{len(free)} free lists at order {m}")
    slots = [len(classes) for classes in free]
    for state in ends:
        for v in state.isolated:
            slots[v] += 1
    for u, count in enumerate(slots):
        if count != k:
            raise InvariantViolation(
                f"vertex {u} offers {count} slots, wanted {k}"
            )


def verify_sparse_state(
    dec: Decomposition,
    r: int,
    t: int,
    n: int,
    s: int,
    ends: list[PathEnds] | None = None,
    free: list[list[int]] | None = None,
) -> list[PathEnds]:
    """Check the split after round s, at order r + 2s, with classes
    0..t+s-1 holding their edge of H, and return the path ends of each
    class (hilton.check_stage)."""
    if dec.order != r + 2 * s:
        raise InvariantViolation(f"order {dec.order}, wanted {r + 2 * s}")
    return check_stage(dec, n, t + s, f"after step {s}", ends=ends, free=free)


def extend_with_k2s(
    dec: Decomposition,
    t: int,
    n: int,
    trace: list[str] | None = None,
    ends: list[PathEnds] | None = None,
) -> tuple[Decomposition, list[PathEnds]]:
    """Attach n - t host pairs, one per round, and return the grown split
    with the path ends of each of its classes; the input split and states
    are left unchanged.

    The input must be an n-class linear forest split of K_r meeting the
    s = 0 floors; class i is assumed to carry dense edge i for i < t and
    class t + s receives the bridge of round s.  ends, when given, holds
    the path ends of each input class, as embed_dense returns them; the
    input is then checked against them instead of by a scan.
    """
    r = dec.order
    if trace is None:
        trace = []
    if not 2 <= t <= n:
        raise PreconditionViolation(f"need 2 <= t <= n, got t={t}, n={n}")
    if r > 2 * t - 1:
        raise PreconditionViolation(
            "vertex count must stay below twice the edge count"
        )
    ends = verify_sparse_state(dec, r, t, n, 0, ends)
    dec = dec.copy()
    ends = [state.copy() for state in ends]
    free = free_classes(ends, r) if n > t else []
    for s in range(n - t):
        g1, g2 = _stage_witness(dec, ends, free, t, n, s)
        _attach(dec, ends, free, g1, g2, s + t)
        verify_sparse_state(dec, r, t, n, s + 1, ends, free)
        trace.append(f"attach: s={s} order={dec.order}")
    return dec, ends


def _attach(
    dec: Decomposition,
    ends: list[PathEnds],
    free: list[list[int]],
    g1: Witness,
    g2: Witness,
    cstar: int,
) -> None:
    """Lay the round's new edges into dec, the class states and the free
    lists, in place, by hilton.lay_edges.

    The round must lay 2m + 1 distinct edges, each with an end at m or
    m + 1: then a split that partitions K_m partitions K_{m+2} after it."""
    m = dec.order
    new = _new_edges(g1, g2, cstar, m)
    laid = {edge(u, w) for _, u, w in new if 0 <= u < w and w in (m, m + 1)}
    if len(new) != 2 * m + 1 or len(laid) != 2 * m + 1:
        raise InvariantViolation(
            f"round at order {m} lays {len(new)} edges, {len(laid)} distinct "
            f"new ones, wanted {2 * m + 1}"
        )
    lay_edges(dec, ends, free, new, 2, "attach round")


def _new_edges(
    g1: Witness, g2: Witness, cstar: int, m: int
) -> list[tuple[int, int, int]]:
    """(class, old or new vertex, new vertex) for every edge of the round,
    the bridge last."""
    out = [(i, u, m) for i, u in g1]
    out += [(i, u, m + 1) for i, u in g2]
    out.append((cstar, m, m + 1))
    return out


def _gain_floors(dec: Decomposition, cstar: int) -> list[int]:
    """The new edges each class must take in the round at order m, the
    bridge not counted, to meet its size floor at order m + 2, where the
    classes up to cstar hold their edge of H; at most 0 means none."""
    m, n = dec.order, len(dec.classes)
    return [
        size_floor(m + 2, n, i <= cstar) - len(cls) - (i == cstar)
        for i, cls in enumerate(dec.classes)
    ]


def _stage_witness(
    dec: Decomposition,
    ends: list[PathEnds],
    free: list[list[int]],
    t: int,
    n: int,
    s: int,
) -> tuple[Witness, Witness]:
    """The two sides of round s's witness, one per new vertex; ends[i]
    holds the path ends of class i and free[v] the classes in which old
    vertex v is free, and neither is changed.  _slot_flow picks the slots,
    _split_slots divides them between the new vertices, and _witness_ok
    must accept the result, or the round raises InvariantViolation."""
    m = dec.order
    k = 2 * n - m + 1
    cstar = s + t
    if k < 4:
        raise InvariantViolation(f"order {m} leaves {k} slots a vertex, n={n}")

    capacity_graph(dec, ends, free)
    floors = [max(0, floor) for floor in _gain_floors(dec, cstar)]
    picks = _slot_flow(m, ends, free, floors, cstar)
    g1, g2 = _split_slots(m, n, picks)
    if not _witness_ok(dec, ends, g1, g2, cstar):
        raise InvariantViolation(
            f"witness rejected at step s={s}, order {m}, n={n}, t={t}"
        )
    return g1, g2


def _slot_flow(
    m: int,
    ends: list[PathEnds],
    free: list[list[int]],
    floors: list[int],
    cstar: int,
) -> list[list[tuple[int, ...]]]:
    """Two free slots at each of the old vertices 0..m-1, chosen by
    hilton._assign on the round's flow (see the module docstring).

    ends[i] holds the path ends of class i, whose gates are its paths, by
    their two ends, and its isolated vertices; free[v] lists the classes
    in which v lies in a gate, ascending.  Class i takes at least
    floors[i] slots and at most 4, cstar at most 2.  The result lists, per
    class, the vertices at which each gate that took a slot took one, a
    vertex twice for an isolated gate that took two; at most one gate per
    class takes two, and none of cstar.  Raises InternalInfeasible when no
    choice exists.
    """
    n = len(ends)
    cap = [2 if i == cstar else 4 for i in range(n)]
    owner = _assign(m, floors, ends, free, 2, cap, [i != cstar for i in range(n)])
    picks: list[list[tuple[int, ...]]] = [[] for _ in ends]
    for v in range(m):
        mine = owner[2 * v:2 * v + 2]
        for i in sorted(set(mine)):
            p = ends[i].partner.get(v, v)
            if p == v or i not in owner[2 * p:2 * p + 2]:
                picks[i].append((v,) * mine.count(i))
            elif v < p:
                picks[i].append((v, p))
    return picks


def _split_slots(
    m: int, n: int, picks: list[list[tuple[int, ...]]]
) -> tuple[Witness, Witness]:
    """Split the slots chosen by _slot_flow between the new vertices: the
    two sides of the round's witness, for m and for m + 1, each listing
    its (class, old vertex) pairs in the order of picks.

    The graph has a node per class and one per doubled gate, a gate that
    took two slots; each old vertex is an edge joining the nodes of its
    two slots, so a doubled isolated gate is a loop.  The odd nodes are
    joined in pairs, in ascending order, by virtual edges, and the Euler
    circuit of each component (Hierholzer) is walked from its lowest
    node.  Each old vertex sends the slot at the tail of its edge to m
    and the one at the head to m + 1.

    So every old vertex gives one slot to each side.  A circuit leaves
    each node as often as it enters it, and a node has at most one
    virtual edge, so every node's slots are split to within one.  A
    doubled gate's node has degree 2 and no virtual edge, so its two
    slots go to different sides; a class's slots are its own node's and
    those of its doubled gate, so the class is split to within one too.
    _witness_ok checks the result all the same.
    """
    slots: Witness = []
    at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    nodes = n
    for i, class_picks in enumerate(picks):
        for pick in class_picks:
            node = i
            if len(pick) == 2:
                node, nodes = nodes, nodes + 1
            for v in pick:
                at[v].append((len(slots), node))
                slots.append((i, v))

    # adj[x]: (edge, slot at the far end or -1 if virtual, far node)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(nodes)]
    for v, mine in enumerate(at):
        if len(mine) != 2:
            raise InvariantViolation(
                f"old vertex {v} has {len(mine)} chosen slots, wanted 2"
            )
        (a, x), (b, y) = mine
        adj[x].append((v, b, y))
        adj[y].append((v, a, x))
    odd = [x for x, inc in enumerate(adj) if len(inc) % 2]
    for e, (x, y) in enumerate(zip(odd[0::2], odd[1::2]), start=m):
        adj[x].append((e, -1, y))
        adj[y].append((e, -1, x))

    used = [False] * (m + len(odd) // 2)
    head = [False] * len(slots)
    ptr = [0] * nodes
    for start in range(nodes):
        stack = [start]
        while stack:
            x = stack[-1]
            inc = adj[x]
            while ptr[x] < len(inc) and used[inc[ptr[x]][0]]:
                ptr[x] += 1
            if ptr[x] == len(inc):
                stack.pop()
                continue
            e, far, y = inc[ptr[x]]
            used[e] = True
            if far >= 0:
                head[far] = True
            stack.append(y)
    g1 = [slot for slot, h in zip(slots, head) if not h]
    g2 = [slot for slot, h in zip(slots, head) if h]
    return g1, g2


def _witness_ok(
    dec: Decomposition,
    ends: list[PathEnds],
    g1: Witness,
    g2: Witness,
    cstar: int,
) -> bool:
    """Definitive acceptance test for a candidate witness.

    Checks, in order: each side touches every old vertex exactly once,
    every receiving class stays a linear forest when its new edges (bridge
    included) are laid in, and every class meets its gain floor
    (_gain_floors).  The forest check bounds the new edges each class
    takes at each old vertex by its free slots there, so no slot is spent
    twice.
    Simulating the attach per class is deliberate: it checks the result,
    not the flow's bounds.  The states in ends are read, never changed."""
    m = dec.order
    for side in (g1, g2):
        if sorted(u for _, u in side) != list(range(m)):
            return False

    touched: dict[int, list[Edge]] = {}
    for i, u, w in _new_edges(g1, g2, cstar, m):
        touched.setdefault(i, []).append((u, w))
    for i, extra in touched.items():
        if not _stays_linear(ends[i], extra, m):
            return False

    gain = Counter(i for i, _ in g1 + g2)
    return all(gain[i] >= f for i, f in enumerate(_gain_floors(dec, cstar)))


def _stays_linear(state: PathEnds, extra: list[Edge], m: int) -> bool:
    """Whether the linear forest on 0..m-1 held by state stays one when
    the edges in extra, each with an end at a new vertex m or m + 1, are
    laid in.  Only the new edges are walked: each old vertex stands for
    the path or isolated vertex it lies on, named by its low end, and a
    union-find over those names and the new vertices finds any cycle the
    new edges close.  A vertex may take two new edges if isolated or new,
    one if a path end, none if interior."""
    used: Counter[int] = Counter()
    parent: dict[int, int] = {}
    for e in extra:
        roots = []
        for x in e:
            if x >= m or x in state.isolated:
                name, free = x, 2
            elif x in state.partner:
                name, free = min(x, state.partner[x]), 1
            else:
                name, free = x, 0
            used[x] += 1
            if used[x] > free:
                return False
            while name in parent:
                name = parent[name]
            roots.append(name)
        a, b = roots
        if a == b:
            return False
        parent[a] = b
    return True
