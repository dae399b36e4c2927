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
and no gate of cstar does.  The round's witness is _assign's owner list,
two classes per old vertex v at owner[2v] and owner[2v + 1].  One Euler
split (_split_slots) orders each vertex's pair, so that owner[2v] goes to
m and owner[2v + 1] to m + 1: every class is then split to within one,
and the two slots of a gate that took two go to different new vertices.
No round draws a random number.

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
input; they grow in place with the split and go on to the completion
stage with it.  Next to them each old vertex keeps its free classes,
those in which it is a path end or isolated, as one mask with bit i for
class i, built once with hilton.free_classes when the stage has a round
and kept by hilton.lay_edges as in a Hilton vertex step; no round
rebuilds either.
_witness_ok checks the witness before it is applied and leaves the states
as they are: per class, it lays the round's new edges through
PathEnds.add_edge, the one copy of the join rule, into a scratch state
that holds only the paths and isolated vertices those edges reach, so a
third edge at a vertex or a closed cycle is refused as lay_edges would
refuse it.  _attach checks that the round lays 2m + 1 distinct edges,
each with an end at m or m + 1, which keeps a partition of K_m one of
K_{m+2}.  So the partition is proved once, by the scan that built the
states: the embed exit's, or this stage's entry.  hilton.check_stage
checks the floors, and in one pass the state counts and the free-class
masks, after each round; verify_certificate proves the result.
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
from .errors import InvariantViolation, NotLinearForest, PreconditionViolation
from .graph_core import Decomposition, Edge, LinearForestView, edge
from .graph_core import analyze_linear_forest  # noqa: F401
from .hilton import (
    PathEnds,
    _assign,
    check_stage,
    free_classes,
    lay_edges,
    size_floor,
)

def capacity_graph(
    dec: Decomposition, ends: list[PathEnds], free: list[int]
) -> None:
    """Check the round's free slots: a path end offers its class one, an
    isolated vertex two.  Every old vertex must offer k = 2n - m + 1
    slots, one per set bit of its free-class mask free[v] and one more per
    state in ends that holds it isolated.  That class i offers 2(m - |Q_i|)
    is hilton.check_ends's count tie, which the stage entry or the
    previous round has just checked on the same states.  No multigraph of the slots is built; the name stays from
    when one was, since one call per round is how perfbench counts
    rounds."""
    m = dec.order
    k = 2 * len(dec.classes) - m + 1
    if len(free) != m:
        raise InvariantViolation(f"{len(free)} free-class masks at order {m}")
    slots = list(map(int.bit_count, free))
    for state in ends:
        for v in state.isolated:
            slots[v] += 1
    for u, count in enumerate(slots):
        if count != k:
            raise InvariantViolation(
                f"vertex {u} offers {count} slots, wanted {k}"
            )


def extend_with_k2s(
    dec: Decomposition,
    t: int,
    n: int,
    trace: list[str] | None = None,
    ends: list[PathEnds] | None = None,
) -> tuple[Decomposition, list[PathEnds]]:
    """Attach n - t host pairs, one per round, growing dec in place, and
    return it with the path ends of each of its classes.

    The input must be an n-class linear forest split of K_r meeting the
    s = 0 floors; class i is assumed to carry dense edge i for i < t and
    class t + s receives the bridge of round s.  ends, when given, holds
    the path ends of each input class, as embed_dense returns them from
    the scan that proved its split; the input is then tied to them by
    count instead of proved again, and they grow with it.
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
    ends = check_stage(dec, n, t, "at the attach entry", ends=ends)
    free = free_classes(ends, r) if n > t else []
    for s in range(n - t):
        owner = _stage_witness(dec, ends, free, t, n, s)
        _attach(dec, ends, free, owner, s + t)
        check_stage(dec, n, t + s + 1, f"after step {s + 1}", ends=ends, free=free)
        trace.append(f"attach: s={s} order={dec.order}")
    return dec, ends


def _attach(
    dec: Decomposition,
    ends: list[PathEnds],
    free: list[int],
    owner: list[int],
    cstar: int,
) -> None:
    """Lay the round's new edges into dec, the class states and the
    free-class masks, in place, by hilton.lay_edges.

    The round must lay 2m + 1 distinct edges, each with an end at m or
    m + 1: then a split that partitions K_m partitions K_{m+2} after it."""
    m = dec.order
    new = _new_edges(owner, cstar, m)
    laid = {edge(u, w) for _, u, w in new if 0 <= u < w and w in (m, m + 1)}
    if len(new) != 2 * m + 1 or len(laid) != 2 * m + 1:
        raise InvariantViolation(
            f"round at order {m} lays {len(new)} edges, {len(laid)} distinct "
            f"new ones, wanted {2 * m + 1}"
        )
    lay_edges(dec, ends, free, new, 2, "attach round")


def _new_edges(owner: list[int], cstar: int, m: int) -> list[tuple[int, int, int]]:
    """(class, old or new vertex, new vertex) for every edge of the round:
    old vertex v gives owner[2v] to m and owner[2v + 1] to m + 1, and the
    bridge comes last."""
    out = [(i, v, m) for v, i in enumerate(owner[0::2])]
    out += [(i, v, m + 1) for v, i in enumerate(owner[1::2])]
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
    free: list[int],
    t: int,
    n: int,
    s: int,
) -> list[int]:
    """Round s's witness: the class each old vertex v gives each of its
    two new edges to, owner[2v] for m and owner[2v + 1] for m + 1.  ends[i]
    holds the path ends of class i and free[v] the mask of the classes in
    which old vertex v is free, and neither is changed.  hilton._assign
    picks the slots on the round's flow (see the module docstring),
    _split_slots orders each vertex's pair, and _witness_ok must accept
    the result, or the round raises InvariantViolation; _assign raises
    InternalInfeasible when the flow has no solution."""
    m = dec.order
    k = 2 * n - m + 1
    cstar = s + t
    if k < 4:
        raise InvariantViolation(f"order {m} leaves {k} slots a vertex, n={n}")

    capacity_graph(dec, ends, free)
    floors = [max(0, floor) for floor in _gain_floors(dec, cstar)]
    cap = [2 if i == cstar else 4 for i in range(n)]
    owner = _assign(m, floors, ends, free, 2, cap, [i != cstar for i in range(n)])
    owner = _split_slots(m, n, ends, owner)
    if not _witness_ok(dec, ends, owner, cstar):
        raise InvariantViolation(
            f"witness rejected at step s={s}, order {m}, n={n}, t={t}"
        )
    return owner


def _split_slots(
    m: int, n: int, ends: list[PathEnds], owner: list[int]
) -> list[int]:
    """Order the two classes of each old vertex v in owner, as
    hilton._assign returns it, so that owner[2v] goes to m and
    owner[2v + 1] to m + 1; a new list, ends[i] holding the path ends of
    class i.

    The graph has a node per class and one per doubled gate, a gate that
    took two slots, numbered by (class, low end) after the classes; each
    old vertex is an edge joining the nodes of its two slots, taken in
    class order, so a doubled isolated gate is a loop.  The odd nodes are
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
    pairs = [sorted(owner[2 * v:2 * v + 2]) for v in range(m)]
    # the gate of each slot, by its class and low end
    gates = [
        [(i, min(v, ends[i].partner.get(v, v))) for i in pair]
        for v, pair in enumerate(pairs)
    ]
    load = Counter(g for pair in gates for g in pair)
    doubled = sorted(g for g, count in load.items() if count == 2)
    node = {g: x for x, g in enumerate(doubled, n)}

    # adj[x]: (edge, far node, whether leaving x along it sends the
    # vertex's first slot to m + 1), the edge a virtual one from m on
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(n + len(node))]
    for v, (g, h) in enumerate(gates):
        x, y = node.get(g, g[0]), node.get(h, h[0])
        adj[x].append((v, y, False))
        adj[y].append((v, x, True))
    odd = [x for x, inc in enumerate(adj) if len(inc) % 2]
    for e, (x, y) in enumerate(zip(odd[0::2], odd[1::2]), start=m):
        adj[x].append((e, y, False))
        adj[y].append((e, x, False))

    out = [i for pair in pairs for i in pair]
    used = [False] * (m + len(odd) // 2)
    ptr = [0] * len(adj)
    for start in range(len(adj)):
        stack = [start]
        while stack:
            x = stack[-1]
            inc = adj[x]
            while ptr[x] < len(inc) and used[inc[ptr[x]][0]]:
                ptr[x] += 1
            if ptr[x] == len(inc):
                stack.pop()
                continue
            e, y, flip = inc[ptr[x]]
            used[e] = True
            if flip:
                out[2 * e], out[2 * e + 1] = out[2 * e + 1], out[2 * e]
            stack.append(y)
    return out


def _witness_ok(
    dec: Decomposition, ends: list[PathEnds], owner: list[int], cstar: int
) -> bool:
    """Definitive acceptance test for a candidate witness, the owner list
    of _stage_witness.

    Checks, in order: it gives every old vertex one edge to each new
    vertex, every receiving class stays a linear forest when its new edges
    (bridge included) are laid in, and every class meets its gain floor
    (_gain_floors).  The forest check lays each touched class's new edges
    into a scratch PathEnds through add_edge, the join rule lay_edges
    applies, so a slot spent twice or a closed cycle is refused the same
    way.  The scratch holds only what the new edges reach: each touched
    old vertex, with the far end of its path, and the new vertices m and
    m + 1, isolated as lay_edges adds them.  The states in ends are read,
    never changed."""
    m = dec.order
    if len(owner) != 2 * m or min(owner) < 0:
        return False

    touched: dict[int, list[Edge]] = {}
    for i, u, w in _new_edges(owner, cstar, m):
        touched.setdefault(i, []).append((u, w))
    for i, laid in touched.items():
        state = ends[i]
        near = {u for u, _ in laid if u < m}
        paths = {edge(u, state.partner[u]) for u in near if u in state.partner}
        scratch = PathEnds(
            LinearForestView(tuple(paths), (*(near & state.isolated), m, m + 1))
        )
        try:
            for u, w in laid:
                scratch.add_edge(u, w)
        except NotLinearForest:
            return False

    gain = Counter(owner)
    return all(gain[i] >= f for i, f in enumerate(_gain_floors(dec, cstar)))
