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
The split works on flat int lists, as the hilton kernels do: a slot's
gate is one key i * m + low for class i and low end low, each old
vertex's edge has two end ids, 2v and 2v + 1, and the virtual edges
joining odd nodes are numbered from m.  No round draws a random number.

The flow is feasible exactly when the round has a witness.  A gate that
takes two slots joins m to m+1 inside its class; two such gates close a
cycle, and so does one in cstar together with the bridge.  A class with
more than 4 new edges, or cstar with more than 2, puts a third edge at a
new vertex.  So every valid witness is a feasible flow.  Conversely, the
split of a feasible flow gives each new vertex at most two edges of a
class (at most one of cstar beside the bridge), no path takes both its
ends at one new vertex, and a class joins m to m+1 at most once, so every
class stays a linear forest; the lower bounds keep the floors.

The rounds grow the hilton.ForestSplit they are given: per class its
edge count, neighbour slots and a hilton.PathEnds state holding its path
ends, and per old vertex the mask of its free classes, those in which it
is a path end or isolated, bit i for class i.  The split comes proved,
by the scan of the embed stage's exit or of the caller; each round reads
its gates and slots from the states and the masks, and hilton.lay_edges
lays its edges into all of them, as in a Hilton vertex step, so nothing
is rebuilt between rounds.  _witness_ok checks only the witness's gain
floors before it is applied.  The round hands lay_edges the witness as
one owner list per new vertex, owner[0::2] for m and owner[1::2] for
m + 1, with cstar as the bridge class.  lay_edges checks its shape, that
every old vertex gives each new vertex one edge, which keeps a partition
of K_m one of K_{m+2}, and lays each edge through PathEnds.add_edge, the
one copy of the join rule: a third edge at a vertex or a closed cycle is
an InvariantViolation there.
hilton.check_stage checks the floors, and in one pass the state counts
and the free-class masks, after each round; verify_certificate proves
the result.
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
from .graph_core import analyze_linear_forest  # noqa: F401
from .hilton import ForestSplit, PathEnds, _assign, check_stage, lay_edges, size_floor


def capacity_graph(split: ForestSplit) -> None:
    """Check the round's free slots: a path end offers its class one, an
    isolated vertex two.  Every old vertex must offer k = 2n - m + 1
    slots, one per set bit of its free-class mask and one more per state
    that holds it isolated.  That class i offers 2(m - |Q_i|) is
    hilton.check_stage's count tie, which the stage entry or the previous
    round has just checked on the same states.  No multigraph of the
    slots is built; the name stays from when one was, since one call per
    round is how perfbench counts rounds."""
    free = split.free
    m = split.order
    k = 2 * len(split.count) - m + 1
    if len(free) != m:
        raise InvariantViolation(f"{len(free)} free-class masks at order {m}")
    slots = list(map(int.bit_count, free))
    for state in split.ends:
        for v in state.isolated:
            slots[v] += 1
    for u, count in enumerate(slots):
        if count != k:
            raise InvariantViolation(
                f"vertex {u} offers {count} slots, wanted {k}"
            )


def extend_with_k2s(
    split: ForestSplit, t: int, n: int, trace: list[str] | None = None
) -> ForestSplit:
    """Attach n - t host pairs, one per round, growing the split in place,
    and return it.

    The domain is the whole contract, and a split outside it raises
    PreconditionViolation: 2 <= t <= n; order r <= 2t - 1, which leaves
    every round k = 2n - m + 1 >= 4 slots a vertex; and n classes, proved
    linear forests partitioning K_r (the split's scan), classes 0..t-1
    meeting the floor 2r - 2n - 1 and the rest 2r - 2n.  Class i is taken
    to carry edge i of H for i < t, and class t + s receives the bridge
    of round s.  A split whose states drifted from its classes raises
    InvariantViolation.
    """
    if trace is None:
        trace = []
    if not 2 <= t <= n:
        raise PreconditionViolation(f"need 2 <= t <= n, got t={t}, n={n}")
    if split.order > 2 * t - 1:
        raise PreconditionViolation(
            "vertex count must stay below twice the edge count"
        )
    check_stage(split, n, t, "at the attach entry", PreconditionViolation)
    for s in range(n - t):
        owner = _stage_witness(split, t, n, s)
        lay_edges(split, [owner[0::2], owner[1::2]], s + t, "attach round")
        check_stage(split, n, t + s + 1, f"after step {s + 1}")
        trace.append(f"attach: s={s} order={split.order}")
    return split


def _stage_witness(split: ForestSplit, t: int, n: int, s: int) -> list[int]:
    """Round s's witness: the class each old vertex v gives each of its
    two new edges to, owner[2v] for m and owner[2v + 1] for m + 1, read
    from the split, which is not changed.  hilton._assign picks the slots
    on the round's flow (see the module docstring), _split_slots orders
    each vertex's pair, and _witness_ok must accept the result, or the
    round raises InvariantViolation; _assign raises InternalInfeasible
    when the flow has no solution.  Every class but cstar has cap 4, and
    _assign gives a class a doubler exactly when its cap passes 2.

    Every vertex offers k = 2n - m + 1 >= 4 slots: extend_with_k2s takes
    order r <= 2t - 1 only, and round s <= n - t - 1 runs at m = r + 2s,
    so k >= 2(n - t - s) + 2 >= 4."""
    m = split.order
    cstar = s + t
    capacity_graph(split)
    # the new edges each class must take, the bridge not counted, to meet
    # its size floor at order m + 2; at most 0 means none
    floors = [
        size_floor(m + 2, n, i <= cstar) - k - (i == cstar)
        for i, k in enumerate(split.count)
    ]
    cap = [2 if i == cstar else 4 for i in range(n)]
    owner = _assign(m, [max(0, f) for f in floors], split.ends, split.free, 2, cap)
    owner = _split_slots(m, n, split.ends, owner)
    if not _witness_ok(owner, floors):
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

    The graph lives in flat int lists.  A slot's gate is the key
    i * m + low for class i and low end low, which sorts as (i, low) does
    because low < m, and a doubled gate is a key seen twice.  End 2v of
    old vertex v's edge leaves the node of its first slot, walking the
    edge forward, and end 2v + 1 leaves that of its second, walking it
    back, which swaps the pair; virtual edge e, numbered from m, has ends
    2e and 2e + 1 and swaps nothing.  far[d] is the node at the other end
    of end d.  Each node lists its ends in the order their edges were
    added, old vertices by number and virtual edges last, so the walk
    takes every edge in the same direction as one on (class, low end)
    tuples and (edge, far node, flip) triples would, and the result is
    the same list; the tests keep that tuple form as reference_split and
    compare the two.

    So every old vertex gives one slot to each side.  A circuit leaves
    each node as often as it enters it, and a node has at most one
    virtual edge, so every node's slots are split to within one.  A
    doubled gate's node has degree 2 and no virtual edge, so its two
    slots go to different sides; a class's slots are its own node's and
    those of its doubled gate, so the class is split to within one too.
    hilton.lay_edges checks the result all the same: its shape before the
    round is laid, and each class as its edges are laid.
    """
    out = owner[:]
    # each vertex's pair in class order, and the gate key of each slot
    keys = []
    for v, a, b in zip(range(m), owner[0::2], owner[1::2]):
        if a > b:
            a, b = b, a
            out[2 * v], out[2 * v + 1] = a, b
        p = ends[a].partner.get(v, v)
        keys.append(a * m + (p if p < v else v))
        p = ends[b].partner.get(v, v)
        keys.append(b * m + (p if p < v else v))
    # a gate takes at most two slots, so a doubled key sorts next to itself
    ranked = sorted(keys)
    twice = [key for key, nxt in zip(ranked, ranked[1:]) if key == nxt]
    node = dict(zip(twice, range(n, n + len(twice))))
    # the node of each slot: its doubled gate's, or its class's
    at = [node.get(key, i) for key, i in zip(keys, out)]
    far = at[:]
    far[0::2], far[1::2] = at[1::2], at[0::2]
    adj: list[list[int]] = [[] for _ in range(n + len(twice))]
    for d, x in enumerate(at):
        adj[x].append(d)
    odd = [x for x, inc in enumerate(adj) if len(inc) % 2]
    d = 2 * m
    for x, y in zip(odd[0::2], odd[1::2]):
        adj[x].append(d)
        adj[y].append(d + 1)
        far += (y, x)
        d += 2

    # used[d]: end d's edge was walked from its other end; each node's
    # iterator has passed the ends walked from it
    used = [False] * len(far)
    walk = [iter(inc) for inc in adj]
    for start in range(len(adj)):
        stack = [start]
        while stack:
            x = stack[-1]
            for d in walk[x]:
                if not used[d]:
                    break
            else:
                stack.pop()
                continue
            used[d ^ 1] = True
            if d & 1 and d < 2 * m:
                out[d - 1], out[d] = out[d], out[d - 1]
            stack.append(far[d])
    return out


def _witness_ok(owner: list[int], floors: list[int]) -> bool:
    """Acceptance test for a candidate witness, the owner list of
    _stage_witness: class i takes at least floors[i] new edges, the
    round's gain floors.  hilton.lay_edges checks the witness's shape, one
    class for each old vertex and new vertex, before it lays the round,
    and that every class stays a linear forest as each edge is laid."""
    gain = Counter(owner)
    return all(gain[i] >= f for i, f in enumerate(floors))
