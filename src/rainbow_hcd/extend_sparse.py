"""Growing a forest split of K_r by pairs of fresh vertices.

Round s attaches host vertices m and m+1 (m = r + 2s) to the current
split of K_m, and the reserved class cstar = s + t takes the bridge edge
between them, which is exactly the matching component that class is
responsible for.  The remaining 2m new edges must be spread over the
classes so that every class stays a linear forest and sizes keep pace
with the floor schedule

    |Q_i| >= 4s + 2r - 2n - 1   for i < t + s,
    |Q_i| >= 4s + 2r - 2n       otherwise.

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
and no gate of cstar does.  A paired 2-coloring then splits the chosen
slots between m and m+1: every old vertex sends one slot to each, every
class is split to within one, and the two slots of a gate that took two
go to different new vertices.

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
scan, or else from one analyze_linear_forest scan of each class when the
stage checks its input; they are copied with the split and handed on to
the completion stage with it.  _witness_ok checks the split before it is
applied and leaves the states as they are: per class, each old vertex
stands for the path or isolated vertex it lies on, a union-find over
those and the new vertices finds any cycle the round's new edges would
close, and a count of those edges at each vertex bounds its degree.
_attach lays every new edge through PathEnds.add_edge.  After each round
every class must hold as many edges as its state implies, and the
classes must partition K_m and meet their floors; the stage checks its
input the same way when it is given states.
"""

from __future__ import annotations

import random
from collections import Counter

# balanced_k_coloring and rebalance_drop_one are not called here, but
# perfbench/tracer.py looks them up at these names
from .coloring import (  # noqa: F401
    BipartiteMultigraph,
    balanced_k_coloring,
    paired_balanced_2_coloring,
    rebalance_drop_one,
)
from .errors import InvariantViolation, PreconditionViolation
from .graph_core import (
    Decomposition,
    Edge,
    LinearForestView,
    analyze_linear_forest,
    edge,
)
from .hilton import PathEnds, _assign, check_ends, free_classes

# a witness side: one (class, old vertex) pair per new edge
Witness = list[tuple[int, int]]


def capacity_graph(
    m: int, gates: list[list[tuple[int, ...]]]
) -> BipartiteMultigraph:
    """One edge per free slot at the old vertices 0..m-1: a path gate
    offers one slot at each end to its class, an isolated vertex two.

    gates[i] is PathEnds.gates() of class i.  The round checks its slot
    counts: k at every old vertex and 2(m - |Q_i|) for class i."""
    g = BipartiteMultigraph(len(gates), m)
    for i, class_gates in enumerate(gates):
        for gate in class_gates:
            for v in gate:
                g.add_edge(i, v)
                if len(gate) == 1:
                    g.add_edge(i, v)
    return g


def verify_sparse_state(
    dec: Decomposition,
    r: int,
    t: int,
    n: int,
    s: int,
    ends: list[PathEnds] | None = None,
) -> list[PathEnds]:
    """Check the split after round s and return the path ends of each
    class.

    Without ends, every class is scanned by analyze_linear_forest and the
    states are built from the scans.  With states carried from a scan,
    whose add_edge checked each edge laid in since, every class must hold
    exactly order - paths - isolated edges (hilton.check_ends), which
    catches a class that moved apart from its state.  Both check the
    order, the class count, the partition of K_order and the size
    floors."""
    if dec.order != r + 2 * s:
        raise InvariantViolation(f"order {dec.order}, wanted {r + 2 * s}")
    if len(dec.classes) != n:
        raise InvariantViolation("wrong class count")
    if ends is None:
        ends = [
            PathEnds(analyze_linear_forest(cls, range(dec.order)))
            for cls in dec.classes
        ]
    check_ends(dec, ends)
    for i, cls in enumerate(dec.classes):
        floor = 4 * s + 2 * r - 2 * n - (1 if i < t + s else 0)
        if len(cls) < max(0, floor):
            raise InvariantViolation(
                f"class {i} has {len(cls)} edges, floor {floor} at step {s}"
            )
    dec.check_partition()
    return ends


def extend_with_k2s(
    dec: Decomposition,
    t: int,
    n: int,
    seed: int = 0,
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
    rng = random.Random(seed)
    for s in range(n - t):
        g1, g2 = _stage_witness(dec, ends, t, n, s, rng)
        _attach(dec, ends, g1, g2, s + t)
        verify_sparse_state(dec, r, t, n, s + 1, ends)
        trace.append(f"attach: s={s} order={dec.order}")
    return dec, ends


def _attach(
    dec: Decomposition,
    ends: list[PathEnds],
    g1: Witness,
    g2: Witness,
    cstar: int,
) -> None:
    """Lay the round's new edges into dec and the class states, in place."""
    m = dec.order
    for state in ends:
        state.add_vertex(m)
        state.add_vertex(m + 1)
    for i, u, w in _new_edges(g1, g2, cstar, m):
        ends[i].add_edge(u, w)
        dec.classes[i].add(edge(u, w))
    dec.order = m + 2


def _new_edges(
    g1: Witness, g2: Witness, cstar: int, m: int
) -> list[tuple[int, int, int]]:
    """(class, old or new vertex, new vertex) for every edge of the round,
    the bridge last."""
    out = [(i, u, m) for i, u in g1]
    out += [(i, u, m + 1) for i, u in g2]
    out.append((cstar, m, m + 1))
    return out


def _gain_floor(i: int, cstar: int, x: int) -> int:
    """New edges class i must take this round to stay on the floor
    schedule, given its x = k - (free slots) / 2; at most 0 means none."""
    if i < cstar:
        return 4 - x
    if i == cstar:
        return 3 - x
    return 5 - x


def _stage_witness(
    dec: Decomposition,
    ends: list[PathEnds],
    t: int,
    n: int,
    s: int,
    rng: random.Random,
) -> tuple[Witness, Witness]:
    """The two sides of round s's witness, one per new vertex; ends[i]
    holds the path ends of class i and is not changed."""
    m = dec.order
    k = 2 * n - m + 1
    cstar = s + t
    if k < 4:
        raise InvariantViolation(f"order {m} leaves {k} slots a vertex, n={n}")

    gates = [state.gates() for state in ends]
    gt = capacity_graph(m, gates)
    for u in range(m):
        if gt.degree_y(u) != k:
            raise InvariantViolation(
                f"vertex {u} offers {gt.degree_y(u)} slots, wanted {k}"
            )
    for i in range(n):
        if gt.degree_x(i) != 2 * (m - len(dec.classes[i])):
            raise InvariantViolation(f"class {i} offers the wrong slot count")
    x_of = [k - gt.degree_x(i) // 2 for i in range(n)]
    for i, x in enumerate(x_of):
        if x < (1 if i >= cstar else 0):
            raise InvariantViolation(f"class {i} is below its size floor")

    floors = [max(0, _gain_floor(i, cstar, x)) for i, x in enumerate(x_of)]
    picks = _slot_flow(m, gates, floors, cstar)

    # one edge per chosen slot; the two slots of a gate that took two are
    # mated so they reach different new vertices
    chosen = BipartiteMultigraph(n, m)
    mate: dict[int, int] = {}
    for i, class_picks in enumerate(picks):
        for pick in class_picks:
            fs = [chosen.add_edge(i, v) for v in pick]
            if len(fs) == 2:
                mate[fs[0]] = fs[1]
                mate[fs[1]] = fs[0]
    sides = paired_balanced_2_coloring(chosen, mate, rng)
    g1, g2 = ([chosen.edges[f] for f in sorted(side)] for side in sides)
    if not _witness_ok(dec, ends, g1, g2, cstar, x_of):
        raise InvariantViolation(
            f"witness rejected at step s={s}, order {m}, n={n}, t={t}"
        )
    return g1, g2


def _slot_flow(
    m: int,
    gates: list[list[tuple[int, ...]]],
    floors: list[int],
    cstar: int,
) -> list[list[tuple[int, ...]]]:
    """Two free slots at each of the old vertices 0..m-1, chosen by
    hilton._assign on the round's flow (see the module docstring).

    gates[i] lists the gates of class i: a path as its two ends, or an
    isolated vertex alone.  Class i takes at least floors[i] slots and at
    most 4, cstar at most 2.  The result lists, per class, the vertices at
    which each gate that took a slot took one, a vertex twice for an
    isolated gate that took two; at most one gate per class takes two,
    and none of cstar.  Raises InternalInfeasible when no choice exists.
    """
    # a path enters its state by its two ends, all the search reads
    ends = [
        PathEnds(LinearForestView(
            tuple(g for g in gs if len(g) == 2), tuple(g[0] for g in gs if len(g) == 1)
        ))
        for gs in gates
    ]
    n = len(gates)
    cap = [2 if i == cstar else 4 for i in range(n)]
    owner = _assign(
        m, floors, ends, free_classes(ends, m), 2, cap, [i != cstar for i in range(n)]
    )
    picks: list[list[tuple[int, ...]]] = [[] for _ in gates]
    for v in range(m):
        mine = owner[2 * v:2 * v + 2]
        for i in sorted(set(mine)):
            p = ends[i].partner.get(v, v)
            if p == v or i not in owner[2 * p:2 * p + 2]:
                picks[i].append((v,) * mine.count(i))
            elif v < p:
                picks[i].append((v, p))
    return picks


def _witness_ok(
    dec: Decomposition,
    ends: list[PathEnds],
    g1: Witness,
    g2: Witness,
    cstar: int,
    x_of: list[int],
) -> bool:
    """Definitive acceptance test for a candidate witness.

    Checks, in order: each side touches every old vertex exactly once,
    every receiving class stays a linear forest when its new edges (bridge
    included) are laid in, and per-class gains keep the size floors on
    schedule.  The forest check bounds the new edges each class takes at
    each old vertex by its free slots there, so no slot is spent twice.
    Simulating the attach per class is deliberate: it checks the result,
    not the flow's bounds.  The states in ends are read, never changed."""
    m = dec.order
    n = len(dec.classes)
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
    return all(
        gain[i] >= _gain_floor(i, cstar, x_of[i]) for i in range(n)
    )


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
