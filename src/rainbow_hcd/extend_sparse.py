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
two ends, or one of its isolated vertices.  Each round solves one
max-flow with lower bounds, which picks two slots at every old vertex:

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
_witness_ok re-checks the split before it is applied.
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
from .errors import (
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
)
from .graph_core import Decomposition, Edge, analyze_linear_forest, edge
from .hilton import PathEnds, _Dinic

# a witness side: one (class, vertex, capacity-slot id) triple per new edge
Witness = list[tuple[int, int, int]]


def capacity_graph(dec: Decomposition) -> BipartiteMultigraph:
    """One edge per free endpoint slot: a path endpoint offers one slot to
    its class, an isolated vertex offers two."""
    m = dec.order
    g = BipartiteMultigraph(len(dec.classes), m)
    for i, cls in enumerate(dec.classes):
        view = analyze_linear_forest(cls, range(m))
        for p in view.paths:
            g.add_edge(i, p[0])
            g.add_edge(i, p[-1])
        for v in view.isolated:
            g.add_edge(i, v)
            g.add_edge(i, v)
    return g


def verify_sparse_state(
    dec: Decomposition, r: int, t: int, n: int, s: int
) -> None:
    if dec.order != r + 2 * s:
        raise InvariantViolation(f"order {dec.order}, wanted {r + 2 * s}")
    if len(dec.classes) != n:
        raise InvariantViolation("wrong class count")
    dec.check_partition()
    for i, cls in enumerate(dec.classes):
        analyze_linear_forest(cls, range(dec.order))
        floor = 4 * s + 2 * r - 2 * n - (1 if i < t + s else 0)
        if len(cls) < max(0, floor):
            raise InvariantViolation(
                f"class {i} has {len(cls)} edges, floor {floor} at step {s}"
            )


def extend_with_k2s(
    dec: Decomposition,
    t: int,
    n: int,
    seed: int = 0,
    trace: list[str] | None = None,
) -> Decomposition:
    """Attach n - t host pairs, one per round, and return the grown split.

    The input must be an n-class linear forest split of K_r meeting the
    s = 0 floors; class i is assumed to carry dense edge i for i < t and
    class t + s receives the bridge of round s.
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
    verify_sparse_state(dec, r, t, n, 0)
    rng = random.Random(seed)
    for s in range(n - t):
        g1, g2 = _stage_witness(dec, t, n, s, rng)
        dec = _attach(dec, g1, g2, s + t)
        verify_sparse_state(dec, r, t, n, s + 1)
        trace.append(f"attach: s={s} order={dec.order}")
    return dec


def _attach(
    dec: Decomposition, g1: Witness, g2: Witness, cstar: int
) -> Decomposition:
    m = dec.order
    classes = [set(c) for c in dec.classes]
    for i, u, _ in g1:
        classes[i].add(edge(u, m))
    for i, u, _ in g2:
        classes[i].add(edge(u, m + 1))
    classes[cstar].add(edge(m, m + 1))
    return Decomposition(m + 2, classes)


def _gain_floor(i: int, cstar: int, x: int) -> int:
    """New edges class i must take this round to stay on the floor
    schedule, given its x = k - (free slots) / 2; at most 0 means none."""
    if i < cstar:
        return 4 - x
    if i == cstar:
        return 3 - x
    return 5 - x


def _stage_witness(
    dec: Decomposition, t: int, n: int, s: int, rng: random.Random
) -> tuple[Witness, Witness]:
    """The two sides of round s's witness, one per new vertex."""
    m = dec.order
    k = 2 * n - m + 1
    cstar = s + t
    if k < 4:
        raise InvariantViolation(f"order {m} leaves {k} slots a vertex, n={n}")

    gt = capacity_graph(dec)
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

    gates = [
        PathEnds(analyze_linear_forest(cls, range(m))).gates()
        for cls in dec.classes
    ]
    floors = [max(0, _gain_floor(i, cstar, x)) for i, x in enumerate(x_of)]
    picks = _slot_flow(m, gates, floors, cstar)

    # one edge per chosen slot; the two slots of a gate that took two are
    # mated so they reach different new vertices
    chosen = BipartiteMultigraph(n, m)
    slot_of: list[int] = []
    mate: dict[int, int] = {}
    free = gt.bundles()
    for i, class_picks in enumerate(picks):
        for pick in class_picks:
            fs = []
            for v in pick:
                fs.append(chosen.add_edge(i, v))
                slot_of.append(free[(i, v)].pop(0))
            if len(fs) == 2:
                mate[fs[0]] = fs[1]
                mate[fs[1]] = fs[0]
    sides = paired_balanced_2_coloring(chosen, mate, rng)
    g1, g2 = (
        [(*chosen.edges[f], slot_of[f]) for f in sorted(side)]
        for side in sides
    )
    if not _witness_ok(dec, g1, g2, cstar, x_of):
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
    """Two free slots at each of the old vertices 0..m-1, chosen by one
    max-flow with lower bounds (see the module docstring).

    gates[i] lists the gates of class i: a path as its two ends, or an
    isolated vertex alone.  Class i takes at least floors[i] slots and at
    most 4, cstar at most 2.  The result lists, per class, the vertices at
    which each gate that took a slot took one, a vertex twice for an
    isolated gate that took two; at most one gate per class takes two,
    and none of cstar.  Raises InternalInfeasible when no choice exists.
    """
    fl = _Dinic()
    src = fl.add_node()
    snk = fl.add_node()
    vnode = [fl.add_node() for _ in range(m)]
    gate_arcs: list[tuple[int, tuple[int, ...], list[int]]] = []
    for i, class_gates in enumerate(gates):
        cnode = fl.add_node()
        fl.add_bounded_arc(src, cnode, floors[i], 2 if i == cstar else 4)
        if i != cstar:
            dbl = fl.add_node()
            fl.add_arc(cnode, dbl, 1)
        for ends in class_gates:
            gate = fl.add_node()
            fl.add_arc(cnode, gate, 1)
            if i != cstar:
                fl.add_arc(dbl, gate, 1)
            cap = 2 if len(ends) == 1 else 1
            gate_arcs.append(
                (i, ends, [fl.add_arc(gate, vnode[v], cap) for v in ends])
            )
    for v in range(m):
        fl.add_bounded_arc(vnode[v], snk, 2, 2)
    if not fl.feasible(src, snk):
        raise InternalInfeasible(
            f"no slot choice meets the floors {floors} at order {m}"
        )

    picks: list[list[tuple[int, ...]]] = [[] for _ in gates]
    for i, ends, arcs in gate_arcs:
        pick = tuple(
            v for v, aid in zip(ends, arcs) for _ in range(fl.flow_on(aid))
        )
        if pick:
            picks[i].append(pick)
    return picks


def _witness_ok(
    dec: Decomposition,
    g1: Witness,
    g2: Witness,
    cstar: int,
    x_of: list[int],
) -> bool:
    """Definitive acceptance test for a candidate witness.

    Checks, in order: each side touches every old vertex exactly once, no
    capacity slot is spent twice, every receiving class stays a linear
    forest when its new edges (bridge included) are laid in, and per-class
    gains keep the size floors on schedule.  Simulating the attach per
    class is deliberate: it checks the result, not the flow's bounds."""
    m = dec.order
    n = len(dec.classes)
    for side in (g1, g2):
        if sorted(u for _, u, _ in side) != list(range(m)):
            return False
    slots = [sl for _, _, sl in g1 + g2]
    if len(set(slots)) != len(slots):
        return False

    touched: dict[int, list[Edge]] = {}
    for i, u, _ in g1:
        touched.setdefault(i, []).append(edge(u, m))
    for i, u, _ in g2:
        touched.setdefault(i, []).append(edge(u, m + 1))
    touched.setdefault(cstar, []).append(edge(m, m + 1))
    for i, extra in touched.items():
        trial = set(dec.classes[i])
        trial.update(extra)
        if len(trial) != len(dec.classes[i]) + len(extra):
            return False
        try:
            analyze_linear_forest(trial, range(m + 2))
        except NotLinearForest:
            return False

    gain = Counter(i for i, _, _ in g1 + g2)
    return all(
        gain[i] >= _gain_floor(i, cstar, x_of[i]) for i in range(n)
    )
