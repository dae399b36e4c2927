"""Growing a forest split of K_r by pairs of fresh vertices.

Round s attaches host vertices m and m+1 (m = r + 2s) to the current
split of K_m, and the reserved class with index s + t takes the bridge
edge between them, which is exactly the matching component that class is
responsible for.  The remaining 2m new edges must be spread over the
classes so that every class stays a linear forest and sizes keep pace
with the floor schedule

    |Q_i| >= 4s + 2r - 2n - 1   for i < t + s,
    |Q_i| >= 4s + 2r - 2n       otherwise.

A round draws one balanced coloring of a doubled capacity multigraph
(classes on one side, host vertices on the other, plus a guard vertex).
Two of its colors give four free slots at every old vertex.  A first
paired split cuts them into two sides of two slots per old vertex; the
two copies of a slot land on different sides.  Each side in turn gets a
paired final split between m and m+1: every old vertex sends one slot
to each new vertex, and the two end slots of every path whose ends both
sit in the side go to different new vertices, so no path closes a cycle
at one new vertex.  _witness_ok checks each candidate against the full
list of witness conditions, and only a verified witness is applied.  A
fresh coloring is drawn only when both sides fail, which happens when a
cycle closes through the bridge class or through two whole paths; that
redraw, at most OUTER_TRIES times, is the only retry.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable

from .coloring import (
    BipartiteMultigraph,
    balanced_k_coloring,
    class_sets,
    paired_balanced_2_coloring,
    rebalance_drop_one,
)
from .errors import (
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
    WitnessRejected,
)
from .graph_core import Decomposition, Edge, analyze_linear_forest, edge

OUTER_TRIES = 60

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
        g1, g2, colorings, checks = _stage_witness(dec, t, n, s, rng)
        dec = _attach(dec, g1, g2, s + t)
        verify_sparse_state(dec, r, t, n, s + 1)
        trace.append(
            f"attach: s={s} order={dec.order} "
            f"colorings={colorings} checks={checks}"
        )
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


def _stage_witness(
    dec: Decomposition, t: int, n: int, s: int, rng: random.Random
) -> tuple[Witness, Witness, int, int]:
    """The two sides of round s's witness, one per new vertex, with the
    number of colorings drawn and of candidates checked."""
    m = dec.order
    k = 2 * n - m + 1
    cstar = s + t
    assert k >= 4

    gt = capacity_graph(dec)
    for u in range(m):
        assert gt.degree_y(u) == k, "slot count at a vertex is off"
    for i in range(n):
        assert gt.degree_x(i) == 2 * (m - len(dec.classes[i]))
    x_of = [k - gt.degree_x(i) // 2 for i in range(n)]
    for i, x in enumerate(x_of):
        assert x >= (1 if i >= cstar else 0), "size floor arithmetic broken"

    # doubled slot graph plus a guard vertex tied by 4 parallel edges to
    # every class from cstar on; the guard soaks up capacity so classes
    # past the rainbow front keep one extra edge of slack per round
    ne = len(gt.edges)
    ghat = BipartiteMultigraph(n, m + 1)
    for e in range(ne):
        xe, ye = gt.edges[e]
        ghat.add_edge(xe, ye)
        ghat.add_edge(xe, ye)
    for c in range(cstar, n):
        for _ in range(4):
            ghat.add_edge(c, m)
    assert ghat.degree_y(m) <= 2 * k - 2
    for u in range(m):
        assert ghat.degree_y(u) == 2 * k
    for i in range(n):
        assert ghat.degree_x(i) <= 4 * k

    guard_ids = {e for e, (_, ye) in ghat.edges.items() if ye == m}
    star_ids = {e for e in guard_ids if ghat.edges[e][0] == cstar}
    assert len(star_ids) == 4

    # path endpoints per class, for the pairing
    path_ends: list[list[tuple[int, int]]] = []
    for i in range(n):
        view = analyze_linear_forest(dec.classes[i], range(m))
        path_ends.append([(p[0], p[-1]) for p in view.paths])

    colorings = checks = 0
    for _try in range(OUTER_TRIES):
        colorings += 1
        col = balanced_k_coloring(ghat, k, rng)
        colors = class_sets(col, k)
        bundle_cols = sorted({col[e] for e in star_ids})
        assert len(bundle_cols) == 4, "guard bundle not spread over 4 colors"
        extras = {
            q: [e for e in colors[q] if e in guard_ids and e not in star_ids]
            for q in bundle_cols
        }
        bundle_cols.sort(key=lambda q: (len(extras[q]), q))
        l1, l3, l2, l4 = bundle_cols

        a1 = {e for e in colors[l1] if e not in guard_ids}
        b2 = {e for e in colors[l2] if e not in guard_ids}
        a3 = {e for e in colors[l3] if e not in guard_ids}
        b4 = {e for e in colors[l4] if e not in guard_ids}
        if ghat.degree_x(cstar, a1) == 3:
            a1 = rebalance_drop_one(ghat, a1, b2, cstar, 4)
        if ghat.degree_x(cstar, a3) == 3:
            a3 = rebalance_drop_one(ghat, a3, b4, cstar, 4)
        assert not a1 & a3
        lprime = sorted(a1 | a3)
        assert ghat.degree_x(cstar, set(lprime)) <= 4
        for u in range(m):
            assert ghat.degree_y(u, set(lprime)) == 4

        fgr = BipartiteMultigraph(n, m)
        fid_to_hat: list[int] = []
        for e in lprime:
            xe, ye = ghat.edges[e]
            fgr.add_edge(xe, ye)
            fid_to_hat.append(e)

        pairing = _assemble_pairing(fgr, fid_to_hat, path_ends)
        for chosen in paired_balanced_2_coloring(fgr, pairing, rng):
            g1, g2 = _final_split(fgr, fid_to_hat, chosen, path_ends, rng)
            checks += 1
            if _witness_ok(dec, g1, g2, cstar, x_of):
                return g1, g2, colorings, checks
    raise WitnessRejected(
        f"no witness after {colorings} colorings and {checks} checks at "
        f"step s={s}, order {m}, n={n}, t={t}, k={k}"
    )


def _assemble_pairing(
    fgr: BipartiteMultigraph,
    fid_to_hat: list[int],
    path_ends: list[list[tuple[int, int]]],
) -> dict[int, int]:
    """Pairing for the first split of the four-per-vertex slot graph.

    Mate duplicated slot copies first, so no slot reaches both sides,
    then parallel slots of one bundle, then slots at the two ends of one
    path; the rest stay unpaired."""
    mate: dict[int, int] = {}
    unpaired: set[int] = set(range(len(fid_to_hat)))

    by_under: dict[int, list[int]] = {}
    for f, e in enumerate(fid_to_hat):
        by_under.setdefault(e // 2, []).append(f)
    for under in sorted(by_under):
        fs = by_under[under]
        if len(fs) == 2:
            a, b = fs
            mate[a] = b
            mate[b] = a
            unpaired -= {a, b}

    for _, bund in sorted(fgr.bundles().items()):
        free = [f for f in bund if f in unpaired]
        while len(free) >= 2:
            a, b = free.pop(0), free.pop(0)
            mate[a] = b
            mate[b] = a
            unpaired -= {a, b}

    mate.update(_mate_path_ends(fgr, unpaired, path_ends))
    return mate


def _final_split(
    fgr: BipartiteMultigraph,
    fid_to_hat: list[int],
    chosen: set[int],
    path_ends: list[list[tuple[int, int]]],
    rng: random.Random,
) -> tuple[Witness, Witness]:
    """Split one side of the first split between the new vertices m and
    m + 1.

    Every old vertex holds two slots of `chosen`, and the paired
    2-coloring gives one to each new vertex.  The two end slots of every
    path whose ends both sit in `chosen` are mated, so no path closes a
    cycle at one new vertex."""
    fids = sorted(chosen)
    sub = BipartiteMultigraph(fgr.x_size, fgr.y_size)
    for f in fids:
        sub.add_edge(*fgr.edges[f])
    mate = _mate_path_ends(sub, sub.edges, path_ends)
    sides = paired_balanced_2_coloring(sub, mate, rng)
    g1, g2 = (
        [(*sub.edges[j], fid_to_hat[fids[j]] // 2) for j in sorted(side)]
        for side in sides
    )
    return g1, g2


def _mate_path_ends(
    g: BipartiteMultigraph,
    free: Iterable[int],
    path_ends: list[list[tuple[int, int]]],
) -> dict[int, int]:
    """Mate one free slot at each end of every path whose two ends both
    offer one in g."""
    mate: dict[int, int] = {}
    free_at: dict[tuple[int, int], list[int]] = {}
    for f in sorted(free):
        free_at.setdefault(g.edges[f], []).append(f)
    for i, ends in enumerate(path_ends):
        for z, w in ends:
            fz = free_at.get((i, z), [])
            fw = free_at.get((i, w), [])
            if fz and fw:
                a, b = fz.pop(0), fw.pop(0)
                mate[a] = b
                mate[b] = a
    return mate


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
    class is deliberate: degree caps and endpoint rules alone still admit
    a cycle through both new vertices across two old paths."""
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
    for i in range(n):
        if i < cstar:
            need = 4 - x_of[i]
        elif i == cstar:
            need = 3 - x_of[i]
        else:
            need = 5 - x_of[i]
        if gain[i] < max(0, need):
            return False
    return True
