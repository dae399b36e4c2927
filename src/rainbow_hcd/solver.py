"""Front door of the library: route an instance to a strategy and return a
verified certificate.

Strategies, tried in this order:

* BASE_SMALL: any instance with at most 5 edges.  Plant edge i in class i
  and complete every class to a Hamiltonian cycle by seeded backtracking.
* ALL_K2: a disjoint union of single edges.  Pick one edge per class of
  the standard hub construction so the picks form a matching, then read
  the input off those endpoints.
* LINEAR_FOREST: paths only, 6 or more edges.  A ladder: randomized
  embedding into the hub construction, then a matching schedule when the
  instance is one long path, then the planted backtracking engine.
* MAIN_PIPELINE: everything else.  Embed the components with 2+ edges
  into a small clique, grow it two vertices per remaining single edge,
  and finish by per-vertex extension to the full odd clique.

Certificates always place the input graph on host vertices 0..v-1; use
relabel_hosts to move it elsewhere.  Every route ends with a full
certificate verification.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .embed_dense import embed_dense
from .errors import (
    InfeasibleInput,
    InternalInfeasible,
    InvariantViolation,
    NotLinearForest,
    SearchExhausted,
)
from .extend_sparse import extend_with_k2s
from .graph_core import (
    Decomposition,
    Edge,
    RainbowCertificate,
    analyze_linear_forest,
    component_edge_groups,
    edge,
    edge_vertices,
    relabel_decomposition,
    verify_certificate,
    walecki,
)
from .hilton import extend_to_hcd


class Strategy(enum.Enum):
    BASE_SMALL = "base-small"
    ALL_K2 = "all-k2"
    LINEAR_FOREST = "linear-forest"
    MAIN_PIPELINE = "pipeline"


@dataclass
class ComponentSplit:
    """Instance split into thick components (2+ edges each) and the rest,
    which are single disjoint edges.  Indices point into the edge list."""

    thick_idx: list[list[int]]
    k2_idx: list[int]

    @property
    def t(self) -> int:
        return sum(len(g) for g in self.thick_idx)

    @property
    def k2_count(self) -> int:
        return len(self.k2_idx)


def split_components(internal: list[Edge]) -> ComponentSplit:
    """Group edge indices by connected component, components ordered by
    smallest vertex, and split off the single-edge components."""
    groups = component_edge_groups(internal)
    return ComponentSplit(
        [g for g in groups if len(g) >= 2],
        [g[0] for g in groups if len(g) == 1],
    )


def route(split: ComponentSplit, internal: list[Edge], n: int) -> Strategy:
    """Pick the strategy for a validated instance."""
    if n <= 5:
        return Strategy.BASE_SMALL
    if split.t == 0:
        return Strategy.ALL_K2
    nv = len(edge_vertices(internal))
    try:
        analyze_linear_forest(internal, range(nv))
    except NotLinearForest:
        return Strategy.MAIN_PIPELINE
    return Strategy.LINEAR_FOREST


def solve(h_edges, seed: int = 0) -> RainbowCertificate:
    """Build a decomposition of K_{2n+1} into n Hamiltonian cycles in
    which the given n-edge graph is rainbow.  Deterministic per
    (input, seed)."""
    edges_in: list[Edge] = []
    for pair in h_edges:
        u, v = pair
        if not isinstance(u, int) or not isinstance(v, int):
            raise InfeasibleInput(f"vertex labels must be integers: {pair!r}")
        if u == v:
            raise InfeasibleInput(f"loop at vertex {u}")
        edges_in.append(edge(u, v))
    if len(set(edges_in)) != len(edges_in):
        raise InfeasibleInput("repeated edge")
    n = len(edges_in)
    if n == 0:
        raise InfeasibleInput("instance needs at least one edge")

    vs = edge_vertices(edges_in)
    if len(vs) > 2 * n + 1:
        raise InfeasibleInput("more vertices than K_{2n+1} can hold")
    to_int = {v: i for i, v in enumerate(vs)}
    internal = [edge(to_int[u], to_int[v]) for u, v in edges_in]

    split = split_components(internal)
    tag = route(split, internal, n)
    if tag is Strategy.BASE_SMALL:
        dec, hosts, assignment, trace = _base_small(internal, n, seed)
    elif tag is Strategy.ALL_K2:
        dec, hosts, assignment, trace = _base_all_k2(internal, n, seed)
    elif tag is Strategy.LINEAR_FOREST:
        dec, hosts, assignment, trace = _base_linear_forest(internal, n, seed)
    else:
        dec, hosts, assignment, trace = _main_pipeline(internal, split, n, seed)

    dec, hosts = _canonical_hosts(dec, hosts, len(vs))
    label_map = {lab: hosts[i] for i, lab in enumerate(vs)}
    cert = RainbowCertificate(
        n, seed, edges_in, label_map, assignment,
        dec, [f"route: {tag.value}"] + trace,
    )
    report = verify_certificate(cert)
    if not report.ok:
        raise InvariantViolation(
            "certificate failed self check:\n" + "\n".join(report.lines())
        )
    return cert


def relabel_hosts(
    cert: RainbowCertificate, perm: dict[int, int]
) -> RainbowCertificate:
    """Move a certificate onto another host labeling of the same clique.
    perm must be a bijection on 0..2n."""
    dec = relabel_decomposition(cert.decomposition, perm)
    label_map = {lab: perm[h] for lab, h in cert.label_map.items()}
    return RainbowCertificate(
        cert.n, cert.seed, list(cert.h_edges), label_map,
        list(cert.assignment), dec, list(cert.trace),
    )


def _canonical_hosts(
    dec: Decomposition, hosts: dict[int, int], nv: int
) -> tuple[Decomposition, dict[int, int]]:
    """Permute host vertices so internal vertex i sits on host i."""
    ident = {i: i for i in range(nv)}
    if hosts == ident:
        return dec, hosts
    perm = {hosts[i]: i for i in range(nv)}
    spare = sorted(h for h in range(dec.order) if h not in perm)
    for j, h in enumerate(spare):
        perm[h] = nv + j
    return relabel_decomposition(dec, perm), ident


# ---------------------------------------------------------------------------
# planted completion engine, shared by BASE_SMALL and the forest fallback


class _Budget(Exception):
    pass


def _complete_planted(
    planted: list[Edge], n: int, rng: random.Random, budget: int | None
) -> list[list[int]] | None:
    """Grow each class from its planted edge into a Hamiltonian cycle of
    K_{2n+1}, classes in order, always extending the open end of the
    current path.  Returns the cycles as vertex sequences, or None when
    the node budget runs out.  SearchExhausted means the whole space was
    explored empty, which contradicts solvability; callers treat it as
    fatal."""
    order = 2 * n + 1
    used: set[Edge] = set(planted)
    if len(used) != n:
        raise InternalInfeasible("planted edges are not distinct")
    cycles: list[list[int]] = []
    nodes = 0

    def extend(ci: int, path: list[int], on_path: set[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _Budget
        if len(path) == order:
            close = edge(path[0], path[-1])
            if close in used:
                return False
            used.add(close)
            cycles.append(list(path))
            if ci + 1 == n or start_class(ci + 1):
                return True
            cycles.pop()
            used.discard(close)
            return False
        tail = path[-1]
        cands = [
            w
            for w in range(order)
            if w not in on_path and edge(tail, w) not in used
        ]
        rng.shuffle(cands)
        for w in cands:
            e = edge(tail, w)
            used.add(e)
            path.append(w)
            on_path.add(w)
            if extend(ci, path, on_path):
                return True
            on_path.discard(w)
            path.pop()
            used.discard(e)
        return False

    def start_class(ci: int) -> bool:
        a, b = planted[ci]
        return extend(ci, [a, b], {a, b})

    try:
        if start_class(0):
            return cycles
    except _Budget:
        return None
    raise SearchExhausted("planted completion explored the whole space")


_StageOut = tuple[Decomposition, dict[int, int], list[int], list[str]]


def _planted_solve(
    internal: list[Edge], n: int, seed: int, label: str
) -> _StageOut:
    """Plant edge i in class i on hosts 0..v-1 and search with escalating
    budgets, then once without a budget.  Planting edge i in class i
    loses no generality: class indices are symmetric and host vertices
    get permuted afterwards anyway."""
    budgets: list[int | None] = [50_000, 400_000, 3_200_000, None]
    for attempt, budget in enumerate(budgets):
        rng = random.Random(f"{seed}:{label}:{attempt}")
        cycles = _complete_planted(internal, n, rng, budget)
        if cycles is None:
            continue
        classes = [
            {edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))}
            for c in cycles
        ]
        dec = Decomposition(2 * n + 1, classes)
        dec.check_hcd()
        nv = len(edge_vertices(internal))
        trace = [f"completion: label={label} attempt={attempt}"]
        return dec, {i: i for i in range(nv)}, list(range(n)), trace
    raise SearchExhausted("all completion budgets exhausted")


def _base_small(internal: list[Edge], n: int, seed: int) -> _StageOut:
    return _planted_solve(internal, n, seed, "small")


# ---------------------------------------------------------------------------
# matchings only


def _base_all_k2(internal: list[Edge], n: int, seed: int) -> _StageOut:
    dec = walecki(n)
    class_edges = [sorted(c) for c in dec.classes]
    rng = random.Random(f"{seed}:all-k2")

    chosen: list[Edge] = []
    used_v: set[int] = set()

    def pick(ci: int) -> bool:
        if ci == n:
            return True
        cands = [
            e
            for e in class_edges[ci]
            if e[0] not in used_v and e[1] not in used_v
        ]
        rng.shuffle(cands)
        for e in cands:
            chosen.append(e)
            used_v.update(e)
            if pick(ci + 1):
                return True
            used_v.difference_update(e)
            chosen.pop()
        return False

    if not pick(0):
        # never seen in practice; fall back to the planted engine
        return _planted_solve(internal, n, seed, "all-k2-fallback")

    hosts: dict[int, int] = {}
    for (u, v), (a, b) in zip(internal, chosen):
        hosts[u], hosts[v] = a, b
    return dec, hosts, list(range(n)), ["matching: hub construction"]


# ---------------------------------------------------------------------------
# linear forests


def _forest_layout(internal: list[Edge]) -> list[list[tuple[int, int | None]]]:
    """Per component, largest first, vertices in search order paired with
    the already placed neighbor they hang off."""
    adj: dict[int, list[int]] = {}
    for u, v in internal:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps: list[list[tuple[int, int | None]]] = []
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        order_v: list[tuple[int, int | None]] = [(root, None)]
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    order_v.append((w, u))
                    queue.append(w)
        comps.append(order_v)
    comps.sort(key=lambda c: (-len(c), c[0][0]))
    return comps


def _base_linear_forest(internal: list[Edge], n: int, seed: int) -> _StageOut:
    dec = walecki(n)
    order = 2 * n + 1
    cls_of: dict[Edge, int] = {}
    for ci, cls in enumerate(dec.classes):
        for e in cls:
            cls_of[e] = ci

    plan = _forest_layout(internal)
    rng = random.Random(f"{seed}:forest")
    for attempt in range(600):
        hosts: dict[int, int] = {}
        used_hosts: set[int] = set()
        used_classes: set[int] = set()
        ok = True
        for order_v in plan:
            if not ok:
                break
            for w, parent in order_v:
                cands = [h for h in range(order) if h not in used_hosts]
                rng.shuffle(cands)
                placed = False
                for h in cands:
                    if parent is not None:
                        c = cls_of[edge(hosts[parent], h)]
                        if c in used_classes:
                            continue
                        used_classes.add(c)
                    hosts[w] = h
                    used_hosts.add(h)
                    placed = True
                    break
                if not placed:
                    ok = False
                    break
        if ok:
            assignment = [cls_of[edge(hosts[u], hosts[v])] for u, v in internal]
            assert len(set(assignment)) == n
            return dec, hosts, assignment, [f"greedy: attempt={attempt}"]

    schedule = _single_path_schedule(internal, n)
    if schedule is not None:
        return schedule
    return _planted_solve(internal, n, seed, "forest-backtrack")


def _single_path_schedule(internal: list[Edge], n: int) -> _StageOut | None:
    """A single path on all n edges, when the round count fits: plant
    edge i in class i over K_{n+1}, merge round i of a round-robin
    matching schedule into class i, and hand the rest to the per-vertex
    extension."""
    nv = len(edge_vertices(internal))
    if nv != n + 1:
        return None
    rounds = nv - 1 if nv % 2 == 0 else nv
    if rounds > n:
        return None
    from .embed_dense import _round_robin

    classes: list[set[Edge]] = [set() for _ in range(n)]
    for i, e in enumerate(internal):
        classes[i].add(e)
    h_set = set(internal)
    for k, match in enumerate(_round_robin(nv)):
        classes[k].update(e for e in match if e not in h_set)
    dec = extend_to_hcd(Decomposition(nv, classes), n)
    trace = ["schedule: planted matchings"]
    return dec, {i: i for i in range(nv)}, list(range(n)), trace


# ---------------------------------------------------------------------------
# the general pipeline


def _main_pipeline(
    internal: list[Edge], split: ComponentSplit, n: int, seed: int
) -> _StageOut:
    trace: list[str] = []
    thick_idx = sorted(i for g in split.thick_idx for i in g)
    t = split.t
    assert t >= 3 and t + split.k2_count == n

    thick_vs = edge_vertices([internal[i] for i in thick_idx])
    r = len(thick_vs)
    dense_of = {v: i for i, v in enumerate(thick_vs)}
    hp_edges = [
        edge(dense_of[internal[i][0]], dense_of[internal[i][1]])
        for i in thick_idx
    ]

    def recurse(sub_edges: list[Edge], m: int, sd: int) -> RainbowCertificate:
        assert m < n
        return solve(sub_edges, seed=sd)

    child_seed = random.Random(f"{seed}:embed").getrandbits(32)
    dec = embed_dense(hp_edges, n, recurse, child_seed, trace)

    sparse_seed = random.Random(f"{seed}:sparse").getrandbits(32)
    dec = extend_with_k2s(dec, t, n, sparse_seed, trace)
    dec = extend_to_hcd(dec, n)
    trace.append(f"hilton: order={dec.order}")

    # dense vertices keep their index; single edge number s sits on hosts
    # r+2s and r+2s+1, lower input endpoint on the even one
    hosts: dict[int, int] = dict(dense_of)
    for s, i in enumerate(split.k2_idx):
        u, v = internal[i]
        hosts[u] = r + 2 * s
        hosts[v] = r + 2 * s + 1

    assignment = [0] * n
    for pos, i in enumerate(thick_idx):
        assignment[i] = pos
    for s, i in enumerate(split.k2_idx):
        assignment[i] = t + s
    for i, (u, v) in enumerate(internal):
        he = edge(hosts[u], hosts[v])
        if he not in dec.classes[assignment[i]]:
            raise InvariantViolation(f"edge {i} missed its class {assignment[i]}")
    return dec, hosts, assignment, trace
