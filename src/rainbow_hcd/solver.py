"""Front door of the library: route an instance to a strategy and return a
verified certificate.

Strategies, tried in this order:

* BASE_SMALL: any instance with at most 5 edges.  Plant edge i in class i
  and complete every class to a Hamiltonian cycle by seeded backtracking.
* ALL_K2 (single edges only) and LINEAR_FOREST (paths only), 6 or more
  edges.  Both lay the paths end to end on consecutive vertices of the
  standard hub construction, where the class of an edge follows from its
  labels; no search, and the seed is not used.
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
    PreconditionViolation,
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
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InfeasibleInput(f"an edge must be a pair: {pair!r}") from None
        # exactly int: a bool or other int subclass would be written into
        # the certificate as a label it cannot be read back as
        if type(u) is not int or type(v) is not int:
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
    to_int = {v: i for i, v in enumerate(vs)}
    internal = [edge(to_int[u], to_int[v]) for u, v in edges_in]

    split = split_components(internal)
    tag = route(split, internal, n)
    if tag is Strategy.BASE_SMALL:
        dec, hosts, assignment, trace = _planted_solve(internal, n, seed)
    elif tag in (Strategy.ALL_K2, Strategy.LINEAR_FOREST):
        dec, hosts, assignment, trace = _hub_linear_forest(internal, n)
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
    perm must be a bijection on 0..2n, with integer labels, else
    PreconditionViolation."""
    hosts = set(range(cert.order))
    if not (
        set(perm) == set(perm.values()) == hosts
        and all(type(h) is int for h in (*perm, *perm.values()))
    ):
        raise PreconditionViolation(
            f"perm must be a bijection on 0..{cert.order - 1}"
        )
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
# BASE_SMALL: planted completion engine


def _complete_planted(
    planted: list[Edge], n: int, rng: random.Random
) -> list[list[int]]:
    """Grow each class from its planted edge into a Hamiltonian cycle of
    K_{2n+1}, classes in order, always extending the open end of the
    current path.  Returns the cycles as vertex sequences.
    SearchExhausted means the whole space was explored empty, which
    contradicts solvability; callers treat it as fatal."""
    order = 2 * n + 1
    used: set[Edge] = set(planted)
    if len(used) != n:
        raise InternalInfeasible("planted edges are not distinct")
    cycles: list[list[int]] = []

    def extend(ci: int, path: list[int], on_path: set[int]) -> bool:
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

    if start_class(0):
        return cycles
    raise SearchExhausted("planted completion explored the whole space")


_StageOut = tuple[Decomposition, dict[int, int], list[int], list[str]]


def _planted_solve(internal: list[Edge], n: int, seed: int) -> _StageOut:
    """Plant edge i in class i on hosts 0..v-1 and complete the classes
    by one seeded search.  Planting edge i in class i loses no
    generality: class indices are symmetric and host vertices get
    permuted afterwards anyway.  With at most five edges the search is
    short: every such graph up to isomorphism, with shuffled labels over
    300 seeds, completes with fewer than 1,000 branching nodes."""
    rng = random.Random(f"{seed}:small:0")
    cycles = _complete_planted(internal, n, rng)
    classes = [
        {edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))}
        for c in cycles
    ]
    dec = Decomposition(2 * n + 1, classes)
    nv = len(edge_vertices(internal))
    trace = ["completion: label=small attempt=0"]
    return dec, {i: i for i in range(nv)}, list(range(n)), trace


# ---------------------------------------------------------------------------
# ALL_K2 and LINEAR_FOREST: closed form on the hub construction


def _hub_linear_forest(internal: list[Edge], n: int) -> _StageOut:
    """Lay a linear forest with n edges on walecki(n) without search.

    Class j of walecki(n) holds the non-hub edges {a, b} with a + b = 2j
    or 2j+1 (mod 2n), plus the hub edges from 2n to j and j+n.  So the
    edge {a, a+1} with a < 2n lies in class a mod n: for a+1 < 2n the sum
    is 2a+1, and the hub edge {2n-1, 2n} lies in class n-1.

    Take the paths in the order analyze_linear_forest lists them, with
    c_i the number of edges before path i, and put vertex k of path i on
    host c_i + k + n*(i mod 2).  Edge k of path i then joins consecutive
    hosts and lands in class c_i + k, so the n edges hit n distinct
    classes.  The hosts are distinct: path i covers c_i..c_{i+1} shifted
    by 0 or n, even-indexed paths sit in [0, n], odd-indexed ones (c_i
    >= 1) in [n+1, 2n], and two paths of one parity are separated by at
    least the one edge of the path between them.  Label 2n is the hub.
    """
    nv = len(edge_vertices(internal))
    paths = analyze_linear_forest(internal, range(nv)).paths
    hosts: dict[int, int] = {}
    c = 0
    for i, path in enumerate(paths):
        for k, v in enumerate(path):
            hosts[v] = c + k + n * (i % 2)
        c += len(path) - 1
    assignment = [min(hosts[u], hosts[v]) % n for u, v in internal]
    return walecki(n), hosts, assignment, [f"hub: paths={len(paths)}"]


# ---------------------------------------------------------------------------
# the general pipeline


def _main_pipeline(
    internal: list[Edge], split: ComponentSplit, n: int, seed: int
) -> _StageOut:
    trace: list[str] = []
    thick_idx = sorted(i for g in split.thick_idx for i in g)
    t = split.t
    if t < 3 or t + split.k2_count != n:
        raise InvariantViolation(
            f"pipeline split has t={t} and {split.k2_count} single edges, n={n}"
        )

    thick_vs = edge_vertices([internal[i] for i in thick_idx])
    r = len(thick_vs)
    dense_of = {v: i for i, v in enumerate(thick_vs)}
    hp_edges = [
        edge(dense_of[internal[i][0]], dense_of[internal[i][1]])
        for i in thick_idx
    ]

    child_seed = random.Random(f"{seed}:embed").getrandbits(32)

    def recurse(sub_edges: list[Edge]) -> RainbowCertificate:
        return solve(sub_edges, seed=child_seed)

    # the split the embed exit proved grows through the attach rounds and
    # the completion, its path-end states and free-class masks with it
    forests = embed_dense(hp_edges, n, recurse, trace)
    dec = extend_to_hcd(extend_with_k2s(forests, t, n, trace), n)
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
    return dec, hosts, assignment, trace
