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

Certificates always place the input graph on host vertices 0..v-1, and
every route returns its classes on those final hosts, internal vertex i
on host i, as rows (graph_core.canonical_row), so solve relabels
nothing; use relabel_hosts to move a certificate elsewhere.  Every route
ends with a full certificate verification.
"""

from __future__ import annotations

import enum
import random

from .embed_dense import embed_dense
from .errors import (
    InfeasibleInput,
    InvariantViolation,
    NotLinearForest,
    PreconditionViolation,
    SearchExhausted,
)
from .extend_sparse import extend_with_k2s
from .graph_core import (
    Edge,
    LinearForestView,
    RainbowCertificate,
    _walecki_on,
    analyze_linear_forest,
    canonical_row,
    complete_perm,
    component_edge_groups,
    edge,
    edge_vertices,
    relabel_rows,
    verify_certificate,
)
from .hilton import extend_to_hcd


class Strategy(enum.Enum):
    BASE_SMALL = "base-small"
    ALL_K2 = "all-k2"
    LINEAR_FOREST = "linear-forest"
    MAIN_PIPELINE = "pipeline"


def route(
    internal: list[Edge], n: int, nv: int
) -> tuple[Strategy, LinearForestView | None]:
    """Pick the strategy for a validated instance on vertices 0..nv-1, with
    the linear-forest view the hub routes lay (None on the others).  A
    linear forest is a matching exactly when its n edges make n paths."""
    if n <= 5:
        return Strategy.BASE_SMALL, None
    try:
        view = analyze_linear_forest(internal, range(nv))
    except NotLinearForest:
        return Strategy.MAIN_PIPELINE, None
    tag = Strategy.ALL_K2 if len(view.paths) == n else Strategy.LINEAR_FOREST
    return tag, view


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

    # input label vs[i] becomes internal vertex i, which every route
    # lays on host i
    vs = edge_vertices(edges_in)
    label_map = {v: i for i, v in enumerate(vs)}
    internal = [edge(label_map[u], label_map[v]) for u, v in edges_in]

    tag, view = route(internal, n, len(vs))
    if tag is Strategy.BASE_SMALL:
        rows, assignment, trace = _planted_solve(internal, n, seed)
    elif tag in (Strategy.ALL_K2, Strategy.LINEAR_FOREST):
        rows, assignment, trace = _hub_linear_forest(internal, n, view.paths)
    else:
        rows, assignment, trace = _main_pipeline(internal, n, seed)

    cert = RainbowCertificate(
        n, seed, edges_in, label_map, assignment,
        rows, [f"route: {tag.value}"] + trace,
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
    rows = relabel_rows(cert.cycles, perm, cert.order)
    label_map = {lab: perm[h] for lab, h in cert.label_map.items()}
    return RainbowCertificate(
        cert.n, cert.seed, list(cert.h_edges), label_map,
        list(cert.assignment), rows, list(cert.trace),
    )


# ---------------------------------------------------------------------------
# BASE_SMALL: planted completion engine


def _complete_planted(
    planted: list[Edge], n: int, rng: random.Random
) -> list[list[int]]:
    """Grow each class from its planted edge into a Hamiltonian cycle of
    K_{2n+1}, classes in order, always extending the open end of the
    current path.  Returns the cycles as vertex sequences.  The planted
    edges must be distinct, as solve's repeated-edge check makes them.
    SearchExhausted means the whole space was explored empty, which
    contradicts solvability; callers treat it as fatal."""
    order = 2 * n + 1
    used: set[Edge] = set(planted)
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


# the rows on their final hosts, internal vertex i on host i, the class
# of each edge, and the trace
_StageOut = tuple[list[list[int]], list[int], list[str]]


def _planted_solve(internal: list[Edge], n: int, seed: int) -> _StageOut:
    """Plant edge i in class i on hosts 0..v-1, vertex i on host i, and
    complete the classes by one seeded search.  Planting edge i in class
    i loses no generality: class indices and host vertices are both
    symmetric.  With at most five edges the search is short: every such
    graph up to isomorphism, with shuffled labels over 300 seeds,
    completes with fewer than 1,000 branching nodes."""
    rng = random.Random(f"{seed}:small:0")
    cycles = _complete_planted(internal, n, rng)
    rows = list(map(canonical_row, cycles))
    return rows, list(range(n)), ["completion: label=small attempt=0"]


# ---------------------------------------------------------------------------
# ALL_K2 and LINEAR_FOREST: closed form on the hub construction


def _hub_linear_forest(
    internal: list[Edge], n: int, paths: tuple[tuple[int, ...], ...]
) -> _StageOut:
    """Lay a linear forest with n edges on walecki(n) without search.

    Class j of walecki(n) holds the non-hub edges {a, b} with a + b = 2j
    or 2j+1 (mod 2n), plus the hub edges from 2n to j and j+n.  So the
    edge {a, a+1} with a < 2n lies in class a mod n: for a+1 < 2n the sum
    is 2a+1, and the hub edge {2n-1, 2n} lies in class n-1.

    Take the paths in the order analyze_linear_forest lists them (route
    hands its view over), with c_i the number of edges before path i, and
    put vertex k of path i on host c_i + k + n*(i mod 2).  Edge k of path
    i then joins consecutive hosts and lands in class c_i + k, so the n
    edges hit n distinct classes.  The hosts are distinct: path i covers
    c_i..c_{i+1} shifted by 0 or n, even-indexed paths sit in [0, n],
    odd-indexed ones (c_i >= 1) in [n+1, 2n], and two paths of one parity
    are separated by at least the one edge of the path between them.
    Label 2n is the hub.
    The cycles are laid straight on the final hosts: the host map sends
    each of these hosts back to its vertex, and the unused ones, ascending,
    to the labels after the vertices (complete_perm).
    """
    hosts: dict[int, int] = {}
    c = 0
    for i, path in enumerate(paths):
        for k, v in enumerate(path):
            hosts[v] = c + k + n * (i % 2)
        c += len(path) - 1
    assignment = [min(hosts[u], hosts[v]) % n for u, v in internal]
    perm = complete_perm({h: v for v, h in hosts.items()}, 2 * n + 1)
    return _walecki_on(n, perm), assignment, [f"hub: paths={len(paths)}"]


# ---------------------------------------------------------------------------
# the general pipeline


def _main_pipeline(internal: list[Edge], n: int, seed: int) -> _StageOut:
    """Embed the components of two or more edges, attach the single
    edges one round each, and complete to K_{2n+1}.  route sends only
    instances that are no linear forest, and the cycle or degree-3 vertex
    of one lies in a component of three or more edges, so t >= 3.  Any
    other instance must pass the entry checks of embed_dense and
    extend_with_k2s."""
    trace: list[str] = []
    # the edges of components with 2+ edges, ascending, and the single
    # edges in the order of their components (by smallest vertex)
    groups = component_edge_groups(internal)
    thick_idx = sorted(i for g in groups if len(g) >= 2 for i in g)
    k2_idx = [g[0] for g in groups if len(g) == 1]
    t = len(thick_idx)

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
    rows = extend_to_hcd(extend_with_k2s(forests, t, n, trace), n)
    order = 2 * n + 1
    trace.append(f"hilton: order={order}")

    # host h holds internal vertex at[h]: dense vertices keep their index,
    # and single edge number s sits on hosts r+2s and r+2s+1, lower input
    # endpoint on the even one.  Unless that is already vertex i on host
    # i, the rows move once so that it is.
    at = dict(enumerate(thick_vs))
    for s, i in enumerate(k2_idx):
        at[r + 2 * s], at[r + 2 * s + 1] = internal[i]
    if any(h != v for h, v in at.items()):
        rows = relabel_rows(rows, complete_perm(at, order), order)

    # the thick edges own classes 0..t-1 in order, single edge s class t + s
    assignment = [0] * n
    for c, i in enumerate(thick_idx + k2_idx):
        assignment[i] = c
    return rows, assignment, trace
