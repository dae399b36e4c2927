"""Instance families: every graph with k edges up to isomorphism, and a
few named shapes used by tests and the benchmark harness.

Graphs are edge lists over dense vertex labels 0..v-1 with no isolated
vertices (isolated vertices play no role for embedding questions).
"""

from __future__ import annotations

from itertools import permutations

from .errors import PreconditionViolation
from .graph_core import Edge, component_edge_groups, edge, edge_vertices

EXHAUSTIVE_CAP = 6  # largest k nonisomorphic_edge_graphs enumerates


def canonical_form(edges: list[Edge]) -> tuple:
    """Isomorphism invariant: each connected component is canonized by the
    cheapest labeling over all permutations of its vertices, and the graph
    is the sorted multiset of component forms."""
    comps: list[tuple] = []
    for grp in component_edge_groups(edges):
        comp_edges = [edges[i] for i in grp]
        comp = edge_vertices(comp_edges)
        best = None
        for perm in permutations(range(len(comp))):
            relab = dict(zip(comp, perm))
            form = tuple(sorted(edge(relab[u], relab[v]) for u, v in comp_edges))
            if best is None or form < best:
                best = form
        comps.append((len(comp), best))
    return tuple(sorted(comps))


def nonisomorphic_edge_graphs(k: int) -> list[list[Edge]]:
    """All graphs with exactly k edges and no isolated vertices, one
    representative per isomorphism class, on dense labels.

    Built by adding one edge at a time to the (k-1)-edge classes: between
    two existing vertices, from an existing vertex to a new one, or as a
    fresh disjoint edge.
    """
    if k < 0:
        raise PreconditionViolation("need k >= 0")
    if k > EXHAUSTIVE_CAP:
        raise PreconditionViolation("enumeration kept small on purpose")
    reps: list[list[Edge]] = [[]]
    for _ in range(k):
        seen: set[tuple] = set()
        nxt: list[list[Edge]] = []
        for g in reps:
            nv = len(edge_vertices(g))  # g lies on 0..nv-1, as it was grown
            present = set(g)
            candidates: list[Edge] = []
            for u in range(nv):
                for v in range(u + 1, nv):
                    if (u, v) not in present:
                        candidates.append((u, v))
            candidates.extend((u, nv) for u in range(nv))
            candidates.append((nv, nv + 1))
            for e in candidates:
                h = sorted(g + [e])
                form = canonical_form(h)
                if form not in seen:
                    seen.add(form)
                    nxt.append(h)
        reps = nxt
    return reps


def disjoint_union(*parts: list[Edge]) -> list[Edge]:
    """Stack edge lists on fresh labels, keeping each part's shape."""
    out: list[Edge] = []
    offset = 0
    for part in parts:
        vs = edge_vertices(part)
        relab = {v: offset + i for i, v in enumerate(vs)}
        out.extend(edge(relab[u], relab[v]) for u, v in part)
        offset += len(vs)
    return out


def path_graph(edges_count: int) -> list[Edge]:
    return [(i, i + 1) for i in range(edges_count)]


def star_graph(leaves: int) -> list[Edge]:
    return [(0, i + 1) for i in range(leaves)]


def cycle_graph(length: int) -> list[Edge]:
    if length < 3:
        raise PreconditionViolation("cycles start at length 3")
    return [edge(i, (i + 1) % length) for i in range(length)]
