"""Seeded instance generators for the benchmark.

Every generator returns a plain edge list on vertices 0..v-1; the
benchmark hands the solver nothing else.  Randomness comes only from the
random.Random passed in, so one workload seed always yields the same
instances.
"""

from __future__ import annotations

import itertools
import random

Edges = list[tuple[int, int]]


def star(n: int) -> Edges:
    """K_{1,n}."""
    return [(0, i) for i in range(1, n + 1)]


def cycle(n: int) -> Edges:
    """C_n, n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return [(i, (i + 1) % n) for i in range(n)]


def path(n: int) -> Edges:
    """P_{n+1}: a path with n edges."""
    return [(i, i + 1) for i in range(n)]


def matching(count: int, first: int = 0) -> Edges:
    """count disjoint single edges on first, first+1, ..."""
    return [(first + 2 * i, first + 2 * i + 1) for i in range(count)]


def c3_plus_k2(n: int) -> Edges:
    """C3 + (n-3)K2: a triangle and n-3 disjoint single edges."""
    if n < 4:
        raise ValueError(f"C3 + (n-3)K2 needs n >= 4, got {n}")
    return cycle(3) + matching(n - 3, first=3)


def half_cycle_plus_k2(n: int) -> Edges:
    """C_{n/2} + (n/2)K2, n even and n/2 >= 3."""
    if n % 2 or n < 6:
        raise ValueError(f"C_(n/2) + (n/2)K2 needs even n >= 6, got {n}")
    h = n // 2
    return cycle(h) + matching(h, first=h)


def min_vertices(n: int) -> int:
    """The fewest vertices that hold n distinct edges."""
    v = 2
    while v * (v - 1) // 2 < n:
        v += 1
    return v


def random_general(n: int, rng: random.Random, v: int | None = None) -> Edges:
    """n distinct edges drawn uniformly from K_v.

    v defaults to a uniform draw from the valid range.  The guards keep v
    where an n-edge graph exists (v(v-1)/2 >= n) and where the solver
    accepts it (v <= 2n+1); the edges are a sample of all pairs, so no
    rejection loop can spin."""
    lo = min_vertices(n)
    hi = 2 * n + 1
    if v is None:
        v = rng.randint(lo, hi)
    if not lo <= v <= hi:
        raise ValueError(f"{n} edges need {lo} <= v <= {hi}, got v={v}")
    pairs = list(itertools.combinations(range(v), 2))
    return sorted(rng.sample(pairs, n))


def random_linear_forest(n: int, rng: random.Random) -> Edges:
    """Disjoint paths with n edges in total, path lengths drawn at random."""
    edges: Edges = []
    v = 0
    left = n
    while left:
        size = rng.randint(1, left)
        edges += [(v + i, v + i + 1) for i in range(size)]
        v += size + 1
        left -= size
    return edges


def spread_labels(edges: Edges, rng: random.Random) -> Edges:
    """Random labels that keep the vertex order, edge order unchanged.

    The solver numbers vertices by sorted label, so the instance it works
    on internally is the same for every draw: the labels vary, the work
    does not."""
    vs = sorted({x for e in edges for x in e})
    labels = sorted(rng.sample(range(4 * len(vs)), len(vs)))
    lab = dict(zip(vs, labels))
    return [(lab[a], lab[b]) for a, b in edges]
