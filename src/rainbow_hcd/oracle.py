"""Independent brute-force referee for small hosts.

Everything here is deliberately separate from the constructive pipeline:
a plain exhaustive backtracker over Hamiltonian cycle decompositions, used
to confirm positives, prove small negatives, and count decompositions two
unrelated ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InfeasibleInput,
    InvariantViolation,
    PreconditionViolation,
)
from .graph_core import Decomposition, complete_edges, edge

_ORACLE_CAP = 5  # largest n the oracle takes


@dataclass
class OracleOutcome:
    status: str  # "found" or "none"
    decomposition: Decomposition | None
    assignment: list[int] | None
    nodes: int


class _ClassState:
    """One growing cycle class: degrees, path-end partners, size."""

    def __init__(self, order: int):
        self.order = order
        self.deg = [0] * order
        self.partner: dict[int, int] = {}
        self.size = 0
        self.edges: set[tuple[int, int]] = set()

    def can_add(self, u: int, v: int) -> bool:
        if self.deg[u] >= 2 or self.deg[v] >= 2:
            return False
        if self.partner.get(u, u) == v:
            # closing a path into a cycle: only as the final edge
            return self.size == self.order - 1
        return True

    def add(self, u: int, v: int) -> None:
        pu = self.partner.pop(u, u)
        pv = self.partner.pop(v, v)
        if pu != v:
            self.partner[pu] = pv
            self.partner[pv] = pu
        self.deg[u] += 1
        self.deg[v] += 1
        self.size += 1
        self.edges.add(edge(u, v))

    def remove(self, u: int, v: int) -> None:
        self.edges.discard(edge(u, v))
        self.size -= 1
        self.deg[u] -= 1
        self.deg[v] -= 1
        # recompute partners from scratch: cheap and safe at oracle scale
        self._rebuild()

    def _rebuild(self) -> None:
        self.partner = {}
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen: set[int] = set()
        for s in adj:
            if s in seen or len(adj[s]) != 1:
                continue
            seen.add(s)
            prev, cur = s, adj[s][0]
            while True:
                seen.add(cur)
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
            self.partner[s] = cur
            self.partner[cur] = s


class _Searcher:
    def __init__(self, n: int, budget: int):
        self.n = n
        self.order = 2 * n + 1
        self.budget = budget
        self.nodes = 0
        self.classes = [_ClassState(self.order) for _ in range(n)]
        self.used: set[tuple[int, int]] = set()

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"oracle stopped after {self.nodes} nodes")

    def attach(self, i: int, u: int, v: int) -> None:
        self.classes[i].add(u, v)
        self.used.add(edge(u, v))

    def detach(self, i: int, u: int, v: int) -> None:
        self.classes[i].remove(u, v)
        self.used.discard(edge(u, v))

    def complete(self) -> bool:
        """Fill every class to a Hamiltonian cycle, lexicographic order."""
        self.tick()
        for i, cls in enumerate(self.classes):
            if cls.size < self.order:
                break
        else:
            return True
        v = min(x for x in range(self.order) if cls.deg[x] < 2)
        for u in range(self.order):
            if u == v or cls.deg[u] >= 2:
                continue
            e = edge(u, v)
            if e in self.used or not cls.can_add(u, v):
                continue
            self.attach(i, u, v)
            if self.complete():
                return True
            self.detach(i, u, v)
        return False


def exhaustive_rainbow_hcd(
    h_edges: list[tuple[int, int]],
    n: int,
    precoloring: list[int] | None = None,
    budget: int = 10**8,
) -> OracleOutcome:
    """Search for a cycle decomposition of K_{2n+1} that contains the given
    placed edges, each in its own class (or in fixed classes when a
    precoloring is supplied).  Exhaustive up to the node budget.  Takes
    1 <= n <= 5 only, else PreconditionViolation.
    """
    if n < 1:
        raise PreconditionViolation("need n >= 1")
    if n > _ORACLE_CAP:
        raise PreconditionViolation(
            f"n={n} beyond oracle scale: the oracle takes n <= {_ORACLE_CAP}"
        )
    order = 2 * n + 1
    cleaned = []
    for u, v in h_edges:
        if u == v:
            raise InfeasibleInput(f"loop at {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise InfeasibleInput(f"edge ({u}, {v}) outside host 0..{order - 1}")
        cleaned.append(edge(u, v))
    if len(set(cleaned)) != len(cleaned):
        raise InfeasibleInput("repeated edge")
    if precoloring is None and len(cleaned) > n:
        raise InfeasibleInput(f"{len(cleaned)} edges cannot be rainbow in {n} classes")
    if precoloring is not None:
        if len(precoloring) != len(cleaned):
            raise InfeasibleInput("precoloring length differs from edge count")
        if any(not 0 <= c < n for c in precoloring):
            raise InfeasibleInput("precolored class out of range")

    s = _Searcher(n, budget)

    def place(idx: int) -> bool:
        s.tick()
        if idx == len(cleaned):
            return s.complete()
        u, v = cleaned[idx]
        if precoloring is not None:
            choices = [precoloring[idx]]
        else:
            choices = []
            seen_empty = False
            for i in range(n):
                if any(cleaned[j] in s.classes[i].edges for j in range(idx)):
                    continue  # distinct classes in rainbow mode
                if s.classes[i].size == 0:
                    if seen_empty:
                        continue
                    seen_empty = True
                choices.append(i)
        for i in choices:
            if not s.classes[i].can_add(u, v):
                continue
            s.attach(i, u, v)
            if place(idx + 1):
                return True
            s.detach(i, u, v)
        return False

    if place(0):
        dec = Decomposition(order, [set(c.edges) for c in s.classes])
        dec.check_hcd()
        if precoloring is not None:
            assignment = list(precoloring)
        else:
            assignment = [
                next(i for i, c in enumerate(s.classes) if e in c.edges)
                for e in cleaned
            ]
        for e, c in zip(cleaned, assignment):
            if e not in dec.classes[c]:
                raise InvariantViolation(f"edge {e} is not in its class {c}")
        return OracleOutcome("found", dec, assignment, s.nodes)
    return OracleOutcome("none", None, None, s.nodes)


# ---------------------------------------------------------------------------
# full enumeration on tiny hosts, two unrelated ways


def _enumerate_edgewise(n: int) -> set[frozenset[frozenset[tuple[int, int]]]]:
    """Assign each edge of K_{2n+1} to a class in lexicographic edge order;
    an empty class may be opened only in index order."""
    order = 2 * n + 1
    eds = complete_edges(order)
    classes = [_ClassState(order) for _ in range(n)]
    out: set[frozenset[frozenset[tuple[int, int]]]] = set()

    def rec(idx: int) -> None:
        if idx == len(eds):
            sol = frozenset(frozenset(c.edges) for c in classes)
            if sol in out:
                raise InvariantViolation("canonical order produced a duplicate")
            out.add(sol)
            return
        u, v = eds[idx]
        seen_empty = False
        for i, cls in enumerate(classes):
            if cls.size == 0:
                if seen_empty:
                    continue
                seen_empty = True
            if not cls.can_add(u, v):
                continue
            cls.add(u, v)
            rec(idx + 1)
            cls.remove(u, v)

    rec(0)
    return out


def _enumerate_cyclewise(n: int) -> set[frozenset[frozenset[tuple[int, int]]]]:
    """Peel off whole Hamiltonian cycles, always through the smallest free
    edge, so every unordered decomposition appears exactly once."""
    order = 2 * n + 1
    all_edges = complete_edges(order)
    out: set[frozenset[frozenset[tuple[int, int]]]] = set()

    def cycles_through(first: tuple[int, int], free: set[tuple[int, int]]):
        a, b = first
        path = [a, b]
        onpath = {a, b}

        def grow():
            cur = path[-1]
            if len(path) == order:
                if edge(cur, a) in free:
                    yield [edge(x, y) for x, y in zip(path, path[1:])] + [
                        edge(cur, a)
                    ]
                return
            for w in range(order):
                if w in onpath or edge(cur, w) not in free:
                    continue
                path.append(w)
                onpath.add(w)
                yield from grow()
                onpath.discard(w)
                path.pop()

        yield from grow()

    def rec(free: set[tuple[int, int]], acc: list[frozenset]) -> None:
        if not free:
            out.add(frozenset(acc))
            return
        first = min(free)
        for cyc in cycles_through(first, free):
            cyc_set = frozenset(cyc)
            rec(free - cyc_set, acc + [cyc_set])

    rec(set(all_edges), [])
    return out


def enumerate_hcds(n: int) -> set[frozenset[frozenset[tuple[int, int]]]]:
    """All unordered Hamiltonian cycle decompositions of K_{2n+1}, counted
    by two unrelated enumerations that must agree."""
    if not 1 <= n <= 3:
        raise PreconditionViolation("full enumeration only up to K_7")
    a = _enumerate_edgewise(n)
    b = _enumerate_cyclewise(n)
    if a != b:
        raise InvariantViolation("enumeration methods disagree")
    return a
