"""Timings scaled to a nominal machine speed by a reference loop.

The shared machine this benchmark runs on changes speed on its own, by up
to 2x, in phases from under a second to minutes long; wall time and CPU
time move together, so the CPU itself runs slower.  Plain wall times of
the same work then differ between runs by more than any bound worth
having.  So the benchmark runs short probes of a fixed pure-Python
reference loop right before and right after every timed interval, and a
timer signal runs one every PERIOD_S inside long intervals.  Each
interval is then reported as

    scaled = (wall - probes inside it) * UNIT_S / (reference time per unit)

where the reference time per unit is the mean over the probes inside the
interval and the nearest probe on each side.  The speed changes within
tens of milliseconds (probe times 3 ms apart correlate 0.75, 50 ms apart
0.5), so the probes must sit next to the work they scale.

The loop does what the solver does most: walks dict-of-set graphs and
linear forests, builds tuples, tests set membership, calls small
helpers.  It lives here, not in the program, so a change to the program
cannot change it.  A scaled time reads in seconds on a machine where one
unit of the loop takes UNIT_S.
"""

from __future__ import annotations

import bisect
import random
import signal
from contextlib import contextmanager
from time import perf_counter

# nominal seconds per unit of the reference loop; one unit takes 1-2 ms
# on the 2-vCPU Xeon VM the baselines in README.md come from
UNIT_S = 0.001
# wall seconds between timer probes, and reference units per probe
PERIOD_S = 0.05
PROBE_UNITS = 2


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _graph(vertices: int = 160, edges: int = 1200) -> dict[int, set[int]]:
    rng = random.Random(7)
    adj: dict[int, set[int]] = {v: set() for v in range(vertices)}
    for _ in range(edges):
        a, b = rng.randrange(vertices), rng.randrange(vertices)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _forest(vertices: int = 300, path_len: int = 25) -> list[tuple[int, int]]:
    """Disjoint paths of path_len vertices over a shuffled vertex order."""
    order = list(range(vertices))
    random.Random(11).shuffle(order)
    return [_edge(order[i], order[i + 1]) for i in range(vertices - 1)
            if i % path_len != path_len - 1]


_ADJ = _graph()
_FOREST = _forest()


def _bfs(adj: dict[int, set[int]], source: int) -> int:
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def _walk_paths(edges: list[tuple[int, int]], vertices: range) -> int:
    """Split a linear forest into its paths, checking it as it goes."""
    vs = sorted(set(vertices))
    vset = set(vs)
    adj: dict[int, list[int]] = {v: [] for v in vs}
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        e = _edge(u, v)
        if e in seen or u not in vset or v not in vset:
            raise ValueError(f"not a linear forest at {e}")
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    visited: set[int] = set()
    paths = []
    for v in vs:
        if v in visited or len(adj[v]) == 2 or not adj[v]:
            continue
        walk = [v]
        visited.add(v)
        prev, cur = v, adj[v][0]
        while True:
            walk.append(cur)
            visited.add(cur)
            onward = [w for w in adj[cur] if w != prev]
            if not onward:
                break
            prev, cur = cur, onward[0]
        paths.append(tuple(walk))
    return len(paths)


def reference_unit() -> int:
    """One unit of the reference loop: two breadth-first searches and
    three path walks over a fixed linear forest.

    The path walks, with their helper calls, comprehensions and tuples,
    are what make the loop slow down with the solver: a loop of breadth-
    first search alone slowed about 0.75x as much (log-log slope of solve
    time on loop time 1.31-1.34 on a star and a C3+7K2 solve, against
    0.90-0.99 for this loop)."""
    reached = _bfs(_ADJ, 0) + _bfs(_ADJ, 80)
    for _ in range(3):
        reached += _walk_paths(_FOREST, range(300))
    return reached


class SpeedTrace:
    """Probes of the reference loop: those the caller runs with probe()
    around each timed interval, and those a SIGALRM handler runs every
    PERIOD_S of wall time while running() is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        for _ in range(PROBE_UNITS):
            reference_unit()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    @contextmanager
    def running(self):
        before = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, before)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """The interval's wall time less the probes inside it, scaled to
        the nominal speed; and the scale used (scaled / wall)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        per_unit = (sum(self.ends[i] - self.starts[i] for i in near)
                    / (len(near) * PROBE_UNITS))
        scale = UNIT_S / per_unit
        return (t1 - t0 - inside) * scale, scale
