"""The benchmark's workloads: fixed instance sets built from a workload seed.

Every workload solves a fixed set of (graph, solve seed) pairs; the
workload seed draws the vertex labels and the order in which the
instances are solved.  The labels keep the vertex order, so the solver's
internal work is the same for every draw and two runs compare the same
work.  Drawing the work itself per run would swamp any code change: the
solve seed alone moves one sparse solve by up to 8x, and the all-k2
matching search has a heavy tail over solve seeds (22K2: about 5 ms
median, 2.6 s worst of 40 seeds).  The graphs of mixed-small are drawn
once from a fixed stream, so such tails are in the set, the same ones
every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from generators import (
    c3_plus_k2,
    cycle,
    half_cycle_plus_k2,
    matching,
    min_vertices,
    random_general,
    random_linear_forest,
    spread_labels,
    star,
)

ROUTES = ("base-small", "all-k2", "linear-forest", "pipeline")


@dataclass(frozen=True)
class Instance:
    name: str
    edges: list[tuple[int, int]]
    seed: int  # solve seed
    rounds: int | None  # attach rounds of a pipeline solve, None: any route


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[dict, int], list[Instance]]
    warmup: Callable[[dict], Instance]
    routes: tuple[str, ...]  # routes a run must hit
    params: dict
    toy_params: dict

    def instances(self, seed: int, toy: bool = False) -> list[Instance]:
        return self.build(self.toy_params if toy else self.params, seed)

    def warmup_instance(self, toy: bool = False) -> Instance:
        return self.warmup(self.toy_params if toy else self.params)

    def mix_problems(self, solved: list[tuple[Instance, str, int]]) -> list[str]:
        """Ways the routes and attach rounds seen drift from the design."""
        missing = set(self.routes) - {route for _, route, _ in solved}
        probs = [f"routes never hit: {sorted(missing)}"] if missing else []
        for inst, route, rounds in solved:
            if inst.rounds is None:
                continue
            if route != "pipeline":
                probs.append(f"{inst.name}: route {route}, wanted pipeline")
            if rounds != inst.rounds:
                probs.append(f"{inst.name}: {rounds} rounds, wanted {inst.rounds}")
        return probs


def _sparse_attach(p: dict, seed: int) -> list[Instance]:
    rng = random.Random(f"sparse-attach:{seed}")
    out = []
    for n in p["c3_n"]:
        for s in p["solve_seeds"]:
            out.append(Instance(f"C3+{n - 3}K2-s{s}",
                                spread_labels(c3_plus_k2(n), rng), s, n - 3))
    for n in p["half_cycle_n"]:
        for s in p["solve_seeds"]:
            out.append(Instance(f"C{n // 2}+{n // 2}K2-s{s}",
                                spread_labels(half_cycle_plus_k2(n), rng),
                                s, n // 2))
    rng.shuffle(out)
    return out


def _dense_complete(p: dict, seed: int) -> list[Instance]:
    rng = random.Random(f"dense-complete:{seed}")
    out = []
    for n in p["n"]:
        for s in p["solve_seeds"]:
            out.append(Instance(f"K1,{n}-s{s}", spread_labels(star(n), rng), s, 0))
            out.append(Instance(f"C{n}-s{s}", spread_labels(cycle(n), rng), s, 0))
    rng.shuffle(out)
    return out


def _thick_general(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random general graph on at most n vertices with no single-edge
    component.  One attach round at n near 24 costs 0.4-0.8 s, which
    would bury the per-call costs this workload is for; sparse-attach
    measures that stage."""
    for _ in range(1000):
        edges = random_general(n, rng, v=rng.randint(min_vertices(n), n))
        deg: dict[int, int] = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if all(deg[a] > 1 or deg[b] > 1 for a, b in edges):
            return edges
    raise RuntimeError(f"no graph without single-edge components at n={n}")


def _mixed_small(p: dict, seed: int) -> list[Instance]:
    gen = random.Random("mixed-small")
    lab = random.Random(f"mixed-small:{seed}")
    lo, hi = p["n_range"]
    sizes = range(max(lo, 6), hi + 1)
    out = []
    for rep in range(p["rounds"]):
        for i, n in enumerate(sizes):
            tiny = 3 + (i + rep) % 3
            kinds = [
                ("tiny", random_general(tiny, gen)),
                ("matching", matching(n)),
                ("forest", random_linear_forest(n, gen)),
                ("general", _thick_general(n, gen)),
            ]
            for kind, edges in kinds:
                out.append(Instance(f"{kind}-n{len(edges)}-{rep}",
                                    spread_labels(edges, lab),
                                    gen.getrandbits(32), None))
    lab.shuffle(out)
    return out


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sparse-attach", _sparse_attach,
            lambda p: Instance("warmup", c3_plus_k2(p["warmup_n"]), 0, None),
            ("pipeline",),
            {"c3_n": [12, 14], "half_cycle_n": [16, 20],
             "solve_seeds": [0], "warmup_n": 7},
            {"c3_n": [6], "half_cycle_n": [8], "solve_seeds": [0],
             "warmup_n": 5},
        ),
        Workload(
            "dense-complete", _dense_complete,
            lambda p: Instance("warmup", star(p["warmup_n"]), 0, None),
            ("pipeline",),
            {"n": [48, 56, 64], "solve_seeds": [0], "warmup_n": 16},
            {"n": [12], "solve_seeds": [0], "warmup_n": 8},
        ),
        Workload(
            "mixed-small", _mixed_small,
            lambda p: Instance(
                "warmup", _thick_general(p["warmup_n"], random.Random(0)), 0, None),
            ROUTES,
            {"n_range": [3, 24], "rounds": 4, "warmup_n": 12},
            {"n_range": [3, 9], "rounds": 1, "warmup_n": 8},
        ),
    ]
}
