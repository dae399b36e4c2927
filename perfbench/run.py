"""rainbow-hcd benchmark: closed-loop solves of one workload, checked.

    python3 perfbench/run.py --workload sparse-attach --seed 1 --seconds 20 --trace 0

One client in one process solves the workload's instances through
rainbow_hcd.solver.solve, one after another, in whole passes over the
instance set until --seconds have gone by.  Every certificate is checked:
text round trip, verify_certificate, instance edges equal h_edges, and
identical bytes whenever an (instance, seed) is solved again.  Every time
reported is scaled to a nominal machine speed by probes of a reference
loop run next to and inside every timed interval (speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 solves every instance
twice per pass, once untraced and once under the tracer, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from speed import SpeedTrace
from tracer import Tracer, self_times, write_spans
from workloads import WORKLOADS, Instance, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("solver", "embed_dense", "extend_sparse", "coloring", "hilton",
           "graph_core", "files")
# set-up is timed this many times before the measured passes and again
# after them, so its median spans the run; the last one before is used
SETUP_REPS = 3
# seconds of the verify phase, which times the verify path on every
# certificate in turn after the measured passes; a traced run, or one
# shorter than this, makes a single round
VERIFY_SECONDS = 3.0


class ProgramMissing(Exception):
    pass


def import_program() -> dict[str, object]:
    """Import rainbow_hcd afresh from src/, dropping any earlier import."""
    if not (SRC / "rainbow_hcd" / "__init__.py").is_file():
        raise ProgramMissing(f"no rainbow_hcd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "rainbow_hcd"]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"rainbow_hcd.{m}") for m in MODULES}
    origin = Path(mods["solver"].__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"rainbow_hcd imported from {origin}, not {SRC}")
    return mods


def setup_once(wl: Workload, seed: int, toy: bool, speed: SpeedTrace,
               intervals: list):
    """Import, instance generation and one warm-up solve; appends the
    interval they took to intervals."""
    gc.collect()
    speed.probe()
    t0 = perf_counter()
    mods = import_program()
    instances = wl.instances(seed, toy)
    warm = wl.warmup_instance(toy)
    mods["solver"].solve(warm.edges, seed=warm.seed)
    intervals.append((t0, perf_counter()))
    speed.probe()
    return mods, instances


@dataclass
class Record:
    """What the measured solves produced."""

    # (start, end) intervals per instance index, over all passes
    solve_s: defaultdict = field(default_factory=lambda: defaultdict(list))
    traced_solve_s: defaultdict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0  # solves with an exception or a failed check
    failures: Counter = field(default_factory=Counter)
    texts: dict[int, str] = field(default_factory=dict)
    resolved: set[int] = field(default_factory=set)
    mix: dict[int, tuple[str, int]] = field(default_factory=dict)

    def fail(self, inst: Instance, reasons: list[str], detail: str = "") -> None:
        """Count one failed solve; report the first of each reason."""
        self.failed += 1
        for reason in reasons:
            if not self.failures[reason]:
                print(f"failure: {inst.name} seed={inst.seed}: {reason} {detail}")
            self.failures[reason] += 1


def solve_checked(mods, inst: Instance, idx: int, rec: Record, timing: str,
                  speed: SpeedTrace) -> None:
    """Solve one instance and check the certificate four ways.  timing
    says where its times go: "untraced", "traced" or "none"."""
    solver, files, graph_core = mods["solver"], mods["files"], mods["graph_core"]
    rec.attempted += 1
    # collect earlier solves' garbage first: otherwise when a collection
    # lands, and whose objects it walks, depends on the instance order
    gc.collect()
    speed.probe()
    t0 = perf_counter()
    try:
        cert = solver.solve(inst.edges, seed=inst.seed)
    except Exception as exc:  # any solver failure is a failed operation
        rec.fail(inst, [type(exc).__name__], str(exc))
        return
    t1 = perf_counter()
    speed.probe()
    text = files.certificate_to_text(cert)
    try:
        back = files.certificate_from_text(text)
        report = graph_core.verify_certificate(back)
    except Exception as exc:  # a certificate that does not parse back
        rec.fail(inst, [type(exc).__name__], str(exc))
        return
    if timing == "traced":
        rec.traced_solve_s[idx].append((t0, t1))
    elif timing == "untraced":
        rec.solve_s[idx].append((t0, t1))

    bad = []
    if files.certificate_to_text(back) != text:
        bad.append("RoundTripMismatch")
    if not report.ok:
        bad.append("VerifyFailed")
    if back.h_edges != [(min(e), max(e)) for e in inst.edges]:
        bad.append("EdgesMismatch")
    if idx not in rec.texts:
        rec.texts[idx] = text
        rounds = sum(1 for line in cert.trace if line.startswith("attach:"))
        rec.mix[idx] = (cert.trace[0].removeprefix("route: "), rounds)
    else:
        rec.resolved.add(idx)
        if rec.texts[idx] != text:
            bad.append("NondeterministicBytes")
    if bad:
        rec.fail(inst, bad)


def measure(mods, instances: list[Instance], seconds: float,
            tracer: Tracer | None, speed: SpeedTrace):
    """Whole passes over the instances until the time is up."""
    rec = Record()
    deadline = perf_counter() + seconds
    passes = 0
    while not passes or perf_counter() < deadline:
        for idx, inst in enumerate(instances):
            solve_checked(mods, inst, idx, rec, "untraced", speed)
            if tracer is not None:
                with tracer.installed(idx):
                    solve_checked(mods, inst, idx, rec, "traced", speed)
        passes += 1
    if not rec.resolved and instances:
        # a single untraced pass: solve the first instance once more
        solve_checked(mods, instances[0], 0, rec, "none", speed)
    return rec, passes


def time_verify(mods, texts: dict[int, str], seconds: float,
                speed: SpeedTrace) -> dict[int, list]:
    """The verify path, certificate_from_text plus verify_certificate, on
    every certificate text in turn, in rounds for at least `seconds`; each
    timing sits between two probes.  A phase of its own gives every
    certificate many timings at different moments, where timing it right
    after its solve gave a 2-3 s solve's certificate only one per pass."""
    files, graph_core = mods["files"], mods["graph_core"]
    intervals: dict[int, list] = defaultdict(list)
    gc.collect()
    speed.probe()
    deadline = perf_counter() + seconds
    rounds = 0
    while not rounds or perf_counter() < deadline:
        for idx, text in texts.items():
            t0 = perf_counter()
            graph_core.verify_certificate(files.certificate_from_text(text))
            intervals[idx].append((t0, perf_counter()))
            speed.probe()
        rounds += 1
    return intervals


def scaled(intervals: dict[int, list], speed: SpeedTrace) -> dict[int, list[float]]:
    return {i: [speed.scaled(*iv)[0] for iv in ivs] for i, ivs in intervals.items()}


def typical(times: dict[int, list[float]]) -> list[float]:
    """Each instance's median time over its passes.  Percentiles are taken
    over these, so one slow phase of the machine moves no single sample."""
    return [statistics.median(ts) for ts in times.values()]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def p90(xs: list[float]) -> float:
    """The Harrell-Davis estimate of the 90th percentile: a beta-weighted
    mean of the order statistics.  Interpolating between the two nearest
    ranks moved with whichever single instance sat there; on mixed-small
    the per-instance times near p90 climb about 5% a rank."""
    xs = sorted(xs)
    n = len(xs)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def layer_metrics(spans: list[list], untraced_p50: float, traced_p50: float) -> dict:
    """Per-layer metrics from the spans, per traced top-level solve."""
    own = self_times(spans)
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    inside: dict[str, float] = defaultdict(float)
    depth = [0] * len(spans)
    in_solve = [False] * len(spans)
    solves = 0
    solve_time = 0.0
    max_depth = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        is_solve = name == "solver.solve"
        if parent < 0:
            depth[i] = 1 if is_solve else 0
            in_solve[i] = is_solve
            if is_solve:
                solves += 1
                solve_time += end - start
        else:
            depth[i] = depth[parent] + is_solve
            in_solve[i] = in_solve[parent]
        if is_solve:
            max_depth = max(max_depth, depth[i] - 1)
        calls[name] += 1
        total[name] += end - start
        self_by_name[name] += own[i]
        if in_solve[i]:
            layer_self[name.split(".")[0]] += own[i]
            inside[name] += end - start
    per = max(solves, 1)
    rounds = calls["extend_sparse.capacity_graph"]
    checks = calls["extend_sparse._witness_ok"]
    colorings = (calls["coloring.balanced_k_coloring"]
                 + calls["coloring.paired_balanced_2_coloring"])

    m: dict[str, tuple[float, str]] = {}
    for name in ("coloring.balanced_k_coloring",
                 "coloring.paired_balanced_2_coloring",
                 "hilton.single_vertex_step", "hilton.max_flow",
                 "graph_core.analyze_linear_forest"):
        m[f"{name}.calls"] = (calls[name] / per, "count/solve")
        m[f"{name}.s"] = (total[name] / per, "s/solve")
    m["coloring.rebalance_drop_one.calls"] = (
        calls["coloring.rebalance_drop_one"] / per, "count/solve")
    m["extend_sparse.rounds"] = (rounds / per, "count/solve")
    m["extend_sparse.witness_checks"] = (checks / per, "count/solve")
    m["extend_sparse.witness_accept_ratio"] = (
        rounds / checks if checks else 0.0, "ratio")
    m["extend_sparse.colorings_per_round"] = (
        colorings / rounds if rounds else 0.0, "count/round")
    m["extend_sparse.self_s"] = (layer_self["extend_sparse"] / per, "s/solve")
    m["hilton.extend_to_hcd.self_s"] = (
        self_by_name["hilton.extend_to_hcd"] / per, "s/solve")
    m["embed_dense.calls"] = (calls["embed_dense.embed_dense"] / per, "count/solve")
    m["embed_dense.self_s"] = (layer_self["embed_dense"] / per, "s/solve")
    m["solver.recursion_depth.max"] = (max_depth, "count")
    m["solver.solve.calls"] = (calls["solver.solve"] / per, "count/solve")
    m["solver.self_s"] = (layer_self["solver"] / per, "s/solve")
    for name in ("graph_core.verify_certificate", "files.certificate_to_text",
                 "files.certificate_from_text"):
        m[f"{name}.s"] = (total[name] / per, "s/solve")
    m["trace.overhead"] = (traced_p50 / untraced_p50 - 1, "ratio")
    for layer in ("solver", "embed_dense", "extend_sparse", "coloring",
                  "hilton", "graph_core"):
        m[f"layer_share.{layer}"] = (
            layer_self[layer] / solve_time if solve_time else 0.0, "ratio")
    # whole stages, callees included; neither stage nests inside itself
    for stage, span in (("extend_sparse", "extend_sparse.extend_with_k2s"),
                        ("hilton", "hilton.extend_to_hcd")):
        m[f"stage_share.{stage}"] = (
            inside[span] / solve_time if solve_time else 0.0, "ratio")
    return m


class RunOutput(NamedTuple):
    result: dict  # the object printed as the last line
    spans: list[list]
    instances: list[Instance]


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_dir: Path = OUT) -> RunOutput:
    """One benchmark run; prints a report and returns its result."""
    wl = WORKLOADS[name]
    speed = SpeedTrace()
    setups: list[tuple[float, float]] = []
    with speed.running():
        for _ in range(SETUP_REPS):
            mods, instances = setup_once(wl, seed, toy, speed, setups)
        print(f"workload {name}: {len(instances)} instances, params "
              f"{json.dumps(wl.toy_params if toy else wl.params)}")
        tracer = Tracer(mods) if trace else None
        rec, passes = measure(mods, instances, seconds, tracer, speed)
        verify_s = time_verify(
            mods, rec.texts, 0 if trace or seconds < VERIFY_SECONDS
            else VERIFY_SECONDS, speed)
        for _ in range(SETUP_REPS):
            setup_once(wl, seed, toy, speed, setups)
    setup_s = statistics.median(speed.scaled(*iv)[0] for iv in setups)
    solve_s = scaled(rec.solve_s, speed)
    scales = [speed.scaled(*iv)[1] for ivs in rec.solve_s.values() for iv in ivs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    routes = Counter(route for route, _ in rec.mix.values())
    print("route mix: " + ", ".join(f"{r}={c}" for r, c in sorted(routes.items())))
    drift = wl.mix_problems([(instances[i], *rec.mix[i]) for i in sorted(rec.mix)])
    for problem in drift:
        print(f"workload drift: {problem}")
    if drift:
        rec.failures["WorkloadDrift"] += 1

    digests = {instances[i].name + f"#{i}": hashlib.sha256(t.encode()).hexdigest()
               for i, t in sorted(rec.texts.items())}
    combined = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    print(f"certificate digest: {combined} over {len(digests)} certificates")
    tag = f"{name}-seed{seed}" + ("-toy" if toy else "")
    digest_file = out_dir / f"{tag}-digests.json"
    if digest_file.is_file():
        before = json.loads(digest_file.read_text())
        moved = sorted(k for k in digests if before.get(k, digests[k]) != digests[k])
        print(f"digest drift since last run: {len(moved)} of {len(digests)}"
              + (f" ({', '.join(moved[:5])})" if moved else ""))
    out_dir.mkdir(parents=True, exist_ok=True)
    digest_file.write_text(json.dumps(digests, indent=1) + "\n")

    failed = rec.failed
    fail_rate = failed / max(rec.attempted, 1)
    for reason, count in sorted(rec.failures.items()):
        print(f"failed: {reason} x{count}")
    solves = sum(len(ts) for ts in solve_s.values())
    print(f"fail_rate = {fail_rate:.6g} ratio ({failed} of {rec.attempted})")

    metrics: dict[str, tuple[float, str]] = {}
    if solves:
        per_instance = typical(solve_s)
        metrics = {
            "solve_s.p50": (statistics.median(per_instance), "s"),
            "solve_s.p90": (p90(per_instance), "s"),
            "solves_per_s": (
                solves / sum(sum(ts) for ts in solve_s.values()), "1/s"),
            "verify_s.p50": (
                statistics.median(typical(scaled(verify_s, speed))), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        k = len(per_instance)
        print(f"samples: {solves} solves = {k} instances x {passes} passes; "
              f"percentiles over per-instance medians, p90 has "
              f"{k - int(0.9 * k)} instances beyond it")
        print(f"speed scale (scaled / wall time): median "
              f"{statistics.median(scales):.4g}, range "
              f"{min(scales):.4g}-{max(scales):.4g} over the solves; "
              f"{len(speed.starts)} probes")
    spans: list[list] = []
    layers: dict[str, tuple[float, str]] = {}
    if trace:
        spans = tracer.spans
        write_spans(spans, out_dir / f"{tag}-spans.jsonl")
        if solves and rec.traced_solve_s:
            layers = layer_metrics(spans, metrics["solve_s.p50"][0],
                                   statistics.median(typical(
                                       scaled(rec.traced_solve_s, speed))))
            metrics.update(layers)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")

    shown = layers if trace else metrics
    result = {
        "correct": not rec.failures and solves > 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    return RunOutput(result, spans, instances)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
