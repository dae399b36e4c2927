"""Command line surface.

Subcommands: solve, verify, oracle, walecki, bench.  Exit codes: 0
success (for oracle: search finished either way), 1 parse error, 2
rejected input or arguments, 3 internal failure, 4 budget exhausted, 5
verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time

from .errors import (
    BudgetExceeded,
    InfeasibleInput,
    InternalInfeasible,
    ParseError,
    PreconditionViolation,
)
from .families import (
    EXHAUSTIVE_CAP,
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from .files import (
    certificate_from_text,
    certificate_to_text,
    parse_instance,
)
from .graph_core import edge_vertices, verify_certificate, walecki
from .oracle import exhaustive_rainbow_hcd
from .solver import solve


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleInput as exc:
        print(f"rejected input: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    except InternalInfeasible as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionViolation as exc:
        print(f"rejected arguments: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-hcd",
        description=(
            "Build and check decompositions of K_{2n+1} into n Hamiltonian "
            "cycles with a prescribed n-edge graph rainbow across them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the certificate here (default stdout)")
    p.add_argument("--trace", action="store_true", help="print stage tags")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("certificate", help="certificate file path")
    p.add_argument("instance", help="instance file path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="independent exhaustive search")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--budget", type=int, default=10**8, help="node cap")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("walecki", help="print the hub construction")
    p.add_argument("n", type=int)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_walecki)

    p = sub.add_parser("bench", help="timed sweep with verified output")
    p.add_argument("--n-range", default="1..5", help="A..B inclusive")
    p.add_argument("--samples", type=int, default=10, help="instances per n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="all isomorphism classes per n instead of samples (n <= 6)",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def _read(path: str) -> str:
    """The text of path; a file that cannot be read, or is not UTF-8, is a
    parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is a rejected
    argument."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionViolation(f"cannot write {path}: {exc}") from None


def _cmd_solve(args) -> int:
    edges = parse_instance(_read(args.instance))
    cert = solve(edges, seed=args.seed)
    text = certificate_to_text(cert)
    if args.trace:
        # with the certificate on stdout, the trace must not mix into it
        stream = sys.stdout if args.out else sys.stderr
        for line in cert.trace:
            print(line, file=stream)
    if args.out:
        _write(args.out, text)
        print(f"certificate: n={cert.n} order={cert.order} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    cert = certificate_from_text(_read(args.certificate))
    edges = parse_instance(_read(args.instance))
    report = verify_certificate(cert)
    # plain (min, max) pairs: a loop is reported by the checks, not raised
    inst_ok = sorted((min(e), max(e)) for e in edges) == sorted(
        (min(e), max(e)) for e in cert.h_edges
    )
    for line in report.lines():
        print(line)
    print(
        "instance: ok"
        if inst_ok
        else "instance: FAIL (certificate edges differ from the instance)"
    )
    if report.ok and inst_ok:
        print("verification passed")
        return 0
    for name, passed, _ in report.checks:
        if not passed:
            print(f"{name} violation")
    if not inst_ok:
        print("instance violation")
    return 5


def _cmd_oracle(args) -> int:
    edges = parse_instance(_read(args.instance))
    dense = {v: i for i, v in enumerate(edge_vertices(edges))}
    placed = [(dense[u], dense[v]) for u, v in edges]
    out = exhaustive_rainbow_hcd(placed, len(edges), budget=args.budget)
    print(f"{out.status} nodes={out.nodes}")
    return 0


def _cmd_walecki(args) -> int:
    if args.n < 1:
        raise PreconditionViolation("need n >= 1")
    dec = walecki(args.n)
    dec.check_hcd()
    lines = [f"order {dec.order} classes {len(dec.classes)}"]
    for i, cls in enumerate(dec.classes):
        lines.append(f"{i}: " + " ".join(f"{u}-{v}" for u, v in sorted(cls)))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise PreconditionViolation(f"range must look like A..B: {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise PreconditionViolation(
            f"range bounds must be integers: {text!r}"
        ) from None
    if a < 1 or b < a:
        raise PreconditionViolation(f"need 1 <= A <= B: {text!r}")
    return a, b


def _sample_instance(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random disjoint union of small shapes with exactly n edges."""
    parts: list[list[tuple[int, int]]] = []
    total = 0
    while total < n:
        left = n - total
        kind = rng.randrange(4)
        if kind == 0 and left >= 2:
            p = path_graph(rng.randrange(2, min(left, 6) + 1))
        elif kind == 1 and left >= 3:
            p = star_graph(rng.randrange(3, min(left, 5) + 1))
        elif kind == 2 and left >= 3:
            p = cycle_graph(rng.randrange(3, min(left, 6) + 1))
        else:
            p = [(0, 1)]
        parts.append(p)
        total += len(p)
    return disjoint_union(*parts)


def _cmd_bench(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if args.samples < 1:
        raise PreconditionViolation(f"need --samples >= 1: {args.samples}")
    if args.exhaustive and hi > EXHAUSTIVE_CAP:
        raise PreconditionViolation(f"exhaustive sweeps stop at n={EXHAUSTIVE_CAP}")
    rows: list[tuple[str, str, float, str]] = []
    failures = 0
    for n in range(lo, hi + 1):
        if args.exhaustive:
            batch = [
                (f"n{n}-c{idx:03d}", g)
                for idx, g in enumerate(nonisomorphic_edge_graphs(n))
            ]
        else:
            batch = []
            for idx in range(args.samples):
                rng = random.Random(f"{args.seed}:{n}:{idx}")
                batch.append((f"n{n}-s{idx:03d}", _sample_instance(n, rng)))
        for tag, edges in batch:
            t0 = time.perf_counter()
            try:
                cert = solve(edges, seed=args.seed)
            except Exception as exc:  # noqa: BLE001 - reported per row
                failures += 1
                rows.append((tag, f"FAILED {type(exc).__name__}", 0.0, "-"))
                continue
            dt = time.perf_counter() - t0
            digest = hashlib.sha256(
                certificate_to_text(cert).encode()
            ).hexdigest()[:12]
            stages = " > ".join(line.split(":")[0] for line in cert.trace)
            rows.append((tag, stages, dt, digest))
    width = max(len(r[0]) for r in rows)
    swidth = max(len(r[1]) for r in rows)
    print(f"{'instance':<{width}}  {'stages':<{swidth}}  {'seconds':>8}  checksum")
    for tag, stages, dt, digest in rows:
        print(f"{tag:<{width}}  {stages:<{swidth}}  {dt:>8.3f}  {digest}")
    print(f"{len(rows)} instances, {failures} failures")
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
