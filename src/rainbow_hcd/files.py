"""Flat file formats.

Instances: first a line holding the edge count, then exactly that many
"u v" lines with non-negative integer labels.  '#' starts a comment, end
of line ends it; blank lines are skipped.

Certificates: one JSON document with the keys n, order, label_map,
classes, h_edges, assignment, seed, pipeline_trace, in that order, byte
stable for a fixed certificate.  Class indices are 0 based everywhere.
Reading one takes only what writing one gives: n, order, seed, each
assignment entry and each label_map value a JSON integer (true and false
are not), each edge a JSON array of two such integers, no class listing
an edge twice, each label_map key a canonical decimal string ("7" or
"-7", not "07", "+7", " 7" or "-0"), and pipeline_trace an array of
strings; anything else is a ParseError.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .graph_core import Decomposition, Edge, RainbowCertificate


def parse_instance(text: str) -> list[Edge]:
    """Read an instance document into its edge list, order preserved.

    Loops and repeated edges are left in: those are input validation,
    handled by the solver, not parsing."""
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ParseError("empty instance file")
    if len(rows[0]) != 1:
        raise ParseError(f"first line must hold one number: {rows[0]!r}")
    n = _int(rows[0][0], "edge count")
    if n < 1:
        raise ParseError("empty instance rejected: edge count must be >= 1")
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} edge lines, found {len(rows) - 1}")
    edges: list[Edge] = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"edge line needs two labels: {' '.join(row)!r}")
        u = _int(row[0], "vertex label")
        v = _int(row[1], "vertex label")
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex label in {' '.join(row)!r}")
        edges.append((u, v))
    return edges


def format_instance(edges: list[Edge]) -> str:
    lines = [str(len(edges))]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {tok!r}") from None


def certificate_to_text(cert: RainbowCertificate) -> str:
    doc = {
        "n": cert.n,
        "order": cert.order,
        "label_map": {
            str(lab): cert.label_map[lab] for lab in sorted(cert.label_map)
        },
        "classes": [
            [list(e) for e in sorted(cls)] for cls in cert.decomposition.classes
        ],
        "h_edges": [list(e) for e in cert.h_edges],
        "assignment": list(cert.assignment),
        "seed": cert.seed,
        "pipeline_trace": list(cert.trace),
    }
    return json.dumps(doc, indent=1) + "\n"


def certificate_from_text(text: str) -> RainbowCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"certificate is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    missing = [
        k
        for k in (
            "n", "order", "label_map", "classes",
            "h_edges", "assignment", "seed", "pipeline_trace",
        )
        if k not in doc
    ]
    if missing:
        raise ParseError(f"certificate lacks keys: {', '.join(missing)}")
    n = _json_int(doc["n"], "n")
    order = _json_int(doc["order"], "order")
    seed = _json_int(doc["seed"], "seed")
    label_map = _label_map(doc["label_map"])
    h_edges = _edge_list(doc["h_edges"], "h_edges")
    assignment = _array(doc["assignment"], "assignment")
    if not _all_type(assignment, int):
        raise ParseError("assignment holds an entry that is not an integer")
    classes = []
    for i, rows in enumerate(_array(doc["classes"], "classes")):
        cls = set(_edge_list(rows, f"class {i}"))
        if len(cls) != len(rows):
            raise ParseError(f"class {i} lists an edge twice")
        classes.append(cls)
    trace = _array(doc["pipeline_trace"], "pipeline_trace")
    if not _all_type(trace, str):
        raise ParseError("pipeline_trace holds an entry that is not a string")
    if order != 2 * n + 1:
        raise ParseError(f"order {order} does not match n={n}")
    dec = Decomposition(order, classes)
    return RainbowCertificate(n, seed, h_edges, label_map, assignment, dec, trace)


# an integer in the form str() writes it, so no "-0"
_CANONICAL = re.compile(r"0|-?[1-9][0-9]*")


def _all_type(items: list, kind: type) -> bool:
    """Whether every item is exactly of type kind: bool is not int."""
    return not items or set(map(type, items)) == {kind}


def _json_int(x, what: str) -> int:
    if type(x) is not int:
        raise ParseError(f"{what} is not an integer: {x!r}")
    return x


def _array(x, what: str) -> list:
    if type(x) is not list:
        raise ParseError(f"{what} is not a JSON array")
    return x


def _edge_list(rows, what: str) -> list[Edge]:
    """rows as edges, or ParseError unless each is an array of two
    integers."""
    edges = []
    for e in _array(rows, what):
        if type(e) is not list or len(e) != 2:
            raise ParseError(f"{what}: edge {e!r} is not two integers")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise ParseError(f"{what}: edge {e!r} is not two integers")
        edges.append((u, v))
    return edges


def _label_map(doc) -> dict[int, int]:
    if type(doc) is not dict:
        raise ParseError("label_map is not a JSON object")
    if not all(map(_CANONICAL.fullmatch, doc)):
        raise ParseError("label_map has a key that is not a decimal integer")
    if not _all_type(list(doc.values()), int):
        raise ParseError("label_map has a value that is not an integer")
    return {int(k): v for k, v in doc.items()}
