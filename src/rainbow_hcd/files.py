"""Flat file formats.

Instances: first a line holding the edge count, then exactly that many
"u v" lines, the count and the labels written in ASCII decimal digits
only (no sign, underscore or other script's digits).  '#' starts a
comment, end of line ends it; blank lines are skipped.

Certificates: one JSON document with the keys format, n, order,
label_map, classes, h_edges, assignment, seed, pipeline_trace, in that
order, byte stable for a fixed certificate.  Class indices are 0 based
everywhere.  The writer writes format 2: each class is its Hamiltonian
cycle as a vertex sequence, the 2n+1 hosts from 0 on toward the lower of
0's two neighbours.  A document without the format key is format 1, in
which each class is its 2n+1 edges as sorted [low, high] pairs; no
writer writes the key with value 1.

Reading one takes only what writing one gives: these keys and no other
(format 1 lacking the first), no key twice in one object, format the
integer 2, n, order, seed, each assignment entry and each label_map
value a JSON integer (true and false are not), each label_map key a
canonical decimal string ("7" or "-7", not "07", "+7", " 7" or "-0"),
each h_edges edge (and in format 1 each class edge) a JSON array of two
such integers written low end first (so no loop), no format-1 class
listing an edge twice, and pipeline_trace an array of strings.  A
format-2 class must be an array of exactly order entries (checked before
anything of that size is built), each an integer, together a permutation
of 0..order-1, starting at 0 with its second entry below its last.
Anything else is a ParseError.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, PreconditionViolation
from .graph_core import Decomposition, Edge, RainbowCertificate, cycle_edges


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
        edges.append((_int(row[0], "vertex label"), _int(row[1], "vertex label")))
    return edges


def format_instance(edges: list[Edge]) -> str:
    lines = [str(len(edges))]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _int(tok: str, what: str) -> int:
    """tok as a number, or ParseError unless it is ASCII decimal digits:
    int() alone would also read "+3", "1_0" and other scripts' digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"{what} is not a decimal number: {tok!r}")
    return int(tok)


_KEYS = (
    "format", "n", "order", "label_map", "classes",
    "h_edges", "assignment", "seed", "pipeline_trace",
)


def certificate_to_text(cert: RainbowCertificate) -> str:
    """The format-2 document json.dumps(doc, indent=1) would write, laid
    out here (that encoder is pure Python): numbers by str, trace lines
    by json.dumps.  PreconditionViolation unless every class is a
    Hamiltonian cycle on 0..order-1."""
    classes = [
        _block(list(map(str, _cycle(c, cert.order))), 2)
        for c in cert.decomposition.classes
    ]
    labels = [f'"{lab}": {cert.label_map[lab]}' for lab in sorted(cert.label_map)]
    values = (
        2, cert.n, cert.order, _block(labels, 1, "{}"), _block(classes, 1),
        _block(list(map("[\n   %s,\n   %s\n  ]".__mod__, cert.h_edges)), 1),
        _block(list(map(str, cert.assignment)), 1), cert.seed,
        _block(list(map(json.dumps, cert.trace)), 1),
    )
    return _block([f'"{k}": {v}' for k, v in zip(_KEYS, values)], 0, "{}") + "\n"


def _cycle(cls: set[Edge], order: int) -> list[int]:
    """cls's vertex sequence from 0 toward the lower of 0's neighbours.
    Each edge fills a neighbour slot at both ends, as in graph_core's
    _prove: order edges that fill every second slot give every vertex
    degree two, and then cls is a Hamiltonian cycle when the walk from 0
    meets 0 again after order vertices."""
    first = [-1] * order
    second = [-1] * order
    for u, v in cls:
        (first if first[u] < 0 else second)[u] = v
        (first if first[v] < 0 else second)[v] = u
    seq = [0]
    if len(cls) == order and -1 not in second:
        prev, cur = 0, min(first[0], second[0])
        while cur:
            seq.append(cur)
            prev, cur = cur, (second[cur] if first[cur] == prev else first[cur])
    if len(seq) != order:
        raise PreconditionViolation("a class is not a Hamiltonian cycle on 0..2n")
    return seq


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array or object opened at nesting depth `depth`, its items
    formatted for depth + 1, one per line."""
    if not items:
        return brackets
    pad = "\n" + " " * depth
    return brackets[0] + pad + " " + ("," + pad + " ").join(items) + pad + brackets[1]


def certificate_from_text(text: str) -> RainbowCertificate:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"certificate is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("certificate nests deeper than JSON can be read") from None
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    keys = _KEYS if "format" in doc else _KEYS[1:]
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParseError(f"certificate lacks keys: {', '.join(missing)}")
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise ParseError(f"certificate has unknown keys: {', '.join(unknown)}")
    if "format" in doc and _json_int(doc["format"], "format") != 2:
        raise ParseError(f"certificate format {doc['format']} is not 2")
    n = _json_int(doc["n"], "n")
    order = _json_int(doc["order"], "order")
    seed = _json_int(doc["seed"], "seed")
    label_map = _label_map(doc["label_map"])
    h_edges = _edge_list(doc["h_edges"], "h_edges")
    assignment = _array(doc["assignment"], "assignment")
    if not _all_type(assignment, int):
        raise ParseError("assignment holds an entry that is not an integer")
    rows = _array(doc["classes"], "classes")
    if "format" in doc:
        classes = [_cycle_edges(seq, order, i) for i, seq in enumerate(rows)]
    else:
        classes = [_pair_edges(cls, i) for i, cls in enumerate(rows)]
    trace = _array(doc["pipeline_trace"], "pipeline_trace")
    if not _all_type(trace, str):
        raise ParseError("pipeline_trace holds an entry that is not a string")
    if order != 2 * n + 1:
        raise ParseError(f"order {order} does not match n={n}")
    dec = Decomposition(order, classes)
    return RainbowCertificate(n, seed, h_edges, label_map, assignment, dec, trace)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ParseError("certificate repeats a key in one object")
    return doc


def _cycle_edges(seq, order: int, i: int) -> set[Edge]:
    """Format-2 class i: the edges of the cycle seq, consecutive entries
    and the last with the first, or ParseError unless seq is the
    sequence _cycle writes."""
    if type(seq) is not list or len(seq) != order or order < 3:
        raise ParseError(f"class {i} is not an array of {order} vertices")
    if not _all_type(seq, int):
        raise ParseError(f"class {i} holds an entry that is not an integer")
    if min(seq) != 0 or max(seq) != order - 1 or len(set(seq)) != order:
        raise ParseError(f"class {i} is not a permutation of 0..{order - 1}")
    if seq[0] != 0 or seq[1] > seq[-1]:
        raise ParseError(f"class {i} does not start at 0 toward its lower neighbour")
    return cycle_edges(seq)


def _pair_edges(rows, i: int) -> set[Edge]:
    """Format-1 class i: its edges, or ParseError unless rows lists each
    once as an array of two integers, low end first."""
    cls = set(_edge_list(rows, f"class {i}"))
    if len(cls) != len(rows):
        raise ParseError(f"class {i} lists an edge twice")
    return cls


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
    integers, the lower first."""
    edges = []
    for e in _array(rows, what):
        if type(e) is not list or len(e) != 2:
            raise ParseError(f"{what}: edge {e!r} is not two integers")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise ParseError(f"{what}: edge {e!r} is not two integers")
        if u >= v:
            raise ParseError(f"{what}: edge {e!r} is not written low end first")
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
