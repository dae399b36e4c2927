import json
import re
import sys
import time
from collections import defaultdict

import pytest

from rainbow_hcd.cli import main
from rainbow_hcd.errors import ParseError, PreconditionViolation
from rainbow_hcd.files import (
    certificate_from_text,
    certificate_to_text,
    format_instance,
    parse_instance,
)
from rainbow_hcd.families import (
    cycle_graph,
    disjoint_union,
    nonisomorphic_edge_graphs,
    path_graph,
    star_graph,
)
from rainbow_hcd.graph_core import edge, verify_certificate
from rainbow_hcd.solver import solve


# 5,000 digits: more than int() reads from text, 4,300 by default; a
# Python without that limit, or with it raised or off, reads them all
LONG = "9" * 5000
digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG),
    reason="int() reads 5,000 digits here",
)


class TestParseInstance:
    def test_basic(self):
        text = "3\n0 1\n1 2\n2 3\n"
        assert parse_instance(text) == [edge(0, 1), edge(1, 2), edge(2, 3)]

    def test_comments_and_blanks(self):
        text = "# header\n2\n\n0 1  # first\n  # noise\n5 7\n"
        assert parse_instance(text) == [edge(0, 1), edge(5, 7)]

    def test_keeps_input_order(self):
        assert parse_instance("2\n4 5\n0 1\n") == [edge(4, 5), edge(0, 1)]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0\n",
            "-1\n",
            "x\n",
            "2 3\n0 1\n1 2\n",
            "2\n0 1\n",
            "2\n0 1\n1 2\n2 3\n",
            "1\n0\n",
            "1\n0 1 2\n",
            "1\n0 -1\n",
            "1\na b\n",
            # int() reads each of these as a number: an underscore, a
            # sign, an Arabic-Indic digit
            "1_0\n",
            "1\n+3 4\n",
            "1\n\u0663 4\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    @digit_limit
    @pytest.mark.parametrize("text, what", [
        (f"{LONG}\n0 1\n", "edge count"), (f"1\n0 {LONG}\n", "vertex label"),
    ], ids=["edge-count", "label"])
    def test_rejects_a_number_past_the_digit_limit(self, text, what):
        # int() raises ValueError on it, which is no ParseError
        with pytest.raises(ParseError, match=f"{what} is too long a number"):
            parse_instance(text)

    def test_loops_and_repeats_pass_through(self):
        # structural validity is the solver's job, not the reader's
        assert parse_instance("1\n2 2\n") == [(2, 2)]
        assert parse_instance("2\n0 1\n0 1\n") == [(0, 1), (0, 1)]


class TestFormatInstance:
    def test_round_trip(self):
        edges = [edge(0, 3), edge(3, 8), edge(1, 2)]
        assert parse_instance(format_instance(edges)) == edges

    def test_shape(self):
        text = format_instance([edge(0, 1)])
        assert text == "1\n0 1\n"


class TestCertificateText:
    def make(self, h=None, seed=5):
        return solve(h or [(0, 1), (1, 2), (2, 3)], seed=seed)

    def test_key_order(self):
        doc = json.loads(
            certificate_to_text(self.make()),
            object_pairs_hook=lambda ps: [k for k, _ in ps],
        )
        assert doc == [
            "format", "n", "order", "label_map", "classes",
            "h_edges", "assignment", "seed", "pipeline_trace",
        ]

    def test_label_map_keys_are_strings(self):
        doc = json.loads(certificate_to_text(self.make()))
        assert all(isinstance(k, str) for k in doc["label_map"])

    def test_trailing_newline(self):
        assert certificate_to_text(self.make()).endswith("}\n")

    def test_round_trip_bytes(self):
        text = certificate_to_text(self.make())
        again = certificate_to_text(certificate_from_text(text))
        assert text == again

    def test_round_trip_verifies(self):
        cert = certificate_from_text(certificate_to_text(self.make()))
        assert verify_certificate(cert).ok

    def test_classes_are_cycle_sequences(self):
        cert = self.make()
        doc = json.loads(certificate_to_text(cert))
        assert doc["format"] == 2
        for seq, cls in zip(doc["classes"], cert.decomposition.classes):
            assert sorted(seq) == list(range(cert.order))
            assert seq[0] == 0 and seq[1] < seq[-1]
            pairs = zip(seq, seq[1:] + seq[:1])
            assert {(min(p), max(p)) for p in pairs} == cls

    def _swap_an_edge(classes):
        # each class keeps 2n+1 edges, but two vertices of each get
        # degree 1 and two degree 3
        a, b = classes[:2]
        ea = min(a)
        eb = next(e for e in sorted(b) if not set(e) & set(ea))
        a ^= {ea, eb}
        b ^= {ea, eb}

    def _two_cycles(classes):
        # every degree is 2, but 0's cycle misses four vertices
        classes[0] = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}

    @pytest.mark.parametrize("damage", [_swap_an_edge, _two_cycles],
                             ids=["swapped-edge", "two-cycles"])
    def test_refuses_a_class_that_is_no_hamiltonian_cycle(self, damage):
        # no vertex sequence describes such a class
        cert = self.make()
        assert cert.order == 7
        damage(cert.decomposition.classes)
        with pytest.raises(PreconditionViolation, match="not a Hamiltonian cycle"):
            certificate_to_text(cert)


def _doc(cert, classes):
    return {
        "n": cert.n,
        "order": cert.order,
        "label_map": {
            str(lab): cert.label_map[lab] for lab in sorted(cert.label_map)
        },
        "classes": classes,
        "h_edges": [list(e) for e in cert.h_edges],
        "assignment": list(cert.assignment),
        "seed": cert.seed,
        "pipeline_trace": list(cert.trace),
    }


def _dumps_text(cert):
    """The format-1 certificate text, each class as its sorted edge pairs,
    as json.dumps(indent=1) writes it: the reference for reading format 1
    and for the format-1 byte pins."""
    classes = [[list(e) for e in sorted(c)] for c in cert.decomposition.classes]
    return json.dumps(_doc(cert, classes), indent=1) + "\n"


def _cycle_by_adjacency(cls):
    """The class's cycle as a vertex sequence from 0 toward its lower
    neighbour, walked on an adjacency map."""
    nbrs = defaultdict(list)
    for u, v in cls:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seq = [0, min(nbrs[0])]
    while len(seq) < len(cls):
        a, b = nbrs[seq[-1]]
        seq.append(b if a == seq[-2] else a)
    return seq


def _dumps_format_2(cert):
    """The format-2 certificate text as json.dumps(indent=1) writes it,
    the reference that certificate_to_text must match byte for byte."""
    classes = [_cycle_by_adjacency(c) for c in cert.decomposition.classes]
    doc = {"format": 2, **_doc(cert, classes)}
    return json.dumps(doc, indent=1) + "\n"


def _every_route_up_to_64():
    """(graph, seed) pairs whose certificates cover the four routes, n <= 64:
    every graph with at most five edges, matchings, paths, mixed linear
    forests, cycles, stars, C3 + (n-3)K2, and one graph on labels that
    are negative or far apart."""
    def k2s(count):
        return disjoint_union(*[path_graph(1)] * count)

    out = [(h, seed) for k in range(1, 6)
           for h in nonisomorphic_edge_graphs(k) for seed in (0, 1)]
    for n in [*range(6, 25), 32, 48, 64]:
        out += [(k2s(n), 0), (path_graph(n), 0), (cycle_graph(n), 0)]
        out.append((disjoint_union(path_graph(n // 3), k2s(n - n // 3)), 0))
        if n % 8 == 0:
            out.append((star_graph(n), 0))
    out += [(disjoint_union(cycle_graph(3), k2s(n - 3)), 0) for n in range(6, 13)]
    out.append(([(1000 - 37 * u, 1000 - 37 * v) for u, v in cycle_graph(7)], 3))
    return out


@pytest.fixture(scope="module")
def every_route_cert():
    return [solve(h, seed=seed) for h, seed in _every_route_up_to_64()]


class TestHandLaidWriter:
    def test_bytes_match_json_dumps_on_every_route(self, every_route_cert):
        routes = set()
        for cert in every_route_cert:
            routes.add(cert.trace[0])
            text = certificate_to_text(cert)
            assert text == _dumps_format_2(cert), cert.h_edges
            assert certificate_to_text(certificate_from_text(text)) == text
        assert routes == {
            "route: base-small", "route: all-k2",
            "route: linear-forest", "route: pipeline",
        }

    def test_both_formats_read_back_to_one_certificate(self, every_route_cert):
        for cert in every_route_cert:
            back = certificate_from_text(certificate_to_text(cert))
            assert back == cert
            assert certificate_from_text(_dumps_text(cert)) == back

    @pytest.mark.parametrize(
        "trace",
        [[], ["route: all-k2", 'a "quote", a \\ backslash,\na newline, \u00e9 \u2603']],
        ids=["empty", "escapes"],
    )
    def test_trace_lines_escape_as_json_dumps_does(self, trace):
        cert = solve(path_graph(7), seed=0)
        cert.trace = trace
        assert certificate_to_text(cert) == _dumps_format_2(cert)


class TestCertificateFromText:
    """Each rejection here is run against a format-1 text; TestFormat2
    holds the format-2 twins of those that concern a class."""

    def corrupt(self, mutate):
        doc = json.loads(_dumps_text(solve([(0, 1), (1, 2)], seed=1)))
        mutate(doc)
        return json.dumps(doc)

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            certificate_from_text("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            certificate_from_text("[1, 2]")

    def test_rejects_nesting_past_the_recursion_limit(self):
        # json.loads raises RecursionError here, which is no ParseError
        with pytest.raises(ParseError, match="nests deeper"):
            certificate_from_text("[" * 200_000)

    @digit_limit
    def test_rejects_a_number_past_the_digit_limit(self):
        # json.loads raises ValueError on it, which is no ParseError
        with pytest.raises(ParseError, match="holds too long a number"):
            certificate_from_text(f'{{"n": {LONG}}}')
        text = self.corrupt(lambda d: d["label_map"].update({"0": 0}))
        with pytest.raises(ParseError, match="holds too long a number"):
            certificate_from_text(text.replace('"0": 0', f'"0": {LONG}'))

    @digit_limit
    def test_rejects_a_label_key_past_the_digit_limit(self):
        # a key is a string to json.loads; int() reads it after
        text = self.corrupt(lambda d: TestCertificateFromText._rekey(
            d, lambda k: LONG if k == "0" else k))
        with pytest.raises(ParseError, match="label_map has too long a key"):
            certificate_from_text(text)

    @pytest.mark.parametrize(
        "key",
        ["n", "order", "label_map", "classes", "h_edges", "assignment", "seed"],
    )
    def test_rejects_missing_key(self, key):
        text = self.corrupt(lambda d: d.pop(key))
        with pytest.raises(ParseError):
            certificate_from_text(text)

    def test_rejects_unknown_key(self):
        # the writer never writes it, so the reader takes it for a fault
        text = self.corrupt(lambda d: d.update(extra=1))
        with pytest.raises(ParseError, match="unknown keys: extra"):
            certificate_from_text(text)

    def test_rejects_order_mismatch(self):
        def mutate(d):
            d["order"] = 99

        with pytest.raises(ParseError):
            certificate_from_text(self.corrupt(mutate))

    def test_rejects_malformed_edge(self):
        def mutate(d):
            d["classes"][0][0] = [1, 2, 3]

        with pytest.raises(ParseError):
            certificate_from_text(self.corrupt(mutate))

    def test_rejects_non_numeric_label_key(self):
        def mutate(d):
            d["label_map"]["oops"] = 0

        with pytest.raises(ParseError):
            certificate_from_text(self.corrupt(mutate))

    # Each form int() would read as the intended number, so a reader that
    # converted instead of checking would accept it.  The first edge of
    # class 0 and of h_edges is rewritten in place.
    def _first_class_edge(d, form):
        d["classes"][0][0] = form(d["classes"][0][0])

    def _first_h_edge(d, form):
        d["h_edges"][0] = form(d["h_edges"][0])

    def _rekey(d, form):
        d["label_map"] = {form(k): v for k, v in d["label_map"].items()}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(n=str(d["n"])),
            lambda d: d.update(n=float(d["n"])),
            lambda d: d.update(order=str(d["order"])),
            lambda d: d.update(order=float(d["order"])),
            lambda d: d.update(seed=True),
            lambda d: d.update(seed=float(d["seed"])),
            lambda d: d["assignment"].__setitem__(0, str(d["assignment"][0])),
            lambda d: d["assignment"].__setitem__(0, float(d["assignment"][0])),
            lambda d: d["assignment"].__setitem__(0, bool(d["assignment"][0])),
            lambda d: d.update(assignment="01"),
            lambda d: d["label_map"].update({"0": float(d["label_map"]["0"])}),
            lambda d: d["label_map"].update({"0": str(d["label_map"]["0"])}),
            lambda d: d["label_map"].update({"0": bool(d["label_map"]["0"])}),
            lambda d: TestCertificateFromText._rekey(d, lambda k: "0" + k),
            lambda d: TestCertificateFromText._rekey(d, lambda k: "+" + k),
            lambda d: TestCertificateFromText._rekey(d, lambda k: " " + k),
            lambda d: TestCertificateFromText._rekey(d, lambda k: k + ".0"),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: "".join(map(str, e))),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: [x + 0.4 for x in e]),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: [float(x) for x in e]),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: [str(x) for x in e]),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: [bool(x) for x in e]),
            lambda d: TestCertificateFromText._first_class_edge(d, lambda e: e[:1]),
            lambda d: TestCertificateFromText._first_class_edge(
                d, lambda e: {str(x): x for x in e}),
            lambda d: TestCertificateFromText._first_h_edge(
                d, lambda e: [str(e[0]), e[1]]),
            lambda d: TestCertificateFromText._first_h_edge(
                d, lambda e: [float(x) for x in e]),
            lambda d: d.update(h_edges={str(i): e for i, e in enumerate(d["h_edges"])}),
            lambda d: d.update(classes=dict(enumerate(d["classes"]))),
            lambda d: d["classes"].__setitem__(0, "".join(map(str, d["classes"][0]))),
            lambda d: d.update(label_map=list(d["label_map"].items())),
            lambda d: d["pipeline_trace"].__setitem__(0, 1),
        ],
        ids=[
            "n-string", "n-float", "order-string", "order-float", "seed-bool",
            "seed-float", "assignment-string", "assignment-float",
            "assignment-bool", "assignment-not-array", "label-value-float",
            "label-value-string", "label-value-bool", "label-key-leading-zero",
            "label-key-plus", "label-key-space", "label-key-decimal-point",
            "edge-string", "edge-fractions", "edge-floats", "edge-strings",
            "edge-bools", "edge-one-end", "edge-object", "h-edge-string-label",
            "h-edge-floats", "h-edges-object", "classes-object", "class-string",
            "label-map-array", "trace-entry-number",
        ],
    )
    def test_rejects_non_integer_forms(self, mutate):
        with pytest.raises(ParseError):
            certificate_from_text(self.corrupt(mutate))

    def test_rejects_the_forms_int_would_accept_together(self, tmp_path, capsys):
        # a class edge given as the string "01", another edge as
        # [0.4, 3.2] and an input label "0": int() reads each as the
        # certificate's own value, so without the type checks this text
        # parsed and verified
        cert = solve([(0, 1), (1, 3)], seed=1)
        doc = json.loads(_dumps_text(cert))
        c01 = next(i for i, cls in enumerate(doc["classes"]) if [0, 1] in cls)
        c03 = next(i for i, cls in enumerate(doc["classes"]) if [0, 3] in cls)
        doc["classes"][c01][doc["classes"][c01].index([0, 1])] = "01"
        doc["classes"][c03][doc["classes"][c03].index([0, 3])] = [0.4, 3.2]
        doc["h_edges"][0][0] = "0"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        inst = tmp_path / "instance.txt"
        inst.write_text(format_instance([(0, 1), (1, 3)]))
        with pytest.raises(ParseError):
            certificate_from_text(path.read_text())
        assert main(["verify", str(path), str(inst)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_rejects_a_class_that_lists_an_edge_twice(self):
        # read into a set, the repeat would vanish: the text would verify
        # and write back to other bytes
        def mutate(d):
            d["classes"][0].append(d["classes"][0][0])

        with pytest.raises(ParseError, match="class 0 lists an edge twice"):
            certificate_from_text(self.corrupt(mutate))

    def test_rejects_label_key_minus_zero(self):
        # "-0" reads as 0, as "0" does: the text would verify and write
        # back with the key "0"
        with pytest.raises(ParseError, match="not a decimal integer"):
            certificate_from_text(self.corrupt(
                lambda d: TestCertificateFromText._rekey(
                    d, lambda k: "-0" if k == "0" else k)
            ))

    def test_tampered_assignment_still_parses_then_fails_verify(self):
        # parsing checks shape only; semantic damage is the verifier's call
        def mutate(d):
            d["assignment"] = [0, 0]

        cert = certificate_from_text(self.corrupt(mutate))
        assert not verify_certificate(cert).ok

    @pytest.mark.parametrize("fmt", [_dumps_text, certificate_to_text])
    def test_rejects_a_top_level_key_written_twice(self, fmt):
        # json.loads keeps the last value, so this text read as seed 1
        text = fmt(solve([(0, 1), (1, 2)], seed=1))
        assert '\n "seed": 1,\n' in text
        text = text.replace('\n "seed": 1,', '\n "seed": 5,\n "seed": 1,')
        with pytest.raises(ParseError, match="repeats a key"):
            certificate_from_text(text)

    @pytest.mark.parametrize("fmt", [_dumps_text, certificate_to_text])
    def test_rejects_a_label_map_key_written_twice(self, fmt):
        text = fmt(solve([(0, 1), (1, 2)], seed=1))
        assert '"label_map": {\n  "0": 0,' in text
        text = text.replace('"label_map": {', '"label_map": {\n  "0": 1,')
        with pytest.raises(ParseError, match="repeats a key"):
            certificate_from_text(text)


    @pytest.mark.parametrize("fmt", [_dumps_text, certificate_to_text])
    @pytest.mark.parametrize(
        "pair", [[1, 0], [3, 3]], ids=["high-end-first", "loop"]
    )
    def test_rejects_an_h_edge_not_written_low_end_first(self, fmt, pair):
        # the writer writes each input edge low end first; read as it
        # stands, [1, 0] would verify and write back as [0, 1]
        doc = json.loads(fmt(solve([(0, 1), (1, 2)], seed=1)))
        assert doc["h_edges"][0] == [0, 1]
        doc["h_edges"][0] = pair
        with pytest.raises(ParseError, match=re.escape(
            f"h_edges: edge {pair} is not written low end first"
        )):
            certificate_from_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "pair", [[1, 0], [3, 3]], ids=["high-end-first", "loop"]
    )
    def test_rejects_a_format_1_class_edge_not_written_low_end_first(self, pair):
        # format 1 writes each class edge as its sorted pair; [1, 0] used
        # to parse and then fail verify as an edge out of range
        doc = json.loads(_dumps_text(solve([(0, 1), (1, 2)], seed=1)))
        assert doc["classes"][0][0] == [0, 1]
        doc["classes"][0][0] = pair
        with pytest.raises(ParseError, match=re.escape(
            f"class 0: edge {pair} is not written low end first"
        )):
            certificate_from_text(json.dumps(doc))


class TestFormat2:
    """The format-2 twins of TestCertificateFromText's class rejections,
    and the format key itself."""

    def corrupt(self, mutate):
        doc = json.loads(certificate_to_text(solve([(0, 1), (1, 2)], seed=1)))
        mutate(doc)
        return json.dumps(doc, indent=1)

    def test_reads_what_it_writes(self):
        cert = solve([(0, 1), (1, 2)], seed=1)
        assert certificate_from_text(self.corrupt(lambda d: None)) == cert

    def _first_class(d, change):
        d["classes"][0] = change(d["classes"][0])

    def _repeat_a_vertex(s):
        # s[1] again in place of a vertex that is not the greatest, so
        # the least and the greatest entries stay 0 and 2n
        j = next(j for j in range(2, len(s)) if s[j] != len(s) - 1)
        return s[:j] + [s[1]] + s[j + 1:]

    def _from_vertex_1(s):
        # the same cycle from s[1] on, in the direction that puts the
        # lower neighbour second
        return s[1:2] + s[:1] + s[:1:-1]

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda s: [str(s[0])] + s[1:], "not an integer"),
            (lambda s: [float(s[0])] + s[1:], "not an integer"),
            (lambda s: [bool(s[0])] + s[1:], "not an integer"),
            (lambda s: s[:1] + [s[1] + 0.4] + s[2:], "not an integer"),
            (lambda s: "".join(map(str, s)), "not an array"),
            (lambda s: s[:-1], "not an array of 5 vertices"),
            (lambda s: s + [5], "not an array of 5 vertices"),
            (lambda s: [[s[0], s[1]]] + s[1:], "not an integer"),
            (_repeat_a_vertex, "not a permutation"),
            (lambda s: s[:-1] + [5], "not a permutation"),
            (lambda s: s[:-1] + [-1], "not a permutation"),
            (lambda s: s[1:] + s[:1], "does not start at 0"),
            (_from_vertex_1, "does not start at 0"),
            (lambda s: s[:1] + s[:0:-1], "does not start at 0"),
        ],
        ids=[
            "string", "float", "bool", "fraction", "class-string",
            "short", "long", "pair", "repeated-vertex", "vertex-above",
            "vertex-below", "rotated", "from-vertex-1", "reversed",
        ],
    )
    def test_rejects_a_class_that_is_not_the_written_sequence(self, change, message):
        text = self.corrupt(lambda d: TestFormat2._first_class(d, change))
        with pytest.raises(ParseError, match=f"class 0 .*{message}"):
            certificate_from_text(text)

    def test_checks_the_length_before_anything_of_size_order(self):
        # a huge order with a short class fails at once on the length
        text = self.corrupt(lambda d: d.update(order=10**12))
        with pytest.raises(ParseError, match="not an array of 1000000000000"):
            certificate_from_text(text)

    @pytest.mark.parametrize(
        "value", [1, 3, "2", 2.0, True, None],
        ids=["one", "three", "string", "float", "bool", "null"],
    )
    def test_rejects_any_format_but_2(self, value):
        with pytest.raises(ParseError, match="format"):
            certificate_from_text(self.corrupt(lambda d: d.update(format=value)))

    def test_reads_a_document_without_format_as_format_1(self):
        # format-2 classes under format 1 are no edge pairs
        with pytest.raises(ParseError, match="class 0: edge 0 is not two integers"):
            certificate_from_text(self.corrupt(lambda d: d.pop("format")))


@pytest.mark.slow
def test_certificate_io_gate_order_513():
    # the 256K2 certificate (order 513, 131,328 edges) written, read
    # back and verified; on a 2-core machine with Python 3.11 that took
    # 0.25 to 0.41 s in format 1 and 0.14 to 0.16 s in format 2, and the
    # bound is three times format 1's longer time.  The text took
    # 3.64 MB in format 1 and takes 1.04 MB in format 2: the size bound
    # fails a format that grows, without depending on timing.
    cert = solve(disjoint_union(*[path_graph(1)] * 256), seed=0)
    t0 = time.perf_counter()
    text = certificate_to_text(cert)
    rep = verify_certificate(certificate_from_text(text))
    dt = time.perf_counter() - t0
    assert rep.ok, "\n".join(rep.lines())
    assert len(text) <= 1_100_000, f"the text takes {len(text):,} bytes"
    assert dt < 1.2, f"certificate I/O at order 513 took {dt:.2f}s"
