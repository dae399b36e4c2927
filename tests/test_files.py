import json

import pytest

from rainbow_hcd.cli import main
from rainbow_hcd.errors import ParseError
from rainbow_hcd.files import (
    certificate_from_text,
    certificate_to_text,
    format_instance,
    parse_instance,
)
from rainbow_hcd.graph_core import edge, verify_certificate
from rainbow_hcd.solver import solve


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
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
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
            "n", "order", "label_map", "classes",
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

    def test_classes_sorted(self):
        doc = json.loads(certificate_to_text(self.make()))
        for cls in doc["classes"]:
            assert cls == sorted(cls)


class TestCertificateFromText:
    def corrupt(self, mutate):
        doc = json.loads(certificate_to_text(solve([(0, 1), (1, 2)], seed=1)))
        mutate(doc)
        return json.dumps(doc)

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            certificate_from_text("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            certificate_from_text("[1, 2]")

    @pytest.mark.parametrize(
        "key",
        ["n", "order", "label_map", "classes", "h_edges", "assignment", "seed"],
    )
    def test_rejects_missing_key(self, key):
        text = self.corrupt(lambda d: d.pop(key))
        with pytest.raises(ParseError):
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
        doc = json.loads(certificate_to_text(cert))
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
