import json
from pathlib import Path

import pytest

from rainbow_hcd.cli import main
from rainbow_hcd.files import certificate_from_text, format_instance
from rainbow_hcd.graph_core import verify_certificate
from test_files import LONG, _dumps_text, digit_limit


def write_instance(tmp_path, edges, name="instance.txt"):
    path = tmp_path / name
    path.write_text(format_instance(edges))
    return str(path)


class TestSolve:
    def test_stdout_certificate(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)])
        assert main(["solve", inst, "--seed", "2"]) == 0
        cert = certificate_from_text(capsys.readouterr().out)
        assert verify_certificate(cert).ok

    def test_out_file_and_summary_line(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)])
        dest = tmp_path / "cert.json"
        assert main(["solve", inst, "--out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "certificate: n=3 order=7" in out
        assert verify_certificate(certificate_from_text(dest.read_text())).ok

    def test_trace_flag(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)])
        dest = tmp_path / "cert.json"
        assert main(["solve", inst, "--trace", "--out", str(dest)]) == 0
        assert "route: base-small" in capsys.readouterr().out

    def test_trace_kept_out_of_stdout_certificate(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)])
        assert main(["solve", inst, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "route: base-small" in captured.err
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(captured.out)
        assert main(["verify", str(cert_path), inst]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.txt")]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)])
        dest = tmp_path / "missing_dir" / "x.json"
        assert main(["solve", inst, "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rejected arguments: cannot write {dest}: ")
        assert len(err.splitlines()) == 1

    def test_zero_edge_instance(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0\n")
        assert main(["solve", str(path)]) == 1

    def test_loop_instance(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("1\n4 4\n")
        assert main(["solve", str(path)]) == 2
        assert "rejected input" in capsys.readouterr().err


class TestVerify:
    def roundtrip(self, tmp_path):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (5, 9)])
        cert = tmp_path / "cert.json"
        assert main(["solve", inst, "--out", str(cert)]) == 0
        return inst, cert

    def test_good_certificate(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(cert), inst]) == 0
        out = capsys.readouterr().out
        assert "instance: ok" in out
        assert "verification passed" in out

    def test_format_1_certificate(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        cert.write_text(_dumps_text(certificate_from_text(cert.read_text())))
        assert '"format"' not in cert.read_text()
        capsys.readouterr()
        assert main(["verify", str(cert), inst]) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_tampered_assignment(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        doc = json.loads(cert.read_text())
        doc["assignment"] = [0] * doc["n"]
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert), inst]) == 5
        assert "rainbow violation" in capsys.readouterr().out

    def test_wrong_instance(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        other = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3)], "other.txt")
        capsys.readouterr()
        assert main(["verify", str(cert), other]) == 5
        assert "instance violation" in capsys.readouterr().out

    def test_loop_in_instance(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        looped = tmp_path / "looped.txt"
        looped.write_text("3\n0 1\n1 2\n5 5\n")
        capsys.readouterr()
        assert main(["verify", str(cert), str(looped)]) == 5
        assert "instance violation" in capsys.readouterr().out

    def test_loop_in_certificate(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        doc = json.loads(cert.read_text())
        doc["h_edges"][0] = [0, 0]
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        # the writer writes each input edge low end first, so a loop is
        # no certificate text at all
        assert main(["verify", str(cert), inst]) == 1
        assert "parse error: h_edges: edge [0, 0]" in capsys.readouterr().err

    def test_format_1_class_edge_high_end_first(self, tmp_path, capsys):
        # a parse error (exit 1), not a partition failure (exit 5) that
        # names the reversed pair out of range
        inst, cert = self.roundtrip(tmp_path)
        doc = json.loads(_dumps_text(certificate_from_text(cert.read_text())))
        doc["classes"][0][0].reverse()
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert), inst]) == 1
        assert "parse error: class 0: edge [1, 0]" in capsys.readouterr().err

    def test_truncated_json(self, tmp_path, capsys):
        inst, cert = self.roundtrip(tmp_path)
        cert.write_text(cert.read_text()[:40])
        assert main(["verify", str(cert), inst]) == 1

    @pytest.mark.parametrize("fault", [
        "latin-1-instance", "latin-1-certificate", "deep-certificate",
        pytest.param("long-number-instance", marks=digit_limit),
        pytest.param("long-number-certificate", marks=digit_limit),
    ])
    def test_unreadable_text_is_one_parse_error_line(self, tmp_path, capsys, fault):
        # a file that is not UTF-8, a certificate nested past the
        # recursion limit, or a number of more digits than int() reads,
        # ends in exit 1 and one line, not a traceback
        inst, cert = self.roundtrip(tmp_path)
        if fault == "latin-1-instance":
            Path(inst).write_bytes(b"3\n0 1\n1 2\n5 9 # \xe9\n")
            argv = ["solve", inst]
        elif fault == "latin-1-certificate":
            cert.write_bytes(cert.read_bytes().replace(b"route", b"\xe9"))
            argv = ["verify", str(cert), inst]
        elif fault == "long-number-instance":
            Path(inst).write_text(f"1\n0 {LONG}\n")
            argv = ["solve", inst]
        elif fault == "long-number-certificate":
            cert.write_text(f'{{"n": {LONG}}}')
            argv = ["verify", str(cert), inst]
        else:
            cert.write_text("[" * 200_000)
            argv = ["verify", str(cert), inst]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestOracle:
    def test_found(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (0, 2)])
        assert main(["oracle", inst]) == 0
        out = capsys.readouterr().out
        assert out.startswith("found ")
        assert "nodes=" in out

    def test_budget_exhausted(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert main(["oracle", inst, "--budget", "1"]) == 4
        assert "budget exhausted" in capsys.readouterr().err

    def test_large_instance_rejected(self, tmp_path, capsys):
        edges = [(2 * i, 2 * i + 1) for i in range(6)]
        inst = write_instance(tmp_path, edges)
        assert main(["oracle", inst]) == 2


class TestWalecki:
    def test_stdout(self, capsys):
        assert main(["walecki", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "order 7 classes 3"
        assert len(out.splitlines()) == 4

    def test_out_file(self, tmp_path):
        dest = tmp_path / "walecki.txt"
        assert main(["walecki", "4", "--out", str(dest)]) == 0
        assert dest.read_text().splitlines()[0] == "order 9 classes 4"

    def test_out_directory(self, tmp_path, capsys):
        assert main(["walecki", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rejected arguments: cannot write {tmp_path}: ")
        assert len(err.splitlines()) == 1


class TestBench:
    def test_exhaustive_n3(self, capsys):
        assert main(["bench", "--n-range", "3..3", "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "n3-c000" in out
        assert "5 instances, 0 failures" in out

    def test_sampled(self, capsys):
        assert main(
            ["bench", "--n-range", "6..7", "--samples", "2", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "n6-s000" in out
        assert "4 instances, 0 failures" in out

    def test_sampled_deterministic(self, capsys):
        # only the seconds column may differ between identical invocations
        def stable(out):
            return [
                (row.split()[0], row.split()[-1]) for row in out.splitlines()
            ]

        argv = ["bench", "--n-range", "6..6", "--samples", "3", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert stable(capsys.readouterr().out) == stable(first)

    def test_bad_range(self, capsys):
        assert main(["bench", "--n-range", "3-5"]) == 2
        assert "rejected arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples(self, capsys, samples):
        assert main(["bench", "--n-range", "3..3", "--samples", samples]) == 2
        assert "rejected arguments" in capsys.readouterr().err

    def test_exhaustive_cap(self, capsys):
        assert main(["bench", "--n-range", "7..7", "--exhaustive"]) == 2
